//! The [`TraceSource`] abstraction: one contract over the four ways events
//! are read today.
//!
//! * [`FileSource`] — the strict on-disk reader ([`TraceFileReader`]).
//! * [`SnapshotSource`] — a live logger's flight-recorder snapshot.
//! * [`SalvageSource`] — the forgiving reader over a (possibly damaged)
//!   byte image ([`ktrace_io::salvage_bytes`]).
//! * [`StreamSource`] — a drained network stream: the byte-identical trace
//!   file a receiver accumulated from a socket.
//!
//! Every source yields an [`EventSet`]: events normalized into
//! `(time, cpu, seq, offset)` order plus the registry and clock rate. The
//! strict sources read through [`EventSet::read`], the reader's bulk path:
//! it copies out only the events a load keeps, one time-ordered run per
//! CPU, and fails rather than return a set an I/O error cut short. The
//! contract sources must honor: **the data events** (everything outside the
//! `CONTROL` major) **of one underlying trace are identical through every
//! source that can see the whole trace**. Control events are transport
//! artifacts — a drained file carries fillers a live snapshot has not
//! written yet — so queries that must agree across sources should filter
//! `major == CONTROL` out (the parity matrix test pins exactly this).

use ktrace_core::reader::RawEvent;
use ktrace_core::TraceLogger;
use ktrace_format::EventRegistry;
use ktrace_io::{salvage_bytes, IoError, TraceFileReader};
use std::fmt;
use std::io::{Cursor, Read, Seek};
use std::path::{Path, PathBuf};

/// Why a source could not be read.
#[derive(Debug)]
pub enum QueryError {
    /// The underlying reader failed.
    Io(IoError),
    /// The source's bytes could not be obtained at all.
    Unreadable(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Io(e) => write!(f, "trace source unreadable: {e}"),
            QueryError::Unreadable(msg) => write!(f, "trace source unreadable: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<IoError> for QueryError {
    fn from(e: IoError) -> QueryError {
        QueryError::Io(e)
    }
}

/// A normalized, queryable batch of events from some [`TraceSource`].
#[derive(Debug, Clone)]
pub struct EventSet {
    /// Events in `(time, cpu, seq, offset)` order.
    pub events: Vec<RawEvent>,
    /// The self-describing registry (builtin-only when the source's header
    /// was unreadable).
    pub registry: EventRegistry,
    /// Clock rate of the timestamps.
    pub ticks_per_sec: u64,
}

impl EventSet {
    /// Builds a set, normalizing event order. Sources differ in raw order
    /// (one run per CPU and shard vs. per-buffer dump vs. salvage resync);
    /// one canonical order makes query results source-independent. The sort
    /// is stable and merges already-ordered runs, so events equal in every
    /// key (the same CPU and buffer on two nodes) keep their input order.
    pub fn new(mut events: Vec<RawEvent>, registry: EventRegistry, ticks_per_sec: u64) -> EventSet {
        events.sort_by_key(|e| (e.time, e.cpu, e.seq, e.offset));
        EventSet {
            events,
            registry,
            ticks_per_sec,
        }
    }

    /// Loads a strict reader's events through its bulk path
    /// ([`TraceFileReader::load_into`]): all of them, or only those with
    /// `t0 <= time < t1` when `window` is `Some((t0, t1))`.
    pub fn read<R: Read + Seek>(
        reader: &mut TraceFileReader<R>,
        window: Option<(u64, u64)>,
    ) -> Result<EventSet, IoError> {
        let mut events = Vec::new();
        reader.load_into(window, &mut events)?;
        let header = reader.header();
        Ok(EventSet::new(
            events,
            header.registry.clone(),
            header.ticks_per_sec,
        ))
    }

    /// Events outside the `CONTROL` major: no anchors, fillers, drop
    /// markers, or heartbeats.
    pub fn data_events(&self) -> impl Iterator<Item = &RawEvent> {
        self.events.iter().filter(|e| !e.is_control())
    }

    /// First data-event timestamp. Control events are excluded so the
    /// origin is transport-independent (a drained buffer's trailing filler
    /// carries a later timestamp than any data event in it).
    pub fn origin(&self) -> u64 {
        self.data_events().next().map_or(0, |e| e.time)
    }

    /// Last data-event timestamp.
    pub fn end(&self) -> u64 {
        self.data_events().last().map_or(0, |e| e.time)
    }

    /// Data span in ticks.
    pub fn span(&self) -> u64 {
        self.end().saturating_sub(self.origin())
    }
}

/// One way of reading a trace. See the module docs for the cross-source
/// contract.
pub trait TraceSource {
    /// Human-readable tag for reports and errors.
    fn describe(&self) -> String;

    /// Reads everything the source can see.
    fn load(&mut self) -> Result<EventSet, QueryError>;

    /// Reads only events with `t0 <= time < t1`. The default filters a full
    /// load; sources with §3.2 random access override it to touch only the
    /// records that can overlap the window.
    fn load_window(&mut self, t0: u64, t1: u64) -> Result<EventSet, QueryError> {
        let full = self.load()?;
        Ok(EventSet {
            events: full
                .events
                .into_iter()
                .filter(|e| e.time >= t0 && e.time < t1)
                .collect(),
            registry: full.registry,
            ticks_per_sec: full.ticks_per_sec,
        })
    }
}

/// The strict on-disk trace file.
#[derive(Debug, Clone)]
pub struct FileSource {
    path: PathBuf,
}

impl FileSource {
    /// A source reading `path` on every load.
    pub fn new(path: impl AsRef<Path>) -> FileSource {
        FileSource {
            path: path.as_ref().to_path_buf(),
        }
    }
}

impl TraceSource for FileSource {
    fn describe(&self) -> String {
        format!("file:{}", self.path.display())
    }

    fn load(&mut self) -> Result<EventSet, QueryError> {
        Ok(EventSet::read(
            &mut TraceFileReader::open(&self.path)?,
            None,
        )?)
    }

    /// Seeks via each record's time anchor (§3.2): only records whose
    /// anchor range can overlap `[t0, t1)` are decoded.
    fn load_window(&mut self, t0: u64, t1: u64) -> Result<EventSet, QueryError> {
        let mut reader = TraceFileReader::open(&self.path)?;
        Ok(EventSet::read(&mut reader, Some((t0, t1)))?)
    }
}

/// A live logger's region snapshot (flight-recorder view): whatever is in
/// the per-CPU rings right now, undrained. The dump is control-free by
/// construction (`flight_dump` strips fillers, anchors, and heartbeats as
/// debugger noise), so this source only ever yields data events — the
/// half of the cross-source contract every source must agree on.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotSource<'a> {
    logger: &'a TraceLogger,
    ticks_per_sec: u64,
}

impl<'a> SnapshotSource<'a> {
    /// A source snapshotting `logger` on every load.
    pub fn new(logger: &'a TraceLogger, ticks_per_sec: u64) -> SnapshotSource<'a> {
        SnapshotSource {
            logger,
            ticks_per_sec,
        }
    }
}

impl TraceSource for SnapshotSource<'_> {
    fn describe(&self) -> String {
        format!("snapshot:{}cpus", self.logger.ncpus())
    }

    fn load(&mut self) -> Result<EventSet, QueryError> {
        let events = self.logger.flight_dump(usize::MAX, None);
        Ok(EventSet::new(
            events,
            self.logger.registry(),
            self.ticks_per_sec,
        ))
    }
}

/// The forgiving reader over a byte image: never refuses, recovers every
/// event outside damaged extents.
#[derive(Debug, Clone)]
pub struct SalvageSource {
    bytes: Vec<u8>,
    origin: String,
}

impl SalvageSource {
    /// A source salvaging an in-memory image.
    pub fn from_bytes(bytes: Vec<u8>) -> SalvageSource {
        SalvageSource {
            bytes,
            origin: "bytes".to_string(),
        }
    }

    /// A source salvaging a file's bytes (read once, here).
    pub fn from_file(path: impl AsRef<Path>) -> Result<SalvageSource, QueryError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| QueryError::Unreadable(format!("{}: {e}", path.display())))?;
        Ok(SalvageSource {
            bytes,
            origin: path.display().to_string(),
        })
    }
}

impl TraceSource for SalvageSource {
    fn describe(&self) -> String {
        format!("salvage:{}", self.origin)
    }

    fn load(&mut self) -> Result<EventSet, QueryError> {
        let report = salvage_bytes(&self.bytes);
        let (registry, tps) = match &report.header {
            Some(h) => (h.registry.clone(), h.ticks_per_sec),
            None => (EventRegistry::with_builtin(), 1_000_000_000),
        };
        Ok(EventSet::new(report.events, registry, tps))
    }
}

/// A drained network stream: the receiver-side byte accumulation of a
/// streamed trace, parsed strictly (the wire format *is* the file format).
#[derive(Debug, Clone)]
pub struct StreamSource {
    bytes: Vec<u8>,
}

impl StreamSource {
    /// A source over the received bytes.
    pub fn new(bytes: Vec<u8>) -> StreamSource {
        StreamSource { bytes }
    }
}

impl TraceSource for StreamSource {
    fn describe(&self) -> String {
        format!("stream:{}B", self.bytes.len())
    }

    fn load(&mut self) -> Result<EventSet, QueryError> {
        let mut reader = TraceFileReader::new(Cursor::new(&self.bytes[..]))?;
        Ok(EventSet::read(&mut reader, None)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_format::MajorId;

    fn raw(cpu: usize, time: u64, minor: u16) -> RawEvent {
        RawEvent {
            cpu,
            seq: 0,
            offset: 0,
            time,
            ts32: time as u32,
            major: MajorId::TEST,
            minor,
            payload: vec![],
        }
    }

    #[test]
    fn event_set_normalizes_order_and_spans_data_only() {
        let mut anchor = raw(0, 999, 0);
        anchor.major = MajorId::CONTROL;
        let set = EventSet::new(
            vec![raw(1, 30, 1), raw(0, 10, 2), anchor, raw(0, 30, 3)],
            EventRegistry::with_builtin(),
            1_000,
        );
        let times: Vec<(u64, usize)> = set.events.iter().map(|e| (e.time, e.cpu)).collect();
        assert_eq!(times, vec![(10, 0), (30, 0), (30, 1), (999, 0)]);
        // Control events don't stretch the data span.
        assert_eq!(set.origin(), 10);
        assert_eq!(set.end(), 30);
        assert_eq!(set.span(), 20);
        assert_eq!(set.data_events().count(), 3);
    }

    #[test]
    fn default_window_filters_half_open() {
        struct Fixed(Vec<RawEvent>);
        impl TraceSource for Fixed {
            fn describe(&self) -> String {
                "fixed".into()
            }
            fn load(&mut self) -> Result<EventSet, QueryError> {
                Ok(EventSet::new(
                    self.0.clone(),
                    EventRegistry::with_builtin(),
                    1_000,
                ))
            }
        }
        let mut src = Fixed((0..10).map(|i| raw(0, i * 10, i as u16)).collect());
        let win = src.load_window(20, 50).unwrap();
        let times: Vec<u64> = win.events.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![20, 30, 40]);
    }
}
