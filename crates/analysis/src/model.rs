//! The [`Trace`] model all tools consume.

use ktrace_core::reader::RawEvent;
use ktrace_core::TraceLogger;
use ktrace_events::decode::{sched_events, SchedEv};
use ktrace_format::{EventRegistry, MajorId};
use ktrace_io::{IoError, TraceFileReader};
use ktrace_query::{EventSet, QueryError, TraceSource};
use std::collections::HashMap;
use std::path::Path;

/// A merged, time-ordered event stream with its registry and clock rate.
#[derive(Debug, Clone)]
pub struct Trace {
    /// All events, sorted by reconstructed timestamp.
    pub events: Vec<RawEvent>,
    /// The self-describing event registry.
    pub registry: EventRegistry,
    /// Clock rate of the timestamps.
    pub ticks_per_sec: u64,
}

impl Trace {
    /// Builds a trace from raw events (sorted here) and metadata.
    pub fn from_events(
        mut events: Vec<RawEvent>,
        registry: EventRegistry,
        ticks_per_sec: u64,
    ) -> Trace {
        events.sort_by_key(|e| e.time);
        Trace {
            events,
            registry,
            ticks_per_sec,
        }
    }

    /// Loads a trace file through the strict reader's bulk path.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Trace, IoError> {
        let set = EventSet::read(&mut TraceFileReader::open(path)?, None)?;
        Ok(Trace::from_events(
            set.events,
            set.registry,
            set.ticks_per_sec,
        ))
    }

    /// Snapshots a live logger (flight-recorder style).
    pub fn from_logger(logger: &TraceLogger, ticks_per_sec: u64) -> Trace {
        let events = logger.flight_dump(usize::MAX, None);
        Trace::from_events(events, logger.registry(), ticks_per_sec)
    }

    /// Loads any [`TraceSource`] — file, live snapshot, salvaged image, or
    /// drained network stream — so every analysis runs unchanged over all
    /// four.
    pub fn from_source(source: &mut dyn TraceSource) -> Result<Trace, QueryError> {
        let set = source.load()?;
        Ok(Trace::from_events(
            set.events,
            set.registry,
            set.ticks_per_sec,
        ))
    }

    /// The first timestamp (the display origin).
    pub fn origin(&self) -> u64 {
        self.events.first().map_or(0, |e| e.time)
    }

    /// The last timestamp.
    pub fn end(&self) -> u64 {
        self.events.last().map_or(0, |e| e.time)
    }

    /// Ticks → seconds relative to the origin.
    pub fn seconds(&self, t: u64) -> f64 {
        (t.saturating_sub(self.origin())) as f64 / self.ticks_per_sec as f64
    }

    /// A sub-trace restricted to `[t0, t1)` (absolute ticks).
    pub fn window(&self, t0: u64, t1: u64) -> Trace {
        Trace {
            events: self
                .events
                .iter()
                .filter(|e| e.time >= t0 && e.time < t1)
                .cloned()
                .collect(),
            registry: self.registry.clone(),
            ticks_per_sec: self.ticks_per_sec,
        }
    }

    /// Events of one major class.
    pub fn of_major(&self, major: MajorId) -> impl Iterator<Item = &RawEvent> {
        self.events.iter().filter(move |e| e.major == major)
    }

    /// A map from thread ID to process ID, recovered from scheduler events.
    pub fn tid_to_pid(&self) -> HashMap<u64, u64> {
        let mut map = HashMap::new();
        for (_, ev) in sched_events(self.of_major(MajorId::SCHED)) {
            match ev {
                SchedEv::ThreadStart { tid, pid } | SchedEv::ThreadExit { tid, pid } => {
                    map.insert(tid, pid);
                }
                SchedEv::CtxSwitch {
                    new_tid, new_pid, ..
                } => {
                    map.insert(new_tid, new_pid);
                }
                _ => {}
            }
        }
        map
    }

    /// A map from pid to process name, recovered from PROC_CREATE events.
    pub fn pid_names(&self) -> HashMap<u64, String> {
        let mut map = HashMap::new();
        map.insert(0, "kernel".to_string());
        map.insert(1, "baseServers".to_string());
        for e in self.of_major(MajorId::PROC) {
            if e.minor != ktrace_events::proc::CREATE {
                continue;
            }
            let Some(desc) = self.registry.lookup(e.major, e.minor) else {
                continue;
            };
            let Ok(values) = desc.spec.decode(&e.payload) else {
                continue;
            };
            if values.len() >= 3 {
                map.insert(values[0].as_int(), values[2].to_string());
            }
        }
        map
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Synthetic-event helpers shared by tool tests.

    use super::*;
    use ktrace_format::MinorId;

    /// Builds one event with explicit fields.
    pub fn ev(cpu: usize, time: u64, major: MajorId, minor: MinorId, payload: &[u64]) -> RawEvent {
        RawEvent {
            cpu,
            seq: 0,
            offset: 0,
            time,
            ts32: time as u32,
            major,
            minor,
            payload: payload.to_vec(),
        }
    }

    /// A trace from synthetic events with the builtin + OS registry.
    pub fn trace(events: Vec<RawEvent>) -> Trace {
        use ktrace_clock::SyncClock;
        use ktrace_core::{TraceConfig, TraceLogger};
        use std::sync::Arc;
        let logger = TraceLogger::builder()
            .geometry(TraceConfig::small())
            .clock(Arc::new(SyncClock::new()))
            .ncpus(1)
            .build()
            .unwrap();
        ktrace_events::register_all(&logger);
        Trace::from_events(events, logger.registry(), 1_000_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{ev, trace};
    use super::*;
    use ktrace_events::{proc as procev, sched};
    use ktrace_format::pack::WordPacker;

    #[test]
    fn events_sorted_and_origin_end() {
        let t = trace(vec![
            ev(0, 300, MajorId::TEST, 1, &[]),
            ev(0, 100, MajorId::TEST, 2, &[]),
            ev(1, 200, MajorId::TEST, 3, &[]),
        ]);
        assert_eq!(t.origin(), 100);
        assert_eq!(t.end(), 300);
        assert!(t.events.windows(2).all(|w| w[0].time <= w[1].time));
        assert!((t.seconds(200) - 1e-7).abs() < 1e-12);
    }

    #[test]
    fn window_filters_absolute_ticks() {
        let t = trace(
            (0..10)
                .map(|i| ev(0, i * 100, MajorId::TEST, i as u16, &[]))
                .collect(),
        );
        let w = t.window(250, 650);
        assert_eq!(w.events.len(), 4); // 300,400,500,600
        assert_eq!(w.events[0].minor, 3);
    }

    #[test]
    fn tid_to_pid_from_sched_events() {
        let t = trace(vec![
            ev(0, 1, MajorId::SCHED, sched::THREAD_START, &[0x100, 7]),
            ev(0, 2, MajorId::SCHED, sched::CTX_SWITCH, &[0, 0x200, 9]),
        ]);
        let map = t.tid_to_pid();
        assert_eq!(map[&0x100], 7);
        assert_eq!(map[&0x200], 9);
    }

    #[test]
    fn pid_names_decoded_from_create_events() {
        let mut p = WordPacker::new();
        p.push(6, 64).push(2, 64).push_str("/shellServer");
        let t = trace(vec![ev(0, 1, MajorId::PROC, procev::CREATE, &p.finish())]);
        let names = t.pid_names();
        assert_eq!(names[&6], "/shellServer");
        assert_eq!(names[&0], "kernel");
        assert_eq!(names[&1], "baseServers");
    }
}
