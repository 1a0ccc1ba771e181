//! Random-access trace file reader.
//!
//! Records are fixed-size, so the reader can jump straight to any record —
//! and because each buffer begins with a time anchor, a cheap index from
//! record number to start time is built by reading just two words per
//! record. Displaying "a middle 5 seconds" of a huge trace therefore touches
//! only the overlapping records.
//!
//! Two read paths share that index and one reusable record buffer:
//!
//! * [`TraceFileReader::load_into`] is the bulk path behind every full and
//!   windowed load (`ktrace-query`'s file and stream sources, the collector
//!   store, `analysis::Trace::from_file`). It walks each CPU's records in
//!   file order with [`BufferWalk`], carrying the time hint across records,
//!   and copies only the events it keeps straight into the caller's `Vec`:
//!   one run per CPU, which the caller's stable sort merges. A windowed load
//!   walks only the records whose anchor range can overlap the window (plus,
//!   without copying, whatever an anchorless one takes its time hint from)
//!   and copies only events inside it. An I/O error fails the load.
//! * [`TraceFileReader::events`] is the streaming path: a k-way merge
//!   ([`MergedEvents`]) that holds one parsed record per CPU, for callers
//!   that must not hold the whole trace.

use crate::error::IoError;
use crate::file::{
    decode_record_header, FileHeader, FILE_MAGIC, FIXED_HEADER_BYTES, RECORD_HEADER_BYTES,
    REGISTRY_LEN_OFFSET,
};
use crate::merge::MergedEvents;
use ktrace_core::reader::{leading_anchor, parse_buffer, BufferWalk, GarbleNote, RawEvent};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// One buffer record read back from a file.
#[derive(Debug, Clone)]
pub struct BufferRecord {
    /// Index of the record in the file.
    pub index: usize,
    /// CPU that produced the buffer.
    pub cpu: u32,
    /// Buffer sequence number within that CPU's region.
    pub seq: u64,
    /// Whether the commit count matched when the buffer was drained.
    pub complete: bool,
    /// The buffer words.
    pub words: Vec<u64>,
}

/// A garbling report for one record (§3.1's anomaly reporting).
#[derive(Debug, Clone)]
pub struct RecordAnomaly {
    /// Record index in the file.
    pub record: usize,
    /// CPU that produced the buffer.
    pub cpu: u32,
    /// Buffer sequence number.
    pub seq: u64,
    /// False if the commit count mismatched at drain time.
    pub complete: bool,
    /// Structural problems found while decoding the event chain.
    pub notes: Vec<GarbleNote>,
}

/// Reader over any seekable source (usually a file).
pub struct TraceFileReader<R: Read + Seek> {
    source: R,
    header: FileHeader,
    data_start: u64,
    record_count: usize,
}

impl TraceFileReader<std::io::BufReader<std::fs::File>> {
    /// Opens a trace file.
    pub fn open(
        path: impl AsRef<Path>,
    ) -> Result<TraceFileReader<std::io::BufReader<std::fs::File>>, IoError> {
        let file = std::fs::File::open(path)?;
        // Every read here follows a seek: whole records and registries are
        // read straight into the caller's buffer, and index reads want 40
        // bytes, so a larger buffer would only copy bytes nobody reads.
        let buffered = std::io::BufReader::with_capacity(RECORD_HEADER_BYTES + 16, file);
        TraceFileReader::new(buffered)
    }
}

impl<R: Read + Seek> TraceFileReader<R> {
    /// Wraps a seekable source, decoding the header eagerly: the fixed part,
    /// then exactly the registry text it declares.
    pub fn new(mut source: R) -> Result<TraceFileReader<R>, IoError> {
        let total = source.seek(SeekFrom::End(0))?;
        source.seek(SeekFrom::Start(0))?;
        let mut bytes = vec![0u8; total.min(FIXED_HEADER_BYTES as u64) as usize];
        source.read_exact(&mut bytes)?;
        let registry_bytes = bytes
            .get(REGISTRY_LEN_OFFSET..FIXED_HEADER_BYTES)
            .map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
        // Read the registry only from a trace file that holds all of it;
        // otherwise decoding the fixed part alone reports the fault (bad
        // magic or version, bad geometry, or the truncated registry).
        if bytes.starts_with(&FILE_MAGIC) && registry_bytes <= total - bytes.len() as u64 {
            let fixed = bytes.len();
            bytes.resize(fixed + registry_bytes as usize, 0);
            source.read_exact(&mut bytes[fixed..])?;
        }
        let (header, header_len) = FileHeader::decode(&bytes)?;
        let data_start = header_len as u64;
        let record_size = header.record_size() as u64;
        let data_bytes = total - data_start;
        if !data_bytes.is_multiple_of(record_size) {
            return Err(IoError::BadHeader(
                "data section is not a whole number of records",
            ));
        }
        Ok(TraceFileReader {
            source,
            header,
            data_start,
            record_count: (data_bytes / record_size) as usize,
        })
    }

    /// The decoded file header.
    pub fn header(&self) -> &FileHeader {
        &self.header
    }

    /// Number of buffer records in the file.
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    fn check_index(&self, index: usize) -> Result<(), IoError> {
        if index >= self.record_count {
            return Err(IoError::RecordOutOfRange {
                index,
                count: self.record_count,
            });
        }
        Ok(())
    }

    /// Reads the first `bytes.len()` bytes of record `index` into `bytes`.
    fn read_at(&mut self, index: usize, bytes: &mut [u8]) -> Result<(), IoError> {
        self.check_index(index)?;
        let offset = self.data_start + index as u64 * self.header.record_size() as u64;
        self.source.seek(SeekFrom::Start(offset))?;
        self.source.read_exact(bytes)?;
        Ok(())
    }

    /// Reads record `index` through `bytes` (one record long) into `words`:
    /// one seek, one read, and no allocation once the buffers are sized.
    /// Returns `(cpu, seq, complete)`.
    pub(crate) fn read_record(
        &mut self,
        index: usize,
        bytes: &mut [u8],
        words: &mut Vec<u64>,
    ) -> Result<(u32, u64, bool), IoError> {
        self.read_at(index, bytes)?;
        let identity = decode_record_header(bytes, index)?;
        words.clear();
        words.extend(
            bytes[RECORD_HEADER_BYTES..]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8"))),
        );
        Ok(identity)
    }

    /// Reads record `index` in full — a single seek, no scanning.
    pub fn record(&mut self, index: usize) -> Result<BufferRecord, IoError> {
        let mut bytes = vec![0u8; self.header.record_size()];
        let mut words = Vec::new();
        let (cpu, seq, complete) = self.read_record(index, &mut bytes, &mut words)?;
        Ok(BufferRecord {
            index,
            cpu,
            seq,
            complete,
            words,
        })
    }

    /// Reads only a record's identity and anchor time (header + 2 words):
    /// the cheap per-record metadata the time index is built from.
    pub fn record_meta(&mut self, index: usize) -> Result<(u32, u64, bool, Option<u64>), IoError> {
        let buffer_words = self.header.buffer_words as usize;
        let mut bytes = [0u8; RECORD_HEADER_BYTES + 16];
        let bytes = &mut bytes[..RECORD_HEADER_BYTES + 8 * buffer_words.min(2)];
        self.read_at(index, bytes)?;
        let (cpu, seq, complete) = decode_record_header(bytes, index)?;
        let mut prefix = [0u64; 2];
        for (w, c) in prefix
            .iter_mut()
            .zip(bytes[RECORD_HEADER_BYTES..].chunks_exact(8))
        {
            *w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        }
        let prefix = &prefix[..buffer_words.min(2)];
        Ok((cpu, seq, complete, leading_anchor(prefix, buffer_words)))
    }

    /// Decodes record `index` into events.
    pub fn parse_record(
        &mut self,
        index: usize,
    ) -> Result<(BufferRecord, Vec<RawEvent>, Vec<GarbleNote>), IoError> {
        let rec = self.record(index)?;
        let parsed = parse_buffer(rec.cpu as usize, rec.seq, &rec.words, None);
        Ok((rec, parsed.events, parsed.notes))
    }

    /// A timestamp-merged iterator over every event in the file.
    pub fn events(&mut self) -> Result<MergedEvents<'_, R>, IoError> {
        let all: Vec<usize> = (0..self.record_count).collect();
        MergedEvents::over_records(self, all)
    }

    /// The bulk path: appends the file's events to `out`, each CPU's
    /// records in file order, with the time hint carried across records as
    /// [`events`](Self::events) carries it. With `window = Some((t0, t1))`
    /// only events with `t0 <= time < t1` are copied, and only records that
    /// can hold one (or that an anchorless one takes its hint from) are
    /// read; each copied event is the one a full load yields. An I/O error
    /// fails the load instead of shortening it.
    pub fn load_into(
        &mut self,
        window: Option<(u64, u64)>,
        out: &mut Vec<RawEvent>,
    ) -> Result<(), IoError> {
        let mut per_cpu: Vec<Vec<(usize, Option<u64>)>> =
            vec![Vec::new(); self.header.ncpus as usize];
        for k in 0..self.record_count {
            let (cpu, _seq, _complete, anchor) = self.record_meta(k)?;
            if let Some(records) = per_cpu.get_mut(cpu as usize) {
                records.push((k, anchor));
            }
        }
        let keep = |time: u64| window.is_none_or(|(t0, t1)| time >= t0 && time < t1);
        let mut bytes = vec![0u8; self.header.record_size()];
        let mut words = Vec::with_capacity(self.header.buffer_words as usize);
        for records in &per_cpu {
            let mut hint = None;
            for (&(k, _), step) in records.iter().zip(plan(records, window)) {
                let Some(copy) = step else {
                    hint = None;
                    continue;
                };
                let (cpu, seq, _complete) = self.read_record(k, &mut bytes, &mut words)?;
                let mut walk = BufferWalk::new(&words, hint);
                for e in walk.by_ref() {
                    if copy && keep(e.time) {
                        out.push(e.to_raw(cpu as usize, seq));
                    }
                }
                hint = walk.end_time().or(hint);
            }
        }
        Ok(())
    }

    /// Events whose timestamps fall in `[t0, t1)`, in timestamp order,
    /// touching only records that can overlap the window (via the
    /// anchor-time index).
    pub fn events_between(&mut self, t0: u64, t1: u64) -> Result<Vec<RawEvent>, IoError> {
        let mut events = Vec::new();
        self.load_into(Some((t0, t1)), &mut events)?;
        events.sort_by_key(|e| (e.time, e.cpu, e.seq, e.offset));
        Ok(events)
    }

    /// Scans every record for garbling: drain-time commit mismatches and
    /// structural decode anomalies.
    pub fn anomalies(&mut self) -> Result<Vec<RecordAnomaly>, IoError> {
        let mut out = Vec::new();
        for k in 0..self.record_count {
            let (rec, _events, notes) = self.parse_record(k)?;
            if !rec.complete || !notes.is_empty() {
                out.push(RecordAnomaly {
                    record: k,
                    cpu: rec.cpu,
                    seq: rec.seq,
                    complete: rec.complete,
                    notes,
                });
            }
        }
        Ok(out)
    }
}

/// What [`TraceFileReader::load_into`] does with each of one CPU's records
/// (`(index, anchor time)`, in file order): `Some(true)` walks it and copies
/// events out, `Some(false)` walks it only for the time hint it hands on,
/// `None` skips it.
///
/// A full load copies every record. A windowed load copies the records
/// whose span meets `[t0, t1)`: from their anchor (0 without one) up to
/// and including the next record's anchor (open-ended without one), since a
/// buffer's last events may carry the next anchor's exact time. A copied
/// record without an anchor takes its time from the records before it, so
/// those are walked back to the nearest anchored one, whose times need no
/// hint.
fn plan(records: &[(usize, Option<u64>)], window: Option<(u64, u64)>) -> Vec<Option<bool>> {
    let Some((t0, t1)) = window else {
        return vec![Some(true); records.len()];
    };
    let mut plan = vec![None; records.len()];
    let mut need_hint = false;
    for i in (0..records.len()).rev() {
        let start = records[i].1.unwrap_or(0);
        let end = records.get(i + 1).and_then(|r| r.1).unwrap_or(u64::MAX);
        let copy = start < t1 && end >= t0;
        if copy || need_hint {
            plan[i] = Some(copy);
            need_hint = records[i].1.is_none();
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceFileWriter;
    use ktrace_clock::ManualClock;
    use ktrace_core::{TraceConfig, TraceLogger};
    use ktrace_format::{EventDescriptor, EventRegistry, MajorId};
    use std::io::Cursor;
    use std::sync::Arc;

    /// Logs events on 2 CPUs, writes a file into memory, returns its bytes.
    fn sample_trace() -> (Vec<u8>, u64) {
        let header = FileHeader {
            ncpus: 2,
            buffer_words: TraceConfig::small().buffer_words as u32,
            ticks_per_sec: 1_000_000_000,
            clock_synchronized: true,
            registry: EventRegistry::with_builtin(),
        };
        let clock = Arc::new(ManualClock::new(1000, 10));
        let logger = TraceLogger::builder()
            .geometry(TraceConfig::small())
            .clock(clock)
            .ncpus(2)
            .build()
            .unwrap();
        let h0 = logger.handle(0).unwrap();
        let h1 = logger.handle(1).unwrap();
        let mut w = TraceFileWriter::new(Vec::new(), &header).unwrap();
        let mut logged = 0u64;
        for i in 0..300u64 {
            assert!(h0.log2(MajorId::TEST, 1, i, i * 3));
            logged += 1;
            if i % 2 == 0 {
                assert!(h1.log1(MajorId::MEM, 2, i));
                logged += 1;
            }
            for cpu in 0..2 {
                if let Some(b) = logger.take_buffer(cpu) {
                    w.write_buffer(&b).unwrap();
                }
            }
        }
        for bufs in logger.drain_all() {
            for b in bufs {
                w.write_buffer(&b).unwrap();
            }
        }
        (w.finish().unwrap(), logged)
    }

    #[test]
    fn roundtrip_all_events_merged_in_time_order() {
        let (bytes, logged) = sample_trace();
        let mut r = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        assert!(r.record_count() > 2, "trace should span several buffers");
        let events: Vec<RawEvent> = r.events().unwrap().collect();
        let data: Vec<&RawEvent> = events.iter().filter(|e| !e.is_control()).collect();
        assert_eq!(data.len() as u64, logged);
        assert!(
            events.windows(2).all(|w| w[0].time <= w[1].time),
            "merged order"
        );
        // Both CPUs present.
        assert!(data.iter().any(|e| e.cpu == 0));
        assert!(data.iter().any(|e| e.cpu == 1));
    }

    #[test]
    fn random_record_access() {
        let (bytes, _) = sample_trace();
        let mut r = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        let last = r.record_count() - 1;
        // Read records out of order; each stands alone.
        let rec_last = r.record(last).unwrap();
        let rec_0 = r.record(0).unwrap();
        assert_eq!(rec_0.index, 0);
        assert_eq!(rec_last.index, last);
        assert!(r.record(last + 1).is_err());
        // Every complete record decodes cleanly on its own (random access).
        for k in [last, 0, last / 2] {
            let (rec, events, notes) = r.parse_record(k).unwrap();
            assert!(rec.complete);
            assert!(notes.is_empty());
            assert!(!events.is_empty());
            assert!(events[0].is_control(), "records start with an anchor");
        }
    }

    #[test]
    fn record_meta_reads_anchor_cheaply() {
        let (bytes, _) = sample_trace();
        let mut r = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        let (cpu, seq, complete, anchor) = r.record_meta(0).unwrap();
        assert!(cpu < 2);
        assert_eq!(seq, 0);
        assert!(complete);
        let full = r.parse_record(0).unwrap().1;
        assert_eq!(anchor, Some(full[0].payload[0]));
    }

    #[test]
    fn events_between_returns_exactly_the_window() {
        let (bytes, _) = sample_trace();
        let mut r = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        let all: Vec<RawEvent> = r.events().unwrap().filter(|e| !e.is_control()).collect();
        let lo = all[all.len() / 4].time;
        let hi = all[3 * all.len() / 4].time;
        let expect: Vec<&RawEvent> = all.iter().filter(|e| e.time >= lo && e.time < hi).collect();
        let got = r.events_between(lo, hi).unwrap();
        let got_data: Vec<&RawEvent> = got.iter().filter(|e| !e.is_control()).collect();
        assert_eq!(got_data.len(), expect.len());
        assert_eq!(
            got_data.first().map(|e| e.time),
            expect.first().map(|e| e.time)
        );
        assert_eq!(
            got_data.last().map(|e| e.time),
            expect.last().map(|e| e.time)
        );
    }

    #[test]
    fn clean_trace_has_no_anomalies() {
        let (bytes, _) = sample_trace();
        let mut r = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        assert!(r.anomalies().unwrap().is_empty());
    }

    #[test]
    fn corrupted_record_reports_anomaly() {
        let (mut bytes, _) = sample_trace();
        // Zero the last record's first event header (its time anchor) to
        // simulate an unfinished log at the start of the buffer.
        let (hdr, hdr_len) = FileHeader::decode(&bytes).unwrap();
        let records = (bytes.len() - hdr_len) / hdr.record_size();
        let word0 = hdr_len + (records - 1) * hdr.record_size() + RECORD_HEADER_BYTES;
        for b in &mut bytes[word0..word0 + 8] {
            *b = 0;
        }
        let mut r = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        let anomalies = r.anomalies().unwrap();
        assert!(!anomalies.is_empty(), "zeroed header must be detected");
        assert!(anomalies.iter().any(|a| a
            .notes
            .iter()
            .any(|n| matches!(n, GarbleNote::ZeroHeader { .. }))));
    }

    #[test]
    fn registry_larger_than_a_mebibyte_round_trips() {
        let mut registry = EventRegistry::with_builtin();
        let template = format!("{} %0[%d]", "x".repeat(60));
        for minor in 0..16_000u16 {
            registry.register(
                MajorId::TEST,
                minor,
                EventDescriptor::new(&format!("TRACE_TEST_{minor:05}"), "64", &template).unwrap(),
            );
        }
        let header = FileHeader {
            ncpus: 1,
            buffer_words: 64,
            ticks_per_sec: 1_000,
            clock_synchronized: false,
            registry,
        };
        let encoded = header.encode();
        assert!(encoded.len() > 1 << 20, "{} bytes", encoded.len());
        let bytes = TraceFileWriter::new(Vec::new(), &header)
            .unwrap()
            .finish()
            .unwrap();
        let r = TraceFileReader::new(Cursor::new(&bytes[..])).unwrap();
        assert_eq!(r.record_count(), 0);
        assert_eq!(r.header().registry.len(), header.registry.len());
        assert!(r.header().registry.lookup(MajorId::TEST, 15_999).is_some());
        // A registry that runs past the end of the file is refused.
        let cut = &bytes[..bytes.len() - 1];
        assert!(matches!(
            TraceFileReader::new(Cursor::new(cut)),
            Err(IoError::BadHeader("registry text truncated"))
        ));
        // Header faults still come first.
        let mut bad = cut.to_vec();
        bad[0] = b'X';
        assert!(matches!(
            TraceFileReader::new(Cursor::new(bad)),
            Err(IoError::BadMagic)
        ));
        assert!(matches!(
            TraceFileReader::new(Cursor::new(&bytes[..20])),
            Err(IoError::BadHeader("file shorter than fixed header"))
        ));
    }

    #[test]
    fn truncated_file_rejected() {
        let (bytes, _) = sample_trace();
        let cut = bytes.len() - 3; // not a whole record
        assert!(TraceFileReader::new(Cursor::new(bytes[..cut].to_vec())).is_err());
    }
}
