//! The bulk and windowed loads against the reference streaming path, over
//! seeded random multi-CPU traces that carry zero headers and anchorless
//! buffers, plus the I/O-failure contract: a load that cannot read the whole
//! file fails instead of returning a short set.

use ktrace_core::reader::{GarbleNote, RawEvent};
use ktrace_io::{IoError, TraceFileReader};
use ktrace_query::EventSet;
use ktrace_testutil::random_trace;
use std::io::{Cursor, Read, Seek, SeekFrom};

fn reader(bytes: &[u8]) -> TraceFileReader<Cursor<&[u8]>> {
    TraceFileReader::new(Cursor::new(bytes)).expect("strict header")
}

/// The reference: every event through the streaming k-way merge.
fn reference(bytes: &[u8]) -> EventSet {
    let mut r = reader(bytes);
    let registry = r.header().registry.clone();
    let tps = r.header().ticks_per_sec;
    let events: Vec<RawEvent> = r.events().expect("merge").collect();
    EventSet::new(events, registry, tps)
}

#[test]
fn random_traces_exercise_both_faults() {
    let mut notes = Vec::new();
    for seed in 0..4 {
        let bytes = random_trace(seed, 3, 3000);
        for a in reader(&bytes).anomalies().unwrap() {
            notes.extend(a.notes);
        }
    }
    assert!(notes
        .iter()
        .any(|n| matches!(n, GarbleNote::ZeroHeader { .. })));
    assert!(notes.contains(&GarbleNote::MissingAnchor));
}

#[test]
fn bulk_load_equals_the_merged_stream() {
    for seed in 0..12 {
        let bytes = random_trace(seed, 1 + seed as usize % 4, 2500);
        let want = reference(&bytes);
        let got = EventSet::read(&mut reader(&bytes), None).unwrap();
        assert!(!want.events.is_empty());
        assert_eq!(got.events, want.events, "seed {seed}");
        assert_eq!(got.ticks_per_sec, want.ticks_per_sec);
        assert_eq!(got.registry.len(), want.registry.len());
    }
}

#[test]
fn every_window_equals_the_filtered_full_load() {
    let mut probe = 0x5eed_u64;
    let mut next = move |bound: u64| {
        probe = probe
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (probe >> 33) % bound.max(1)
    };
    for seed in 0..8 {
        let bytes = random_trace(100 + seed, 1 + seed as usize % 4, 2500);
        let full = EventSet::read(&mut reader(&bytes), None).unwrap();
        let times: Vec<u64> = full.events.iter().map(|e| e.time).collect();
        let (lo, hi) = (times[0], *times.last().unwrap());
        for i in 0..60 {
            // A third of the windows start and end exactly on event times,
            // where an off-by-one at a record boundary would show. Another
            // third sit on raw 32-bit stamps, below the data once the clock
            // has wrapped: an anchorless buffer decoded without its time
            // hint would put events there.
            let (t0, t1) = match i % 3 {
                0 => {
                    let a = times[next(times.len() as u64) as usize];
                    let b = times[next(times.len() as u64) as usize];
                    (a.min(b), a.max(b) + (i % 2) as u64)
                }
                1 => {
                    let a = lo + next(hi - lo + 1);
                    (a, a + next((hi - lo) / 8 + 2))
                }
                _ => {
                    let e = &full.events[next(times.len() as u64) as usize];
                    let a = u64::from(e.ts32).saturating_sub(next(64));
                    (a, a + 1 + next(4096))
                }
            };
            let want: Vec<&RawEvent> = full
                .events
                .iter()
                .filter(|e| e.time >= t0 && e.time < t1)
                .collect();
            let got = EventSet::read(&mut reader(&bytes), Some((t0, t1))).unwrap();
            let got: Vec<&RawEvent> = got.events.iter().collect();
            assert_eq!(got, want, "seed {seed} window [{t0}, {t1})");
        }
        // Windows reaching past either end.
        let all = EventSet::read(&mut reader(&bytes), Some((0, u64::MAX))).unwrap();
        assert_eq!(all.events, full.events);
        let none = EventSet::read(&mut reader(&bytes), Some((hi + 1, u64::MAX))).unwrap();
        assert!(none.events.is_empty());
    }
}

/// A byte image whose reads fail wherever they touch `bad`: a disk that
/// dies partway through (`bad` runs to the end) or one bad sector.
struct Failing {
    inner: Cursor<Vec<u8>>,
    bad: std::ops::Range<u64>,
}

impl Read for Failing {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let pos = self.inner.position();
        if self.bad.contains(&pos) {
            return Err(std::io::Error::other("device went away"));
        }
        let room = if pos < self.bad.start {
            self.bad.start - pos
        } else {
            u64::MAX
        };
        let n = buf.len().min(room.try_into().unwrap_or(usize::MAX));
        self.inner.read(&mut buf[..n])
    }
}

impl Seek for Failing {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

#[test]
fn load_and_load_window_fail_on_an_io_error_instead_of_truncating() {
    let bytes = random_trace(7, 2, 2000);
    let r = reader(&bytes);
    let record_size = r.header().record_size() as u64;
    let header_len = bytes.len() as u64 - r.record_count() as u64 * record_size;
    let full = EventSet::read(&mut reader(&bytes), None).unwrap();
    let (t0, t1) = (full.events[0].time, full.events.last().unwrap().time);
    for records in [0, 3, 9] {
        let at = header_len + records * record_size;
        // The device dies after the header and `records` records, or
        // halfway into the next record; or only a sector inside that
        // record's words is bad, so the record index reads fine and only
        // the walk's read of the record fails.
        let mid = at + record_size / 2;
        for bad in [at..u64::MAX, mid..u64::MAX, mid..mid + 1] {
            let open = || {
                TraceFileReader::new(Failing {
                    inner: Cursor::new(bytes.clone()),
                    bad: bad.clone(),
                })
                .expect("the header is readable")
            };
            let load = EventSet::read(&mut open(), None);
            assert!(matches!(load, Err(IoError::Io(_))), "load, bad {bad:?}");
            let window = EventSet::read(&mut open(), Some((t0, t1)));
            assert!(
                matches!(window, Err(IoError::Io(_))),
                "load_window, bad {bad:?}"
            );
            // The streaming path ends early and says why.
            let mut r = open();
            if let Ok(mut merged) = r.events() {
                let short = merged.by_ref().count();
                assert!(short < full.events.len());
                assert!(merged.io_error().is_some());
            }
        }
    }
}
