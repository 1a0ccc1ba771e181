//! Outside-in probes for the traced run. They wrap the program's public
//! seams — a session's `Write` sink and ossim's `Tracer` — and time the calls
//! that cross them; the program itself carries no extra instrumentation.

use ktrace_clock::ClockSource;
use ktrace_core::CpuHandle;
use ktrace_format::{MajorId, MinorId};
use ktrace_io::file::RECORD_HEADER_BYTES;
use ktrace_ossim::{TraceHandle, Tracer};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a [`SinkProbe`] saw, one entry per record.
#[derive(Debug, Default)]
pub struct SinkSamples {
    /// Wall time of each record's write into the inner sink, microseconds.
    pub write_us: Vec<f64>,
    /// Age of each record at its write: shared-clock now minus the
    /// record's anchor timestamp, milliseconds.
    pub age_ms: Vec<f64>,
}

/// A `Write` sink that times every record the trace writer hands it and
/// reads the record's time anchor to measure how stale it is.
///
/// The trace writer emits the file header in one write and then each record
/// (record header + buffer words) in one write of exactly `record_size`
/// bytes; any other write passes through untimed.
pub struct SinkProbe<W: Write> {
    inner: W,
    clock: Arc<dyn ClockSource>,
    record_size: usize,
    samples: Arc<Mutex<SinkSamples>>,
}

impl<W: Write> SinkProbe<W> {
    pub fn new(
        inner: W,
        clock: Arc<dyn ClockSource>,
        buffer_words: usize,
        samples: Arc<Mutex<SinkSamples>>,
    ) -> SinkProbe<W> {
        SinkProbe {
            inner,
            clock,
            record_size: RECORD_HEADER_BYTES + buffer_words * 8,
            samples,
        }
    }
}

impl<W: Write> Write for SinkProbe<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.len() != self.record_size {
            return self.inner.write(buf);
        }
        // Word 0 of a buffer is its TIME_ANCHOR event: header, 64-bit
        // timestamp, CPU.
        let at = RECORD_HEADER_BYTES + 8;
        let anchor = u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
        let age_ticks = self.clock.now(0).saturating_sub(anchor);
        let started = Instant::now();
        self.inner.write_all(buf)?;
        let write_us = started.elapsed().as_secs_f64() * 1e6;
        let age_ms = age_ticks as f64 * 1e3 / self.clock.ticks_per_sec() as f64;
        let mut s = self.samples.lock().expect("probe samples lock poisoned");
        s.write_us.push(write_us);
        s.age_ms.push(age_ms);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Latency buckets of the tracer probe: 4 ns wide up to 16 µs, the last one
/// catching everything slower.
const CALL_BUCKETS: usize = 4096;
const CALL_BUCKET_NS: u64 = 4;

/// Every eighth call through a [`TimedHandle`] is timed.
const CALL_SAMPLE_EVERY: u64 = 8;

/// Shared tallies of one [`TimedTracer`].
pub struct CallTally {
    calls: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl CallTally {
    fn new() -> CallTally {
        CallTally {
            calls: AtomicU64::new(0),
            buckets: (0..CALL_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Calls made through the tracer's handles.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The sampled call latencies, nanoseconds, one bucket midpoint per
    /// sample.
    pub fn samples_ns(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let mid = (i as u64 * CALL_BUCKET_NS) as f64 + CALL_BUCKET_NS as f64 / 2.0;
            out.extend(std::iter::repeat_n(mid, b.load(Ordering::Relaxed) as usize));
        }
        out
    }
}

/// Batches the masked-call probe times, and calls per batch.
pub const MASKED_BATCHES: usize = 256;
pub const MASKED_PER_BATCH: usize = 448;

/// Times [`MASKED_BATCHES`] batches of [`MASKED_PER_BATCH`] calls on
/// `major`, which `h`'s mask must disable: nanoseconds per call, per batch.
/// For workloads that log no masked calls of their own.
pub fn time_masked(h: &CpuHandle, major: MajorId) -> Vec<f64> {
    (0..MASKED_BATCHES)
        .map(|_| {
            let started = Instant::now();
            for i in 0..MASKED_PER_BATCH {
                std::hint::black_box(h.log_slice(major, 1, &[i as u64]));
            }
            started.elapsed().as_nanos() as f64 / MASKED_PER_BATCH as f64
        })
        .collect()
}

/// A `Tracer` around another (the record stage's `KTracer`) that counts
/// every log call and times a fixed share of them.
pub struct TimedTracer<T> {
    inner: T,
    tally: Arc<CallTally>,
}

impl<T: Tracer> TimedTracer<T> {
    pub fn new(inner: T) -> TimedTracer<T> {
        TimedTracer {
            inner,
            tally: Arc::new(CallTally::new()),
        }
    }

    pub fn tally(&self) -> &Arc<CallTally> {
        &self.tally
    }
}

impl<T: Tracer> Tracer for TimedTracer<T> {
    type Handle = TimedHandle<T::Handle>;

    fn handle(&self, cpu: usize) -> TimedHandle<T::Handle> {
        TimedHandle {
            inner: self.inner.handle(cpu),
            tally: self.tally.clone(),
            calls: Cell::new(0),
        }
    }
}

/// Handle of [`TimedTracer`]. Its call count lives in a `Cell` and reaches
/// the shared tally when the handle is dropped, so counting adds no shared
/// write per call.
pub struct TimedHandle<H> {
    inner: H,
    tally: Arc<CallTally>,
    calls: Cell<u64>,
}

impl<H: TraceHandle> Clone for TimedHandle<H> {
    fn clone(&self) -> TimedHandle<H> {
        TimedHandle {
            inner: self.inner.clone(),
            tally: self.tally.clone(),
            calls: Cell::new(0),
        }
    }
}

impl<H> Drop for TimedHandle<H> {
    fn drop(&mut self) {
        self.tally
            .calls
            .fetch_add(self.calls.get(), Ordering::Relaxed);
    }
}

impl<H: TraceHandle> TraceHandle for TimedHandle<H> {
    fn log(&self, major: MajorId, minor: MinorId, payload: &[u64]) {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if !n.is_multiple_of(CALL_SAMPLE_EVERY) {
            self.inner.log(major, minor, payload);
            return;
        }
        let started = Instant::now();
        self.inner.log(major, minor, payload);
        let ns = started.elapsed().as_nanos() as u64;
        let bucket = ((ns / CALL_BUCKET_NS) as usize).min(CALL_BUCKETS - 1);
        self.tally.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn enabled(&self, major: MajorId) -> bool {
        self.inner.enabled(major)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_clock::ManualClock;

    #[test]
    fn sink_probe_times_records_and_reads_anchor_age() {
        let clock = Arc::new(ManualClock::new(5_000_000, 0));
        let samples = Arc::new(Mutex::new(SinkSamples::default()));
        let mut probe = SinkProbe::new(Vec::new(), clock, 16, samples.clone());
        probe.write_all(b"header bytes").unwrap();
        let mut record = vec![0u8; RECORD_HEADER_BYTES + 16 * 8];
        record[RECORD_HEADER_BYTES + 8..RECORD_HEADER_BYTES + 16]
            .copy_from_slice(&3_000_000u64.to_le_bytes());
        probe.write_all(&record).unwrap();
        let s = samples.lock().unwrap();
        assert_eq!(s.write_us.len(), 1, "the header is not a record");
        assert!((s.age_ms[0] - 2.0).abs() < 1e-9, "age {}", s.age_ms[0]);
    }
}
