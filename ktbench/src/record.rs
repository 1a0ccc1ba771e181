//! The record stage of each workload: seeded inputs, the logging that turns
//! them into a trace file, and the reference check of that file.
//!
//! * `flood` — closed-loop writer threads, one per trace CPU, 7 of every 8
//!   calls on a masked major; the hot path and the session drainer.
//! * `sdet` — the ossim SDET script mix traced through `KTracer`.
//! * `replay` — a seeded synthetic trace of LOCK spans, scheduler events,
//!   heartbeats and anomaly audits, logged by one thread that drains the
//!   logger itself, so its content is a pure function of the seed.

use crate::probe::{time_masked, SinkProbe, SinkSamples, TimedTracer, MASKED_PER_BATCH};
use crate::util::{fingerprint, Rng};
use ktrace_clock::{ClockSource, SyncClock};
use ktrace_core::{TraceConfig, TraceLogger};
use ktrace_format::ids::control;
use ktrace_format::{MajorId, MinorId};
use ktrace_io::{FileHeader, SessionStats, TraceFileReader, TraceFileWriter, TraceSession};
use ktrace_ossim::workload::sdet::{self, SdetConfig};
use ktrace_ossim::{KTracer, Machine, MachineConfig, NoTracer, TraceHandle, Tracer, Workload};
use ktrace_telemetry::TelemetrySnapshot;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Enabled majors of the flood mix, and the masked ones the session
/// disables.
const FLOOD_ENABLED: [MajorId; 4] = [MajorId::MEM, MajorId::SCHED, MajorId::IPC, MajorId::FS];
const FLOOD_MASKED: [MajorId; 4] = [MajorId::PROF, MajorId::HWPERF, MajorId::LIB, MajorId::IO];

/// Flood calls are timed (traced run) in chunks of this many calls: the
/// chunk's enabled calls as one batch, its masked calls as another.
const FLOOD_CHUNK: usize = 512;

/// Before each chunk a flood writer, and every `SDET_PACE_EVERY` calls an
/// sdet CPU, waits until its ring has this many buffers free of events the
/// drainer has not taken. What it logs until the next wait fills less than
/// that, so it never laps the drainer and no event is lost to overrun: the
/// loop is closed on the drainer, and the record stage's rates are the
/// pipeline's lossless throughput.
const HEADROOM_BUFFERS: u64 = 2;

/// Calls between an sdet CPU's waits: 16 of the largest events (1023
/// words) fit in one buffer.
const SDET_PACE_EVERY: u64 = 16;

/// The replay recorder drains the logger after this many steps; at most
/// 11 words per step keeps the backlog far below the 8-buffer ring, so
/// nothing is ever dropped.
const REPLAY_DRAIN_EVERY: usize = 2048;

/// Buffer geometry for every workload: the paper's 128 KiB buffers.
pub fn geometry() -> TraceConfig {
    TraceConfig::paper()
}

/// How large a workload's inputs are.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `flood`: calls per writer per round.
    pub flood_calls: usize,
    /// `sdet`: scripts per round.
    pub sdet_scripts: usize,
    /// `replay`: generator steps per round.
    pub replay_steps: usize,
}

impl Size {
    pub const FULL: Size = Size {
        flood_calls: 4 << 20,
        sdet_scripts: 1024,
        replay_steps: 400_000,
    };
    pub const TINY: Size = Size {
        flood_calls: 1 << 14,
        sdet_scripts: 16,
        replay_steps: 4096,
    };

    /// Every input `k` times smaller (the warm-up round).
    pub fn shrink(self, k: usize) -> Size {
        Size {
            flood_calls: (self.flood_calls / k).max(FLOOD_CHUNK),
            sdet_scripts: (self.sdet_scripts / k).max(1),
            replay_steps: (self.replay_steps / k).max(1),
        }
    }
}

/// One call of the flood mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    pub major: MajorId,
    pub minor: u16,
    pub words: u8,
    pub enabled: bool,
}

/// One writer's share of the flood mix.
pub struct WriterMix {
    /// Every call, in the order the untraced run makes them.
    pub mix: Vec<Call>,
    /// The enabled calls; an index here is the call's sequence number.
    pub enabled: Vec<Call>,
    /// The masked calls.
    pub masked: Vec<Call>,
}

impl WriterMix {
    fn generate(rng: &mut Rng, calls: usize) -> WriterMix {
        let mut mix = Vec::with_capacity(calls);
        for _ in 0..calls / 8 {
            let hit = rng.below(8);
            for i in 0..8 {
                let enabled = i == hit;
                let majors = if enabled {
                    &FLOOD_ENABLED
                } else {
                    &FLOOD_MASKED
                };
                mix.push(Call {
                    major: majors[rng.below(4) as usize],
                    minor: 1 + rng.below(8) as u16,
                    words: rng.below(7) as u8,
                    enabled,
                });
            }
        }
        let enabled = mix.iter().copied().filter(|c| c.enabled).collect();
        let masked = mix.iter().copied().filter(|c| !c.enabled).collect();
        WriterMix {
            mix,
            enabled,
            masked,
        }
    }
}

/// One step of the replay generator.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    Log {
        cpu: u8,
        major: MajorId,
        minor: u16,
        words: u8,
        payload: [u64; 5],
    },
    Heartbeat {
        cpu: u8,
    },
    Anomaly {
        cpu: u8,
        track: u64,
    },
}

/// The seeded inputs of one workload.
pub enum Input {
    Flood {
        writers: Vec<WriterMix>,
    },
    Sdet {
        workload: Workload,
        scripts: usize,
        ncpus: usize,
    },
    Replay {
        steps: Vec<Step>,
        counts: BTreeMap<(u8, u16), u64>,
    },
}

impl Input {
    /// Builds the inputs of `workload` from `seed`. `cores` sizes the
    /// thread counts (flood writers, simulated CPUs).
    pub fn build(workload: &str, seed: u64, size: Size, cores: usize) -> Result<Input, String> {
        let mut rng = Rng::new(seed);
        match workload {
            "flood" => {
                let writers = cores.saturating_sub(1).max(1);
                Ok(Input::Flood {
                    writers: (0..writers)
                        .map(|_| WriterMix::generate(&mut rng, size.flood_calls))
                        .collect(),
                })
            }
            "sdet" => {
                // Like flood: one core is left to the session drainer.
                let ncpus = cores.saturating_sub(1).max(1);
                Ok(Input::Sdet {
                    workload: sdet::build(SdetConfig {
                        scripts: size.sdet_scripts,
                        seed,
                        ..SdetConfig::default()
                    }),
                    scripts: size.sdet_scripts,
                    ncpus,
                })
            }
            "replay" => Ok(replay_steps(&mut rng, size.replay_steps)),
            other => Err(format!("unknown workload {other:?} (flood|sdet|replay)")),
        }
    }

    /// Record stages per round: each workload's record stage is repeated
    /// until it is a fair share of the round, beside the ingest and query
    /// stages that run once on the last file.
    pub fn record_reps(&self) -> usize {
        match self {
            Input::Flood { .. } => 8,
            Input::Sdet { .. } => 2,
            Input::Replay { .. } => 4,
        }
    }

    /// A digest of the inputs: two set-ups from one seed must agree on it.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Input::Flood { writers } => fingerprint(writers.iter().flat_map(|w| {
                w.mix.iter().map(|c| {
                    u64::from(c.major.raw())
                        | u64::from(c.minor) << 8
                        | u64::from(c.words) << 24
                        | u64::from(c.enabled) << 32
                })
            })),
            Input::Sdet { workload, .. } => {
                fingerprint(format!("{workload:?}").bytes().map(u64::from))
            }
            Input::Replay { counts, steps } => fingerprint(
                counts
                    .iter()
                    .flat_map(|(&(major, minor), &n)| [u64::from(major), u64::from(minor), n])
                    .chain([steps.len() as u64]),
            ),
        }
    }
}

fn replay_steps(rng: &mut Rng, steps: usize) -> Input {
    const LOCKS: usize = 64;
    let mut out = Vec::with_capacity(steps + 16);
    let mut owner: [Option<u8>; LOCKS] = [None; LOCKS];
    let mut held: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let log = |cpu: u8, major: MajorId, minor: u16, payload: &[u64]| {
        let mut p = [0u64; 5];
        p[..payload.len()].copy_from_slice(payload);
        Step::Log {
            cpu,
            major,
            minor,
            words: payload.len() as u8,
            payload: p,
        }
    };
    use ktrace_events::{lock, mem, sched, syscall};
    let mut i = 0usize;
    while out.len() < steps {
        i += 1;
        if i.is_multiple_of(4096) {
            out.push(Step::Heartbeat { cpu: 0 });
            out.push(Step::Heartbeat { cpu: 1 });
        }
        if i.is_multiple_of(65536) {
            out.push(Step::Anomaly {
                cpu: 0,
                track: rng.below(control::ANOMALY_TRACKS.len() as u64),
            });
        }
        let cpu = rng.below(2) as u8;
        let c = cpu as usize;
        let tid = 0x8000_0000 + u64::from(cpu) * 64 + rng.below(64);
        let r = rng.below(100);
        if r < 20 && held[c].len() < 4 {
            let l = rng.below(LOCKS as u64) as usize;
            if owner[l].is_none() {
                owner[l] = Some(cpu);
                held[c].push(l);
                let chain = rng.next_u64() & 0xffff_ffff;
                out.push(log(
                    cpu,
                    MajorId::LOCK,
                    lock::REQUEST,
                    &[l as u64, tid, chain],
                ));
                out.push(log(
                    cpu,
                    MajorId::LOCK,
                    lock::ACQUIRED,
                    &[l as u64, tid, chain, rng.below(50), rng.below(5000)],
                ));
                continue;
            }
        }
        if r < 40 {
            if let Some(l) = held[c].pop() {
                owner[l] = None;
                out.push(log(
                    cpu,
                    MajorId::LOCK,
                    lock::RELEASED,
                    &[l as u64, tid, rng.below(20_000)],
                ));
                continue;
            }
        }
        out.push(match r {
            0..=69 => log(
                cpu,
                MajorId::SCHED,
                sched::CTX_SWITCH,
                &[tid, tid + 1, 100 + rng.below(32)],
            ),
            70..=74 => log(cpu, MajorId::SCHED, sched::IDLE_START, &[]),
            75..=79 => log(cpu, MajorId::SCHED, sched::IDLE_END, &[rng.below(100_000)]),
            80..=89 => log(
                cpu,
                MajorId::MEM,
                mem::ALLOC,
                &[8 << rng.below(10), rng.next_u64()],
            ),
            _ => log(
                cpu,
                MajorId::SYSCALL,
                syscall::ENTRY,
                &[100 + rng.below(32), tid, rng.below(10)],
            ),
        });
    }
    for (c, stack) in held.iter_mut().enumerate() {
        while let Some(l) = stack.pop() {
            out.push(log(
                c as u8,
                MajorId::LOCK,
                lock::RELEASED,
                &[l as u64, 0, 0],
            ));
        }
    }
    let mut counts = BTreeMap::new();
    for s in &out {
        if let Step::Log { major, minor, .. } = s {
            *counts.entry((major.raw(), *minor)).or_insert(0) += 1;
        }
    }
    Input::Replay { steps: out, counts }
}

/// What one record stage did and what the file must hold.
#[derive(Default)]
pub struct Recorded {
    pub path: PathBuf,
    /// First log call until the file is complete (session finished).
    pub wall: Duration,
    /// Work units completed (log calls, or SDET scripts) over `ops_wall`.
    pub ops: u64,
    pub ops_wall: Duration,
    /// Data-major log calls made, by the recorder's own count.
    pub calls: u64,
    /// Calls that should have become durable (the rest were masked).
    pub enabled: u64,
    pub masked: u64,
    /// Overrun drops.
    pub dropped: u64,
    /// Logged but lost to a dead sink.
    pub sink_lost: u64,
    pub logged: u64,
    /// `logged − sink_lost` as the logger and session report it.
    pub expected_in_file: u64,
    pub words_reserved: u64,
    pub cas_retries: u64,
    /// Exact per-(major, minor) data counts the file must hold, where the
    /// input fixes them.
    pub exact_counts: Option<BTreeMap<(u8, u16), u64>>,
    /// Problems the recorder itself saw.
    pub problems: Vec<String>,
    /// Traced run only: sink probe samples; enabled and masked log-call
    /// timings, nanoseconds per call.
    pub sink: SinkSamples,
    pub log_ns: Vec<f64>,
    pub masked_ns: Vec<f64>,
    /// Traced `sdet` only: calls through the timing tracer.
    pub tracer_calls: u64,
}

impl Recorded {
    fn absorb_session(&mut self, stats: &SessionStats) {
        self.absorb_telemetry(&stats.telemetry);
        self.sink_lost = stats.events_lost;
        self.logged = stats.logger.events_logged;
        self.expected_in_file = stats.events_expected_in_file();
        self.words_reserved = stats.logger.words_reserved;
        if !stats.lossless() {
            self.problems.push(format!(
                "session not lossless: {} buffers dropped, sink error {:?}",
                stats.buffers_dropped, stats.sink_error
            ));
        }
    }

    fn absorb_telemetry(&mut self, t: &TelemetrySnapshot) {
        self.masked = t.events_masked();
        self.dropped = t.events_dropped();
        self.cas_retries = t.cas_retries();
    }
}

/// The sink every recorder writes through: the file, wrapped in the timing
/// probe in the traced run.
fn sink(
    path: &Path,
    traced: bool,
    clock: &Arc<SyncClock>,
    samples: &Arc<Mutex<SinkSamples>>,
) -> Result<Box<dyn Write + Send>, String> {
    // A new file, not the previous rep's file truncated: ext4 writes a file
    // that was truncated and rewritten back to disk when it is closed
    // (`auto_da_alloc`), which would put the host's disk into the timings.
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("remove {}: {e}", path.display()));
        }
        _ => {}
    }
    let file = BufWriter::new(
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?,
    );
    Ok(if traced {
        Box::new(SinkProbe::new(
            file,
            clock.clone(),
            geometry().buffer_words,
            samples.clone(),
        ))
    } else {
        Box::new(file)
    })
}

fn take_samples(samples: Arc<Mutex<SinkSamples>>) -> SinkSamples {
    std::mem::take(&mut *samples.lock().expect("probe samples lock poisoned"))
}

/// Runs one record stage of `input` into `path`.
pub fn record(input: &Input, path: &Path, traced: bool) -> Result<Recorded, String> {
    match input {
        Input::Flood { writers } => record_flood(writers, path, traced),
        Input::Sdet {
            workload, ncpus, ..
        } => record_sdet(workload, *ncpus, path, traced),
        Input::Replay { steps, counts } => record_replay(steps, counts, path, traced),
    }
}

fn record_flood(writers: &[WriterMix], path: &Path, traced: bool) -> Result<Recorded, String> {
    let clock = Arc::new(SyncClock::new());
    let samples = Arc::new(Mutex::new(SinkSamples::default()));
    let session = TraceSession::builder()
        .geometry(geometry())
        .ncpus(writers.len())
        .clock(clock.clone())
        .disable(&FLOOD_MASKED)
        .start(sink(path, traced, &clock, &samples)?)
        .map_err(|e| format!("flood session: {e}"))?;
    let barrier = Barrier::new(writers.len());
    let per_writer: Vec<(Instant, Vec<f64>, Vec<f64>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = writers
            .iter()
            .enumerate()
            .map(|(cpu, w)| {
                let logger = session.logger();
                let h = logger.handle(cpu).expect("writer cpu in range");
                let barrier = &barrier;
                s.spawn(move || {
                    let calls = w.mix.len() / FLOOD_CHUNK * FLOOD_CHUNK;
                    barrier.wait();
                    let start = Instant::now();
                    let (log_ns, masked_ns) = if traced {
                        flood_traced(logger, &h, w, calls)
                    } else {
                        flood_plain(logger, &h, &w.mix[..calls]);
                        (Vec::new(), Vec::new())
                    };
                    (start, log_ns, masked_ns, calls as u64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("flood writer panicked"))
            .collect()
    });
    let stats = session.finish();
    let end = Instant::now();
    let start = per_writer
        .iter()
        .map(|w| w.0)
        .min()
        .expect("at least one writer");
    let mut rec = Recorded {
        path: path.to_path_buf(),
        wall: end - start,
        ops_wall: end - start,
        ..Recorded::default()
    };
    for (w, (_, log_ns, masked_ns, calls)) in writers.iter().zip(per_writer) {
        rec.calls += calls;
        rec.enabled += w.mix[..calls as usize].iter().filter(|c| c.enabled).count() as u64;
        rec.log_ns.extend(log_ns);
        rec.masked_ns.extend(masked_ns);
    }
    rec.ops = rec.calls;
    rec.absorb_session(&stats);
    rec.sink = take_samples(samples);
    Ok(rec)
}

/// Flow control for the threaded record stages: yields until `cpu`'s ring
/// has `HEADROOM_BUFFERS` buffers free.
fn wait_for_drainer(logger: &TraceLogger, cpu: usize) {
    let headroom = HEADROOM_BUFFERS * geometry().buffer_words as u64;
    loop {
        let (outstanding, capacity) = logger.occupancy(cpu);
        if outstanding + headroom <= capacity {
            return;
        }
        std::thread::yield_now();
    }
}

/// The untraced writer loop: the mix in call order. Payload word 0 is the
/// writer's sequence number (its count of enabled calls so far); word `k`
/// is `seq + k`, so a reader can tell a torn or mixed-up event.
#[inline(never)]
fn flood_plain(logger: &TraceLogger, h: &ktrace_core::CpuHandle, mix: &[Call]) {
    let mut seq = 0u64;
    let mut payload = [0u64; 6];
    for chunk in mix.chunks(FLOOD_CHUNK) {
        wait_for_drainer(logger, h.cpu());
        for c in chunk {
            for (k, p) in payload.iter_mut().enumerate() {
                *p = seq + k as u64;
            }
            std::hint::black_box(h.log_slice(c.major, c.minor, &payload[..c.words as usize]));
            seq += u64::from(c.enabled);
        }
    }
}

/// The traced writer loop: per chunk, the enabled calls as one timed batch
/// and the masked calls as another. Returns ns/call per batch.
#[inline(never)]
fn flood_traced(
    logger: &TraceLogger,
    h: &ktrace_core::CpuHandle,
    w: &WriterMix,
    calls: usize,
) -> (Vec<f64>, Vec<f64>) {
    let chunks = calls / FLOOD_CHUNK;
    let (en, ma) = (FLOOD_CHUNK / 8, FLOOD_CHUNK - FLOOD_CHUNK / 8);
    let mut log_ns = Vec::with_capacity(chunks);
    let mut masked_ns = Vec::with_capacity(chunks);
    let mut payload = [0u64; 6];
    for chunk in 0..chunks {
        wait_for_drainer(logger, h.cpu());
        let first = chunk * en;
        let started = Instant::now();
        for (i, c) in w.enabled[first..first + en].iter().enumerate() {
            let seq = (first + i) as u64;
            for (k, p) in payload.iter_mut().enumerate() {
                *p = seq + k as u64;
            }
            std::hint::black_box(h.log_slice(c.major, c.minor, &payload[..c.words as usize]));
        }
        log_ns.push(started.elapsed().as_nanos() as f64 / en as f64);
        let started = Instant::now();
        for c in &w.masked[chunk * ma..(chunk + 1) * ma] {
            std::hint::black_box(h.log_slice(c.major, c.minor, &payload[..c.words as usize]));
        }
        masked_ns.push(started.elapsed().as_nanos() as f64 / ma as f64);
    }
    (log_ns, masked_ns)
}

/// `KTracer` closed on the drainer: each handle waits for ring headroom
/// every `SDET_PACE_EVERY` calls.
struct PacedTracer(KTracer);

impl Tracer for PacedTracer {
    type Handle = PacedHandle;

    fn handle(&self, cpu: usize) -> PacedHandle {
        PacedHandle {
            inner: self.0.handle(cpu),
            logger: self.0.logger().clone(),
            calls: Cell::new(0),
        }
    }
}

#[derive(Clone)]
struct PacedHandle {
    inner: ktrace_core::CpuHandle,
    logger: TraceLogger,
    calls: Cell<u64>,
}

impl TraceHandle for PacedHandle {
    fn log(&self, major: MajorId, minor: MinorId, payload: &[u64]) {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if n.is_multiple_of(SDET_PACE_EVERY) {
            wait_for_drainer(&self.logger, self.inner.cpu());
        }
        self.inner.log(major, minor, payload);
    }

    fn enabled(&self, major: MajorId) -> bool {
        self.inner.enabled(major)
    }
}

fn record_sdet(
    workload: &Workload,
    ncpus: usize,
    path: &Path,
    traced: bool,
) -> Result<Recorded, String> {
    let clock = Arc::new(SyncClock::new());
    let samples = Arc::new(Mutex::new(SinkSamples::default()));
    let session = TraceSession::builder()
        .geometry(geometry())
        .ncpus(ncpus)
        .clock(clock.clone())
        .heartbeat(Duration::from_millis(10))
        .register(ktrace_events::register_all)
        .start(sink(path, traced, &clock, &samples)?)
        .map_err(|e| format!("sdet session: {e}"))?;
    let scripts = workload.processes.len() as u64;
    let mut rec = Recorded {
        path: path.to_path_buf(),
        ..Recorded::default()
    };
    let started = Instant::now();
    let report = if traced {
        let tracer = Arc::new(TimedTracer::new(PacedTracer(KTracer::new(
            session.logger().clone(),
        ))));
        let report = Machine::new(MachineConfig::new(ncpus), tracer.clone()).run(workload.clone());
        rec.tracer_calls = tracer.tally().calls();
        rec.log_ns = tracer.tally().samples_ns();
        // SDET logs no masked calls; time them on a major it never uses.
        session.logger().mask().disable(MajorId::TEST);
        rec.masked_ns = time_masked(&session.logger().handle(0).expect("cpu 0"), MajorId::TEST);
        report
    } else {
        let tracer = Arc::new(PacedTracer(KTracer::new(session.logger().clone())));
        Machine::new(MachineConfig::new(ncpus), tracer).run(workload.clone())
    };
    let stats = session.finish();
    rec.wall = started.elapsed();
    rec.ops = report.completions;
    rec.ops_wall = report.elapsed;
    rec.absorb_session(&stats);
    rec.sink = take_samples(samples);
    rec.calls = rec.logged + rec.masked + rec.dropped;
    rec.enabled = rec.logged + rec.dropped;
    let probe_calls = (rec.masked_ns.len() * MASKED_PER_BATCH) as u64;
    if traced && rec.tracer_calls + probe_calls != rec.calls {
        rec.problems.push(format!(
            "ledger: {} calls through the tracer and {probe_calls} masked probe calls, telemetry accounts for {}",
            rec.tracer_calls, rec.calls
        ));
    }
    if report.aborted {
        rec.problems.push("sdet run aborted by the watchdog".into());
    }
    if report.completions != scripts {
        rec.problems.push(format!(
            "sdet completed {} of {scripts} scripts",
            report.completions
        ));
    }
    Ok(rec)
}

/// The SDET input under `NoTracer`, with no session: the compiled-out
/// baseline of the paper's Fig. 3. Returns scripts per second.
pub fn sdet_untraced(input: &Input) -> Option<f64> {
    let Input::Sdet {
        workload, ncpus, ..
    } = input
    else {
        return None;
    };
    let report = Machine::new(MachineConfig::new(*ncpus), Arc::new(NoTracer)).run(workload.clone());
    Some(report.completions as f64 / report.elapsed.as_secs_f64())
}

fn record_replay(
    steps: &[Step],
    counts: &BTreeMap<(u8, u16), u64>,
    path: &Path,
    traced: bool,
) -> Result<Recorded, String> {
    let clock = Arc::new(SyncClock::new());
    let samples = Arc::new(Mutex::new(SinkSamples::default()));
    let logger = TraceLogger::builder()
        .geometry(geometry())
        .clock(clock.clone())
        .ncpus(2)
        .build()
        .map_err(|e| format!("replay logger: {e}"))?;
    ktrace_events::register_all(&logger);
    let header = FileHeader {
        ncpus: 2,
        buffer_words: geometry().buffer_words as u32,
        ticks_per_sec: clock.ticks_per_sec(),
        clock_synchronized: clock.synchronized(),
        registry: logger.registry(),
    };
    let mut writer = TraceFileWriter::new(sink(path, traced, &clock, &samples)?, &header)
        .map_err(|e| format!("replay writer: {e}"))?;
    let drain = |writer: &mut TraceFileWriter<Box<dyn Write + Send>>| -> Result<(), String> {
        for cpu in 0..2 {
            while let Some(buf) = logger.take_buffer(cpu) {
                writer
                    .write_buffer(&buf)
                    .map_err(|e| format!("replay write: {e}"))?;
            }
        }
        Ok(())
    };
    let handles = [
        logger.handle(0).expect("cpu 0"),
        logger.handle(1).expect("cpu 1"),
    ];
    let mut calls = 0u64;
    let mut log_ns = Vec::new();
    let mut block = (Instant::now(), 0u64);
    let started = Instant::now();
    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Log {
                cpu,
                major,
                minor,
                words,
                ref payload,
            } => {
                calls += 1;
                handles[cpu as usize].log_slice(major, minor, &payload[..words as usize]);
            }
            Step::Heartbeat { cpu } => {
                logger.log_heartbeat(cpu as usize);
            }
            Step::Anomaly { cpu, track } => {
                logger.log_control_event(
                    cpu as usize,
                    control::ANOMALY,
                    &[track, u64::from(cpu), 0, 0],
                );
            }
        }
        if i % REPLAY_DRAIN_EVERY == REPLAY_DRAIN_EVERY - 1 {
            if traced {
                // The block's log calls between two drains, timed as a batch.
                log_ns.push(block.0.elapsed().as_nanos() as f64 / (calls - block.1).max(1) as f64);
            }
            drain(&mut writer)?;
            if traced {
                block = (Instant::now(), calls);
            }
        }
    }
    // The generator logs no masked calls; time them on a major it never uses.
    let masked_ns = if traced {
        logger.mask().disable(MajorId::TEST);
        time_masked(&handles[0], MajorId::TEST)
    } else {
        Vec::new()
    };
    logger.flush_all();
    drain(&mut writer)?;
    writer
        .finish()
        .and_then(|mut w| w.flush().map_err(Into::into))
        .map_err(|e| format!("replay finish: {e}"))?;
    let wall = started.elapsed();
    let stats = logger.stats();
    let mut rec = Recorded {
        path: path.to_path_buf(),
        wall,
        ops: calls,
        ops_wall: wall,
        calls: calls + (masked_ns.len() * MASKED_PER_BATCH) as u64,
        enabled: calls,
        log_ns,
        masked_ns,
        logged: stats.events_logged,
        expected_in_file: stats.events_logged,
        words_reserved: stats.words_reserved,
        exact_counts: Some(counts.clone()),
        ..Recorded::default()
    };
    rec.absorb_telemetry(&logger.telemetry().snapshot());
    rec.sink = take_samples(samples);
    Ok(rec)
}

/// What a reference read of a recorded file found.
#[derive(Debug, Default)]
pub struct FileCheck {
    pub data_events: u64,
    pub counts: BTreeMap<(u8, u16), u64>,
    pub drop_markers: u64,
    pub problems: Vec<String>,
}

/// Reads the recorded file back with the strict reader and checks it
/// against the recorder's own account (and, for `flood`, each writer's
/// sequence). `plant` adds one to the expected event count: a wrong
/// reference the check must catch.
pub fn check_file(input: &Input, rec: &Recorded, plant: bool) -> FileCheck {
    let mut out = FileCheck::default();
    let mut reader = match TraceFileReader::open(&rec.path) {
        Ok(r) => r,
        Err(e) => {
            out.problems
                .push(format!("open {}: {e}", rec.path.display()));
            return out;
        }
    };
    let events = match reader.events() {
        Ok(ev) => ev,
        Err(e) => {
            out.problems
                .push(format!("read {}: {e}", rec.path.display()));
            return out;
        }
    };
    let flood = match input {
        Input::Flood { writers } => Some(writers),
        _ => None,
    };
    let mut last_seq: Vec<Option<u64>> = vec![None; flood.map_or(0, |w| w.len())];
    for e in events {
        if e.is_control() {
            if e.minor == control::DROPPED {
                out.drop_markers += 1;
            }
            continue;
        }
        out.data_events += 1;
        *out.counts.entry((e.major.raw(), e.minor)).or_insert(0) += 1;
        let Some(writers) = flood else { continue };
        let Some(&seq) = e.payload.first() else {
            continue;
        };
        let Some(w) = writers.get(e.cpu) else {
            out.problems
                .push(format!("flood event on unknown cpu {}", e.cpu));
            continue;
        };
        let expect = w.enabled.get(seq as usize);
        let in_order = last_seq[e.cpu].is_none_or(|last| seq > last);
        let intact = e
            .payload
            .iter()
            .enumerate()
            .all(|(k, &p)| p == seq + k as u64);
        let matches = expect.is_some_and(|c| {
            c.major == e.major && c.minor == e.minor && usize::from(c.words) == e.payload.len()
        });
        if !(in_order && intact && matches) && out.problems.len() < 8 {
            out.problems.push(format!(
                "flood writer {} seq {seq}: in order {in_order}, intact {intact}, matches mix {matches}",
                e.cpu
            ));
        }
        last_seq[e.cpu] = Some(seq);
    }
    let expected = rec.expected_in_file + u64::from(plant);
    if out.data_events != expected {
        let anomalies: Vec<String> = reader
            .anomalies()
            .map(|list| {
                list.iter()
                    .map(|a| {
                        format!(
                            "record {} (cpu {} buf#{}, complete {}): {:?}",
                            a.record, a.cpu, a.seq, a.complete, a.notes
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        out.problems.push(format!(
            "file holds {} data events, logger and session account for {expected}; reader anomalies: {anomalies:?}",
            out.data_events
        ));
    }
    if let Some(exact) = &rec.exact_counts {
        if *exact != out.counts {
            out.problems
                .push("file per-event counts differ from the generator's".into());
        }
    }
    out
}
