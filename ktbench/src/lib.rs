//! The ktrace benchmark: one run of one workload, from the `log*` call to a
//! query answer, with reference checks and an event ledger on every round.
//!
//! A run sets up (inputs, spec, one shrunken warm-up round) several times,
//! then repeats rounds until its time is up. A round records the workload's
//! trace file ([`record`]), checks the file, replays it into a collector as
//! two nodes, runs a full-scan query and a fixed set of windowed queries over
//! the store ([`stages`]). Metrics are medians over rounds.
//!
//! The untraced run reports the end-to-end metrics. The traced run
//! alternates untraced rounds with rounds whose calls into each crate are
//! timed from outside ([`probe`]), and reports the per-layer metrics plus
//! the difference the timing made.

pub mod probe;
pub mod record;
pub mod stages;
pub mod util;

use record::{check_file, record, sdet_untraced, FileCheck, Input, Recorded, Size};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use util::{median, quantile, status_bytes, Rng, Spans, WorkDir};

/// End-to-end metrics, with their units, as every untraced run reports them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("ingest_events_per_s", "1/s"),
    ("query_events_per_s", "1/s"),
    ("window_query_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, with their units, as every traced run reports them.
/// A layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("core.log_ns_p50", "ns"),
    ("core.log_ns_p99", "ns"),
    ("core.masked_ns_p50", "ns"),
    ("core.events_dropped", "count"),
    ("core.words_per_event", "words"),
    ("telemetry.cas_retries_per_mevent", "1/Mevent"),
    ("io.sink_write_us_p50", "us"),
    ("io.sink_write_us_p99", "us"),
    ("io.record_age_ms_p50", "ms"),
    ("io.record_age_ms_p99", "ms"),
    ("io.decode_ns_per_event", "ns"),
    ("collectd.send_us_per_record_p50", "us"),
    ("collectd.settle_ms", "ms"),
    ("collectd.records_dropped", "count"),
    ("collectd.records_garbled", "count"),
    ("query.load_s", "s"),
    ("query.index_s", "s"),
    ("query.check_s", "s"),
    ("query.window_ms_p95", "ms"),
    ("query.rss_bytes_per_event", "B"),
    ("ossim.run_s", "s"),
    ("ossim.trace_calls", "count"),
    ("ossim.trace_call_ns_p50", "ns"),
    ("ossim.untraced_scripts_per_s", "1/s"),
    ("harness.trace_overhead_pct", "%"),
];

pub const WORKLOADS: [&str; 3] = ["flood", "sdet", "replay"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The warm-up round in each set-up runs inputs this many times smaller.
const WARMUP_FRACTION: usize = 16;
/// A run makes at least this many measured rounds.
const MIN_ROUNDS: usize = 3;
/// Ingests of the last recorded file per round, each into a fresh store.
const INGEST_REPS: usize = 5;
/// Full scans of the last store per round; the first one's answers are
/// checked.
const SCAN_REPS: usize = 2;
/// Windowed queries per round.
const WINDOWS: usize = 32;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Plant a wrong reference answer: the checks must report it.
    pub plant: bool,
    /// The checkout root: `props/ktrace.toml` is read and `.bench_work/`
    /// written under it.
    pub root: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's result: operations attempted and failed, and the metrics, which
/// are withheld when any check failed.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        if self.correct {
            for (i, m) in self.metrics.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    if i > 0 { ", " } else { "" },
                    m.name,
                    m.value,
                    m.unit
                );
            }
        }
        out.push_str("}}");
        out
    }
}

/// How a round records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundKind {
    /// No probes: the end-to-end configuration.
    Plain,
    /// Every probe on.
    Traced,
    /// `sdet` only: the machine under `NoTracer`, no pipeline.
    NoTracer,
}

fn round_kind(opts: &Opts, round: usize) -> RoundKind {
    match (opts.trace, opts.workload.as_str()) {
        (false, _) => RoundKind::Plain,
        (true, "sdet") => [RoundKind::Plain, RoundKind::Traced, RoundKind::NoTracer][round % 3],
        (true, _) => [RoundKind::Plain, RoundKind::Traced][round % 2],
    }
}

/// Samples gathered over a run's rounds.
#[derive(Default)]
struct Acc {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    // end to end, from plain rounds
    ops_per_s: Vec<f64>,
    events_per_s: Vec<f64>,
    // Ingest throughput is the run's total over its total time, not a
    // median: single ingests can fall into two rates far apart, depending
    // on where the scheduler puts the collector's threads, and a median
    // would jump between them.
    ingest_events: u64,
    ingest_s: f64,
    query_events_per_s: Vec<f64>,
    window_ms: Vec<f64>,
    // per layer, from traced rounds
    traced_ops_per_s: Vec<f64>,
    log_ns: Vec<f64>,
    masked_ns: Vec<f64>,
    events_dropped: u64,
    words_per_event: Vec<f64>,
    cas_per_mevent: Vec<f64>,
    sink_write_us: Vec<f64>,
    record_age_ms: Vec<f64>,
    decode_ns: Vec<f64>,
    send_us: Vec<f64>,
    settle_ms: Vec<f64>,
    records_dropped: u64,
    records_garbled: u64,
    load_s: Vec<f64>,
    index_s: Vec<f64>,
    check_s: Vec<f64>,
    traced_window_ms: Vec<f64>,
    rss_bytes_per_event: Option<f64>,
    run_s: Vec<f64>,
    trace_calls: Vec<f64>,
    trace_call_ns: Vec<f64>,
    untraced_scripts: Vec<f64>,
}

/// Runs one workload and returns its outcome. An `Err` means the run could
/// not be carried out at all (bad arguments, no repository to measure).
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (flood|sdet|replay)",
            opts.workload
        ));
    }
    let spec_path = opts.root.join("props/ktrace.toml");
    let spec_text = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("read {}: {e}", spec_path.display()))?;
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let bench_dir = opts.root.join(".bench_work");
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run_name = format!(
        "run-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    );
    let work = WorkDir::create(&bench_dir, &run_name).map_err(|e| format!("work dir: {e}"))?;
    let mut spans = Spans::new(opts.trace);
    let mut acc = Acc::default();
    let mut scratch = Acc::default();

    let mut setup_s = Vec::new();
    let mut prints = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let span = spans.open("setup", None);
        let started = Instant::now();
        let input = Input::build(&opts.workload, opts.seed, opts.size, cores)?;
        let warm = Input::build(
            &opts.workload,
            opts.seed,
            opts.size.shrink(WARMUP_FRACTION),
            cores,
        )?;
        let spec = ktrace_query::Spec::parse(&spec_text).map_err(|e| format!("spec: {e}"))?;
        let fractions: Vec<f64> = {
            let mut rng = Rng::new(opts.seed ^ 0x77_696e);
            (0..WINDOWS).map(|_| rng.unit() * 0.99).collect()
        };
        round(
            opts,
            &warm,
            &spec,
            &fractions,
            &work,
            RoundKind::Plain,
            &mut spans,
            span,
            &mut scratch,
        )?;
        setup_s.push(started.elapsed().as_secs_f64());
        spans.close(span);
        prints.push(input.fingerprint());
        built = Some((input, spec, fractions));
    }
    if prints.windows(2).any(|w| w[0] != w[1]) {
        acc.problems
            .push(format!("one seed gave different inputs: {prints:x?}"));
        acc.failed += 1;
    }
    // Warm-up rounds count only their failed checks: their operations are
    // not part of the measured phase.
    acc.failed += scratch.problems.len() as u64;
    acc.problems.append(&mut scratch.problems);
    let (input, spec, fractions) = built.expect("at least one set-up");

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut n = 0;
    while n < MIN_ROUNDS || Instant::now() < deadline {
        let kind = round_kind(opts, n);
        if kind == RoundKind::NoTracer {
            let span = spans.open("ossim.untraced", None);
            acc.untraced_scripts.extend(sdet_untraced(&input));
            spans.close(span);
        } else {
            round(
                opts, &input, &spec, &fractions, &work, kind, &mut spans, None, &mut acc,
            )?;
        }
        n += 1;
    }
    let peak_rss = status_bytes("VmHWM");
    drop(work);

    if opts.trace {
        let dir = bench_dir.join("spans");
        let path = dir.join(format!("{}-seed{}.json", opts.workload, opts.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans.to_json()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let metrics = if opts.trace {
        per_layer(&acc)
    } else {
        vec![
            median(&setup_s),
            median(&acc.ops_per_s),
            median(&acc.events_per_s),
            acc.ingest_events as f64 / acc.ingest_s,
            median(&acc.query_events_per_s),
            median(&acc.window_ms),
            peak_rss as f64 / (1 << 20) as f64,
        ]
    };
    let names: &[(&'static str, &'static str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<Metric> = names
        .iter()
        .zip(metrics)
        .map(|(&(name, unit), value)| Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        })
        .collect();
    Ok(Outcome {
        correct: acc.problems.is_empty(),
        attempted: acc.attempted,
        failed: acc.failed,
        metrics,
        problems: acc.problems,
    })
}

fn per_layer(acc: &Acc) -> Vec<f64> {
    let overhead = {
        let plain = median(&acc.ops_per_s);
        let traced = median(&acc.traced_ops_per_s);
        if plain > 0.0 && traced > 0.0 {
            100.0 * (plain - traced) / plain
        } else {
            0.0
        }
    };
    vec![
        median(&acc.log_ns),
        quantile(&acc.log_ns, 0.99),
        median(&acc.masked_ns),
        acc.events_dropped as f64,
        median(&acc.words_per_event),
        median(&acc.cas_per_mevent),
        median(&acc.sink_write_us),
        quantile(&acc.sink_write_us, 0.99),
        median(&acc.record_age_ms),
        quantile(&acc.record_age_ms, 0.99),
        median(&acc.decode_ns),
        median(&acc.send_us),
        median(&acc.settle_ms),
        acc.records_dropped as f64,
        acc.records_garbled as f64,
        median(&acc.load_s),
        median(&acc.index_s),
        median(&acc.check_s),
        quantile(&acc.traced_window_ms, 0.95),
        acc.rss_bytes_per_event.unwrap_or(0.0),
        median(&acc.run_s),
        median(&acc.trace_calls),
        median(&acc.trace_call_ns),
        median(&acc.untraced_scripts),
        overhead,
    ]
}

/// One round: the record stage `input.record_reps()` times, each file
/// checked and its ledger balanced; then the last file ingested
/// `INGEST_REPS` times, and the last store scanned `SCAN_REPS` times and
/// windowed. Checks that fail land in `acc.problems` and count as failed
/// operations; an `Err` is a round that could not run at all.
#[allow(clippy::too_many_arguments)]
fn round(
    opts: &Opts,
    input: &Input,
    spec: &ktrace_query::Spec,
    fractions: &[f64],
    work: &WorkDir,
    kind: RoundKind,
    spans: &mut Spans,
    parent: Option<usize>,
    acc: &mut Acc,
) -> Result<(), String> {
    let traced = kind == RoundKind::Traced;
    let round_span = spans.open(if traced { "round.traced" } else { "round" }, parent);
    let dir = work.fresh("round").map_err(|e| format!("round dir: {e}"))?;
    let file = dir.join("trace.ktrace");
    let store_dir = dir.join("store");
    let mut problems = Vec::new();

    let mut last = None;
    for _ in 0..input.record_reps() {
        let rec = spans.time("record", round_span, || record(input, &file, traced))?;
        let fc = spans.time("check_file", round_span, || {
            check_file(input, &rec, opts.plant)
        });
        problems.extend(fc.problems.iter().cloned());
        problems.extend(rec.problems.iter().cloned());
        file_ledger(&rec, &fc, &mut problems);
        acc.attempted += rec.enabled;
        acc.failed += rec.enabled.saturating_sub(fc.data_events);
        let ops_per_s = rec.ops as f64 / rec.ops_wall.as_secs_f64();
        if traced {
            acc.traced_ops_per_s.push(ops_per_s);
            traced_samples(&rec, acc);
        } else {
            acc.ops_per_s.push(ops_per_s);
            acc.events_per_s
                .push(fc.data_events as f64 / rec.wall.as_secs_f64());
        }
        last = Some(fc);
    }
    let fc = last.expect("at least one record rep");

    for rep in 0..INGEST_REPS {
        if rep > 0 {
            std::fs::remove_dir_all(&store_dir).map_err(|e| format!("store dir: {e}"))?;
        }
        let ing = spans.time("ingest", round_span, || {
            stages::ingest(&file, &store_dir, traced)
        })?;
        collector_ledger(&fc, &ing.summary, &mut problems);
        let stored_records: u64 = ing.summary.nodes.iter().map(|n| n.records_stored).sum();
        acc.attempted += ing.records_sent;
        acc.failed += ing.records_sent.saturating_sub(stored_records);
        if traced {
            acc.send_us.extend(&ing.send_us);
            acc.settle_ms.push(ing.settle_ms);
            acc.records_dropped += ing.summary.records_dropped();
            acc.records_garbled += ing
                .summary
                .nodes
                .iter()
                .map(|n| n.records_garbled)
                .sum::<u64>();
        } else {
            acc.ingest_events += ing.summary.events_stored();
            acc.ingest_s += ing.wall.as_secs_f64();
        }
    }

    let mut times = Vec::new();
    for rep in 0..SCAN_REPS {
        let scanned = spans.time("scan", round_span, || stages::scan(&store_dir, spec))?;
        if rep == 0 {
            times = spans.time("check_scan", round_span, || {
                stages::check_scan(&scanned, &fc.counts, fc.drop_markers > 0, &mut problems)
            })?;
        }
        if traced {
            acc.load_s.push(scanned.load_s);
            acc.index_s.push(scanned.index_s);
            acc.check_s.push(scanned.check_s);
            acc.rss_bytes_per_event
                .get_or_insert(scanned.rss_delta as f64 / scanned.events.max(1) as f64);
        } else {
            acc.query_events_per_s
                .push(scanned.data_events as f64 / scanned.total_s());
        }
    }
    let window_ms = spans.time("windows", round_span, || {
        stages::windows(&store_dir, spec, &times, fractions, &mut problems)
    })?;
    let decode_ns = if traced {
        Some(spans.time("decode", round_span, || {
            stages::decode_ns_per_event(&store_dir)
        })?)
    } else {
        None
    };
    spans.close(round_span);

    if traced {
        acc.traced_window_ms.extend(&window_ms);
        acc.decode_ns.extend(decode_ns);
    } else {
        acc.window_ms.extend(&window_ms);
    }
    acc.failed += problems.len() as u64;
    acc.problems.extend(problems);
    Ok(())
}

fn traced_samples(rec: &Recorded, acc: &mut Acc) {
    acc.log_ns.extend(&rec.log_ns);
    acc.masked_ns.extend(&rec.masked_ns);
    acc.events_dropped += rec.dropped;
    let events = rec.logged.max(1) as f64;
    acc.words_per_event.push(rec.words_reserved as f64 / events);
    acc.cas_per_mevent
        .push(rec.cas_retries as f64 * 1e6 / events);
    acc.sink_write_us.extend(&rec.sink.write_us);
    acc.record_age_ms.extend(&rec.sink.age_ms);
    if rec.tracer_calls > 0 {
        acc.run_s.push(rec.ops_wall.as_secs_f64());
        acc.trace_calls.push(rec.tracer_calls as f64);
        acc.trace_call_ns.push(median(&rec.log_ns));
    }
}

/// The outside-in event ledger, from public counters only: every data-major
/// call was masked, dropped on overrun, lost to the sink, or made durable in
/// the file ...
fn file_ledger(rec: &Recorded, fc: &FileCheck, problems: &mut Vec<String>) {
    let accounted = rec.masked + rec.dropped + rec.sink_lost + fc.data_events;
    if accounted != rec.calls {
        problems.push(format!(
            "ledger: {} calls, masked {} + overrun {} + sink-lost {} + durable {} = {accounted}",
            rec.calls, rec.masked, rec.dropped, rec.sink_lost, fc.data_events
        ));
    }
}

/// ... and every durable event, on each node the file was replayed as, was
/// dropped by the collector or stored.
fn collector_ledger(
    fc: &FileCheck,
    fleet: &ktrace_collectd::FleetSummary,
    problems: &mut Vec<String>,
) {
    for name in stages::NODES {
        let Some(node) = fleet.node(name) else {
            problems.push(format!("ledger: node {name} never reached the collector"));
            continue;
        };
        if node.events_received != fc.data_events
            || node.events_dropped + node.events_stored != fc.data_events
            || !node.reconciled()
        {
            problems.push(format!(
                "ledger on {name}: durable {}, received {}, collector-dropped {} + stored {}",
                fc.data_events, node.events_received, node.events_dropped, node.events_stored
            ));
        }
    }
}
