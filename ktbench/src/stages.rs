//! The stages every workload's trace goes through after it is recorded:
//! collector ingest, a full-scan query, and windowed queries.

use crate::util::status_bytes;
use ktrace_collectd::{node, store, CollectSource, Collector, CollectorConfig, FleetSummary};
use ktrace_io::{FileHeader, TraceFileReader};
use ktrace_query::{parse_agg, Query, Spec, TraceSource};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The two nodes every trace is replayed as.
pub const NODES: [&str; 2] = ["node-a", "node-b"];

/// A node that has not reconciled this long after its last byte fails the
/// round.
const SETTLE_LIMIT: Duration = Duration::from_secs(30);

/// What one ingest did.
pub struct Ingested {
    /// First connect until every node is reconciled with no live
    /// connection.
    pub wall: Duration,
    /// Last byte sent until every node is reconciled, milliseconds.
    pub settle_ms: f64,
    /// Per-record socket write times, microseconds (traced run only).
    pub send_us: Vec<f64>,
    pub records_sent: u64,
    pub summary: FleetSummary,
}

/// Replays the trace file's bytes over one loopback connection per node
/// into a fresh collector whose store is `store_dir`. One thread sends the
/// nodes one after the other, so the collector's readers mostly take turns:
/// with both at once on a 2-vCPU guest, the ingest rate followed how the
/// host placed the two vCPUs, moving by up to 1.8x between batches of runs,
/// far more than any change in the collector's own work would.
pub fn ingest(file: &Path, store_dir: &Path, traced: bool) -> Result<Ingested, String> {
    let bytes = std::fs::read(file).map_err(|e| format!("read {}: {e}", file.display()))?;
    let (header, header_len) =
        FileHeader::decode(&bytes).map_err(|e| format!("trace header: {e}"))?;
    let record_size = header.record_size();
    let records = &bytes[header_len..];
    if records.len() % record_size != 0 {
        return Err("trace file ends in a partial record".into());
    }
    let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(store_dir))
        .map_err(|e| format!("collector: {e}"))?;
    let addr = collector.local_addr();
    let header_bytes = &bytes[..header_len];
    let started = Instant::now();
    let mut send_us = Vec::new();
    for name in NODES {
        let mut conn = node::connect(addr, name).map_err(|e| format!("connect: {e}"))?;
        conn.write_all(header_bytes)
            .map_err(|e| format!("send: {e}"))?;
        for record in records.chunks(record_size) {
            let t = Instant::now();
            conn.write_all(record).map_err(|e| format!("send: {e}"))?;
            if traced {
                send_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    let last_byte = Instant::now();
    let settled = loop {
        let summary = collector.summary();
        let done = NODES.iter().all(|name| {
            summary
                .node(name)
                .is_some_and(|n| n.connects > 0 && n.live_connections == 0 && n.reconciled())
        });
        if done {
            break Instant::now();
        }
        if last_byte.elapsed() > SETTLE_LIMIT {
            return Err(format!("collector never reconciled: {summary:?}"));
        }
        std::thread::sleep(Duration::from_micros(500));
    };
    let summary = collector.shutdown();
    Ok(Ingested {
        wall: settled - started,
        settle_ms: (settled - last_byte).as_secs_f64() * 1e3,
        send_us,
        records_sent: (NODES.len() * records.len() / record_size) as u64,
        summary,
    })
}

/// What one full scan did.
pub struct Scanned {
    pub load_s: f64,
    pub index_s: f64,
    pub check_s: f64,
    /// Data events answered.
    pub data_events: u64,
    /// Every event loaded, control events included.
    pub events: u64,
    /// Resident memory the load added, bytes.
    pub rss_delta: u64,
    pub query: Query,
    pub report: ktrace_verify::Report,
}

impl Scanned {
    pub fn total_s(&self) -> f64 {
        self.load_s + self.index_s + self.check_s
    }
}

/// The full scan: `CollectSource` load, `Query::new`, `Spec::check` over
/// the whole store, each timed.
pub fn scan(store_dir: &Path, spec: &Spec) -> Result<Scanned, String> {
    let rss0 = status_bytes("VmRSS");
    let t0 = Instant::now();
    let set = CollectSource::open(store_dir)
        .load()
        .map_err(|e| format!("store load: {e}"))?;
    let t1 = Instant::now();
    let rss_delta = status_bytes("VmRSS").saturating_sub(rss0);
    let query = Query::new(set);
    let t2 = Instant::now();
    let report = spec.check(&query);
    let t3 = Instant::now();
    Ok(Scanned {
        load_s: (t1 - t0).as_secs_f64(),
        index_s: (t2 - t1).as_secs_f64(),
        check_s: (t3 - t2).as_secs_f64(),
        data_events: query.set().data_events().count() as u64,
        events: query.set().events.len() as u64,
        rss_delta,
        query,
        report,
    })
}

/// Checks a full scan's answers against `file_counts`, the per-(major,
/// minor) data counts of the recorded file, which every node holds once.
/// Returns the sorted data-event timestamps, the reference for windowed
/// queries.
pub fn check_scan(
    scanned: &Scanned,
    file_counts: &BTreeMap<(u8, u16), u64>,
    drop_markers: bool,
    problems: &mut Vec<String>,
) -> Result<Vec<u64>, String> {
    let nodes = NODES.len() as u64;
    for v in &scanned.report.violations {
        // Overrun drops are failed operations, counted elsewhere; the
        // drop-marker property must then fire and nothing else may.
        if !(drop_markers && v.detail.contains("'no-drop-markers'")) {
            problems.push(format!("spec: {v}"));
        }
    }
    let mut per_major: BTreeMap<u8, u64> = BTreeMap::new();
    for (&(major, _), &n) in file_counts {
        *per_major.entry(major).or_insert(0) += n;
    }
    let mut checks: Vec<(String, u64)> = per_major
        .iter()
        .map(|(major, n)| (format!("count(major == {major})"), n * nodes))
        .collect();
    if let Some(n) = file_counts.get(&(ktrace_format::MajorId::LOCK.raw(), 2)) {
        checks.push(("count(major == LOCK & minor == 2)".into(), n * nodes));
    }
    for (text, want) in checks {
        let agg = parse_agg(&text).map_err(|e| format!("{text}: {e:?}"))?;
        let got = scanned.query.eval(&agg);
        if got != want {
            problems.push(format!("{text} = {got}, the file says {want}"));
        }
    }
    let mut times: Vec<u64> = scanned.query.set().data_events().map(|e| e.time).collect();
    times.sort_unstable();
    let want_total: u64 = file_counts.values().sum::<u64>() * nodes;
    if times.len() as u64 != want_total {
        problems.push(format!(
            "scan answered {} data events, the file says {want_total}",
            times.len()
        ));
    }
    Ok(times)
}

/// Windowed queries: for each fraction `f`, the window starting `f` of the
/// way into the data span and 1 % of it long, through
/// `CollectSource::load_window`, `Query::new` and the spec. Returns each
/// window's latency in milliseconds; a window whose data-event count differs
/// from the full scan's is a problem.
pub fn windows(
    store_dir: &Path,
    spec: &Spec,
    times: &[u64],
    fractions: &[f64],
    problems: &mut Vec<String>,
) -> Result<Vec<f64>, String> {
    let (Some(&first), Some(&last)) = (times.first(), times.last()) else {
        return Err("no data events to window".into());
    };
    let span = last - first;
    let width = (span / 100).max(1);
    let mut source = CollectSource::open(store_dir);
    let mut ms = Vec::with_capacity(fractions.len());
    for &f in fractions {
        let t0 = first + (f * span as f64) as u64;
        let t1 = t0 + width;
        let started = Instant::now();
        let set = source
            .load_window(t0, t1)
            .map_err(|e| format!("window load: {e}"))?;
        let query = Query::new(set);
        std::hint::black_box(spec.check(&query));
        ms.push(started.elapsed().as_secs_f64() * 1e3);
        let want = times.partition_point(|&t| t < t1) - times.partition_point(|&t| t < t0);
        let got = query.set().data_events().count();
        if got != want {
            problems.push(format!(
                "window [{t0}, {t1}) answered {got} data events, the full scan {want}"
            ));
        }
    }
    Ok(ms)
}

/// The strict reader's open and event walk over every shard of the store:
/// nanoseconds per event decoded.
pub fn decode_ns_per_event(store_dir: &Path) -> Result<f64, String> {
    let started = Instant::now();
    let mut events = 0u64;
    for name in store::node_names(store_dir) {
        for shard in store::shard_paths(store_dir, &name) {
            let mut reader =
                TraceFileReader::open(&shard).map_err(|e| format!("{}: {e}", shard.display()))?;
            events += reader.events().map_err(|e| format!("{e}"))?.count() as u64;
        }
    }
    Ok(started.elapsed().as_nanos() as f64 / events.max(1) as f64)
}
