//! Repository benchmark: three seeded workloads driven through the
//! library's public API and the in-process TCP planning service.
//!
//! ```text
//! perfbench <batch-10k|reuse-drift-1k|service-tcp-1k> --seed N --seconds S
//!           --trace 0|1 --workdir DIR [--scale full|toy] [--no-reconcile]
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics,
//! timed around the calls into each layer from the harness's code while a
//! `dsq_obs` monotonic sink collects the counters the program emits. Both
//! carry a `deterministic` map of work counters that must repeat exactly
//! for a seed (`run.py` compares two traced runs). Human-readable progress
//! goes to stderr. Any failed correctness check exits with status 1.

mod library;
mod service;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `toy` shrinks every workload to a few seconds for the self-test.
    pub toy: bool,
    /// Directory for journals and snapshots (created if missing).
    pub workdir: PathBuf,
    /// Skip the reconciliations of a traced run (set-up and plan time):
    /// the second of the two determinism runs needs only the counters, and
    /// both must fit in one invocation's time limit.
    pub reconcile: bool,
}

impl Args {
    /// Timed repetitions of a phase whose round takes about `round_s` on
    /// the reference VM: enough to fill `--seconds` there, and the same
    /// count on any host, so that the fastest of them does not depend on
    /// how many rounds a slow host fits in.
    pub fn rounds(&self, round_s: f64) -> usize {
        ((self.seconds / round_s).round() as usize).max(1)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload name")?;
    let (mut seed, mut seconds, mut trace, mut workdir) = (1, None, false, None);
    let (mut toy, mut reconcile) = (false, true);
    while let Some(flag) = it.next() {
        if flag == "--no-reconcile" {
            reconcile = false;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--scale" => toy = value == "toy",
            "--workdir" => workdir = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        toy,
        workdir: workdir.ok_or("--workdir is required")?,
        reconcile,
    })
}

/// Seed of each workload's fixed world: the topology, the stream catalog
/// and the fault and drift timelines. `--seed` draws what runs against that
/// world (queries, registrations, replans, reads), so a metric's run-to-run
/// spread measures the program, not how costly one random world happens
/// to be.
pub const WORLD_SEED: u64 = 2007;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("plan_s", "s"),
    ("plan_bu_s", "s"),
    ("plan_cost", "cost/time"),
    ("plan_bu_cost", "cost/time"),
    ("replan_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("saturation_rps", "1/s"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run. A layer a workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.apsp_s", "s"),
    ("net.embed_s", "s"),
    ("net.repair_s", "s"),
    ("net.repair_rows", "count"),
    ("net.repair_rebuilds", "count"),
    ("net.dirty_nodes", "count"),
    ("hierarchy.build_s", "s"),
    ("kmeans.rounds", "count"),
    ("hierarchy.coordinator_elections", "count"),
    ("server.surgery_crash_ms", "ms"),
    ("server.surgery_rejoin_ms", "ms"),
    ("core.query_p50_ms", "ms"),
    ("core.query_p99_ms", "ms"),
    ("core.plan_serial_s", "s"),
    ("search.plans_considered", "count"),
    ("engine.dp_states", "count"),
    ("engine.plan_invocations", "count"),
    ("engine.plan_sparse", "count"),
    ("topdown.cells_opened", "count"),
    ("topdown.cells_pruned", "count"),
    ("bottomup.candidates_evaluated", "count"),
    ("bottomup.merge_steps", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "fraction"),
    ("cache.retired", "count"),
    ("cache.entries", "count"),
    ("core.replanned_queries", "count"),
    ("advert.probe_s", "s"),
    ("advert.candidates", "count"),
    ("advert.publish_s", "s"),
    ("advert.live", "count"),
    ("advert.retired", "count"),
    ("reuse.saving", "fraction"),
    ("reuse.noreuse_cost", "cost/time"),
    ("server.parse_s", "s"),
    ("server.journal_append_p99_ms", "ms"),
    ("server.journal_bytes", "bytes"),
    ("server.drain_p50_ms", "ms"),
    ("server.drain_p99_ms", "ms"),
    ("server.surgery_degrade_ms", "ms"),
    ("server.snapshot_s", "s"),
    ("server.replay_s", "s"),
    ("server.admitted", "count"),
    ("server.shed", "count"),
    ("server.timed_out", "count"),
    ("server.stale_served", "count"),
    ("server.faults_applied", "count"),
    ("server.degrade_rows_repaired", "count"),
    ("server.utilization", "fraction"),
    ("tcp.overhead_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("obs.overhead_frac", "fraction"),
    ("recon.setup_gap", "fraction"),
    ("recon.plan_gap", "fraction"),
];

/// Everything one invocation reports.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// Work counters that must repeat exactly for a seed.
    deterministic: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks (any entry fails the run).
    errors: Vec<String>,
    /// Timing reconciliations that stayed outside their tolerance.
    unresolved: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Record a counter that must repeat bit-for-bit across runs of a seed.
    pub fn exact(&mut self, name: &str, value: impl ToString) {
        self.deterministic
            .insert(name.to_string(), value.to_string());
    }

    /// Record a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.errors.push(msg);
        }
    }

    /// A measurement check that host noise alone can miss (a timing
    /// reconciliation): it is reported, but only program output decides
    /// `correct`.
    pub fn unresolved(&mut self, msg: String) {
        eprintln!("UNRESOLVED: {msg}");
        self.unresolved += 1;
    }

    /// Keep exactly the metrics of `wanted`: per-layer metrics of a layer
    /// the workload bypassed read 0; a missing end-to-end metric is an error.
    fn finish(&mut self, wanted: &[(&str, &'static str)]) {
        let mut kept = BTreeMap::new();
        for &(name, unit) in wanted {
            match self.metrics.remove(name) {
                Some((value, u)) => {
                    self.check(u == unit, || format!("{name} measured in {u}, not {unit}"));
                    kept.insert(name.to_string(), (value, unit));
                }
                None if wanted == PER_LAYER => {
                    kept.insert(name.to_string(), (0.0, unit));
                }
                None => self.check(false, || format!("{name} was not measured")),
            }
        }
        for name in std::mem::take(&mut self.metrics).into_keys() {
            self.check(false, || format!("{name} is not a metric of this mode"));
        }
        self.metrics = kept;
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A latency of a failed request is infinite: it misses any limit.
            let value = if value.is_finite() { *value } else { 1e12 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}, \"deterministic\": {");
        for (i, (name, value)) in self.deterministic.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": \"{value}\"");
        }
        let _ = write!(
            out,
            "}}, \"errors\": {}, \"unresolved\": {}}}",
            self.errors.len(),
            self.unresolved
        );
        out
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run `f`, returning its result and wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The fastest of a run's repeated whole-batch timings. On a shared host
/// the same work runs up to 1.7x slower for seconds at a time; interference
/// only ever adds time, so the fastest round is the closest reading of the
/// planner's own cost (a regression in the program slows every round).
pub fn fastest(samples: &[f64]) -> f64 {
    quantile(samples, 0.0)
}

/// The p99 of a latency sample is reported only when at least ten samples
/// lie beyond it.
pub fn p99_supported(n: usize) -> bool {
    n >= 1000
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A monotonic `dsq_obs` sink installed for the current thread (and
/// captured by the planner's worker fan-out) while the guard lives.
pub struct Tracer {
    pub sink: Arc<dsq_obs::Sink>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            sink: dsq_obs::Sink::new(dsq_obs::ClockMode::Monotonic),
        }
    }
}

impl Tracer {
    /// Run `f` with the sink installed.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        let _guard = dsq_obs::scoped(self.sink.clone());
        f()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.sink
            .snapshot()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Spans and events recorded under `name`.
    pub fn events_named(&self, name: &str) -> u64 {
        let needle = format!("\"event\":\"{name}\"");
        self.sink.to_jsonl().matches(&needle).count() as u64
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .expect("the global pool is built once, first thing");
    eprintln!(
        "perfbench {} seed {} seconds {} trace {} ({} threads)",
        args.workload, args.seed, args.seconds, args.trace, threads
    );
    let mut report = Report::default();
    match args.workload.as_str() {
        "batch-10k" => library::batch(&args, &mut report),
        "reuse-drift-1k" => library::reuse_drift(&args, &mut report),
        "service-tcp-1k" => service::run(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    if !args.trace {
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    report.finish(if args.trace { PER_LAYER } else { END_TO_END });
    println!("{}", report.to_json());
    if !report.errors.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(quantile(&v, 0.99), 990.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert!(p99_supported(1000) && !p99_supported(999));
    }

    #[test]
    fn round_counts_follow_seconds_not_host_speed() {
        let args = |seconds| Args {
            workload: String::new(),
            seed: 1,
            seconds,
            trace: false,
            toy: false,
            workdir: PathBuf::new(),
            reconcile: true,
        };
        assert_eq!(args(8.0).rounds(4.0), 2);
        assert_eq!(args(8.0).rounds(1.4), 6);
        assert_eq!(args(1.0).rounds(4.0), 1);
    }

    #[test]
    fn report_json_is_flat_and_fails_on_errors() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.25, "s");
        r.exact("plan_cost", 1.5f64.to_bits());
        assert!(r.to_json().contains("\"correct\": true"));
        r.unresolved("a slow spell".into());
        assert!(r.to_json().contains("\"correct\": true"));
        r.check(false, || "boom".into());
        let json = r.to_json();
        assert!(json.contains("\"correct\": false"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }
}
