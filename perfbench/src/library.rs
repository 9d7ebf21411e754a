//! The two library workloads: `batch-10k` (cold multi-query planning on a
//! ~10k-node network) and `reuse-drift-1k` (operator reuse over a skewed
//! batch, then incremental replanning through seeded link-cost drift).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use dsq_core::{
    cache::PlanCache, consolidate::deploy_all, metric_dirty_nodes, optimize_all, optimize_dirty,
    BottomUp, Environment, MultiQueryOutcome, Optimizer, ParallelConfig, SearchStats, TopDown,
};
use dsq_hierarchy::{Hierarchy, HierarchyConfig};
use dsq_net::{CostSpace, DistanceMatrix, LinkKind, LinkRepair, Metric, Network, NodeId, NodeKind};
use dsq_query::{Catalog, Deployment, Query, ReuseRegistry};
use dsq_server::protocol::FaultReq;
use dsq_server::state::{apply_fault_surgery, Surgery};
use dsq_workload::{WorkloadConfig, WorkloadGenerator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{
    fastest, median, p99_supported, quantile, secs, timed, Args, Report, Tracer, WORLD_SEED,
};

/// Cluster-size cap of every library workload (the paper's largest).
const MAX_CS: usize = 32;
/// Embedding sweeps `Environment::build` uses.
const EMBED_ITERS: usize = 40;
/// Decorrelates the query stream and the drift stream from the topology.
const QUERY_STREAM: u64 = 0x5EED_0001;
const DRIFT_STREAM: u64 = 0x5EED_0002;

/// Everything that sizes one library workload.
struct Shape {
    nodes: usize,
    queries: usize,
    /// Untimed `Environment::build` calls before the timed ones: below
    /// the allocator's mmap ceiling, the first builds pay for first-touch
    /// page faults that later ones do not.
    warmups: usize,
    /// `Environment::build` repetitions whose median is `setup_s`.
    setups: usize,
    /// Transit-node crashes the traced run times fault surgery on.
    crashes: usize,
    /// Link-cost drifts per round (reuse-drift-1k only).
    drifts: usize,
}

fn generate(args: &Args, shape: &Shape, skewed: bool) -> (Network, Catalog, Vec<Query>) {
    let net = dsq_net::TransitStubConfig::sized(shape.nodes)
        .generate(WORLD_SEED)
        .network;
    let cfg = WorkloadConfig {
        streams: 100,
        queries: shape.queries,
        joins_per_query: 2..=5,
        source_skew: skewed.then_some(1.0),
        selection_prob: if skewed { 0.3 } else { 0.0 },
        ..WorkloadConfig::default()
    };
    let catalog = WorkloadGenerator::new(cfg.clone(), WORLD_SEED)
        .generate(&net)
        .catalog;
    let queries = WorkloadGenerator::new(cfg, args.seed ^ QUERY_STREAM)
        .generate(&net)
        .queries;
    (net, catalog, queries)
}

/// `Environment::build`, one layer call at a time: the traced counterpart
/// of the fused build, returning (environment, [apsp, embed, hierarchy] s).
fn build_phased(net: Network, max_cs: usize) -> (Environment, [f64; 3]) {
    let (dm, apsp) = timed(|| DistanceMatrix::build(&net, Metric::Cost));
    let config = HierarchyConfig::new(max_cs);
    let seed = config.seed ^ net.len() as u64;
    let (space, embed) = timed(|| CostSpace::embed(&dm, seed, EMBED_ITERS));
    let active: Vec<NodeId> = net.nodes().collect();
    let (hierarchy, hier) = timed(|| Hierarchy::build(&active, &dm, &space, config));
    let env = Environment {
        network: net,
        dm,
        space,
        hierarchy,
        metric: Metric::Cost,
        load: None,
        plan_cache: Arc::new(PlanCache::new()),
    };
    (env, [apsp, embed, hier])
}

/// `setup_s` and `recovery_s`. After `shape.warmups` untimed builds, each
/// of `shape.setups` timed `Environment::build` calls is followed by
/// `replan`, the cold plan that brings a restarted planner back to its
/// batch; every replan must produce the same plans. Returns the last
/// environment, the median build and the median build plus replan. Each
/// build drops its predecessor first, so every sample allocates from the
/// same state.
fn setup_and_restart(
    net: &Network,
    shape: &Shape,
    report: &mut Report,
    replan: impl Fn(&mut Environment) -> Vec<Option<Deployment>>,
) -> (Environment, f64, f64) {
    for _ in 0..shape.warmups {
        drop(Environment::build(net.clone(), MAX_CS));
    }
    let (mut builds, mut restarts) = (Vec::new(), Vec::new());
    let mut env = None;
    let mut reference = None;
    for _ in 0..shape.setups {
        drop(env.take());
        let net = net.clone();
        let t = Instant::now();
        let mut e = Environment::build(net, MAX_CS);
        builds.push(secs(t));
        let plans = replan(&mut e);
        restarts.push(secs(t));
        count(report, &plans);
        let bits = cost_bits(&plans);
        match &reference {
            None => reference = Some(bits),
            Some(r) => report.check(*r == bits, || "restarts planned differently".into()),
        }
        env = Some(e);
    }
    eprintln!("  setup samples {builds:?}, restart samples {restarts:?}");
    (
        env.expect("at least one build"),
        median(&builds),
        median(&restarts),
    )
}

fn cost_bits(ds: &[Option<Deployment>]) -> Vec<Option<u64>> {
    ds.iter()
        .map(|d| d.as_ref().map(|d| d.cost.to_bits()))
        .collect()
}

/// Count a batch's queries as operations; unplanned ones fail.
fn count(report: &mut Report, ds: &[Option<Deployment>]) {
    report.attempted += ds.len() as u64;
    report.failed += ds.iter().filter(|d| d.is_none()).count() as u64;
}

#[derive(Clone, Copy)]
enum Alg {
    TopDown,
    BottomUp,
}

/// `optimize_all` on the global pool, timed; `cold` starts a fresh cache.
fn plan_all(
    env: &mut Environment,
    alg: Alg,
    catalog: &Catalog,
    queries: &[Query],
    cold: bool,
) -> (MultiQueryOutcome, f64) {
    if cold {
        env.isolate_cache(true);
    }
    fn run<O: Optimizer + Sync>(
        env: &Environment,
        opt: &O,
        catalog: &Catalog,
        queries: &[Query],
    ) -> MultiQueryOutcome {
        optimize_all(
            env,
            opt,
            catalog,
            queries,
            &ReuseRegistry::new(),
            &ParallelConfig::default(),
        )
    }
    let env = &*env;
    timed(|| match alg {
        Alg::TopDown => run(env, &TopDown::new(env), catalog, queries),
        Alg::BottomUp => run(env, &BottomUp::new(env), catalog, queries),
    })
}

/// One query at a time through `Optimizer::optimize` (plus
/// `register_deployment` when reusing), each call timed on its own.
pub(crate) struct PerCall {
    pub ms: Vec<f64>,
    pub deployments: Vec<Option<Deployment>>,
    pub stats: SearchStats,
    /// Time in a duplicate `usable_for_live` probe per query (traced runs).
    pub probe_s: f64,
    pub candidates: u64,
    pub publish_s: f64,
    pub registry: ReuseRegistry,
}

pub(crate) fn per_call(
    env: &Environment,
    opt: &dyn Optimizer,
    catalog: &Catalog,
    queries: &[Query],
    reuse: bool,
    probe: bool,
) -> PerCall {
    let mut out = PerCall {
        ms: Vec::with_capacity(queries.len()),
        deployments: Vec::with_capacity(queries.len()),
        stats: SearchStats::new(),
        probe_s: 0.0,
        candidates: 0,
        publish_s: 0.0,
        registry: ReuseRegistry::new(),
    };
    let quiet = dsq_obs::Sink::new(dsq_obs::ClockMode::Monotonic);
    for q in queries {
        if !reuse {
            out.registry = ReuseRegistry::new();
        }
        if probe {
            // The planner probes the registry once per query; repeat that
            // probe outside the planner to time it. Its own counters go to
            // a throwaway sink so the program's counts stay as emitted.
            let _quiet = dsq_obs::scoped(quiet.clone());
            let h = &env.hierarchy;
            let (c, s) = timed(|| out.registry.usable_for_live(q, |n| h.is_active(n)).len());
            out.candidates += c as u64;
            out.probe_s += s;
        }
        let t = Instant::now();
        let d = opt.optimize(catalog, q, &mut out.registry, &mut out.stats);
        if reuse {
            if let Some(d) = &d {
                let (_, s) = timed(|| out.registry.register_deployment(q, d));
                out.publish_s += s;
            }
        }
        out.ms.push(secs(t) * 1e3);
        out.deployments.push(d);
    }
    out
}

/// Seeded node crashes against a planned batch: each crash is applied
/// with the service's fault surgery, the touched queries are replanned
/// with `optimize_dirty`, and the node rejoins before the next one.
struct Recovery {
    crash_ms: Vec<f64>,
    rejoin_ms: Vec<f64>,
    replanned: u64,
}

fn crash_recovery(
    env: &mut Environment,
    catalog: &Catalog,
    queries: &[Query],
    mut prior: Vec<Option<Deployment>>,
    crashes: usize,
    report: &mut Report,
) -> Recovery {
    // Crash the busiest transit nodes. Sinks and stream origins sit on stub
    // nodes, so no query loses its data or its destination; a crash costs
    // hierarchy surgery plus replanning the queries placed on the node.
    let mut protected: HashSet<NodeId> = queries.iter().map(|q| q.sink).collect();
    protected.extend(catalog.streams().iter().map(|s| s.node));
    let mut load = vec![0usize; env.network.len()];
    for d in prior.iter().flatten() {
        for n in &d.placement {
            load[n.index()] += 1;
        }
    }
    let mut victims: Vec<NodeId> = env
        .network
        .nodes()
        .filter(|&n| env.network.kind(n) == NodeKind::Transit && !protected.contains(&n))
        .collect();
    victims.sort_by_key(|n| (std::cmp::Reverse(load[n.index()]), n.0));
    victims.truncate(crashes);
    let mut out = Recovery {
        crash_ms: Vec::new(),
        rejoin_ms: Vec::new(),
        replanned: 0,
    };
    for &node in &victims {
        let dirty: HashSet<NodeId> = [node].into_iter().collect();
        let (surgery, s) = timed(|| apply_fault_surgery(env, &FaultReq::Crash(node.0)));
        out.crash_ms.push(s * 1e3);
        let replanned = optimize_dirty(
            env,
            &TopDown::new(env),
            catalog,
            queries,
            &prior,
            &dirty,
            &ReuseRegistry::new(),
            &ParallelConfig::default(),
        );
        report.check(surgery == Surgery::Crashed(node), || {
            format!("crash of {node} was not applied: {surgery:?}")
        });
        // The queries placed on the node are the operations of a crash; one
        // fails when it comes back without a deployment.
        let touched: Vec<usize> = (0..prior.len())
            .filter(|&i| {
                prior[i]
                    .as_ref()
                    .is_some_and(|d| dsq_core::deployment_touches(d, &dirty))
            })
            .collect();
        out.replanned += touched.len() as u64;
        report.attempted += touched.len() as u64;
        report.failed += touched
            .iter()
            .filter(|&&i| replanned.deployments[i].is_none())
            .count() as u64;
        report.check(
            replanned
                .deployments
                .iter()
                .flatten()
                .all(|d| !dsq_core::deployment_touches(d, &dirty)),
            || format!("a replanned deployment still uses crashed node {node}"),
        );
        prior = replanned.deployments;
        let (surgery, s) = timed(|| apply_fault_surgery(env, &FaultReq::Rejoin(node.0)));
        out.rejoin_ms.push(s * 1e3);
        report.check(surgery == Surgery::Rejoined(node), || {
            format!("rejoin of {node} was not applied: {surgery:?}")
        });
    }
    report.check(!out.crash_ms.is_empty(), || "no crash victim found".into());
    out
}

/// Record the per-layer counters a traced run collected.
pub(crate) fn record_counters(report: &mut Report, tracer: &Tracer, entries: usize) {
    for (metric, counter) in [
        ("engine.dp_states", "engine.dp_states"),
        ("engine.plan_invocations", "engine.plan_invocations"),
        ("topdown.cells_opened", "topdown.cells_opened"),
        ("topdown.cells_pruned", "topdown.cells_pruned"),
        (
            "bottomup.candidates_evaluated",
            "bottomup.candidates_evaluated",
        ),
        ("bottomup.merge_steps", "bottomup.merge_steps"),
        ("cache.hits", "planner.cache_hits"),
        ("cache.misses", "planner.cache_misses"),
        ("cache.retired", "planner.cache_retired"),
    ] {
        let v = tracer.counter(counter);
        report.metric(metric, v as f64, "count");
        report.exact(metric, v);
    }
    let sparse = tracer.events_named("engine.plan_sparse");
    report.metric("engine.plan_sparse", sparse as f64, "count");
    report.exact("engine.plan_sparse", sparse);
    let (h, m) = (
        tracer.counter("planner.cache_hits"),
        tracer.counter("planner.cache_misses"),
    );
    report.metric(
        "cache.hit_ratio",
        h as f64 / (h + m).max(1) as f64,
        "fraction",
    );
    report.metric("cache.entries", entries as f64, "count");
    report.exact("cache.entries", entries);
}

pub(crate) fn search_plans(report: &mut Report, stats: &[&SearchStats]) {
    let plans: u128 = stats.iter().map(|s| s.plans_considered).sum();
    report.metric("search.plans_considered", plans as f64, "count");
    report.exact("search.plans_considered", plans);
}

/// Time the fused build against the traced phase-by-phase build and report
/// where set-up went. The two alternate, so both see the same allocator and
/// page state, and the fastest of each arm is compared, which leaves the
/// first build's first-touch page faults out. Two alternations are made,
/// and a third only when the gap is outside its tolerance; a gap that stays
/// outside is reported as unresolved, since host noise alone can cause it.
/// Without `reconcile` one traced phased build is made, for the counters.
pub(crate) fn reconcile_setup(
    net: &Network,
    max_cs: usize,
    reconcile: bool,
    report: &mut Report,
) -> Environment {
    let tracer = Tracer::default();
    let (mut fused, mut phases) = (Vec::new(), Vec::<[f64; 3]>::new());
    let mut env = None;
    let mut gap = 0.0;
    let (min_pairs, max_pairs) = if reconcile { (2, 3) } else { (0, 0) };
    for pair in 1..=max_pairs {
        drop(env.take());
        let n = net.clone();
        let (e, s) = timed(|| Environment::build(n, max_cs));
        fused.push(s);
        drop(e);
        let n = net.clone();
        let (e, p) = tracer.run(|| build_phased(n, max_cs));
        phases.push(p);
        env = Some(e);
        let sums: Vec<f64> = phases.iter().map(|p| p.iter().sum()).collect();
        gap = (fastest(&sums) - fastest(&fused)) / fastest(&fused);
        if pair >= min_pairs && gap.abs() <= SETUP_TOLERANCE {
            break;
        }
    }
    if !reconcile {
        let n = net.clone();
        let (e, p) = tracer.run(|| build_phased(n, max_cs));
        phases.push(p);
        env = Some(e);
    }
    let pick = |i: usize| fastest(&phases.iter().map(|p| p[i]).collect::<Vec<_>>());
    let (apsp, embed, hier) = (pick(0), pick(1), pick(2));
    report.metric("net.apsp_s", apsp, "s");
    report.metric("net.embed_s", embed, "s");
    report.metric("hierarchy.build_s", hier, "s");
    if reconcile {
        let total = fastest(&fused);
        eprintln!(
            "  where setup_s went: fused Environment::build {total:.3} s = apsp {apsp:.3} s \
             ({:.0}%) + embed {embed:.3} s ({:.0}%) + hierarchy {hier:.3} s ({:.0}%); \
             phase sum {:.3} s over {} alternations, gap {:+.1}% (tolerance ±{:.0}%)",
            apsp / total * 100.0,
            embed / total * 100.0,
            hier / total * 100.0,
            total * (1.0 + gap),
            fused.len(),
            gap * 100.0,
            SETUP_TOLERANCE * 100.0
        );
        if gap.abs() > SETUP_TOLERANCE {
            report.unresolved(format!(
                "setup phases sum to {:+.1}% of the fused build",
                gap * 100.0
            ));
        }
    }
    report.metric("recon.setup_gap", gap.abs(), "fraction");
    // Counts per build: every build of one network does the same work.
    let runs = phases.len() as u64;
    for name in ["kmeans.rounds", "hierarchy.coordinator_elections"] {
        let per_build = tracer.counter(name) / runs;
        report.metric(name, per_build as f64, "count");
        report.exact(name, per_build);
    }
    env.expect("at least one build")
}

/// Phase sums must land within this share of the fused/untraced totals.
/// Both are wider than the run-to-run noise of one build or one batch on a
/// shared 2-core VM (about ±10%), so only a real gap exceeds them.
const SETUP_TOLERANCE: f64 = 0.15;
const PLAN_TOLERANCE: f64 = 0.20;

/// Nominal wall time of one timed round on the reference VM (see
/// `Args::rounds`): batch-10k's cold TopDown, warm TopDown and cold
/// BottomUp batches, and reuse-drift-1k's two reuse deployments.
const BATCH_ROUND_S: f64 = 4.0;
const REUSE_ROUND_S: f64 = 0.9;
/// reuse-drift-1k runs its drift phase after every third reuse round.
const DRIFT_EVERY: usize = 3;

pub fn batch(args: &Args, report: &mut Report) {
    let shape = if args.toy {
        Shape {
            nodes: 256,
            queries: 60,
            warmups: 0,
            setups: 2,
            crashes: 2,
            drifts: 0,
        }
    } else {
        Shape {
            nodes: 10240,
            queries: 3000,
            warmups: 0,
            setups: 3,
            crashes: 8,
            drifts: 0,
        }
    };
    let (net, catalog, queries) = generate(args, &shape, false);
    eprintln!("batch: n = {}, {} queries", net.len(), queries.len());
    if args.trace {
        return batch_traced(args, &shape, report, &net, &catalog, &queries);
    }
    let (mut env, setup_s, recovery_s) = setup_and_restart(&net, &shape, report, |env| {
        plan_all(env, Alg::TopDown, &catalog, &queries, true)
            .0
            .deployments
    });
    report.metric("setup_s", setup_s, "s");
    report.metric("recovery_s", recovery_s, "s");
    drop(net);

    // Measured window: cold TopDown, warm TopDown replan, cold BottomUp.
    let (mut td_s, mut bu_s, mut warm_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<[Vec<Option<u64>>; 2]> = None;
    let (mut td_cost, mut bu_cost) = (0.0, 0.0);
    let mut td_deployments = Vec::new();
    let mut latency = Latency::default();
    let rounds = args.rounds(BATCH_ROUND_S);
    for k in 0..rounds.max(LATENCY_PASSES) {
        if k < rounds {
            let (td, s) = plan_all(&mut env, Alg::TopDown, &catalog, &queries, true);
            td_s.push(s);
            let (warm, s) = plan_all(&mut env, Alg::TopDown, &catalog, &queries, false);
            warm_s.push(s);
            let (bu, s) = plan_all(&mut env, Alg::BottomUp, &catalog, &queries, true);
            bu_s.push(s);
            for out in [&td, &warm, &bu] {
                count(report, &out.deployments);
            }
            report.check(
                cost_bits(&warm.deployments) == cost_bits(&td.deployments),
                || "warm-cache TopDown replan differs from the cold plan".into(),
            );
            let now = [cost_bits(&td.deployments), cost_bits(&bu.deployments)];
            match &reference {
                None => {
                    (td_cost, bu_cost) = (td.total_cost, bu.total_cost);
                    td_deployments = td.deployments;
                    reference = Some(now);
                }
                Some(r) => report.check(*r == now, || "plans differ between rounds".into()),
            }
        }
        if k < LATENCY_PASSES {
            latency.pass(&mut env, &catalog, &queries, false, &td_deployments, report);
        }
    }
    eprintln!(
        "  rounds {}: td {td_s:?} warm {warm_s:?} bu {bu_s:?}",
        td_s.len()
    );
    report.metric("plan_s", fastest(&td_s), "s");
    report.metric("plan_bu_s", fastest(&bu_s), "s");
    report.metric("replan_s", fastest(&warm_s), "s");
    report.metric("plan_cost", td_cost, "cost/time");
    report.metric("plan_bu_cost", bu_cost, "cost/time");
    report.metric(
        "saturation_rps",
        queries.len() as f64 / fastest(&td_s),
        "1/s",
    );
    latency.report(report);
}

/// Passes of the per-query loop; each query's latency is its fastest pass,
/// so a preemption or a slow spell of the host during some passes does not
/// move the tail (as for whole batches, interference only adds time).
const LATENCY_PASSES: usize = 3;

/// Per-query TopDown latency (with `register_deployment` when reusing),
/// the latency a lone registration sees. Passes are made one at a time
/// between the timed rounds, so that they span the run; each starts from a
/// fresh cache and registry and must reproduce `reference` bit-for-bit.
#[derive(Default)]
struct Latency {
    passes: Vec<Vec<f64>>,
}

impl Latency {
    fn pass(
        &mut self,
        env: &mut Environment,
        catalog: &Catalog,
        queries: &[Query],
        reuse: bool,
        reference: &[Option<Deployment>],
        report: &mut Report,
    ) {
        env.isolate_cache(true);
        let calls = per_call(env, &TopDown::new(env), catalog, queries, reuse, false);
        count(report, &calls.deployments);
        report.check(
            cost_bits(&calls.deployments) == cost_bits(reference),
            || "per-query TopDown differs from the batch driver".into(),
        );
        self.passes.push(calls.ms);
    }

    fn report(&self, report: &mut Report) {
        let n = self.passes.first().map_or(0, Vec::len);
        let ms: Vec<f64> = (0..n)
            .map(|i| fastest(&self.passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
            .collect();
        report.check(p99_supported(ms.len()) || ms.len() < 500, || {
            format!("{} latency samples cannot support a p99", ms.len())
        });
        report.metric("latency_p50_ms", median(&ms), "ms");
        report.metric("latency_p99_ms", quantile(&ms, 0.99), "ms");
    }
}

/// plan_s reconciliation, single-threaded: the serial driver's wall time
/// against the sum of its per-query `optimize` calls. The traced per-call
/// pass in `calls` is the first sample; driver and untraced per-call passes
/// then alternate, two samples each and a third only when the gap is
/// outside its tolerance. A gap that stays outside is reported as
/// unresolved.
fn reconcile_plan(
    env: &mut Environment,
    catalog: &Catalog,
    queries: &[Query],
    calls: &PerCall,
    plan_s: f64,
    report: &mut Report,
) {
    let serial = ParallelConfig::serial();
    let mut sums = vec![calls.ms.iter().sum::<f64>() / 1e3];
    let mut serial_runs = Vec::new();
    let gap = loop {
        env.isolate_cache(true);
        let (_, s) = timed(|| {
            optimize_all(
                env,
                &TopDown::new(env),
                catalog,
                queries,
                &ReuseRegistry::new(),
                &serial,
            )
        });
        serial_runs.push(s);
        let gap = (median(&sums) - median(&serial_runs)) / median(&serial_runs);
        if serial_runs.len() == 3 || serial_runs.len() == 2 && gap.abs() <= PLAN_TOLERANCE {
            break gap;
        }
        env.isolate_cache(true);
        let quiet = Tracer::default();
        let c = quiet.run(|| per_call(env, &TopDown::new(env), catalog, queries, false, false));
        sums.push(c.ms.iter().sum::<f64>() / 1e3);
    };
    let (serial_s, sum_s) = (median(&serial_runs), median(&sums));
    eprintln!(
        "  where plan_s went: {plan_s:.3} s on {} threads = serial driver {serial_s:.3} s / \
         speed-up {:.2}; serial = sum of {} TopDown::optimize calls {sum_s:.3} s, gap {:+.1}% \
         over {} alternations (tolerance ±{:.0}%), registry probes {:.4} s",
        rayon::current_num_threads(),
        serial_s / plan_s,
        calls.ms.len(),
        gap * 100.0,
        serial_runs.len(),
        PLAN_TOLERANCE * 100.0,
        calls.probe_s
    );
    if gap.abs() > PLAN_TOLERANCE {
        report.unresolved(format!(
            "per-call sum {sum_s:.3} s vs serial driver {serial_s:.3} s"
        ));
    }
    report.metric("recon.plan_gap", gap.abs(), "fraction");
    report.metric("core.plan_serial_s", serial_s, "s");
}

fn batch_traced(
    args: &Args,
    shape: &Shape,
    report: &mut Report,
    net: &Network,
    catalog: &Catalog,
    queries: &[Query],
) {
    let mut env = reconcile_setup(net, MAX_CS, args.reconcile, report);
    let tracer = Tracer::default();

    // obs overhead: the same cold TopDown batch without and with the sink.
    let plain = args
        .reconcile
        .then(|| plan_all(&mut env, Alg::TopDown, catalog, queries, true));
    let (td, traced_s) = tracer.run(|| plan_all(&mut env, Alg::TopDown, catalog, queries, true));
    let entries = env.plan_cache.len();
    if let Some((plain, plan_s)) = &plain {
        report.check(
            plain.total_cost.to_bits() == td.total_cost.to_bits(),
            || "tracing changed the TopDown plan".into(),
        );
        report.metric(
            "obs.overhead_frac",
            (traced_s - plan_s) / plan_s,
            "fraction",
        );
    }

    // One query at a time through `optimize`, traced, for the counters and
    // the per-call latencies.
    env.isolate_cache(true);
    let calls = tracer.run(|| per_call(&env, &TopDown::new(&env), catalog, queries, false, true));
    report.metric("core.query_p50_ms", median(&calls.ms), "ms");
    report.metric("core.query_p99_ms", quantile(&calls.ms, 0.99), "ms");
    report.metric("advert.probe_s", calls.probe_s, "s");
    report.metric("advert.candidates", calls.candidates as f64, "count");
    report.exact("advert.candidates", calls.candidates);
    if let Some((_, plan_s)) = plain {
        reconcile_plan(&mut env, catalog, queries, &calls, plan_s, report);
    }

    let (bu, _) = tracer.run(|| plan_all(&mut env, Alg::BottomUp, catalog, queries, true));
    count(report, &td.deployments);
    count(report, &bu.deployments);
    report.exact("plan_cost", td.total_cost.to_bits());
    report.exact("plan_bu_cost", bu.total_cost.to_bits());
    search_plans(report, &[&td.stats, &calls.stats, &bu.stats]);

    env.isolate_cache(true);
    let td_deployments = td.deployments;
    let rec = tracer.run(|| {
        crash_recovery(
            &mut env,
            catalog,
            queries,
            td_deployments,
            shape.crashes,
            report,
        )
    });
    report.metric("server.surgery_crash_ms", median(&rec.crash_ms), "ms");
    report.metric("server.surgery_rejoin_ms", median(&rec.rejoin_ms), "ms");
    report.metric("core.replanned_queries", rec.replanned as f64, "count");
    report.exact("core.replanned_queries", rec.replanned);
    record_counters(report, &tracer, entries);
}

pub fn reuse_drift(args: &Args, report: &mut Report) {
    let shape = if args.toy {
        Shape {
            nodes: 128,
            queries: 80,
            warmups: 0,
            setups: 2,
            crashes: 2,
            drifts: 4,
        }
    } else {
        Shape {
            nodes: 1024,
            queries: 2000,
            warmups: 2,
            setups: 5,
            crashes: 8,
            drifts: 8,
        }
    };
    let (net, catalog, queries) = generate(args, &shape, true);
    eprintln!("reuse-drift: n = {}, {} queries", net.len(), queries.len());
    let drifts = drift_schedule(&net, WORLD_SEED, shape.drifts);
    if args.trace {
        return reuse_traced(args, &shape, report, &net, &catalog, &queries, &drifts);
    }
    let (mut env, setup_s, recovery_s) = setup_and_restart(&net, &shape, report, |env| {
        env.isolate_cache(true);
        let td = TopDown::new(env);
        deploy_all(&td, &catalog, &queries, &mut ReuseRegistry::new(), true).deployments
    });
    report.metric("setup_s", setup_s, "s");
    report.metric("recovery_s", recovery_s, "s");

    // Reuse rounds, with a drift phase and a latency pass after every
    // `DRIFT_EVERY` of them, so every kind of sample spreads over the run.
    let (mut td_s, mut bu_s, mut drift_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reference, mut drift_reference) = (None, None);
    let mut td_reuse = Vec::new();
    let mut latency = Latency::default();
    let rounds = args.rounds(REUSE_ROUND_S).max(DRIFT_EVERY);
    for k in 1..=rounds {
        let r = reuse_round(&env, &catalog, &queries, report, None);
        td_s.push(r.td_s);
        bu_s.push(r.bu_s);
        let now = [r.td_cost.to_bits(), r.bu_cost.to_bits()];
        match reference {
            None => {
                reference = Some(now);
                td_reuse = r.td_deployments;
            }
            Some(prev) => report.check(prev == now, || "plans differ between rounds".into()),
        }
        if k % DRIFT_EVERY == 0 {
            let (noreuse, d) = drift_round(&env, &catalog, &queries, &drifts, report, None);
            drift_s.push(d.drift_s);
            let now = [noreuse.total_cost.to_bits(), d.final_cost.to_bits()];
            match drift_reference {
                None => drift_reference = Some(now),
                Some(prev) => {
                    report.check(prev == now, || "drift replans differ between rounds".into())
                }
            }
            latency.pass(&mut env, &catalog, &queries, true, &td_reuse, report);
        }
    }
    let [td_cost, bu_cost] = reference.expect("one round ran").map(f64::from_bits);
    eprintln!("  rounds {rounds}: td {td_s:?} bu {bu_s:?} drift {drift_s:?}");
    report.metric("plan_s", fastest(&td_s), "s");
    report.metric("plan_bu_s", fastest(&bu_s), "s");
    // Every phase replays the same drifts from the same state, so each
    // drift's fastest phase is as good a reading as a whole fastest phase,
    // and a slow spell has to cover that drift in every phase to count.
    let replan_s = (0..drifts.len())
        .map(|k| fastest(&drift_s.iter().map(|d| d[k]).collect::<Vec<_>>()))
        .sum();
    report.metric("replan_s", replan_s, "s");
    report.metric("plan_cost", td_cost, "cost/time");
    report.metric("plan_bu_cost", bu_cost, "cost/time");
    report.metric(
        "saturation_rps",
        queries.len() as f64 / fastest(&td_s),
        "1/s",
    );
    latency.report(report);
}

/// One link-cost change: endpoints and cost multiplier.
type Drift = (NodeId, NodeId, f64);

/// Seeded drifts, cycling through stub-side (stub or gateway) and transit
/// links, each raised (×1.5–4) and lowered (×0.4–0.8, which forces the
/// repair's full-rebuild fallback), so every seed gets the same mix.
fn drift_schedule(net: &Network, seed: u64, count: usize) -> Vec<Drift> {
    let (mut stub, mut transit) = (Vec::new(), Vec::new());
    for u in net.nodes() {
        for l in net.neighbors(u) {
            if u.0 < l.to.0 {
                match l.kind {
                    LinkKind::Transit => transit.push((u, l.to)),
                    LinkKind::Gateway | LinkKind::Stub => stub.push((u, l.to)),
                }
            }
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ DRIFT_STREAM);
    (0..count)
        .map(|k| {
            let pool = if k % 2 == 1 && !transit.is_empty() {
                &transit
            } else {
                &stub
            };
            let (a, b) = pool[rng.gen_range(0..pool.len())];
            let factor = if k % 4 < 2 {
                rng.gen_range(1.5..4.0)
            } else {
                rng.gen_range(0.4..0.8)
            };
            (a, b, factor)
        })
        .collect()
}

/// What the drift phase did.
#[derive(Default)]
struct DriftOutcome {
    /// Wall time of each drift: distance repair through `optimize_dirty`.
    drift_s: Vec<f64>,
    repair_s: f64,
    repair_rows: u64,
    rebuilds: u64,
    dirty_nodes: u64,
    retired: u64,
    replanned: u64,
    final_cost: f64,
}

/// Apply every drift in turn, each followed by the incremental replanning
/// chain, then check the last replan against a full replan over a fresh
/// cache.
fn drift_phase(
    env: &mut Environment,
    catalog: &Catalog,
    queries: &[Query],
    mut prior: Vec<Option<Deployment>>,
    drifts: &[Drift],
    report: &mut Report,
) -> DriftOutcome {
    let mut out = DriftOutcome::default();
    for &(a, b, factor) in drifts {
        let t0 = Instant::now();
        let link = *env
            .network
            .find_link(a, b)
            .expect("drifts name existing links");
        let old_w = env.metric.weight(&link);
        env.network.set_link_cost(a, b, link.cost * factor);
        let ((dm, repair), s) =
            timed(|| env.dm.repaired_after_link_change(&env.network, a, b, old_w));
        out.repair_s += s;
        match repair {
            LinkRepair::Incremental { rows } => out.repair_rows += rows as u64,
            LinkRepair::Rebuilt => out.rebuilds += 1,
        }
        let dirty = metric_dirty_nodes(&env.dm, &dm);
        out.dirty_nodes += dirty.len() as u64;
        out.retired += env.plan_cache.retire_metric(&env.dm, &dm);
        env.dm = dm;
        env.hierarchy.refresh_statistics(&env.dm);
        out.replanned += prior
            .iter()
            .filter(|d| {
                d.as_ref()
                    .is_none_or(|d| dsq_core::deployment_touches(d, &dirty))
            })
            .count() as u64;
        let replanned = optimize_dirty(
            env,
            &TopDown::new(env),
            catalog,
            queries,
            &prior,
            &dirty,
            &ReuseRegistry::new(),
            &ParallelConfig::default(),
        );
        out.final_cost = replanned.total_cost;
        prior = replanned.deployments;
        out.drift_s.push(secs(t0));
    }
    count(report, &prior);
    let mut full_env = env.clone();
    full_env.isolate_cache(true);
    let full = optimize_all(
        &full_env,
        &TopDown::new(&full_env),
        catalog,
        queries,
        &ReuseRegistry::new(),
        &ParallelConfig::default(),
    );
    report.check(
        full.total_cost.to_bits() == out.final_cost.to_bits(),
        || {
            format!(
                "incremental replan cost {} differs from the full replan {}",
                out.final_cost, full.total_cost
            )
        },
    );
    out
}

struct ReuseRound {
    td_s: f64,
    bu_s: f64,
    td_cost: f64,
    bu_cost: f64,
    td_deployments: Vec<Option<Deployment>>,
    td_stats: SearchStats,
    bu_stats: SearchStats,
    registry: ReuseRegistry,
    /// Subplan-cache entries after the TopDown reuse batch.
    entries: usize,
}

/// Run `f` under `tracer`'s sink, if there is one.
fn maybe_traced<T>(tracer: Option<&Tracer>, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.run(f),
        None => f(),
    }
}

/// Reuse deployment with both algorithms, each on a private copy of `env`
/// with a fresh cache and registry.
fn reuse_round(
    env: &Environment,
    catalog: &Catalog,
    queries: &[Query],
    report: &mut Report,
    tracer: Option<&Tracer>,
) -> ReuseRound {
    let mut env = env.clone();
    env.isolate_cache(true);
    let mut registry = ReuseRegistry::new();
    let (td, td_s) = maybe_traced(tracer, || {
        timed(|| deploy_all(&TopDown::new(&env), catalog, queries, &mut registry, true))
    });
    let entries = env.plan_cache.len();
    env.isolate_cache(true);
    let (bu, bu_s) = maybe_traced(tracer, || {
        let mut reg = ReuseRegistry::new();
        timed(|| deploy_all(&BottomUp::new(&env), catalog, queries, &mut reg, true))
    });
    count(report, &td.deployments);
    count(report, &bu.deployments);
    ReuseRound {
        td_s,
        bu_s,
        td_cost: td.total_cost(),
        bu_cost: bu.total_cost(),
        td_deployments: td.deployments,
        td_stats: td.stats,
        bu_stats: bu.stats,
        registry,
        entries,
    }
}

/// A no-reuse TopDown batch that warms a fresh cache, then the drift phase
/// over it, on a private copy of `env`.
fn drift_round(
    env: &Environment,
    catalog: &Catalog,
    queries: &[Query],
    drifts: &[Drift],
    report: &mut Report,
    tracer: Option<&Tracer>,
) -> (MultiQueryOutcome, DriftOutcome) {
    let mut env = env.clone();
    env.isolate_cache(true);
    let noreuse = maybe_traced(tracer, || {
        plan_all(&mut env, Alg::TopDown, catalog, queries, false).0
    });
    count(report, &noreuse.deployments);
    let prior = noreuse.deployments.clone();
    let drift = maybe_traced(tracer, || {
        drift_phase(&mut env, catalog, queries, prior, drifts, report)
    });
    (noreuse, drift)
}

fn reuse_traced(
    args: &Args,
    shape: &Shape,
    report: &mut Report,
    net: &Network,
    catalog: &Catalog,
    queries: &[Query],
    drifts: &[Drift],
) {
    let env = reconcile_setup(net, MAX_CS, args.reconcile, report);
    let (plain, plain_s) = timed(|| {
        let mut scratch = Report::default();
        let r = reuse_round(&env, catalog, queries, &mut scratch, None);
        let (_, d) = drift_round(&env, catalog, queries, drifts, &mut scratch, None);
        (r.td_cost, d.final_cost)
    });
    let tracer = Tracer::default();
    let ((r, (noreuse, d)), traced_s) = timed(|| {
        (
            reuse_round(&env, catalog, queries, report, Some(&tracer)),
            drift_round(&env, catalog, queries, drifts, report, Some(&tracer)),
        )
    });
    report.check(
        plain.0.to_bits() == r.td_cost.to_bits() && plain.1.to_bits() == d.final_cost.to_bits(),
        || "tracing changed the reuse or drift plans".into(),
    );
    report.metric(
        "obs.overhead_frac",
        (traced_s - plain_s) / plain_s,
        "fraction",
    );
    report.exact("plan_cost", r.td_cost.to_bits());
    report.exact("plan_bu_cost", r.bu_cost.to_bits());
    report.metric("net.repair_s", d.repair_s, "s");
    for (name, v) in [
        ("net.repair_rows", d.repair_rows),
        ("net.repair_rebuilds", d.rebuilds),
        ("net.dirty_nodes", d.dirty_nodes),
        ("core.replanned_queries", d.replanned),
    ] {
        report.metric(name, v as f64, "count");
        report.exact(name, v);
    }
    let adverts = r.registry.stats();
    report.metric("advert.live", adverts.live as f64, "count");
    report.metric("advert.retired", adverts.retired as f64, "count");
    report.exact("advert.live", adverts.live);
    report.exact("advert.retired", adverts.retired);
    report.metric(
        "reuse.saving",
        1.0 - r.td_cost / noreuse.total_cost,
        "fraction",
    );
    report.metric("reuse.noreuse_cost", noreuse.total_cost, "cost/time");

    // Per-call TopDown with reuse, the registry probe and publish timed
    // from outside; serial reference is deploy_all itself.
    let mut fresh = env.clone();
    fresh.isolate_cache(true);
    let mut reg = ReuseRegistry::new();
    let (_, serial_s) =
        timed(|| deploy_all(&TopDown::new(&fresh), catalog, queries, &mut reg, true));
    fresh.isolate_cache(true);
    let calls =
        tracer.run(|| per_call(&fresh, &TopDown::new(&fresh), catalog, queries, true, true));
    let sum_s: f64 = calls.ms.iter().sum::<f64>() / 1e3;
    let gap = (sum_s - serial_s) / serial_s;
    eprintln!(
        "  where plan_s went: deploy_all {serial_s:.3} s; sum of {} optimize+publish calls \
         {sum_s:.3} s (gap {:+.1}%), of which publish {:.3} s; registry probes {:.3} s",
        calls.ms.len(),
        gap * 100.0,
        calls.publish_s,
        calls.probe_s
    );
    report.metric("recon.plan_gap", gap.abs(), "fraction");
    report.metric("core.plan_serial_s", serial_s, "s");
    report.metric("core.query_p50_ms", median(&calls.ms), "ms");
    report.metric("core.query_p99_ms", quantile(&calls.ms, 0.99), "ms");
    report.metric("advert.probe_s", calls.probe_s, "s");
    report.metric("advert.publish_s", calls.publish_s, "s");
    report.metric("advert.candidates", calls.candidates as f64, "count");
    report.exact("advert.candidates", calls.candidates);
    search_plans(
        report,
        &[&r.td_stats, &r.bu_stats, &noreuse.stats, &calls.stats],
    );

    let mut fresh = env.clone();
    fresh.isolate_cache(true);
    let prior = noreuse.deployments;
    let rec =
        tracer.run(|| crash_recovery(&mut fresh, catalog, queries, prior, shape.crashes, report));
    report.metric("server.surgery_crash_ms", median(&rec.crash_ms), "ms");
    report.metric("server.surgery_rejoin_ms", median(&rec.rejoin_ms), "ms");
    record_counters(report, &tracer, r.entries);
}
