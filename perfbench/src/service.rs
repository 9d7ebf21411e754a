//! `service-tcp-1k`: a journaled `PlanningService` on a ~1k-node network,
//! served over loopback TCP by `dsq_server::net::serve_tcp` and driven
//! through one connection: an open-loop phase on a seeded schedule, a
//! closed-loop saturation phase, a closed-loop fault phase, then cold
//! recovery from the journal and snapshot.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dsq_core::{metric_dirty_nodes, optimize_all, BottomUp, Environment, ParallelConfig, TopDown};
use dsq_net::{LinkKind, LinkRepair, NodeId};
use dsq_obs::mini_json::{self, Json};
use dsq_query::{Catalog, Query, QueryId, ReuseRegistry, StreamId};
use dsq_server::protocol::FaultReq;
use dsq_server::state::{apply_fault_surgery, SlotStatus};
use dsq_server::{
    snapshot, Journal, JournalEntry, PlanningService, Request, ServiceConfig, ServiceCore,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::library::{per_call, reconcile_setup, record_counters, search_plans};
use crate::{
    fastest, median, p99_supported, quantile, secs, timed, Args, Report, Tracer, WORLD_SEED,
};

const SCHEDULE_STREAM: u64 = 0x5EED_0003;
/// Open-loop offered load: Poisson registrations, each unregistered after
/// an exponential lifetime (if it ends inside the run).
const REGISTER_PER_S: f64 = 500.0;
const LIFETIME_MS: f64 = 2000.0;
const REPLAN_PER_S: f64 = 5.0;
const READ_PER_S: f64 = 20.0;
const DRAIN_EVERY_MS: u64 = 20;
/// Four faults per second, cycling degrade-up, crash, degrade-down,
/// rejoin: enough fault drains that the latency tail is not set by one or
/// two of them.
const FAULT_EVERY_MS: u64 = 250;
/// Closed-loop saturation: batches of registrations, each then drained.
const SAT_BATCHES: usize = 30;
const SAT_BATCH: usize = 32;
/// Closed-loop fault phase: fault reports, each followed by a drain.
const FAULT_PHASE: usize = 8;
/// `PlanningService::new` repetitions whose median is `setup_s`, after
/// untimed warm-ups that pay the allocator's first-touch page faults.
const WARMUPS: usize = 2;
const SETUPS: usize = 7;
/// Recoveries whose fastest is `recovery_s`.
const RECOVERIES: usize = 3;
/// Nominal wall time of one cold in-process plan of the scheduled
/// registrations with both algorithms on the reference VM (see
/// `Args::rounds`); the fastest round is `plan_s` / `plan_bu_s`.
const COLD_ROUND_S: f64 = 0.5;
/// A run whose generator sends later than this at p99 is invalid: the
/// offered schedule would no longer be the seeded one. (Latency counts the
/// lateness either way, since it runs from the due time.)
const LATE_BOUND_MS: f64 = 25.0;
/// Closed-loop `query` reads timed over TCP and in-process.
const TCP_PROBES: usize = 40;

fn config(args: &Args) -> ServiceConfig {
    let base = ServiceConfig {
        seed: WORLD_SEED,
        max_queue: 64,
        snapshot_every: 50,
        ..ServiceConfig::default()
    };
    if args.toy {
        return base;
    }
    ServiceConfig {
        transit_domains: 4,
        transit_nodes_per_domain: 8,
        stub_domains_per_transit_node: 4,
        stub_nodes_per_domain: 8,
        max_cs: 32,
        streams: 100,
        ..base
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Register,
    Drain,
    Other,
}

/// One scheduled request.
struct Req {
    due_us: u64,
    line: String,
    kind: Kind,
}

/// Nodes the schedule uses: sinks never crash, and stream origins never
/// crash either, so no fault makes a query undeliverable.
struct Nodes {
    sinks: Vec<u32>,
    crashable: Vec<u32>,
    stub_links: Vec<(u32, u32)>,
    transit_links: Vec<(u32, u32)>,
}

fn nodes(env: &Environment, catalog: &Catalog) -> Nodes {
    let origins: HashSet<NodeId> = catalog.streams().iter().map(|s| s.node).collect();
    let free: Vec<u32> = env
        .network
        .stub_nodes()
        .into_iter()
        .filter(|n| !origins.contains(n))
        .map(|n| n.0)
        .collect();
    let (mut stub_links, mut transit_links) = (Vec::new(), Vec::new());
    for u in env.network.nodes() {
        for l in env.network.neighbors(u) {
            if u.0 < l.to.0 {
                match l.kind {
                    LinkKind::Transit => transit_links.push((u.0, l.to.0)),
                    _ => stub_links.push((u.0, l.to.0)),
                }
            }
        }
    }
    Nodes {
        sinks: free.iter().copied().filter(|n| n % 3 != 0).collect(),
        crashable: free.iter().copied().filter(|n| n % 3 == 0).collect(),
        stub_links,
        transit_links,
    }
}

fn exp_gap(rng: &mut ChaCha8Rng, per_s: f64) -> u64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    (-(1.0 - u).ln() / per_s * 1e6) as u64
}

fn register_line(
    rng: &mut ChaCha8Rng,
    id: u32,
    streams: usize,
    sinks: &[u32],
    at_ms: u64,
) -> String {
    let n = rng.gen_range(2..=4usize).min(streams);
    let mut sources: Vec<u32> = Vec::new();
    while sources.len() < n {
        let s = rng.gen_range(0..streams as u32);
        if !sources.contains(&s) {
            sources.push(s);
        }
    }
    let sink = sinks[rng.gen_range(0..sinks.len())];
    let list: Vec<String> = sources.iter().map(u32::to_string).collect();
    format!(
        r#"{{"op":"register","id":{id},"sources":[{}],"sink":{sink},"at_ms":{at_ms}}}"#,
        list.join(",")
    )
}

fn fault_line(
    rng: &mut ChaCha8Rng,
    k: usize,
    nodes: &Nodes,
    down: &mut Vec<u32>,
    at_ms: u64,
) -> Option<String> {
    let degrade = |rng: &mut ChaCha8Rng, up: bool| {
        let pool = if rng.gen_bool(0.5) && !nodes.transit_links.is_empty() {
            &nodes.transit_links
        } else {
            &nodes.stub_links
        };
        let (a, b) = pool[rng.gen_range(0..pool.len())];
        let factor_milli: u64 = if up {
            rng.gen_range(1500..6000)
        } else {
            rng.gen_range(400..800)
        };
        format!(
            r#"{{"op":"fault","kind":"degrade","a":{a},"b":{b},"factor_milli":{factor_milli},"at_ms":{at_ms}}}"#
        )
    };
    match k % 4 {
        0 => Some(degrade(rng, true)),
        1 => {
            let fresh: Vec<u32> = nodes
                .crashable
                .iter()
                .copied()
                .filter(|n| !down.contains(n))
                .collect();
            let node = *fresh.get(rng.gen_range(0..fresh.len().max(1)))?;
            down.push(node);
            Some(format!(
                r#"{{"op":"fault","kind":"crash","node":{node},"at_ms":{at_ms}}}"#
            ))
        }
        2 => Some(degrade(rng, false)),
        _ => {
            let node = down.pop()?;
            Some(format!(
                r#"{{"op":"fault","kind":"rejoin","node":{node},"at_ms":{at_ms}}}"#
            ))
        }
    }
}

/// The open-loop schedule, a pure function of the seed: Poisson
/// registrations with exponential lifetimes, replans and reads of live
/// queries, a fault per second and a drain every `DRAIN_EVERY_MS`.
fn schedule(catalog: &Catalog, nodes: &Nodes, seed: u64, seconds: f64) -> (Vec<Req>, Vec<u32>) {
    let horizon = (seconds * 1e6) as u64;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ SCHEDULE_STREAM);
    let mut out: Vec<Req> = Vec::new();
    let push = |out: &mut Vec<Req>, due_us: u64, line: String, kind: Kind| {
        out.push(Req { due_us, line, kind })
    };
    // (id, registered, unregistered) — the generator's view of who is live.
    let mut regs: Vec<(u32, u64, u64)> = Vec::new();
    let mut t = 0u64;
    loop {
        t += exp_gap(&mut rng, REGISTER_PER_S);
        if t >= horizon {
            break;
        }
        let id = regs.len() as u32 + 1;
        let line = register_line(&mut rng, id, catalog.len(), &nodes.sinks, t / 1000);
        push(&mut out, t, line, Kind::Register);
        let end = t + exp_gap(&mut rng, 1000.0 / LIFETIME_MS);
        if end < horizon {
            let line = format!(r#"{{"op":"unregister","id":{id},"at_ms":{}}}"#, end / 1000);
            push(&mut out, end, line, Kind::Other);
        }
        regs.push((id, t, end));
    }
    // Replans and reads target queries drained at least twice already.
    let settled = 2 * DRAIN_EVERY_MS * 1000;
    let live_at = |rng: &mut ChaCha8Rng, t: u64| {
        let live: Vec<u32> = regs
            .iter()
            .filter(|&&(_, from, to)| from + settled < t && t < to)
            .map(|r| r.0)
            .collect();
        (!live.is_empty()).then(|| live[rng.gen_range(0..live.len())])
    };
    for (per_s, replan) in [(REPLAN_PER_S, true), (READ_PER_S, false)] {
        let mut t = 0u64;
        let mut k = 0usize;
        loop {
            t += exp_gap(&mut rng, per_s);
            if t >= horizon {
                break;
            }
            k += 1;
            let line = match live_at(&mut rng, t) {
                Some(id) if replan => {
                    format!(r#"{{"op":"replan","id":{id},"at_ms":{}}}"#, t / 1000)
                }
                Some(id) if !k.is_multiple_of(4) => format!(r#"{{"op":"query","id":{id}}}"#),
                _ if !replan => r#"{"op":"stats"}"#.to_string(),
                _ => continue,
            };
            push(&mut out, t, line, Kind::Other);
        }
    }
    let mut down = Vec::new();
    let mut world = ChaCha8Rng::seed_from_u64(WORLD_SEED ^ SCHEDULE_STREAM);
    for k in 0.. {
        let t = (k as u64 + 1) * FAULT_EVERY_MS * 1000;
        if t >= horizon {
            break;
        }
        if let Some(line) = fault_line(&mut world, k, nodes, &mut down, t / 1000) {
            push(&mut out, t, line, Kind::Other);
        }
    }
    let mut t = DRAIN_EVERY_MS * 1000;
    while t < horizon + DRAIN_EVERY_MS * 1000 {
        push(
            &mut out,
            t,
            format!(r#"{{"op":"drain","at_ms":{}}}"#, t / 1000),
            Kind::Drain,
        );
        t += DRAIN_EVERY_MS * 1000;
    }
    // Stable: a drain due with another request goes after it.
    out.sort_by_key(|r| (r.due_us, r.kind == Kind::Drain));
    let standing = regs
        .iter()
        .filter(|r| r.2 >= horizon)
        .map(|r| r.0)
        .collect();
    (out, standing)
}

/// Response fields the harness reads.
fn parse_response(line: &str, report: &mut Report) -> Json {
    match mini_json::parse(line) {
        Ok(j) => j,
        Err(e) => {
            report.check(false, || format!("unparseable response {line:?}: {e}"));
            Json::Null
        }
    }
}

fn is_ok(j: &Json) -> bool {
    matches!(j.get("ok"), Some(Json::Bool(true)))
}

fn num(j: &Json, key: &str) -> f64 {
    match j.get(key) {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    }
}

/// Every request line sent and the response it got, in connection order.
#[derive(Default)]
struct Transcript {
    lines: Vec<String>,
    responses: Vec<String>,
}

/// What the open loop measured.
struct OpenLoop {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Requests sent but not yet answered, at each drain response.
    backlog: Vec<usize>,
}

/// Drive the schedule over `conn`: one thread sends each request at its
/// due time regardless of replies; this thread reads the replies.
fn open_loop(
    conn: &mut Conn,
    reqs: &[Req],
    report: &mut Report,
    transcript: &mut Transcript,
) -> OpenLoop {
    let sent = Arc::new(AtomicUsize::new(0));
    let lines: Vec<String> = reqs.iter().map(|r| format!("{}\n", r.line)).collect();
    let dues: Vec<u64> = reqs.iter().map(|r| r.due_us).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let mut out = OpenLoop {
        latency_ms: Vec::new(),
        late_ms: Vec::new(),
        backlog: Vec::new(),
    };
    std::thread::scope(|scope| {
        let Conn { writer, reader } = conn;
        let sent_w = sent.clone();
        let sender = scope.spawn(move || {
            let mut late = Vec::with_capacity(lines.len());
            for (line, due_us) in lines.iter().zip(&dues) {
                let due = start + Duration::from_micros(*due_us);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                writer
                    .write_all(line.as_bytes())
                    .expect("service connection open");
                sent_w.fetch_add(1, Ordering::SeqCst);
            }
            late
        });
        let mut pending: Vec<Instant> = Vec::new();
        let mut lost_seen = 0.0f64;
        for (i, req) in reqs.iter().enumerate() {
            let line = read_line(reader);
            let got = Instant::now();
            let j = parse_response(&line, report);
            report.attempted += 1;
            let ok = is_ok(&j);
            if !ok {
                report.failed += 1;
            }
            match req.kind {
                Kind::Register if ok => pending.push(start + Duration::from_micros(req.due_us)),
                Kind::Register => out.latency_ms.push(f64::INFINITY),
                Kind::Drain if ok => {
                    // Registrations the drain timed out or lost miss every
                    // latency limit; the rest were planned by it.
                    let missed = num(&j, "timed_out") + (num(&j, "lost") - lost_seen).max(0.0);
                    lost_seen = lost_seen.max(num(&j, "lost"));
                    report.failed += missed as u64;
                    for (k, due) in pending.drain(..).enumerate() {
                        let ms = if (k as f64) < missed {
                            f64::INFINITY
                        } else {
                            got.duration_since(due).as_secs_f64() * 1e3
                        };
                        out.latency_ms.push(ms);
                    }
                    out.backlog
                        .push(sent.load(Ordering::SeqCst).saturating_sub(i + 1));
                }
                _ => {}
            }
            transcript.lines.push(req.line.clone());
            transcript.responses.push(line);
        }
        out.late_ms = sender.join().expect("generator thread");
    });
    out
}

/// The client side of the one TCP connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("service connection open");
    line.trim_end().to_string()
}

impl Conn {
    /// Closed-loop exchange: send `lines` in one write, then wait for all
    /// their replies.
    fn batch(
        &mut self,
        lines: &[String],
        report: &mut Report,
        transcript: &mut Transcript,
    ) -> Vec<Json> {
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        self.writer
            .write_all(text.as_bytes())
            .expect("service connection open");
        lines
            .iter()
            .map(|line| {
                let resp = read_line(&mut self.reader);
                let j = parse_response(&resp, report);
                report.attempted += 1;
                if !is_ok(&j) {
                    report.failed += 1;
                }
                transcript.lines.push(line.clone());
                transcript.responses.push(resp);
                j
            })
            .collect()
    }
}

/// Forwards the `listening on <addr>` status line of `serve_tcp`.
struct StatusTee(Vec<u8>, mpsc::Sender<String>);

impl Write for StatusTee {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.extend_from_slice(buf);
        let text = String::from_utf8_lossy(&self.0);
        if let Some(rest) = text.strip_prefix("listening on ") {
            if rest.contains('\n') {
                let _ = self.1.send(rest.trim().to_string());
            }
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn remove_journal(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(format!("{}.snap", path.display()));
}

/// Time the thread at `/proc/<task>` has spent on a CPU, in seconds (its
/// `schedstat`); 0 when unknown.
fn on_cpu_s(task: &Option<PathBuf>) -> f64 {
    task.as_ref()
        .and_then(|t| std::fs::read_to_string(Path::new("/proc").join(t).join("schedstat")).ok())
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The whole client session against a running service; returns the
/// service once it has shut down.
struct Session {
    open: OpenLoop,
    /// Share of the open loop the serving thread spent on a CPU.
    utilization: f64,
    sat_rps: f64,
    fault_s: f64,
    final_cost: f64,
    tcp_ms: Vec<f64>,
    probe_lines: Vec<String>,
    transcript: Transcript,
    svc: PlanningService,
}

fn session(
    args: &Args,
    svc: PlanningService,
    catalog: &Catalog,
    nodes: &Nodes,
    (reqs, standing): &(Vec<Req>, Vec<u32>),
    report: &mut Report,
) -> Session {
    let (tx, rx) = mpsc::channel();
    let (task_tx, task_rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let _ = task_tx.send(std::fs::read_link("/proc/thread-self").ok());
        let mut svc = svc;
        let mut status = StatusTee(Vec::new(), tx);
        dsq_server::net::serve_tcp(&mut svc, "127.0.0.1:0", &mut status).map(|()| svc)
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("service listening");
    let server_task = task_rx.recv().ok().flatten();
    let stream = TcpStream::connect(&addr).expect("connect to the service");
    stream.set_nodelay(true).expect("nodelay");
    let mut conn = Conn {
        writer: stream.try_clone().expect("clone the connection"),
        reader: BufReader::new(stream),
    };
    let mut transcript = Transcript::default();
    let registrations = reqs.iter().filter(|r| r.kind == Kind::Register).count();
    eprintln!(
        "  open loop: {} requests, {registrations} registrations",
        reqs.len()
    );
    let (cpu0, t) = (on_cpu_s(&server_task), Instant::now());
    let open = open_loop(&mut conn, reqs, report, &mut transcript);
    let utilization = (on_cpu_s(&server_task) - cpu0) / secs(t);

    // Closed-loop saturation: register a batch, drain it, repeat; then
    // retire the batches again so the fault phase sees the open loop's
    // standing set.
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed ^ SCHEDULE_STREAM ^ 1);
    let mut world = ChaCha8Rng::seed_from_u64(WORLD_SEED ^ SCHEDULE_STREAM ^ 1);
    let mut at_ms = (args.seconds * 1e3) as u64 + 1000;
    let first = registrations as u32 + 1;
    let sat_ids: Vec<u32> = (0..(SAT_BATCHES * SAT_BATCH) as u32)
        .map(|k| first + k)
        .collect();
    let drain = |at_ms: u64| format!(r#"{{"op":"drain","at_ms":{at_ms}}}"#);
    let t = Instant::now();
    for batch in sat_ids.chunks(SAT_BATCH) {
        let mut lines: Vec<String> = batch
            .iter()
            .map(|&id| register_line(&mut rng, id, catalog.len(), &nodes.sinks, at_ms))
            .collect();
        at_ms += 1;
        lines.push(drain(at_ms));
        conn.batch(&lines, report, &mut transcript);
    }
    let sat_rps = sat_ids.len() as f64 / secs(t);
    for chunk in sat_ids.chunks(SAT_BATCH) {
        let mut lines: Vec<String> = chunk
            .iter()
            .map(|id| format!(r#"{{"op":"unregister","id":{id},"at_ms":{at_ms}}}"#))
            .collect();
        at_ms += 1;
        lines.push(drain(at_ms));
        conn.batch(&lines, report, &mut transcript);
    }

    // Closed-loop fault phase: each fault report is drained at once.
    let mut down = Vec::new();
    let mut final_cost = 0.0;
    let t = Instant::now();
    for k in 0..FAULT_PHASE {
        at_ms += 1;
        let mut lines: Vec<String> = fault_line(&mut world, k, nodes, &mut down, at_ms)
            .into_iter()
            .collect();
        lines.push(drain(at_ms));
        let replies = conn.batch(&lines, report, &mut transcript);
        let j = replies.last().expect("the drain replied");
        report.check(num(j, "lost") == 0.0, || "a fault lost a query".into());
        final_cost = num(j, "total_cost");
    }
    let fault_s = secs(t);

    // `query` reads of standing queries, closed loop, for the TCP overhead.
    let mut tcp_ms = Vec::new();
    let mut probe_lines = Vec::new();
    if args.trace {
        for k in 0..TCP_PROBES {
            let id = standing
                .get(k % standing.len().max(1))
                .copied()
                .unwrap_or(1);
            let line = format!(r#"{{"op":"query","id":{id}}}"#);
            let (_, s) = timed(|| conn.batch(std::slice::from_ref(&line), report, &mut transcript));
            tcp_ms.push(s * 1e3);
            probe_lines.push(line);
        }
    }
    let stats = conn.batch(&[r#"{"op":"stats"}"#.to_string()], report, &mut transcript);
    report.check(num(&stats[0], "queued") == 0.0, || {
        "requests left queued at the end".into()
    });
    conn.writer
        .write_all(b"shutdown\n")
        .expect("service connection open");
    let svc = server
        .join()
        .expect("service thread")
        .expect("service ran without I/O errors");
    Session {
        open,
        utilization,
        sat_rps,
        fault_s,
        final_cost,
        tcp_ms,
        probe_lines,
        transcript,
        svc,
    }
}

/// Check the open loop kept its promises: the generator ran on time, the
/// backlog did not grow, and the p99 rests on enough samples.
fn validate_open_loop(open: &OpenLoop, toy: bool, report: &mut Report) -> f64 {
    let late_p99 = quantile(&open.late_ms, 0.99);
    report.check(late_p99 <= LATE_BOUND_MS, || {
        format!("invalid run: generator p99 lateness {late_p99:.2} ms > {LATE_BOUND_MS} ms")
    });
    let q = open.backlog.len() / 4;
    if q > 0 {
        let first = median(
            &open.backlog[..q]
                .iter()
                .map(|&b| b as f64)
                .collect::<Vec<_>>(),
        );
        let last = median(
            &open.backlog[3 * q..]
                .iter()
                .map(|&b| b as f64)
                .collect::<Vec<_>>(),
        );
        eprintln!(
            "  backlog at drain: first quarter {first}, last quarter {last}; \
             generator lateness p99 {late_p99:.2} ms"
        );
        report.check(last <= 2.0 * first + 10.0, || {
            format!("invalid run: backlog grew from {first} to {last} requests")
        });
    }
    if !toy {
        report.check(p99_supported(open.latency_ms.len()), || {
            format!("only {} latency samples", open.latency_ms.len())
        });
    }
    late_p99
}

/// Every registration the open loop schedules, as queries.
fn scheduled(reqs: &[Req]) -> Vec<Query> {
    reqs.iter()
        .filter(|r| r.kind == Kind::Register)
        .filter_map(|r| match Request::parse(&r.line) {
            Ok(Request::Register {
                id, sources, sink, ..
            }) => Some(Query::join(
                QueryId(id),
                sources.into_iter().map(StreamId),
                NodeId(sink),
            )),
            _ => None,
        })
        .collect()
}

/// Cold in-process plans of the scheduled registrations on the service's
/// initial environment, with both algorithms on the serial driver the
/// service's drains use. Every round must plan the same.
struct ColdPlans {
    env: Environment,
    queries: Vec<Query>,
    td_s: Vec<f64>,
    bu_s: Vec<f64>,
    costs: Option<[f64; 2]>,
}

impl ColdPlans {
    fn rounds(&mut self, n: usize, catalog: &Catalog, report: &mut Report) {
        let serial = ParallelConfig::serial();
        for _ in 0..n {
            let env = &mut self.env;
            env.isolate_cache(true);
            let (td, td_s) = timed(|| {
                optimize_all(
                    env,
                    &TopDown::new(env),
                    catalog,
                    &self.queries,
                    &ReuseRegistry::new(),
                    &serial,
                )
            });
            env.isolate_cache(true);
            let (bu, bu_s) = timed(|| {
                optimize_all(
                    env,
                    &BottomUp::new(env),
                    catalog,
                    &self.queries,
                    &ReuseRegistry::new(),
                    &serial,
                )
            });
            self.td_s.push(td_s);
            self.bu_s.push(bu_s);
            for out in [&td, &bu] {
                report.attempted += out.deployments.len() as u64;
                report.failed += (out.deployments.len() - out.planned()) as u64;
            }
            let now = [td.total_cost, bu.total_cost];
            let first = *self.costs.get_or_insert(now);
            report.check(first.map(f64::to_bits) == now.map(f64::to_bits), || {
                "cold plans differ between rounds".into()
            });
        }
    }
}

fn standing_set(core: &ServiceCore) -> Vec<Query> {
    core.slots
        .values()
        .filter(|s| s.status == SlotStatus::Planned)
        .map(|s| s.query.clone())
        .collect()
}

pub fn run(args: &Args, report: &mut Report) {
    let cfg = config(args);
    std::fs::create_dir_all(&args.workdir).expect("create the work directory");
    let path = args.workdir.join(format!("svc-{}.journal", args.seed));
    let (env0, catalog) = cfg.build();
    let nodes = nodes(&env0, &catalog);
    eprintln!(
        "service: n = {}, {} streams",
        env0.network.len(),
        catalog.len()
    );

    // Set-up: the traced run reconciles the environment build instead.
    let mut setups = Vec::new();
    let mut svc = None;
    let (warmups, reps) = if args.trace {
        (0, 1)
    } else {
        (WARMUPS, SETUPS)
    };
    for k in 0..warmups + reps {
        drop(svc.take());
        remove_journal(&path);
        let (s, secs) = timed(|| PlanningService::new(cfg.clone(), Some(&path)));
        if k >= warmups {
            setups.push(secs);
        }
        svc = Some(s.expect("journal file created"));
    }
    let svc = svc.expect("one set-up");
    let plan = schedule(&catalog, &nodes, args.seed, args.seconds);
    // A quarter of the cold-plan rounds run before the session and the rest
    // after it, alternating with the recoveries, so that the fastest of each
    // kind spans the run rather than one stretch of it.
    let cold_rounds = args.rounds(COLD_ROUND_S).max(2);
    let early_rounds = cold_rounds / 4;
    let mut cold = ColdPlans {
        env: env0.clone(),
        queries: scheduled(&plan.0),
        td_s: Vec::new(),
        bu_s: Vec::new(),
        costs: None,
    };
    if args.trace {
        reconcile_setup(&env0.network, cfg.max_cs, args.reconcile, report);
    } else {
        report.metric("setup_s", median(&setups), "s");
        cold.rounds(early_rounds, &catalog, report);
    }

    let s = session(args, svc, &catalog, &nodes, &plan, report);
    let late_p99 = validate_open_loop(&s.open, args.toy, report);
    eprintln!(
        "  serving thread busy {:.1}% of the open loop",
        s.utilization * 100.0
    );
    let live = s.svc.fingerprint();
    report.exact("service.fingerprint", fnv(&live));
    report.exact("plan_cost", s.final_cost.to_bits());

    if args.trace {
        report.metric("server.utilization", s.utilization, "fraction");
        traced(args, report, &cfg, s, &path, late_p99);
        return;
    }
    let lat = &s.open.latency_ms;
    eprintln!(
        "  {} latency samples; saturation {:.0}/s; fault phase {:.3} s",
        lat.len(),
        s.sat_rps,
        s.fault_s
    );
    report.metric("latency_p50_ms", median(lat), "ms");
    report.metric("latency_p99_ms", quantile(lat, 0.99), "ms");
    report.metric("saturation_rps", s.sat_rps, "1/s");
    report.metric("replan_s", s.fault_s, "s");
    report.metric("plan_cost", s.final_cost, "cost/time");

    let mut rec = Vec::new();
    let late_rounds = cold_rounds - early_rounds;
    for k in 0..late_rounds.max(RECOVERIES) {
        if k < RECOVERIES {
            let (r, secs) = timed(|| PlanningService::recover_from_path(&path));
            rec.push(secs);
            let fp = r.map(|r| r.fingerprint());
            report.check(fp.as_deref() == Ok(live.as_str()), || {
                format!(
                    "recovered service differs from the live one: {:?}",
                    fp.err()
                )
            });
        }
        if k < late_rounds {
            cold.rounds(1, &catalog, report);
        }
    }
    report.metric("recovery_s", fastest(&rec), "s");

    eprintln!(
        "  {} scheduled registrations planned cold: td {:?} bu {:?}",
        cold.queries.len(),
        cold.td_s,
        cold.bu_s
    );
    report.metric("plan_s", fastest(&cold.td_s), "s");
    report.metric("plan_bu_s", fastest(&cold.bu_s), "s");
    let [_, bu_cost] = cold.costs.expect("one cold round ran");
    report.metric("plan_bu_cost", bu_cost, "cost/time");
    remove_journal(&path);
}

/// Replay the session's admitted requests in-process through the
/// service's own layers, each call timed: `Request::parse`,
/// `Journal::append`, `ServiceCore::drain` and `snapshot::write`.
struct Replay {
    parse_s: f64,
    append_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    snapshot_s: Vec<f64>,
    total_s: f64,
    core: ServiceCore,
    faults: Vec<FaultReq>,
}

fn replay(cfg: &ServiceConfig, t: &Transcript, path: &Path) -> std::io::Result<Replay> {
    let mut core = ServiceCore::new(cfg.clone());
    remove_journal(path);
    let mut journal = Journal::create(cfg.clone(), Some(path))?;
    let mut out = Replay {
        parse_s: 0.0,
        append_ms: Vec::new(),
        drain_ms: Vec::new(),
        snapshot_s: Vec::new(),
        total_s: 0.0,
        core: ServiceCore::new(cfg.clone()),
        faults: Vec::new(),
    };
    let mut queue: Vec<JournalEntry> = Vec::new();
    let t0 = Instant::now();
    for (line, resp) in t.lines.iter().zip(&t.responses) {
        let (req, s) = timed(|| Request::parse(line));
        out.parse_s += s;
        let req = req.expect("the harness sends well-formed requests");
        let admitted = resp.contains("\"ok\":true");
        let entry = match &req {
            Request::Query { .. } | Request::Stats => continue,
            Request::Drain { .. } => JournalEntry::from_request(&req),
            _ if admitted => JournalEntry::from_request(&req),
            _ if resp.contains("overloaded") => {
                let at_ms = JournalEntry::from_request(&req).map_or(0, |e| e.at_ms());
                core.note_shed();
                Some(JournalEntry::Shed {
                    op: req.op().to_string(),
                    id: req.id(),
                    at_ms,
                })
            }
            _ => None,
        };
        let Some(entry) = entry else { continue };
        let (r, s) = timed(|| journal.append(entry.clone()));
        r?;
        out.append_ms.push(s * 1e3);
        match (&req, entry) {
            (Request::Drain { at_ms }, _) => {
                let batch = std::mem::take(&mut queue);
                let (_, s) = timed(|| core.drain(&batch, *at_ms));
                out.drain_ms.push(s * 1e3);
                let every = cfg.snapshot_every as u64;
                if every > 0 && core.counters.drains.is_multiple_of(every) {
                    let (_, s) = timed(|| snapshot::write(&core));
                    out.snapshot_s.push(s);
                }
            }
            (_, JournalEntry::Shed { .. }) => {}
            (_, entry) => {
                if let Request::Fault { fault, .. } = &req {
                    out.faults.push(fault.clone());
                }
                queue.push(entry);
                core.counters.admitted += 1;
            }
        }
    }
    out.total_s = secs(t0);
    out.core = core;
    Ok(out)
}

fn traced(
    args: &Args,
    report: &mut Report,
    cfg: &ServiceConfig,
    s: Session,
    live_path: &Path,
    late_p99: f64,
) {
    let live = s.svc.fingerprint();
    report.metric("gen.late_p99_ms", late_p99, "ms");
    // TCP round trip against the same reads answered in-process.
    let mut svc = s.svc;
    let local: Vec<f64> = s
        .probe_lines
        .iter()
        .map(|l| timed(|| svc.submit_line(l)).1 * 1e3)
        .collect();
    report.metric("tcp.overhead_ms", median(&s.tcp_ms) - median(&local), "ms");

    let tracer = Tracer::default();
    let path: PathBuf = args.workdir.join(format!("replay-{}.journal", args.seed));
    let plain_s = replay(cfg, &s.transcript, &path)
        .expect("replay journal writable")
        .total_s;
    let r = tracer
        .run(|| replay(cfg, &s.transcript, &path))
        .expect("replay journal writable");
    report.check(r.core.fingerprint() == live, || {
        "in-process replay differs from the live service".into()
    });
    report.metric("server.parse_s", r.parse_s, "s");
    report.metric(
        "server.journal_append_p99_ms",
        quantile(&r.append_ms, 0.99),
        "ms",
    );
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    report.metric("server.journal_bytes", bytes as f64, "bytes");
    report.exact("server.journal_bytes", bytes);
    report.metric("server.drain_p50_ms", median(&r.drain_ms), "ms");
    report.metric("server.drain_p99_ms", quantile(&r.drain_ms, 0.99), "ms");
    report.metric("server.snapshot_s", median(&r.snapshot_s), "s");
    let c = &r.core.counters;
    for (name, v) in [
        ("server.admitted", c.admitted),
        ("server.shed", c.shed),
        ("server.timed_out", c.timed_out),
        ("server.stale_served", c.stale_served),
        ("server.faults_applied", c.faults_applied),
    ] {
        report.metric(name, v as f64, "count");
        report.exact(name, v);
    }
    let rows = tracer.counter("server.degrade_rows_repaired");
    report.metric("server.degrade_rows_repaired", rows as f64, "count");
    report.exact("server.degrade_rows_repaired", rows);

    // The program's own full replay (no snapshot) of the same journal.
    let journal = Journal::load(&path).expect("replay journal readable");
    let (rec, replay_s) = timed(|| PlanningService::recover(journal));
    report.check(
        rec.map(|r| r.fingerprint()).as_deref() == Ok(live.as_str()),
        || "journal replay differs from the live service".into(),
    );
    report.metric("server.replay_s", replay_s, "s");
    report.metric(
        "obs.overhead_frac",
        (r.total_s - plain_s) / plain_s,
        "fraction",
    );
    remove_journal(&path);
    remove_journal(live_path);

    // Fault surgery on a copy of the initial environment, in journal order;
    // before each degrade, the distance repair on its own.
    let (mut env, _) = cfg.build();
    let (mut crash, mut rejoin, mut degrade) = (Vec::new(), Vec::new(), Vec::new());
    let (mut repair_s, mut rows, mut rebuilds, mut dirty) = (0.0, 0u64, 0u64, 0u64);
    for fault in &r.faults {
        if let FaultReq::Degrade { a, b, factor_milli } = fault {
            let (a, b) = (NodeId(*a), NodeId(*b));
            if let Some(link) = env.network.find_link(a, b).copied() {
                let old_w = env.metric.weight(&link);
                let mut net = env.network.clone();
                net.set_link_cost(a, b, link.cost * (*factor_milli as f64 / 1000.0));
                let ((dm, how), s) = timed(|| env.dm.repaired_after_link_change(&net, a, b, old_w));
                repair_s += s;
                match how {
                    LinkRepair::Incremental { rows: n } => rows += n as u64,
                    LinkRepair::Rebuilt => rebuilds += 1,
                }
                dirty += metric_dirty_nodes(&env.dm, &dm).len() as u64;
            }
        }
        let (_, s) = tracer.run(|| timed(|| apply_fault_surgery(&mut env, fault)));
        match fault {
            FaultReq::Crash(_) => crash.push(s * 1e3),
            FaultReq::Rejoin(_) => rejoin.push(s * 1e3),
            FaultReq::Degrade { .. } => degrade.push(s * 1e3),
        }
    }
    report.metric("server.surgery_crash_ms", median(&crash), "ms");
    report.metric("server.surgery_rejoin_ms", median(&rejoin), "ms");
    report.metric("server.surgery_degrade_ms", median(&degrade), "ms");
    report.metric("net.repair_s", repair_s, "s");
    for (name, v) in [
        ("net.repair_rows", rows),
        ("net.repair_rebuilds", rebuilds),
        ("net.dirty_nodes", dirty),
    ] {
        report.metric(name, v as f64, "count");
        report.exact(name, v);
    }

    // The standing set, planned cold in-process: driver against per-call.
    let core = svc.core();
    let queries = standing_set(core);
    let mut env = core.env.clone();
    env.isolate_cache(true);
    let serial = ParallelConfig::serial();
    let (_, serial_s) = timed(|| {
        optimize_all(
            &env,
            &TopDown::new(&env),
            &core.catalog,
            &queries,
            &ReuseRegistry::new(),
            &serial,
        )
    });
    env.isolate_cache(true);
    let calls = tracer.run(|| {
        per_call(
            &env,
            &TopDown::new(&env),
            &core.catalog,
            &queries,
            false,
            false,
        )
    });
    let sum_s: f64 = calls.ms.iter().sum::<f64>() / 1e3;
    report.metric(
        "recon.plan_gap",
        ((sum_s - serial_s) / serial_s).abs(),
        "fraction",
    );
    report.metric("core.plan_serial_s", serial_s, "s");
    report.metric("core.query_p50_ms", median(&calls.ms), "ms");
    report.metric("core.query_p99_ms", quantile(&calls.ms, 0.99), "ms");
    env.isolate_cache(true);
    let td = tracer.run(|| {
        optimize_all(
            &env,
            &TopDown::new(&env),
            &core.catalog,
            &queries,
            &ReuseRegistry::new(),
            &serial,
        )
    });
    let bu = tracer.run(|| {
        optimize_all(
            &env,
            &BottomUp::new(&env),
            &core.catalog,
            &queries,
            &ReuseRegistry::new(),
            &serial,
        )
    });
    report.exact("standing_bu_cost", bu.total_cost.to_bits());
    search_plans(report, &[&calls.stats, &td.stats, &bu.stats]);

    // Adverts: the live registry probed for every standing query, and the
    // standing deployments published into a fresh registry.
    let stats = core.registry.stats();
    let mut registry = core.registry.clone();
    let h = &core.env.hierarchy;
    let ((), probe_s) = timed(|| {
        for q in &queries {
            std::hint::black_box(registry.usable_for_live(q, |n| h.is_active(n)));
        }
    });
    let mut fresh = ReuseRegistry::new();
    let ((), publish_s) = timed(|| {
        for slot in core.slots.values() {
            if let Some(d) = &slot.deployment {
                fresh.register_deployment(&slot.query, d);
            }
        }
    });
    report.metric("advert.probe_s", probe_s, "s");
    report.metric("advert.publish_s", publish_s, "s");
    for (name, v) in [
        ("advert.candidates", stats.reuse_candidates_served),
        ("advert.live", stats.live),
        ("advert.retired", stats.retired),
    ] {
        report.metric(name, v as f64, "count");
        report.exact(name, v);
    }
    record_counters(report, &tracer, env.plan_cache.len());
}
