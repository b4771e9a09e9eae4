//! `serve-mix`: the standing service, with writes beside reads.
//!
//! An in-process `lapush_serve::Server` (engine `threads = 1`) over a small
//! TPC-H chain database, driven over loopback TCP through
//! `lapush_serve::Client` by an open-loop generator: two connections on two
//! threads, requests due at a fixed rate, each timed from when it was
//! due. The mix per block of 100 requests, in a seeded order:
//! 75 `QUERY` of the three-atom query (parameters drawn with Zipf skew from
//! 50 combinations, so mostly answer-cache hits), 8 `TOPK 10` of the pairs
//! query (dropped from the cache by every `INGEST`), 7 `INGEST PS` of 20
//! new rows over existing keys, and 10 `PING`. Every `INGEST` goes over
//! connection 0, so the server applies batches in generation order.
//!
//! The end-to-end run has two phases: the nominal open-loop rate for 60 %
//! of the run (`latency_*`), then both connections in a closed loop on a
//! fresh server (`throughput_qps`, the capacity at concurrency 2).
//! The traced run replaces the closed loop by a rate ladder probed by
//! bisection (`serve.max_rps`: the highest rung that meets the read
//! latency limit without a growing backlog).

use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{
    affinity, median, median_timed, peak_rss_mb, percentile, secs, sub_seed, Rng, SETUP_REPS,
};
use lapushdb::serve::{parse_stats, render_answers, Client, Server, ServerConfig, ServerHandle};
use lapushdb::storage::{Database, Value};
use lapushdb::workload::{tpch_chain_db, tpch_chain_query_pairs, tpch_query, TpchConfig};
use lapushdb::{query::parse_query, rank_by_dissociation, OptLevel, RankOptions};
use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const SUPPLIERS: usize = 200;
const PARTS: usize = 4_000;
const LINEITEMS_PER_PART: usize = 4;
const ORDERS: usize = 4_000;
const PI_MAX: f64 = 0.4;
/// Three-atom `QUERY` parameters: 10 × 5 = 50 combinations. Small `$1`
/// keeps each cached answer's maintained views small: with `$1` up to
/// 100 an `INGEST` took 12–20 ms, in two modes whose mix changed from
/// run to run.
const QUERY_P1: [i64; 10] = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20];
const QUERY_P2: [&str; 5] = ["%red%green%", "%red%", "%blue%", "%green%", "%"];
/// Zipf exponent of the `QUERY` parameter draw.
const ZIPF_S: f64 = 1.0;
/// Pairs-query `TOPK` parameters.
const TOPK_P1: [i64; 3] = [10, 15, 20];
const TOP_K: usize = 10;
const INGEST_ROWS: usize = 20;
/// Requests of each kind per block of 100 (each block in a seeded order).
const MIX: [(Op, usize); 4] = [
    (Op::Query, 75),
    (Op::Topk, 8),
    (Op::Ingest, 7),
    (Op::Ping, 10),
];

/// Offered rate of the nominal phase (requests per second, both
/// connections together): about a quarter of the capacity measured at
/// the benchmark's first commit (~1600 requests/s closed loop). At half
/// the capacity the database, which grows with every `INGEST`, brought
/// the server near saturation by the end of the phase, and the read tail
/// swung 2.4× with small changes in machine speed.
const NOMINAL_RPS: f64 = 400.0;
/// Read latency limit (p99, timed from when due) for the rate ladder:
/// well above one `INGEST` write-lock hold (~2.5 ms) or `TOPK`
/// re-evaluation (~5 ms).
const LIMIT_MS: f64 = 50.0;
/// Rate ladder: rung `i` offers `LADDER_BASE · LADDER_STEP^i` requests/s.
const LADDER_BASE: f64 = 150.0;
const LADDER_STEP: f64 = 1.08;
const LADDER_RUNGS: usize = 40;
/// Bisection probes on the ladder.
const LADDER_PROBES: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Ping,
    Query,
    Topk,
    Ingest,
}

impl Op {
    fn span(self) -> &'static str {
        match self {
            Op::Ping => "serve.ping",
            Op::Query => "serve.query",
            Op::Topk => "serve.topk",
            Op::Ingest => "serve.ingest",
        }
    }

    fn is_read(self) -> bool {
        matches!(self, Op::Query | Op::Topk)
    }
}

struct Req {
    due: Duration,
    conn: usize,
    op: Op,
    body: String,
    /// For `INGEST`: the rows, to replay on the replica.
    rows: Vec<(i64, i64, f64)>,
}

/// One completed (or failed) request.
struct Sample {
    op: Op,
    /// From due time to response; infinite when the request failed.
    lat_ms: f64,
    /// How late the generator sent it.
    late_ms: f64,
    /// Requests of its connection due but not yet sent, at send time.
    backlog: usize,
    /// Index into the phase's request plan.
    idx: usize,
}

/// The generated inputs: the pristine database and the read texts.
struct Inputs {
    db: Database,
    queries: Vec<String>,
    topks: Vec<String>,
    /// `(supplier, part)` keys already in `PS`.
    ps_keys: HashSet<(i64, i64)>,
}

fn generate(seed: u64) -> Inputs {
    let cfg = TpchConfig {
        suppliers: SUPPLIERS,
        parts: PARTS,
        pi_max: PI_MAX,
        seed: sub_seed(seed, 3),
    };
    let db = tpch_chain_db(cfg, LINEITEMS_PER_PART, ORDERS).expect("tpch database");
    let mut queries = Vec::new();
    for p1 in QUERY_P1 {
        for p2 in QUERY_P2 {
            queries.push(format!("QUERY {}", tpch_query(p1, p2).display()));
        }
    }
    let topks = TOPK_P1
        .iter()
        .map(|&p1| format!("TOPK {TOP_K} {}", tpch_chain_query_pairs(p1).display()))
        .collect();
    let ps_keys = db
        .relation_by_name("PS")
        .expect("PS relation")
        .rows()
        .iter()
        .map(|r| (int(&r[0]), int(&r[1])))
        .collect();
    Inputs {
        db,
        queries,
        topks,
        ps_keys,
    }
}

fn int(v: &Value) -> i64 {
    v.as_int().expect("integer key")
}

/// The request schedule of one phase at `rate` for `seconds`. `ps_keys`
/// holds the `PS` keys the server already has; new `INGEST` rows avoid
/// them and are added.
fn plan(
    inputs: &Inputs,
    ps_keys: &mut HashSet<(i64, i64)>,
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
) -> Vec<Req> {
    // Zipf over a seeded permutation of the QUERY combinations.
    let mut ranks: Vec<usize> = (0..inputs.queries.len()).collect();
    rng.shuffle(&mut ranks);
    let weights: Vec<f64> = (0..ranks.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let n = (rate * seconds).ceil() as usize;
    let mut block: Vec<Op> = Vec::new();
    let mut reqs = Vec::with_capacity(n);
    let mut next_reader = 1;
    for i in 0..n {
        if block.is_empty() {
            for (op, count) in MIX {
                block.extend((0..count).map(|_| op));
            }
            rng.shuffle(&mut block);
        }
        let op = block.pop().expect("refilled above");
        let mut rows = Vec::new();
        let body = match op {
            Op::Ping => "PING".to_string(),
            Op::Query => {
                let mut x = rng.unit() * total;
                let mut r = 0;
                while r + 1 < weights.len() && x >= weights[r] {
                    x -= weights[r];
                    r += 1;
                }
                inputs.queries[ranks[r]].clone()
            }
            Op::Topk => inputs.topks[rng.below(inputs.topks.len())].clone(),
            Op::Ingest => {
                let mut body = String::from("INGEST PS");
                while rows.len() < INGEST_ROWS {
                    let s = 1 + rng.below(SUPPLIERS) as i64;
                    let u = 1 + rng.below(PARTS) as i64;
                    if ps_keys.insert((s, u)) {
                        let p = rng.unit() * PI_MAX;
                        body.push_str(&format!("\n{s},{u},{p}"));
                        rows.push((s, u, p));
                    }
                }
                body
            }
        };
        let conn = if op == Op::Ingest {
            0
        } else {
            next_reader ^= 1;
            next_reader
        };
        reqs.push(Req {
            due: Duration::from_secs_f64(i as f64 / rate),
            conn,
            op,
            body,
            rows,
        });
    }
    reqs
}

/// Start a server whose threads run on the server CPUs: the accept loop
/// inherits the spawning thread's CPU set, and each connection thread the
/// accept loop's.
fn start(db: Database) -> std::io::Result<ServerHandle> {
    let config = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind_with_db(db, config)?;
    let restore = affinity::get();
    if let Some((cpus, _)) = affinity::split() {
        affinity::set(&cpus);
    }
    let handle = server.spawn();
    if let Some(all) = restore {
        affinity::set(&all);
    }
    handle
}

/// Fill the plan and answer caches: every read text once.
fn warm_up(addr: SocketAddr, inputs: &Inputs) -> std::io::Result<()> {
    let mut c = Client::connect(addr)?;
    for text in inputs.queries.iter().chain(&inputs.topks) {
        let r = c.request(text)?;
        if r.starts_with("ERR") {
            return Err(std::io::Error::other(r));
        }
    }
    Ok(())
}

/// Block until `at`: sleep most of the way, then spin, so requests leave
/// on time without a sleep's wake-up jitter.
fn wait_until(at: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// How a phase sends its requests.
#[derive(Clone, Copy)]
enum Loop {
    /// Each request when it is due, on its own connection.
    Open,
    /// Both connections take the next request of the plan as soon as
    /// their previous one returned, until the deadline.
    Closed(Instant),
}

/// Drive one phase's requests over two connections. Records one span per
/// request when `tracer` is on.
fn drive(addr: SocketAddr, reqs: &[Req], mode: Loop, tracer: &mut Tracer) -> Vec<Sample> {
    let origin = Instant::now() + Duration::from_millis(20);
    let tracing = tracer.is_on();
    let next = &AtomicUsize::new(0);
    let per_conn: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|conn| {
                s.spawn(move || {
                    if let Some((_, cpus)) = affinity::split() {
                        affinity::set(&cpus);
                    }
                    let mine: Vec<usize> =
                        (0..reqs.len()).filter(|&i| reqs[i].conn == conn).collect();
                    let mut t = Tracer::new(tracing, origin);
                    let mut out = Vec::with_capacity(mine.len());
                    let mut client = Client::connect(addr);
                    let mut pos = 0;
                    loop {
                        let (i, due) = match mode {
                            Loop::Open => {
                                let Some(&i) = mine.get(pos) else { break };
                                pos += 1;
                                (i, origin + reqs[i].due)
                            }
                            Loop::Closed(end) => {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= reqs.len() || Instant::now() >= end {
                                    break;
                                }
                                (i, Instant::now())
                            }
                        };
                        wait_until(due);
                        let sent = Instant::now();
                        let backlog = match mode {
                            Loop::Open => {
                                mine[pos..].partition_point(|&j| origin + reqs[j].due <= sent)
                            }
                            Loop::Closed(_) => 0,
                        };
                        let r = &reqs[i];
                        let ok = match client.as_mut() {
                            Ok(c) => c.request(&r.body).is_ok_and(|resp| resp.starts_with("OK")),
                            Err(_) => false,
                        };
                        let done = Instant::now();
                        let rec = Instant::now();
                        t.set_request(i as u64);
                        t.record(r.op.span(), sent, done);
                        t.count("trace.self_s", rec.elapsed().as_secs_f64());
                        out.push(Sample {
                            op: r.op,
                            lat_ms: if ok {
                                (done - due).as_secs_f64() * 1e3
                            } else {
                                f64::INFINITY
                            },
                            late_ms: (sent - due).as_secs_f64() * 1e3,
                            backlog,
                            idx: i,
                        });
                    }
                    (out, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let mut samples = Vec::new();
    for (s, t) in per_conn {
        samples.extend(s);
        tracer.absorb(t);
    }
    samples
}

fn lats(samples: &[Sample], pick: impl Fn(Op) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| pick(s.op))
        .map(|s| s.lat_ms)
        .collect()
}

fn stats_of(addr: SocketAddr) -> BTreeMap<String, u64> {
    Client::connect(addr)
        .and_then(|mut c| c.request("STATS"))
        .map(|body| parse_stats(&body).into_iter().collect())
        .unwrap_or_default()
}

/// One probe of the rate ladder on a fresh server: does `rate` meet the
/// read latency limit without a growing backlog?
fn probe(inputs: &Inputs, seed: u64, rate: f64, seconds: f64, rep: &mut Report) -> bool {
    let Ok(handle) = start(inputs.db.clone()) else {
        rep.failed += 1;
        return false;
    };
    if warm_up(handle.addr(), inputs).is_err() {
        rep.failed += 1;
        return false;
    }
    let reqs = plan(
        inputs,
        &mut inputs.ps_keys.clone(),
        &mut Rng::new(sub_seed(seed, rate.to_bits())),
        rate,
        seconds,
    );
    let samples = drive(
        handle.addr(),
        &reqs,
        Loop::Open,
        &mut Tracer::new(false, Instant::now()),
    );
    handle.shutdown();
    rep.attempted += samples.len() as u64;
    rep.failed += samples.iter().filter(|s| s.lat_ms.is_infinite()).count() as u64;
    let read_p99 = percentile(&lats(&samples, Op::is_read), 0.99);
    // The generator keeps up at the end: the last quarter of the
    // schedule leaves no later than the limit.
    let tail_start = reqs.len() * 3 / 4;
    let end_late = samples
        .iter()
        .filter(|s| s.idx >= tail_start)
        .map(|s| s.late_ms)
        .fold(0.0, f64::max);
    let pass = read_p99 <= LIMIT_MS && end_late <= LIMIT_MS;
    eprintln!(
        "  probe {rate:8.1} rps: read p99 {read_p99:8.3} ms, end lateness {end_late:8.3} ms -> {}",
        if pass { "pass" } else { "fail" }
    );
    pass
}

/// Both connections in a closed loop on a fresh server for `seconds`:
/// completed requests per second.
fn saturate(inputs: &Inputs, rng: &mut Rng, seconds: f64, rep: &mut Report) -> f64 {
    let Ok(handle) = start(inputs.db.clone()) else {
        rep.failed += 1;
        return 0.0;
    };
    if warm_up(handle.addr(), inputs).is_err() {
        rep.failed += 1;
        return 0.0;
    }
    // More requests than any machine completes in `seconds`.
    let reqs = plan(inputs, &mut inputs.ps_keys.clone(), rng, 5_000.0, seconds);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let samples = drive(
        handle.addr(),
        &reqs,
        Loop::Closed(deadline),
        &mut Tracer::new(false, t0),
    );
    let wall = secs(t0);
    handle.shutdown();
    rep.attempted += samples.len() as u64;
    let failed = samples.iter().filter(|s| s.lat_ms.is_infinite()).count();
    rep.failed += failed as u64;
    (samples.len() - failed) as f64 / wall
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Report {
    let mut rep = Report::default();
    rep.env_num("engine_threads", 1);
    rep.env_num("nominal_rps", NOMINAL_RPS);
    rep.env_num("limit_ms", LIMIT_MS);
    rep.env_str(
        "placement",
        if affinity::split().is_some() {
            "server threads on all CPUs but the last, load generator on the last"
        } else {
            "unpinned"
        },
    );

    // Set-up, `SETUP_REPS` times: generate, encode, start the server, warm
    // up.
    let mut gen_s = 0.0;
    let mut enc_s = 0.0;
    let (setup_s, (inputs, handle)) = median_timed(SETUP_REPS, || {
        let t = Instant::now();
        let inputs = generate(seed);
        gen_s += secs(t);
        let t = Instant::now();
        {
            let mut codec = inputs.db.codec();
            for (id, _) in inputs.db.relations() {
                codec.encoded(id);
            }
        }
        enc_s += secs(t);
        let handle = start(inputs.db.clone()).expect("start server");
        warm_up(handle.addr(), &inputs).expect("warm-up");
        (inputs, handle)
    });
    rep.metric("setup_s", setup_s);
    rep.metric("workload.generate_s", gen_s / SETUP_REPS as f64);
    rep.metric("storage.encode.setup_s", enc_s / SETUP_REPS as f64);
    let sizes: Vec<String> = inputs
        .db
        .relations()
        .map(|(_, r)| format!("{}:{}", r.name(), r.len()))
        .collect();
    rep.env_str("sizes", &sizes.join(" "));

    let mut rng = Rng::new(seed);
    let total = seconds as f64;
    let addr = handle.addr();
    // Nominal open-loop phase: 60 % of the run (half when traced).
    let nominal_s = if trace { total / 2.0 } else { total * 0.6 };
    let mut ps_keys = inputs.ps_keys.clone();
    let reqs = plan(&inputs, &mut ps_keys, &mut rng, NOMINAL_RPS, nominal_s);
    let mut tracer = Tracer::new(trace, Instant::now());
    let before = stats_of(addr);
    let samples = drive(addr, &reqs, Loop::Open, &mut tracer);
    let after = stats_of(addr);
    rep.attempted += samples.len() as u64;
    rep.failed += samples.iter().filter(|s| s.lat_ms.is_infinite()).count() as u64;
    let reads = lats(&samples, Op::is_read);
    let writes = lats(&samples, |o| o == Op::Ingest);
    rep.metric("latency_p50_ms", median(&writes));
    rep.metric("latency_tail_ms", percentile(&reads, 0.95));
    rep.metric("serve.read_p50_ms", median(&reads));
    rep.env_num("read_samples", reads.len());
    rep.env_num("write_samples", writes.len());
    rep.env_str("latency_p50", "p50 of INGEST writes");
    rep.env_str("latency_tail", "p95 of QUERY and TOPK reads");
    rep.env_num("read_p50_ms", median(&reads));
    check_final(&inputs, &reqs, &samples, addr, &mut rep);
    // Memory of the standing service; the later phase starts servers of
    // its own.
    rep.metric("peak_rss_mb", peak_rss_mb());
    handle.shutdown();

    if !trace {
        let qps = saturate(&inputs, &mut rng, total - nominal_s, &mut rep);
        rep.metric("throughput_qps", qps);
        return rep;
    }
    traced_metrics(&tracer, &samples, &before, &after, &mut rep);
    rep.tracer = Some(tracer);
    // Rate ladder, by bisection over the rungs (rung 0 is assumed to pass;
    // if it fails, it is still reported, as the floor).
    let probe_s = (total - nominal_s) / LADDER_PROBES as f64;
    let (mut lo, mut hi) = (0usize, LADDER_RUNGS);
    for _ in 0..LADDER_PROBES {
        let mid = (lo + hi) / 2;
        if probe(&inputs, seed, rung(mid), probe_s, &mut rep) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    rep.metric("serve.max_rps", rung(lo));
    rep
}

fn rung(i: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(i as i32)
}

/// The last response to every read text, sent after the phase, must be
/// byte-equal to `render_answers` over a replica that applied the same
/// `INGEST` batches.
fn check_final(
    inputs: &Inputs,
    reqs: &[Req],
    samples: &[Sample],
    addr: SocketAddr,
    rep: &mut Report,
) {
    let mut replica = inputs.db.clone();
    let applied: HashSet<usize> = samples
        .iter()
        .filter(|s| s.op == Op::Ingest && s.lat_ms.is_finite())
        .map(|s| s.idx)
        .collect();
    let ps = replica.rel_id("PS").expect("PS relation");
    for (i, r) in reqs.iter().enumerate() {
        if applied.contains(&i) {
            for &(s, u, p) in &r.rows {
                replica
                    .relation_mut(ps)
                    .push(Box::new([Value::Int(s), Value::Int(u)]), p)
                    .expect("replica append");
            }
        }
    }
    let Ok(mut client) = Client::connect(addr) else {
        rep.check(false, || "final check: cannot connect".into());
        return;
    };
    for text in inputs.queries.iter().chain(&inputs.topks) {
        let (datalog, opts) = match text.strip_prefix("QUERY ") {
            Some(d) => (
                d,
                RankOptions {
                    opt: OptLevel::Opt12,
                    ..RankOptions::default()
                },
            ),
            None => {
                let d = text.splitn(3, ' ').nth(2).expect("TOPK k datalog");
                (
                    d,
                    RankOptions {
                        opt: OptLevel::MultiPlan,
                        top_k: Some(TOP_K),
                        ..RankOptions::default()
                    },
                )
            }
        };
        let q = parse_query(datalog).expect("generated query parses");
        let want =
            render_answers(&rank_by_dissociation(&replica, &q, opts).expect("replica ranking"));
        let got = client
            .request(text)
            .unwrap_or_else(|e| format!("io error: {e}"));
        rep.check(got == want, || {
            format!("final `{text}`: response differs from the replica")
        });
    }
}

fn traced_metrics(
    t: &Tracer,
    samples: &[Sample],
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    rep: &mut Report,
) {
    for (op, name) in [
        (Op::Ping, "serve.ping.p50_ms"),
        (Op::Query, "serve.query.p50_ms"),
        (Op::Topk, "serve.topk.p50_ms"),
        (Op::Ingest, "serve.ingest.p50_ms"),
    ] {
        rep.metric(name, median(&t.durations_ms(op.span())));
    }
    let d = |k: &str| {
        after.get(k).copied().unwrap_or(0) as f64 - before.get(k).copied().unwrap_or(0) as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    rep.metric(
        "serve.answer_cache.hit_ratio",
        ratio(
            d("answer_cache.hits"),
            d("answer_cache.hits") + d("answer_cache.misses"),
        ),
    );
    rep.metric(
        "serve.plan_cache.hit_ratio",
        ratio(
            d("plan_cache.hits"),
            d("plan_cache.hits") + d("plan_cache.misses"),
        ),
    );
    rep.metric("engine.delta.batches", d("delta.batches"));
    rep.metric("engine.delta.rows", d("delta.rows"));
    rep.metric("engine.delta.fallbacks", d("delta.fallbacks"));
    rep.metric(
        "engine.topk.prune_ratio",
        ratio(d("topk.pruned"), d("topk.pruned") + d("topk.evaluated")),
    );
    rep.metric("engine.pool.scopes", d("pool.scopes"));
    rep.metric("engine.pool.tasks", d("pool.tasks"));
    rep.metric("engine.pool.inline", d("pool.inline"));
    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    rep.metric("loadgen.late_p99_ms", percentile(&late, 0.99));
    rep.metric(
        "loadgen.backlog_max",
        samples.iter().map(|s| s.backlog).max().unwrap_or(0) as f64,
    );
    // The tracer's own time (one span push per request) over the time the
    // traced requests took.
    let span_s: f64 = t.spans().iter().map(|s| s.dur_ns() as f64 / 1e9).sum();
    rep.metric("trace.overhead_frac", t.counter("trace.self_s") / span_s);
}
