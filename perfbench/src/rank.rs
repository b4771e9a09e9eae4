//! The two ad-hoc ranking workloads, driven through
//! `lapushdb::rank_by_dissociation` by one closed-loop caller.
//!
//! * `rank-chain-star` — Setup 2 of the paper: k-chain (k = 5, 6, 7) and
//!   k-star (k = 3, 4) queries, each over its own database, alternating
//!   `MultiPlan` and `Opt12` requests, engine `threads = 2`.
//! * `rank-tpch` — Setup 1: the paper's three-atom TPC-H query under
//!   `Opt123`, alternating with the four-atom pairs query under
//!   `MultiPlan` with `top_k = 10`, engine `threads = 1`.
//!
//! The untraced run calls `rank_by_dissociation` once per request. The
//! traced run makes every request twice, back to back: through
//! `rank_by_dissociation`, then through the stages the driver runs, in the
//! driver's order, with one span around each layer call (`staged`); it
//! checks that both give bit-identical answers.

use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{checksum, median, median_timed, secs, sub_seed, tail_mean, Rng, SETUP_REPS};
use lapushdb::core::{minimal_plan_set_opts, single_plan_id, EnumOptions, PlanStore, SchemaInfo};
use lapushdb::engine::{
    eval_plan_id, pool, propagation_score_ids, propagation_score_topk, reduce_database, AnswerSet,
    ExecOptions, Semantics,
};
use lapushdb::query::{parse_query, Query};
use lapushdb::storage::{Database, Value};
use lapushdb::workload::{
    chain_db, chain_query, find_chain_domain, find_star_domain, star_db, star_query, tpch_chain_db,
    tpch_chain_query_pairs, tpch_query, TpchConfig,
};
use lapushdb::{rank_by_dissociation, OptLevel, RankOptions};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

type Ranked = Vec<(Box<[Value]>, f64)>;

/// Tuples per relation of every Setup-2 database.
const SETUP2_N: usize = 10_000;
/// Setup 1 database: `tpch_chain_db` knobs.
const TPCH_SUPPLIERS: usize = 1_000;
const TPCH_PARTS: usize = 20_000;
const TPCH_LINEITEMS_PER_PART: usize = 4;
const TPCH_ORDERS: usize = 20_000;
const TPCH_PI_MAX: f64 = 0.4;
/// `$1` of the three-atom query, and its `$2` patterns. `$1 ≤ 200` keeps
/// the semi-join reduction the bulk of every `Opt123` request; a larger
/// `$1` adds one far slower request that alone makes up the tail.
const TPCH_P1: [i64; 4] = [50, 100, 150, 200];
const TPCH_P2: [&str; 3] = ["%red%green%", "%red%", "%"];
/// `$1` of the four-atom pairs query (kept small: 20–30 ms per request).
const PAIRS_P1: [i64; 3] = [40, 60, 80];
const TOP_K: usize = 10;

/// One distinct request: query text, options, and the database it runs on.
struct Combo {
    db: usize,
    label: String,
    text: String,
    opts: RankOptions,
}

struct Setup {
    dbs: Vec<Database>,
    combos: Vec<Combo>,
    /// Request stream: combo indices, seeded.
    stream: Vec<usize>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ChainStar,
    Tpch,
}

impl Kind {
    fn threads(self) -> usize {
        match self {
            Kind::ChainStar => 2,
            Kind::Tpch => 1,
        }
    }
}

/// Generate the databases (timed into `gen_s`) and the request stream.
fn generate(kind: Kind, seed: u64, gen_s: &mut f64) -> Setup {
    let t = Instant::now();
    let threads = kind.threads();
    let opts = |opt: OptLevel, top_k: Option<usize>| RankOptions {
        opt,
        threads,
        top_k,
        ..RankOptions::default()
    };
    let mut dbs = Vec::new();
    let mut combos = Vec::new();
    // Two request kinds, alternating; each kind cycles through its combos
    // in a fresh seeded order every round.
    let mut kinds: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    match kind {
        Kind::ChainStar => {
            let mut queries: Vec<(String, Query)> = Vec::new();
            for k in [5usize, 6, 7] {
                let domain = find_chain_domain(k, SETUP2_N, 35.0);
                let db = chain_db(k, SETUP2_N, domain, 1.0, sub_seed(seed, k as u64))
                    .expect("chain database");
                dbs.push(db);
                queries.push((format!("chain-k{k}"), chain_query(k)));
            }
            for k in [3usize, 4] {
                let domain = find_star_domain(k, SETUP2_N, 1.0, 0.92);
                let db = star_db(k, SETUP2_N, domain, 1.0, sub_seed(seed, 100 + k as u64))
                    .expect("star database");
                dbs.push(db);
                queries.push((format!("star-k{k}"), star_query(k)));
            }
            for (i, (name, q)) in queries.iter().enumerate() {
                for (slot, (opt, tag)) in [
                    (OptLevel::MultiPlan, "multiplan"),
                    (OptLevel::Opt12, "opt12"),
                ]
                .into_iter()
                .enumerate()
                {
                    kinds[slot].push(combos.len());
                    combos.push(Combo {
                        db: i,
                        label: format!("{name}/{tag}"),
                        text: q.display(),
                        opts: opts(opt, None),
                    });
                }
            }
        }
        Kind::Tpch => {
            let cfg = TpchConfig {
                suppliers: TPCH_SUPPLIERS,
                parts: TPCH_PARTS,
                pi_max: TPCH_PI_MAX,
                seed: sub_seed(seed, 1),
            };
            let db =
                tpch_chain_db(cfg, TPCH_LINEITEMS_PER_PART, TPCH_ORDERS).expect("tpch database");
            dbs.push(db);
            for p1 in TPCH_P1 {
                for p2 in TPCH_P2 {
                    kinds[0].push(combos.len());
                    combos.push(Combo {
                        db: 0,
                        label: format!("tpch3({p1},'{p2}')/opt123"),
                        text: tpch_query(p1, p2).display(),
                        opts: opts(OptLevel::Opt123, None),
                    });
                }
            }
            for p1 in PAIRS_P1 {
                kinds[1].push(combos.len());
                combos.push(Combo {
                    db: 0,
                    label: format!("pairs({p1})/multiplan-top{TOP_K}"),
                    text: tpch_chain_query_pairs(p1).display(),
                    opts: opts(OptLevel::MultiPlan, Some(TOP_K)),
                });
            }
        }
    }
    *gen_s += secs(t);

    let mut rng = Rng::new(seed);
    let mut stream = Vec::new();
    let mut rounds: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    while stream.len() < 50_000 {
        for (slot, round) in rounds.iter_mut().enumerate() {
            if round.is_empty() {
                *round = kinds[slot].clone();
                rng.shuffle(round);
            }
            stream.push(round.pop().expect("refilled above"));
        }
    }
    Setup {
        dbs,
        combos,
        stream,
    }
}

/// Encode every relation of every database (the value codec the engine
/// reads); timed into `enc_s`.
fn encode_all(setup: &Setup, enc_s: &mut f64) {
    let t = Instant::now();
    for db in &setup.dbs {
        let mut codec = db.codec();
        for (id, _) in db.relations() {
            codec.encoded(id);
        }
    }
    *enc_s += secs(t);
}

/// One request as a user makes it: parse the text, rank every answer.
fn plain(db: &Database, c: &Combo) -> Result<Ranked, String> {
    let q = parse_query(&c.text).map_err(|e| e.to_string())?;
    let ans = rank_by_dissociation(db, &q, c.opts).map_err(|e| e.to_string())?;
    Ok(ans.ranked())
}

fn encode_relations_of(db: &Database, q: &Query) {
    let mut codec = db.codec();
    for atom in q.atoms() {
        if let Ok(id) = db.rel_id(&atom.relation) {
            codec.encoded(id);
        }
    }
}

/// The same request as the stages of `driver::rank_by_dissociation`, one
/// span per layer call: parse → schema → [semi-join reduction → encode of
/// the reduced database] → enumerate → exec or top-k → `ranked_top`.
fn staged(t: &mut Tracer, db: &Database, c: &Combo) -> Result<Ranked, String> {
    let opts = c.opts;
    let q = t
        .span("query.parse", |_| parse_query(&c.text))
        .map_err(|e| e.to_string())?;
    let schema = t.span("core.schema", |_| {
        if opts.use_schema {
            SchemaInfo::from_db(&q, db)
        } else {
            SchemaInfo::from_query(&q)
        }
    });
    let enum_opts = if opts.use_schema {
        EnumOptions::full()
    } else {
        EnumOptions::default()
    };
    let reduced;
    let data = if opts.opt == OptLevel::Opt123 {
        reduced = t.span("engine.semijoin", |_| reduce_database(db, &q));
        t.count("semijoin.calls", 1.0);
        t.count("semijoin.tuples_in", db.tuple_count() as f64);
        t.count("semijoin.tuples_out", reduced.tuple_count() as f64);
        t.span("storage.encode", |_| encode_relations_of(&reduced, &q));
        &reduced
    } else {
        db
    };
    let exec_default = ExecOptions {
        threads: opts.threads,
        ..ExecOptions::default()
    };
    let pool_before = pool::counters();
    let ans: AnswerSet = match opts.opt {
        OptLevel::MultiPlan => {
            let set = t.span("core.enumerate", |_| {
                minimal_plan_set_opts(&q, &schema, enum_opts)
            });
            t.count("enumerate.calls", 1.0);
            t.count("enumerate.plans", set.len() as f64);
            t.count("enumerate.dag_nodes", set.dag_node_count() as f64);
            match opts.top_k {
                Some(k) => {
                    let res = t
                        .span("engine.topk", |_| {
                            propagation_score_topk(
                                data,
                                &q,
                                &set.store,
                                &set.roots,
                                k,
                                exec_default,
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    t.count("topk.calls", 1.0);
                    t.count("topk.evaluated", res.stats.evaluated as f64);
                    t.count("topk.pruned", res.stats.pruned as f64);
                    t.count("topk.fallback_nodes", res.stats.fallback_nodes as f64);
                    AnswerSet {
                        vars: q.head().to_vec(),
                        rows: res.ranked.into_iter().collect(),
                    }
                }
                None => {
                    let ans = t
                        .span("engine.exec", |_| {
                            propagation_score_ids(data, &q, &set.store, &set.roots, exec_default)
                        })
                        .map_err(|e| e.to_string())?;
                    t.count("exec.calls", 1.0);
                    t.count("exec.answers", ans.len() as f64);
                    ans
                }
            }
        }
        OptLevel::Opt1 | OptLevel::Opt12 | OptLevel::Opt123 => {
            let mut store = PlanStore::new();
            let root = t.span("core.enumerate", |_| {
                single_plan_id(&mut store, &q, &schema, enum_opts)
            });
            t.count("enumerate.calls", 1.0);
            t.count("enumerate.plans", 1.0);
            t.count("enumerate.dag_nodes", store.reachable_count(&[root]) as f64);
            let exec = if opts.opt == OptLevel::Opt1 {
                exec_default
            } else {
                ExecOptions {
                    semantics: Semantics::Probabilistic,
                    reuse_views: true,
                    threads: opts.threads,
                }
            };
            let ans = t
                .span("engine.exec", |_| {
                    eval_plan_id(data, &q, &store, root, exec)
                })
                .map_err(|e| e.to_string())?;
            t.count("exec.calls", 1.0);
            t.count("exec.answers", ans.len() as f64);
            ans
        }
    };
    let pool_after = pool::counters();
    t.count(
        "pool.scopes",
        (pool_after.scopes - pool_before.scopes) as f64,
    );
    t.count("pool.tasks", (pool_after.tasks - pool_before.tasks) as f64);
    t.count(
        "pool.inline",
        (pool_after.inline - pool_before.inline) as f64,
    );
    let k = opts.top_k.unwrap_or(ans.len());
    Ok(t.span("engine.ranked_top", |_| ans.ranked_top(k)))
}

/// Outcome of one closed-loop pass over the request stream.
struct Pass {
    /// Per request: stream position's combo and its result.
    results: Vec<(usize, Result<Ranked, String>)>,
    lat_ms: Vec<f64>,
    wall_s: f64,
}

/// Run requests from the stream back to back until `budget` has passed.
fn closed_loop(
    setup: &Setup,
    budget: Duration,
    mut run: impl FnMut(u64, &Database, &Combo) -> Result<Ranked, String>,
) -> Pass {
    let mut results = Vec::new();
    let mut lat_ms = Vec::new();
    let t0 = Instant::now();
    for (i, &ci) in setup.stream.iter().enumerate() {
        if t0.elapsed() >= budget {
            break;
        }
        let c = &setup.combos[ci];
        let t = Instant::now();
        let r = run(i as u64, &setup.dbs[c.db], c);
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        results.push((ci, r));
    }
    Pass {
        results,
        lat_ms,
        wall_s: secs(t0),
    }
}

pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool) -> Report {
    let mut rep = Report::default();
    let threads = kind.threads();
    rep.env_num("engine_threads", threads);

    // Set-up, `SETUP_REPS` times: generate, encode, warm up (one request
    // per combo). The median is `setup_s`.
    let (mut gen_s, mut enc_s) = (0.0, 0.0);
    let (setup_s, setup) = median_timed(SETUP_REPS, || {
        let s = generate(kind, seed, &mut gen_s);
        encode_all(&s, &mut enc_s);
        for c in &s.combos {
            let _ = plain(&s.dbs[c.db], c);
        }
        s
    });
    rep.metric("setup_s", setup_s);
    rep.metric("workload.generate_s", gen_s / SETUP_REPS as f64);
    rep.metric("storage.encode.setup_s", enc_s / SETUP_REPS as f64);
    let sizes: Vec<String> = setup
        .dbs
        .iter()
        .map(|db| {
            let rels: Vec<String> = db
                .relations()
                .map(|(_, r)| format!("{}:{}", r.name(), r.len()))
                .collect();
            rels.join(" ")
        })
        .collect();
    rep.env_str("sizes", &sizes.join("; "));

    let budget = Duration::from_secs(seconds);
    if !trace {
        let pass = closed_loop(&setup, budget, |_, db, c| plain(db, c));
        rep.metric("throughput_qps", pass.results.len() as f64 / pass.wall_s);
        rep.metric("latency_p50_ms", median(&pass.lat_ms));
        rep.metric("latency_tail_ms", tail_mean(&pass.lat_ms, 0.05));
        rep.env_num("latency_samples", pass.lat_ms.len());
        rep.env_str("latency_tail", "mean of the slowest 5 % of requests");
        per_combo_log(&setup, &pass);
        // Checks, outside the timed region. The staged pipeline must agree
        // with the driver bit for bit.
        check_pass(kind, &setup, &pass, &mut rep);
        let mut off = Tracer::new(false, Instant::now());
        for c in &setup.combos {
            let db = &setup.dbs[c.db];
            let same = same_answers(&plain(db, c), &staged(&mut off, db, c));
            rep.check(same, || {
                format!("{}: staged layers differ from the driver", c.label)
            });
        }
        return rep;
    }

    // Traced: every request twice, back to back, through the driver and
    // then through the staged layers inside spans. Interleaving the two
    // keeps machine drift out of `trace.overhead_frac`.
    let mut tracer = Tracer::new(true, Instant::now());
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut differ = Vec::new();
    let pass = closed_loop(&setup, budget, |i, db, c| {
        let t = Instant::now();
        let a = plain(db, c);
        plain_s += secs(t);
        tracer.set_request(i);
        let t = Instant::now();
        let b = tracer.span("request", |t| staged(t, db, c));
        traced_s += secs(t);
        if !same_answers(&a, &b) {
            differ.push(format!(
                "request {i} ({}): traced answers differ from untraced",
                c.label
            ));
        }
        a
    });
    check_pass(kind, &setup, &pass, &mut rep);
    rep.check_failures.extend(differ);
    rep.metric("trace.overhead_frac", traced_s / plain_s - 1.0);
    layer_metrics(&tracer, &mut rep);
    rep.tracer = Some(tracer);
    rep
}

fn same_answers(a: &Result<Ranked, String>, b: &Result<Ranked, String>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => checksum(a) == checksum(b),
        _ => false,
    }
}

/// Per-combo medians on stderr: context for reading the end-to-end mix.
fn per_combo_log(setup: &Setup, pass: &Pass) {
    let mut by: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for ((ci, _), l) in pass.results.iter().zip(&pass.lat_ms) {
        by.entry(*ci).or_default().push(*l);
    }
    for (ci, lats) in by {
        eprintln!(
            "  {:<40} n={:<4} p50={:.3} ms",
            setup.combos[ci].label,
            lats.len(),
            median(&lats)
        );
    }
}

/// Count the pass's requests and failures, and check its answers.
fn check_pass(kind: Kind, setup: &Setup, pass: &Pass, rep: &mut Report) {
    rep.attempted = pass.results.len() as u64;
    rep.failed = pass.results.iter().filter(|(_, r)| r.is_err()).count() as u64;
    // Deterministic: every response to one combo is the same.
    let mut first: BTreeMap<usize, u64> = BTreeMap::new();
    for (ci, r) in &pass.results {
        let Ok(ranked) = r else {
            rep.check(false, || {
                format!("{}: {}", setup.combos[*ci].label, r.as_ref().unwrap_err())
            });
            continue;
        };
        let sum = checksum(ranked);
        let f = *first.entry(*ci).or_insert(sum);
        rep.check(f == sum, || {
            format!(
                "{}: answers differ between requests",
                setup.combos[*ci].label
            )
        });
        rep.check(ranked.iter().all(|(_, s)| (0.0..=1.0).contains(s)), || {
            format!("{}: a score lies outside [0, 1]", setup.combos[*ci].label)
        });
    }
    if kind != Kind::Tpch {
        return;
    }
    // One checked response per combo.
    let mut seen: BTreeMap<usize, &Ranked> = BTreeMap::new();
    for (ci, r) in &pass.results {
        if let Ok(r) = r {
            seen.entry(*ci).or_insert(r);
        }
    }
    for (ci, got) in seen {
        let c = &setup.combos[ci];
        let db = &setup.dbs[c.db];
        let q = parse_query(&c.text).expect("generated query parses");
        match (c.opts.opt, c.opts.top_k) {
            (OptLevel::MultiPlan, Some(k)) => {
                // Top-k equals the first k of exhaustive ranking, bitwise.
                let full = rank_by_dissociation(
                    db,
                    &q,
                    RankOptions {
                        top_k: None,
                        ..c.opts
                    },
                )
                .expect("exhaustive ranking")
                .ranked();
                let want = &full[..k.min(full.len())];
                let same = want.len() == got.len()
                    && want
                        .iter()
                        .zip(got)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
                rep.check(same, || {
                    format!("{}: top-k differs from exhaustive ranking", c.label)
                });
            }
            (OptLevel::Opt123, None) => {
                // Opt123 equals Opt12 within 1e-12 on every answer.
                let o12 = rank_by_dissociation(
                    db,
                    &q,
                    RankOptions {
                        opt: OptLevel::Opt12,
                        ..c.opts
                    },
                )
                .expect("opt12 ranking");
                let close = o12.len() == got.len()
                    && got
                        .iter()
                        .all(|(key, s)| o12.rows.get(key).is_some_and(|t| (t - s).abs() <= 1e-12));
                rep.check(close, || {
                    format!("{}: Opt123 differs from Opt12 by more than 1e-12", c.label)
                });
            }
            _ => {}
        }
    }
}

/// Per-layer metrics from the traced pass. `*.self_ms` is the layer's
/// self time per request (summed over the run, divided by the number of
/// requests); `*.share` is its self time over all requests' time.
fn layer_metrics(t: &Tracer, rep: &mut Report) {
    let st = t.self_times();
    let req_ns: u64 = t
        .spans()
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.dur_ns())
        .sum();
    let nreq = st.get("request").map_or(0, |x| x.1).max(1) as f64;
    let self_ns = |name: &str| st.get(name).map_or(0, |x| x.0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    for (span, self_metric, share_metric) in [
        (
            "engine.exec",
            "engine.exec.self_ms",
            Some("engine.exec.share"),
        ),
        (
            "engine.semijoin",
            "engine.semijoin.self_ms",
            Some("engine.semijoin.share"),
        ),
        ("engine.topk", "engine.topk.self_ms", None),
        ("engine.ranked_top", "engine.ranked_top.self_ms", None),
        (
            "query.parse",
            "query.parse.self_ms",
            Some("query.parse.share"),
        ),
        ("core.schema", "core.schema.self_ms", None),
        (
            "core.enumerate",
            "core.enumerate.self_ms",
            Some("core.enumerate.share"),
        ),
        ("storage.encode", "storage.encode.self_ms", None),
    ] {
        rep.metric(self_metric, self_ns(span) / 1e6 / nreq);
        if let Some(m) = share_metric {
            rep.metric(m, ratio(self_ns(span), req_ns as f64));
        }
    }
    // Semi-join share over only the requests that run it (the Opt123
    // requests of rank-tpch).
    let mut with_sj: BTreeMap<u64, bool> = BTreeMap::new();
    for s in t.spans() {
        if s.name == "engine.semijoin" {
            with_sj.insert(s.req, true);
        }
    }
    let sj_req_ns: u64 = t
        .spans()
        .iter()
        .filter(|s| s.name == "request" && with_sj.contains_key(&s.req))
        .map(|s| s.dur_ns())
        .sum();
    rep.metric(
        "engine.semijoin.opt123_share",
        ratio(self_ns("engine.semijoin"), sj_req_ns as f64),
    );

    let c = |name: &str| t.counter(name);
    rep.metric(
        "engine.exec.answers",
        ratio(c("exec.answers"), c("exec.calls")),
    );
    rep.metric(
        "engine.semijoin.keep_ratio",
        ratio(c("semijoin.tuples_out"), c("semijoin.tuples_in")),
    );
    rep.metric(
        "engine.topk.prune_ratio",
        ratio(c("topk.pruned"), c("topk.pruned") + c("topk.evaluated")),
    );
    rep.metric(
        "engine.topk.fallback_nodes",
        ratio(c("topk.fallback_nodes"), c("topk.calls")),
    );
    rep.metric("engine.pool.scopes", c("pool.scopes") / nreq);
    rep.metric("engine.pool.tasks", c("pool.tasks") / nreq);
    rep.metric("engine.pool.inline", c("pool.inline") / nreq);
    rep.metric(
        "core.plans",
        ratio(c("enumerate.plans"), c("enumerate.calls")),
    );
    rep.metric(
        "core.dag_nodes",
        ratio(c("enumerate.dag_nodes"), c("enumerate.calls")),
    );
}
