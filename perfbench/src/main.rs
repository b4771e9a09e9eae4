//! LaPushDB benchmark: end-to-end metrics per workload (untraced), or
//! per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rank-chain-star|rank-tpch|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run environment on one line, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Exits non-zero when an output check fails. See `perfbench/README.md`.

mod rank;
mod report;
mod serve;
mod trace;
mod util;

use report::Report;
use std::time::Instant;
use util::{json_num, json_str};

/// End-to-end metrics (`--trace 0`): every workload reports every one.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`); a layer a workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.exec.self_ms", "ms"),
    ("engine.exec.share", "frac"),
    ("engine.exec.answers", "count"),
    ("engine.semijoin.self_ms", "ms"),
    ("engine.semijoin.share", "frac"),
    ("engine.semijoin.opt123_share", "frac"),
    ("engine.semijoin.keep_ratio", "frac"),
    ("engine.topk.self_ms", "ms"),
    ("engine.topk.prune_ratio", "frac"),
    ("engine.topk.fallback_nodes", "count"),
    ("engine.pool.scopes", "count"),
    ("engine.pool.tasks", "count"),
    ("engine.pool.inline", "count"),
    ("engine.ranked_top.self_ms", "ms"),
    ("query.parse.self_ms", "ms"),
    ("query.parse.share", "frac"),
    ("core.schema.self_ms", "ms"),
    ("core.enumerate.self_ms", "ms"),
    ("core.enumerate.share", "frac"),
    ("core.plans", "count"),
    ("core.dag_nodes", "count"),
    ("storage.encode.self_ms", "ms"),
    ("storage.encode.setup_s", "s"),
    ("workload.generate_s", "s"),
    ("serve.read_p50_ms", "ms"),
    ("serve.ping.p50_ms", "ms"),
    ("serve.query.p50_ms", "ms"),
    ("serve.topk.p50_ms", "ms"),
    ("serve.ingest.p50_ms", "ms"),
    ("serve.max_rps", "1/s"),
    ("serve.answer_cache.hit_ratio", "frac"),
    ("serve.plan_cache.hit_ratio", "frac"),
    ("engine.delta.batches", "count"),
    ("engine.delta.rows", "count"),
    ("engine.delta.fallbacks", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_frac", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let mut rep: Report = match args.workload.as_str() {
        "rank-chain-star" => rank::run(rank::Kind::ChainStar, args.seed, args.seconds, args.trace),
        "rank-tpch" => rank::run(rank::Kind::Tpch, args.seed, args.seconds, args.trace),
        "serve-mix" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (rank-chain-star, rank-tpch, serve-mix)"
            );
            std::process::exit(2);
        }
    };
    if !rep.metrics.contains_key("peak_rss_mb") {
        rep.metric("peak_rss_mb", util::peak_rss_mb());
    }
    rep.check(rep.attempted > 0, || {
        "no operation completed in the timed region".into()
    });
    let failed = rep.failed;
    rep.check(failed == 0, || format!("{failed} operations failed"));

    // The run environment, recorded with every result.
    let (commit, digest) = util::code_identity();
    rep.env_str("workload", &args.workload);
    rep.env_num("seed", args.seed);
    rep.env_num("seconds", args.seconds);
    rep.env_num("trace", u8::from(args.trace));
    rep.env_num(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    rep.env_str("kernels", lapushdb::engine::kernels::active().name());
    rep.env_str("commit", &commit);
    rep.env_str("source_digest", &digest);
    rep.env_num("wall_s", json_num(started.elapsed().as_secs_f64()));
    let env: Vec<String> = rep
        .env
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("env {{{}}}", env.join(", "));

    if let Some(t) = &rep.tracer {
        let path = util::repo_root().join(format!(
            "perfbench/out/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match t.write(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    for f in &rep.check_failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = rep.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    let correct = rep.check_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
