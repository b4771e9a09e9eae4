//! Per-kernel element throughput of the key-kernel layer
//! (`lapushdb::engine::kernels`): pack, run detection, gather, galloping
//! advance, and the independent-OR fold, each timed over synthetic
//! columnar batches of n = 10⁴ and 10⁶ rows (10⁵ at `--quick`).
//!
//! `cargo run --release -p lapush-bench --bin fig_kernels [--quick|--full]`
//!
//! The report records exact result values for each kernel (sums/counts
//! over seeded inputs — any drift is correctness, not noise) and a
//! checksum of the fold outputs.

use lapush_bench::report::Metric;
use lapush_bench::{checksum_f64s, print_table, scale, Bench, Scale};
use lapushdb::engine::kernels::{self, Key};
use lapushdb::storage::Vid;

/// Deterministic 64-bit mix (splitmix64 finalizer) — seeded input data,
/// identical on every machine.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

struct Workload {
    /// Four key columns; groups of ~8 rows share a key.
    cols: [Vec<Vid>; 4],
    /// Packed keys of `cols`, sorted (the post-sort state every
    /// consuming kernel sees).
    sorted: Vec<Key>,
    /// Row scores in `[0, 1)`.
    scores: Vec<f64>,
}

fn workload(n: usize) -> Workload {
    let groups = (n / 8).max(1) as u64;
    let c0: Vec<Vid> = (0..n).map(|i| (mix(i as u64) % groups) as Vid).collect();
    let c1: Vec<Vid> = (0..n)
        .map(|i| (mix(i as u64 ^ 0xa5a5) % 16) as Vid)
        .collect();
    let c2: Vec<Vid> = (0..n).map(|i| mix(i as u64 ^ 0x1234) as u32).collect();
    let c3: Vec<Vid> = (0..n).map(|i| mix(i as u64 ^ 0xbeef) as u32).collect();
    let cols = [c0, c1, c2, c3];
    let refs: Vec<&[Vid]> = cols.iter().map(Vec::as_slice).collect();
    let mut sorted = vec![Key { k: 0, row: 0 }; n];
    kernels::pack_keys(&refs[..2], 0, n as u32, &mut sorted);
    sorted.sort_unstable();
    let scores: Vec<f64> = (0..n)
        .map(|i| (mix(i as u64 ^ 0xf00d) % 1_000_000) as f64 / 1_000_000.0)
        .collect();
    Workload {
        cols,
        sorted,
        scores,
    }
}

/// Exact integer fingerprint of a key buffer (wraps mod 2⁵³ so the f64
/// metric value stays lossless).
fn key_sum(keys: &[Key]) -> f64 {
    let mut acc = 0u64;
    for e in keys {
        acc = acc
            .wrapping_mul(31)
            .wrapping_add(e.k as u64 ^ (e.k >> 64) as u64 ^ e.row as u64);
    }
    (acc & ((1 << 53) - 1)) as f64
}

fn main() {
    let mut bench = Bench::new("fig_kernels");
    let sizes: &[usize] = match scale() {
        Scale::Quick => &[10_000, 100_000],
        Scale::Normal | Scale::Full => &[10_000, 1_000_000],
    };
    bench.param(
        "sizes",
        sizes
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(","),
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    for &n in sizes {
        let w = workload(n);
        let refs: Vec<&[Vid]> = w.cols.iter().map(Vec::as_slice).collect();
        let throughput = |ms: f64| format!("{:.1}", n as f64 / 1e3 / ms.max(1e-9));

        // pack: stream four columns into the (u128, u32) key buffer.
        let mut out = vec![Key { k: 0, row: 0 }; n];
        let (pack_ms, _) = min_time(|| kernels::pack_keys(&refs, 0, n as u32, &mut out));
        bench.push(Metric::timing(format!("pack_n{n}"), vec![pack_ms]));
        bench.push(Metric::value(format!("pack_sum_n{n}"), key_sum(&out)));

        // run detection: walk every run boundary of the sorted buffer.
        let mut runs = 0usize;
        let (runs_ms, _) = min_time(|| {
            runs = 0;
            let mut pos = 0;
            while pos < w.sorted.len() {
                pos = kernels::run_end(&w.sorted, pos);
                runs += 1;
            }
        });
        bench.push(Metric::timing(format!("run_detect_n{n}"), vec![runs_ms]));
        bench.push(Metric::value(format!("runs_n{n}"), runs as f64));

        // gather: apply the sort permutation to a payload column.
        let idx: Vec<u32> = w.sorted.iter().map(|e| e.row).collect();
        let mut gathered: Vec<Vid> = Vec::new();
        let (gather_ms, _) = min_time(|| kernels::gather_u32(&w.cols[2], &idx, &mut gathered));
        bench.push(Metric::timing(format!("gather_n{n}"), vec![gather_ms]));
        let gsum = gathered
            .iter()
            .fold(0u64, |a, &v| a.wrapping_mul(31).wrapping_add(v as u64));
        bench.push(Metric::value(
            format!("gather_sum_n{n}"),
            (gsum & ((1 << 53) - 1)) as f64,
        ));

        // gallop: skip to every 17th key from the buffer start.
        let targets: Vec<u128> = w.sorted.iter().step_by(17).map(|e| e.k).collect();
        let mut gpos = 0u64;
        let (gallop_ms, _) = min_time(|| {
            gpos = 0;
            let mut at = 0usize;
            for &t in &targets {
                at = kernels::gallop_ge(&w.sorted, at, t);
                gpos = gpos.wrapping_add(at as u64);
            }
        });
        bench.push(Metric::timing(format!("gallop_n{n}"), vec![gallop_ms]));
        bench.push(Metric::value(format!("gallop_pos_n{n}"), gpos as f64));

        // fold: independent-OR over every run (strict serial association).
        let mut folds: Vec<f64> = Vec::new();
        let (fold_ms, _) = min_time(|| {
            folds.clear();
            let mut pos = 0;
            while pos < w.sorted.len() {
                let end = kernels::run_end(&w.sorted, pos);
                folds.push(kernels::fold_or(&w.scores, &w.sorted[pos..end]));
                pos = end;
            }
        });
        bench.push(Metric::timing(format!("fold_n{n}"), vec![fold_ms]));
        bench.push(
            Metric::value(format!("fold_count_n{n}"), folds.len() as f64)
                .with_checksum(checksum_f64s(&folds)),
        );

        rows.push(vec![
            n.to_string(),
            throughput(pack_ms),
            throughput(runs_ms),
            throughput(gather_ms),
            format!("{:.1}", targets.len() as f64 / 1e3 / gallop_ms.max(1e-9)),
            throughput(fold_ms),
        ]);
    }

    print_table(
        "Kernel throughput (k elems/ms)",
        &["n", "pack", "run_detect", "gather", "gallop", "fold"],
        &rows,
    );
    bench.finish();
}

/// Best-of-3 wall time in milliseconds (plus the closure's last result):
/// kernel microbenchmarks are short, so the minimum is the stable
/// statistic.
fn min_time<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (best, out.expect("ran at least once"))
}
