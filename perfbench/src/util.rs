//! Small helpers shared by the workloads: a seeded RNG, order statistics,
//! checksums, process memory, and the run-environment record.

use lapushdb::storage::Value;
use std::path::Path;
use std::time::Instant;

/// SplitMix64: a tiny seeded generator for the request streams (order,
/// parameters, ingested rows). The databases come from the
/// `lapush_workload` generators.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Derive an independent sub-seed for one input of a workload.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64()
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean of the slowest `frac` of the samples (at least one): a tail
/// statistic that, unlike a single percentile, does not jump when the
/// percentile's rank crosses from one cluster of latencies to the next.
pub fn tail_mean(samples: &[f64], frac: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let k = ((frac * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[..k].iter().sum::<f64>() / k as f64
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Run `f` `reps` times and return the median wall time in seconds with
/// the last result (earlier results are dropped before the next run, so
/// peak memory stays that of one instance).
pub fn median_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(secs(t));
    }
    (median(&times), last.expect("at least one repetition"))
}

/// FNV-1a over a ranked answer list: keys by their text, scores by bits.
pub fn checksum(ranked: &[(Box<[Value]>, f64)]) -> u64 {
    let mut h = Fnv::new();
    for (key, score) in ranked {
        for v in key.iter() {
            h.write(v.to_string().as_bytes());
            h.write(&[0x1f]);
        }
        h.write(&score.to_bits().to_le_bytes());
    }
    h.0
}

pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The repository root this benchmark was built from.
pub fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Identify the code under test: the git commit when the checkout is a
/// repository, plus a digest of every Rust source and manifest of the
/// program (which identifies it also in an exported tree without `.git`).
pub fn code_identity() -> (String, String) {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mut files = Vec::new();
    for dir in ["src", "crates"] {
        collect_sources(&repo_root().join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock"] {
        files.push(repo_root().join(file));
    }
    files.sort();
    let mut h = Fnv::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.write(
                f.strip_prefix(repo_root())
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.write(&bytes);
        }
    }
    (commit, format!("{:016x}", h.0))
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect_sources(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: non-finite values (which JSON lacks) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// CPU affinity of the calling thread (Linux `sched_{get,set}affinity`).
/// The serve workload uses it to keep its load generator off the
/// server's CPUs, so that every request crosses between the same two
/// CPU sets on every run.
pub mod affinity {
    /// Room for 1024 CPUs.
    pub type Mask = [u64; 16];

    #[cfg(target_os = "linux")]
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU set.
    #[cfg(target_os = "linux")]
    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Restrict the calling thread (and threads it spawns later) to `mask`.
    #[cfg(target_os = "linux")]
    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }

    #[cfg(not(target_os = "linux"))]
    pub fn get() -> Option<Mask> {
        None
    }

    #[cfg(not(target_os = "linux"))]
    pub fn set(_: &Mask) -> bool {
        false
    }

    /// Split the calling thread's CPUs into (server, load generator): the
    /// last CPU for the generator, the rest for the server. `None` with
    /// fewer than two CPUs.
    pub fn split() -> Option<(Mask, Mask)> {
        let all = get()?;
        let cpus: Vec<usize> = (0..all.len() * 64)
            .filter(|&c| all[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        if cpus.len() < 2 {
            return None;
        }
        let last = cpus[cpus.len() - 1];
        let mut server = all;
        server[last / 64] &= !(1 << (last % 64));
        let mut generator: Mask = [0; 16];
        generator[last / 64] |= 1 << (last % 64);
        Some((server, generator))
    }
}
