//! What the host says about itself: memory high-water mark, on-CPU time,
//! how fast its clock runs, and the provenance block written with each
//! result.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use serde::Serialize;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), MiB. Each run is a fresh
/// process on one workload, so this is that workload's peak.
pub fn peak_rss_mib() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kib: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Nanoseconds the calling thread has spent on a CPU.
pub fn oncpu_ns() -> Option<u64> {
    let text = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Seconds the clock probe takes on the host the reference times are
/// quoted for (a core at about 4 GHz). Only ratios to it are used.
pub const REFERENCE_PROBE_S: f64 = 3.0e-4;

/// How fast the core's clock runs right now: seconds a fixed chain of
/// dependent multiply-adds takes (about 0.3 ms), the least of three tries.
///
/// This host's cores switch between clock rates 1.3x apart every few
/// seconds (the chain reads 286 or 372 us, little in between), and how much
/// of a run falls in either state differs from run to run; that was the
/// larger part of the run-to-run spread of raw seconds. The chain keeps one
/// multiplier busy one result at a time and touches no memory, so neither a
/// neighbour on the core's other thread nor the caches move it: its time is
/// cycles over clock rate and nothing else. It calls nothing of the program
/// under test, so a change to the program cannot move it either. An earlier
/// reference made of a matrix product and a sort did not work as a
/// denominator: it bent under the same contention as the workloads, by
/// another amount.
pub fn clock_probe_s() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let mut x = black_box(1u64);
        for _ in 0..200_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x ^= x >> 29;
        }
        black_box(x);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

/// The commit `.git/HEAD` names, read without running git. A checkout
/// that is not a repository has none.
fn git_revision(root: &Path) -> Option<String> {
    let head = fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(root.join(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(root.join(".git/packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

/// Enough to reproduce a result without asking.
#[derive(Debug, Clone, Serialize)]
pub struct Provenance {
    pub seed: u64,
    pub git_revision: Option<String>,
    pub rustc: &'static str,
    pub rustflags: &'static str,
    pub cpu_model: Option<String>,
    pub cpu_flags: Option<String>,
    pub nproc: usize,
    pub loadavg_start: String,
    pub loadavg_end: String,
    /// Whether `FLOAT_THREADS` was set (it is cleared at start either
    /// way: it would override the pinned thread count).
    pub float_threads_cleared: bool,
}

impl Provenance {
    pub fn at_start(seed: u64, float_threads_cleared: bool) -> Self {
        Provenance {
            seed,
            git_revision: git_revision(Path::new(".")),
            rustc: env!("FLOATBENCH_RUSTC"),
            rustflags: env!("FLOATBENCH_RUSTFLAGS"),
            cpu_model: proc_field("/proc/cpuinfo", "model name"),
            cpu_flags: proc_field("/proc/cpuinfo", "flags"),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            loadavg_start: loadavg(),
            loadavg_end: String::new(),
            float_threads_cleared,
        }
    }

    pub fn finish(&mut self) {
        self.loadavg_end = loadavg();
    }
}
