//! Machine calibration: a fixed CPU-and-memory kernel that shares no code
//! with the workspace, plus the processor count and load average. A later
//! run whose calibration score moved by as much as its metrics points to
//! drift of the machine, not to a regression of the code.

use std::hint::black_box;
use std::time::Instant;

/// Words in the kernel's working set (32 MiB), well beyond the caches.
const WORDS: usize = 1 << 22;

/// One pass of the kernel over `table`: Sattolo's shuffle, which leaves a
/// single cycle through every word, then a dependent walk along it
/// (memory latency) with integer mixing (CPU). Every pass does the same
/// work.
fn kernel(table: &mut [u64]) -> u64 {
    for (i, w) in table.iter_mut().enumerate() {
        *w = i as u64;
    }
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in (1..WORDS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table.swap(i, (x % i as u64) as usize);
    }
    let mut at = 0usize;
    let mut acc = 0u64;
    for _ in 0..WORDS / 2 {
        at = table[at] as usize;
        acc = acc.wrapping_mul(0x100_0000_01b3) ^ at as u64;
    }
    acc
}

/// Kernel passes per second: the best of three passes over one table,
/// allocated and touched before the clock starts.
pub fn score() -> f64 {
    let mut table = vec![0u64; WORDS];
    let best = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(kernel(black_box(&mut table)));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    1.0 / best
}

/// Logical processors this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The 1, 5 and 15 minute load averages, as the kernel reports them.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
