//! Small helpers: the seeded generator, order statistics, host memory,
//! and the metric table printed as the run's last line.

use std::collections::BTreeMap;

/// SplitMix64: a tiny seeded generator. The workloads draw their job
/// lists and request sequences from it, so a seed fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a-64 over a string: the printed fingerprint of a drawn job list.
pub fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least 10 samples beyond it, i.e. the 11th-largest value. Returns
/// `(percentile, value)`; with 10 or fewer samples no percentile has 10
/// beyond it, and the maximum is reported as the 100th percentile.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (100.0, 0.0);
    }
    if n <= 10 {
        return (100.0, v[n - 1]);
    }
    let at = n - 11;
    (100.0 * (at + 1) as f64 / n as f64, v[at])
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Restarts this process's peak-RSS mark (Linux `clear_refs` value 5),
/// so that [`own_peak_rss_mb`] reads the peak of what ran since. Without
/// it the mark would depend on how many rounds the host's speed allowed.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last reset, in MiB.
pub fn own_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
        / 1024.0
}

/// Flushes dirty file data to disk, so a timed server bind does not pay
/// for the writeback of the store and journal files written before it.
#[cfg(target_os = "linux")]
pub fn settle_disk() {
    extern "C" {
        fn sync();
    }
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}

#[cfg(not(target_os = "linux"))]
pub fn settle_disk() {}

/// The largest peak resident set of any reaped child process
/// (served-store's worker processes), in MiB.
pub fn children_peak_rss_mb() -> f64 {
    children_maxrss_kb() / 1024.0
}

#[cfg(target_os = "linux")]
fn children_maxrss_kb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (2 x 16 bytes)
    // followed by 14 longs, of which `ru_maxrss` is the first.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of exactly `sizeof(struct
    // rusage)` (144 bytes) on 64-bit Linux, which is all getrusage writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage[4] as f64
    } else {
        0.0
    }
}

#[cfg(not(target_os = "linux"))]
fn children_maxrss_kb() -> f64 {
    0.0
}

/// Named metrics with units, printed as the run's JSON result.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// Prints one human-readable line per metric.
    pub fn print_table(&self) {
        for (name, (value, unit)) in &self.values {
            println!("  {name:<34} {value:>18.6} {unit}");
        }
    }

    pub fn json(&self) -> String {
        let items: Vec<String> = self
            .values
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}
