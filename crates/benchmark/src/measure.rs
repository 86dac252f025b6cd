//! Clocks, memory readings and the order statistics every timed metric
//! goes through.
//!
//! Host time on a shared sandbox is one-sided noise: a rep is never
//! faster than the code allows, only slower when the host is busy. So a
//! run reports the *floor* (fastest rep) of its timed section, and the
//! suite reports how tightly the fastest reps agree
//! ([`Floor::floor_spread`]) instead of pretending a median is stable.

use std::time::Instant;

/// Process CPU time (user + system, all threads, exited ones included)
/// in nanoseconds.
///
/// `/proc/self/stat` only counts 10 ms ticks — too coarse for a 1 s
/// section — so this asks the kernel's `CLOCK_PROCESS_CPUTIME_ID`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the libc symbol std already links; it
    // writes one `timespec` (two 64-bit fields on 64-bit Linux, matched
    // by `Timespec`) through the valid, exclusive pointer and keeps
    // nothing.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Fallback for hosts without the Linux clock: wall time since the
/// first call, so `cpu_s` degrades to `wall_s` instead of failing the
/// build. The benchmark's numbers are only meaningful on Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_ns() -> u64 {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one timed section cost the host.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Section {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
}

impl Section {
    /// The sum of consecutive sections.
    pub fn total(parts: &[Section]) -> Section {
        Section {
            wall_s: parts.iter().map(|p| p.wall_s).sum(),
            cpu_s: parts.iter().map(|p| p.cpu_s).sum(),
        }
    }
}

/// Run `f` as a timed section.
pub fn section<T>(f: impl FnOnce() -> T) -> (T, Section) {
    let cpu0 = cpu_ns();
    let t0 = Instant::now();
    let value = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (cpu_ns() - cpu0) as f64 * 1e-9;
    (value, Section { wall_s, cpu_s })
}

/// Fastest of `reps` timings of `f`, in nanoseconds per `per` units of
/// work — the layer drivers' estimator. What `f` returns is dropped
/// outside the timing.
pub fn floor_ns_per<T>(reps: usize, per: u64, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let value = f();
        best = best.min(t0.elapsed().as_nanos() as f64);
        drop(std::hint::black_box(value));
    }
    best / per.max(1) as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value a tenth of the way up the sorted `values` (0 for an empty
/// slice; the smallest of fewer than eleven). `setup_s` of a run: host
/// slow-downs come in phases longer than a set-up, so the samples of a
/// run are a mix of two modes a third apart, and the median lands on
/// whichever mode held the larger share — measured on `verify_matrix`,
/// ten runs' medians read 6.5–8.7 µs, ten runs' low deciles 6.55–6.87 µs.
pub fn low_decile(values: &[f64]) -> f64 {
    let v = sorted(values);
    v.get(v.len().saturating_sub(1) / 10)
        .copied()
        .unwrap_or(0.0)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them,
/// so the spreads printed here are the ones the acceptance check
/// computes. Needs two values; fewer yield the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// Floor spread below which a timed metric counts as resolved.
pub const RESOLVED_SPREAD: f64 = 0.03;

/// The floor estimate of one timed metric over interleaved reps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Floor {
    /// Fastest rep — the reported value.
    pub value: f64,
    /// Median over reps.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Reps.
    pub n: usize,
    /// `kth`-fastest / fastest − 1: how well the fast reps agree.
    pub floor_spread: f64,
    /// True when at least `kth` reps exist and `floor_spread` is within
    /// [`RESOLVED_SPREAD`]; a metric that is not resolved must not be
    /// quoted as stable.
    pub resolved: bool,
}

impl Floor {
    /// Estimate from `values` (lower is better), comparing the fastest
    /// against the `kth`-fastest rep (3 for short workloads, 2 for
    /// `paper_cold`).
    pub fn of(values: &[f64], kth: usize) -> Floor {
        let v = sorted(values);
        let (q1, q3) = quartiles(values);
        let value = v.first().copied().unwrap_or(0.0);
        let have_kth = kth >= 1 && v.len() >= kth;
        let floor_spread = if have_kth && value > 0.0 {
            v[kth - 1] / value - 1.0
        } else {
            f64::INFINITY
        };
        Floor {
            value,
            median: median(values),
            q1,
            q3,
            n: v.len(),
            floor_spread,
            resolved: have_kth && floor_spread <= RESOLVED_SPREAD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(iqr_share(&v), 1.0);
    }

    #[test]
    fn low_decile_is_a_tenth_of_the_way_up() {
        let v: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(low_decile(&v), 10.0);
        assert_eq!(low_decile(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(low_decile(&[]), 0.0);
    }

    #[test]
    fn floor_takes_the_fastest_and_compares_the_kth() {
        let f = Floor::of(&[1.30, 1.00, 1.02, 1.25, 1.01], 3);
        assert_eq!(f.value, 1.00);
        assert_eq!(f.n, 5);
        assert!((f.floor_spread - 0.02).abs() < 1e-12);
        assert!(f.resolved);
        assert_eq!(f.median, 1.02);
    }

    #[test]
    fn unresolved_when_fast_reps_disagree_or_are_too_few() {
        let wide = Floor::of(&[1.00, 1.10, 1.20, 1.30], 3);
        assert!((wide.floor_spread - 0.20).abs() < 1e-12);
        assert!(!wide.resolved);
        let few = Floor::of(&[1.00, 1.001], 3);
        assert!(
            !few.resolved,
            "two reps cannot resolve a 3rd-fastest spread"
        );
        assert!(few.floor_spread.is_infinite());
        let pair = Floor::of(&[7.0, 7.1], 2);
        assert!(pair.resolved, "paper_cold compares the 2nd-fastest");
    }

    #[test]
    fn section_reads_move_forward() {
        let (v, s) = section(|| (0..200_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(v > 0);
        assert!(s.wall_s > 0.0);
        assert!(s.cpu_s >= 0.0);
    }
}
