//! Reduce recorded marks into the paper's metrics.

use amo_sync::barrier::BarrierSpec;
use amo_types::{Cycle, ProcId};

/// Timing of a barrier run.
#[derive(Clone, Debug)]
pub struct BarrierMeasurement {
    /// Participants.
    pub procs: u16,
    /// Episodes measured (after warm-up).
    pub measured: u32,
    /// Wall time of each measured episode: from the previous episode's
    /// completion (or this episode's first entry) to this episode's last
    /// exit.
    pub per_episode: Vec<Cycle>,
    /// Average cycles per barrier episode.
    pub avg_cycles: f64,
    /// The paper's Figure 5/6 metric: average episode time divided by
    /// the processor count.
    pub cycles_per_proc: f64,
}

/// Extract barrier timing from marks. The first `warmup` episodes are
/// discarded (cold caches, AMU-cache misses); the remaining episodes are
/// timed back-to-back, the standard consecutive-barriers benchmark.
pub(crate) fn barrier_measurement(
    marks: &[(ProcId, u32, Cycle)],
    procs: u16,
    episodes: u32,
    warmup: u32,
) -> BarrierMeasurement {
    assert!(warmup < episodes, "need at least one measured episode");
    let last_exit = |e: u32| -> Cycle {
        marks
            .iter()
            .filter(|(_, id, _)| *id == BarrierSpec::exit_mark(e))
            .map(|&(_, _, t)| t)
            .max()
            .unwrap_or_else(|| panic!("missing exit marks for episode {e}"))
    };
    let mut per_episode = Vec::with_capacity((episodes - warmup) as usize);
    let mut prev = if warmup == 0 {
        marks
            .iter()
            .filter(|(_, id, _)| *id == BarrierSpec::enter_mark(1))
            .map(|&(_, _, t)| t)
            .min()
            .expect("missing enter marks for episode 1")
    } else {
        last_exit(warmup)
    };
    for e in warmup + 1..=episodes {
        let end = last_exit(e);
        per_episode.push(end - prev);
        prev = end;
    }
    let avg = per_episode.iter().sum::<Cycle>() as f64 / per_episode.len() as f64;
    BarrierMeasurement {
        procs,
        measured: episodes - warmup,
        per_episode,
        avg_cycles: avg,
        cycles_per_proc: avg / procs as f64,
    }
}

impl BarrierMeasurement {}

/// Timing of a lock benchmark run.
#[derive(Clone, Debug)]
pub struct LockMeasurement {
    /// Participants.
    pub procs: u16,
    /// Total acquisitions across all participants.
    pub acquisitions: u64,
    /// Wall time of the whole benchmark.
    pub total_cycles: Cycle,
    /// Average cycles per lock handoff (total / acquisitions).
    pub cycles_per_acquisition: f64,
}

/// Reduce a lock benchmark: wall time from first start to the last
/// release mark.
pub(crate) fn lock_measurement(
    marks: &[(ProcId, u32, Cycle)],
    procs: u16,
    rounds: u32,
) -> LockMeasurement {
    let releases: Vec<Cycle> = marks
        .iter()
        .filter(|(_, id, _)| id % 2 == 1 && *id >= 3)
        .map(|&(_, _, t)| t)
        .collect();
    let acquisitions = procs as u64 * rounds as u64;
    assert_eq!(releases.len() as u64, acquisitions, "missing release marks");
    let first_acquire = marks
        .iter()
        .filter(|(_, id, _)| id % 2 == 0 && *id >= 2)
        .map(|&(_, _, t)| t)
        .min()
        .expect("no acquire marks");
    let end = *releases.iter().max().expect("nonempty");
    let total = end - first_acquire;
    LockMeasurement {
        procs,
        acquisitions,
        total_cycles: total,
        cycles_per_acquisition: total as f64 / acquisitions as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(p: u16, id: u32, t: Cycle) -> (ProcId, u32, Cycle) {
        (ProcId(p), id, t)
    }

    #[test]
    fn barrier_measurement_back_to_back() {
        // 2 procs, 3 episodes, warmup 1.
        let marks = vec![
            mk(0, 2, 0),
            mk(1, 2, 10),
            mk(0, 3, 100),
            mk(1, 3, 110), // episode 1 ends at 110
            mk(0, 4, 120),
            mk(1, 4, 130),
            mk(0, 5, 200),
            mk(1, 5, 210), // episode 2 ends at 210
            mk(0, 6, 220),
            mk(1, 6, 230),
            mk(0, 7, 300),
            mk(1, 7, 290), // episode 3 ends at 300
        ];
        let m = barrier_measurement(&marks, 2, 3, 1);
        assert_eq!(m.per_episode, vec![100, 90]);
        assert!((m.avg_cycles - 95.0).abs() < 1e-9);
        assert!((m.cycles_per_proc - 47.5).abs() < 1e-9);
    }

    #[test]
    fn barrier_measurement_no_warmup_uses_first_enter() {
        let marks = vec![mk(0, 2, 50), mk(1, 2, 60), mk(0, 3, 150), mk(1, 3, 160)];
        let m = barrier_measurement(&marks, 2, 1, 0);
        assert_eq!(m.per_episode, vec![110]);
    }

    #[test]
    fn lock_measurement_counts_all_rounds() {
        // 2 procs × 2 rounds. acquire marks 2r, release 2r+1.
        let marks = vec![
            mk(0, 2, 100),
            mk(0, 3, 150),
            mk(1, 2, 160),
            mk(1, 3, 200),
            mk(0, 4, 210),
            mk(0, 5, 250),
            mk(1, 4, 260),
            mk(1, 5, 300),
        ];
        let m = lock_measurement(&marks, 2, 2);
        assert_eq!(m.acquisitions, 4);
        assert_eq!(m.total_cycles, 200);
        assert!((m.cycles_per_acquisition - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "missing release marks")]
    fn lock_measurement_detects_missing_marks() {
        let marks = vec![mk(0, 2, 100), mk(0, 3, 150)];
        lock_measurement(&marks, 2, 2);
    }
}
