//! Campaign results must not depend on how many pool workers ran them
//! or in which order they started: the same batch — healthy cells of
//! 4, 8 and 16 processors, listed smallest first so the scheduler's
//! largest-machine-first order is not the index order, and an 8-processor
//! cell that aborts on a typed fault — yields byte-identical payloads,
//! the same counters, the same first error and a byte-identical cache
//! directory at 1, 2 and 4 workers, and a warm pass over that directory
//! serves the same payloads. The only test in this binary, so
//! mutating `AMO_SWEEP_THREADS` races with nothing.

use amo_campaign::run::outcome_to_json;
use amo_campaign::{Campaign, ResultCache, RunSpec};
use amo_sync::Mechanism;
use amo_types::SystemConfig;
use amo_workloads::runner::{BarrierBench, LockBench, LockKind};
use std::path::{Path, PathBuf};

fn specs() -> Vec<RunSpec> {
    let barrier = |mech, procs| BarrierBench {
        episodes: 3,
        warmup: 1,
        ..BarrierBench::paper(mech, procs)
    };
    let mut dead_links = SystemConfig::with_procs(8);
    dead_links.faults.link_error_ppm = 1_000_000;
    dead_links.faults.max_link_retries = 1;
    vec![
        RunSpec::Barrier(barrier(Mechanism::Amo, 4)),
        RunSpec::Barrier(BarrierBench {
            config: Some(dead_links),
            ..barrier(Mechanism::Amo, 8)
        }),
        RunSpec::Barrier(barrier(Mechanism::LlSc, 8)),
        RunSpec::Barrier(barrier(Mechanism::LlSc, 16)),
        RunSpec::Lock(LockBench::paper(Mechanism::Amo, LockKind::Ticket, 16)),
    ]
}

/// Every file under `dir`, as (path relative to `dir`, bytes), sorted.
fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(d) = todo.pop() {
        for entry in std::fs::read_dir(&d).expect("readable cache dir") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                todo.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("readable cache entry");
                out.push((path.strip_prefix(dir).unwrap().to_path_buf(), bytes));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn worker_count_changes_neither_payloads_nor_counters_nor_the_first_error() {
    let specs = specs();
    let at = |workers: &str| {
        std::env::set_var("AMO_SWEEP_THREADS", workers);
        let dir = std::env::temp_dir().join(format!(
            "amo-worker-determinism-{}-{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut campaign = Campaign::new(Some(ResultCache::new(&dir)));
        let outcomes = campaign.run(&specs);
        let first_error = outcomes.iter().find_map(|o| o.clone().err());
        let payloads: Vec<String> = outcomes.iter().map(outcome_to_json).collect();
        // Each entry is filed under its own cell's key: a warm pass
        // serves the same payloads from the cache alone.
        let mut warm = Campaign::new(Some(ResultCache::new(&dir)));
        let served: Vec<String> = warm.run(&specs).iter().map(outcome_to_json).collect();
        assert_eq!(served, payloads, "{workers} workers: warm vs cold");
        assert_eq!(warm.counters.cache_hits, specs.len() as u64);
        let cache = files(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        (payloads, campaign.counters, first_error, cache)
    };
    let serial = at("1");
    assert_eq!(serial.1.errors, 1, "exactly the dead-link cell fails");
    assert!(serial.0[1].contains(r#""status":"error""#), "cell 1 fails");
    assert_eq!(serial.1.cache_misses, specs.len() as u64);
    assert_eq!(serial.3.len(), specs.len(), "one cache entry per cell");
    for workers in ["2", "4"] {
        assert_eq!(at(workers), serial, "{workers} workers vs 1");
    }
    std::env::remove_var("AMO_SWEEP_THREADS");
}
