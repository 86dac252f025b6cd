//! Campaign results must not depend on how many pool workers ran them:
//! the same batch — three healthy cells and one that aborts on a typed
//! fault — yields byte-identical payloads, the same counters and the
//! same first error at 1, 2 and 4 workers. The only test in this
//! binary, so mutating `AMO_SWEEP_THREADS` races with nothing.

use amo_campaign::run::outcome_to_json;
use amo_campaign::{Campaign, RunSpec};
use amo_sync::Mechanism;
use amo_types::SystemConfig;
use amo_workloads::runner::{BarrierBench, LockBench, LockKind};

fn specs() -> Vec<RunSpec> {
    let barrier = |mech| BarrierBench {
        episodes: 3,
        warmup: 1,
        ..BarrierBench::paper(mech, 8)
    };
    let mut dead_links = SystemConfig::with_procs(8);
    dead_links.faults.link_error_ppm = 1_000_000;
    dead_links.faults.max_link_retries = 1;
    vec![
        RunSpec::Barrier(barrier(Mechanism::Amo)),
        RunSpec::Barrier(BarrierBench {
            config: Some(dead_links),
            ..barrier(Mechanism::Amo)
        }),
        RunSpec::Barrier(barrier(Mechanism::LlSc)),
        RunSpec::Lock(LockBench::paper(Mechanism::Amo, LockKind::Ticket, 8)),
    ]
}

#[test]
fn worker_count_changes_neither_payloads_nor_counters_nor_the_first_error() {
    let specs = specs();
    let at = |workers: &str| {
        std::env::set_var("AMO_SWEEP_THREADS", workers);
        let mut campaign = Campaign::uncached();
        let outcomes = campaign.run(&specs);
        let first_error = outcomes.iter().find_map(|o| o.clone().err());
        let payloads: Vec<String> = outcomes.iter().map(outcome_to_json).collect();
        (payloads, campaign.counters, first_error)
    };
    let serial = at("1");
    assert_eq!(serial.1.errors, 1, "exactly the dead-link cell fails");
    for workers in ["2", "4"] {
        assert_eq!(at(workers), serial, "{workers} workers vs 1");
    }
    std::env::remove_var("AMO_SWEEP_THREADS");
}
