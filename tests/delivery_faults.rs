//! End-to-end delivery-fault checks: with messages being dropped,
//! duplicated, and reordered in flight, the hardened protocol (AMU/
//! directory dedup windows + requester-side end-to-end retransmission)
//! must still complete every barrier and hand the lock to every waiter
//! exactly once — and a zero-rate delivery plan must stay bit-identical
//! to the unfaulted engine.

use amo::prelude::*;

fn delivery_cfg(procs: u16, drop: u32, dup: u32, reorder: Cycle, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::with_procs(procs);
    cfg.faults.link_drop_ppm = drop;
    cfg.faults.link_dup_ppm = dup;
    cfg.faults.link_reorder_window = reorder;
    cfg.faults.seed = seed;
    cfg
}

fn bench(procs: u16, cfg: Option<SystemConfig>) -> BarrierBench {
    BarrierBench {
        episodes: 4,
        warmup: 1,
        watchdog: 2_000_000,
        config: cfg,
        ..BarrierBench::paper(Mechanism::Amo, procs)
    }
}

#[test]
fn amo_barrier_64_procs_survives_drops_dups_and_reordering() {
    let cfg = delivery_cfg(64, 20_000, 20_000, 64, 0xD311_FA17);
    let r = run_barrier(bench(64, Some(cfg)));
    let s = &r.stats;
    // All three fault dimensions actually bit...
    assert!(s.msgs_dropped > 0, "2% drop over a 64-proc barrier hits");
    assert!(s.msgs_duplicated > 0, "2% dup over a 64-proc barrier hits");
    assert!(s.msgs_reordered > 0, "reorder window skews messages");
    // ...and recovery did real work: drops were healed by end-to-end
    // retransmission, duplicates eaten by the dedup windows.
    assert!(s.e2e_timeouts > 0, "dropped requests timed out");
    assert!(s.e2e_retransmissions > 0, "timeouts retransmitted");
    assert!(s.dup_suppressed > 0, "duplicates were suppressed");
    // run_barrier already asserts every kernel finished every episode;
    // barrier completion with no lost wakeup is the correctness proof.
    assert!(r.info.all_finished);
}

#[test]
fn ticket_lock_stays_fair_and_exclusive_under_delivery_faults() {
    let cfg = delivery_cfg(32, 15_000, 15_000, 48, 0x10C_FA17);
    let r = run_lock(LockBench {
        watchdog: 2_000_000,
        config: Some(cfg),
        ..LockBench::paper(Mechanism::Amo, LockKind::Ticket, 32)
    });
    // The in-simulation checker verifies mutual exclusion (`run_lock`
    // panics on a violation); a duplicated (double-applied) fetch-add
    // on the ticket counter would skip or double-grant a ticket and
    // deadlock or violate exclusion.
    assert!(r.bench.check_exclusion, "mutual exclusion was checked");
    assert!(r.info.all_finished, "every waiter got the lock");
    assert!(
        r.stats.msgs_dropped > 0 && r.stats.msgs_duplicated > 0,
        "faults actually bit: {} dropped / {} duplicated",
        r.stats.msgs_dropped,
        r.stats.msgs_duplicated
    );
}

#[test]
fn zero_rate_delivery_plan_matches_unfaulted_engine_exactly() {
    // Delivery-fault config fields present (nonzero seed, nonzero e2e
    // budgets) but every rate zero: the hardened paths must stay
    // dormant and the run bit-identical to the plain engine.
    let plain = run_barrier(bench(16, None));
    let mut cfg = SystemConfig::with_procs(16);
    cfg.faults.seed = 0xDEAD_BEEF;
    cfg.faults.e2e_timeout = 20_000;
    cfg.faults.max_e2e_retries = 16;
    cfg.faults.dedup_window = 64;
    let zeroed = run_barrier(bench(16, Some(cfg)));
    assert_eq!(plain.timing.per_episode, zeroed.timing.per_episode);
    assert_eq!(plain.stats.to_json(), zeroed.stats.to_json());
}

#[test]
fn delivery_faulted_runs_replay_bit_identically_from_their_seed() {
    let drive = || {
        let cfg = delivery_cfg(32, 25_000, 10_000, 32, 0x5EED);
        let r = run_barrier(bench(32, Some(cfg)));
        (r.timing.per_episode.clone(), r.stats.to_json())
    };
    assert_eq!(drive(), drive(), "same fault seed must replay exactly");
}

#[test]
fn exhausted_e2e_budget_escalates_to_typed_request_timeout() {
    // Drop rate high enough that some request loses every copy within
    // a tiny retransmission budget: the run must abort with the typed
    // RequestTimedOut, not hang or panic.
    let mut cfg = delivery_cfg(32, 400_000, 0, 0, 0xBAD_D12A);
    cfg.faults.max_e2e_retries = 1;
    cfg.faults.e2e_timeout = 5_000;
    let fail = run_scenario(&bench(32, Some(cfg)), ObsSpec::default())
        .expect_err("40% drop must kill the run");
    let err = fail.error.as_ref().expect("typed error, not a stall");
    assert!(
        matches!(err.kind, SimErrorKind::RequestTimedOut { attempts: 1, .. }),
        "expected RequestTimedOut, got {:?}",
        err.kind
    );
    // The DiagBundle carries the abort diagnostics.
    assert!(!err.bundle.stall_report.is_empty());
    assert!(!err.bundle.queue_depths.is_empty());
}

#[test]
fn fault_abort_with_complete_trace_attaches_critpath_breakdown() {
    // 20% drop with a 1-retry budget: deterministically survives the
    // first episode (so the trace has analyzable episode boundaries)
    // and then aborts with RequestTimedOut.
    let mut cfg = delivery_cfg(32, 200_000, 0, 0, 0xBAD_D12A);
    cfg.faults.max_e2e_retries = 1;
    cfg.faults.e2e_timeout = 5_000;
    let fail = run_scenario(
        &bench(32, Some(cfg)),
        ObsSpec {
            trace_cap: 1 << 22,
            sample_interval: 0,
            hostprof: false,
        },
    )
    .expect_err("20% drop with 1 retry must kill the run");
    let err = fail.error.as_ref().expect("typed error");
    assert!(matches!(err.kind, SimErrorKind::RequestTimedOut { .. }));
    let trace = err.bundle.trace.as_ref().expect("trace requested");
    assert_eq!(trace.dropped, 0, "ring sized to hold the whole run");
    // Complete ring: the critical-path stage breakdown of the failed
    // run is attached to the bundle.
    let cp = err
        .bundle
        .critpath
        .as_ref()
        .expect("complete trace must yield a critpath attribution");
    assert!(cp.contains("critical-path attribution"), "{cp}");
    // An untraced abort of the same run carries no attribution (and no
    // fabricated partial one).
    let fail =
        run_scenario(&bench(32, Some(cfg)), ObsSpec::default()).expect_err("same plan, untraced");
    assert!(fail.error.as_ref().unwrap().bundle.critpath.is_none());
}

mod idempotency {
    use super::*;
    use amo::types::seed::cases;

    /// Idempotency: any duplicated/reordered — but lossless — delivery
    /// schedule, with the dedup windows enabled, yields the same
    /// synchronization outcomes as the clean run: every processor
    /// completes every barrier episode, nothing double-applies.
    #[test]
    fn lossless_dup_reorder_schedules_preserve_barrier_outcomes() {
        for mut rng in cases(
            module_path!(),
            "lossless_dup_reorder_schedules_preserve_barrier_outcomes",
            12,
        ) {
            let procs = [8u16, 16][rng.below(2) as usize];
            let dup_ppm = rng.range(5_000..80_000) as u32;
            let reorder = rng.below(96);
            let seed = rng.range(1..u64::MAX);
            let clean = run_barrier(bench(procs, None));
            let faulted = run_barrier(bench(
                procs,
                Some(delivery_cfg(procs, 0, dup_ppm, reorder, seed)),
            ));
            assert!(faulted.info.all_finished);
            // Same episode structure as the clean run (timing may differ;
            // completion must not).
            assert_eq!(
                clean.timing.per_episode.len(),
                faulted.timing.per_episode.len()
            );
            // A double-applied fetch-add would wedge a later episode or
            // leave dup_suppressed == 0 while duplicates flowed.
            if faulted.stats.msgs_duplicated > 0 {
                assert!(
                    faulted.stats.dup_suppressed > 0 || faulted.stats.e2e_timeouts > 0,
                    "duplicates flowed but nothing absorbed them"
                );
            }
        }
    }

    /// Same property for the ticket lock: mutual exclusion and full
    /// handoff under lossless duplication/reordering.
    #[test]
    fn lossless_dup_reorder_schedules_preserve_lock_outcomes() {
        for mut rng in cases(
            module_path!(),
            "lossless_dup_reorder_schedules_preserve_lock_outcomes",
            12,
        ) {
            let dup_ppm = rng.range(5_000..80_000) as u32;
            let reorder = rng.below(96);
            let seed = rng.range(1..u64::MAX);
            let r = run_lock(LockBench {
                watchdog: 2_000_000,
                config: Some(delivery_cfg(16, 0, dup_ppm, reorder, seed)),
                ..LockBench::paper(Mechanism::Amo, LockKind::Ticket, 16)
            });
            assert!(r.bench.check_exclusion && r.info.all_finished);
        }
    }

    /// Zero-rate delivery config is bit-identical to the unfaulted
    /// engine for any seed: arming the oracle must cost nothing.
    #[test]
    fn zero_rates_are_bit_identical_for_any_seed() {
        for mut rng in cases(
            module_path!(),
            "zero_rates_are_bit_identical_for_any_seed",
            12,
        ) {
            let seed = rng.range(1..u64::MAX);
            let plain = run_barrier(bench(8, None));
            let mut cfg = SystemConfig::with_procs(8);
            cfg.faults.seed = seed;
            let zeroed = run_barrier(bench(8, Some(cfg)));
            assert_eq!(plain.timing.per_episode, zeroed.timing.per_episode);
            assert_eq!(plain.stats.to_json(), zeroed.stats.to_json());
        }
    }
}
