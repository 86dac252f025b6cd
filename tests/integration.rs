//! Cross-crate integration tests: whole-machine behaviours that the
//! paper's claims rest on.

use amo::prelude::*;
use amo::workloads::runner::best_tree_barrier;

fn paper_barrier(mech: Mechanism, procs: u16) -> BarrierResult {
    run_barrier(BarrierBench {
        episodes: 6,
        warmup: 2,
        ..BarrierBench::paper(mech, procs)
    })
}

#[test]
fn barrier_mechanism_ordering_at_16_procs() {
    // Paper Table 2 ordering at 16 CPUs: AMO > MAO > ActMsg > Atomic > LL/SC
    // (all mechanisms beat the baseline).
    let llsc = paper_barrier(Mechanism::LlSc, 16).timing.avg_cycles;
    let atomic = paper_barrier(Mechanism::Atomic, 16).timing.avg_cycles;
    let actmsg = paper_barrier(Mechanism::ActMsg, 16).timing.avg_cycles;
    let mao = paper_barrier(Mechanism::Mao, 16).timing.avg_cycles;
    let amo = paper_barrier(Mechanism::Amo, 16).timing.avg_cycles;
    assert!(amo < mao, "AMO {amo} vs MAO {mao}");
    assert!(mao < atomic, "MAO {mao} vs Atomic {atomic}");
    assert!(atomic < llsc, "Atomic {atomic} vs LL/SC {llsc}");
    assert!(actmsg < llsc, "ActMsg {actmsg} vs LL/SC {llsc}");
}

#[test]
fn amo_barrier_speedup_grows_with_machine_size() {
    // Paper Table 2: the AMO speedup grows monotonically from 4 to 256.
    let mut last = 0.0;
    for procs in [4u16, 16, 64] {
        let llsc = paper_barrier(Mechanism::LlSc, procs).timing.avg_cycles;
        let amo = paper_barrier(Mechanism::Amo, procs).timing.avg_cycles;
        let speedup = llsc / amo;
        assert!(
            speedup > last,
            "speedup should grow with size: {speedup} at {procs} procs after {last}"
        );
        last = speedup;
    }
    assert!(
        last > 4.0,
        "AMO speedup at 64 procs should be large: {last}"
    );
}

#[test]
fn amo_cycles_per_proc_roughly_flat() {
    // Paper Figure 5: AMO's per-processor barrier time is ~constant.
    let small = paper_barrier(Mechanism::Amo, 8).timing.cycles_per_proc;
    let large = paper_barrier(Mechanism::Amo, 64).timing.cycles_per_proc;
    assert!(
        large < small * 2.0,
        "AMO cycles/proc should stay flat-ish: {small} -> {large}"
    );
    // While LL/SC's grows with the machine (the paper's grows
    // superlinearly; our contention model is milder but the direction
    // must hold).
    let lsmall = paper_barrier(Mechanism::LlSc, 8).timing.cycles_per_proc;
    let llarge = paper_barrier(Mechanism::LlSc, 64).timing.cycles_per_proc;
    assert!(
        llarge > lsmall * 1.2,
        "LL/SC cycles/proc should grow: {lsmall} -> {llarge}"
    );
}

#[test]
fn trees_help_conventional_barriers_but_not_amo() {
    // Paper Sec. 4.2.2: trees speed up LL/SC dramatically, but flat AMO
    // beats AMO+tree.
    let base = BarrierBench {
        episodes: 6,
        warmup: 2,
        ..BarrierBench::paper(Mechanism::LlSc, 32)
    };
    let flat_llsc = run_barrier(base).timing.avg_cycles;
    let (_, tree_llsc) = best_tree_barrier(base);
    assert!(
        tree_llsc.timing.avg_cycles < flat_llsc,
        "LL/SC tree {} should beat flat {}",
        tree_llsc.timing.avg_cycles,
        flat_llsc
    );

    let amo_base = BarrierBench {
        episodes: 6,
        warmup: 2,
        ..BarrierBench::paper(Mechanism::Amo, 32)
    };
    let flat_amo = run_barrier(amo_base).timing.avg_cycles;
    let (_, tree_amo) = best_tree_barrier(amo_base);
    assert!(
        flat_amo < tree_amo.timing.avg_cycles,
        "flat AMO {} should beat AMO+tree {}",
        flat_amo,
        tree_amo.timing.avg_cycles
    );
}

#[test]
fn amo_locks_beat_conventional_and_equalize_ticket_and_array() {
    let mk = |mech, kind| LockBench {
        rounds: 6,
        ..LockBench::paper(mech, kind, 16)
    };
    let llsc_t = run_lock(mk(Mechanism::LlSc, LockKind::Ticket))
        .timing
        .total_cycles as f64;
    let amo_t = run_lock(mk(Mechanism::Amo, LockKind::Ticket))
        .timing
        .total_cycles as f64;
    let amo_a = run_lock(mk(Mechanism::Amo, LockKind::Array))
        .timing
        .total_cycles as f64;
    assert!(
        amo_t < llsc_t,
        "AMO ticket {amo_t} must beat LL/SC ticket {llsc_t}"
    );
    // Paper: "with AMOs ... the difference between ticket lock and array
    // lock [is] negligible".
    let ratio = amo_t.max(amo_a) / amo_t.min(amo_a);
    assert!(
        ratio < 1.5,
        "AMO ticket vs array should be close: {amo_t} vs {amo_a}"
    );
}

#[test]
fn amo_lock_traffic_is_fraction_of_llsc() {
    // Paper Figure 7 shape.
    let mk = |mech| LockBench {
        rounds: 6,
        ..LockBench::paper(mech, LockKind::Ticket, 16)
    };
    let llsc = run_lock(mk(Mechanism::LlSc)).stats.total_bytes();
    let amo = run_lock(mk(Mechanism::Amo)).stats.total_bytes();
    assert!(
        (amo as f64) < 0.7 * llsc as f64,
        "AMO bytes {amo} should be well below LL/SC {llsc}"
    );
}

#[test]
fn exclusion_checker_holds_under_contention_at_32_procs() {
    // run_lock panics internally if the in-simulation checker observes a
    // violation; exercise it at a size with real contention.
    for kind in [LockKind::Ticket, LockKind::Array] {
        for mech in Mechanism::ALL {
            let r = run_lock(LockBench {
                rounds: 3,
                ..LockBench::paper(mech, kind, 32)
            });
            assert_eq!(r.timing.acquisitions, 32 * 3);
        }
    }
}

#[test]
fn deterministic_end_to_end() {
    let mk = || {
        let r = paper_barrier(Mechanism::ActMsg, 8);
        (
            r.timing.per_episode.clone(),
            r.stats.total_msgs(),
            r.stats.byte_hops,
        )
    };
    assert_eq!(mk(), mk());
}

#[test]
fn dissemination_is_the_best_conventional_barrier() {
    // At 32 CPUs the dissemination barrier beats both the centralized
    // LL/SC barrier and its best combining tree (the MCS paper's
    // classic result) — and still loses to the flat AMO barrier.
    let mk = || BarrierBench {
        episodes: 6,
        warmup: 2,
        ..BarrierBench::paper(Mechanism::LlSc, 32)
    };
    let central = run_barrier(mk()).timing.avg_cycles;
    let dissem = run_barrier(mk().with_dissemination()).timing.avg_cycles;
    let (_, tree) = best_tree_barrier(mk());
    assert!(
        dissem < central,
        "dissemination {dissem} vs central {central}"
    );
    assert!(
        dissem < tree.timing.avg_cycles,
        "dissemination {dissem} vs tree {}",
        tree.timing.avg_cycles
    );
    let amo = run_barrier(BarrierBench {
        episodes: 6,
        warmup: 2,
        ..BarrierBench::paper(Mechanism::Amo, 32)
    })
    .timing
    .avg_cycles;
    assert!(
        amo < dissem,
        "flat AMO {amo} must beat dissemination {dissem}"
    );
}

#[test]
fn deep_amo_trees_do_not_beat_flat_amo() {
    // The paper's future-work question, pinned as a regression test at
    // 64 CPUs: every k-level AMO tree loses to the flat AMO barrier.
    let mk = || BarrierBench {
        episodes: 5,
        warmup: 1,
        ..BarrierBench::paper(Mechanism::Amo, 64)
    };
    let flat = run_barrier(mk()).timing.avg_cycles;
    for b in [2u16, 4, 8] {
        let kt = run_barrier(mk().with_ktree(b)).timing.avg_cycles;
        assert!(flat < kt, "flat {flat} vs ktree(b={b}) {kt}");
    }
}

#[test]
fn mcs_locks_exclude_and_scale_like_array_locks() {
    let mk = |mech, kind| LockBench {
        rounds: 5,
        ..LockBench::paper(mech, kind, 32)
    };
    // Exclusion is checked inside run_lock; compare scaling shape.
    let mcs = run_lock(mk(Mechanism::LlSc, LockKind::Mcs))
        .timing
        .total_cycles as f64;
    let array = run_lock(mk(Mechanism::LlSc, LockKind::Array))
        .timing
        .total_cycles as f64;
    let ratio = mcs.max(array) / mcs.min(array);
    assert!(
        ratio < 1.6,
        "MCS and array should be in the same regime: {mcs} vs {array}"
    );
    // AMO accelerates MCS too.
    let amo_mcs = run_lock(mk(Mechanism::Amo, LockKind::Mcs))
        .timing
        .total_cycles as f64;
    assert!(amo_mcs < mcs, "AMO MCS {amo_mcs} vs LL/SC MCS {mcs}");
}
