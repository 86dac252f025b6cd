//! End-to-end checks of causal flow tracing and critical-path
//! attribution: conservation must hold exactly on real traced runs, the
//! analysis must be bit-identical across same-seed replays, ring
//! overflow must be accounted exactly and refuse analysis with a typed
//! error, and an LL/SC barrier must attribute real cycles to the
//! directory pipeline.

use amo::obs::{
    analyze, CritPathError, RingTracer, Stage, TraceEvent, TraceKind, Tracer, Workload,
};
use amo::prelude::*;

fn traced_barrier(mech: Mechanism, procs: u16, trace_cap: usize) -> BarrierResult {
    run_scenario(
        &BarrierBench {
            episodes: 6,
            warmup: 1,
            ..BarrierBench::paper(mech, procs)
        },
        ObsSpec {
            trace_cap,
            sample_interval: 0,
            hostprof: false,
        },
    )
    .unwrap()
}

#[test]
fn conservation_holds_on_a_real_traced_barrier() {
    for mech in [Mechanism::LlSc, Mechanism::Amo] {
        let r = traced_barrier(mech, 32, 1 << 20);
        let buf = r.obs.trace.as_ref().expect("trace requested");
        assert_eq!(buf.dropped, 0);
        let rep = analyze(buf, Workload::Barrier).expect("barrier episodes present");
        assert_eq!(rep.episodes.len(), 6, "one path per measured episode");
        for ep in &rep.episodes {
            assert!(
                ep.conserved(),
                "{mech:?} {}: stages {:?} != total {}",
                ep.label,
                ep.stages,
                ep.total
            );
        }
        assert!(rep.conserved());
        // The walk must attribute real work, not dump into `Other`.
        let other = rep.totals[Stage::Other.index()];
        assert!(
            other * 10 <= rep.total_cycles,
            "{mech:?}: unattributed share too large: {other}/{}",
            rep.total_cycles
        );
    }
}

#[test]
fn attribution_is_bit_identical_across_same_seed_replays() {
    let a = traced_barrier(Mechanism::LlSc, 32, 1 << 20);
    let b = traced_barrier(Mechanism::LlSc, 32, 1 << 20);
    let ra = analyze(a.obs.trace.as_ref().unwrap(), Workload::Barrier).unwrap();
    let rb = analyze(b.obs.trace.as_ref().unwrap(), Workload::Barrier).unwrap();
    assert_eq!(ra.to_json(), rb.to_json(), "same seed ⇒ same report bytes");
}

#[test]
fn llsc_barrier_attributes_cycles_to_the_directory() {
    // LL/SC spinning is coherence traffic through the home directory;
    // the critical path must show it. (AMO requests bypass the
    // directory pipeline, which is the paper's whole point.)
    let r = traced_barrier(Mechanism::LlSc, 64, 1 << 20);
    let rep = analyze(r.obs.trace.as_ref().unwrap(), Workload::Barrier).unwrap();
    let dir = rep.totals[Stage::DirService.index()];
    assert!(
        dir * 4 >= rep.total_cycles,
        "directory service should dominate an LL/SC barrier: {dir}/{}",
        rep.total_cycles
    );
}

#[test]
fn lock_workload_extracts_handoff_episodes() {
    let r = run_scenario(
        &LockBench {
            rounds: 4,
            ..LockBench::paper(Mechanism::Amo, LockKind::Ticket, 16)
        },
        ObsSpec {
            trace_cap: 1 << 20,
            sample_interval: 0,
            hostprof: false,
        },
    )
    .unwrap();
    let rep = analyze(r.obs.trace.as_ref().unwrap(), Workload::Lock).unwrap();
    assert!(!rep.episodes.is_empty(), "handoffs extracted");
    assert!(rep.conserved());
}

#[test]
fn ring_overflow_accounts_drops_exactly_and_degrades_typed() {
    // A tiny ring on a real run: the tracer keeps the newest `cap`
    // events and counts every overwrite.
    let cap = 256;
    let r = traced_barrier(Mechanism::LlSc, 32, cap);
    let buf = r.obs.trace.as_ref().expect("trace requested");
    assert_eq!(buf.events.len(), cap, "ring keeps exactly its capacity");
    assert!(buf.dropped > 0, "a 32-CPU run overflows a 256-event ring");

    // Drop accounting is exact: recorded = kept + dropped, pinned
    // against an identical run with a ring big enough to hold it all.
    let full = traced_barrier(Mechanism::LlSc, 32, 1 << 20);
    let full_buf = full.obs.trace.as_ref().unwrap();
    assert_eq!(full_buf.dropped, 0);
    assert_eq!(
        buf.events.len() as u64 + buf.dropped,
        full_buf.events.len() as u64,
        "kept + dropped == total recorded"
    );

    // Analysis refuses the holey DAG with a typed error.
    assert_eq!(
        analyze(buf, Workload::Barrier).unwrap_err(),
        CritPathError::IncompleteDag {
            dropped: buf.dropped
        }
    );
}

#[test]
fn overflowed_ring_counts_synthetic_drops_exactly() {
    let mut t = RingTracer::new(8);
    for i in 0..100u64 {
        t.record(TraceEvent::instant(TraceKind::Mark, 0, i).args(i, 0));
    }
    let buf = t.take_buf().unwrap();
    assert_eq!(buf.events.len(), 8);
    assert_eq!(buf.dropped, 92);
    // The kept window is the newest events, in order.
    let kept: Vec<u64> = buf.events.iter().map(|e| e.when).collect();
    assert_eq!(kept, (92..100).collect::<Vec<_>>());
}
