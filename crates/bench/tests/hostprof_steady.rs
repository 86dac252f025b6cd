//! The runtime checks behind two allocation claims, with
//! [`amo_obs::CountingAlloc`] installed as this test binary's global
//! allocator: a warmed-up run's dispatch scopes report zero allocations
//! — the event queue's node arena is reserved for the machine's
//! pending-event bound when it is built, effect buffers are pooled, and
//! L1 fills are tag-only — and building a machine does not allocate per
//! cache set. (The queue's own bound is `amo-engine`'s
//! `tests/allocations.rs`: it has no retry or slack to absorb the
//! harness starting a thread while it counts.)
//!
//! The steady-state profile is taken in two passes over the same
//! machine, because the first run pays one-time container growth (the
//! event queue's node arena, mark sinks, effect pools): a warm-up run
//! that sizes every container, then a reset of the profiler's counters
//! and an identical re-run whose profile is the steady state.

use amo_obs::{
    alloc_counters, hostprof_json, validate_hostprof, CountingAlloc, HostProfReport,
    HostProfSection, HostProfiler, NopTracer,
};
use amo_sim::{Machine, QueueKind};
use amo_sync::{BarrierKernel, BarrierSpec, Mechanism, TicketLockKernel, TicketLockSpec, VarAlloc};
use amo_types::{Cycle, NodeId, ProcId, SystemConfig, Word};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const PROCS: u16 = 64;

/// The allocation counters are process-wide, so the tests that read
/// them take turns.
static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A steady-state profile of one workload.
struct ProfiledRun {
    /// The steady pass's host profile (the warm-up pass is discarded).
    report: HostProfReport,
    /// Simulated events dispatched by the steady pass.
    events: u64,
}

/// Profile one workload's steady state.
///
/// `install` must program the machine for one complete run starting at
/// the given cycle; it is called twice — once at cycle 0 for the
/// warm-up pass and once just past the warm-up's end cycle for the
/// profiled pass — and must install the same work both times.
fn profile_steady(
    cfg: SystemConfig,
    kind: QueueKind,
    max_cycles: Cycle,
    install: impl Fn(&mut Machine<NopTracer, HostProfiler>, Cycle),
) -> ProfiledRun {
    let mut m = Machine::with_parts(cfg, kind, NopTracer, HostProfiler::new());
    install(&mut m, 0);
    let warm = m.run(max_cycles);
    assert!(warm.all_finished, "hostprof warm-up pass must complete");
    m.clear_marks();
    m.profiler_mut().reset();
    install(&mut m, warm.end + 1);
    let res = m.run(max_cycles);
    assert!(res.all_finished, "hostprof steady pass must complete");
    let report = m.take_hostprof().expect("profiler attached");
    ProfiledRun {
        report,
        events: res.events,
    }
}

/// The steady-state profile of `install`'s kernels, taken a second time
/// if dispatch allocated in the first: the counters are process-wide,
/// and libtest's main thread may report the other test meanwhile. A
/// dispatch that allocates does so in both profiles.
fn steady(install: impl Fn(&mut Machine<NopTracer, HostProfiler>, Cycle)) -> ProfiledRun {
    let profile = || {
        profile_steady(
            SystemConfig::with_procs(PROCS),
            QueueKind::Calendar,
            10_000_000_000,
            &install,
        )
    };
    let first = profile();
    let dispatch = first.report.scopes.iter().filter(|s| s.scope.is_dispatch());
    if dispatch.map(|s| s.allocs - s.child_allocs).sum::<u64>() == 0 {
        first
    } else {
        profile()
    }
}

fn barrier(mech: Mechanism) -> ProfiledRun {
    let episodes = 8usize;
    let mut alloc = VarAlloc::new();
    let spec = BarrierSpec::build(&mut alloc, mech, NodeId(0), PROCS, episodes as u32);
    steady(|m, start| {
        for p in 0..PROCS {
            let kernel = BarrierKernel::new(spec, vec![200; episodes]);
            m.install_kernel(ProcId(p), Box::new(kernel), start);
        }
    })
}

/// Every processor fights for one AMO-sequenced lock, which exercises
/// the AMU fetch-add path and the word-update fan-out to 64 spinners.
fn contended_ticket_lock() -> ProfiledRun {
    let rounds = 4u32;
    let mut alloc = VarAlloc::new();
    let spec = TicketLockSpec::build(&mut alloc, Mechanism::Amo, NodeId(0), rounds, 150);
    steady(|m, start| {
        for p in 0..PROCS {
            let think = (0..rounds as u64)
                .map(|r| 100 + (p as Cycle * 41 + r * 17) % 500)
                .collect();
            let kernel = TicketLockKernel::new(spec, think, p as Word + 1, None);
            m.install_kernel(ProcId(p), Box::new(kernel), start);
        }
    })
}

#[test]
fn steady_state_dispatch_allocates_nothing() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let runs = [
        ("llsc_barrier", barrier(Mechanism::LlSc)),
        ("amo_barrier", barrier(Mechanism::Amo)),
        ("amo_ticket_lock", contended_ticket_lock()),
    ];
    let sections: Vec<HostProfSection> = runs
        .iter()
        .map(|(name, run)| HostProfSection {
            name,
            phase: "steady",
            events: run.events,
            report: &run.report,
        })
        .collect();
    let doc = hostprof_json(&[("procs", PROCS.to_string())], &sections);
    let summaries = validate_hostprof(&doc).expect("document must validate");
    assert_eq!(summaries.len(), runs.len());
    for (summary, (name, run)) in summaries.iter().zip(&runs) {
        assert!(
            summary.alloc_tracking,
            "CountingAlloc is installed, so allocation numbers must be real"
        );
        assert_eq!(
            summary.dispatch_self_allocs,
            0,
            "{name}: steady-state dispatch must not touch the allocator:\n{}",
            run.report.self_time_table()
        );
    }
}

#[test]
fn machine_construction_does_not_allocate_per_cache_set() {
    // A 64-processor machine has 64 x (4096 L2 + 512 L1) cache sets and
    // a run fills a handful of them. Eager per-set storage was ~295k
    // allocations here; an empty `Vec` header per set was still 7.5 MB;
    // sets indexed on first touch leave a few hundred allocations and
    // ≈ 1.3 MB. The bounds leave room for whatever the test harness
    // allocates meanwhile.
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (before, before_bytes) = alloc_counters();
    let m = Machine::new(SystemConfig::with_procs(PROCS));
    let (after, after_bytes) = alloc_counters();
    drop(m);
    assert!(
        after - before < 20_000,
        "Machine::new performed {} allocations",
        after - before
    );
    assert!(
        after_bytes - before_bytes < 2 << 20,
        "Machine::new allocated {} bytes",
        after_bytes - before_bytes
    );
}

#[test]
fn steady_profile_covers_the_run_and_reruns_cleanly() {
    // Takes its turn too, so its allocations never land in another
    // test's count.
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let procs: u16 = 8;
    let episodes = 4usize;
    let mut alloc = VarAlloc::new();
    let spec = BarrierSpec::build(
        &mut alloc,
        Mechanism::Amo,
        NodeId(0),
        procs,
        episodes as u32,
    );
    let run = profile_steady(
        SystemConfig::with_procs(procs),
        QueueKind::Calendar,
        1_000_000_000,
        |m, start| {
            for p in 0..procs {
                m.install_kernel(
                    ProcId(p),
                    Box::new(BarrierKernel::new(spec, vec![200; episodes])),
                    start,
                );
            }
        },
    );
    assert!(run.events > 0, "steady pass dispatched events");
    let dispatched: u64 = run
        .report
        .scopes
        .iter()
        .filter(|s| s.scope.is_dispatch())
        .map(|s| s.count)
        .sum();
    assert_eq!(
        dispatched, run.events,
        "every steady event passed through a dispatch scope"
    );
}
