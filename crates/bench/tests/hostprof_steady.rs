//! The runtime checks behind two allocation claims, with
//! [`amo_obs::CountingAlloc`] installed as this test binary's global
//! allocator: a warmed-up run's dispatch scopes report zero allocations
//! — the event queue's node arena is reserved for the machine's
//! pending-event bound when it is built, effect buffers are pooled, and
//! L1 fills are tag-only — and building a machine does not allocate per
//! cache set. (The queue's own bound is `amo-engine`'s
//! `tests/allocations.rs`: a third test here would have the harness
//! start its thread while another test counts.)

use amo_bench::hostprof::{profile_steady, ProfiledRun};
use amo_obs::{
    alloc_counters, hostprof_json, validate_hostprof, CountingAlloc, HostProfSection, HostProfiler,
    NopTracer,
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
