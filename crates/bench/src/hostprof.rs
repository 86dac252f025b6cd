//! Steady-state host profiling of a simulator workload.
//!
//! The interesting hostprof question is "what does the *steady* hot
//! path cost" — not the first run, which pays one-time container
//! growth (the event queue's buffer pool, mark sinks, effect pools). So
//! the harness profiles in two passes over the same machine: a warm-up run
//! that sizes every container, then a reset of the profiler's
//! counters and an identical re-run whose profile is the steady state.
//! With [`amo_obs::CountingAlloc`] installed as the global allocator,
//! the steady pass is where the "dispatch allocates nothing" claim is
//! checked at runtime.

use amo_obs::hostprof::{HostProfReport, HostProfiler};
use amo_obs::NopTracer;
use amo_sim::{Machine, QueueKind};
use amo_types::{Cycle, SystemConfig};

/// A steady-state profile of one workload.
pub struct ProfiledRun {
    /// The steady pass's host profile (the warm-up pass is discarded).
    pub report: HostProfReport,
    /// Simulated events dispatched by the steady pass.
    pub events: u64,
}

/// Profile one workload's steady state.
///
/// `install` must program the machine for one complete run starting at
/// the given cycle; it is called twice — once at cycle 0 for the
/// warm-up pass and once just past the warm-up's end cycle for the
/// profiled pass — and must install the same work both times.
pub fn profile_steady(
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

#[cfg(test)]
mod tests {
    use super::*;
    use amo_sync::{BarrierKernel, BarrierSpec, Mechanism, VarAlloc};
    use amo_types::{NodeId, ProcId};

    #[test]
    fn steady_profile_covers_the_run_and_reruns_cleanly() {
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
}
