//! Centralized barriers (paper Fig. 3).
//!
//! All styles use a *cumulative* count: episode `e` completes when the
//! counter reaches `e × P`, so the counter never needs a racy reset and
//! the AMO test value is simply that target.
//!
//! * [`BarrierStyle::Naive`] — Fig. 3(a): spin directly on the barrier
//!   variable. Efficient only with AMOs (word updates wake the
//!   spinners); with conventional mechanisms the spinners' reloads fight
//!   the increments.
//! * [`BarrierStyle::SpinVariable`] — Fig. 3(b): the last arriver
//!   releases a separate spin variable, eliminating false sharing
//!   between spins and increments at the cost of one more write. This is
//!   the paper's "highly optimized conventional barrier" baseline.
//!
//! Per mechanism, the default style follows the paper: AMO uses the
//! naive coding (Fig. 3(c)); everything else uses the spin variable.

use crate::frame::{EpisodeAlgo, EpisodeKernel};
use crate::layout::cumulative_target;
use crate::mechanism::{release, Mechanism, Sub};
use crate::VarAlloc;
use amo_types::{Addr, Cycle, NodeId, Publish, SpinPred, Word};

/// Which word the processors spin on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BarrierStyle {
    /// Spin on the barrier counter itself (Fig. 3(a)/(c)).
    Naive,
    /// Last arriver releases a separate spin variable (Fig. 3(b)).
    SpinVariable,
    /// Ablation of the delayed update (Sec. 4.2.1): like `Naive`, but an
    /// AMO barrier pushes a word update after *every* increment
    /// (`amo.fetchadd` without a test value) instead of only at the
    /// target count. Quantifies what the test-value mechanism buys.
    /// Non-AMO mechanisms treat this exactly like `Naive`.
    EagerUpdates,
}

/// Shared description of one centralized barrier.
#[derive(Clone, Copy, Debug)]
pub struct BarrierSpec {
    /// Mechanism implementing the atomic increment.
    pub mech: Mechanism,
    /// Spin placement.
    pub style: BarrierStyle,
    /// Number of participating processors (0..P take part).
    pub participants: u16,
    /// Barrier episodes each participant executes.
    pub episodes: u32,
    /// The barrier counter (uncached for MAO).
    pub counter: Addr,
    /// The separate spin variable (used by `SpinVariable` style).
    pub spin: Addr,
    /// Active-message service counter id at the home processor.
    pub ctr_id: u16,
}

impl BarrierSpec {
    /// Allocate a barrier homed on `home`, with the paper's default
    /// style for the mechanism.
    pub fn build(
        alloc: &mut VarAlloc,
        mech: Mechanism,
        home: NodeId,
        participants: u16,
        episodes: u32,
    ) -> Self {
        let style = match mech {
            Mechanism::Amo => BarrierStyle::Naive,
            _ => BarrierStyle::SpinVariable,
        };
        Self::build_styled(alloc, mech, style, home, participants, episodes)
    }

    /// Allocate a barrier with an explicit style (ablations).
    pub(crate) fn build_styled(
        alloc: &mut VarAlloc,
        mech: Mechanism,
        style: BarrierStyle,
        home: NodeId,
        participants: u16,
        episodes: u32,
    ) -> Self {
        BarrierSpec {
            mech,
            style,
            participants,
            episodes,
            counter: alloc.counter_for(mech, home),
            spin: alloc.word(home),
            ctr_id: alloc.ctr(home),
        }
    }

    /// Mark id recorded when a processor enters episode `e` (1-based).
    pub fn enter_mark(e: u32) -> u32 {
        e * 2
    }

    /// Mark id recorded when a processor exits episode `e`.
    pub fn exit_mark(e: u32) -> u32 {
        e * 2 + 1
    }
}

/// The centralized barrier's algorithm: count the arrival, then wait
/// for the release — or, last to arrive, give it.
pub struct CentralBarrier {
    spec: BarrierSpec,
}

/// One participant's barrier kernel.
///
/// ```
/// use amo_sim::Machine;
/// use amo_sync::{BarrierKernel, BarrierSpec, Mechanism, VarAlloc};
/// use amo_types::{NodeId, ProcId, SystemConfig};
///
/// let mut machine = Machine::new(SystemConfig::with_procs(4));
/// let mut alloc = VarAlloc::new();
/// let spec = BarrierSpec::build(&mut alloc, Mechanism::Amo, NodeId(0), 4, 2);
/// for p in 0..4 {
///     let work = vec![100 * (p as u64 + 1); 2]; // per-episode skew
///     machine.install_kernel(ProcId(p), Box::new(BarrierKernel::new(spec, work)), 0);
/// }
/// assert!(machine.run(10_000_000).all_finished);
/// assert_eq!(machine.stats().puts, 2, "one delayed put per episode");
/// ```
pub type BarrierKernel = EpisodeKernel<CentralBarrier>;

impl BarrierKernel {
    /// Build the kernel for one participant. `work[i]` is the local
    /// computation time before episode `i+1`.
    pub fn new(spec: BarrierSpec, work: Vec<Cycle>) -> Self {
        EpisodeKernel::frame(CentralBarrier { spec }, spec.episodes, work)
    }
}

impl CentralBarrier {
    fn increment(&self, e: u32) -> Sub {
        let s = &self.spec;
        let target = cumulative_target(e, s.participants);
        let fa = Sub::fetch_inc(s.mech, s.counter, s.ctr_id);
        match (s.mech, s.style) {
            // The AMO barrier's delayed put fires at the target count.
            (Mechanism::Amo, BarrierStyle::Naive) => fa.amo_inc(Some(target)),
            // The active-message handler publishes the release when the
            // count reaches the target.
            (Mechanism::ActMsg, _) => fa.publishing(Publish {
                addr: s.spin,
                when_count: target,
                value: e as Word,
            }),
            // Eager ablation: `amo.fetchadd` without a test value puts
            // after every increment. An AMO driving a separate spin
            // variable doesn't test either; its release pushes instead.
            _ => fa,
        }
    }

    fn after_increment(&self, e: u32, old: Word) -> Sub {
        let s = &self.spec;
        let target = cumulative_target(e, s.participants);
        let release_val = e as Word;
        let wait = Sub::spin(s.spin, SpinPred::Ge(release_val));
        // An active-message "counter" is a service counter at the home
        // processor, not a coherent word: the handler publishes the
        // release and everyone (the last arriver too) spins on the spin
        // variable, whatever the style.
        if s.mech == Mechanism::ActMsg {
            return wait;
        }
        match s.style {
            // Everyone spins on the counter itself — under MAO uncached,
            // polling its home with backoff.
            BarrierStyle::Naive | BarrierStyle::EagerUpdates if s.mech == Mechanism::Mao => {
                Sub::uncached(s.counter, SpinPred::Ge(target), target)
            }
            BarrierStyle::Naive | BarrierStyle::EagerUpdates => {
                Sub::spin(s.counter, SpinPred::Ge(target))
            }
            // The spin variable is always coherent — under MAO this is
            // the paper's "optimized" variant: the MC counts arrivals,
            // the release is an ordinary store.
            BarrierStyle::SpinVariable if old + 1 == target => {
                Sub::once(release(s.mech, s.spin, release_val))
            }
            BarrierStyle::SpinVariable => wait,
        }
    }
}

impl EpisodeAlgo for CentralBarrier {
    fn arrive(&mut self, e: u32, step: u32, ready: Word) -> Option<Sub> {
        match step {
            0 => Some(self.increment(e)),
            1 => Some(self.after_increment(e, ready)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install::testkit;
    use crate::BarrierAlgo;
    use amo_sim::Machine;

    /// The centralized barrier in its default style, through the
    /// installer (which also checks that it synchronized).
    fn run_barrier(mech: Mechanism, procs: u16, episodes: u32) -> (Machine, u64) {
        testkit::run_barrier(BarrierAlgo::Central, mech, None, procs, episodes)
    }

    fn run_styled(mech: Mechanism, style: BarrierStyle, episodes: u32) -> (Machine, u64) {
        testkit::run_barrier(BarrierAlgo::Central, mech, Some(style), 4, episodes)
    }

    #[test]
    fn llsc_barrier_synchronizes() {
        let (m, _) = run_barrier(Mechanism::LlSc, 4, 3);
        assert!(m.stats().ll_issued >= 12);
        assert!(m.stats().sc_successes == 12);
    }

    #[test]
    fn atomic_barrier_synchronizes() {
        let (m, _) = run_barrier(Mechanism::Atomic, 4, 3);
        assert_eq!(m.stats().atomic_ops, 12);
    }

    #[test]
    fn actmsg_barrier_synchronizes() {
        let (m, _) = run_barrier(Mechanism::ActMsg, 4, 3);
        assert_eq!(m.stats().handlers_run, 12);
    }

    #[test]
    fn mao_barrier_synchronizes() {
        let (m, _) = run_barrier(Mechanism::Mao, 4, 3);
        assert_eq!(m.stats().mao_ops, 12);
    }

    #[test]
    fn amo_barrier_synchronizes_with_one_put_per_episode() {
        let (m, _) = run_barrier(Mechanism::Amo, 4, 3);
        assert_eq!(m.stats().amo_ops, 12);
        assert_eq!(m.stats().puts, 3, "one delayed put per episode");
        assert_eq!(
            m.stats().invalidations_sent,
            0,
            "AMO barrier never invalidates"
        );
    }

    #[test]
    fn amo_barrier_is_fastest_at_8_procs() {
        let times: Vec<(Mechanism, u64)> = Mechanism::ALL
            .iter()
            .map(|&mech| (mech, run_barrier(mech, 8, 4).1))
            .collect();
        let amo = times.iter().find(|(m, _)| *m == Mechanism::Amo).unwrap().1;
        for &(mech, t) in &times {
            if mech != Mechanism::Amo {
                assert!(
                    amo < t,
                    "AMO ({amo}) should beat {mech:?} ({t}); all: {times:?}"
                );
            }
        }
    }

    #[test]
    fn every_style_synchronizes_every_mechanism() {
        for style in [
            BarrierStyle::Naive,
            BarrierStyle::SpinVariable,
            BarrierStyle::EagerUpdates,
        ] {
            for mech in Mechanism::ALL {
                run_styled(mech, style, 2);
            }
        }
    }

    #[test]
    fn naive_llsc_barrier_also_works_but_slower() {
        let (_, naive) = run_styled(Mechanism::LlSc, BarrierStyle::Naive, 3);
        let (_, optimized) = run_styled(Mechanism::LlSc, BarrierStyle::SpinVariable, 3);
        // Tiny configs may not show a large gap, but naive must at least
        // not be dramatically faster — it suffers spin/increment
        // interference.
        assert!(
            naive * 2 > optimized,
            "naive {naive} vs optimized {optimized}"
        );
    }
}
