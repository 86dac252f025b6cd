//! Dissemination barrier (Hensgen/Finkel/Manber; popularized by
//! Mellor-Crummey & Scott, the paper's reference \[17\]).
//!
//! ⌈log₂ P⌉ rounds; in round `r`, processor `i` notifies processor
//! `(i + 2^r) mod P` and waits for the notification from
//! `(i − 2^r) mod P`. Every processor spins only on its **own** flags
//! (homed on its own node), and there is no hot spot at all — the
//! classic software answer to the centralized barrier's serialization,
//! and a natural extra baseline for the AMO comparison.
//!
//! Flags hold cumulative episode counts (notify episode `e` by bringing
//! the peer's flag for that round to `e`), so no sense reversal or
//! resets are needed. Each flag has exactly one writer, so conventional
//! mechanisms notify with a plain coherent store; AMO notifies with an
//! `amo.fetchadd` whose put lands the count directly in the waiting
//! cache.

use crate::frame::{EpisodeAlgo, EpisodeKernel};
use crate::mechanism::{release, Mechanism, Sub};
use crate::VarAlloc;
use amo_types::{Addr, Cycle, ProcId, SpinPred, Word};

/// Shared description of a dissemination barrier.
#[derive(Clone, Debug)]
pub struct DisseminationSpec {
    /// Mechanism implementing the notifications.
    pub mech: Mechanism,
    /// Participants.
    pub participants: u16,
    /// Episodes to run.
    pub episodes: u32,
    /// `flags[i][r]`: processor `i`'s round-`r` flag, homed on `i`'s
    /// node — local spinning is the algorithm's point.
    pub flags: Vec<Vec<Addr>>,
}

impl DisseminationSpec {
    /// Number of rounds for `participants`.
    pub(crate) fn rounds_for(participants: u16) -> u32 {
        assert!(participants >= 2);
        (participants as f64).log2().ceil() as u32
    }

    /// Allocate the flag matrix.
    pub fn build(
        alloc: &mut VarAlloc,
        mech: Mechanism,
        participants: u16,
        procs_per_node: u16,
        episodes: u32,
    ) -> Self {
        let rounds = Self::rounds_for(participants);
        let flags = (0..participants)
            .map(|p| {
                let node = ProcId(p).node(procs_per_node);
                (0..rounds).map(|_| alloc.word(node)).collect()
            })
            .collect();
        DisseminationSpec {
            mech,
            participants,
            episodes,
            flags,
        }
    }

    /// The peer processor `i` notifies in round `r`.
    pub(crate) fn notify_target(&self, i: u16, r: u32) -> u16 {
        ((i as u32 + (1 << r)) % self.participants as u32) as u16
    }
}

/// The dissemination barrier's algorithm: per round, notify the peer,
/// then wait for the notification.
pub struct Dissemination {
    spec: DisseminationSpec,
    me: u16,
}

/// One participant's dissemination-barrier kernel.
pub type DisseminationKernel = EpisodeKernel<Dissemination>;

impl DisseminationKernel {
    /// Build the kernel for participant `me`.
    pub fn new(spec: DisseminationSpec, me: u16, work: Vec<Cycle>) -> Self {
        assert!((me as usize) < spec.flags.len());
        let episodes = spec.episodes;
        EpisodeKernel::frame(Dissemination { spec, me }, episodes, work)
    }
}

impl EpisodeAlgo for Dissemination {
    /// Step `2r` notifies round `r`'s peer, step `2r + 1` waits for round
    /// `r`'s notification. One writer per flag: conventional mechanisms
    /// store, AMO pushes.
    fn arrive(&mut self, e: u32, step: u32, _: Word) -> Option<Sub> {
        let (s, round) = (&self.spec, step / 2);
        let mine = *s.flags[self.me as usize].get(round as usize)?;
        Some(if step.is_multiple_of(2) {
            let peer = s.notify_target(self.me, round);
            let flag = s.flags[peer as usize][round as usize];
            Sub::once(release(s.mech, flag, e as Word))
        } else {
            Sub::spin(mine, SpinPred::Ge(e as Word))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install::testkit::run_barrier;
    use crate::BarrierAlgo;
    use amo_sim::Machine;

    fn run_dissemination(mech: Mechanism, procs: u16, episodes: u32) -> (Machine, u64) {
        run_barrier(BarrierAlgo::Dissemination, mech, None, procs, episodes)
    }

    #[test]
    fn rounds_formula() {
        assert_eq!(DisseminationSpec::rounds_for(2), 1);
        assert_eq!(DisseminationSpec::rounds_for(4), 2);
        assert_eq!(DisseminationSpec::rounds_for(5), 3);
        assert_eq!(DisseminationSpec::rounds_for(8), 3);
        assert_eq!(DisseminationSpec::rounds_for(256), 8);
    }

    #[test]
    fn notify_partners_wrap() {
        let mut alloc = VarAlloc::new();
        let spec = DisseminationSpec::build(&mut alloc, Mechanism::Atomic, 8, 2, 1);
        assert_eq!(spec.notify_target(0, 0), 1);
        assert_eq!(spec.notify_target(7, 0), 0);
        assert_eq!(spec.notify_target(6, 2), 2);
    }

    #[test]
    fn dissemination_synchronizes_all_mechanisms() {
        for mech in Mechanism::ALL {
            run_dissemination(mech, 8, 3);
        }
    }

    #[test]
    fn works_with_non_power_of_two() {
        run_dissemination(Mechanism::LlSc, 6, 2);
        run_dissemination(Mechanism::Amo, 10, 2);
    }

    #[test]
    fn flags_are_home_placed() {
        let mut alloc = VarAlloc::new();
        let spec = DisseminationSpec::build(&mut alloc, Mechanism::LlSc, 8, 2, 1);
        for p in 0..8u16 {
            for f in &spec.flags[p as usize] {
                assert_eq!(f.home(), ProcId(p).node(2));
            }
        }
    }

    #[test]
    fn beats_centralized_llsc_at_scale() {
        let (_, diss) = run_dissemination(Mechanism::LlSc, 32, 4);
        let (_, central) = run_barrier(BarrierAlgo::Central, Mechanism::LlSc, None, 32, 4);
        assert!(
            diss < central,
            "dissemination {diss} should beat centralized LL/SC {central} at 32 CPUs"
        );
    }
}
