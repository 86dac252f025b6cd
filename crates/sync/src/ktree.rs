//! Software combining-tree barriers (Yew, Tzeng & Lawrie; paper
//! Sec. 4.2.2), of any depth.
//!
//! Processors are partitioned into groups; the last arriver of each
//! group climbs one level; the last arriver at the root starts a
//! downward release wave, with every climber releasing the groups it
//! climbed out of, top-down. Group counters are spread across home
//! nodes, which is the whole point of the tree — spreading the hot spot.
//! Counts are cumulative per episode as everywhere else in this crate
//! (episode `e` completes a group of size `s` at `e × s`), so no resets
//! are needed.
//!
//! Two shapes are built from the one algorithm. The paper's
//! evaluated configuration (`KTreeSpec::build_two_level`) has groups
//! of `B` leaves under one root of fan-in `⌈P/B⌉`. The generalization
//! the paper leaves as future work — "determining whether or not
//! tree-based AMO barriers can provide extra benefits on very
//! large-scale systems" — is [`KTreeSpec::build`]: a uniform fan-in at
//! every level, as deep as the processor count requires.

use crate::frame::{EpisodeAlgo, EpisodeKernel};
use crate::layout::cumulative_target;
use crate::mechanism::{release, Mechanism, Sub};
use crate::VarAlloc;
use amo_types::{Addr, Cycle, NodeId, SpinPred, Word};
use std::rc::Rc;

/// One group at one level of the tree.
#[derive(Clone, Copy, Debug)]
pub struct KGroup {
    /// Arrival counter (uncached for MAO).
    pub counter: Addr,
    /// Release word the group's members spin on.
    pub release: Addr,
    /// Active-message service counter id.
    pub ctr_id: u16,
    /// Members of this group (processors at level 0, child groups above).
    pub size: u16,
}

/// Shared description of a combining tree.
#[derive(Clone, Debug)]
pub struct KTreeSpec {
    /// Mechanism implementing the increments.
    pub mech: Mechanism,
    /// Participants.
    pub participants: u16,
    /// Episodes to run.
    pub episodes: u32,
    /// `fanins[l]` — the group size at level `l` (the last group of a
    /// level may be smaller).
    pub fanins: Vec<u16>,
    /// `levels[l]` — the groups at level `l`; the last level has one
    /// group (the root).
    pub levels: Vec<Vec<KGroup>>,
}

impl KTreeSpec {
    /// Build a tree of uniform fan-in `branching`, as deep as
    /// `participants` requires; group variables are strided across the
    /// nodes, the root lives on node 0.
    pub fn build(
        alloc: &mut VarAlloc,
        mech: Mechanism,
        participants: u16,
        episodes: u32,
        branching: u16,
        num_nodes: u16,
    ) -> Self {
        let fanins = vec![branching; Self::uniform_depth(participants, branching)];
        let root = fanins.len() - 1;
        Self::with_fanins(alloc, mech, participants, episodes, fanins, |l, g| {
            if l == root {
                NodeId(0)
            } else {
                NodeId((g * 7 + l as u16 * 3) % num_nodes)
            }
        })
    }

    /// Build the paper's two-level tree: groups of `branching` leaves,
    /// homed round-robin across the nodes, under one root on node 0
    /// whose fan-in is the number of groups.
    pub(crate) fn build_two_level(
        alloc: &mut VarAlloc,
        mech: Mechanism,
        participants: u16,
        episodes: u32,
        branching: u16,
        num_nodes: u16,
    ) -> Self {
        let fanins = vec![branching, participants.div_ceil(branching)];
        Self::with_fanins(alloc, mech, participants, episodes, fanins, |l, g| {
            NodeId(if l == 0 { g % num_nodes } else { 0 })
        })
    }

    /// Levels of a uniform tree of fan-in `branching` over
    /// `participants` (what [`build`](Self::build) produces).
    pub fn uniform_depth(participants: u16, branching: u16) -> usize {
        assert!(branching >= 2);
        assert!(participants > 1);
        let (mut depth, mut members) = (1, participants.div_ceil(branching));
        while members > 1 {
            members = members.div_ceil(branching);
            depth += 1;
        }
        depth
    }

    /// Allocate the groups level by level, group by group (the root
    /// last), homing group `g` of level `l` on `home(l, g)`.
    fn with_fanins(
        alloc: &mut VarAlloc,
        mech: Mechanism,
        participants: u16,
        episodes: u32,
        fanins: Vec<u16>,
        home: impl Fn(usize, u16) -> NodeId,
    ) -> Self {
        let mut members = participants;
        let levels = fanins
            .iter()
            .enumerate()
            .map(|(l, &fanin)| {
                let num_groups = members.div_ceil(fanin);
                let level = (0..num_groups)
                    .map(|g| {
                        let home = home(l, g);
                        KGroup {
                            counter: alloc.counter_for(mech, home),
                            release: alloc.word(home),
                            ctr_id: alloc.ctr(home),
                            size: fanin.min(members - g * fanin),
                        }
                    })
                    .collect();
                members = num_groups;
                level
            })
            .collect();
        assert_eq!(members, 1, "the last level is the root");
        KTreeSpec {
            mech,
            participants,
            episodes,
            fanins,
            levels,
        }
    }

    /// Tree depth (number of levels).
    pub(crate) fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The group index of member `m` at level `l` (member = processor at
    /// level 0, child-group index above).
    pub(crate) fn group_at(&self, m: u16, l: usize) -> u16 {
        self.fanins[..=l].iter().fold(m, |m, fanin| m / fanin)
    }
}

/// The combining tree's algorithm: climb while last to arrive, wait
/// where not, and release every group climbed out of on the way down.
pub struct KTree {
    spec: Rc<KTreeSpec>,
    me: u16,
    /// Level being climbed.
    level: usize,
    /// Once the climb is over, the levels below this one are still to be
    /// released, top-down.
    release_below: Option<usize>,
}

/// One participant's tree-barrier kernel.
pub type KTreeKernel = EpisodeKernel<KTree>;

impl KTreeKernel {
    /// Build the kernel for participant `me`. The participants of one
    /// barrier can share one `Rc` of its description.
    pub fn new(spec: impl Into<Rc<KTreeSpec>>, me: u16, work: Vec<Cycle>) -> Self {
        let spec = spec.into();
        let episodes = spec.episodes;
        let algo = KTree {
            spec,
            me,
            level: 0,
            release_below: None,
        };
        EpisodeKernel::frame(algo, episodes, work)
    }
}

impl KTree {
    fn group(&self, l: usize) -> &KGroup {
        &self.spec.levels[l][self.spec.group_at(self.me, l) as usize]
    }
}

impl EpisodeAlgo for KTree {
    fn arrive(&mut self, e: u32, step: u32, ready: Word) -> Option<Sub> {
        if step == 0 {
            (self.level, self.release_below) = (0, None);
        } else if self.release_below.is_none() {
            let g = *self.group(self.level);
            if ready + 1 != cumulative_target(e, g.size) {
                // Not last: wait for this group's release, then release
                // the groups climbed out of.
                self.release_below = Some(self.level);
                return Some(Sub::spin(g.release, SpinPred::Ge(e as Word)));
            }
            if self.level + 1 == self.spec.depth() {
                // Root completion: the downward wave starts at the root.
                self.release_below = Some(self.level + 1);
            } else {
                self.level += 1;
            }
        }
        let Some(below) = self.release_below else {
            let g = self.group(self.level);
            return Some(Sub::fetch_inc(self.spec.mech, g.counter, g.ctr_id));
        };
        // Release words are coherent under every mechanism (MAO's
        // optimized spin-variable discipline).
        let l = below.checked_sub(1)?;
        self.release_below = Some(l);
        let word = self.group(l).release;
        Some(Sub::once(release(self.spec.mech, word, e as Word)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install::testkit::run_barrier;
    use crate::BarrierAlgo::{KTree, Tree};

    #[test]
    fn depth_and_grouping() {
        let mut alloc = VarAlloc::new();
        let spec = KTreeSpec::build(&mut alloc, Mechanism::LlSc, 16, 1, 2, 8);
        // 16 -> 8 -> 4 -> 2 -> 1 groups: 4 levels of grouping.
        assert_eq!(spec.depth(), 4);
        assert_eq!(KTreeSpec::uniform_depth(16, 2), 4);
        assert_eq!(spec.levels[0].len(), 8);
        assert_eq!(spec.levels[3].len(), 1);
        assert_eq!(spec.group_at(5, 0), 2);
        assert_eq!(spec.group_at(5, 1), 1);
        assert_eq!(spec.group_at(5, 2), 0);
    }

    #[test]
    fn uneven_participants() {
        let mut alloc = VarAlloc::new();
        let spec = KTreeSpec::build(&mut alloc, Mechanism::LlSc, 10, 1, 4, 4);
        // 10 -> 3 -> 1.
        assert_eq!(spec.depth(), 2);
        assert_eq!(spec.levels[0].len(), 3);
        assert_eq!(spec.levels[0][2].size, 2);
        assert_eq!(spec.levels[1][0].size, 3);
    }

    #[test]
    fn deep_trees_synchronize_all_mechanisms() {
        for mech in Mechanism::ALL {
            run_barrier(KTree(2), mech, None, 16, 2); // depth 4
        }
    }

    #[test]
    fn wider_tree_is_shallower_and_works() {
        run_barrier(KTree(4), Mechanism::Atomic, None, 16, 3); // 16 -> 4 -> 1: depth 2
        run_barrier(KTree(8), Mechanism::Amo, None, 32, 2); // 32 -> 4 -> 1: depth 2
    }

    #[test]
    fn two_level_tree_all_mechanisms_8_procs() {
        for mech in Mechanism::ALL {
            run_barrier(Tree(4), mech, None, 8, 3);
        }
    }

    #[test]
    fn two_level_uneven_group_sizes_work() {
        // 10 procs with branching 4: groups of 4, 4, 2.
        run_barrier(Tree(4), Mechanism::Atomic, None, 10, 2);
    }

    #[test]
    fn two_level_group_assignment() {
        let mut alloc = VarAlloc::new();
        // A root wider than its groups: 8 groups of 2.
        let spec = KTreeSpec::build_two_level(&mut alloc, Mechanism::LlSc, 16, 1, 2, 8);
        assert_eq!(spec.fanins, [2, 8]);
        assert_eq!(spec.group_at(15, 0), 7);
        assert_eq!(spec.group_at(15, 1), 0);
        let spec = KTreeSpec::build_two_level(&mut alloc, Mechanism::LlSc, 16, 1, 4, 8);
        assert_eq!(spec.depth(), 2);
        assert_eq!(spec.levels[0].len(), 4);
        assert_eq!(spec.group_at(0, 0), 0);
        assert_eq!(spec.group_at(3, 0), 0);
        assert_eq!(spec.group_at(4, 0), 1);
        assert_eq!(spec.group_at(15, 0), 3);
        assert_eq!(spec.levels[0][3].size, 4);
        assert_eq!(spec.levels[1][0].size, 4);
        // Group homes are distributed; the root is on node 0.
        let homes = |l: usize| spec.levels[l].iter().map(|g| g.counter.home().0);
        assert_eq!(homes(0).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(homes(1).collect::<Vec<_>>(), [0]);
    }

    /// End cycles of the separate two-level kernel this shape replaced
    /// (`tree.rs`, removed), taken from it before it went.
    #[test]
    fn two_level_ktree_matches_tree_module_shape() {
        assert_eq!(run_barrier(Tree(4), Mechanism::LlSc, None, 16, 3).1, 22_614);
        assert_eq!(run_barrier(Tree(8), Mechanism::Amo, None, 64, 3).1, 12_113);
    }
}
