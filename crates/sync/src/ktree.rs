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
//! Two shapes are built from the one state machine. The paper's
//! evaluated configuration ([`KTreeSpec::build_two_level`]) has groups
//! of `B` leaves under one root of fan-in `⌈P/B⌉`. The generalization
//! the paper leaves as future work — "determining whether or not
//! tree-based AMO barriers can provide extra benefits on very
//! large-scale systems" — is [`KTreeSpec::build`]: a uniform fan-in at
//! every level, as deep as the processor count requires.

use crate::barrier::BarrierSpec;
use crate::layout::cumulative_target;
use crate::mechanism::{FetchAddSub, Mechanism, ReleaseSub, SpinSub, Step};
use crate::VarAlloc;
use amo_cpu::{Kernel, Op, Outcome};
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
    pub fn build_two_level(
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
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The group index of member `m` at level `l` (member = processor at
    /// level 0, child-group index above).
    pub fn group_at(&self, m: u16, l: usize) -> u16 {
        self.fanins[..=l].iter().fold(m, |m, fanin| m / fanin)
    }
}

#[derive(Debug)]
enum KState {
    StartEpisode,
    WorkWait,
    EnterMarkWait,
    /// Climbing: increment level `l`'s group counter.
    Climb(FetchAddSub),
    /// Not last at the stop level: wait for its release.
    WaitRelease(SpinSub),
    /// Downward wave: release the group at `descend_level`.
    Descend(ReleaseSub),
    ExitMarkWait,
    Done,
}

/// One participant's tree-barrier kernel.
pub struct KTreeKernel {
    spec: Rc<KTreeSpec>,
    me: u16,
    work: Vec<Cycle>,
    e: u32,
    /// Level currently being climbed.
    level: usize,
    /// Level the downward wave is currently releasing.
    descend_level: usize,
    state: KState,
}

impl KTreeKernel {
    /// Build the kernel for participant `me`. The participants of one
    /// barrier can share one `Rc` of its description.
    pub fn new(spec: impl Into<Rc<KTreeSpec>>, me: u16, work: Vec<Cycle>) -> Self {
        let spec = spec.into();
        assert_eq!(work.len(), spec.episodes as usize);
        KTreeKernel {
            spec,
            me,
            work,
            e: 1,
            level: 0,
            descend_level: 0,
            state: KState::StartEpisode,
        }
    }

    fn group(&self, l: usize) -> &KGroup {
        &self.spec.levels[l][self.spec.group_at(self.me, l) as usize]
    }

    fn climb_sub(&self, l: usize) -> FetchAddSub {
        let g = self.group(l);
        FetchAddSub::new(self.spec.mech, g.counter, 1, g.ctr_id)
    }

    fn release_sub(&self, l: usize) -> ReleaseSub {
        let g = self.group(l);
        // Tree release words are coherent even under MAO (optimized
        // spin-variable discipline), so MAO releases are plain stores.
        if self.spec.mech == Mechanism::Mao {
            ReleaseSub::coherent_store(g.release, self.e as Word)
        } else {
            ReleaseSub::new(self.spec.mech, g.release, self.e as Word)
        }
    }

    fn wait_sub(&self, l: usize) -> SpinSub {
        SpinSub::coherent(self.group(l).release, SpinPred::Ge(self.e as Word))
    }
}

impl Kernel for KTreeKernel {
    fn next(&mut self, mut last: Option<Outcome>) -> Op {
        loop {
            match &mut self.state {
                KState::StartEpisode => {
                    if self.e > self.spec.episodes {
                        self.state = KState::Done;
                        continue;
                    }
                    self.state = KState::WorkWait;
                    return Op::Delay {
                        cycles: self.work[(self.e - 1) as usize],
                    };
                }
                KState::WorkWait => {
                    self.state = KState::EnterMarkWait;
                    return Op::Mark {
                        id: BarrierSpec::enter_mark(self.e),
                    };
                }
                KState::EnterMarkWait => {
                    self.level = 0;
                    self.state = KState::Climb(self.climb_sub(0));
                    last = None;
                }
                KState::Climb(fa) => match fa.poll(last.take()) {
                    Step::Issue(op) => return op,
                    Step::Ready(old) => {
                        let size = self.group(self.level).size;
                        let target = cumulative_target(self.e, size);
                        let is_last = old + 1 == target;
                        let is_root = self.level + 1 == self.spec.depth();
                        if is_last && !is_root {
                            self.level += 1;
                            self.state = KState::Climb(self.climb_sub(self.level));
                        } else if is_last && is_root {
                            // Root completion: start the downward wave
                            // from the root itself.
                            self.descend_level = self.level;
                            self.state = KState::Descend(self.release_sub(self.level));
                        } else {
                            self.state = KState::WaitRelease(self.wait_sub(self.level));
                        }
                    }
                },
                KState::WaitRelease(sp) => match sp.poll(last.take()) {
                    Step::Issue(op) => return op,
                    Step::Ready(_) => {
                        if self.level == 0 {
                            self.state = KState::ExitMarkWait;
                            return Op::Mark {
                                id: BarrierSpec::exit_mark(self.e),
                            };
                        }
                        // We climbed out of levels 0..self.level; release
                        // them top-down.
                        self.descend_level = self.level - 1;
                        self.state = KState::Descend(self.release_sub(self.level - 1));
                    }
                },
                KState::Descend(rel) => match rel.poll(last.take()) {
                    Step::Issue(op) => return op,
                    Step::Ready(_) => {
                        if self.descend_level == 0 {
                            self.state = KState::ExitMarkWait;
                            return Op::Mark {
                                id: BarrierSpec::exit_mark(self.e),
                            };
                        }
                        self.descend_level -= 1;
                        self.state = KState::Descend(self.release_sub(self.descend_level));
                    }
                },
                KState::ExitMarkWait => {
                    self.e += 1;
                    self.state = KState::StartEpisode;
                    last = None;
                }
                KState::Done => return Op::Done,
            }
        }
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
