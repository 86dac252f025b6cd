//! MCS list-based queue lock (Mellor-Crummey & Scott, the paper's
//! reference \[17\] — the canonical scalable software lock), over the
//! mechanisms that provide the `swap`/`cas` it needs: LL/SC, Atomic,
//! MAO, and AMO.
//!
//! Each processor owns a queue node homed on *its own* node: a `next`
//! link (written by its successor) and a `granted` counter (bumped by
//! its predecessor's release). That placement is the MCS hallmark — all
//! spinning is node-local, and a release touches exactly one remote
//! line. Under AMO the grant increment is an `amo.fetchadd` whose put
//! lands the new count straight in the waiter's cache, and the tail
//! swap/cas are 2-cycle AMU-cache operations instead of block
//! migrations.
//!
//! Counts are cumulative: `granted[p]` counts lifetime grants to `p`,
//! so `p`'s k-th *contended* acquire waits for `granted[p] ≥ k` and no
//! flag resets exist. The `next` link is cleared by its owner before
//! each tail swap, exactly as in the original algorithm.

use crate::lock::{acquire_mark, release_mark, ExclusionCheck};
use crate::mechanism::{Mechanism, RmwSub, SpinSub, Step};
use crate::VarAlloc;
use amo_cpu::{Kernel, Op, Outcome};
use amo_types::{Addr, AmoKind, Cycle, NodeId, ProcId, SpinPred, Word};

/// Shared description of an MCS lock.
#[derive(Clone, Debug)]
pub struct McsLockSpec {
    /// Mechanism implementing swap / cas / grant increments.
    pub mech: Mechanism,
    /// The queue tail: 0 = free, `p + 1` = processor `p` is last in line.
    pub tail: Addr,
    /// Per-processor successor links, each homed on its owner's node.
    pub next: Vec<Addr>,
    /// Per-processor cumulative grant counters, likewise home-placed.
    pub granted: Vec<Addr>,
    /// Acquisitions per participant.
    pub rounds: u32,
    /// Critical-section length in cycles.
    pub cs_cycles: Cycle,
}

impl McsLockSpec {
    /// Allocate an MCS lock: the tail on `home`, each processor's queue
    /// node on its own node.
    pub fn build(
        alloc: &mut VarAlloc,
        mech: Mechanism,
        home: NodeId,
        procs: u16,
        procs_per_node: u16,
        rounds: u32,
        cs_cycles: Cycle,
    ) -> Self {
        assert!(
            mech != Mechanism::ActMsg,
            "MCS needs swap/cas; the active-message lock is home-mediated instead"
        );
        McsLockSpec {
            mech,
            tail: alloc.counter_for(mech, home),
            next: (0..procs)
                .map(|p| alloc.word(ProcId(p).node(procs_per_node)))
                .collect(),
            granted: (0..procs)
                .map(|p| alloc.word(ProcId(p).node(procs_per_node)))
                .collect(),
            rounds,
            cs_cycles,
        }
    }
}

#[derive(Debug)]
enum McsPhase {
    StartRound,
    ThinkWait,
    /// Clear our own `next` link before publishing ourselves.
    ClearNext,
    /// `swap(tail, me+1)` — the enqueue.
    Swap(RmwSub),
    /// Link ourselves behind the predecessor: `next[pred] = me+1`.
    LinkPred,
    /// Contended: wait for the grant counter to reach our wait count.
    WaitGrant(SpinSub),
    AcqMarkWait,
    ScribbleWait,
    CsWait,
    VerifyWait,
    RelMarkWait,
    /// `cas(tail, me+1, 0)` — uncontended release attempt.
    ReleaseCas(RmwSub),
    /// CAS failed: a successor exists; wait for it to link itself.
    WaitNext(SpinSub),
    /// Bump the successor's grant counter.
    GrantSucc(RmwSub),
    Done,
}

/// One participant's MCS-lock benchmark kernel.
pub struct McsLockKernel {
    spec: McsLockSpec,
    me: u16,
    think: Vec<Cycle>,
    tag: Word,
    check: Option<ExclusionCheck>,
    r: u32,
    /// Contended acquires so far (the spin target for `granted[me]`).
    waits: Word,
    state: McsPhase,
}

impl McsLockKernel {
    /// Build the kernel for participant `me`.
    pub fn new(
        spec: McsLockSpec,
        me: u16,
        think: Vec<Cycle>,
        tag: Word,
        check: Option<ExclusionCheck>,
    ) -> Self {
        assert_eq!(think.len(), spec.rounds as usize);
        assert!((me as usize) < spec.next.len());
        McsLockKernel {
            spec,
            me,
            think,
            tag,
            check,
            r: 1,
            waits: 0,
            state: McsPhase::StartRound,
        }
    }

    fn my_id(&self) -> Word {
        self.me as Word + 1
    }

    fn grant_sub(&self, succ: u16) -> RmwSub {
        let addr = self.spec.granted[succ as usize];
        match self.spec.mech {
            // amo.fetchadd: the put pushes the new count into the
            // waiter's cache — a one-way wake-up.
            Mechanism::Amo => RmwSub::new(Mechanism::Amo, AmoKind::FetchAdd, addr, 1),
            // MAO's grant counters are coherent (only the tail needs the
            // AMU); the cumulative count is unknown to the releaser, so
            // it uses a processor-side fetch-add like Atomic. LL/SC uses
            // its retry pair.
            Mechanism::Mao | Mechanism::Atomic => {
                RmwSub::new(Mechanism::Atomic, AmoKind::FetchAdd, addr, 1)
            }
            Mechanism::LlSc => RmwSub::new(Mechanism::LlSc, AmoKind::FetchAdd, addr, 1),
            Mechanism::ActMsg => unreachable!("rejected at build"),
        }
    }
}

impl Kernel for McsLockKernel {
    fn next(&mut self, mut last: Option<Outcome>) -> Op {
        loop {
            match &mut self.state {
                McsPhase::StartRound => {
                    if self.r > self.spec.rounds {
                        self.state = McsPhase::Done;
                        continue;
                    }
                    self.state = McsPhase::ThinkWait;
                    return Op::Delay {
                        cycles: self.think[(self.r - 1) as usize],
                    };
                }
                McsPhase::ThinkWait => {
                    self.state = McsPhase::ClearNext;
                    return Op::Store {
                        addr: self.spec.next[self.me as usize],
                        value: 0,
                    };
                }
                McsPhase::ClearNext => {
                    self.state = McsPhase::Swap(RmwSub::new(
                        self.spec.mech,
                        AmoKind::Swap,
                        self.spec.tail,
                        self.my_id(),
                    ));
                    last = None;
                }
                McsPhase::Swap(sub) => match sub.poll(last.take()) {
                    Step::Issue(op) => return op,
                    Step::Ready(pred) => {
                        if pred == 0 {
                            // Queue was empty: lock acquired outright.
                            self.state = McsPhase::AcqMarkWait;
                            return Op::Mark {
                                id: acquire_mark(self.r),
                            };
                        }
                        self.waits += 1;
                        self.state = McsPhase::LinkPred;
                        return Op::Store {
                            addr: self.spec.next[(pred - 1) as usize],
                            value: self.my_id(),
                        };
                    }
                },
                McsPhase::LinkPred => {
                    self.state = McsPhase::WaitGrant(SpinSub::coherent(
                        self.spec.granted[self.me as usize],
                        SpinPred::Ge(self.waits),
                    ));
                    last = None;
                }
                McsPhase::WaitGrant(sp) => match sp.poll(last.take()) {
                    Step::Issue(op) => return op,
                    Step::Ready(_) => {
                        self.state = McsPhase::AcqMarkWait;
                        return Op::Mark {
                            id: acquire_mark(self.r),
                        };
                    }
                },
                McsPhase::AcqMarkWait => {
                    if let Some(c) = &self.check {
                        self.state = McsPhase::ScribbleWait;
                        return Op::Store {
                            addr: c.addr,
                            value: self.tag,
                        };
                    }
                    self.state = McsPhase::CsWait;
                    return Op::Delay {
                        cycles: self.spec.cs_cycles,
                    };
                }
                McsPhase::ScribbleWait => {
                    self.state = McsPhase::CsWait;
                    return Op::Delay {
                        cycles: self.spec.cs_cycles,
                    };
                }
                McsPhase::CsWait => {
                    if let Some(c) = &self.check {
                        self.state = McsPhase::VerifyWait;
                        return Op::Load { addr: c.addr };
                    }
                    self.state = McsPhase::RelMarkWait;
                    return Op::Mark {
                        id: release_mark(self.r),
                    };
                }
                McsPhase::VerifyWait => {
                    if let Some(Outcome::Value(v)) = last.take() {
                        let c = self.check.as_ref().expect("verify without check");
                        if v != self.tag {
                            c.violations.set(c.violations.get() + 1);
                        }
                    }
                    self.state = McsPhase::RelMarkWait;
                    return Op::Mark {
                        id: release_mark(self.r),
                    };
                }
                McsPhase::RelMarkWait => {
                    self.state = McsPhase::ReleaseCas(RmwSub::new(
                        self.spec.mech,
                        AmoKind::Cas {
                            expected: self.my_id(),
                        },
                        self.spec.tail,
                        0,
                    ));
                    last = None;
                }
                McsPhase::ReleaseCas(sub) => match sub.poll(last.take()) {
                    Step::Issue(op) => return op,
                    Step::Ready(old) => {
                        if old == self.my_id() {
                            // No successor: the lock is free again.
                            self.r += 1;
                            self.state = McsPhase::StartRound;
                            last = None;
                        } else {
                            // A successor swapped in; wait for its link.
                            self.state = McsPhase::WaitNext(SpinSub::coherent(
                                self.spec.next[self.me as usize],
                                SpinPred::Ne(0),
                            ));
                            last = None;
                        }
                    }
                },
                McsPhase::WaitNext(sp) => match sp.poll(last.take()) {
                    Step::Issue(op) => return op,
                    Step::Ready(succ_id) => {
                        let succ = (succ_id - 1) as u16;
                        self.state = McsPhase::GrantSucc(self.grant_sub(succ));
                        last = None;
                    }
                },
                McsPhase::GrantSucc(sub) => match sub.poll(last.take()) {
                    Step::Issue(op) => return op,
                    Step::Ready(_) => {
                        self.r += 1;
                        self.state = McsPhase::StartRound;
                        last = None;
                    }
                },
                McsPhase::Done => return Op::Done,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install::testkit::run_lock;
    use crate::LockKind;
    use amo_sim::Machine;

    fn run_mcs(mech: Mechanism, procs: u16, rounds: u32) -> (Machine, u64) {
        run_lock(LockKind::Mcs, mech, procs, rounds)
    }

    #[test]
    fn mcs_mutual_exclusion_all_supported_mechanisms() {
        for mech in [
            Mechanism::LlSc,
            Mechanism::Atomic,
            Mechanism::Mao,
            Mechanism::Amo,
        ] {
            run_mcs(mech, 4, 3);
        }
    }

    #[test]
    fn mcs_under_contention_8_procs() {
        for mech in [Mechanism::LlSc, Mechanism::Amo] {
            let (machine, _) = run_mcs(mech, 8, 4);
            // Every round's acquire/release happened.
            let acquires = machine
                .marks()
                .iter()
                .filter(|(_, id, _)| id % 2 == 0)
                .count();
            assert_eq!(acquires, 8 * 4);
        }
    }

    #[test]
    fn amo_mcs_beats_llsc_mcs() {
        let (_, amo) = run_mcs(Mechanism::Amo, 8, 4);
        let (_, llsc) = run_mcs(Mechanism::LlSc, 8, 4);
        assert!(amo < llsc, "AMO MCS {amo} should beat LL/SC MCS {llsc}");
    }

    #[test]
    fn handoffs_are_fifo_by_marks() {
        let (machine, _) = run_mcs(Mechanism::Atomic, 6, 3);
        let mut acquires: Vec<Cycle> = machine
            .marks()
            .iter()
            .filter(|(_, id, _)| id % 2 == 0)
            .map(|&(_, _, t)| t)
            .collect();
        let mut releases: Vec<Cycle> = machine
            .marks()
            .iter()
            .filter(|(_, id, _)| id % 2 == 1)
            .map(|&(_, _, t)| t)
            .collect();
        acquires.sort_unstable();
        releases.sort_unstable();
        for k in 1..acquires.len() {
            assert!(
                acquires[k] >= releases[k - 1],
                "holder overlap: {} vs {}",
                acquires[k],
                releases[k - 1]
            );
        }
    }

    #[test]
    #[should_panic(expected = "home-mediated")]
    fn actmsg_is_rejected() {
        let mut alloc = VarAlloc::new();
        let _ = McsLockSpec::build(&mut alloc, Mechanism::ActMsg, NodeId(0), 4, 2, 1, 100);
    }
}
