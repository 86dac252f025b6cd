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

use crate::frame::{PassageAlgo, PassageKernel};
use crate::lock::ExclusionCheck;
use crate::mechanism::{Mechanism, Sub};
use crate::VarAlloc;
use amo_sim::cpu::Op;
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

/// The MCS lock's algorithm: enqueue on the tail, wait for the
/// predecessor's grant, hand the lock to the successor.
pub struct McsLock {
    spec: McsLockSpec,
    /// Participant index; `me + 1` is its id in the tail and links.
    me: u16,
    /// Contended acquires so far (the spin target for `granted[me]`).
    waits: Word,
}

/// One participant's MCS-lock benchmark kernel.
pub type McsLockKernel = PassageKernel<McsLock>;

impl McsLockKernel {
    /// Build the kernel for participant `me`.
    pub fn new(
        spec: McsLockSpec,
        me: u16,
        think: Vec<Cycle>,
        tag: Word,
        check: Option<ExclusionCheck>,
    ) -> Self {
        assert!((me as usize) < spec.next.len());
        let (rounds, cs_cycles) = (spec.rounds, spec.cs_cycles);
        let algo = McsLock { spec, me, waits: 0 };
        PassageKernel::frame(algo, rounds, cs_cycles, think, tag, check)
    }
}

impl PassageAlgo for McsLock {
    fn entry(&mut self, step: u32, ready: Word) -> Option<Sub> {
        let (s, me, id) = (&self.spec, self.me as usize, self.me as Word + 1);
        Some(match step {
            // Clear our own `next` link before publishing ourselves.
            0 => Sub::once(Op::Store {
                addr: s.next[me],
                value: 0,
            }),
            // The enqueue.
            1 => Sub::rmw(s.mech, AmoKind::Swap, s.tail, id),
            // Queue was empty: lock acquired outright.
            2 if ready == 0 => return None,
            // Link ourselves behind the predecessor, then wait for its
            // grant.
            2 => {
                self.waits += 1;
                Sub::once(Op::Store {
                    addr: s.next[(ready - 1) as usize],
                    value: id,
                })
            }
            3 => Sub::spin(s.granted[me], SpinPred::Ge(self.waits)),
            _ => return None,
        })
    }

    fn exit(&mut self, step: u32, ready: Word) -> Option<Sub> {
        let (s, me, id) = (&self.spec, self.me as usize, self.me as Word + 1);
        Some(match step {
            // Uncontended release attempt.
            0 => Sub::rmw(s.mech, AmoKind::Cas { expected: id }, s.tail, 0),
            // No successor: the lock is free again.
            1 if ready == id => return None,
            // A successor swapped in; wait for its link.
            1 => Sub::spin(s.next[me], SpinPred::Ne(0)),
            // Bump the successor's grant counter. Under AMO the put
            // pushes the new count into the waiter's cache — a one-way
            // wake-up. MAO's grant counters are coherent (only the tail
            // needs the AMU); the cumulative count is unknown to the
            // releaser, so it uses a processor-side fetch-add like Atomic.
            2 => {
                let mech = match s.mech {
                    Mechanism::Mao => Mechanism::Atomic,
                    mech => mech,
                };
                Sub::rmw(mech, AmoKind::FetchAdd, s.granted[(ready - 1) as usize], 1)
            }
            _ => return None,
        })
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
