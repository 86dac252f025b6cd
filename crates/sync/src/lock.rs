//! Spin locks: ticket locks and Anderson array-based queuing locks
//! (paper Sec. 3.3.2 and 4.2.3), over all five mechanisms.
//!
//! Both use cumulative counts. A ticket lock's `now_serving` only ever
//! increments; an array lock's per-slot flag counts how many times the
//! slot has been granted, so the holder of ticket `t` spins on
//! `flags[t % n] ≥ t/n + 1` and releases by bringing
//! `flags[(t+1) % n]` to `(t+1)/n + 1`.
//!
//! Under MAO only the *sequencer* lives in uncached space (it is the
//! only word needing atomicity); grant words stay coherent and releases
//! are ordinary stores — which is why the paper's MAO locks perform like
//! the conventional ones. Under AMO the release is an `amo.fetchadd`
//! whose immediate put pushes the new value into every waiting cache.
//!
//! The array lock is Anderson's: the conventional release performs *two*
//! writes (reset your own slot, grant the next), which is what makes it
//! slower than the ticket lock on small machines; the AMO recoding drops
//! the reset ("using AMOs makes it a moot point", paper Sec. 3.3.2).

use crate::frame::{PassageAlgo, PassageKernel};
use crate::mechanism::{release, Mechanism, Sub};
use crate::VarAlloc;
use amo_sim::cpu::Op;
use amo_types::{Addr, Cycle, HandlerKind, NodeId, SpinPred, Word};
use std::cell::Cell;
use std::rc::Rc;

/// Marker ids recorded by lock kernels: round `r` (1-based) acquires at
/// mark `2r` and releases at mark `2r + 1`.
pub(crate) fn acquire_mark(round: u32) -> u32 {
    round * 2
}

/// See [`acquire_mark`].
pub(crate) fn release_mark(round: u32) -> u32 {
    round * 2 + 1
}

/// Optional in-simulation mutual-exclusion checker: each holder scribbles
/// its tag into a shared word on entry and verifies it on exit; any
/// mismatch means two processors were inside simultaneously.
#[derive(Clone)]
pub struct ExclusionCheck {
    /// Shared scribble word (coherent).
    pub addr: Addr,
    /// Violation counter shared with the test harness.
    pub violations: Rc<Cell<u64>>,
}

/// Shared description of a ticket lock.
#[derive(Clone, Copy, Debug)]
pub struct TicketLockSpec {
    /// Mechanism implementing fetch-and-add / release / spin.
    pub mech: Mechanism,
    /// The sequencer (`next_ticket`).
    pub next_ticket: Addr,
    /// The grant counter (`now_serving`).
    pub now_serving: Addr,
    /// Active-message service counter for the sequencer.
    pub ctr_id: u16,
    /// Active-message service counter holding the grant count (the
    /// ActMsg ticket lock keeps `now_serving` at the home processor and
    /// waiters poll it with messages).
    pub ctr_serving: u16,
    /// Acquisitions each participant performs.
    pub rounds: u32,
    /// Critical-section length in cycles.
    pub cs_cycles: Cycle,
}

impl TicketLockSpec {
    /// Allocate a ticket lock homed on `home`.
    pub fn build(
        alloc: &mut VarAlloc,
        mech: Mechanism,
        home: NodeId,
        rounds: u32,
        cs_cycles: Cycle,
    ) -> Self {
        TicketLockSpec {
            mech,
            // Only the sequencer needs atomicity; under MAO it lives in
            // uncached space. The grant counter is always coherent.
            next_ticket: alloc.counter_for(mech, home),
            now_serving: alloc.word(home),
            ctr_id: alloc.ctr(home),
            ctr_serving: alloc.ctr(home),
            rounds,
            cs_cycles,
        }
    }
}

/// The ticket lock's algorithm: take a ticket, wait until it is served,
/// serve the next one.
pub struct TicketLock {
    spec: TicketLockSpec,
    ticket: Word,
}

/// One participant's ticket-lock benchmark kernel: `rounds` passages of
/// think → acquire → critical section → release.
pub type TicketLockKernel = PassageKernel<TicketLock>;

impl TicketLockKernel {
    /// Build the kernel. `think[i]` is the local delay before round
    /// `i+1`; `tag` must be unique and nonzero per participant when an
    /// exclusion check is attached.
    pub fn new(
        spec: TicketLockSpec,
        think: Vec<Cycle>,
        tag: Word,
        check: Option<ExclusionCheck>,
    ) -> Self {
        let algo = TicketLock { spec, ticket: 0 };
        PassageKernel::frame(algo, spec.rounds, spec.cs_cycles, think, tag, check)
    }
}

impl PassageAlgo for TicketLock {
    fn entry(&mut self, step: u32, ready: Word) -> Option<Sub> {
        let s = &self.spec;
        let lock = s.ctr_serving;
        match (step, s.mech) {
            // Home-mediated: the ack is the deferred grant. Waiting
            // happens inside this one message exchange; long waits make
            // the requester's timer retransmit, and every duplicate
            // invocation burns home-CPU time — the paper's
            // heavy-contention interference and traffic blow-up.
            (0, Mechanism::ActMsg) => Some(Sub::once(Op::ActiveMsg {
                home: s.now_serving.home(),
                handler: HandlerKind::LockAcquire { lock },
            })),
            (0, mech) => Some(Sub::fetch_inc(mech, s.next_ticket, s.ctr_id)),
            (1, mech) if mech != Mechanism::ActMsg => {
                self.ticket = ready;
                Some(Sub::spin(s.now_serving, SpinPred::Ge(ready)))
            }
            _ => None,
        }
    }

    fn exit(&mut self, step: u32, _: Word) -> Option<Sub> {
        let s = &self.spec;
        let lock = s.ctr_serving;
        let op = match s.mech {
            // The home processor hands the grant to the next waiter.
            Mechanism::ActMsg => Op::ActiveMsg {
                home: s.now_serving.home(),
                handler: HandlerKind::LockRelease { lock },
            },
            mech => release(mech, s.now_serving, self.ticket + 1),
        };
        (step == 0).then(|| Sub::once(op))
    }
}

/// Shared description of an Anderson array-based queuing lock.
#[derive(Clone, Debug)]
pub struct ArrayLockSpec {
    /// Mechanism implementing fetch-and-add / release / spin.
    pub mech: Mechanism,
    /// The sequencer handing out slots.
    pub sequencer: Addr,
    /// Per-slot grant-count flags, each in its own block.
    pub flags: Vec<Addr>,
    /// Active-message service counter for the sequencer.
    pub ctr_id: u16,
    /// Acquisitions each participant performs.
    pub rounds: u32,
    /// Critical-section length in cycles.
    pub cs_cycles: Cycle,
}

impl ArrayLockSpec {
    /// Allocate an array lock with `slots` flags, all homed on `home`
    /// (as a contiguously-allocated flag array would be).
    pub fn build(
        alloc: &mut VarAlloc,
        mech: Mechanism,
        home: NodeId,
        slots: u16,
        rounds: u32,
        cs_cycles: Cycle,
    ) -> Self {
        assert!(slots >= 2);
        ArrayLockSpec {
            mech,
            // Only the sequencer needs atomicity (uncached under MAO);
            // flags are coherent words, one per block.
            sequencer: alloc.counter_for(mech, home),
            flags: (0..slots).map(|_| alloc.word(home)).collect(),
            ctr_id: alloc.ctr(home),
            rounds,
            cs_cycles,
        }
    }

    /// Program initialization: slot 0 starts granted (the lock is free).
    /// Must be applied to the machine before the run.
    pub fn init<T: amo_obs::Tracer, P: amo_obs::HostProf>(
        &self,
        machine: &mut amo_sim::Machine<T, P>,
    ) {
        machine.init_word(self.flags[0], 1);
    }

    fn slot(&self, ticket: Word) -> usize {
        (ticket % self.flags.len() as Word) as usize
    }

    fn grant(&self, ticket: Word) -> Word {
        ticket / self.flags.len() as Word + 1
    }
}

/// The array lock's algorithm: take a slot, wait for its flag, grant
/// the next slot's.
pub struct ArrayLock {
    spec: ArrayLockSpec,
    ticket: Word,
}

/// One participant's array-lock benchmark kernel.
pub type ArrayLockKernel = PassageKernel<ArrayLock>;

impl ArrayLockKernel {
    /// Build the kernel (see [`TicketLockKernel::new`]).
    pub fn new(
        spec: ArrayLockSpec,
        think: Vec<Cycle>,
        tag: Word,
        check: Option<ExclusionCheck>,
    ) -> Self {
        let (rounds, cs_cycles) = (spec.rounds, spec.cs_cycles);
        let algo = ArrayLock { spec, ticket: 0 };
        PassageKernel::frame(algo, rounds, cs_cycles, think, tag, check)
    }
}

impl PassageAlgo for ArrayLock {
    fn entry(&mut self, step: u32, ready: Word) -> Option<Sub> {
        let s = &self.spec;
        match step {
            0 => Some(Sub::fetch_inc(s.mech, s.sequencer, s.ctr_id)),
            1 => {
                self.ticket = ready;
                let flag = s.flags[s.slot(ready)];
                Some(Sub::spin(flag, SpinPred::Ge(s.grant(ready))))
            }
            _ => None,
        }
    }

    /// Flags are coherent for every mechanism (the array lock's whole
    /// point is local spinning): AMO pushes the next grant, the rest
    /// store it.
    fn exit(&mut self, step: u32, _: Word) -> Option<Sub> {
        let (s, next) = (&self.spec, self.ticket + 1);
        let op = release(s.mech, s.flags[s.slot(next)], s.grant(next));
        (step == 0).then(|| Sub::once(op))
    }

    /// Anderson's release performs a second write: reset your own slot
    /// to "must wait" before granting the next. With cumulative grant
    /// counts the value is semantically inert, but the coherence traffic
    /// and latency it costs are exactly the original algorithm's. AMO
    /// recodings drop it.
    fn reset(&self) -> Option<Op> {
        let s = &self.spec;
        (s.mech != Mechanism::Amo).then(|| Op::Store {
            addr: s.flags[s.slot(self.ticket)],
            value: s.grant(self.ticket),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install::testkit::run_lock;
    use crate::LockKind;
    use amo_sim::Machine;
    use amo_types::ProcId;

    fn run_ticket(mech: Mechanism, procs: u16, rounds: u32) -> (Machine, u64) {
        run_lock(LockKind::Ticket, mech, procs, rounds)
    }

    #[test]
    fn ticket_lock_mutual_exclusion_all_mechanisms() {
        for mech in Mechanism::ALL {
            run_ticket(mech, 4, 3);
        }
    }

    #[test]
    fn array_lock_mutual_exclusion_all_mechanisms() {
        for mech in Mechanism::ALL {
            run_lock(LockKind::Array, mech, 4, 3);
        }
    }

    #[test]
    fn ticket_lock_grants_fifo() {
        // With a coherent ticket lock, acquisition order must follow
        // ticket order; verify via marks: acquire times are strictly
        // ordered and never overlap with the previous holder's release.
        let (machine, _) = run_ticket(Mechanism::Atomic, 4, 3);
        let mut acquires: Vec<(u64, ProcId)> = machine
            .marks()
            .iter()
            .filter(|(_, id, _)| id % 2 == 0 && *id >= 2)
            .map(|&(p, _, t)| (t, p))
            .collect();
        let mut releases: Vec<u64> = machine
            .marks()
            .iter()
            .filter(|(_, id, _)| id % 2 == 1 && *id >= 3)
            .map(|&(_, _, t)| t)
            .collect();
        acquires.sort_unstable();
        releases.sort_unstable();
        assert_eq!(acquires.len(), releases.len());
        // k-th acquire happens at/after (k-1)-th release.
        for k in 1..acquires.len() {
            assert!(
                acquires[k].0 >= releases[k - 1],
                "overlap: acquire {} before release {}",
                acquires[k].0,
                releases[k - 1]
            );
        }
    }

    #[test]
    fn amo_ticket_lock_beats_llsc_at_8() {
        let (_, amo) = run_ticket(Mechanism::Amo, 8, 4);
        let (_, llsc) = run_ticket(Mechanism::LlSc, 8, 4);
        assert!(amo < llsc, "AMO {amo} should beat LL/SC {llsc}");
    }

    #[test]
    fn array_lock_slot_arithmetic() {
        let mut alloc = VarAlloc::new();
        let spec = ArrayLockSpec::build(&mut alloc, Mechanism::Atomic, NodeId(0), 4, 1, 100);
        assert_eq!(spec.slot(0), 0);
        assert_eq!(spec.slot(5), 1);
        assert_eq!(spec.grant(0), 1);
        assert_eq!(spec.grant(4), 2);
        assert_eq!(spec.grant(5), 2);
        // Flags are in distinct blocks.
        assert_ne!(spec.flags[0].block(128), spec.flags[1].block(128));
    }
}
