//! The kernel interface: what synchronization algorithms look like to a
//! processor.

use amo_types::{Addr, AmoKind, Cycle, HandlerKind, NodeId, SpinPred, Word};

/// One operation a kernel asks its processor to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Coherent load; completes with [`Outcome::Value`].
    Load {
        /// Word to read.
        addr: Addr,
    },
    /// Coherent store; completes with [`Outcome::Stored`].
    Store {
        /// Word to write.
        addr: Addr,
        /// Value.
        value: Word,
    },
    /// Load-linked: a load that establishes the reservation.
    LoadLinked {
        /// Word to read.
        addr: Addr,
    },
    /// Store-conditional; completes with [`Outcome::ScResult`].
    StoreConditional {
        /// Word to write.
        addr: Addr,
        /// Value.
        value: Word,
    },
    /// Processor-side atomic read-modify-write (the "Atomic" baseline);
    /// completes with [`Outcome::Value`] carrying the old value.
    AtomicRmw {
        /// Operation.
        kind: AmoKind,
        /// Word to modify.
        addr: Addr,
        /// Operand.
        operand: Word,
    },
    /// Active memory operation shipped to the home AMU; completes with
    /// [`Outcome::Value`] carrying the old value.
    Amo {
        /// Operation.
        kind: AmoKind,
        /// Word to modify (home node executes).
        addr: Addr,
        /// Operand.
        operand: Word,
        /// Delayed-put test value.
        test: Option<Word>,
    },
    /// Uncached memory-side atomic (MAO baseline); completes with
    /// [`Outcome::Value`].
    Mao {
        /// Operation.
        kind: AmoKind,
        /// Word to modify.
        addr: Addr,
        /// Operand.
        operand: Word,
    },
    /// Uncached remote load (MAO-style spinning); [`Outcome::Value`].
    UncachedLoad {
        /// Word to read.
        addr: Addr,
    },
    /// Send an active message to (the first processor of) `home` and wait
    /// for the ack; completes with [`Outcome::Acked`] carrying the
    /// handler's result. Retransmitted on timeout.
    ActiveMsg {
        /// Node whose processor runs the handler.
        home: NodeId,
        /// Handler to run.
        handler: HandlerKind,
    },
    /// Spin until the coherently-cached word satisfies the predicate;
    /// completes with [`Outcome::SpinDone`]. The processor sleeps on its
    /// cached copy between wake-ups.
    SpinUntil {
        /// Word to watch.
        addr: Addr,
        /// Completion predicate.
        pred: SpinPred,
    },
    /// Local computation for `cycles`; completes with [`Outcome::Delayed`].
    Delay {
        /// Busy time.
        cycles: Cycle,
    },
    /// Zero-cost measurement marker: the machine records (processor, id,
    /// cycle). Completes immediately with [`Outcome::Delayed`]. Workloads
    /// use marks to timestamp episode boundaries (barrier entry/exit,
    /// lock acquire/release).
    Mark {
        /// Marker id, chosen by the workload.
        id: u32,
    },
    /// The kernel is finished.
    Done,
}

/// Completion information handed to [`Kernel::next`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A load/atomic/AMO/MAO completed with this (old) value.
    Value(Word),
    /// A store completed.
    Stored,
    /// A store-conditional succeeded (`true`) or failed (`false`).
    ScResult(bool),
    /// A spin completed; the watched word's satisfying value.
    SpinDone(Word),
    /// An active message was acknowledged with this handler result.
    Acked(Word),
    /// A delay elapsed.
    Delayed,
}

impl Outcome {
    /// The value carried, if any (panics otherwise — kernel logic bugs
    /// should fail loudly).
    pub fn value(self) -> Word {
        match self {
            Outcome::Value(v) | Outcome::SpinDone(v) | Outcome::Acked(v) => v,
            other => panic!("outcome {other:?} carries no value"),
        }
    }
}

/// A synchronization algorithm instance bound to one processor.
///
/// The processor calls [`Kernel::next`] with the outcome of the previous
/// operation (`None` on the first call) and performs the returned
/// operation. Returning [`Op::Done`] ends the kernel; the machine records
/// the completion time.
pub trait Kernel {
    /// Produce the next operation.
    fn next(&mut self, last: Option<Outcome>) -> Op;
}

/// Blanket implementation so closures can serve as throwaway kernels in
/// tests: the closure *is* the state machine.
impl<F: FnMut(Option<Outcome>) -> Op> Kernel for F {
    fn next(&mut self, last: Option<Outcome>) -> Op {
        self(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_value_extraction() {
        assert_eq!(Outcome::Value(5).value(), 5);
        assert_eq!(Outcome::SpinDone(7).value(), 7);
        assert_eq!(Outcome::Acked(9).value(), 9);
    }

    #[test]
    #[should_panic(expected = "carries no value")]
    fn stored_has_no_value() {
        Outcome::Stored.value();
    }

    #[test]
    fn closures_are_kernels() {
        let mut calls = 0;
        let mut k = |_last: Option<Outcome>| {
            calls += 1;
            Op::Done
        };
        assert_eq!(Kernel::next(&mut k, None), Op::Done);
        let _ = k;
        assert_eq!(calls, 1);
    }
}
