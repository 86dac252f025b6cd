//! The five synchronization mechanisms, the one sub-machine every kernel
//! is written in, and the one release rule.
//!
//! A [`Sub`] has three shapes: one op that completes on its reply, an
//! atomic read-modify-write, and a spin. Its `poll` either asks the
//! processor to perform an [`Op`] or reports completion with a value.

use amo_cpu::{Op, Outcome};
use amo_types::{Addr, AmoKind, Cycle, HandlerKind, Publish, SpinPred, Word};

/// Which hardware/software mechanism implements the atomic operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mechanism {
    /// Load-linked / store-conditional retry loops (the paper's baseline).
    LlSc,
    /// Processor-side atomic read-modify-write instructions.
    Atomic,
    /// Active messages executed by the home node's processor.
    ActMsg,
    /// Conventional memory-side atomic operations (uncached, SGI Origin
    /// 2000 / Cray T3E style).
    Mao,
    /// Active Memory Operations (the paper's contribution).
    Amo,
}

impl Mechanism {
    /// All mechanisms, in the order the paper's tables list them.
    pub const ALL: [Mechanism; 5] = [
        Mechanism::LlSc,
        Mechanism::ActMsg,
        Mechanism::Atomic,
        Mechanism::Mao,
        Mechanism::Amo,
    ];

    /// Label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::LlSc => "LL/SC",
            Mechanism::Atomic => "Atomic",
            Mechanism::ActMsg => "ActMsg",
            Mechanism::Mao => "MAO",
            Mechanism::Amo => "AMO",
        }
    }

    /// Inverse of [`Mechanism::label`], for specs, documents and command
    /// lines: the table label in any letter case, or `llsc`.
    pub fn parse(s: &str) -> Result<Mechanism, String> {
        Mechanism::ALL
            .into_iter()
            .find(|m| {
                m.label().eq_ignore_ascii_case(s)
                    || (*m == Mechanism::LlSc && s.eq_ignore_ascii_case("llsc"))
            })
            .ok_or_else(|| {
                let labels: Vec<&str> = Mechanism::ALL.iter().map(|m| m.label()).collect();
                format!("unknown mechanism {s:?} (one of {})", labels.join(", "))
            })
    }

    /// Whether this mechanism's synchronization variables live in
    /// uncached (IO) space rather than the coherent domain.
    pub(crate) fn uses_uncached_vars(self) -> bool {
        matches!(self, Mechanism::Mao)
    }
}

/// The one release rule: make `value` visible to the processors spinning
/// on `addr`. Release words are coherent under every mechanism (MAO keeps
/// only its atomically updated counters uncached) and have one writer,
/// so `value` is always one more than the word holds. AMO pushes it with
/// an `amo.fetchadd` of one, whose immediate put lands the new value in
/// every spinner's cache; every other mechanism stores it, invalidating
/// the spinners, who reload.
pub fn release(mech: Mechanism, addr: Addr, value: Word) -> Op {
    match mech {
        Mechanism::Amo => Op::Amo {
            kind: AmoKind::FetchAdd,
            addr,
            operand: 1,
            test: None,
        },
        _ => Op::Store { addr, value },
    }
}

/// One step of a sub-machine: either an operation for the processor to
/// perform, or completion with a result value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Perform this op; feed the outcome back into `poll`.
    Issue(Op),
    /// Sub-machine complete with the value its last reply carried: the
    /// old value of an atomic, the satisfying value of a spin, 0 for a
    /// store or a delay.
    Ready(Word),
}

/// The sub-machine kernels are written in: one op, an atomic
/// read-modify-write, or a spin. A fresh sub ignores the outcome it is
/// first polled with.
///
/// ```
/// use amo_sync::mechanism::{Mechanism, Step, Sub};
/// use amo_cpu::{Op, Outcome};
/// use amo_types::{Addr, NodeId};
///
/// // An LL/SC fetch-add is a retry loop: the sub re-issues the pair
/// // until the conditional store lands.
/// let addr = Addr::on_node(NodeId(0), 0x1000);
/// let mut fa = Sub::fetch_inc(Mechanism::LlSc, addr, 0);
/// assert_eq!(fa.poll(None), Step::Issue(Op::LoadLinked { addr }));
/// assert_eq!(
///     fa.poll(Some(Outcome::Value(6))),
///     Step::Issue(Op::StoreConditional { addr, value: 7 })
/// );
/// assert_eq!(fa.poll(Some(Outcome::ScResult(true))), Step::Ready(6));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Sub {
    shape: Shape,
    state: State,
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Issue the op, complete on its reply.
    Once(Op),
    /// LL, then SC of `kind.apply(old, operand)`, from the LL again until
    /// the SC lands.
    LlSc {
        kind: AmoKind,
        addr: Addr,
        operand: Word,
    },
    /// Uncached loads of `addr` until `pred` holds, each miss backing off
    /// in proportion to the distance from `target`.
    Poll {
        addr: Addr,
        pred: SpinPred,
        target: Word,
    },
}

#[derive(Clone, Copy, Debug)]
enum State {
    /// Nothing in flight (or, polling, only a backoff delay).
    Fresh,
    /// The op, the LL or the uncached load is in flight.
    Waiting,
    /// The SC is in flight; the LL read `old`.
    Conditional { old: Word },
}

/// Uncached polling's delay per unit of distance from the target, and its
/// cap: waiting behind k arrivals waits ~k× longer.
const BACKOFF_BASE: Cycle = 400;
const BACKOFF_CAP: Cycle = 20_000;

impl Sub {
    fn new(shape: Shape) -> Sub {
        Sub {
            shape,
            state: State::Fresh,
        }
    }

    /// Issue `op`; ready with the value its reply carries.
    pub(crate) fn once(op: Op) -> Sub {
        Sub::new(Shape::Once(op))
    }

    /// Coherent spin: sleep on the cached word until `pred` holds; ready
    /// with the satisfying value.
    pub(crate) fn spin(addr: Addr, pred: SpinPred) -> Sub {
        Sub::once(Op::SpinUntil { addr, pred })
    }

    /// Uncached spin: load `addr` from its home node until `pred` holds,
    /// backing off in proportion to the distance from `target` between
    /// loads (MCS-style proportional backoff). Only the naive and eager
    /// centralized MAO barriers spin this way: on their uncached counter.
    pub(crate) fn uncached(addr: Addr, pred: SpinPred, target: Word) -> Sub {
        Sub::new(Shape::Poll { addr, pred, target })
    }

    /// An atomic `kind` of `operand` on `addr` under `mech`; ready with
    /// the old value. LL/SC loops, skipping the SC where it would store
    /// the old value back (a failed CAS, an unchanged max); every other
    /// mechanism is one op. Active messages have no generic RMW: their
    /// counters are the home processor's ([`Sub::fetch_inc`]).
    pub(crate) fn rmw(mech: Mechanism, kind: AmoKind, addr: Addr, operand: Word) -> Sub {
        Sub::once(match mech {
            Mechanism::LlSc => {
                return Sub::new(Shape::LlSc {
                    kind,
                    addr,
                    operand,
                })
            }
            Mechanism::Atomic => Op::AtomicRmw {
                kind,
                addr,
                operand,
            },
            Mechanism::Mao => Op::Mao {
                kind,
                addr,
                operand,
            },
            Mechanism::Amo => Op::Amo {
                kind,
                addr,
                operand,
                test: None,
            },
            Mechanism::ActMsg => {
                panic!("active messages have no generic RMW; use home-mediated handlers")
            }
        })
    }

    /// Fetch-and-add of one on `addr`; ready with the old value. Under
    /// active messages the home processor's service counter `ctr` is the
    /// count, and the ack of its `FetchAdd` handler the reply.
    pub fn fetch_inc(mech: Mechanism, addr: Addr, ctr: u16) -> Sub {
        match mech {
            Mechanism::ActMsg => Sub::once(Op::ActiveMsg {
                home: addr.home(),
                handler: HandlerKind::FetchAdd {
                    ctr,
                    operand: 1,
                    publish: None,
                },
            }),
            _ => Sub::rmw(mech, AmoKind::FetchAdd, addr, 1),
        }
    }

    /// An AMO fetch-and-add of one becomes `amo.inc` with the delayed-put
    /// test value `test` — or, with `None`, with no put at all, the count
    /// accumulating silently in the AMU cache. Other subs are unchanged.
    pub(crate) fn amo_inc(mut self, test: Option<Word>) -> Sub {
        if let Shape::Once(Op::Amo {
            kind: kind @ AmoKind::FetchAdd,
            operand: 1,
            test: t,
            ..
        }) = &mut self.shape
        {
            (*kind, *t) = (AmoKind::Inc, test);
        }
        self
    }

    /// An active-message fetch-and-add whose handler also publishes
    /// `publish`. Other subs are unchanged.
    pub(crate) fn publishing(mut self, publish: Publish) -> Sub {
        if let Shape::Once(Op::ActiveMsg {
            handler: HandlerKind::FetchAdd { publish: p, .. },
            ..
        }) = &mut self.shape
        {
            *p = Some(publish);
        }
        self
    }

    /// Advance; `last` is the outcome of the previously issued op.
    pub fn poll(&mut self, last: Option<Outcome>) -> Step {
        match (&self.shape, self.state, last) {
            (&Shape::Once(op), State::Fresh, _) => {
                self.state = State::Waiting;
                Step::Issue(op)
            }
            (Shape::Once(_), State::Waiting, Some(Outcome::Stored | Outcome::Delayed)) => {
                Step::Ready(0)
            }
            (Shape::Once(_), State::Waiting, Some(o)) => Step::Ready(o.value()),
            (&Shape::LlSc { addr, .. }, State::Fresh, _)
            | (
                &Shape::LlSc { addr, .. },
                State::Conditional { .. },
                Some(Outcome::ScResult(false)),
            ) => {
                self.state = State::Waiting;
                Step::Issue(Op::LoadLinked { addr })
            }
            (
                &Shape::LlSc {
                    kind,
                    addr,
                    operand,
                },
                State::Waiting,
                Some(Outcome::Value(old)),
            ) => {
                let value = kind.apply(old, operand);
                if value == old {
                    return Step::Ready(old);
                }
                self.state = State::Conditional { old };
                Step::Issue(Op::StoreConditional { addr, value })
            }
            (Shape::LlSc { .. }, State::Conditional { old }, Some(Outcome::ScResult(true))) => {
                Step::Ready(old)
            }
            (&Shape::Poll { addr, .. }, State::Fresh, _) => {
                self.state = State::Waiting;
                Step::Issue(Op::UncachedLoad { addr })
            }
            (&Shape::Poll { pred, target, .. }, State::Waiting, Some(Outcome::Value(v))) => {
                if pred.eval(v) {
                    return Step::Ready(v);
                }
                self.state = State::Fresh;
                let distance = target.saturating_sub(v).max(1);
                let cycles = (BACKOFF_BASE * distance).clamp(BACKOFF_BASE, BACKOFF_CAP);
                Step::Issue(Op::Delay { cycles })
            }
            (shape, state, l) => panic!("Sub: unexpected {l:?} in {state:?} of {shape:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_types::NodeId;

    fn a() -> Addr {
        Addr::on_node(NodeId(0), 0x1000)
    }

    #[test]
    fn mechanism_labels_round_trip_and_legacy_spellings_parse() {
        for m in Mechanism::ALL {
            assert_eq!(Mechanism::parse(m.label()), Ok(m));
            assert_eq!(Mechanism::parse(&m.label().to_ascii_lowercase()), Ok(m));
        }
        for s in ["llsc", "ll/sc", "LLSC"] {
            assert_eq!(Mechanism::parse(s), Ok(Mechanism::LlSc), "{s}");
        }
        let err = Mechanism::parse("amoo").unwrap_err();
        assert!(
            err.contains("\"amoo\"") && err.contains("LL/SC, ActMsg"),
            "{err}"
        );
    }

    #[test]
    fn llsc_retries_until_sc_succeeds() {
        let mut fa = Sub::fetch_inc(Mechanism::LlSc, a(), 0);
        assert_eq!(fa.poll(None), Step::Issue(Op::LoadLinked { addr: a() }));
        assert_eq!(
            fa.poll(Some(Outcome::Value(5))),
            Step::Issue(Op::StoreConditional {
                addr: a(),
                value: 6
            })
        );
        // SC fails → retry from LL.
        assert_eq!(
            fa.poll(Some(Outcome::ScResult(false))),
            Step::Issue(Op::LoadLinked { addr: a() })
        );
        assert_eq!(
            fa.poll(Some(Outcome::Value(7))),
            Step::Issue(Op::StoreConditional {
                addr: a(),
                value: 8
            })
        );
        assert_eq!(fa.poll(Some(Outcome::ScResult(true))), Step::Ready(7));
    }

    #[test]
    fn atomic_is_single_op() {
        let mut fa = Sub::rmw(Mechanism::Atomic, AmoKind::FetchAdd, a(), 2);
        assert_eq!(
            fa.poll(None),
            Step::Issue(Op::AtomicRmw {
                kind: AmoKind::FetchAdd,
                addr: a(),
                operand: 2
            })
        );
        assert_eq!(fa.poll(Some(Outcome::Value(4))), Step::Ready(4));
    }

    #[test]
    fn amo_inc_used_for_tested_increments() {
        let mut fa = Sub::fetch_inc(Mechanism::Amo, a(), 0).amo_inc(Some(8));
        match fa.poll(None) {
            Step::Issue(Op::Amo {
                kind: AmoKind::Inc,
                test: Some(8),
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(fa.poll(Some(Outcome::Value(7))), Step::Ready(7));
        // Only an AMO fetch-and-add of one becomes `amo.inc`.
        let plain = Sub::fetch_inc(Mechanism::Mao, a(), 0).amo_inc(Some(8));
        let swap = Sub::rmw(Mechanism::Amo, AmoKind::Swap, a(), 1).amo_inc(None);
        for (mut sub, mut want) in [
            (plain, Sub::fetch_inc(Mechanism::Mao, a(), 0)),
            (swap, Sub::rmw(Mechanism::Amo, AmoKind::Swap, a(), 1)),
        ] {
            assert_eq!(sub.poll(None), want.poll(None));
        }
    }

    #[test]
    fn actmsg_carries_handler() {
        let publish = Publish {
            addr: a(),
            when_count: Some(4),
            value: Some(1),
            reset: false,
        };
        let mut fa = Sub::fetch_inc(Mechanism::ActMsg, a(), 3).publishing(publish);
        match fa.poll(None) {
            Step::Issue(Op::ActiveMsg {
                home,
                handler:
                    HandlerKind::FetchAdd {
                        ctr: 3,
                        operand: 1,
                        publish: Some(p),
                    },
            }) => assert_eq!((home, p), (NodeId(0), publish)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(fa.poll(Some(Outcome::Acked(9))), Step::Ready(9));
    }

    #[test]
    fn release_variants() {
        let store = Op::Store {
            addr: a(),
            value: 3,
        };
        for mech in [Mechanism::LlSc, Mechanism::Atomic, Mechanism::ActMsg] {
            assert_eq!(release(mech, a(), 3), store);
        }
        // MAO's release words are coherent: it stores too.
        assert_eq!(release(Mechanism::Mao, a(), 3), store);
        assert_eq!(
            release(Mechanism::Amo, a(), 3),
            Op::Amo {
                kind: AmoKind::FetchAdd,
                addr: a(),
                operand: 1,
                test: None,
            }
        );
        let mut r = Sub::once(release(Mechanism::Atomic, a(), 3));
        assert_eq!(r.poll(None), Step::Issue(store));
        assert_eq!(r.poll(Some(Outcome::Stored)), Step::Ready(0));
    }

    #[test]
    fn coherent_spin_is_one_op() {
        let mut s = Sub::spin(a(), SpinPred::Ge(4));
        assert_eq!(
            s.poll(None),
            Step::Issue(Op::SpinUntil {
                addr: a(),
                pred: SpinPred::Ge(4)
            })
        );
        assert_eq!(s.poll(Some(Outcome::SpinDone(5))), Step::Ready(5));
    }

    #[test]
    fn rmw_swap_and_cas_via_llsc() {
        let mut s = Sub::rmw(Mechanism::LlSc, AmoKind::Swap, a(), 7);
        assert_eq!(s.poll(None), Step::Issue(Op::LoadLinked { addr: a() }));
        assert_eq!(
            s.poll(Some(Outcome::Value(3))),
            Step::Issue(Op::StoreConditional {
                addr: a(),
                value: 7
            })
        );
        assert_eq!(s.poll(Some(Outcome::ScResult(true))), Step::Ready(3));

        // Failed CAS returns without storing.
        let mut c = Sub::rmw(Mechanism::LlSc, AmoKind::Cas { expected: 9 }, a(), 1);
        c.poll(None);
        assert_eq!(c.poll(Some(Outcome::Value(3))), Step::Ready(3));

        // Successful CAS stores.
        let mut c = Sub::rmw(Mechanism::LlSc, AmoKind::Cas { expected: 3 }, a(), 1);
        c.poll(None);
        assert_eq!(
            c.poll(Some(Outcome::Value(3))),
            Step::Issue(Op::StoreConditional {
                addr: a(),
                value: 1
            })
        );
    }

    #[test]
    fn rmw_amo_issues_untested_amo() {
        let mut s = Sub::rmw(Mechanism::Amo, AmoKind::Swap, a(), 7);
        match s.poll(None) {
            Step::Issue(Op::Amo {
                kind: AmoKind::Swap,
                operand: 7,
                test: None,
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.poll(Some(Outcome::Value(0))), Step::Ready(0));
    }

    #[test]
    #[should_panic(expected = "no generic RMW")]
    fn rmw_rejects_actmsg() {
        let _ = Sub::rmw(Mechanism::ActMsg, AmoKind::Swap, a(), 1);
    }

    #[test]
    fn uncached_spin_backs_off_proportionally() {
        let mut s = Sub::uncached(a(), SpinPred::Ge(10), 10);
        assert_eq!(s.poll(None), Step::Issue(Op::UncachedLoad { addr: a() }));
        // Value 4: six away from the target → six base delays.
        assert_eq!(
            s.poll(Some(Outcome::Value(4))),
            Step::Issue(Op::Delay { cycles: 2_400 })
        );
        assert_eq!(
            s.poll(Some(Outcome::Delayed)),
            Step::Issue(Op::UncachedLoad { addr: a() })
        );
        // Far behind: the delay is capped.
        let mut far = Sub::uncached(a(), SpinPred::Ge(100), 100);
        far.poll(None);
        assert_eq!(
            far.poll(Some(Outcome::Value(0))),
            Step::Issue(Op::Delay { cycles: 20_000 })
        );
        assert_eq!(s.poll(Some(Outcome::Value(10))), Step::Ready(10));
    }
}
