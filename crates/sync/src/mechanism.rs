//! The five synchronization mechanisms and their reusable sub-state
//! machines (fetch-and-add, release write, spin).
//!
//! Kernels compose these: a sub-machine's `poll` either asks the
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
    pub fn uses_uncached_vars(self) -> bool {
        matches!(self, Mechanism::Mao)
    }
}

/// One step of a sub-machine: either an operation for the processor to
/// perform, or completion with a result value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Perform this op; feed the outcome back into `poll`.
    Issue(Op),
    /// Sub-machine complete; the carried value is mechanism-specific
    /// (old value for fetch-adds, satisfying value for spins, 0 for
    /// releases).
    Ready(Word),
}

/// Mechanism-generic atomic fetch-and-add on `addr`, returning the old
/// value.
///
/// ```
/// use amo_sync::mechanism::{FetchAddSub, Mechanism, Step};
/// use amo_cpu::{Op, Outcome};
/// use amo_types::{Addr, NodeId};
///
/// // An LL/SC fetch-add is a retry loop: the sub-machine re-issues the
/// // pair until the conditional store lands.
/// let addr = Addr::on_node(NodeId(0), 0x1000);
/// let mut fa = FetchAddSub::new(Mechanism::LlSc, addr, 1, 0);
/// assert_eq!(fa.poll(None), Step::Issue(Op::LoadLinked { addr }));
/// assert_eq!(
///     fa.poll(Some(Outcome::Value(6))),
///     Step::Issue(Op::StoreConditional { addr, value: 7 })
/// );
/// assert_eq!(fa.poll(Some(Outcome::ScResult(true))), Step::Ready(6));
/// ```
#[derive(Clone, Debug)]
pub struct FetchAddSub {
    mech: Mechanism,
    addr: Addr,
    operand: Word,
    /// AMO delayed-put test value (`amo.inc` barriers).
    test: Option<Word>,
    /// Force `amo.inc` (silent accumulation, no eager put) even without
    /// a test value — sense-reversing counters want this.
    force_inc: bool,
    /// Active-message handler parameters: service counter id and
    /// optional publish side effect (barriers).
    actmsg_ctr: u16,
    publish: Option<Publish>,
    state: FaState,
}

#[derive(Clone, Copy, Debug)]
enum FaState {
    Init,
    LlWait,
    ScWait { old: Word },
    ReplyWait,
}

impl FetchAddSub {
    /// Plain fetch-add (locks, tree counters).
    pub fn new(mech: Mechanism, addr: Addr, operand: Word, actmsg_ctr: u16) -> Self {
        FetchAddSub {
            mech,
            addr,
            operand,
            test: None,
            force_inc: false,
            actmsg_ctr,
            publish: None,
            state: FaState::Init,
        }
    }

    /// Fetch-add with an AMO test value (delayed put).
    pub fn with_test(mut self, test: Word) -> Self {
        self.test = Some(test);
        self
    }

    /// Use `amo.inc` under AMO even without a test value, so the count
    /// accumulates silently in the AMU cache (no eager puts). Requires
    /// operand 1.
    pub fn as_inc(mut self) -> Self {
        assert_eq!(self.operand, 1, "amo.inc increments by one");
        self.force_inc = true;
        self
    }

    /// Fetch-add whose active-message handler publishes on a count.
    pub fn with_publish(mut self, publish: Publish) -> Self {
        self.publish = Some(publish);
        self
    }

    /// Advance; `last` is the outcome of the previously issued op.
    pub fn poll(&mut self, last: Option<Outcome>) -> Step {
        match (self.state, last) {
            (FaState::Init, _) => match self.mech {
                Mechanism::LlSc => {
                    self.state = FaState::LlWait;
                    Step::Issue(Op::LoadLinked { addr: self.addr })
                }
                Mechanism::Atomic => {
                    self.state = FaState::ReplyWait;
                    Step::Issue(Op::AtomicRmw {
                        kind: AmoKind::FetchAdd,
                        addr: self.addr,
                        operand: self.operand,
                    })
                }
                Mechanism::ActMsg => {
                    self.state = FaState::ReplyWait;
                    Step::Issue(Op::ActiveMsg {
                        home: self.addr.home(),
                        handler: HandlerKind::FetchAdd {
                            ctr: self.actmsg_ctr,
                            operand: self.operand,
                            publish: self.publish,
                        },
                    })
                }
                Mechanism::Mao => {
                    self.state = FaState::ReplyWait;
                    Step::Issue(Op::Mao {
                        kind: AmoKind::FetchAdd,
                        addr: self.addr,
                        operand: self.operand,
                    })
                }
                Mechanism::Amo => {
                    self.state = FaState::ReplyWait;
                    let kind = if self.operand == 1 && (self.test.is_some() || self.force_inc) {
                        AmoKind::Inc
                    } else {
                        AmoKind::FetchAdd
                    };
                    Step::Issue(Op::Amo {
                        kind,
                        addr: self.addr,
                        operand: self.operand,
                        test: self.test,
                    })
                }
            },
            (FaState::LlWait, Some(Outcome::Value(old))) => {
                self.state = FaState::ScWait { old };
                Step::Issue(Op::StoreConditional {
                    addr: self.addr,
                    value: old.wrapping_add(self.operand),
                })
            }
            (FaState::ScWait { old }, Some(Outcome::ScResult(true))) => Step::Ready(old),
            (FaState::ScWait { .. }, Some(Outcome::ScResult(false))) => {
                // Retry the whole LL/SC pair.
                self.state = FaState::LlWait;
                Step::Issue(Op::LoadLinked { addr: self.addr })
            }
            (FaState::ReplyWait, Some(Outcome::Value(old) | Outcome::Acked(old))) => {
                Step::Ready(old)
            }
            (s, l) => panic!("FetchAddSub: unexpected ({s:?}, {l:?})"),
        }
    }
}

/// How a release write reaches the spinners.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RelMode {
    /// Coherent store: invalidates every spinner, who then reloads (the
    /// conventional wake-up storm).
    Store,
    /// Uncached AMU fetch-add: spinners must poll the home node (MAO
    /// locks).
    MaoInc,
    /// AMU fetch-add with an immediate put: one-way word updates land in
    /// every spinner's cache (AMO).
    AmoPush,
}

/// Mechanism-generic release: make a +1 increment of the release word
/// visible to spinners. The caller supplies the post-increment value
/// (releases have a single writer, so it is always known).
#[derive(Clone, Debug)]
pub struct ReleaseSub {
    mode: RelMode,
    addr: Addr,
    new_value: Word,
    issued: bool,
}

impl ReleaseSub {
    /// Default release for a mechanism whose *release word lives where
    /// its spinners look*: coherent store for LL/SC, Atomic, and ActMsg;
    /// uncached increment for MAO (whose lock words are uncached);
    /// pushing fetch-add for AMO.
    ///
    /// Algorithms that keep a **coherent** spin variable under MAO (the
    /// paper's optimized MAO barrier) must use
    /// [`ReleaseSub::coherent_store`] instead.
    pub fn new(mech: Mechanism, addr: Addr, new_value: Word) -> Self {
        let mode = match mech {
            Mechanism::LlSc | Mechanism::Atomic | Mechanism::ActMsg => RelMode::Store,
            Mechanism::Mao => RelMode::MaoInc,
            Mechanism::Amo => RelMode::AmoPush,
        };
        ReleaseSub {
            mode,
            addr,
            new_value,
            issued: false,
        }
    }

    /// A plain coherent-store release regardless of mechanism.
    pub fn coherent_store(addr: Addr, new_value: Word) -> Self {
        ReleaseSub {
            mode: RelMode::Store,
            addr,
            new_value,
            issued: false,
        }
    }

    /// Advance; `last` is the outcome of the previously issued op.
    pub fn poll(&mut self, last: Option<Outcome>) -> Step {
        if !self.issued {
            self.issued = true;
            return Step::Issue(match self.mode {
                RelMode::Store => Op::Store {
                    addr: self.addr,
                    value: self.new_value,
                },
                RelMode::MaoInc => Op::Mao {
                    kind: AmoKind::FetchAdd,
                    addr: self.addr,
                    operand: 1,
                },
                RelMode::AmoPush => Op::Amo {
                    kind: AmoKind::FetchAdd,
                    addr: self.addr,
                    operand: 1,
                    test: None,
                },
            });
        }
        match last {
            Some(Outcome::Stored | Outcome::Value(_)) => Step::Ready(0),
            l => panic!("ReleaseSub: unexpected {l:?}"),
        }
    }
}

/// Mechanism-generic spin until a word satisfies a predicate. Coherent
/// spins sleep in the cache; the MAO variant polls the home node with
/// MCS-style proportional backoff.
#[derive(Clone, Debug)]
pub struct SpinSub {
    addr: Addr,
    pred: SpinPred,
    uncached: Option<BackoffCfg>,
    state: SpinState,
}

/// Backoff parameters for uncached (MAO) spinning.
#[derive(Clone, Copy, Debug)]
pub struct BackoffCfg {
    /// Base delay per unit of distance from the target (proportional
    /// backoff: waiting behind k holders waits ~k× longer).
    pub base: Cycle,
    /// Cap on a single backoff delay.
    pub cap: Cycle,
    /// Target value used to compute the distance.
    pub target: Word,
}

impl Default for BackoffCfg {
    fn default() -> Self {
        BackoffCfg {
            base: 400,
            cap: 20_000,
            target: 0,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum SpinState {
    Init,
    Waiting,
    Backoff,
}

impl SpinSub {
    /// Coherent cached spin (LL/SC, Atomic, ActMsg, AMO — and the
    /// optimized MAO barrier's separate spin variable).
    pub fn coherent(addr: Addr, pred: SpinPred) -> Self {
        SpinSub {
            addr,
            pred,
            uncached: None,
            state: SpinState::Init,
        }
    }

    /// Uncached remote spin with proportional backoff (MAO locks).
    pub fn uncached(addr: Addr, pred: SpinPred, backoff: BackoffCfg) -> Self {
        SpinSub {
            addr,
            pred,
            uncached: Some(backoff),
            state: SpinState::Init,
        }
    }

    /// Advance; `last` is the outcome of the previously issued op.
    pub fn poll(&mut self, last: Option<Outcome>) -> Step {
        match self.uncached {
            None => match (self.state, last) {
                (SpinState::Init, _) => {
                    self.state = SpinState::Waiting;
                    Step::Issue(Op::SpinUntil {
                        addr: self.addr,
                        pred: self.pred,
                    })
                }
                (SpinState::Waiting, Some(Outcome::SpinDone(v))) => Step::Ready(v),
                (s, l) => panic!("SpinSub: unexpected ({s:?}, {l:?})"),
            },
            Some(cfg) => match (self.state, last) {
                (SpinState::Init | SpinState::Backoff, _) => {
                    self.state = SpinState::Waiting;
                    Step::Issue(Op::UncachedLoad { addr: self.addr })
                }
                (SpinState::Waiting, Some(Outcome::Value(v))) => {
                    if self.pred.eval(v) {
                        Step::Ready(v)
                    } else {
                        self.state = SpinState::Backoff;
                        let dist = cfg.target.saturating_sub(v).max(1);
                        let wait = (cfg.base * dist).min(cfg.cap).max(cfg.base);
                        Step::Issue(Op::Delay { cycles: wait })
                    }
                }
                (s, l) => panic!("SpinSub(uncached): unexpected ({s:?}, {l:?})"),
            },
        }
    }
}

/// Mechanism-generic atomic read-modify-write of arbitrary
/// [`AmoKind`] — the generalization of [`FetchAddSub`] that queue locks
/// need (`swap` on the tail pointer, `cas` on release). Supported for
/// LL/SC, Atomic, MAO, and AMO; active messages have no generic RMW
/// handler (their locks are home-mediated instead).
#[derive(Clone, Debug)]
pub struct RmwSub {
    mech: Mechanism,
    kind: AmoKind,
    addr: Addr,
    operand: Word,
    state: FaState,
}

impl RmwSub {
    /// An atomic `kind` on `addr` with `operand`, returning the old value.
    pub fn new(mech: Mechanism, kind: AmoKind, addr: Addr, operand: Word) -> Self {
        assert!(
            mech != Mechanism::ActMsg,
            "active messages have no generic RMW; use home-mediated handlers"
        );
        RmwSub {
            mech,
            kind,
            addr,
            operand,
            state: FaState::Init,
        }
    }

    /// Advance; `last` is the outcome of the previously issued op.
    pub fn poll(&mut self, last: Option<Outcome>) -> Step {
        match (self.state, last) {
            (FaState::Init, _) => match self.mech {
                Mechanism::LlSc => {
                    self.state = FaState::LlWait;
                    Step::Issue(Op::LoadLinked { addr: self.addr })
                }
                Mechanism::Atomic => {
                    self.state = FaState::ReplyWait;
                    Step::Issue(Op::AtomicRmw {
                        kind: self.kind,
                        addr: self.addr,
                        operand: self.operand,
                    })
                }
                Mechanism::Mao => {
                    self.state = FaState::ReplyWait;
                    Step::Issue(Op::Mao {
                        kind: self.kind,
                        addr: self.addr,
                        operand: self.operand,
                    })
                }
                Mechanism::Amo => {
                    self.state = FaState::ReplyWait;
                    Step::Issue(Op::Amo {
                        kind: self.kind,
                        addr: self.addr,
                        operand: self.operand,
                        test: None,
                    })
                }
                Mechanism::ActMsg => unreachable!("rejected in new()"),
            },
            (FaState::LlWait, Some(Outcome::Value(old))) => {
                let new = self.kind.apply(old, self.operand);
                if new == old {
                    // Failed CAS / no-change max: classic LL/SC skips the
                    // store entirely.
                    return Step::Ready(old);
                }
                self.state = FaState::ScWait { old };
                Step::Issue(Op::StoreConditional {
                    addr: self.addr,
                    value: new,
                })
            }
            (FaState::ScWait { old }, Some(Outcome::ScResult(true))) => Step::Ready(old),
            (FaState::ScWait { .. }, Some(Outcome::ScResult(false))) => {
                self.state = FaState::LlWait;
                Step::Issue(Op::LoadLinked { addr: self.addr })
            }
            (FaState::ReplyWait, Some(Outcome::Value(old))) => Step::Ready(old),
            (s, l) => panic!("RmwSub: unexpected ({s:?}, {l:?})"),
        }
    }
}

/// One-shot active message: issue and wait for the ack. Used for
/// home-mediated lock acquire (where the ack is the deferred grant) and
/// release.
#[derive(Clone, Debug)]
pub struct MsgOpSub {
    home: amo_types::NodeId,
    handler: HandlerKind,
    issued: bool,
}

impl MsgOpSub {
    /// Send `handler` to `home` and complete on the ack.
    pub fn new(home: amo_types::NodeId, handler: HandlerKind) -> Self {
        MsgOpSub {
            home,
            handler,
            issued: false,
        }
    }

    /// Advance; `last` is the outcome of the previously issued op.
    pub fn poll(&mut self, last: Option<Outcome>) -> Step {
        if !self.issued {
            self.issued = true;
            return Step::Issue(Op::ActiveMsg {
                home: self.home,
                handler: self.handler,
            });
        }
        match last {
            Some(Outcome::Acked(v)) => Step::Ready(v),
            l => panic!("MsgOpSub: unexpected {l:?}"),
        }
    }
}

/// Active-message polling wait: repeatedly ask the home processor for a
/// service counter's value (a zero-operand fetch-add) until it reaches
/// the target, with proportional backoff between polls.
///
/// This is how an active-message ticket lock waits: the grant state
/// lives at the home processor, not in coherent memory, so waiting
/// costs messages — and under contention the home CPU saturates,
/// acks outrun their timeouts, and retransmissions multiply (the
/// paper's Figure 7 ActMsg traffic blow-up).
#[derive(Clone, Debug)]
pub struct MsgPollSub {
    home: amo_types::NodeId,
    ctr: u16,
    target: Word,
    backoff: BackoffCfg,
    state: SpinState,
    polls: u64,
}

impl MsgPollSub {
    /// Poll `ctr` at `home` until its value reaches `target`.
    pub fn new(home: amo_types::NodeId, ctr: u16, target: Word, backoff: BackoffCfg) -> Self {
        MsgPollSub {
            home,
            ctr,
            target,
            backoff,
            state: SpinState::Init,
            polls: 0,
        }
    }

    /// Deterministic jitter: desynchronizes poll bursts across waiters
    /// (real schedulers and networks do this for free; a lock-step
    /// discrete-event model must do it explicitly).
    fn jitter(&self) -> Cycle {
        let mut x = (self.target << 17) ^ (self.ctr as u64) << 9 ^ self.polls;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x % self.backoff.base.max(1)
    }

    fn poll_op(&self) -> Op {
        Op::ActiveMsg {
            home: self.home,
            handler: HandlerKind::FetchAdd {
                ctr: self.ctr,
                operand: 0,
                publish: None,
            },
        }
    }

    /// Advance; `last` is the outcome of the previously issued op.
    pub fn poll(&mut self, last: Option<Outcome>) -> Step {
        match (self.state, last) {
            (SpinState::Init | SpinState::Backoff, _) => {
                self.state = SpinState::Waiting;
                Step::Issue(self.poll_op())
            }
            (SpinState::Waiting, Some(Outcome::Acked(v))) => {
                self.polls += 1;
                if v >= self.target {
                    Step::Ready(v)
                } else {
                    self.state = SpinState::Backoff;
                    let dist = self.target.saturating_sub(v).max(1);
                    let wait = (self.backoff.base * dist)
                        .min(self.backoff.cap)
                        .max(self.backoff.base)
                        + self.jitter();
                    Step::Issue(Op::Delay { cycles: wait })
                }
            }
            (s, l) => panic!("MsgPollSub: unexpected ({s:?}, {l:?})"),
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
        let mut fa = FetchAddSub::new(Mechanism::LlSc, a(), 1, 0);
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
        let mut fa = FetchAddSub::new(Mechanism::Atomic, a(), 2, 0);
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
        let mut fa = FetchAddSub::new(Mechanism::Amo, a(), 1, 0).with_test(8);
        match fa.poll(None) {
            Step::Issue(Op::Amo {
                kind: AmoKind::Inc,
                test: Some(8),
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(fa.poll(Some(Outcome::Value(7))), Step::Ready(7));
    }

    #[test]
    fn actmsg_carries_handler() {
        let mut fa = FetchAddSub::new(Mechanism::ActMsg, a(), 1, 3);
        match fa.poll(None) {
            Step::Issue(Op::ActiveMsg {
                home,
                handler:
                    HandlerKind::FetchAdd {
                        ctr: 3,
                        operand: 1,
                        publish: None,
                    },
            }) => assert_eq!(home, NodeId(0)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(fa.poll(Some(Outcome::Acked(9))), Step::Ready(9));
    }

    #[test]
    fn release_variants() {
        let mut r = ReleaseSub::new(Mechanism::Atomic, a(), 3);
        assert_eq!(
            r.poll(None),
            Step::Issue(Op::Store {
                addr: a(),
                value: 3
            })
        );
        assert_eq!(r.poll(Some(Outcome::Stored)), Step::Ready(0));

        let mut r = ReleaseSub::new(Mechanism::Amo, a(), 3);
        match r.poll(None) {
            Step::Issue(Op::Amo {
                kind: AmoKind::FetchAdd,
                operand: 1,
                test: None,
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.poll(Some(Outcome::Value(2))), Step::Ready(0));

        let mut r = ReleaseSub::new(Mechanism::Mao, a(), 3);
        match r.poll(None) {
            Step::Issue(Op::Mao {
                kind: AmoKind::FetchAdd,
                operand: 1,
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn coherent_spin_is_one_op() {
        let mut s = SpinSub::coherent(a(), SpinPred::Ge(4));
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
        let mut s = RmwSub::new(Mechanism::LlSc, AmoKind::Swap, a(), 7);
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
        let mut c = RmwSub::new(Mechanism::LlSc, AmoKind::Cas { expected: 9 }, a(), 1);
        c.poll(None);
        assert_eq!(c.poll(Some(Outcome::Value(3))), Step::Ready(3));

        // Successful CAS stores.
        let mut c = RmwSub::new(Mechanism::LlSc, AmoKind::Cas { expected: 3 }, a(), 1);
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
        let mut s = RmwSub::new(Mechanism::Amo, AmoKind::Swap, a(), 7);
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
        let _ = RmwSub::new(Mechanism::ActMsg, AmoKind::Swap, a(), 1);
    }

    #[test]
    fn msg_poll_backs_off_and_completes() {
        let cfg = BackoffCfg {
            base: 500,
            cap: 10_000,
            target: 3,
        };
        let mut m = MsgPollSub::new(NodeId(1), 2, 3, cfg);
        match m.poll(None) {
            Step::Issue(Op::ActiveMsg {
                home,
                handler:
                    HandlerKind::FetchAdd {
                        ctr: 2,
                        operand: 0,
                        publish: None,
                    },
            }) => assert_eq!(home, NodeId(1)),
            other => panic!("unexpected {other:?}"),
        }
        // Value 1: two away → 1000-cycle proportional backoff plus
        // deterministic jitter below one base unit.
        match m.poll(Some(Outcome::Acked(1))) {
            Step::Issue(Op::Delay { cycles }) => {
                assert!((1000..1500).contains(&cycles), "{cycles}")
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            m.poll(Some(Outcome::Delayed)),
            Step::Issue(Op::ActiveMsg { .. })
        ));
        assert_eq!(m.poll(Some(Outcome::Acked(3))), Step::Ready(3));
    }

    #[test]
    fn uncached_spin_backs_off_proportionally() {
        let cfg = BackoffCfg {
            base: 100,
            cap: 10_000,
            target: 10,
        };
        let mut s = SpinSub::uncached(a(), SpinPred::Ge(10), cfg);
        assert_eq!(s.poll(None), Step::Issue(Op::UncachedLoad { addr: a() }));
        // Value 4: six away from the target → 600-cycle backoff.
        assert_eq!(
            s.poll(Some(Outcome::Value(4))),
            Step::Issue(Op::Delay { cycles: 600 })
        );
        assert_eq!(
            s.poll(Some(Outcome::Delayed)),
            Step::Issue(Op::UncachedLoad { addr: a() })
        );
        assert_eq!(s.poll(Some(Outcome::Value(10))), Step::Ready(10));
    }
}
