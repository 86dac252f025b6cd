//! Wire-message catalogue: every message that crosses the interconnect or
//! the local bus, with its packet size.
//!
//! The protocol is a home-centric invalidation directory protocol (the
//! paper's SN2-style protocol) extended with the AMO paper's additions:
//! fine-grained word updates ("puts") pushed from the home directory to
//! sharing nodes, AMO command/reply messages, MAO (uncached memory-side
//! atomic) messages, and active messages with acks.

use crate::addr::{Addr, BlockAddr};
use crate::config::NetworkConfig;
use crate::ids::{ProcId, ReqId};
use crate::Word;

/// The data contents of one cache block, carried by data replies,
/// writebacks, and intervention replies. Tracking real values lets tests
/// assert *functional* correctness (mutual exclusion, barrier counts) on
/// top of timing behaviour.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockData(pub Box<[Word]>);

impl BlockData {
    /// An all-zero block of `words` words.
    pub fn zeroed(words: usize) -> Self {
        BlockData(vec![0; words].into_boxed_slice())
    }

    /// Word count of the block.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the block holds no words.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Read word `idx`.
    pub fn word(&self, idx: usize) -> Word {
        self.0[idx]
    }

    /// Write word `idx`.
    pub fn set_word(&mut self, idx: usize, v: Word) {
        self.0[idx] = v;
    }
}

/// The AMO/MAO operation repertoire. The paper's study uses `amo.inc`
/// (increment by one) and `amo.fetchadd` (add an operand); it notes "we
/// are considering a wide range of AMO instructions", so this library
/// also implements the natural extensions (`swap`, `cas`, `max`, `min`)
/// that queue-based locks and reductions need. All return the original
/// value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AmoKind {
    /// Increment by one; returns the pre-increment value.
    Inc,
    /// Add the operand; returns the pre-add value.
    FetchAdd,
    /// Store the operand; returns the previous value.
    Swap,
    /// Store the operand iff the current value equals `expected`;
    /// returns the previous value (compare with `expected` to learn the
    /// outcome).
    Cas {
        /// Comparison value.
        expected: Word,
    },
    /// Store max(current, operand); returns the previous value.
    Max,
    /// Store min(current, operand); returns the previous value.
    Min,
}

impl AmoKind {
    /// Apply the operation to `old`, producing the new stored value.
    pub fn apply(self, old: Word, operand: Word) -> Word {
        match self {
            AmoKind::Inc => old.wrapping_add(1),
            AmoKind::FetchAdd => old.wrapping_add(operand),
            AmoKind::Swap => operand,
            AmoKind::Cas { expected } => {
                if old == expected {
                    operand
                } else {
                    old
                }
            }
            AmoKind::Max => old.max(operand),
            AmoKind::Min => old.min(operand),
        }
    }

    /// Whether an AMO of this kind without a test value pushes a put
    /// after the operation. `amo.inc` accumulates silently (its put is
    /// the delayed, test-triggered one); every other mutating operation
    /// publishes its result immediately, as `amo.fetchadd` does in the
    /// paper. A no-op (failed CAS, max/min keeping the old value) pushes
    /// nothing.
    pub fn eager_put(self, old: Word, new: Word) -> bool {
        match self {
            AmoKind::Inc => false,
            _ => new != old,
        }
    }
}

/// Whether an intervention asks the owner to downgrade to Shared (another
/// reader) or invalidate entirely (another writer).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InterventionKind {
    /// Downgrade to Shared; home regains an up-to-date memory copy.
    Shared,
    /// Invalidate; ownership migrates to the new requester.
    Exclusive,
}

/// What the (former) owner reports back to home after an intervention.
#[derive(Clone, PartialEq, Debug)]
pub enum InterventionResp {
    /// Owner had the block dirty; here is the current data.
    Dirty(BlockData),
    /// Owner had the block clean (Exclusive); home memory is up to date.
    Clean,
    /// Owner had already evicted the block — its writeback is in flight
    /// and will complete the transaction when it arrives.
    Gone,
}

/// Predicate a spinning processor evaluates against the watched word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpinPred {
    /// Spin until the word equals the value.
    Eq(Word),
    /// Spin until the word differs from the value.
    Ne(Word),
    /// Spin until the word is at least the value.
    Ge(Word),
}

impl SpinPred {
    /// Evaluate the predicate.
    pub fn eval(self, v: Word) -> bool {
        match self {
            SpinPred::Eq(x) => v == x,
            SpinPred::Ne(x) => v != x,
            SpinPred::Ge(x) => v >= x,
        }
    }
}

/// Side effect a handler performs after its fetch-add: a coherent store
/// issued by the home processor (this is how an active-message barrier
/// publishes completion to spinners).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Publish {
    /// Coherent address the home processor stores to.
    pub addr: Addr,
    /// Publish when the post-add counter equals this.
    pub when_count: Word,
    /// Value to store.
    pub value: Word,
}

/// The user-level handler an active message names. Handlers run on the
/// home node's *processor* (that is the point of comparison with AMOs:
/// same placement, but software invocation cost and CPU interference).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HandlerKind {
    /// Atomically add `operand` to node-local service counter `ctr`,
    /// reply with the pre-add value, and optionally publish.
    FetchAdd {
        /// Index of the node-local service counter.
        ctr: u16,
        /// Amount to add.
        operand: Word,
        /// Optional coherent store performed after the add.
        publish: Option<Publish>,
    },
    /// Home-mediated lock acquisition: the handler assigns a ticket and
    /// **defers the ack until the ticket is granted** — the ack *is* the
    /// grant. While a waiter is queued its retransmission timer keeps
    /// firing, and every duplicate re-runs the handler (deduplicated in
    /// state, but the home CPU still pays the invocation) — exactly the
    /// interference and traffic blow-up the paper attributes to active
    /// messages under heavy contention.
    LockAcquire {
        /// Home-side lock index.
        lock: u16,
    },
    /// Home-mediated lock release: advances the grant count, acks the
    /// releaser, and pushes the deferred grant ack to the next waiter.
    LockRelease {
        /// Home-side lock index.
        lock: u16,
    },
}

/// Everything that can travel between components.
#[derive(Clone, PartialEq, Debug)]
pub enum Payload {
    // ----- processor cache -> home directory -----
    /// Read request: give me a Shared copy of the block.
    GetS {
        /// Request tag.
        req: ReqId,
        /// Requesting processor.
        requester: ProcId,
        /// Target block.
        block: BlockAddr,
    },
    /// Write request: give me an Exclusive copy of the block.
    GetX {
        /// Request tag.
        req: ReqId,
        /// Requesting processor.
        requester: ProcId,
        /// Target block.
        block: BlockAddr,
    },
    /// I hold the block Shared and want Exclusive without a data transfer.
    Upgrade {
        /// Request tag.
        req: ReqId,
        /// Requesting processor.
        requester: ProcId,
        /// Target block.
        block: BlockAddr,
    },
    /// Eviction of a Modified block: data returns to home memory.
    Writeback {
        /// Evicting processor.
        requester: ProcId,
        /// Target block.
        block: BlockAddr,
        /// The dirty block contents.
        data: BlockData,
    },

    // ----- home directory -> processor cache -----
    /// Data reply granting a Shared copy.
    DataS {
        /// Matches the originating request.
        req: ReqId,
        /// Target block.
        block: BlockAddr,
        /// Block contents.
        data: BlockData,
    },
    /// Data reply granting an Exclusive copy.
    DataX {
        /// Matches the originating request.
        req: ReqId,
        /// Target block.
        block: BlockAddr,
        /// Block contents.
        data: BlockData,
    },
    /// Grant of an upgrade (requester already has the data).
    UpgradeAck {
        /// Matches the originating request.
        req: ReqId,
        /// Target block.
        block: BlockAddr,
    },

    // ----- invalidation -----
    /// Home tells a sharer to drop its copy.
    Inv {
        /// Target block.
        block: BlockAddr,
    },
    /// Sharer acknowledges the invalidation back to home.
    InvAck {
        /// Target block.
        block: BlockAddr,
        /// Which processor acked.
        from: ProcId,
    },

    // ----- interventions (Exclusive owner elsewhere) -----
    /// Home asks the current owner to downgrade or invalidate.
    Intervention {
        /// Downgrade-to-Shared or invalidate.
        kind: InterventionKind,
        /// Target block.
        block: BlockAddr,
    },
    /// Owner reports back to home: dirty data, clean, or already evicted.
    InterventionReply {
        /// Target block.
        block: BlockAddr,
        /// Responding (former) owner.
        from: ProcId,
        /// Dirty data / clean / gone.
        resp: InterventionResp,
    },

    // ----- fine-grained update push (the AMO paper's "put") -----
    /// Home pushes one updated word to a sharing node. Applied to every
    /// local cache holding the block without changing coherence state.
    WordUpdate {
        /// Updated word's address.
        addr: Addr,
        /// New value.
        value: Word,
    },

    // ----- Active Memory Operations -----
    /// Processor ships an atomic operation to the home AMU.
    AmoReq {
        /// Request tag.
        req: ReqId,
        /// Requesting processor.
        requester: ProcId,
        /// Operation.
        kind: AmoKind,
        /// Target word (must be word-aligned).
        addr: Addr,
        /// Operand for `FetchAdd` (ignored by `Inc`).
        operand: Word,
        /// Test value: when the operation's *result* equals this, the AMU
        /// issues a fine-grained put (the "delayed update"). `FetchAdd`
        /// with `test == None` puts immediately, per the paper.
        test: Option<Word>,
    },
    /// AMU's reply carrying the pre-operation value.
    AmoReply {
        /// Matches the originating request.
        req: ReqId,
        /// Pre-operation value of the word.
        old: Word,
    },

    // ----- conventional memory-side atomics (MAO; uncached IO space) -----
    /// Uncached memory-side atomic (SGI Origin 2000 / Cray T3E style).
    MaoReq {
        /// Request tag.
        req: ReqId,
        /// Requesting processor.
        requester: ProcId,
        /// Operation.
        kind: AmoKind,
        /// Target word in uncached space.
        addr: Addr,
        /// Operand.
        operand: Word,
    },
    /// MAO reply carrying the pre-operation value.
    MaoReply {
        /// Matches the originating request.
        req: ReqId,
        /// Pre-operation value.
        old: Word,
    },
    /// Uncached word read (MAO-style spinning bypasses the caches).
    UncachedRead {
        /// Request tag.
        req: ReqId,
        /// Requesting processor.
        requester: ProcId,
        /// Target word.
        addr: Addr,
    },
    /// Reply to an uncached read.
    UncachedReadReply {
        /// Matches the originating request.
        req: ReqId,
        /// Current value.
        value: Word,
    },

    // ----- active messages -----
    /// User-level message executed by the target node's processor.
    ActiveMsg {
        /// Request tag.
        req: ReqId,
        /// Sender.
        requester: ProcId,
        /// Processor that runs the handler (a fixed CPU of the home node).
        target_proc: ProcId,
        /// Handler to run. Boxed: [`HandlerKind`] is the workspace's one
        /// fat message field (64 bytes of handler arguments), and inlining
        /// it here would double the size of *every* queued event. Active
        /// messages are orders of magnitude rarer than coherence traffic,
        /// so one allocation per send (not per hop) is the right trade;
        /// the layout guards pin [`Payload`]'s resulting size.
        handler: Box<HandlerKind>,
        /// Retransmission attempt number (0 = first send).
        attempt: u32,
    },
    /// Handler's acknowledgement, carrying its result.
    ActMsgAck {
        /// Matches the originating request.
        req: ReqId,
        /// Handler result (e.g. pre-add counter value).
        result: Word,
    },

    // ----- fault / overload recovery -----
    /// Home AMU refuses an AMO/MAO dispatch (full queue or brown-out);
    /// the requester backs off and resends the same request.
    AmuNack {
        /// Matches the refused request.
        req: ReqId,
        /// Statistics class of the refused request, so the NACK is
        /// accounted on the same traffic family it belongs to.
        class: crate::stats::MsgClass,
    },
}

impl Payload {
    /// Bytes this message occupies on a link, under `net`'s framing.
    /// Control messages are one minimum packet; block-data messages add the
    /// line size to the header.
    pub fn size_bytes(&self, net: &NetworkConfig) -> u64 {
        let ctl = net.min_packet_bytes;
        match self {
            Payload::DataS { data, .. }
            | Payload::DataX { data, .. }
            | Payload::Writeback { data, .. } => net.header_bytes + data.len() as u64 * 8,
            Payload::InterventionReply {
                resp: InterventionResp::Dirty(d),
                ..
            } => net.header_bytes + d.len() as u64 * 8,
            _ => ctl,
        }
    }

    /// Statistics class of the message.
    pub fn class(&self) -> crate::stats::MsgClass {
        use crate::stats::MsgClass;
        match self {
            Payload::GetS { .. } | Payload::GetX { .. } | Payload::Upgrade { .. } => {
                MsgClass::Request
            }
            Payload::DataS { .. } | Payload::DataX { .. } | Payload::Writeback { .. } => {
                MsgClass::Data
            }
            Payload::UpgradeAck { .. } => MsgClass::Ack,
            Payload::Inv { .. } => MsgClass::Inv,
            Payload::InvAck { .. } => MsgClass::InvAck,
            Payload::Intervention { .. } | Payload::InterventionReply { .. } => {
                MsgClass::Intervention
            }
            Payload::WordUpdate { .. } => MsgClass::WordUpdate,
            Payload::AmoReq { .. } | Payload::AmoReply { .. } => MsgClass::Amo,
            Payload::MaoReq { .. }
            | Payload::MaoReply { .. }
            | Payload::UncachedRead { .. }
            | Payload::UncachedReadReply { .. } => MsgClass::Mao,
            Payload::ActiveMsg { .. } | Payload::ActMsgAck { .. } => MsgClass::ActMsg,
            Payload::AmuNack { class, .. } => *class,
        }
    }

    /// Request tag carried by the message, if any.
    pub fn req(&self) -> Option<ReqId> {
        match self {
            Payload::GetS { req, .. }
            | Payload::GetX { req, .. }
            | Payload::Upgrade { req, .. }
            | Payload::DataS { req, .. }
            | Payload::DataX { req, .. }
            | Payload::UpgradeAck { req, .. }
            | Payload::AmoReq { req, .. }
            | Payload::AmoReply { req, .. }
            | Payload::MaoReq { req, .. }
            | Payload::MaoReply { req, .. }
            | Payload::UncachedRead { req, .. }
            | Payload::UncachedReadReply { req, .. }
            | Payload::ActiveMsg { req, .. }
            | Payload::ActMsgAck { req, .. }
            | Payload::AmuNack { req, .. } => Some(*req),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn net() -> NetworkConfig {
        SystemConfig::default().network
    }

    #[test]
    fn amo_kind_semantics() {
        assert_eq!(AmoKind::Inc.apply(5, 999), 6);
        assert_eq!(AmoKind::FetchAdd.apply(5, 3), 8);
        assert_eq!(AmoKind::Inc.apply(Word::MAX, 0), 0); // wraps
        assert_eq!(AmoKind::Swap.apply(5, 9), 9);
        assert_eq!(AmoKind::Cas { expected: 5 }.apply(5, 9), 9);
        assert_eq!(AmoKind::Cas { expected: 4 }.apply(5, 9), 5);
        assert_eq!(AmoKind::Max.apply(5, 9), 9);
        assert_eq!(AmoKind::Max.apply(9, 5), 9);
        assert_eq!(AmoKind::Min.apply(5, 9), 5);
    }

    #[test]
    fn eager_put_rules() {
        assert!(!AmoKind::Inc.eager_put(1, 2));
        assert!(AmoKind::FetchAdd.eager_put(1, 3));
        assert!(AmoKind::Swap.eager_put(1, 2));
        assert!(!AmoKind::Swap.eager_put(2, 2), "no-op swap pushes nothing");
        assert!(AmoKind::Cas { expected: 1 }.eager_put(1, 7));
        assert!(
            !AmoKind::Cas { expected: 0 }.eager_put(1, 1),
            "failed CAS pushes nothing"
        );
    }

    #[test]
    fn spin_preds() {
        assert!(SpinPred::Eq(4).eval(4));
        assert!(!SpinPred::Eq(4).eval(3));
        assert!(SpinPred::Ne(4).eval(5));
        assert!(SpinPred::Ge(4).eval(4));
        assert!(SpinPred::Ge(4).eval(9));
        assert!(!SpinPred::Ge(4).eval(3));
    }

    #[test]
    fn control_messages_are_min_packet() {
        let p = Payload::GetS {
            req: ReqId(1),
            requester: ProcId(0),
            block: BlockAddr(0),
        };
        assert_eq!(p.size_bytes(&net()), 32);
        let u = Payload::WordUpdate {
            addr: Addr(0),
            value: 7,
        };
        assert_eq!(u.size_bytes(&net()), 32);
    }

    #[test]
    fn data_messages_carry_the_block() {
        let p = Payload::DataS {
            req: ReqId(1),
            block: BlockAddr(0),
            data: BlockData::zeroed(16),
        };
        // 32B header + 128B block.
        assert_eq!(p.size_bytes(&net()), 160);
    }

    #[test]
    fn dataless_intervention_reply_is_control_sized() {
        let p = Payload::InterventionReply {
            block: BlockAddr(0),
            from: ProcId(1),
            resp: InterventionResp::Clean,
        };
        assert_eq!(p.size_bytes(&net()), 32);
        let gone = Payload::InterventionReply {
            block: BlockAddr(0),
            from: ProcId(1),
            resp: InterventionResp::Gone,
        };
        assert_eq!(gone.size_bytes(&net()), 32);
        let dirty = Payload::InterventionReply {
            block: BlockAddr(0),
            from: ProcId(1),
            resp: InterventionResp::Dirty(BlockData::zeroed(16)),
        };
        assert_eq!(dirty.size_bytes(&net()), 160);
    }

    #[test]
    fn block_data_accessors() {
        let mut b = BlockData::zeroed(16);
        assert_eq!(b.len(), 16);
        b.set_word(3, 42);
        assert_eq!(b.word(3), 42);
        assert_eq!(b.word(0), 0);
    }

    #[test]
    fn req_extraction() {
        let p = Payload::AmoReply {
            req: ReqId(9),
            old: 0,
        };
        assert_eq!(p.req(), Some(ReqId(9)));
        let inv = Payload::Inv {
            block: BlockAddr(0),
        };
        assert_eq!(inv.req(), None);
    }
}
