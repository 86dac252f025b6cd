//! The tracer abstraction: a compile-time on/off switch plus a bounded
//! ring buffer for the "on" case.

use amo_types::Cycle;

/// What a trace event describes. The `class`/`a`/`b` payload fields of
/// [`TraceEvent`] are interpreted per kind (documented on each variant).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// A message entered the fabric. `class` = `MsgClass` index, `a` =
    /// destination node, `b` = the send's zero-load latency in cycles
    /// (serialization + hop pipeline, no queueing) — the critical-path
    /// engine splits the span into serialization vs contention with it.
    /// Span: injection → delivery at the destination hub.
    MsgSend,
    /// A message was delivered to a hub. `class` = `MsgClass` index,
    /// `a` = source node.
    MsgRecv,
    /// A payload was delivered to a processor (reply, active message, or
    /// word update). `class` = `MsgClass` index, `a` = source node.
    ProcRecv,
    /// The directory serviced one request. Span covers the occupancy
    /// cycles. `class` = `MsgClass` index of the request.
    DirService,
    /// A directory protocol transaction closed. Instant; `a` = number of
    /// transactions still open at this node.
    DirTxnEnd,
    /// An AMU executed one queued operation. Span: execution begin →
    /// reply injection. `a` = queue depth after dequeue.
    AmuOp,
    /// A kernel operation completed at a processor. Span: issue →
    /// completion. `class` = `OpClass` index.
    OpComplete,
    /// A kernel phase marker (barrier episode boundary, lock handoff...).
    /// `a` = the kernel's mark value.
    Mark,
    /// A kernel ran to completion on this processor.
    KernelDone,
    /// A link-level CRC-error replay occurred somewhere on the path of a
    /// message injected at this node. Instant; `a` = retransmissions, `b`
    /// = extra replay cycles charged.
    LinkRetry,
    /// The home AMU NACKed a dispatch (full queue or brown-out).
    /// Instant; `a` = requesting processor.
    AmuNack,
    /// The machine aborted with a typed error. Instant on node 0;
    /// `a` = cycle of the abort.
    Fault,
    /// A delivery fault dropped a message at the destination interface.
    /// Instant at the destination node; `class` = `MsgClass` index,
    /// `a` = source node.
    MsgDrop,
    /// A delivery fault duplicated a message at the destination
    /// interface. Instant at the destination node; `class` = `MsgClass`
    /// index, `a` = source node.
    MsgDup,
    /// A requester-side end-to-end timeout fired on an outstanding
    /// request. Instant at the requester's node; `a` = requesting
    /// processor, `b` = retransmission attempt.
    E2eTimeout,
    /// The home AMU *applied* one operation to memory (dedup-suppressed
    /// replays of an already-served request do **not** produce this
    /// event — that asymmetry is exactly what the at-most-once monitor
    /// checks). Instant at the home node; `proc` = requester, `flow` =
    /// the request's tag, `a` = target address, `b` = the pre-apply
    /// word value.
    AmuApply,
    /// The directory removed an entry from its slab arena. Instant at
    /// the home node; `a` = the block address released, `b` = 1 if the
    /// entry was idle at removal (the directory-sanity monitor flags
    /// `b = 0`: an entry reclaimed mid-transaction).
    DirReclaim,
}

impl TraceKind {
    /// Short stable label used in text dumps and Perfetto event names.
    pub(crate) fn label(self) -> &'static str {
        match self {
            TraceKind::MsgSend => "send",
            TraceKind::MsgRecv => "recv",
            TraceKind::ProcRecv => "deliver",
            TraceKind::DirService => "dir",
            TraceKind::DirTxnEnd => "txn-end",
            TraceKind::AmuOp => "amu",
            TraceKind::OpComplete => "op",
            TraceKind::Mark => "mark",
            TraceKind::KernelDone => "done",
            TraceKind::LinkRetry => "link-retry",
            TraceKind::AmuNack => "amu-nack",
            TraceKind::Fault => "fault",
            TraceKind::MsgDrop => "msg-drop",
            TraceKind::MsgDup => "msg-dup",
            TraceKind::E2eTimeout => "e2e-timeout",
            TraceKind::AmuApply => "amu-apply",
            TraceKind::DirReclaim => "dir-reclaim",
        }
    }
}

/// A semantic-invariant violation detected by an online monitor while
/// observing the trace stream. The machine converts this into a typed
/// `SimError` (kind `MonitorViolation`) and aborts the run.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Stable name of the monitor that fired (e.g. `"mutual-exclusion"`).
    pub monitor: &'static str,
    /// Human-readable account of the violated invariant, with the
    /// witnessing values.
    pub detail: String,
    /// Cycle of the witnessing event.
    pub at: Cycle,
}

/// One trace record. Fixed-size and `Copy` so the ring buffer never
/// allocates per event.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Start cycle.
    pub when: Cycle,
    /// Duration in cycles; 0 renders as an instant.
    pub dur: Cycle,
    /// What happened.
    pub kind: TraceKind,
    /// Node the event belongs to (Perfetto process).
    pub node: u16,
    /// Machine-wide processor id, or [`TraceEvent::NO_PROC`] for
    /// hub-level events (directory/AMU/NoC).
    pub proc: u16,
    /// `MsgClass` or `OpClass` index, per [`TraceKind`].
    pub class: u8,
    /// Kind-specific payload (see [`TraceKind`]).
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
    /// Causal flow identity (`ReqId::flow`): every event in one
    /// request's life — injection, hub receipt, directory service, AMU
    /// execution, NACKs, retries, reply, kernel-op completion — carries
    /// the same nonzero value. 0 = the event belongs to no flow.
    pub flow: u64,
    /// Flow id of the causal parent chain, when this event's flow was
    /// spawned by another: a kernel op that issues several requests
    /// (LL/SC sequences, retries under a fresh tag) links each follow-up
    /// flow back to the op's root flow. 0 = no parent link.
    pub parent: u64,
}

impl TraceEvent {
    /// Sentinel for "no processor": the event belongs to a hub component.
    pub const NO_PROC: u16 = u16::MAX;

    /// An instant event at a node's hub.
    pub fn instant(kind: TraceKind, node: u16, when: Cycle) -> Self {
        TraceEvent {
            when,
            dur: 0,
            kind,
            node,
            proc: Self::NO_PROC,
            class: 0,
            a: 0,
            b: 0,
            flow: 0,
            parent: 0,
        }
    }

    /// A span event at a node's hub; `end < start` clamps to an instant.
    pub fn span(kind: TraceKind, node: u16, start: Cycle, end: Cycle) -> Self {
        TraceEvent {
            dur: end.saturating_sub(start),
            ..Self::instant(kind, node, start)
        }
    }

    /// Attach a processor id (moves the event onto that processor's
    /// track).
    pub fn on_proc(mut self, proc: u16) -> Self {
        self.proc = proc;
        self
    }

    /// Attach a class index (`MsgClass` or `OpClass` per kind).
    pub fn class(mut self, class: usize) -> Self {
        self.class = class as u8;
        self
    }

    /// Attach the kind-specific payload words.
    pub fn args(mut self, a: u64, b: u64) -> Self {
        self.a = a;
        self.b = b;
        self
    }

    /// Attach a causal flow id (`ReqId::flow`; 0 = none).
    pub fn flow(mut self, flow: u64) -> Self {
        self.flow = flow;
        self
    }

    /// Attach a parent flow link (0 = none).
    pub fn parent(mut self, parent: u64) -> Self {
        self.parent = parent;
        self
    }
}

/// A drained trace: events in recording order plus how many older events
/// the ring discarded to stay within capacity.
#[derive(Clone, Debug, Default)]
pub struct TraceBuf {
    /// Events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events overwritten before the drain (0 unless the run outgrew the
    /// ring).
    pub dropped: u64,
}

/// The instrumentation switch. The simulator is generic over this trait;
/// hooks are written `if T::ENABLED { self.tracer.record(...) }` so a
/// disabled tracer costs nothing — the branch and the event construction
/// fold away at compile time.
pub trait Tracer {
    /// Compile-time switch every hook is guarded by.
    const ENABLED: bool;

    /// Record one event. Must be O(1) and allocation-free in the steady
    /// state.
    fn record(&mut self, ev: TraceEvent);

    /// Drain the recorded events, if this tracer keeps any.
    fn take_buf(&mut self) -> Option<TraceBuf> {
        None
    }

    /// Consume the first monitor violation this tracer has detected, if
    /// it runs online monitors (see `amo-verify`). Polled by the machine
    /// after every dispatched batch — but only under `Self::ENABLED`, so
    /// the default `NopTracer` path never even branches on it.
    fn take_violation(&mut self) -> Option<Violation> {
        None
    }
}

/// The default tracer: zero-sized, compile-time disabled.
#[derive(Clone, Copy, Default, Debug)]
pub struct NopTracer;

impl Tracer for NopTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _ev: TraceEvent) {}
}

/// A fixed-capacity ring tracer: keeps the most recent `cap` events,
/// counting (not storing) anything older.
#[derive(Debug)]
pub struct RingTracer {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next write position once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl RingTracer {
    /// Ring with room for `cap` events (at least 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        RingTracer {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    /// True if nothing has been recorded (or everything was drained).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten so far.
    #[cfg(test)]
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Tracer for RingTracer {
    const ENABLED: bool = true;

    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    fn take_buf(&mut self) -> Option<TraceBuf> {
        let mut events = std::mem::take(&mut self.buf);
        // Rotate so the oldest surviving event comes first.
        events.rotate_left(self.head);
        let dropped = self.dropped;
        self.head = 0;
        self.dropped = 0;
        Some(TraceBuf { events, dropped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_tracer_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NopTracer>(), 0);
        const { assert!(!NopTracer::ENABLED) };
        let mut t = NopTracer;
        t.record(TraceEvent::instant(TraceKind::Mark, 0, 1));
        assert!(t.take_buf().is_none());
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut t = RingTracer::new(3);
        for i in 0..5u64 {
            t.record(TraceEvent::instant(TraceKind::Mark, 0, i));
        }
        assert_eq!(t.dropped(), 2);
        let buf = t.take_buf().unwrap();
        assert_eq!(buf.dropped, 2);
        let whens: Vec<u64> = buf.events.iter().map(|e| e.when).collect();
        assert_eq!(whens, vec![2, 3, 4]);
        // Drained: ring restarts clean.
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_without_wrap_preserves_order() {
        let mut t = RingTracer::new(10);
        for i in 0..4u64 {
            t.record(TraceEvent::span(TraceKind::AmuOp, 1, i, i + 2));
        }
        let buf = t.take_buf().unwrap();
        assert_eq!(buf.dropped, 0);
        assert_eq!(buf.events.len(), 4);
        assert!(buf.events.windows(2).all(|w| w[0].when <= w[1].when));
        assert_eq!(buf.events[0].dur, 2);
    }
}
