//! The processor as a cache-coherent client: drives one kernel through
//! a private cache hierarchy — dispatch, MSHR merging, the completion of
//! each op class, minimum residence, event-driven spinning — answers
//! coherence traffic, and injects the stores that active-message
//! handlers publish. Operations shipped whole to a home node are the
//! `remote` submodule's; executing other processors' handlers is the
//! `server` submodule's.

mod remote;
mod server;

use crate::kernel::{Kernel, Op, Outcome};
use amo_cache::{CacheHierarchy, Evicted, LineState, LlReservation, Probe};
use amo_types::stats::OpClass;
use amo_types::{
    Addr, BlockAddr, BlockData, Cycle, InterventionKind, InterventionResp, NodeId, Payload, ProcId,
    ReqId, SharedTape, SpinPred, Stats, SystemConfig, Word,
};
use server::HandlerServer;

/// Side effects the machine executes on the processor's behalf.
#[derive(Clone, Debug, PartialEq)]
pub enum ProcEffect {
    /// Send a message toward a node's hub (the machine adds bus latency
    /// and routes through the fabric).
    Send {
        /// Destination node.
        dst: NodeId,
        /// Message.
        payload: Payload,
    },
    /// Call [`Processor::step_into`] at `when`.
    Wake {
        /// Wake-up time.
        when: Cycle,
    },
    /// Call [`Processor::handler_done_into`] at `when`.
    HandlerWake {
        /// Handler completion time.
        when: Cycle,
    },
    /// Call [`Processor::timeout_into`] with `req` at `when` (active-message
    /// retransmission, AMU NACK backoff, or end-to-end delivery timer —
    /// `kind` says which, because their expiry actions differ).
    TimeoutAt {
        /// Outstanding request the timer guards.
        req: ReqId,
        /// Expiry time.
        when: Cycle,
        /// Which timer this is.
        kind: TimerKind,
    },
    /// The kernel finished at `when`.
    Finished {
        /// Completion time.
        when: Cycle,
    },
    /// A measurement marker was hit (see [`Op::Mark`]).
    Mark {
        /// Marker id.
        id: u32,
        /// Cycle at which the kernel passed the marker.
        when: Cycle,
    },
    /// A kernel operation's completion span, for tracing. Emitted only
    /// when [`Processor::set_op_tracing`] enabled it (the machine turns
    /// it on when a real tracer is attached), because completion times
    /// are known here and nowhere else.
    OpDone {
        /// Latency-accounting class of the operation.
        class: OpClass,
        /// Issue cycle.
        start: Cycle,
        /// Completion cycle.
        end: Cycle,
        /// Root causal flow of the operation: the first request tag it
        /// allocated (`ReqId::flow`), or 0 if it never left the core.
        flow: u64,
    },
    /// Re-deliver this payload to the same processor at `when`: a probe
    /// arrived inside a freshly-filled block's minimum-residence window
    /// (the LL/SC forward-progress guarantee).
    Defer {
        /// The probe to re-deliver.
        payload: Payload,
        /// Earliest re-delivery time.
        when: Cycle,
    },
    /// The processor hit an unrecoverable condition (retry budget
    /// exhausted). The machine converts this into a typed `SimError`
    /// instead of the old `assert!` process abort.
    Fault {
        /// What went wrong.
        kind: ProcFault,
        /// Cycle at which the fault was detected.
        when: Cycle,
    },
}

/// Which retransmission timer a [`ProcEffect::TimeoutAt`] arms. The
/// kinds must stay distinguishable at expiry: a `Retry` timer on an
/// AMO/MAO request is an AMU-NACK backoff (its resend counts
/// `amu_nack_retries`), while an `E2e` timer is the delivery-fault
/// watchdog on the same request (its resend counts
/// `e2e_retransmissions` and escalates past `max_e2e_retries`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerKind {
    /// Active-message retransmission or AMU-NACK backoff expiry.
    Retry,
    /// End-to-end delivery timeout; `attempt` is the retransmission
    /// this expiry triggers (1 = first resend).
    E2e {
        /// Retransmission attempt this timer triggers when it fires.
        attempt: u32,
    },
}

/// Unrecoverable processor-side conditions, reported via
/// [`ProcEffect::Fault`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcFault {
    /// An active message exhausted its retransmission budget
    /// (`ActMsgConfig::max_retries`).
    ActMsgStarved {
        /// Retries attempted before giving up.
        attempts: u32,
    },
    /// An AMO/MAO was NACKed by the home AMU more than
    /// `AmuConfig::max_retries` times.
    AmuStarved {
        /// Retries attempted before giving up.
        attempts: u32,
    },
    /// An outstanding request exhausted `FaultConfig::max_e2e_retries`
    /// end-to-end retransmissions under delivery faults.
    RequestTimedOut {
        /// The request that never completed.
        req: ReqId,
        /// End-to-end retransmissions attempted before giving up.
        attempts: u32,
    },
}

/// What a kernel op must ask the block's home for before it can proceed.
#[derive(Clone, Copy, Debug)]
enum Want {
    /// A readable copy (`GetS`).
    Shared,
    /// A writable copy of a block not held (`GetX`).
    Exclusive,
    /// Write permission for a block held Shared (`Upgrade`).
    Upgrade,
}

impl Want {
    /// What a write to a line in `state` needs first, if anything.
    fn to_write(state: Option<LineState>) -> Option<Want> {
        match state {
            None => Some(Want::Exclusive),
            Some(s) if s.can_write() => None,
            Some(_) => Some(Want::Upgrade),
        }
    }
}

/// Coherence state of the line a probe found, if it found one.
fn probed_state(probe: &Probe) -> Option<LineState> {
    match probe {
        Probe::Miss => None,
        Probe::L1 { state, .. } | Probe::L2 { state, .. } => Some(*state),
    }
}

#[derive(Clone, Copy, Debug)]
enum KState {
    /// Ready to issue the next kernel op.
    Ready,
    /// A local (cache-hit) op completes at the given cycle.
    LocalOp { until: Cycle },
    /// An explicit `Delay` op completes at the given cycle.
    Delaying { until: Cycle },
    /// A request is outstanding. The op it was issued for is its own
    /// continuation: it says how to finish when the reply arrives and how
    /// to spell the request again for resend number `attempt`
    /// (0 = first send).
    Waiting { req: ReqId, op: Op, attempt: u32 },
    /// Sleeping on a cached copy; woken by invalidation or word update.
    Spinning { addr: Addr, pred: SpinPred },
    /// The op targets a block with another outstanding transaction from
    /// this processor (e.g. an injected handler store); it re-issues when
    /// that transaction completes — MSHR-style same-block merging.
    Blocked { block: BlockAddr, op: Op },
    /// Kernel returned `Done`.
    Finished,
}

/// One simulated processor.
pub struct Processor {
    id: ProcId,
    cfg: SystemConfig,
    caches: CacheHierarchy,
    reservation: LlReservation,
    kernel: Option<Box<dyn Kernel>>,
    kstate: KState,
    last_outcome: Option<Outcome>,
    next_req: u64,
    /// Outstanding injected (handler-published) stores: (req, addr, value).
    /// A handful at most — linear scan beats hashing.
    injected: Vec<(ReqId, Addr, Word)>,
    /// Blocks with an in-flight coherence request from this processor
    /// (MSHRs): a second request for the same block must merge, not issue.
    /// Bounded by the MSHR count (single digits), so a flat vector with
    /// linear probes replaces the old hash set on this per-miss path.
    outstanding: Vec<u64>,
    /// Injected stores waiting for an outstanding same-block transaction.
    deferred_injected: Vec<(Addr, Word)>,
    /// Minimum-residence windows of freshly-filled blocks: probes for
    /// these blocks are deferred until the recorded cycle.
    hold_until: Vec<(u64, Cycle)>,
    /// The in-flight kernel op's latency-accounting class and issue time.
    pending_op: Option<(OpClass, Cycle)>,
    /// Root causal flow of the in-flight kernel op: the first request tag
    /// it allocated. Follow-up requests of the same op (LL/SC pairs,
    /// NACK retries under a fresh tag) are linked back to it via
    /// [`Processor::flow_parent`]. 0 = the op has not allocated yet.
    /// Only maintained while `trace_ops` is on.
    op_root: u64,
    /// Emit [`ProcEffect::OpDone`] spans on op completion (off unless a
    /// tracer is attached, so the untraced path pays nothing).
    trace_ops: bool,
    /// Handler execution on behalf of other processors' active messages.
    server: HandlerServer,
    /// Latest busy-retry wake already scheduled (suppresses the wake
    /// storm a saturated handler processor would otherwise generate:
    /// every spurious wake during busy time would schedule another).
    armed_wake: Cycle,
    finished_at: Option<Cycle>,
    /// True when the fault plan injects delivery faults (drop / dup /
    /// reorder): arms end-to-end timers on AMO-layer requests and
    /// tolerates stale or duplicate replies instead of treating them as
    /// protocol bugs. Off (the default) keeps the strict asserts and
    /// adds zero events, so fault-free timing is untouched.
    delivery_hardened: bool,
    /// Schedule-explorer choice tape. When attached, retransmission
    /// jitter is an explicit tape choice instead of the keyed hash (see
    /// `amo_types::tape`); `None` (the default) keeps the hashed
    /// schedule bit-identical to the untaped engine.
    tape: Option<SharedTape>,
}

impl Processor {
    /// Build a processor with empty caches and no kernel.
    pub fn new(id: ProcId, cfg: SystemConfig) -> Self {
        Processor {
            id,
            caches: CacheHierarchy::new(cfg.l1, cfg.l2),
            cfg,
            reservation: LlReservation::new(),
            kernel: None,
            kstate: KState::Finished,
            last_outcome: None,
            // Tags start at 1 so no request ever maps to flow id 0,
            // which the tracer reserves for "no flow".
            next_req: 1,
            injected: Vec::new(),
            outstanding: Vec::new(),
            deferred_injected: Vec::new(),
            hold_until: Vec::new(),
            pending_op: None,
            op_root: 0,
            trace_ops: false,
            server: HandlerServer::new(&cfg),
            armed_wake: 0,
            finished_at: None,
            delivery_hardened: cfg.faults.delivery_enabled(),
            tape: None,
        }
    }

    /// Attach a schedule-explorer choice tape: retry-jitter picks become
    /// explicit tape choices (see `amo_types::tape`).
    pub fn set_schedule_tape(&mut self, tape: SharedTape) {
        self.tape = Some(tape);
    }

    /// Completion time of the kernel, if it finished.
    pub fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    /// True once a kernel was loaded.
    pub fn has_kernel(&self) -> bool {
        self.kernel.is_some()
    }

    /// Emit [`ProcEffect::OpDone`] spans for completed kernel operations
    /// (tracing support; off by default).
    pub fn set_op_tracing(&mut self, on: bool) {
        self.trace_ops = on;
    }

    /// In-flight coherence requests from this processor (occupied MSHRs;
    /// observability sampling).
    pub fn outstanding_misses(&self) -> usize {
        self.outstanding.len()
    }

    /// Read-only view of the cache hierarchy (tests/diagnostics).
    pub fn caches(&self) -> &CacheHierarchy {
        &self.caches
    }

    /// Install a kernel and arm the processor; call [`Self::step_into`] to
    /// start it.
    pub fn load_kernel(&mut self, kernel: Box<dyn Kernel>) {
        self.kernel = Some(kernel);
        self.kstate = KState::Ready;
        self.last_outcome = None;
        self.finished_at = None;
    }

    /// Allocate a tag without tying it to the in-flight kernel op
    /// (handler-published stores, which belong to the remote sender's
    /// flow, not to whatever this core happens to be executing).
    fn alloc_req_raw(&mut self) -> ReqId {
        let r = ReqId::new(self.id, self.next_req);
        self.next_req += 1;
        r
    }

    fn alloc_req(&mut self) -> ReqId {
        let r = self.alloc_req_raw();
        if self.trace_ops && self.op_root == 0 && self.pending_op.is_some() {
            self.op_root = r.0;
        }
        r
    }

    /// Parent flow link for a message this processor is about to inject:
    /// the in-flight op's root flow when `payload` carries a follow-up
    /// request of that op (an SC after its LL, a retry under a fresh
    /// tag), else 0. The tracer stores it on the send event so the
    /// causal DAG can stitch multi-request ops together.
    pub fn flow_parent(&self, payload: &Payload) -> u64 {
        if self.op_root == 0 {
            return 0;
        }
        match payload.req() {
            Some(r)
                if r.0 != self.op_root
                    && r.proc() == self.id
                    && !self.injected.iter().any(|&(ir, _, _)| ir == r) =>
            {
                self.op_root
            }
            _ => 0,
        }
    }

    /// Advance the kernel: complete local ops whose time has come and
    /// issue the next operation.
    /// Effects are appended to `eff`.
    pub fn step_into(&mut self, now: Cycle, stats: &mut Stats, eff: &mut Vec<ProcEffect>) {
        match self.kstate {
            KState::LocalOp { until } if now >= until => {
                self.kstate = KState::Ready;
            }
            KState::Delaying { until } if now >= until => {
                self.kstate = KState::Ready;
                self.last_outcome = Some(Outcome::Delayed);
            }
            KState::Ready => {}
            // Waiting / Spinning / Finished / not-yet-due local ops:
            // nothing to do on a (possibly spurious) wake.
            _ => return,
        }
        // Handler execution occupies the pipeline: postpone the issue.
        // Only one retry wake per busy horizon — without the dedup, a
        // saturated handler processor generates a quadratic wake storm.
        if let Some(until) = self.server.busy_until(now) {
            if self.armed_wake < until {
                self.armed_wake = until;
                eff.push(ProcEffect::Wake { when: until });
            }
            return;
        }
        let op = self
            .kernel
            .as_mut()
            .expect("step without a kernel")
            .next(self.last_outcome.take());
        self.dispatch(op, now, stats, eff);
    }

    /// The in-flight kernel op completes at `when` with `outcome`.
    fn finish_local(
        &mut self,
        outcome: Outcome,
        when: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        if let Some((class, started)) = self.pending_op.take() {
            stats.record_op(class, when.saturating_sub(started));
            if self.trace_ops {
                eff.push(ProcEffect::OpDone {
                    class,
                    start: started,
                    end: when,
                    flow: self.op_root,
                });
            }
            self.op_root = 0;
        }
        self.last_outcome = Some(outcome);
        self.kstate = KState::LocalOp { until: when };
        eff.push(ProcEffect::Wake { when });
    }

    fn hit_latency(&self, probe: &Probe) -> Cycle {
        match probe {
            Probe::L1 { .. } => self.cfg.l1.hit_latency,
            Probe::L2 { .. } => self.cfg.l2.hit_latency,
            Probe::Miss => unreachable!("miss has no hit latency"),
        }
    }

    fn send_home(&mut self, addr_home: NodeId, payload: Payload, eff: &mut Vec<ProcEffect>) {
        eff.push(ProcEffect::Send {
            dst: addr_home,
            payload,
        });
    }

    /// The op and resend count behind the outstanding request `req`;
    /// `None` if `req` is not what the kernel is waiting on (completed
    /// already, or never ours).
    fn waiting(&self, req: ReqId) -> Option<(Op, u32)> {
        match self.kstate {
            KState::Waiting {
                req: r,
                op,
                attempt,
            } if r == req => Some((op, attempt)),
            _ => None,
        }
    }

    /// [`Self::waiting`] for a coherence reply, which only ever answers
    /// the outstanding request: the op and the word it fetched a block for.
    fn waiting_fetch(&self, req: ReqId, reply: &str) -> (Op, Addr) {
        match self.waiting(req) {
            Some((op, _)) => (
                op,
                Self::coherent_addr(&op).expect("waiting op fetched a block"),
            ),
            None => panic!("unmatched {reply} {req:?} at {}", self.id),
        }
    }

    /// Overwrite-or-insert the minimum-residence window of a block.
    fn set_hold_until(&mut self, block: BlockAddr, until: Cycle) {
        if let Some(slot) = self.hold_until.iter_mut().find(|(b, _)| *b == block.0) {
            slot.1 = until;
        } else {
            self.hold_until.push((block.0, until));
        }
    }

    /// `block` was just granted writable: open its minimum-residence
    /// window so the write it was fetched for lands before probes take
    /// the line away. An LL/SC grant stays resident `llsc_pair_overhead`
    /// longer, long enough for the following SC to complete. Call before
    /// the waiting op completes.
    fn hold_granted(&mut self, block: BlockAddr, now: Cycle) {
        let extra = match self.kstate {
            KState::Waiting {
                op: Op::LoadLinked { .. } | Op::StoreConditional { .. },
                ..
            } => self.cfg.llsc_pair_overhead,
            _ => 0,
        };
        self.set_hold_until(block, now + self.cfg.min_residence + extra);
    }

    /// Remove and return the injected store registered under `req`.
    fn take_injected(&mut self, req: ReqId) -> Option<(Addr, Word)> {
        let i = self.injected.iter().position(|&(r, _, _)| r == req)?;
        let (_, addr, value) = self.injected.swap_remove(i);
        Some((addr, value))
    }

    /// Register an outstanding block transaction (an MSHR) and send its
    /// request — the one place a coherence request is spelled.
    fn send_block_req(
        &mut self,
        want: Want,
        block: BlockAddr,
        req: ReqId,
        eff: &mut Vec<ProcEffect>,
    ) {
        debug_assert!(
            !self.outstanding.contains(&block.0),
            "duplicate outstanding request for {block}"
        );
        self.outstanding.push(block.0);
        let requester = self.id;
        let payload = match want {
            Want::Shared => Payload::GetS {
                req,
                requester,
                block,
            },
            Want::Exclusive => Payload::GetX {
                req,
                requester,
                block,
            },
            Want::Upgrade => Payload::Upgrade {
                req,
                requester,
                block,
            },
        };
        self.send_home(block.home(), payload, eff);
    }

    /// Kernel op `op` cannot proceed on what the caches hold: ask the
    /// home of `addr`'s block for `want` and wait for the reply.
    fn fetch_for(&mut self, op: Op, want: Want, addr: Addr, eff: &mut Vec<ProcEffect>) {
        let req = self.alloc_req();
        self.send_block_req(want, self.caches.l2_block(addr), req, eff);
        self.kstate = KState::Waiting {
            req,
            op,
            attempt: 0,
        };
    }

    /// The word a kernel op needs coherent access to, if any.
    fn coherent_addr(op: &Op) -> Option<Addr> {
        match op {
            Op::Load { addr }
            | Op::LoadLinked { addr }
            | Op::Store { addr, .. }
            | Op::StoreConditional { addr, .. }
            | Op::AtomicRmw { addr, .. }
            | Op::SpinUntil { addr, .. } => Some(*addr),
            _ => None,
        }
    }

    /// An outstanding block transaction completed: release the MSHR and
    /// re-dispatch anything that merged behind it.
    fn txn_complete(
        &mut self,
        block: BlockAddr,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        if let Some(i) = self.outstanding.iter().position(|&b| b == block.0) {
            self.outstanding.swap_remove(i);
        }
        // A kernel op deferred on this block re-issues now.
        if let KState::Blocked { block: b, op } = self.kstate {
            if b == block {
                self.kstate = KState::Ready;
                self.dispatch(op, now, stats, eff);
            }
        }
        // A spin on a word of this block re-checks the freshly-arrived data.
        if let KState::Spinning { addr, .. } = self.kstate {
            if self.caches.l2_block(addr) == block {
                if let Some(v) = self.caches.read_word(addr) {
                    self.wake_spin(addr, v, now, stats, eff);
                }
            }
        }
        // Deferred injected stores for this block re-issue, in order;
        // the rest stay where they are.
        let ready: Vec<_> = (self.deferred_injected)
            .extract_if(.., |(a, _)| self.caches.l2_block(*a) == block)
            .collect();
        for (addr, value) in ready {
            self.start_injected_store(addr, value, now, stats, eff);
        }
    }

    fn op_class(op: &Op) -> Option<OpClass> {
        match op {
            Op::Load { .. } | Op::LoadLinked { .. } => Some(OpClass::Load),
            Op::Store { .. } | Op::StoreConditional { .. } => Some(OpClass::Store),
            Op::AtomicRmw { .. } => Some(OpClass::Atomic),
            Op::Amo { .. } => Some(OpClass::Amo),
            Op::Mao { .. } | Op::UncachedLoad { .. } => Some(OpClass::Mao),
            Op::ActiveMsg { .. } => Some(OpClass::ActMsg),
            Op::SpinUntil { .. } => Some(OpClass::Spin),
            Op::Delay { .. } | Op::Mark { .. } | Op::Done => None,
        }
    }

    fn dispatch(&mut self, op: Op, now: Cycle, stats: &mut Stats, eff: &mut Vec<ProcEffect>) {
        // Latency accounting starts at first dispatch (a re-dispatch
        // after an MSHR merge keeps the original issue time).
        if self.pending_op.is_none() {
            if let Some(class) = Self::op_class(&op) {
                self.pending_op = Some((class, now));
            }
        }
        // MSHR merge: a second request for a block with an in-flight
        // transaction from this processor must wait for it.
        if let Some(addr) = Self::coherent_addr(&op) {
            let block = self.caches.l2_block(addr);
            if self.outstanding.contains(&block.0) {
                self.kstate = KState::Blocked { block, op };
                return;
            }
        }
        match op {
            Op::Done => {
                self.kstate = KState::Finished;
                self.finished_at = Some(now);
                eff.push(ProcEffect::Finished { when: now });
            }
            Op::Delay { cycles } => {
                self.kstate = KState::Delaying {
                    until: now + cycles,
                };
                eff.push(ProcEffect::Wake { when: now + cycles });
            }
            Op::Mark { id } => {
                eff.push(ProcEffect::Mark { id, when: now });
                self.kstate = KState::Delaying { until: now };
                eff.push(ProcEffect::Wake { when: now });
            }
            Op::Load { addr } | Op::SpinUntil { addr, .. } => match self.caches.probe_load(addr) {
                Probe::Miss => self.fetch_for(op, Want::Shared, addr, eff),
                p @ (Probe::L1 { value, .. } | Probe::L2 { value, .. }) => {
                    let lat = self.hit_latency(&p);
                    self.complete_read(op, value, now + lat, stats, eff);
                }
            },
            Op::LoadLinked { addr } => {
                // LL fetches the block with write intent (exclusive), as
                // synchronization libraries on Origin-class machines do —
                // the paper's Fig. 1 shows LL/SC contenders "requesting
                // exclusive ownership". Without this, contended LL/SC
                // livelocks: a Shared LL's upgrade always loses its
                // reservation to a concurrent writer.
                stats.ll_issued += 1;
                let p = self.caches.probe_load(addr);
                match Want::to_write(probed_state(&p)) {
                    Some(want) => self.fetch_for(op, want, addr, eff),
                    None => {
                        let when = now + self.hit_latency(&p);
                        self.complete_owned(op, self.caches.l2_block(addr), when, stats, eff);
                    }
                }
            }
            Op::Store { addr, value } => {
                let p = self.caches.probe_store(addr, value);
                match Want::to_write(probed_state(&p)) {
                    Some(want) => self.fetch_for(op, want, addr, eff),
                    // `probe_store` already performed the write.
                    None => {
                        let when = now + self.hit_latency(&p);
                        self.finish_local(Outcome::Stored, when, stats, eff);
                    }
                }
            }
            Op::StoreConditional { addr, .. } => {
                let block = self.caches.l2_block(addr);
                let state = if self.reservation.holds(block) {
                    self.caches.state_of(addr)
                } else {
                    None
                };
                match state {
                    // No reservation: the SC fails locally. (A reservation
                    // without a line cannot happen — losing the line
                    // clears the reservation — but would fail the same.)
                    None => {
                        stats.sc_failures += 1;
                        self.reservation.consume(block);
                        self.finish_local(Outcome::ScResult(false), now + 2, stats, eff);
                    }
                    Some(s) if s.can_write() => {
                        let when = now + self.cfg.l1.hit_latency;
                        self.complete_owned(op, block, when, stats, eff);
                    }
                    // Shared: race for exclusivity through home.
                    Some(_) => self.fetch_for(op, Want::Upgrade, addr, eff),
                }
            }
            Op::AtomicRmw { addr, .. } => match Want::to_write(self.caches.state_of(addr)) {
                Some(want) => self.fetch_for(op, want, addr, eff),
                None => {
                    let when = now + self.cfg.l1.hit_latency;
                    self.complete_owned(op, self.caches.l2_block(addr), when, stats, eff);
                }
            },
            Op::Amo { .. } | Op::Mao { .. } | Op::UncachedLoad { .. } | Op::ActiveMsg { .. } => {
                self.issue_remote(op, now, eff)
            }
        }
    }

    /// Finish a `Load` or `SpinUntil` that read `value`, from a hit or a
    /// `DataS` fill alike: a spin whose predicate fails goes to sleep on
    /// the cached copy instead of completing.
    fn complete_read(
        &mut self,
        op: Op,
        value: Word,
        when: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        match op {
            Op::Load { .. } => self.finish_local(Outcome::Value(value), when, stats, eff),
            Op::SpinUntil { addr, pred } => {
                if pred.eval(value) {
                    self.finish_local(Outcome::SpinDone(value), when, stats, eff);
                } else {
                    self.kstate = KState::Spinning { addr, pred };
                }
            }
            other => panic!("{other:?} does not complete on a readable copy"),
        }
    }

    /// Finish an op that needed `block` writable, now that it is — from an
    /// owned hit, a `DataX` fill or an `UpgradeAck` alike. `when` is the
    /// path's base completion time.
    fn complete_owned(
        &mut self,
        op: Op,
        block: BlockAddr,
        when: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        match op {
            Op::LoadLinked { addr } => {
                self.reservation.set(block);
                let v = self.caches.read_word(addr).expect("owned line present");
                self.finish_local(Outcome::Value(v), when, stats, eff);
            }
            Op::Store { addr, value } => {
                assert!(self.caches.write_owned_word(addr, value));
                self.finish_local(Outcome::Stored, when, stats, eff);
            }
            Op::StoreConditional { addr, value } => {
                // The reservation may be gone even though the block is
                // ours again: an Upgrade that home converted to a GetX
                // means the line was lost in between, and the reservation
                // went with it.
                let ok = self.reservation.consume(block);
                if ok {
                    assert!(self.caches.write_owned_word(addr, value));
                    stats.sc_successes += 1;
                } else {
                    stats.sc_failures += 1;
                }
                let when = when + self.cfg.llsc_pair_overhead;
                self.finish_local(Outcome::ScResult(ok), when, stats, eff);
            }
            Op::AtomicRmw {
                kind,
                addr,
                operand,
            } => {
                let old = self.caches.read_word(addr).expect("owned line present");
                assert!(self.caches.write_owned_word(addr, kind.apply(old, operand)));
                stats.atomic_ops += 1;
                self.finish_local(Outcome::Value(old), when, stats, eff);
            }
            other => panic!("{other:?} does not complete on a writable block"),
        }
    }

    /// Install a filled block, sending a writeback if the fill evicted an
    /// owned line. Exclusive fills open a minimum-residence window.
    fn fill(
        &mut self,
        block: BlockAddr,
        state: LineState,
        data: BlockData,
        accessed: Addr,
        now: Cycle,
        eff: &mut Vec<ProcEffect>,
    ) {
        if state.can_write() {
            self.hold_granted(block, now);
        }
        if let Some(Evicted {
            block: vb,
            state: vs,
            data: vd,
        }) = self.caches.fill_block(block, state, data, accessed)
        {
            let vblock = BlockAddr(vb);
            self.reservation.lose(vblock);
            if vs.can_write() {
                self.send_home(
                    vblock.home(),
                    Payload::Writeback {
                        requester: self.id,
                        block: vblock,
                        data: vd.expect("an owned victim surrenders its data"),
                    },
                    eff,
                );
            }
            // A spin target should never be the eviction victim (it was
            // just probed, hence MRU) — but if it happens, reload.
            if let KState::Spinning { addr, .. } = self.kstate {
                assert!(
                    self.caches.l2_block(addr) != vblock,
                    "spin target evicted — workload exceeds cache capacity model"
                );
            }
        }
    }

    /// Handle a message delivered to this processor.
    /// Effects are appended to `eff`.
    pub fn handle_into(
        &mut self,
        payload: Payload,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        // Forward-progress guarantee: probes for a freshly-acquired block
        // wait out its minimum-residence window.
        if let Payload::Inv { block } | Payload::Intervention { block, .. } = &payload {
            if let Some(i) = self.hold_until.iter().position(|&(b, _)| b == block.0) {
                let until = self.hold_until[i].1;
                if until > now {
                    eff.push(ProcEffect::Defer {
                        payload,
                        when: until,
                    });
                    return;
                }
                self.hold_until.swap_remove(i);
            }
        }
        match payload {
            Payload::DataS { req, block, data } => {
                self.on_data_shared(req, block, data, now, stats, eff)
            }
            Payload::DataX { req, block, data } => {
                self.on_exclusive(req, block, Some(data), now, stats, eff)
            }
            Payload::UpgradeAck { req, block } => {
                self.on_exclusive(req, block, None, now, stats, eff)
            }
            Payload::Inv { block } => self.on_inv(block, stats, eff),
            Payload::Intervention { kind, block } => self.on_intervention(kind, block, stats, eff),
            Payload::AmoReply { req, old } | Payload::MaoReply { req, old } => {
                self.on_simple_reply(req, Outcome::Value(old), now, stats, eff)
            }
            Payload::UncachedReadReply { req, value } => {
                self.on_simple_reply(req, Outcome::Value(value), now, stats, eff)
            }
            Payload::ActMsgAck { req, result } => self.on_actmsg_ack(req, result, now, stats, eff),
            Payload::AmuNack { req, .. } => self.on_amu_nack(req, now, eff),
            Payload::ActiveMsg {
                req,
                requester,
                handler,
                ..
            } => self
                .server
                .incoming(req, requester, *handler, now, stats, eff),
            other => panic!("processor {} got unexpected payload {other:?}", self.id),
        }
    }

    fn on_data_shared(
        &mut self,
        req: ReqId,
        block: BlockAddr,
        data: BlockData,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        let (op, addr) = self.waiting_fetch(req, "DataS");
        self.fill(block, LineState::Shared, data, addr, now, eff);
        let v = self.caches.read_word(addr).expect("just filled");
        // Fill + read.
        self.complete_read(op, v, now + self.cfg.l2.hit_latency, stats, eff);
        self.txn_complete(block, now, stats, eff);
    }

    /// Home granted `block` writable under `req`: with the `data` of a
    /// `DataX` (install it; the write costs an L2 access) or, for a block
    /// already held Shared, by a bare `UpgradeAck` (an L1 access). Either
    /// completes an injected handler store or the waiting kernel op.
    fn on_exclusive(
        &mut self,
        req: ReqId,
        block: BlockAddr,
        data: Option<BlockData>,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        if let Some((addr, value)) = self.take_injected(req) {
            self.make_writable(block, data, addr, now, eff);
            assert!(self.caches.write_owned_word(addr, value));
            self.wake_spin(addr, value, now, stats, eff);
        } else {
            let (op, addr) = self.waiting_fetch(req, "exclusive grant");
            let lat = self.make_writable(block, data, addr, now, eff);
            self.complete_owned(op, block, now + lat, stats, eff);
        }
        self.txn_complete(block, now, stats, eff);
    }

    /// Apply an exclusive grant to the caches and open the block's
    /// residence window; returns the latency of the access it was for.
    fn make_writable(
        &mut self,
        block: BlockAddr,
        data: Option<BlockData>,
        accessed: Addr,
        now: Cycle,
        eff: &mut Vec<ProcEffect>,
    ) -> Cycle {
        match data {
            Some(data) => {
                self.fill(block, LineState::Exclusive, data, accessed, now, eff);
                self.cfg.l2.hit_latency
            }
            None => {
                self.hold_granted(block, now);
                assert!(
                    self.caches.grant_exclusive(block),
                    "upgrade ack for absent line"
                );
                self.cfg.l1.hit_latency
            }
        }
    }

    /// The word at `addr` now reads `value` in our caches (a pushed word
    /// update, a handler-published store, a completed fill): if the
    /// kernel is spinning on it and the predicate holds, the spin is over.
    fn wake_spin(
        &mut self,
        addr: Addr,
        value: Word,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        if let KState::Spinning { addr: sa, pred } = self.kstate {
            if sa == addr && pred.eval(value) {
                let when = now + self.cfg.l1.hit_latency;
                self.finish_local(Outcome::SpinDone(value), when, stats, eff);
            }
        }
    }

    fn on_inv(&mut self, block: BlockAddr, stats: &mut Stats, eff: &mut Vec<ProcEffect>) {
        self.caches.invalidate_block(block);
        self.reservation.lose(block);
        self.send_home(
            block.home(),
            Payload::InvAck {
                block,
                from: self.id,
            },
            eff,
        );
        self.respin_if_watching(block, stats, eff);
    }

    /// The block a spin sleeps on was taken away: reload it.
    fn respin_if_watching(
        &mut self,
        block: BlockAddr,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        if let KState::Spinning { addr, pred } = self.kstate {
            if self.caches.l2_block(addr) == block {
                if self.outstanding.contains(&block.0) {
                    // An injected store to this block is in flight; its
                    // completion re-checks the spin (txn_complete).
                    return;
                }
                stats.spin_reloads += 1;
                self.fetch_for(Op::SpinUntil { addr, pred }, Want::Shared, addr, eff);
            }
        }
    }

    fn on_intervention(
        &mut self,
        kind: InterventionKind,
        block: BlockAddr,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        let resp = match kind {
            InterventionKind::Shared => match self.caches.downgrade_block(block) {
                Some(Some(data)) => InterventionResp::Dirty(data),
                Some(None) => InterventionResp::Clean,
                None => InterventionResp::Gone,
            },
            InterventionKind::Exclusive => {
                self.reservation.lose(block);
                match self.caches.invalidate_block(block) {
                    Some((_, Some(data))) => InterventionResp::Dirty(data),
                    Some(_) => InterventionResp::Clean,
                    None => InterventionResp::Gone,
                }
            }
        };
        self.send_home(
            block.home(),
            Payload::InterventionReply {
                block,
                from: self.id,
                resp,
            },
            eff,
        );
        if matches!(kind, InterventionKind::Exclusive) {
            self.respin_if_watching(block, stats, eff);
        }
    }

    /// A handler finished executing: apply its semantics, ack, publish.
    /// Effects are appended to `eff`.
    pub fn handler_done_into(&mut self, now: Cycle, stats: &mut Stats, eff: &mut Vec<ProcEffect>) {
        if let Some((addr, value)) = self.server.done(stats, eff) {
            self.start_injected_store(addr, value, now, stats, eff);
        }
        self.server.start_next(now, stats, eff);
    }

    /// Store a handler-published `value` through this processor's caches,
    /// outside the kernel's op stream.
    fn start_injected_store(
        &mut self,
        addr: Addr,
        value: Word,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        // MSHR merge: wait for any in-flight transaction on this block.
        let block = self.caches.l2_block(addr);
        if self.outstanding.contains(&block.0) {
            self.deferred_injected.push((addr, value));
            return;
        }
        match Want::to_write(probed_state(&self.caches.probe_store(addr, value))) {
            Some(want) => {
                let req = self.alloc_req_raw();
                self.injected.push((req, addr, value));
                self.send_block_req(want, block, req, eff);
            }
            // `probe_store` already performed the write. If this
            // processor is itself spinning on the word it just published
            // (the home processor participates in the barrier), the
            // local write must wake its own spin.
            None => self.wake_spin(addr, value, now, stats, eff),
        }
    }

    /// A fine-grained word update arrived at this node and the machine
    /// applied it to our caches; re-check a matching spin.
    /// Effects are appended to `eff`.
    pub fn word_update_into(
        &mut self,
        addr: Addr,
        value: Word,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        self.caches.apply_word_update(addr, value);
        self.wake_spin(addr, value, now, stats, eff);
    }

    /// Home-mediated lock state snapshot: (next_ticket, now_serving,
    /// waiting tickets).
    #[cfg(test)]
    fn lock_srv_state(&self, lock: u16) -> Option<(Word, Word, Vec<Word>)> {
        self.server.lock_state(lock)
    }

    /// Debug rendering of the kernel state (diagnostics).
    pub fn kstate_debug(&self) -> String {
        let (from, until) = self.server.window();
        format!("{:?} busy={from}..{until}", self.kstate)
    }

    /// Whether the kernel is currently sleeping on a spin (tests).
    pub fn is_spinning(&self) -> bool {
        matches!(self.kstate, KState::Spinning { .. })
    }
}

#[cfg(test)]
mod tests;
