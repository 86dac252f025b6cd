//! The processor: drives one kernel, owns a private cache hierarchy,
//! answers coherence traffic, and executes active-message handlers.

use crate::kernel::{Kernel, Op, Outcome};
use amo_cache::{CacheHierarchy, Evicted, LineState, LlReservation, Probe};
use amo_types::stats::OpClass;
use amo_types::tape::ChoiceKind;
use amo_types::{
    Addr, BlockAddr, Cycle, HandlerKind, InterventionKind, InterventionResp, NodeId, Payload,
    ProcId, ReqId, SharedTape, SpinPred, Stats, SystemConfig, Word,
};
use std::collections::VecDeque;

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
/// AMO/MAO continuation is an AMU-NACK backoff (its resend counts
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
        /// The request that never completed (its tag pins the exact
        /// backoff schedule — see [`Processor::e2e_retx_schedule`]).
        req: ReqId,
        /// End-to-end retransmissions attempted before giving up.
        attempts: u32,
    },
}

/// What to do when the reply for an outstanding kernel request arrives.
#[derive(Clone, Copy, Debug)]
enum Cont {
    Load {
        addr: Addr,
    },
    Ll {
        addr: Addr,
    },
    Store {
        addr: Addr,
        value: Word,
    },
    Sc {
        addr: Addr,
        value: Word,
    },
    Rmw {
        kind: amo_types::AmoKind,
        addr: Addr,
        operand: Word,
    },
    Amo {
        kind: amo_types::AmoKind,
        addr: Addr,
        operand: Word,
        test: Option<Word>,
        /// NACK-driven resend count (0 = first send).
        attempt: u32,
    },
    Mao {
        kind: amo_types::AmoKind,
        addr: Addr,
        operand: Word,
        attempt: u32,
    },
    UncachedLoad {
        addr: Addr,
        attempt: u32,
    },
    UncachedStore {
        addr: Addr,
        value: Word,
        attempt: u32,
    },
    ActMsg {
        home: NodeId,
        handler: HandlerKind,
        attempt: u32,
    },
    SpinFill {
        addr: Addr,
        pred: SpinPred,
    },
}

#[derive(Clone, Copy, Debug)]
enum KState {
    /// Ready to issue the next kernel op.
    Ready,
    /// A local (cache-hit) op completes at the given cycle.
    LocalOp { until: Cycle },
    /// An explicit `Delay` op completes at the given cycle.
    Delaying { until: Cycle },
    /// A request is outstanding; `Cont` says how to finish it.
    Waiting { req: ReqId, cont: Cont },
    /// Sleeping on a cached copy; woken by invalidation or word update.
    Spinning { addr: Addr, pred: SpinPred },
    /// The op targets a block with another outstanding transaction from
    /// this processor (e.g. an injected handler store); it re-issues when
    /// that transaction completes — MSHR-style same-block merging.
    Blocked { block: BlockAddr, op: Op },
    /// Kernel returned `Done`.
    Finished,
}

/// An incoming active message admitted to the handler queue.
#[derive(Clone, Copy, Debug)]
struct IncomingMsg {
    req: ReqId,
    requester: ProcId,
    handler: HandlerKind,
}

/// Home-mediated lock bookkeeping (see `HandlerKind::LockAcquire`).
#[derive(Default, Debug)]
struct LockSrv {
    next_ticket: Word,
    now_serving: Word,
    /// ticket → (waiter, its request tag, so the deferred grant matches).
    waiting: std::collections::BTreeMap<Word, (ProcId, ReqId)>,
}

/// One simulated processor.
pub struct Processor {
    id: ProcId,
    node: NodeId,
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
    handler_queue: VecDeque<IncomingMsg>,
    running_handler: Option<IncomingMsg>,
    /// Current handler window: the processor is occupied by handler
    /// execution in `busy_from..busy_until`. The kernel may issue before
    /// `busy_from` (yield gaps between handler bursts).
    busy_from: Cycle,
    /// End of the current handler window.
    busy_until: Cycle,
    /// Handlers served since the last yield gap.
    handlers_since_yield: u32,
    /// Latest busy-retry wake already scheduled (suppresses the wake
    /// storm a saturated handler processor would otherwise generate:
    /// every spurious wake during busy time would schedule another).
    armed_wake: Cycle,
    /// At-most-once dedup: last served request per requester, indexed
    /// densely by [`ProcId::index`] and grown on demand.
    served: Vec<Option<(ReqId, Word)>>,
    /// Node-local active-message service counters.
    service_counters: Vec<Word>,
    /// Home-mediated lock state, keyed by lock index (few locks per
    /// home — linear scan).
    lock_srv: Vec<(u16, LockSrv)>,
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
            node: id.node(cfg.procs_per_node),
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
            handler_queue: VecDeque::new(),
            running_handler: None,
            busy_from: 0,
            busy_until: 0,
            handlers_since_yield: 0,
            armed_wake: 0,
            served: Vec::new(),
            service_counters: Vec::new(),
            lock_srv: Vec::new(),
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

    /// This processor's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The node this processor lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Completion time of the kernel, if it finished.
    pub fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
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

    /// Mutable view of the cache hierarchy (machine applies word updates).
    pub fn caches_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.caches
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
        let r = ReqId(((self.id.0 as u64) << 48) | self.next_req);
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
        // The kernel is free before `busy_from`: the scheduler's yield
        // gaps guarantee the host process is never starved forever by a
        // handler storm.
        if now >= self.busy_from && self.busy_until > now {
            if self.armed_wake < self.busy_until {
                self.armed_wake = self.busy_until;
                eff.push(ProcEffect::Wake {
                    when: self.busy_until,
                });
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

    fn wait(&mut self, req: ReqId, cont: Cont) {
        self.kstate = KState::Waiting { req, cont };
    }

    /// Arm the end-to-end delivery timer on a freshly issued AMO-layer
    /// request. No-op unless delivery faults are active, so the
    /// fault-free machine schedules zero extra events.
    fn arm_e2e(&self, req: ReqId, now: Cycle, eff: &mut Vec<ProcEffect>) {
        if self.delivery_hardened {
            eff.push(ProcEffect::TimeoutAt {
                req,
                when: now + self.retry_delay_for(req, 0, self.cfg.faults.e2e_timeout),
                kind: TimerKind::E2e { attempt: 1 },
            });
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

    /// Remove and return the injected store registered under `req`.
    fn take_injected(&mut self, req: ReqId) -> Option<(Addr, Word)> {
        let i = self.injected.iter().position(|&(r, _, _)| r == req)?;
        let (_, addr, value) = self.injected.swap_remove(i);
        Some((addr, value))
    }

    /// Last served (request, result) for `requester`, if any.
    fn served_get(&self, requester: ProcId) -> Option<(ReqId, Word)> {
        self.served.get(requester.index()).copied().flatten()
    }

    /// Record the served (request, result) for `requester`.
    fn served_set(&mut self, requester: ProcId, req: ReqId, result: Word) {
        let idx = requester.index();
        if self.served.len() <= idx {
            self.served.resize(idx + 1, None);
        }
        self.served[idx] = Some((req, result));
    }

    /// Lock-server state for `lock`, created on first touch.
    fn lock_srv_mut(&mut self, lock: u16) -> &mut LockSrv {
        if let Some(i) = self.lock_srv.iter().position(|(l, _)| *l == lock) {
            return &mut self.lock_srv[i].1;
        }
        self.lock_srv.push((lock, LockSrv::default()));
        &mut self.lock_srv.last_mut().expect("just pushed").1
    }

    /// Register an outstanding block transaction and send its request.
    fn send_block_req(&mut self, block: BlockAddr, payload: Payload, eff: &mut Vec<ProcEffect>) {
        debug_assert!(
            !self.outstanding.contains(&block.0),
            "duplicate outstanding request for {block}"
        );
        self.outstanding.push(block.0);
        eff.push(ProcEffect::Send {
            dst: block.home(),
            payload,
        });
    }

    /// The block a kernel op needs coherent access to, if any.
    fn coherent_block(&self, op: &Op) -> Option<BlockAddr> {
        match op {
            Op::Load { addr }
            | Op::LoadLinked { addr }
            | Op::Store { addr, .. }
            | Op::StoreConditional { addr, .. }
            | Op::AtomicRmw { addr, .. }
            | Op::SpinUntil { addr, .. } => Some(self.caches.l2_block(*addr)),
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
        if let KState::Spinning { addr, pred } = self.kstate {
            if self.caches.l2_block(addr) == block {
                if let Some(v) = self.caches.read_word(addr) {
                    if pred.eval(v) {
                        self.finish_local(
                            Outcome::SpinDone(v),
                            now + self.cfg.l1.hit_latency,
                            stats,
                            eff,
                        );
                    }
                }
            }
        }
        // Deferred injected stores for this block re-issue.
        let (ready, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.deferred_injected)
            .into_iter()
            .partition(|(a, _)| self.caches.l2_block(*a) == block);
        self.deferred_injected = rest;
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
            Op::Mao { .. } | Op::UncachedLoad { .. } | Op::UncachedStore { .. } => {
                Some(OpClass::Mao)
            }
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
        if let Some(block) = self.coherent_block(&op) {
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
            Op::Load { addr } => match self.caches.probe_load(addr) {
                Probe::Miss => {
                    let req = self.alloc_req();
                    let block = self.caches.l2_block(addr);
                    self.send_block_req(
                        block,
                        Payload::GetS {
                            req,
                            requester: self.id,
                            block,
                        },
                        eff,
                    );
                    self.wait(req, Cont::Load { addr });
                }
                p @ (Probe::L1 { value, .. } | Probe::L2 { value, .. }) => {
                    let lat = self.hit_latency(&p);
                    self.finish_local(Outcome::Value(value), now + lat, stats, eff);
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
                match self.caches.probe_load(addr) {
                    Probe::Miss => {
                        let req = self.alloc_req();
                        let block = self.caches.l2_block(addr);
                        self.send_block_req(
                            block,
                            Payload::GetX {
                                req,
                                requester: self.id,
                                block,
                            },
                            eff,
                        );
                        self.wait(req, Cont::Ll { addr });
                    }
                    p @ (Probe::L1 { state, value } | Probe::L2 { state, value }) => {
                        if state.can_write() {
                            self.reservation.set(self.caches.l2_block(addr));
                            let lat = self.hit_latency(&p);
                            self.finish_local(Outcome::Value(value), now + lat, stats, eff);
                        } else {
                            let req = self.alloc_req();
                            let block = self.caches.l2_block(addr);
                            self.send_block_req(
                                block,
                                Payload::Upgrade {
                                    req,
                                    requester: self.id,
                                    block,
                                },
                                eff,
                            );
                            self.wait(req, Cont::Ll { addr });
                        }
                    }
                }
            }
            Op::Store { addr, value } => self.issue_store(addr, value, now, stats, eff),
            Op::StoreConditional { addr, value } => {
                let block = self.caches.l2_block(addr);
                if !self.reservation.holds(block) {
                    stats.sc_failures += 1;
                    self.reservation.consume(block);
                    self.finish_local(Outcome::ScResult(false), now + 2, stats, eff);
                    return;
                }
                match self.caches.state_of(addr) {
                    Some(s) if s.can_write() => {
                        self.reservation.consume(block);
                        assert!(self.caches.write_owned_word(addr, value));
                        stats.sc_successes += 1;
                        self.finish_local(
                            Outcome::ScResult(true),
                            now + self.cfg.l1.hit_latency + self.cfg.llsc_pair_overhead,
                            stats,
                            eff,
                        );
                    }
                    Some(_) => {
                        // Shared: race for exclusivity through home.
                        let req = self.alloc_req();
                        self.send_block_req(
                            block,
                            Payload::Upgrade {
                                req,
                                requester: self.id,
                                block,
                            },
                            eff,
                        );
                        self.wait(req, Cont::Sc { addr, value });
                    }
                    None => {
                        // Reservation without a line cannot happen (losing
                        // the line clears the reservation) — defensive.
                        stats.sc_failures += 1;
                        self.reservation.consume(block);
                        self.finish_local(Outcome::ScResult(false), now + 2, stats, eff);
                    }
                }
            }
            Op::AtomicRmw {
                kind,
                addr,
                operand,
            } => {
                let block = self.caches.l2_block(addr);
                match self.caches.state_of(addr) {
                    Some(s) if s.can_write() => {
                        let old = self.caches.read_word(addr).expect("owned line present");
                        assert!(self.caches.write_owned_word(addr, kind.apply(old, operand)));
                        stats.atomic_ops += 1;
                        self.finish_local(
                            Outcome::Value(old),
                            now + self.cfg.l1.hit_latency,
                            stats,
                            eff,
                        );
                    }
                    Some(_) => {
                        let req = self.alloc_req();
                        self.send_block_req(
                            block,
                            Payload::Upgrade {
                                req,
                                requester: self.id,
                                block,
                            },
                            eff,
                        );
                        self.wait(
                            req,
                            Cont::Rmw {
                                kind,
                                addr,
                                operand,
                            },
                        );
                    }
                    None => {
                        let req = self.alloc_req();
                        self.send_block_req(
                            block,
                            Payload::GetX {
                                req,
                                requester: self.id,
                                block,
                            },
                            eff,
                        );
                        self.wait(
                            req,
                            Cont::Rmw {
                                kind,
                                addr,
                                operand,
                            },
                        );
                    }
                }
            }
            Op::Amo {
                kind,
                addr,
                operand,
                test,
            } => {
                let req = self.alloc_req();
                self.send_home(
                    addr.home(),
                    Payload::AmoReq {
                        req,
                        requester: self.id,
                        kind,
                        addr,
                        operand,
                        test,
                    },
                    eff,
                );
                self.wait(
                    req,
                    Cont::Amo {
                        kind,
                        addr,
                        operand,
                        test,
                        attempt: 0,
                    },
                );
                self.arm_e2e(req, now, eff);
            }
            Op::Mao {
                kind,
                addr,
                operand,
            } => {
                let req = self.alloc_req();
                self.send_home(
                    addr.home(),
                    Payload::MaoReq {
                        req,
                        requester: self.id,
                        kind,
                        addr,
                        operand,
                    },
                    eff,
                );
                self.wait(
                    req,
                    Cont::Mao {
                        kind,
                        addr,
                        operand,
                        attempt: 0,
                    },
                );
                self.arm_e2e(req, now, eff);
            }
            Op::UncachedLoad { addr } => {
                let req = self.alloc_req();
                self.send_home(
                    addr.home(),
                    Payload::UncachedRead {
                        req,
                        requester: self.id,
                        addr,
                    },
                    eff,
                );
                self.wait(req, Cont::UncachedLoad { addr, attempt: 0 });
                self.arm_e2e(req, now, eff);
            }
            Op::UncachedStore { addr, value } => {
                let req = self.alloc_req();
                self.send_home(
                    addr.home(),
                    Payload::UncachedWrite {
                        req,
                        requester: self.id,
                        addr,
                        value,
                    },
                    eff,
                );
                self.wait(
                    req,
                    Cont::UncachedStore {
                        addr,
                        value,
                        attempt: 0,
                    },
                );
                self.arm_e2e(req, now, eff);
            }
            Op::ActiveMsg { home, handler } => {
                let req = self.alloc_req();
                let target_proc = home
                    .procs(self.cfg.procs_per_node)
                    .next()
                    .expect("node has processors");
                self.send_home(
                    home,
                    Payload::ActiveMsg {
                        req,
                        requester: self.id,
                        target_proc,
                        handler: Box::new(handler),
                        attempt: 0,
                    },
                    eff,
                );
                eff.push(ProcEffect::TimeoutAt {
                    req,
                    when: now + self.retry_delay_for(req, 0, self.cfg.actmsg.timeout),
                    kind: TimerKind::Retry,
                });
                self.wait(
                    req,
                    Cont::ActMsg {
                        home,
                        handler,
                        attempt: 0,
                    },
                );
            }
            Op::SpinUntil { addr, pred } => match self.caches.probe_load(addr) {
                Probe::Miss => {
                    let req = self.alloc_req();
                    let block = self.caches.l2_block(addr);
                    self.send_block_req(
                        block,
                        Payload::GetS {
                            req,
                            requester: self.id,
                            block,
                        },
                        eff,
                    );
                    self.wait(req, Cont::SpinFill { addr, pred });
                }
                p @ (Probe::L1 { value, .. } | Probe::L2 { value, .. }) => {
                    if pred.eval(value) {
                        let lat = self.hit_latency(&p);
                        self.finish_local(Outcome::SpinDone(value), now + lat, stats, eff);
                    } else {
                        self.kstate = KState::Spinning { addr, pred };
                    }
                }
            },
        }
    }

    fn issue_store(
        &mut self,
        addr: Addr,
        value: Word,
        _now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        // Shared helper used by kernel stores; hit path handled by caller
        // via probe_store before calling — here we always probe again.
        match self.caches.probe_store(addr, value) {
            Probe::Miss => {
                let req = self.alloc_req();
                let block = self.caches.l2_block(addr);
                self.send_block_req(
                    block,
                    Payload::GetX {
                        req,
                        requester: self.id,
                        block,
                    },
                    eff,
                );
                self.wait(req, Cont::Store { addr, value });
            }
            p @ (Probe::L1 { state, .. } | Probe::L2 { state, .. }) => {
                if state.can_write() {
                    let lat = self.hit_latency(&p);
                    self.finish_local(Outcome::Stored, _now + lat, stats, eff);
                } else {
                    let req = self.alloc_req();
                    let block = self.caches.l2_block(addr);
                    self.send_block_req(
                        block,
                        Payload::Upgrade {
                            req,
                            requester: self.id,
                            block,
                        },
                        eff,
                    );
                    self.wait(req, Cont::Store { addr, value });
                }
            }
        }
    }

    /// Install a filled block, sending a writeback if the fill evicted an
    /// owned line. Exclusive fills open a minimum-residence window so a
    /// pending conditional store can complete before probes take the
    /// line away.
    fn fill(
        &mut self,
        block: BlockAddr,
        state: LineState,
        data: amo_types::BlockData,
        accessed: Addr,
        now: Cycle,
        eff: &mut Vec<ProcEffect>,
    ) {
        if state.can_write() {
            // An LL's fill must stay resident long enough for the
            // following SC to complete; other fills only need their own
            // write to land.
            let extra = match self.kstate {
                KState::Waiting {
                    cont: Cont::Ll { .. } | Cont::Sc { .. },
                    ..
                } => self.cfg.llsc_pair_overhead,
                _ => 0,
            };
            self.set_hold_until(block, now + self.cfg.min_residence + extra);
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
                        data: vd,
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
                self.on_data_exclusive(req, block, data, now, stats, eff)
            }
            Payload::UpgradeAck { req, block } => self.on_upgrade_ack(req, block, now, stats, eff),
            Payload::Inv { block } => self.on_inv(block, now, stats, eff),
            Payload::Intervention { kind, block } => {
                self.on_intervention(kind, block, now, stats, eff)
            }
            Payload::AmoReply { req, old } => {
                self.on_simple_reply(req, Outcome::Value(old), now, stats, eff)
            }
            Payload::MaoReply { req, old } => {
                self.on_simple_reply(req, Outcome::Value(old), now, stats, eff)
            }
            Payload::UncachedReadReply { req, value } => {
                self.on_simple_reply(req, Outcome::Value(value), now, stats, eff)
            }
            Payload::UncachedWriteAck { req } => {
                self.on_simple_reply(req, Outcome::Stored, now, stats, eff)
            }
            Payload::ActMsgAck { req, result } => self.on_actmsg_ack(req, result, now, stats, eff),
            Payload::AmuNack { req, .. } => self.on_amu_nack(req, now, stats, eff),
            Payload::ActiveMsg {
                req,
                requester,
                handler,
                ..
            } => self.on_incoming_actmsg(req, requester, *handler, now, stats, eff),
            other => panic!("processor {} got unexpected payload {other:?}", self.id),
        }
    }

    fn waiting_req(&self) -> Option<ReqId> {
        match self.kstate {
            KState::Waiting { req, .. } => Some(req),
            _ => None,
        }
    }

    fn on_data_shared(
        &mut self,
        req: ReqId,
        block: BlockAddr,
        data: amo_types::BlockData,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        assert_eq!(self.waiting_req(), Some(req), "unmatched DataS");
        let KState::Waiting { cont, .. } = self.kstate else {
            unreachable!()
        };
        let lat = self.cfg.l2.hit_latency; // fill + read
        match cont {
            Cont::Load { addr } => {
                self.fill(block, LineState::Shared, data, addr, now, eff);
                let v = self.caches.read_word(addr).expect("just filled");
                self.finish_local(Outcome::Value(v), now + lat, stats, eff);
            }
            Cont::SpinFill { addr, pred } => {
                self.fill(block, LineState::Shared, data, addr, now, eff);
                let v = self.caches.read_word(addr).expect("just filled");
                if pred.eval(v) {
                    self.finish_local(Outcome::SpinDone(v), now + lat, stats, eff);
                } else {
                    self.kstate = KState::Spinning { addr, pred };
                }
            }
            other => panic!("DataS for non-read continuation {other:?}"),
        }
        self.txn_complete(block, now, stats, eff);
    }

    fn on_data_exclusive(
        &mut self,
        req: ReqId,
        block: BlockAddr,
        data: amo_types::BlockData,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        // Injected (handler-published) store?
        if let Some((addr, value)) = self.take_injected(req) {
            self.fill(block, LineState::Exclusive, data, addr, now, eff);
            assert!(self.caches.write_owned_word(addr, value));
            self.after_injected_write(addr, value, now, stats, eff);
            self.txn_complete(block, now, stats, eff);
            return;
        }
        assert_eq!(self.waiting_req(), Some(req), "unmatched DataX");
        let KState::Waiting { cont, .. } = self.kstate else {
            unreachable!()
        };
        let lat = self.cfg.l2.hit_latency;
        match cont {
            Cont::Ll { addr } => {
                self.fill(block, LineState::Exclusive, data, addr, now, eff);
                self.reservation.set(block);
                let v = self.caches.read_word(addr).expect("just filled");
                self.finish_local(Outcome::Value(v), now + lat, stats, eff);
            }
            Cont::Store { addr, value } => {
                self.fill(block, LineState::Exclusive, data, addr, now, eff);
                assert!(self.caches.write_owned_word(addr, value));
                self.finish_local(Outcome::Stored, now + lat, stats, eff);
            }
            Cont::Sc { addr, value } => {
                // Our Upgrade was converted to a GetX because we lost the
                // line — the reservation went with it.
                self.fill(block, LineState::Exclusive, data, addr, now, eff);
                let ok = self.reservation.consume(block);
                if ok {
                    assert!(self.caches.write_owned_word(addr, value));
                    stats.sc_successes += 1;
                } else {
                    stats.sc_failures += 1;
                }
                self.finish_local(
                    Outcome::ScResult(ok),
                    now + lat + self.cfg.llsc_pair_overhead,
                    stats,
                    eff,
                );
            }
            Cont::Rmw {
                kind,
                addr,
                operand,
            } => {
                self.fill(block, LineState::Exclusive, data, addr, now, eff);
                let old = self.caches.read_word(addr).expect("just filled");
                assert!(self.caches.write_owned_word(addr, kind.apply(old, operand)));
                stats.atomic_ops += 1;
                self.finish_local(Outcome::Value(old), now + lat, stats, eff);
            }
            other => panic!("DataX for non-write continuation {other:?}"),
        }
        self.txn_complete(block, now, stats, eff);
    }

    fn on_upgrade_ack(
        &mut self,
        req: ReqId,
        block: BlockAddr,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        let extra = match self.kstate {
            KState::Waiting {
                cont: Cont::Ll { .. } | Cont::Sc { .. },
                ..
            } => self.cfg.llsc_pair_overhead,
            _ => 0,
        };
        self.set_hold_until(block, now + self.cfg.min_residence + extra);
        if let Some((addr, value)) = self.take_injected(req) {
            assert!(self.caches.grant_exclusive(block));
            assert!(self.caches.write_owned_word(addr, value));
            self.after_injected_write(addr, value, now, stats, eff);
            self.txn_complete(block, now, stats, eff);
            return;
        }
        assert_eq!(self.waiting_req(), Some(req), "unmatched UpgradeAck");
        let KState::Waiting { cont, .. } = self.kstate else {
            unreachable!()
        };
        assert!(
            self.caches.grant_exclusive(block),
            "upgrade ack for absent line"
        );
        let lat = self.cfg.l1.hit_latency;
        match cont {
            Cont::Ll { addr } => {
                self.reservation.set(block);
                let v = self.caches.read_word(addr).expect("upgraded line present");
                self.finish_local(Outcome::Value(v), now + lat, stats, eff);
            }
            Cont::Store { addr, value } => {
                assert!(self.caches.write_owned_word(addr, value));
                self.finish_local(Outcome::Stored, now + lat, stats, eff);
            }
            Cont::Sc { addr, value } => {
                let ok = self.reservation.consume(block);
                if ok {
                    assert!(self.caches.write_owned_word(addr, value));
                    stats.sc_successes += 1;
                } else {
                    stats.sc_failures += 1;
                }
                self.finish_local(
                    Outcome::ScResult(ok),
                    now + lat + self.cfg.llsc_pair_overhead,
                    stats,
                    eff,
                );
            }
            Cont::Rmw {
                kind,
                addr,
                operand,
            } => {
                let old = self.caches.read_word(addr).expect("upgraded line present");
                assert!(self.caches.write_owned_word(addr, kind.apply(old, operand)));
                stats.atomic_ops += 1;
                self.finish_local(Outcome::Value(old), now + lat, stats, eff);
            }
            other => panic!("UpgradeAck for non-write continuation {other:?}"),
        }
        self.txn_complete(block, now, stats, eff);
    }

    fn after_injected_write(
        &mut self,
        addr: Addr,
        value: Word,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        // If this processor is itself spinning on the word it just
        // published (the home processor participates in the barrier), the
        // local write must wake its own spin.
        if let KState::Spinning { addr: sa, pred } = self.kstate {
            if sa == addr && pred.eval(value) {
                self.finish_local(
                    Outcome::SpinDone(value),
                    now + self.cfg.l1.hit_latency,
                    stats,
                    eff,
                );
            }
        }
    }

    fn on_inv(
        &mut self,
        block: BlockAddr,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
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
        self.respin_if_watching(block, now, stats, eff);
    }

    fn respin_if_watching(
        &mut self,
        block: BlockAddr,
        _now: Cycle,
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
                let req = self.alloc_req();
                self.send_block_req(
                    block,
                    Payload::GetS {
                        req,
                        requester: self.id,
                        block,
                    },
                    eff,
                );
                self.wait(req, Cont::SpinFill { addr, pred });
            }
        }
    }

    fn on_intervention(
        &mut self,
        kind: InterventionKind,
        block: BlockAddr,
        now: Cycle,
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
                    Some((LineState::Modified, data)) => InterventionResp::Dirty(data),
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
            self.respin_if_watching(block, now, stats, eff);
        }
    }

    fn on_simple_reply(
        &mut self,
        req: ReqId,
        outcome: Outcome,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        if self.waiting_req() != Some(req) {
            // Under delivery faults, a duplicated reply (or the reply to
            // a request an e2e retransmission already completed) is
            // expected traffic: swallow it. In clean mode an unmatched
            // reply is a protocol bug and must stay loud.
            if self.delivery_hardened {
                stats.dup_suppressed += 1;
                return;
            }
            panic!("unmatched reply {req:?} at {}", self.id);
        }
        self.finish_local(outcome, now + 1, stats, eff);
    }

    fn on_actmsg_ack(
        &mut self,
        req: ReqId,
        result: Word,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        // Late or duplicate acks (after a retransmission raced the
        // original) are dropped.
        if self.waiting_req() == Some(req) {
            if let KState::Waiting {
                cont: Cont::ActMsg { .. },
                ..
            } = self.kstate
            {
                self.finish_local(Outcome::Acked(result), now + 1, stats, eff);
            }
        }
    }

    /// The home AMU refused this request (full dispatch queue or
    /// brown-out). Back off and rearm the retry timer; the resend happens
    /// when it fires (see [`Self::timeout`]). A NACK for anything other
    /// than the outstanding request is stale and dropped.
    fn on_amu_nack(
        &mut self,
        req: ReqId,
        now: Cycle,
        _stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        if self.waiting_req() != Some(req) {
            return;
        }
        let KState::Waiting { cont, .. } = self.kstate else {
            unreachable!()
        };
        let attempt = match cont {
            Cont::Amo { attempt, .. }
            | Cont::Mao { attempt, .. }
            | Cont::UncachedLoad { attempt, .. }
            | Cont::UncachedStore { attempt, .. } => attempt + 1,
            _ => return, // stale NACK for a continuation that cannot retry
        };
        if attempt > self.cfg.amu.max_retries {
            eff.push(ProcEffect::Fault {
                kind: ProcFault::AmuStarved { attempts: attempt },
                when: now,
            });
            return;
        }
        let cont = match cont {
            Cont::Amo {
                kind,
                addr,
                operand,
                test,
                ..
            } => Cont::Amo {
                kind,
                addr,
                operand,
                test,
                attempt,
            },
            Cont::Mao {
                kind,
                addr,
                operand,
                ..
            } => Cont::Mao {
                kind,
                addr,
                operand,
                attempt,
            },
            Cont::UncachedLoad { addr, .. } => Cont::UncachedLoad { addr, attempt },
            Cont::UncachedStore { addr, value, .. } => Cont::UncachedStore {
                addr,
                value,
                attempt,
            },
            _ => unreachable!(),
        };
        self.wait(req, cont);
        eff.push(ProcEffect::TimeoutAt {
            req,
            when: now + self.retry_delay_for(req, attempt, self.cfg.amu.nack_backoff),
            kind: TimerKind::Retry,
        });
    }

    /// A retransmission timer fired.
    /// Effects are appended to `eff`.
    pub fn timeout_into(
        &mut self,
        req: ReqId,
        kind: TimerKind,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        if self.waiting_req() != Some(req) {
            return; // already completed
        }
        let KState::Waiting { cont, .. } = self.kstate else {
            return;
        };
        if let TimerKind::E2e { attempt } = kind {
            self.e2e_expired(req, cont, attempt, now, stats, eff);
            return;
        }
        match cont {
            Cont::ActMsg {
                home,
                handler,
                attempt,
            } => {
                let attempt = attempt + 1;
                if attempt > self.cfg.actmsg.max_retries {
                    eff.push(ProcEffect::Fault {
                        kind: ProcFault::ActMsgStarved { attempts: attempt },
                        when: now,
                    });
                    return;
                }
                stats.actmsg_retransmissions += 1;
                let target_proc = home
                    .procs(self.cfg.procs_per_node)
                    .next()
                    .expect("node has processors");
                self.send_home(
                    home,
                    Payload::ActiveMsg {
                        req,
                        requester: self.id,
                        target_proc,
                        handler: Box::new(handler),
                        attempt,
                    },
                    eff,
                );
                eff.push(ProcEffect::TimeoutAt {
                    req,
                    when: now + self.retry_delay_for(req, attempt, self.cfg.actmsg.timeout),
                    kind: TimerKind::Retry,
                });
                self.wait(
                    req,
                    Cont::ActMsg {
                        home,
                        handler,
                        attempt,
                    },
                );
            }
            // AMU-NACK backoff expired: resend the original request with
            // the same tag (the AMU replies once; late duplicates are
            // impossible because a NACKed request was never queued).
            Cont::Amo {
                kind,
                addr,
                operand,
                test,
                ..
            } => {
                stats.amu_nack_retries += 1;
                self.send_home(
                    addr.home(),
                    Payload::AmoReq {
                        req,
                        requester: self.id,
                        kind,
                        addr,
                        operand,
                        test,
                    },
                    eff,
                );
            }
            Cont::Mao {
                kind,
                addr,
                operand,
                ..
            } => {
                stats.amu_nack_retries += 1;
                self.send_home(
                    addr.home(),
                    Payload::MaoReq {
                        req,
                        requester: self.id,
                        kind,
                        addr,
                        operand,
                    },
                    eff,
                );
            }
            Cont::UncachedLoad { addr, .. } => {
                stats.amu_nack_retries += 1;
                self.send_home(
                    addr.home(),
                    Payload::UncachedRead {
                        req,
                        requester: self.id,
                        addr,
                    },
                    eff,
                );
            }
            Cont::UncachedStore { addr, value, .. } => {
                stats.amu_nack_retries += 1;
                self.send_home(
                    addr.home(),
                    Payload::UncachedWrite {
                        req,
                        requester: self.id,
                        addr,
                        value,
                    },
                    eff,
                );
            }
            _ => {}
        }
    }

    /// An end-to-end delivery timer expired with its request still
    /// outstanding: some copy of the request or its reply vanished (or
    /// is crawling through a reorder window). Retransmit under the same
    /// tag — the AMU's dedup window makes the resend idempotent — with
    /// the actmsg exponential-backoff-plus-jitter schedule, and
    /// escalate to a typed `RequestTimedOut` past the budget.
    fn e2e_expired(
        &mut self,
        req: ReqId,
        cont: Cont,
        attempt: u32,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        let payload = match cont {
            Cont::Amo {
                kind,
                addr,
                operand,
                test,
                ..
            } => Payload::AmoReq {
                req,
                requester: self.id,
                kind,
                addr,
                operand,
                test,
            },
            Cont::Mao {
                kind,
                addr,
                operand,
                ..
            } => Payload::MaoReq {
                req,
                requester: self.id,
                kind,
                addr,
                operand,
            },
            Cont::UncachedLoad { addr, .. } => Payload::UncachedRead {
                req,
                requester: self.id,
                addr,
            },
            Cont::UncachedStore { addr, value, .. } => Payload::UncachedWrite {
                req,
                requester: self.id,
                addr,
                value,
            },
            // Active messages run their own retransmission machinery;
            // coherence continuations ride the reliable channel and
            // never arm this timer.
            _ => return,
        };
        stats.e2e_timeouts += 1;
        if attempt > self.cfg.faults.max_e2e_retries {
            eff.push(ProcEffect::Fault {
                kind: ProcFault::RequestTimedOut {
                    req,
                    attempts: attempt - 1,
                },
                when: now,
            });
            return;
        }
        stats.e2e_retransmissions += 1;
        let home = match &payload {
            Payload::AmoReq { addr, .. }
            | Payload::MaoReq { addr, .. }
            | Payload::UncachedRead { addr, .. }
            | Payload::UncachedWrite { addr, .. } => addr.home(),
            _ => unreachable!(),
        };
        self.send_home(home, payload, eff);
        eff.push(ProcEffect::TimeoutAt {
            req,
            when: now + self.retry_delay_for(req, attempt, self.cfg.faults.e2e_timeout),
            kind: TimerKind::E2e {
                attempt: attempt + 1,
            },
        });
    }

    /// Retransmission delay for the given attempt: exponential backoff
    /// (doubling, capped at 16× the base timeout) plus deterministic
    /// jitter. Without the backoff a saturated handler processor faces a
    /// constant retransmission storm that starves everyone; without the
    /// jitter, lock-step retry bursts repeat the same collision pattern
    /// forever in a deterministic simulation.
    fn retry_delay(req: ReqId, attempt: u32, timeout: Cycle) -> Cycle {
        let backoff = timeout << attempt.min(4);
        let mut x = req.0 ^ ((attempt as u64) << 24) ^ 0x9e37_79b9_7f4a_7c15;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        backoff + x % (backoff / 2).max(1)
    }

    /// [`Self::retry_delay`] with the jitter resolved through the
    /// attached choice tape, when one is present: the pick spreads over
    /// the same `[0, backoff/2)` band the keyed hash draws from, but the
    /// schedule explorer decides which alternative is taken.
    fn retry_delay_for(&self, req: ReqId, attempt: u32, timeout: Cycle) -> Cycle {
        let Some(tape) = &self.tape else {
            return Self::retry_delay(req, attempt, timeout);
        };
        let backoff = timeout << attempt.min(4);
        let mut t = tape.borrow_mut();
        let arity = t.cfg.jitter_choices.max(1);
        let pick = t.choose(ChoiceKind::RetryJitter, arity) as Cycle;
        backoff + pick * ((backoff / 2) / arity as Cycle).max(1)
    }

    /// The end-to-end retransmission schedule a request walks before a
    /// `RequestTimedOut` escalation under the hashed (untaped) jitter:
    /// the backoff delay of the initial arm (attempt 0) and of every
    /// retransmission `1..=attempts`. Diagnostics only — the machine
    /// attaches this to the timeout's error bundle so counterexamples
    /// are self-describing.
    pub fn e2e_retx_schedule(req: ReqId, attempts: u32, timeout: Cycle) -> Vec<Cycle> {
        (0..=attempts)
            .map(|a| Self::retry_delay(req, a, timeout))
            .collect()
    }

    fn on_incoming_actmsg(
        &mut self,
        req: ReqId,
        requester: ProcId,
        handler: HandlerKind,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        // At-most-once: if we already served this request, re-ack with the
        // stored result (the original ack or the handler's effect raced
        // with the sender's timeout). Request tags are monotonic per
        // sender, so anything *older* than the last served request is a
        // stale duplicate still crawling through the network — it must be
        // dropped, or it would re-run its handler (e.g. taking a phantom
        // lock ticket nobody will ever release).
        if let Some((served_req, result)) = self.served_get(requester) {
            if served_req == req {
                self.send_home(
                    requester.node(self.cfg.procs_per_node),
                    Payload::ActMsgAck { req, result },
                    eff,
                );
                return;
            }
            const SEQ_MASK: u64 = (1 << 48) - 1;
            if (served_req.0 & SEQ_MASK) > (req.0 & SEQ_MASK) {
                return;
            }
        }
        // Duplicate of a queued-but-unserved message: drop, the queued
        // copy will answer.
        if self.handler_queue.iter().any(|m| m.req == req)
            || self.running_handler.is_some_and(|m| m.req == req)
        {
            return;
        }
        if self.handler_queue.len() >= self.cfg.actmsg.queue_cap {
            stats.actmsg_drops += 1;
            return;
        }
        self.handler_queue.push_back(IncomingMsg {
            req,
            requester,
            handler,
        });
        if self.running_handler.is_none() {
            self.start_next_handler(now, stats, eff);
        }
    }

    /// Handlers served back-to-back before the scheduler inserts a yield
    /// gap for the host process.
    const YIELD_EVERY: u32 = 8;
    /// Length of a yield gap, in cycles.
    const YIELD_GAP: Cycle = 200;

    fn start_next_handler(&mut self, now: Cycle, stats: &mut Stats, eff: &mut Vec<ProcEffect>) {
        let Some(msg) = self.handler_queue.pop_front() else {
            return;
        };
        let mut start = now.max(self.busy_until);
        self.handlers_since_yield += 1;
        if self.handlers_since_yield >= Self::YIELD_EVERY {
            self.handlers_since_yield = 0;
            start += Self::YIELD_GAP;
        }
        let done = start + self.cfg.actmsg.invoke_cycles + self.cfg.actmsg.handler_cycles;
        stats.handler_busy_cycles += done - start;
        self.busy_from = start;
        self.busy_until = done;
        self.running_handler = Some(msg);
        eff.push(ProcEffect::HandlerWake { when: done });
    }

    /// A handler finished executing: apply its semantics, ack, publish.
    /// Effects are appended to `eff`.
    pub fn handler_done_into(&mut self, now: Cycle, stats: &mut Stats, eff: &mut Vec<ProcEffect>) {
        let msg = self
            .running_handler
            .take()
            .expect("handler_done without handler");
        stats.handlers_run += 1;
        let ppn = self.cfg.procs_per_node;
        match msg.handler {
            HandlerKind::FetchAdd {
                ctr,
                operand,
                publish,
            } => {
                let idx = ctr as usize;
                if self.service_counters.len() <= idx {
                    self.service_counters.resize(idx + 1, 0);
                }
                let old = self.service_counters[idx];
                let new = old.wrapping_add(operand);
                self.service_counters[idx] = new;
                // Ack with the pre-add value (fetch-and-add semantics).
                self.served_set(msg.requester, msg.req, old);
                self.send_home(
                    msg.requester.node(ppn),
                    Payload::ActMsgAck {
                        req: msg.req,
                        result: old,
                    },
                    eff,
                );
                if let Some(p) = publish {
                    let fire = p.when_count.is_none_or(|c| c == new);
                    if fire {
                        if p.reset {
                            self.service_counters[idx] = 0;
                        }
                        let value = p.value.unwrap_or(new);
                        self.start_injected_store(p.addr, value, now, stats, eff);
                    }
                }
            }
            HandlerKind::LockAcquire { lock } => {
                // A retransmitted acquire whose original is still queued,
                // or one that was granted while this duplicate sat in the
                // handler queue, must not take a second ticket (the
                // invocation cost was still paid — that is the
                // interference the paper describes).
                const SEQ_MASK: u64 = (1 << 48) - 1;
                let already_served = self
                    .served_get(msg.requester)
                    .is_some_and(|(r, _)| (r.0 & SEQ_MASK) >= (msg.req.0 & SEQ_MASK));
                let st = self.lock_srv_mut(lock);
                let duplicate = already_served || st.waiting.values().any(|&(_, r)| r == msg.req);
                if !duplicate {
                    let t = st.next_ticket;
                    st.next_ticket += 1;
                    if t == st.now_serving {
                        // Uncontended: grant immediately.
                        self.served_set(msg.requester, msg.req, t);
                        self.send_home(
                            msg.requester.node(ppn),
                            Payload::ActMsgAck {
                                req: msg.req,
                                result: t,
                            },
                            eff,
                        );
                    } else {
                        // Defer the ack: it will be sent as the grant.
                        st.waiting.insert(t, (msg.requester, msg.req));
                    }
                }
            }
            HandlerKind::LockRelease { lock } => {
                let st = self.lock_srv_mut(lock);
                st.now_serving += 1;
                let serving = st.now_serving;
                let granted = st.waiting.remove(&serving);
                self.served_set(msg.requester, msg.req, serving);
                self.send_home(
                    msg.requester.node(ppn),
                    Payload::ActMsgAck {
                        req: msg.req,
                        result: serving,
                    },
                    eff,
                );
                if let Some((w, wreq)) = granted {
                    self.served_set(w, wreq, serving);
                    self.send_home(
                        w.node(ppn),
                        Payload::ActMsgAck {
                            req: wreq,
                            result: serving,
                        },
                        eff,
                    );
                }
            }
        }
        self.start_next_handler(now, stats, eff);
    }

    fn start_injected_store(
        &mut self,
        addr: Addr,
        value: Word,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        // MSHR merge: wait for any in-flight transaction on this block.
        if self.outstanding.contains(&self.caches.l2_block(addr).0) {
            self.deferred_injected.push((addr, value));
            return;
        }
        match self.caches.probe_store(addr, value) {
            Probe::Miss => {
                let req = self.alloc_req_raw();
                let block = self.caches.l2_block(addr);
                self.injected.push((req, addr, value));
                self.send_block_req(
                    block,
                    Payload::GetX {
                        req,
                        requester: self.id,
                        block,
                    },
                    eff,
                );
            }
            Probe::L1 { state, .. } | Probe::L2 { state, .. } => {
                if state.can_write() {
                    // probe_store already performed the write.
                    self.after_injected_write(addr, value, now, stats, eff);
                } else {
                    let req = self.alloc_req_raw();
                    let block = self.caches.l2_block(addr);
                    self.injected.push((req, addr, value));
                    self.send_block_req(
                        block,
                        Payload::Upgrade {
                            req,
                            requester: self.id,
                            block,
                        },
                        eff,
                    );
                }
            }
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
        if let KState::Spinning { addr: sa, pred } = self.kstate {
            if sa == addr && pred.eval(value) {
                self.finish_local(
                    Outcome::SpinDone(value),
                    now + self.cfg.l1.hit_latency,
                    stats,
                    eff,
                );
            }
        }
    }

    /// Home-mediated lock state snapshot: (next_ticket, now_serving,
    /// waiting tickets) — diagnostics/tests.
    pub fn lock_srv_state(&self, lock: u16) -> Option<(Word, Word, Vec<Word>)> {
        self.lock_srv
            .iter()
            .find(|(l, _)| *l == lock)
            .map(|(_, s)| {
                (
                    s.next_ticket,
                    s.now_serving,
                    s.waiting.keys().copied().collect(),
                )
            })
    }

    /// Debug rendering of the kernel state (diagnostics).
    pub fn kstate_debug(&self) -> String {
        format!(
            "{:?} busy={}..{}",
            self.kstate, self.busy_from, self.busy_until
        )
    }

    /// Whether the kernel is currently sleeping on a spin (tests).
    pub fn is_spinning(&self) -> bool {
        matches!(self.kstate, KState::Spinning { .. })
    }

    /// Whether the kernel has finished (tests).
    pub fn is_finished(&self) -> bool {
        matches!(self.kstate, KState::Finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_types::SystemConfig;

    /// Collecting forms of the `*_into` entry points, so a test can match
    /// on what one call produced.
    impl Processor {
        fn step(&mut self, now: Cycle, stats: &mut Stats) -> Vec<ProcEffect> {
            let mut eff = Vec::new();
            self.step_into(now, stats, &mut eff);
            eff
        }

        fn handle(&mut self, payload: Payload, now: Cycle, stats: &mut Stats) -> Vec<ProcEffect> {
            let mut eff = Vec::new();
            self.handle_into(payload, now, stats, &mut eff);
            eff
        }

        fn timeout(
            &mut self,
            req: ReqId,
            kind: TimerKind,
            now: Cycle,
            stats: &mut Stats,
        ) -> Vec<ProcEffect> {
            let mut eff = Vec::new();
            self.timeout_into(req, kind, now, stats, &mut eff);
            eff
        }

        fn handler_done(&mut self, now: Cycle, stats: &mut Stats) -> Vec<ProcEffect> {
            let mut eff = Vec::new();
            self.handler_done_into(now, stats, &mut eff);
            eff
        }

        fn word_update(
            &mut self,
            addr: Addr,
            value: Word,
            now: Cycle,
            stats: &mut Stats,
        ) -> Vec<ProcEffect> {
            let mut eff = Vec::new();
            self.word_update_into(addr, value, now, stats, &mut eff);
            eff
        }
    }

    fn proc0() -> Processor {
        Processor::new(ProcId(0), SystemConfig::with_procs(4))
    }

    fn addr_on(node: u16, off: u64) -> Addr {
        Addr::on_node(NodeId(node), off)
    }

    fn data16(vals: &[(usize, Word)]) -> amo_types::BlockData {
        let mut d = amo_types::BlockData::zeroed(16);
        for &(i, v) in vals {
            d.set_word(i, v);
        }
        d
    }

    #[test]
    fn load_miss_sends_gets_and_completes_on_data() {
        let mut p = proc0();
        let mut s = Stats::new();
        let a = addr_on(1, 0x100);
        let outcomes: std::rc::Rc<std::cell::RefCell<Vec<Outcome>>> = Default::default();
        let oc = outcomes.clone();
        let mut first = true;
        p.load_kernel(Box::new(move |last: Option<Outcome>| {
            if let Some(o) = last {
                oc.borrow_mut().push(o);
            }
            if first {
                first = false;
                Op::Load { addr: a }
            } else {
                Op::Done
            }
        }));
        let eff = p.step(0, &mut s);
        let req = match &eff[..] {
            [ProcEffect::Send {
                dst,
                payload: Payload::GetS { req, .. },
            }] => {
                assert_eq!(*dst, NodeId(1));
                *req
            }
            other => panic!("unexpected {other:?}"),
        };
        let block = a.block(128);
        let eff = p.handle(
            Payload::DataS {
                req,
                block,
                data: data16(&[(0, 42)]),
            },
            500,
            &mut s,
        );
        // word 0x100/128: 0x100 & 127 = 0 → word 0 = 42.
        assert!(matches!(eff[..], [ProcEffect::Wake { when: 510 }]));
        let eff = p.step(510, &mut s);
        assert!(matches!(eff[..], [ProcEffect::Finished { when: 510 }]));
        assert_eq!(outcomes.borrow()[0], Outcome::Value(42));
    }

    #[test]
    fn llsc_success_on_owned_line() {
        let mut p = proc0();
        let mut s = Stats::new();
        let a = addr_on(1, 0x80);
        let mut step_n = 0;
        p.load_kernel(Box::new(move |_l: Option<Outcome>| {
            step_n += 1;
            match step_n {
                1 => Op::LoadLinked { addr: a },
                2 => Op::StoreConditional { addr: a, value: 7 },
                _ => Op::Done,
            }
        }));
        // LL misses → GetX (load-linked fetches with write intent).
        let eff = p.step(0, &mut s);
        let req = eff
            .iter()
            .find_map(|e| match e {
                ProcEffect::Send {
                    payload: Payload::GetX { req, .. },
                    ..
                } => Some(*req),
                _ => None,
            })
            .expect("GetX sent");
        p.handle(
            Payload::DataX {
                req,
                block: a.block(128),
                data: data16(&[]),
            },
            100,
            &mut s,
        );
        // SC on the Exclusive line succeeds locally, no traffic.
        let eff = p.step(110, &mut s);
        assert!(
            !eff.iter().any(|e| matches!(e, ProcEffect::Send { .. })),
            "local SC must not send: {eff:?}"
        );
        assert_eq!(s.sc_successes, 1);
        assert_eq!(p.caches().state_of(a), Some(LineState::Modified));
        // SC completes after the l1 hit plus the pair overhead.
        let done = 110 + p.cfg.l1.hit_latency + p.cfg.llsc_pair_overhead;
        let eff = p.step(done, &mut s);
        assert!(matches!(eff[..], [ProcEffect::Finished { .. }]));
    }

    #[test]
    fn invalidation_between_ll_and_sc_fails_the_sc() {
        let mut p = proc0();
        let mut s = Stats::new();
        let a = addr_on(1, 0x80);
        let mut step_n = 0;
        let results: std::rc::Rc<std::cell::RefCell<Vec<Outcome>>> = Default::default();
        let rc = results.clone();
        p.load_kernel(Box::new(move |l: Option<Outcome>| {
            if let Some(o) = l {
                rc.borrow_mut().push(o);
            }
            step_n += 1;
            match step_n {
                1 => Op::LoadLinked { addr: a },
                2 => Op::Delay { cycles: 100 }, // exceed the residence window
                3 => Op::StoreConditional { addr: a, value: 7 },
                _ => Op::Done,
            }
        }));
        let eff = p.step(0, &mut s);
        let req = eff
            .iter()
            .find_map(|e| match e {
                ProcEffect::Send {
                    payload: Payload::GetX { req, .. },
                    ..
                } => Some(*req),
                _ => None,
            })
            .expect("GetX");
        p.handle(
            Payload::DataX {
                req,
                block: a.block(128),
                data: data16(&[]),
            },
            100,
            &mut s,
        );
        // A probe inside the minimum-residence window is deferred...
        let eff = p.handle(
            Payload::Intervention {
                kind: InterventionKind::Exclusive,
                block: a.block(128),
            },
            105,
            &mut s,
        );
        let (payload, when) = match &eff[..] {
            [ProcEffect::Defer { payload, when }] => (payload.clone(), *when),
            other => panic!("expected deferral, got {other:?}"),
        };
        assert_eq!(when, 100 + p.cfg.min_residence + p.cfg.llsc_pair_overhead);
        // ...and steals the line (clearing the reservation) once
        // re-delivered after the window.
        let eff = p.handle(payload, when, &mut s);
        assert!(eff.iter().any(|e| matches!(
            e,
            ProcEffect::Send {
                payload: Payload::InterventionReply { .. },
                ..
            }
        )));
        // The SC (issued after the 100-cycle delay) now fails locally.
        p.step(110, &mut s); // completes the LL local op, starts Delay
        let _ = p.step(210, &mut s); // SC issues and fails
        assert_eq!(s.sc_failures, 1);
        let _ = p.step(212, &mut s);
        assert_eq!(*results.borrow().last().unwrap(), Outcome::ScResult(false));
    }

    #[test]
    fn spin_sleeps_then_wakes_on_word_update() {
        let mut p = proc0();
        let mut s = Stats::new();
        let a = addr_on(1, 0x80);
        let mut step_n = 0;
        p.load_kernel(Box::new(move |_l: Option<Outcome>| {
            step_n += 1;
            match step_n {
                1 => Op::SpinUntil {
                    addr: a,
                    pred: SpinPred::Eq(4),
                },
                _ => Op::Done,
            }
        }));
        let eff = p.step(0, &mut s);
        let req = eff
            .iter()
            .find_map(|e| match e {
                ProcEffect::Send {
                    payload: Payload::GetS { req, .. },
                    ..
                } => Some(*req),
                _ => None,
            })
            .expect("GetS");
        // Fill with 0: predicate unsatisfied → sleep, no effects.
        let eff = p.handle(
            Payload::DataS {
                req,
                block: a.block(128),
                data: data16(&[]),
            },
            100,
            &mut s,
        );
        assert!(eff.is_empty());
        assert!(p.is_spinning());
        // Update to 3: still asleep.
        assert!(p.word_update(a, 3, 200, &mut s).is_empty());
        // Update to 4: wake.
        let eff = p.word_update(a, 4, 300, &mut s);
        assert!(matches!(eff[..], [ProcEffect::Wake { when: 302 }]));
        let eff = p.step(302, &mut s);
        assert!(matches!(eff[..], [ProcEffect::Finished { .. }]));
    }

    #[test]
    fn spin_wakes_on_invalidation_with_reload() {
        let mut p = proc0();
        let mut s = Stats::new();
        let a = addr_on(1, 0x80);
        let mut step_n = 0;
        p.load_kernel(Box::new(move |_l: Option<Outcome>| {
            step_n += 1;
            match step_n {
                1 => Op::SpinUntil {
                    addr: a,
                    pred: SpinPred::Ge(1),
                },
                _ => Op::Done,
            }
        }));
        let eff = p.step(0, &mut s);
        let req0 = eff
            .iter()
            .find_map(|e| match e {
                ProcEffect::Send {
                    payload: Payload::GetS { req, .. },
                    ..
                } => Some(*req),
                _ => None,
            })
            .unwrap();
        p.handle(
            Payload::DataS {
                req: req0,
                block: a.block(128),
                data: data16(&[]),
            },
            100,
            &mut s,
        );
        assert!(p.is_spinning());
        // Writer invalidates: we ack and immediately reload.
        let eff = p.handle(
            Payload::Inv {
                block: a.block(128),
            },
            200,
            &mut s,
        );
        let req1 = eff
            .iter()
            .find_map(|e| match e {
                ProcEffect::Send {
                    payload: Payload::GetS { req, .. },
                    ..
                } => Some(*req),
                _ => None,
            })
            .expect("spin reload GetS");
        assert_ne!(req0, req1);
        assert_eq!(s.spin_reloads, 1);
        // Reload returns the written value: spin completes.
        let eff = p.handle(
            Payload::DataS {
                req: req1,
                block: a.block(128),
                data: data16(&[(0, 1)]),
            },
            400,
            &mut s,
        );
        assert!(matches!(eff[..], [ProcEffect::Wake { .. }]));
    }

    #[test]
    fn handler_executes_with_occupancy_and_acks() {
        let mut p = proc0(); // P0 on node 0 is the handler target
        let mut s = Stats::new();
        let h = HandlerKind::FetchAdd {
            ctr: 0,
            operand: 1,
            publish: None,
        };
        let eff = p.handle(
            Payload::ActiveMsg {
                req: ReqId(99),
                requester: ProcId(3),
                target_proc: ProcId(0),
                handler: Box::new(h),
                attempt: 0,
            },
            1000,
            &mut s,
        );
        // invoke 350 + handler 50 = done at 1400.
        assert!(matches!(eff[..], [ProcEffect::HandlerWake { when: 1400 }]));
        let eff = p.handler_done(1400, &mut s);
        match &eff[..] {
            [ProcEffect::Send {
                dst,
                payload: Payload::ActMsgAck { req, result },
            }] => {
                assert_eq!(*dst, NodeId(1)); // P3 lives on node 1
                assert_eq!(*req, ReqId(99));
                assert_eq!(*result, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.handlers_run, 1);
        // Duplicate (retransmitted) request is re-acked without re-running.
        let eff = p.handle(
            Payload::ActiveMsg {
                req: ReqId(99),
                requester: ProcId(3),
                target_proc: ProcId(0),
                handler: Box::new(h),
                attempt: 1,
            },
            2000,
            &mut s,
        );
        assert!(matches!(
            eff[..],
            [ProcEffect::Send {
                payload: Payload::ActMsgAck { result: 0, .. },
                ..
            }]
        ));
        assert_eq!(s.handlers_run, 1, "handler must not re-run");
    }

    #[test]
    fn handler_queue_overflow_drops() {
        let mut cfg = SystemConfig::with_procs(4);
        cfg.actmsg.queue_cap = 1;
        let mut p = Processor::new(ProcId(0), cfg);
        let mut s = Stats::new();
        let h = HandlerKind::FetchAdd {
            ctr: 0,
            operand: 1,
            publish: None,
        };
        for i in 0..3u64 {
            p.handle(
                Payload::ActiveMsg {
                    req: ReqId(i),
                    requester: ProcId(i as u16 + 1),
                    target_proc: ProcId(0),
                    handler: Box::new(h),
                    attempt: 0,
                },
                100,
                &mut s,
            );
        }
        // First started immediately, second queued, third dropped.
        assert_eq!(s.actmsg_drops, 1);
    }

    #[test]
    fn publish_fires_only_at_count() {
        let mut p = proc0();
        let mut s = Stats::new();
        let spin = addr_on(0, 0x200);
        let h = HandlerKind::FetchAdd {
            ctr: 0,
            operand: 1,
            publish: Some(amo_types::Publish {
                addr: spin,
                when_count: Some(2),
                value: Some(77),
                reset: true,
            }),
        };
        // First message: count 1, no publish.
        p.handle(
            Payload::ActiveMsg {
                req: ReqId(1),
                requester: ProcId(2),
                target_proc: ProcId(0),
                handler: Box::new(h),
                attempt: 0,
            },
            0,
            &mut s,
        );
        let eff = p.handler_done(660, &mut s);
        assert!(
            !eff.iter().any(|e| matches!(
                e,
                ProcEffect::Send {
                    payload: Payload::GetX { .. },
                    ..
                }
            )),
            "no publish at count 1"
        );
        // Second: count 2 → publish store (miss → GetX).
        p.handle(
            Payload::ActiveMsg {
                req: ReqId(2),
                requester: ProcId(3),
                target_proc: ProcId(0),
                handler: Box::new(h),
                attempt: 0,
            },
            700,
            &mut s,
        );
        let eff = p.handler_done(1360, &mut s);
        let req = eff
            .iter()
            .find_map(|e| match e {
                ProcEffect::Send {
                    payload: Payload::GetX { req, .. },
                    ..
                } => Some(*req),
                _ => None,
            })
            .expect("publish store issued");
        // Complete the injected store.
        let eff = p.handle(
            Payload::DataX {
                req,
                block: spin.block(128),
                data: data16(&[]),
            },
            1500,
            &mut s,
        );
        assert!(eff.is_empty());
        assert_eq!(p.caches().state_of(spin), Some(LineState::Modified));
    }

    #[test]
    fn actmsg_timeout_retransmits_same_req() {
        let mut p = proc0();
        let mut s = Stats::new();
        p.load_kernel(Box::new(move |_l: Option<Outcome>| Op::ActiveMsg {
            home: NodeId(1),
            handler: HandlerKind::FetchAdd {
                ctr: 0,
                operand: 1,
                publish: None,
            },
        }));
        let eff = p.step(0, &mut s);
        let (req, when) = match &eff[..] {
            [ProcEffect::Send {
                payload: Payload::ActiveMsg { req, .. },
                ..
            }, ProcEffect::TimeoutAt { req: r2, when, .. }] => {
                assert_eq!(req, r2);
                (*req, *when)
            }
            other => panic!("unexpected {other:?}"),
        };
        let eff = p.timeout(req, TimerKind::Retry, when, &mut s);
        assert!(eff.iter().any(|e| matches!(
            e,
            ProcEffect::Send {
                payload: Payload::ActiveMsg { attempt: 1, .. },
                ..
            }
        )));
        assert_eq!(s.actmsg_retransmissions, 1);
        // Ack resolves it; later timers are ignored.
        p.handle(Payload::ActMsgAck { req, result: 5 }, 9000, &mut s);
        assert!(p.timeout(req, TimerKind::Retry, 12000, &mut s).is_empty());
    }

    #[test]
    fn retry_backoff_schedule_is_pinned() {
        // Figure 5 baseline re-validation: the retransmission backoff
        // doubles per attempt up to 16x the base timeout, plus a
        // deterministic per-request jitter below half the backoff. The
        // exact schedule is pinned so a change to the backoff policy
        // (which shifts every baseline's retransmission counts) cannot
        // land silently.
        let req = ReqId((3 << 48) | 1);
        let delays: Vec<Cycle> = (0..7)
            .map(|a| Processor::retry_delay(req, a, 1_000))
            .collect();
        assert_eq!(
            delays,
            vec![1_428, 2_419, 5_530, 11_413, 21_965, 16_964, 18_079]
        );
        for (a, &d) in delays.iter().enumerate() {
            let backoff = 1_000u64 << (a as u32).min(4);
            assert!(
                d >= backoff && d < backoff + backoff / 2,
                "attempt {a}: {d}"
            );
        }
        // Jitter decorrelates distinct requests at the same attempt.
        assert_ne!(
            Processor::retry_delay(ReqId((3 << 48) | 2), 1, 1_000),
            Processor::retry_delay(req, 1, 1_000),
        );
    }

    #[test]
    fn lock_handlers_grant_in_fifo_order() {
        let mut p = proc0();
        let mut s = Stats::new();
        let acquire = HandlerKind::LockAcquire { lock: 0 };
        let release = HandlerKind::LockRelease { lock: 0 };
        let msg = |req: u64, from: u16, h| Payload::ActiveMsg {
            req: ReqId(((from as u64) << 48) | req),
            requester: ProcId(from),
            target_proc: ProcId(0),
            handler: Box::new(h),
            attempt: 0,
        };
        // P1 acquires: immediate grant (ticket 0 == serving 0).
        p.handle(msg(1, 1, acquire), 0, &mut s);
        let eff = p.handler_done(400, &mut s);
        assert!(
            eff.iter().any(|e| matches!(
                e,
                ProcEffect::Send {
                    payload: Payload::ActMsgAck { result: 0, .. },
                    ..
                }
            )),
            "first acquire granted immediately: {eff:?}"
        );
        // P2 and P3 queue up: no acks yet.
        p.handle(msg(1, 2, acquire), 500, &mut s);
        let eff = p.handler_done(900, &mut s);
        assert!(
            !eff.iter().any(|e| matches!(e, ProcEffect::Send { .. })),
            "{eff:?}"
        );
        p.handle(msg(1, 3, acquire), 1000, &mut s);
        let eff = p.handler_done(1400, &mut s);
        assert!(!eff.iter().any(|e| matches!(e, ProcEffect::Send { .. })));
        // P1 releases: the releaser is acked and P2 (ticket 1) granted.
        p.handle(msg(2, 1, release), 1500, &mut s);
        let eff = p.handler_done(1900, &mut s);
        let acks: Vec<u16> = eff
            .iter()
            .filter_map(|e| match e {
                ProcEffect::Send {
                    payload: Payload::ActMsgAck { req, .. },
                    ..
                } => Some((req.0 >> 48) as u16),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![1, 2], "releaser ack + FIFO grant to P2");
        assert_eq!(p.lock_srv_state(0), Some((3, 1, vec![2])));
    }

    /// Regression: a stale (older-sequence) duplicate of an acquire that
    /// was already served must not take a phantom ticket — that bug
    /// starved whole lock queues.
    #[test]
    fn stale_duplicate_acquire_takes_no_phantom_ticket() {
        let mut p = proc0();
        let mut s = Stats::new();
        let acquire = HandlerKind::LockAcquire { lock: 0 };
        let req_a = ReqId((1u64 << 48) | 5);
        let req_b = ReqId((1u64 << 48) | 6);
        // P1 acquires (granted), then sends a newer message (its
        // release, modeled here as another handler), updating the dedup
        // slot...
        p.handle(
            Payload::ActiveMsg {
                req: req_a,
                requester: ProcId(1),
                target_proc: ProcId(0),
                handler: Box::new(acquire),
                attempt: 0,
            },
            0,
            &mut s,
        );
        p.handler_done(400, &mut s);
        p.handle(
            Payload::ActiveMsg {
                req: req_b,
                requester: ProcId(1),
                target_proc: ProcId(0),
                handler: Box::new(HandlerKind::LockRelease { lock: 0 }),
                attempt: 0,
            },
            500,
            &mut s,
        );
        p.handler_done(900, &mut s);
        let before = p.lock_srv_state(0).unwrap();
        // ...then a stale retransmission of the old acquire crawls in.
        let eff = p.handle(
            Payload::ActiveMsg {
                req: req_a,
                requester: ProcId(1),
                target_proc: ProcId(0),
                handler: Box::new(acquire),
                attempt: 3,
            },
            2000,
            &mut s,
        );
        assert!(eff.is_empty(), "stale duplicate must be dropped: {eff:?}");
        assert_eq!(p.lock_srv_state(0).unwrap(), before, "no phantom ticket");
    }

    /// Regression: handler storms must not starve the home processor's
    /// own kernel forever — the scheduler inserts yield gaps.
    #[test]
    fn handler_storm_yields_to_the_kernel() {
        let mut p = proc0();
        let mut s = Stats::new();
        let issued = std::rc::Rc::new(std::cell::Cell::new(false));
        let flag = issued.clone();
        p.load_kernel(Box::new(move |_l: Option<Outcome>| {
            flag.set(true);
            Op::Done
        }));
        // Saturate the handler queue and keep it saturated past several
        // service windows.
        let h = HandlerKind::FetchAdd {
            ctr: 0,
            operand: 1,
            publish: None,
        };
        let mut now = 0u64;
        let mut wake_at = None;
        for i in 0..32u64 {
            p.handle(
                Payload::ActiveMsg {
                    req: ReqId(((2 + (i % 8)) << 48) | i),
                    requester: ProcId((2 + (i % 8)) as u16),
                    target_proc: ProcId(0),
                    handler: Box::new(h),
                    attempt: 0,
                },
                now,
                &mut s,
            );
            // Drive handler completions as the machine would.
            let eff = p.handler_done(now + 400, &mut s);
            for e in &eff {
                if let ProcEffect::HandlerWake { when } = e {
                    now = *when;
                }
            }
            // Step the kernel whenever the machine would wake it.
            let eff = p.step(now, &mut s);
            for e in &eff {
                if let ProcEffect::Wake { when } = e {
                    wake_at = Some(*when);
                }
            }
            if let Some(w) = wake_at {
                if w <= now {
                    p.step(w, &mut s);
                }
            }
            if issued.get() {
                break;
            }
        }
        // The deterministic yield (every 8 handlers) guarantees the
        // kernel got CPU time within a few windows.
        let eff = p.step(now + 1_000_000, &mut s);
        let _ = eff;
        assert!(
            issued.get() || {
                // One final step after all handlers drain must run it.
                p.step(now + 2_000_000, &mut s);
                issued.get()
            },
            "kernel starved by handler storm"
        );
    }

    #[test]
    fn intervention_returns_dirty_data() {
        let mut p = proc0();
        let mut s = Stats::new();
        let a = addr_on(1, 0x80);
        let mut n = 0;
        p.load_kernel(Box::new(move |_l: Option<Outcome>| {
            n += 1;
            if n == 1 {
                Op::Store { addr: a, value: 9 }
            } else {
                Op::Done
            }
        }));
        let eff = p.step(0, &mut s);
        let req = eff
            .iter()
            .find_map(|e| match e {
                ProcEffect::Send {
                    payload: Payload::GetX { req, .. },
                    ..
                } => Some(*req),
                _ => None,
            })
            .unwrap();
        p.handle(
            Payload::DataX {
                req,
                block: a.block(128),
                data: data16(&[]),
            },
            100,
            &mut s,
        );
        let eff = p.handle(
            Payload::Intervention {
                kind: InterventionKind::Exclusive,
                block: a.block(128),
            },
            200,
            &mut s,
        );
        match &eff[..] {
            [ProcEffect::Send {
                payload:
                    Payload::InterventionReply {
                        resp: InterventionResp::Dirty(d),
                        ..
                    },
                ..
            }] => {
                assert_eq!(d.word(0), 9);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.caches().state_of(a), None);
    }
}
