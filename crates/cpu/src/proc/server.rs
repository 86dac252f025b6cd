//! The active-message handler server: what the home processor does for
//! *other* processors' `Op::ActiveMsg` requests. It owns the incoming
//! queue, the handler occupancy window with its yield gaps, the
//! at-most-once table, the service counters and the home-mediated lock
//! state. It never touches the caches or MSHRs: a handler that publishes
//! a value hands the store back to the processor, which injects it.

use super::ProcEffect;
use amo_types::{
    ActMsgConfig, Addr, Cycle, HandlerKind, Payload, ProcId, ReqId, Stats, SystemConfig, Word,
};
use std::collections::{BTreeMap, VecDeque};

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
    waiting: BTreeMap<Word, (ProcId, ReqId)>,
}

/// One processor's handler-execution state.
pub(super) struct HandlerServer {
    cfg: ActMsgConfig,
    procs_per_node: u16,
    queue: VecDeque<IncomingMsg>,
    running: Option<IncomingMsg>,
    /// Current handler window: the processor is occupied by handler
    /// execution in `busy_from..busy_until`. The kernel may issue before
    /// `busy_from` (yield gaps between handler bursts).
    busy_from: Cycle,
    /// End of the current handler window.
    busy_until: Cycle,
    /// Handlers served since the last yield gap.
    handlers_since_yield: u32,
    /// At-most-once dedup: last served request per requester, indexed
    /// densely by [`ProcId::index`] and grown on demand.
    served: Vec<Option<(ReqId, Word)>>,
    /// Node-local active-message service counters.
    service_counters: Vec<Word>,
    /// Home-mediated lock state, keyed by lock index (few locks per
    /// home — linear scan).
    lock_srv: Vec<(u16, LockSrv)>,
}

impl HandlerServer {
    /// Handlers served back-to-back before the scheduler inserts a yield
    /// gap for the host process.
    const YIELD_EVERY: u32 = 8;
    /// Length of a yield gap, in cycles.
    const YIELD_GAP: Cycle = 200;

    pub(super) fn new(cfg: &SystemConfig) -> Self {
        HandlerServer {
            cfg: cfg.actmsg,
            procs_per_node: cfg.procs_per_node,
            queue: VecDeque::new(),
            running: None,
            busy_from: 0,
            busy_until: 0,
            handlers_since_yield: 0,
            served: Vec::new(),
            service_counters: Vec::new(),
            lock_srv: Vec::new(),
        }
    }

    /// End of the handler window occupying the pipeline at `now`, if one
    /// does. The kernel is free before `busy_from`: the yield gaps
    /// guarantee the host process is never starved forever by a handler
    /// storm.
    pub(super) fn busy_until(&self, now: Cycle) -> Option<Cycle> {
        (now >= self.busy_from && self.busy_until > now).then_some(self.busy_until)
    }

    /// The current handler window, `busy_from..busy_until` (diagnostics).
    pub(super) fn window(&self) -> (Cycle, Cycle) {
        (self.busy_from, self.busy_until)
    }

    /// Last served (request, result) for `requester`, if any.
    fn served_get(&self, requester: ProcId) -> Option<(ReqId, Word)> {
        self.served.get(requester.index()).copied().flatten()
    }

    /// Record `req` as served with `result`, then acknowledge it. The two
    /// go together: an ack the table does not remember would let a
    /// retransmission of `req` run its handler a second time.
    fn ack(&mut self, to: ProcId, req: ReqId, result: Word, eff: &mut Vec<ProcEffect>) {
        let idx = to.index();
        if self.served.len() <= idx {
            self.served.resize(idx + 1, None);
        }
        self.served[idx] = Some((req, result));
        eff.push(ProcEffect::Send {
            dst: to.node(self.procs_per_node),
            payload: Payload::ActMsgAck { req, result },
        });
    }

    /// Lock-server state for `lock`, created on first touch.
    fn lock_srv_mut(&mut self, lock: u16) -> &mut LockSrv {
        if let Some(i) = self.lock_srv.iter().position(|(l, _)| *l == lock) {
            return &mut self.lock_srv[i].1;
        }
        self.lock_srv.push((lock, LockSrv::default()));
        &mut self.lock_srv.last_mut().expect("just pushed").1
    }

    /// An active message arrived: re-ack, drop or admit it.
    pub(super) fn incoming(
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
        if let Some((served, result)) = self.served_get(requester) {
            if served == req {
                self.ack(requester, req, result, eff);
                return;
            }
            if served.seq() > req.seq() {
                return;
            }
        }
        // Duplicate of a queued-but-unserved message: drop, the queued
        // copy will answer.
        if self.queue.iter().any(|m| m.req == req) || self.running.is_some_and(|m| m.req == req) {
            return;
        }
        if self.queue.len() >= self.cfg.queue_cap {
            stats.actmsg_drops += 1;
            return;
        }
        self.queue.push_back(IncomingMsg {
            req,
            requester,
            handler,
        });
        if self.running.is_none() {
            self.start_next(now, stats, eff);
        }
    }

    /// Start the next queued handler, if any, after the current window
    /// (and a yield gap every [`Self::YIELD_EVERY`] handlers).
    pub(super) fn start_next(&mut self, now: Cycle, stats: &mut Stats, eff: &mut Vec<ProcEffect>) {
        let Some(msg) = self.queue.pop_front() else {
            return;
        };
        let mut start = now.max(self.busy_until);
        self.handlers_since_yield += 1;
        if self.handlers_since_yield >= Self::YIELD_EVERY {
            self.handlers_since_yield = 0;
            start += Self::YIELD_GAP;
        }
        let done = start + self.cfg.invoke_cycles + self.cfg.handler_cycles;
        stats.handler_busy_cycles += done - start;
        self.busy_from = start;
        self.busy_until = done;
        self.running = Some(msg);
        eff.push(ProcEffect::HandlerWake { when: done });
    }

    /// The running handler finished executing: apply its semantics and
    /// ack. Returns the store it publishes, if any, for the processor to
    /// inject — before it calls [`Self::start_next`].
    pub(super) fn done(
        &mut self,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) -> Option<(Addr, Word)> {
        let msg = self.running.take().expect("handler_done without handler");
        stats.handlers_run += 1;
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
                self.ack(msg.requester, msg.req, old, eff);
                if let Some(p) = publish.filter(|p| p.when_count == new) {
                    return Some((p.addr, p.value));
                }
            }
            HandlerKind::LockAcquire { lock } => {
                // A retransmitted acquire whose original is still queued,
                // or one that was granted while this duplicate sat in the
                // handler queue, must not take a second ticket (the
                // invocation cost was still paid — that is the
                // interference the paper describes).
                let already_served = self
                    .served_get(msg.requester)
                    .is_some_and(|(r, _)| r.seq() >= msg.req.seq());
                let st = self.lock_srv_mut(lock);
                let duplicate = already_served || st.waiting.values().any(|&(_, r)| r == msg.req);
                if !duplicate {
                    let t = st.next_ticket;
                    st.next_ticket += 1;
                    if t == st.now_serving {
                        // Uncontended: grant immediately.
                        self.ack(msg.requester, msg.req, t, eff);
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
                self.ack(msg.requester, msg.req, serving, eff);
                if let Some((w, wreq)) = granted {
                    self.ack(w, wreq, serving, eff);
                }
            }
        }
        None
    }

    /// Home-mediated lock state snapshot: (next_ticket, now_serving,
    /// waiting tickets).
    #[cfg(test)]
    pub(super) fn lock_state(&self, lock: u16) -> Option<(Word, Word, Vec<Word>)> {
        let (_, s) = self.lock_srv.iter().find(|(l, _)| *l == lock)?;
        Some((
            s.next_ticket,
            s.now_serving,
            s.waiting.keys().copied().collect(),
        ))
    }
}
