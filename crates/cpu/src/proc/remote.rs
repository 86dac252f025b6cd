//! The requester side of the AMO-layer channel: operations shipped to a
//! home node whole (AMO, MAO, uncached access, active message) instead of
//! fetching its block. One function spells the request for the first send
//! and for every resend; the rest is the three timers that guard it —
//! AMU-NACK backoff, end-to-end delivery and active-message
//! retransmission — and the replies that complete it.

use super::{KState, ProcEffect, ProcFault, Processor, TimerKind};
use crate::kernel::{Op, Outcome};
use amo_types::tape::ChoiceKind;
use amo_types::{Cycle, Payload, ReqId, Stats, Word};

/// Whether `op` executes at its home node's AMU — the ops the AMU can
/// NACK and the end-to-end timer guards.
fn amu_bound(op: &Op) -> bool {
    matches!(
        op,
        Op::Amo { .. } | Op::Mao { .. } | Op::UncachedLoad { .. } | Op::UncachedStore { .. }
    )
}

impl Processor {
    /// Spell the request `op` ships to its home under tag `req` and send
    /// it: the first send and every resend say the same thing. `attempt`
    /// rides only on active messages (trace/diagnostics at the server).
    fn send_remote(&self, op: Op, req: ReqId, attempt: u32, eff: &mut Vec<ProcEffect>) {
        let requester = self.id;
        let (dst, payload) = match op {
            Op::Amo {
                kind,
                addr,
                operand,
                test,
            } => (
                addr.home(),
                Payload::AmoReq {
                    req,
                    requester,
                    kind,
                    addr,
                    operand,
                    test,
                },
            ),
            Op::Mao {
                kind,
                addr,
                operand,
            } => (
                addr.home(),
                Payload::MaoReq {
                    req,
                    requester,
                    kind,
                    addr,
                    operand,
                },
            ),
            Op::UncachedLoad { addr } => (
                addr.home(),
                Payload::UncachedRead {
                    req,
                    requester,
                    addr,
                },
            ),
            Op::UncachedStore { addr, value } => (
                addr.home(),
                Payload::UncachedWrite {
                    req,
                    requester,
                    addr,
                    value,
                },
            ),
            Op::ActiveMsg { home, handler } => (
                home,
                Payload::ActiveMsg {
                    req,
                    requester,
                    target_proc: home
                        .procs(self.cfg.procs_per_node)
                        .next()
                        .expect("node has processors"),
                    handler: Box::new(handler),
                    attempt,
                },
            ),
            other => panic!("{other:?} is not shipped to a home node"),
        };
        eff.push(ProcEffect::Send { dst, payload });
    }

    /// First dispatch of a remote op: allocate its tag, send, wait, and
    /// arm the timer that guards it.
    pub(super) fn issue_remote(&mut self, op: Op, now: Cycle, eff: &mut Vec<ProcEffect>) {
        let req = self.alloc_req();
        self.send_remote(op, req, 0, eff);
        self.kstate = KState::Waiting {
            req,
            op,
            attempt: 0,
        };
        if amu_bound(&op) {
            self.arm_e2e(req, 0, now, eff);
        } else {
            self.arm_retry(req, 0, self.cfg.actmsg.timeout, now, eff);
        }
    }

    /// Arm the `Retry` timer (active-message retransmission or AMU-NACK
    /// backoff) for resend number `attempt` over timeout `base`.
    fn arm_retry(
        &self,
        req: ReqId,
        attempt: u32,
        base: Cycle,
        now: Cycle,
        eff: &mut Vec<ProcEffect>,
    ) {
        eff.push(ProcEffect::TimeoutAt {
            req,
            when: now + self.retry_delay_for(req, attempt, base),
            kind: TimerKind::Retry,
        });
    }

    /// Arm the end-to-end delivery timer after send number `attempt`
    /// (0 = the first) of an AMU-bound request. No-op unless delivery
    /// faults are active, so the fault-free machine schedules zero extra
    /// events.
    fn arm_e2e(&self, req: ReqId, attempt: u32, now: Cycle, eff: &mut Vec<ProcEffect>) {
        if self.delivery_hardened {
            eff.push(ProcEffect::TimeoutAt {
                req,
                when: now + self.retry_delay_for(req, attempt, self.cfg.faults.e2e_timeout),
                kind: TimerKind::E2e {
                    attempt: attempt + 1,
                },
            });
        }
    }

    /// An AMO / MAO / uncached reply arrived.
    pub(super) fn on_simple_reply(
        &mut self,
        req: ReqId,
        outcome: Outcome,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        if self.waiting(req).is_none() {
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

    /// An active-message ack arrived. Late or duplicate acks (after a
    /// retransmission raced the original) are dropped.
    pub(super) fn on_actmsg_ack(
        &mut self,
        req: ReqId,
        result: Word,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        if let Some((Op::ActiveMsg { .. }, _)) = self.waiting(req) {
            self.finish_local(Outcome::Acked(result), now + 1, stats, eff);
        }
    }

    /// The home AMU refused this request (full dispatch queue or
    /// brown-out). Back off and rearm the retry timer; the resend happens
    /// when it fires (see [`Self::timeout_into`]). A NACK for anything
    /// other than the outstanding request, or for an op that cannot
    /// retry, is stale and dropped.
    pub(super) fn on_amu_nack(&mut self, req: ReqId, now: Cycle, eff: &mut Vec<ProcEffect>) {
        let Some((op, attempt)) = self.waiting(req).filter(|(op, _)| amu_bound(op)) else {
            return;
        };
        let attempt = attempt + 1;
        if attempt > self.cfg.amu.max_retries {
            eff.push(ProcEffect::Fault {
                kind: ProcFault::AmuStarved { attempts: attempt },
                when: now,
            });
            return;
        }
        self.kstate = KState::Waiting { req, op, attempt };
        self.arm_retry(req, attempt, self.cfg.amu.nack_backoff, now, eff);
    }

    /// A retransmission timer fired. Nothing happens unless `req` is
    /// still the outstanding request.
    /// Effects are appended to `eff`.
    pub fn timeout_into(
        &mut self,
        req: ReqId,
        kind: TimerKind,
        now: Cycle,
        stats: &mut Stats,
        eff: &mut Vec<ProcEffect>,
    ) {
        let Some((op, attempt)) = self.waiting(req) else {
            return; // already completed
        };
        match (kind, op) {
            (TimerKind::Retry, Op::ActiveMsg { .. }) => {
                let attempt = attempt + 1;
                if attempt > self.cfg.actmsg.max_retries {
                    eff.push(ProcEffect::Fault {
                        kind: ProcFault::ActMsgStarved { attempts: attempt },
                        when: now,
                    });
                    return;
                }
                stats.actmsg_retransmissions += 1;
                self.send_remote(op, req, attempt, eff);
                self.arm_retry(req, attempt, self.cfg.actmsg.timeout, now, eff);
                self.kstate = KState::Waiting { req, op, attempt };
            }
            // AMU-NACK backoff expired: resend the original request with
            // the same tag (the AMU replies once; late duplicates are
            // impossible because a NACKed request was never queued).
            (TimerKind::Retry, _) if amu_bound(&op) => {
                stats.amu_nack_retries += 1;
                self.send_remote(op, req, attempt, eff);
            }
            // The end-to-end delivery timer expired with its request
            // still outstanding: some copy of the request or its reply
            // vanished (or is crawling through a reorder window).
            // Retransmit under the same tag — the AMU's dedup window
            // makes the resend idempotent — with the actmsg
            // exponential-backoff-plus-jitter schedule, and escalate to a
            // typed `RequestTimedOut` past the budget.
            (TimerKind::E2e { attempt: nth }, _) if amu_bound(&op) => {
                stats.e2e_timeouts += 1;
                if nth > self.cfg.faults.max_e2e_retries {
                    eff.push(ProcEffect::Fault {
                        kind: ProcFault::RequestTimedOut {
                            req,
                            attempts: nth - 1,
                        },
                        when: now,
                    });
                    return;
                }
                stats.e2e_retransmissions += 1;
                self.send_remote(op, req, 0, eff);
                self.arm_e2e(req, nth, now, eff);
            }
            // Active messages run their own retransmission machinery;
            // coherence ops ride the reliable channel and never arm a
            // timer.
            _ => {}
        }
    }

    /// Retransmission delay for the given attempt: exponential backoff
    /// (doubling, capped at 16× the base timeout) plus deterministic
    /// jitter. Without the backoff a saturated handler processor faces a
    /// constant retransmission storm that starves everyone; without the
    /// jitter, lock-step retry bursts repeat the same collision pattern
    /// forever in a deterministic simulation.
    pub(super) fn retry_delay(req: ReqId, attempt: u32, timeout: Cycle) -> Cycle {
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
}
