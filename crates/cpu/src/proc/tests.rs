use super::*;
use amo_types::{HandlerKind, SystemConfig};

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
    let req = ReqId::new(ProcId(3), 1);
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
        Processor::retry_delay(ReqId::new(ProcId(3), 2), 1, 1_000),
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
        req: ReqId::new(ProcId(from), req),
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
            } => Some(req.proc().0),
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
    let req_a = ReqId::new(ProcId(1), 5);
    let req_b = ReqId::new(ProcId(1), 6);
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
                req: ReqId::new(ProcId((2 + (i % 8)) as u16), i),
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

/// Every `Send` one call produced, as `(dst, payload)`.
fn sends(eff: &[ProcEffect]) -> Vec<(NodeId, Payload)> {
    eff.iter()
        .filter_map(|e| match e {
            ProcEffect::Send { dst, payload } => Some((*dst, payload.clone())),
            _ => None,
        })
        .collect()
}

/// A processor on a machine with delivery faults armed (end-to-end
/// timers on) and a resend budget of one on every timer.
fn hardened0() -> Processor {
    let mut cfg = SystemConfig::with_procs(4);
    cfg.faults.link_drop_ppm = 1;
    cfg.faults.max_e2e_retries = 1;
    cfg.amu.max_retries = 1;
    cfg.actmsg.max_retries = 1;
    Processor::new(ProcId(0), cfg)
}

const FETCH_ADD_MSG: Op = Op::ActiveMsg {
    home: NodeId(1),
    handler: HandlerKind::FetchAdd {
        ctr: 0,
        operand: 1,
        publish: None,
    },
};

#[test]
fn every_resend_repeats_the_first_send() {
    use amo_types::AmoKind::FetchAdd;
    let addr = addr_on(1, 0x100);
    for op in [
        Op::Amo {
            kind: FetchAdd,
            addr,
            operand: 1,
            test: Some(4),
        },
        Op::Mao {
            kind: FetchAdd,
            addr,
            operand: 1,
        },
        Op::UncachedLoad { addr },
        Op::UncachedStore { addr, value: 9 },
    ] {
        let mut p = hardened0();
        let mut s = Stats::new();
        p.load_kernel(Box::new(move |_l: Option<Outcome>| op));
        let eff = p.step(0, &mut s);
        let first = sends(&eff);
        let (req, class) = match &first[..] {
            [(NodeId(1), payload)] => (payload.req().expect("tagged"), payload.class()),
            other => panic!("{op:?}: first send {other:?}"),
        };
        assert!(
            matches!(
                eff[1],
                ProcEffect::TimeoutAt {
                    kind: TimerKind::E2e { attempt: 1 },
                    ..
                }
            ),
            "{eff:?}"
        );
        // NACK: back off, then the Retry expiry resends and arms nothing.
        let eff = p.handle(Payload::AmuNack { req, class }, 100, &mut s);
        let when = match eff[..] {
            [ProcEffect::TimeoutAt {
                req: r,
                when,
                kind: TimerKind::Retry,
            }] if r == req => when,
            _ => panic!("{op:?}: NACK produced {eff:?}"),
        };
        let eff = p.timeout(req, TimerKind::Retry, when, &mut s);
        assert_eq!((sends(&eff), eff.len()), (first.clone(), 1), "{op:?}");
        assert_eq!(s.amu_nack_retries, 1);
        // End-to-end expiry: resend and re-arm for the next attempt.
        let eff = p.timeout(req, TimerKind::E2e { attempt: 1 }, 50_000, &mut s);
        assert_eq!(sends(&eff), first, "{op:?}");
        assert!(
            matches!(
                eff[1],
                ProcEffect::TimeoutAt {
                    kind: TimerKind::E2e { attempt: 2 },
                    ..
                }
            ),
            "{eff:?}"
        );
        assert_eq!((s.e2e_timeouts, s.e2e_retransmissions), (1, 1));
        // Past either budget the op faults instead of resending.
        let eff = p.handle(Payload::AmuNack { req, class }, 60_000, &mut s);
        let starved = ProcFault::AmuStarved { attempts: 2 };
        assert!(
            matches!(eff[..], [ProcEffect::Fault { kind, .. }] if kind == starved),
            "{eff:?}"
        );
        let eff = p.timeout(req, TimerKind::E2e { attempt: 2 }, 90_000, &mut s);
        let timed_out = ProcFault::RequestTimedOut { req, attempts: 1 };
        assert!(
            matches!(eff[..], [ProcEffect::Fault { kind, .. }] if kind == timed_out),
            "{eff:?}"
        );
        assert_eq!((s.e2e_timeouts, s.e2e_retransmissions), (2, 1));
    }

    // An active message's retransmission differs only in `attempt`.
    let mut p = hardened0();
    let mut s = Stats::new();
    p.load_kernel(Box::new(|_l: Option<Outcome>| FETCH_ADD_MSG));
    let eff = p.step(0, &mut s);
    let (dst, first) = sends(&eff).pop().expect("first send");
    let req = first.req().expect("tagged");
    let Payload::ActiveMsg {
        requester,
        target_proc,
        handler,
        attempt: 0,
        ..
    } = first
    else {
        panic!("first send {first:?}");
    };
    let eff = p.timeout(req, TimerKind::Retry, 10_000, &mut s);
    let again = Payload::ActiveMsg {
        req,
        requester,
        target_proc,
        handler,
        attempt: 1,
    };
    assert_eq!(sends(&eff), vec![(dst, again)]);
    assert_eq!(s.actmsg_retransmissions, 1);
    let eff = p.timeout(req, TimerKind::Retry, 30_000, &mut s);
    let starved = ProcFault::ActMsgStarved { attempts: 2 };
    assert!(
        matches!(eff[..], [ProcEffect::Fault { kind, .. }] if kind == starved),
        "{eff:?}"
    );
}

#[test]
fn a_stale_nack_or_timer_is_ignored() {
    use amo_types::MsgClass;
    let addr = addr_on(1, 0x100);
    let amo = Op::Amo {
        kind: amo_types::AmoKind::Inc,
        addr,
        operand: 1,
        test: None,
    };
    // For each waiting op, the tags and timers that must do nothing: any
    // other tag on every channel, and for an op the AMU does not serve
    // (a coherence miss, an active message) also its own tag on the
    // NACK and end-to-end channels.
    for (op, own_tag_too) in [
        (amo, false),
        (Op::Load { addr }, true),
        (FETCH_ADD_MSG, true),
    ] {
        let mut p = hardened0();
        let mut s = Stats::new();
        p.load_kernel(Box::new(move |_l: Option<Outcome>| op));
        let eff = p.step(0, &mut s);
        let req = sends(&eff)[0].1.req().expect("tagged");
        let before = format!("{s:?} {}", p.kstate_debug());
        let stale = ReqId::new(ProcId(0), req.seq() + 7);
        let mut tags = vec![stale];
        if own_tag_too {
            tags.push(req);
        }
        for tag in tags {
            let nack = Payload::AmuNack {
                req: tag,
                class: MsgClass::Amo,
            };
            assert!(p.handle(nack, 100, &mut s).is_empty(), "{op:?} {tag:?}");
            let e2e = TimerKind::E2e { attempt: 1 };
            assert!(
                p.timeout(tag, e2e, 200, &mut s).is_empty(),
                "{op:?} {tag:?}"
            );
            if tag == stale {
                let retry = TimerKind::Retry;
                assert!(p.timeout(tag, retry, 300, &mut s).is_empty(), "{op:?}");
            }
        }
        assert_eq!(format!("{s:?} {}", p.kstate_debug()), before, "{op:?}");
    }
}

/// How a write finds its block writable.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Grant {
    /// Already owned: no message.
    Hit,
    /// Absent (or lost under an Upgrade): `DataX` brings it.
    DataX,
    /// Held Shared: `UpgradeAck` promotes it.
    UpgradeAck,
}

/// Run `op` on a word holding 5 so that its block becomes writable the
/// `grant` way; `reserved` says whether an SC still holds its LL's
/// reservation when it does. Returns (outcome, cycles from the grant to
/// completion, the word afterwards, [sc ok, sc fail, atomics]).
fn write_via(grant: Grant, op: Op, reserved: bool) -> (Outcome, Cycle, Word, [u64; 3]) {
    let a = addr_on(1, 0x80);
    let block = a.block(128);
    let sc = matches!(op, Op::StoreConditional { .. });
    let mut p = proc0();
    let mut s = Stats::new();
    // An SC only ever leaves the core from a Shared line.
    let initial = match grant {
        Grant::Hit => Some(LineState::Exclusive),
        Grant::UpgradeAck => Some(LineState::Shared),
        Grant::DataX => sc.then_some(LineState::Shared),
    };
    if let Some(state) = initial {
        p.caches.fill_block(block, state, data16(&[(0, 5)]), a);
    }
    if sc && (reserved || grant != Grant::Hit) {
        p.reservation.set(block);
    }
    let outcome: std::rc::Rc<std::cell::Cell<Option<Outcome>>> = Default::default();
    let seen = outcome.clone();
    p.load_kernel(Box::new(move |last: Option<Outcome>| match last {
        None => op,
        Some(o) => {
            seen.set(Some(o));
            Op::Done
        }
    }));
    let mut eff = p.step(1_000, &mut s);
    let mut granted_at = 1_000;
    if grant != Grant::Hit {
        let req = sends(&eff)[0].1.req().expect("tagged");
        if sc && !reserved {
            p.reservation.lose(block); // what an invalidation does
        }
        let reply = if grant == Grant::UpgradeAck {
            Payload::UpgradeAck { req, block }
        } else {
            p.caches.invalidate_block(block);
            let data = data16(&[(0, 5)]);
            Payload::DataX { req, block, data }
        };
        granted_at = 2_000;
        eff = p.handle(reply, granted_at, &mut s);
    }
    let [ProcEffect::Wake { when }] = eff[..] else {
        panic!("{op:?} via {grant:?}: {eff:?}");
    };
    p.step(when, &mut s);
    (
        outcome.get().expect("completed"),
        when - granted_at,
        p.caches.read_word(a).expect("resident"),
        [s.sc_successes, s.sc_failures, s.atomic_ops],
    )
}

#[test]
fn a_write_completes_the_same_from_hit_fill_and_upgrade() {
    let addr = addr_on(1, 0x80);
    let cfg = SystemConfig::with_procs(4);
    let sc = Op::StoreConditional { addr, value: 9 };
    let rmw = Op::AtomicRmw {
        kind: amo_types::AmoKind::FetchAdd,
        addr,
        operand: 3,
    };
    // (op, SC reservation intact, outcome, word after, [sc ok, sc fail, atomics])
    let table = [
        (Op::LoadLinked { addr }, true, Outcome::Value(5), 5, [0; 3]),
        (
            Op::Store { addr, value: 9 },
            true,
            Outcome::Stored,
            9,
            [0; 3],
        ),
        (sc, true, Outcome::ScResult(true), 9, [1, 0, 0]),
        (sc, false, Outcome::ScResult(false), 5, [0, 1, 0]),
        (rmw, true, Outcome::Value(5), 8, [0, 0, 1]),
    ];
    for (op, reserved, outcome, word, counts) in table {
        for (grant, base) in [
            (Grant::Hit, cfg.l1.hit_latency),
            (Grant::DataX, cfg.l2.hit_latency),
            (Grant::UpgradeAck, cfg.l1.hit_latency),
        ] {
            let latency = match op {
                // An SC without its reservation never probes the cache.
                Op::StoreConditional { .. } if !reserved && grant == Grant::Hit => 2,
                Op::StoreConditional { .. } => base + cfg.llsc_pair_overhead,
                _ => base,
            };
            assert_eq!(
                write_via(grant, op, reserved),
                (outcome, latency, word, counts),
                "{op:?} via {grant:?}, reserved: {reserved}"
            );
        }
    }
}

#[test]
fn every_ack_is_recorded_as_served() {
    let mut p = proc0();
    let mut s = Stats::new();
    let msg = |from: u16, seq: u64, handler: HandlerKind, attempt: u32| Payload::ActiveMsg {
        req: ReqId::new(ProcId(from), seq),
        requester: ProcId(from),
        target_proc: ProcId(0),
        handler: Box::new(handler),
        attempt,
    };
    // Deliver a message and run its handler; the acks it sent as
    // (requester, result).
    let mut now = 0;
    let mut serve = |p: &mut Processor, s: &mut Stats, m: Payload| -> Vec<(u16, Word)> {
        now += 1_000;
        let eff = p.handle(m, now, s);
        let [ProcEffect::HandlerWake { when }] = eff[..] else {
            panic!("not admitted: {eff:?}");
        };
        acks(&p.handler_done(when, s))
    };
    fn acks(eff: &[ProcEffect]) -> Vec<(u16, Word)> {
        sends(eff)
            .into_iter()
            .map(|(_, payload)| match payload {
                Payload::ActMsgAck { req, result } => (req.proc().0, result),
                other => panic!("not an ack: {other:?}"),
            })
            .collect()
    }
    let add = HandlerKind::FetchAdd {
        ctr: 0,
        operand: 4,
        publish: None,
    };
    let acquire = HandlerKind::LockAcquire { lock: 0 };
    let release = HandlerKind::LockRelease { lock: 0 };

    // A retransmission of an acked request is re-acked from the table:
    // same result, one effect, no handler.
    let reack = |p: &mut Processor, s: &mut Stats, m: Payload, want: (u16, Word)| {
        let run = s.handlers_run;
        let eff = p.handle(m, 900_000, s);
        assert_eq!((acks(&eff), eff.len()), (vec![want], 1));
        assert_eq!(
            s.handlers_run, run,
            "a served request ran its handler again"
        );
    };
    assert_eq!(serve(&mut p, &mut s, msg(1, 1, add, 0)), vec![(1, 0)]);
    reack(&mut p, &mut s, msg(1, 1, add, 1), (1, 0));
    // Uncontended acquire: ticket 0 at once.
    assert_eq!(serve(&mut p, &mut s, msg(2, 1, acquire, 0)), vec![(2, 0)]);
    reack(&mut p, &mut s, msg(2, 1, acquire, 1), (2, 0));
    // A contended acquire is acked only when granted: by the release,
    // whose two acks are both remembered.
    assert_eq!(serve(&mut p, &mut s, msg(3, 1, acquire, 0)), vec![]);
    assert_eq!(
        serve(&mut p, &mut s, msg(2, 2, release, 0)),
        vec![(2, 1), (3, 1)]
    );
    reack(&mut p, &mut s, msg(2, 2, release, 1), (2, 1));
    reack(&mut p, &mut s, msg(3, 1, acquire, 1), (3, 1));
    assert_eq!(p.lock_srv_state(0), Some((2, 1, vec![])));
    assert_eq!(s.handlers_run, 4);
}
