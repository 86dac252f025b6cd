//! Layer drivers: each calls one layer's public functions on a
//! synthetic stream, in isolation, and reports the floor of several
//! reps as nanoseconds (or microseconds) per call.
//!
//! A driver's number is what the layer costs when nothing else is in
//! the cache with it — a lower bound on its share of a real run, and
//! the figure that moves first when someone changes that layer.

use crate::catalog::{Metrics, Scale};
use crate::measure::floor_ns_per;
use amo_amu::{Amu, AmuEffect, AmuOp};
use amo_cache::{CacheHierarchy, LineState};
use amo_cpu::{ProcEffect, Processor};
use amo_directory::{DirAction, DirRequest, Directory};
use amo_engine::{EventQueue, QueueKind};
use amo_noc::Fabric;
use amo_sim::Machine;
use amo_sync::{BarrierKernel, BarrierSpec, Mechanism, VarAlloc};
use amo_types::{
    Addr, AmoKind, BlockAddr, BlockData, MsgEndpoint, NodeId, Payload, ProcId, ReqId, Stats,
    SystemConfig, Word,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

const HOME: NodeId = NodeId(0);

/// Run every driver and record its metric.
pub fn run_all(m: &mut Metrics, sc: &Scale) {
    machine_new(m, sc);
    queue(m, sc);
    fabric(m, sc);
    directory(m, sc);
    amu(m, sc);
    cache(m, sc);
    processor(m, sc);
}

/// `Machine::new` at three machine sizes; the drop is outside the
/// timing.
fn machine_new(m: &mut Metrics, sc: &Scale) {
    for (name, procs) in [
        ("sim.machine_new_us_p4", 4),
        ("sim.machine_new_us_p64", 64),
        ("sim.machine_new_us_p256", 256),
    ] {
        let ns = floor_ns_per(sc.driver_reps, 1, || {
            Machine::new(SystemConfig::with_procs(procs))
        });
        m.set(name, ns / 1e3);
    }
}

/// Calendar queue: waves of 4096 `schedule` calls at the simulator's
/// mixed offsets (same-cycle bursts, short hops), each drained with
/// `pop_batch_into`; one queue carries through all waves.
fn queue(m: &mut Metrics, sc: &Scale) {
    const WAVE: u64 = 4096;
    let waves = (256 / sc.driver_shrink).max(1);
    let ns = floor_ns_per(sc.driver_reps, waves * WAVE, || {
        let mut q: EventQueue<u64> = EventQueue::with_kind(QueueKind::Calendar);
        let mut batch = Vec::new();
        let (mut t, mut sum) = (0u64, 0u64);
        for _ in 0..waves {
            for i in 0..WAVE {
                t += [0, 0, 3, 17][(i % 4) as usize];
                q.schedule(t, i);
            }
            while q.pop_batch_into(&mut batch).is_some() {
                for e in batch.drain(..) {
                    sum = sum.wrapping_add(e);
                }
            }
        }
        sum
    });
    m.set("engine.queue_ns_per_event", ns);
}

/// `Fabric::send` of a control message between all pairs of 32 nodes.
fn fabric(m: &mut Metrics, sc: &Scale) {
    const NODES: u16 = 32;
    let sweeps = (16 / sc.driver_shrink).max(1);
    let payload = Payload::InvAck {
        block: BlockAddr(0x1000),
        from: ProcId(0),
    };
    let mut fabric = Fabric::new(NODES, SystemConfig::default().network);
    let mut stats = Stats::new();
    let mut now = 0;
    let ns = floor_ns_per(sc.driver_reps, sweeps * (NODES as u64).pow(2), || {
        for _ in 0..sweeps {
            for s in 0..NODES {
                for d in 0..NODES {
                    now = fabric.send(
                        now,
                        NodeId(s),
                        NodeId(d),
                        &payload,
                        MsgEndpoint::Hub,
                        &mut stats,
                    );
                }
            }
        }
        now
    });
    m.set("noc.send_ns", ns);
}

/// One block's life under the LL/SC barrier's access pattern: 63
/// readers join (`GetS` + DRAM completion each), a writer takes it
/// (`GetX`, 63 invalidations acknowledged), and the owner evicts it
/// again. 192 directory calls per round, timed per call.
fn directory(m: &mut Metrics, sc: &Scale) {
    const READERS: u16 = 63;
    const CALLS: u64 = 2 * READERS as u64 + 2 + READERS as u64 + 1;
    let rounds = (200 / sc.driver_shrink).max(1);
    let block = Addr::on_node(HOME, 0x1000).block(128);
    let data = BlockData::zeroed(16);
    let mut dir = Directory::new(HOME, 2);
    let mut stats = Stats::new();
    let mut actions: Vec<DirAction> = Vec::new();
    let ns = floor_ns_per(sc.driver_reps, rounds * CALLS, || {
        for _ in 0..rounds {
            for p in 0..READERS {
                let req = DirRequest::GetS {
                    req: ReqId(p as u64),
                    requester: ProcId(p),
                };
                dir.request_into(block, req, &mut stats, &mut actions);
                dir.dram_done_into(block, data.clone(), &mut stats, &mut actions);
                actions.clear();
            }
            let writer = ProcId(READERS);
            let req = DirRequest::GetX {
                req: ReqId(READERS as u64),
                requester: writer,
            };
            dir.request_into(block, req, &mut stats, &mut actions);
            dir.dram_done_into(block, data.clone(), &mut stats, &mut actions);
            for p in 0..READERS {
                dir.inv_ack_into(block, ProcId(p), &mut stats, &mut actions);
            }
            actions.clear();
            dir.writeback_into(block, writer, data.clone(), &mut stats, &mut actions);
            actions.clear();
        }
        dir.open_transactions()
    });
    assert!(
        !dir.is_busy(block),
        "directory driver left a transaction open"
    );
    assert_eq!(stats.invalidations_sent % READERS as u64, 0);
    m.set("directory.request_ns", ns);
}

/// The AMO barrier's stream at the AMU: fetch-adds from 64 requesters
/// on one cached word, a test value that fires a put every 64th, each
/// followed by the function unit's wake-up. Two calls per op.
fn amu(m: &mut Metrics, sc: &Scale) {
    let ops = (100_000 / sc.driver_shrink).max(64);
    let cfg = SystemConfig::default();
    let op_latency = cfg.amu.op_hub_cycles * cfg.hub_cycle;
    let addr = Addr::on_node(HOME, 0x2000);
    let ns = floor_ns_per(sc.driver_reps, 2 * ops, || {
        let mut amu = Amu::new(
            cfg.amu.cache_words,
            op_latency,
            cfg.amu.queue_cap,
            cfg.l2.line_bytes,
        );
        let mut stats = Stats::new();
        let mut effects: Vec<AmuEffect> = Vec::new();
        let mut now = 0;
        for i in 0..ops {
            let op = AmuOp::Amo {
                req: ReqId(i + 1),
                requester: ProcId((i % 64) as u16),
                kind: AmoKind::FetchAdd,
                addr,
                operand: 1,
                test: Some((i / 64 + 1) * 64),
            };
            assert!(amu.submit_into(op, now, &mut stats, &mut effects));
            // Only the very first op misses; answer its fine-grained get.
            if let Some(&AmuEffect::FineGet { token, .. }) = effects.first() {
                effects.clear();
                amu.fine_value_into(token, addr, 0, now, &mut stats, &mut effects)
                    .expect("AMU awaits this value");
            }
            effects.clear();
            now += op_latency;
            amu.advance_into(now, &mut stats, &mut effects);
            effects.clear();
        }
        assert_eq!(stats.amu_misses, 1, "AMU driver stream must hit");
        stats.amo_ops
    });
    m.set("amu.submit_ns", ns);
}

/// Cache hierarchy: L1-hit loads over a resident block, pushed word
/// updates into it, and fill + invalidate of a second block.
fn cache(m: &mut Metrics, sc: &Scale) {
    let n = (200_000 / sc.driver_shrink).max(16);
    let cfg = SystemConfig::default();
    let words = cfg.l2.line_words() as u64;
    let base = Addr::on_node(HOME, 0x4000);
    let word = |i: u64| Addr(base.0 + 8 * (i % words));
    let mut c = CacheHierarchy::new(cfg.l1, cfg.l2);
    let block = c.l2_block(base);
    c.fill_block(
        block,
        LineState::Shared,
        BlockData::zeroed(words as usize),
        base,
    );
    for i in 0..words {
        c.probe_load(word(i)); // pull every L1 sub-block in
    }
    let probe = floor_ns_per(sc.driver_reps, n, || {
        for i in 0..n {
            black_box(c.probe_load(word(i)));
        }
    });
    m.set("cache.probe_ns", probe);
    let update = floor_ns_per(sc.driver_reps, n, || {
        for i in 0..n {
            black_box(c.apply_word_update(word(i), i as Word));
        }
    });
    m.set("cache.word_update_ns", update);

    let other = Addr::on_node(HOME, 0x8000);
    let other_block = c.l2_block(other);
    let pairs = n / 8;
    // Blocks are built outside the timing: the simulator receives them
    // ready-made in data replies.
    let mut blocks: Vec<BlockData> = Vec::new();
    let mut best = f64::INFINITY;
    for _ in 0..sc.driver_reps.max(1) {
        blocks.resize(pairs as usize, BlockData::zeroed(words as usize));
        let t0 = Instant::now();
        for data in blocks.drain(..) {
            c.fill_block(other_block, LineState::Shared, data, other);
            black_box(c.invalidate_block(other_block));
        }
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    m.set("cache.fill_inval_ns", best / pairs as f64);
}

/// A `Processor` running one participant of a two-processor AMO
/// barrier, with the rest of the machine answered by hand: the AMU's
/// reply, the first spin load's data reply, and the put's word update.
/// `step_into` and `handle_into` are timed per call (the two clock
/// reads around each call are part of the figure).
fn processor(m: &mut Metrics, sc: &Scale) {
    let episodes = (5_000 / sc.driver_shrink as u32).max(4);
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..sc.driver_reps.max(1) {
        let (step, handle) = processor_once(episodes);
        best = (best.0.min(step), best.1.min(handle));
    }
    m.set("cpu.step_ns", best.0);
    m.set("cpu.handle_ns", best.1);
}

/// One pass of the processor driver: mean nanoseconds per `step_into`
/// and per `handle_into`.
fn processor_once(episodes: u32) -> (f64, f64) {
    const PARTICIPANTS: u16 = 2;
    let cfg = SystemConfig::with_procs(4);
    let mut alloc = VarAlloc::new();
    // Homed on node 1, so processor 0's requests are remote sends.
    let spec = BarrierSpec::build(
        &mut alloc,
        Mechanism::Amo,
        NodeId(1),
        PARTICIPANTS,
        episodes,
    );
    let mut p = Processor::new(ProcId(0), cfg);
    p.load_kernel(Box::new(BarrierKernel::new(
        spec,
        vec![200; episodes as usize],
    )));

    let mut stats = Stats::new();
    let mut eff: Vec<ProcEffect> = Vec::new();
    let mut todo: VecDeque<ProcEffect> = VecDeque::new();
    let (mut step_ns, mut steps, mut handle_ns, mut handles) = (0u64, 0u64, 0u64, 0u64);
    let mut now = 0;
    let mut arrivals: Word = 0; // the counter as the AMU holds it
    let mut finished = false;

    let mut step = |p: &mut Processor, now, stats: &mut Stats, eff: &mut Vec<ProcEffect>| {
        let t0 = Instant::now();
        p.step_into(now, stats, eff);
        step_ns += t0.elapsed().as_nanos() as u64;
        steps += 1;
    };
    let mut handle = |p: &mut Processor, msg, now, stats: &mut Stats, eff: &mut Vec<ProcEffect>| {
        let t0 = Instant::now();
        p.handle_into(msg, now, stats, eff);
        handle_ns += t0.elapsed().as_nanos() as u64;
        handles += 1;
    };

    step(&mut p, now, &mut stats, &mut eff);
    todo.extend(eff.drain(..));
    while !finished {
        let Some(e) = todo.pop_front() else {
            // Nothing in flight: the kernel sleeps on its spin until
            // the other participant arrives and the AMU's put lands.
            assert!(
                p.is_spinning(),
                "processor driver stalled: {}",
                p.kstate_debug()
            );
            arrivals += 1;
            now += 50;
            p.word_update_into(spec.counter, arrivals, now, &mut stats, &mut eff);
            todo.extend(eff.drain(..));
            continue;
        };
        match e {
            ProcEffect::Wake { when } => {
                now = now.max(when);
                step(&mut p, now, &mut stats, &mut eff);
            }
            ProcEffect::Send { payload, .. } => {
                now += 100;
                let reply = match payload {
                    Payload::AmoReq { req, .. } => {
                        arrivals += 1;
                        Payload::AmoReply {
                            req,
                            old: arrivals - 1,
                        }
                    }
                    Payload::GetS { req, block, .. } => {
                        let mut data = BlockData::zeroed(cfg.l2.line_words());
                        data.set_word(spec.counter.word_in_block(cfg.l2.line_bytes), arrivals);
                        Payload::DataS { req, block, data }
                    }
                    other => panic!("processor driver cannot answer {other:?}"),
                };
                handle(&mut p, reply, now, &mut stats, &mut eff);
            }
            ProcEffect::Finished { .. } => finished = true,
            ProcEffect::Mark { .. } => {}
            other => panic!("processor driver cannot execute {other:?}"),
        }
        todo.extend(eff.drain(..));
    }
    assert_eq!(arrivals, PARTICIPANTS as Word * episodes as Word);
    (
        step_ns as f64 / steps.max(1) as f64,
        handle_ns as f64 / handles.max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_driver_runs_at_quick_size_and_reports_a_positive_cost() {
        let mut m = Metrics::default();
        run_all(&mut m, &Scale::quick());
        for name in [
            "sim.machine_new_us_p4",
            "sim.machine_new_us_p64",
            "sim.machine_new_us_p256",
            "engine.queue_ns_per_event",
            "noc.send_ns",
            "directory.request_ns",
            "amu.submit_ns",
            "cache.probe_ns",
            "cache.word_update_ns",
            "cache.fill_inval_ns",
            "cpu.step_ns",
            "cpu.handle_ns",
        ] {
            let v = m.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
        }
    }
}
