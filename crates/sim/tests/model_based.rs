//! Model-based property tests: drive a component with random operation
//! sequences and check it against a trivially-correct reference.
//!
//! * The cache hierarchy against a flat map of word values plus
//!   residency bookkeeping.
//! * The AMU: any interleaving of AMO operations over a small set of
//!   words must return exactly the values a scalar reference computes,
//!   regardless of cache hits, misses, evictions, and flushes.

use amo_sim::amu::{Amu, AmuEffect, AmuOp};
use amo_sim::cache::{CacheHierarchy, LineState, Probe};
use amo_types::seed::{cases, SplitMix};
use amo_types::{Addr, AmoKind, BlockData, NodeId, ProcId, ReqId, Stats, SystemConfig, Word};
use std::collections::{HashMap, HashSet};

#[derive(Clone, Debug)]
enum CacheOp {
    /// Fill block `b` (of a small working set) with a fresh value seed,
    /// Shared or Exclusive.
    Fill { b: u8, exclusive: bool, seed: Word },
    /// Load a word of block `b`.
    Load { b: u8, w: u8 },
    /// Store to a word of block `b` (only applies if writable).
    Store { b: u8, w: u8, v: Word },
    /// Invalidate block `b`.
    Invalidate { b: u8 },
    /// Downgrade block `b` to Shared.
    Downgrade { b: u8 },
    /// Apply a pushed word update.
    Update { b: u8, w: u8, v: Word },
}

fn arb_op(rng: &mut SplitMix) -> CacheOp {
    // Every kind draws its block first, then its own fields in order.
    let arm = rng.below(6);
    let b = rng.below(6) as u8;
    match arm {
        0 => CacheOp::Fill {
            b,
            exclusive: rng.next_u64() & 1 == 1,
            seed: rng.range(1..1000),
        },
        1 => CacheOp::Load {
            b,
            w: rng.below(16) as u8,
        },
        2 => CacheOp::Store {
            b,
            w: rng.below(16) as u8,
            v: rng.range(1..1000),
        },
        3 => CacheOp::Invalidate { b },
        4 => CacheOp::Downgrade { b },
        _ => CacheOp::Update {
            b,
            w: rng.below(16) as u8,
            v: rng.range(1..1000),
        },
    }
}

/// Word-accurate reference: which blocks are resident (and writable),
/// which were stored to since their fill, and every resident word's value.
#[derive(Default)]
struct Reference {
    resident: HashMap<u8, bool>, // block -> writable
    dirty: HashSet<u8>,
    words: HashMap<(u8, u8), Word>,
}

fn block_addr(b: u8) -> Addr {
    // Distinct 128-byte blocks on one node.
    Addr::on_node(NodeId(0), 0x4000 + b as u64 * 128)
}

fn word_addr(b: u8, w: u8) -> Addr {
    block_addr(b).offset_by(w as u64 * 8)
}

#[test]
fn hierarchy_matches_reference() {
    for mut rng in cases(module_path!(), "hierarchy_matches_reference", 128) {
        let ops: Vec<CacheOp> = (0..rng.range(1..120)).map(|_| arb_op(&mut rng)).collect();
        let cfg = SystemConfig::default();
        let mut h = CacheHierarchy::new(cfg.l1, cfg.l2);
        let mut model = Reference::default();
        // The 6-block working set fits comfortably: no capacity
        // evictions can occur, so residency is fully model-predictable.
        for op in ops {
            match op {
                CacheOp::Fill { b, exclusive, seed } => {
                    let mut data = BlockData::zeroed(16);
                    for w in 0..16u8 {
                        data.set_word(w as usize, seed + w as Word);
                        model.words.insert((b, w), seed + w as Word);
                    }
                    let state = if exclusive {
                        LineState::Exclusive
                    } else {
                        LineState::Shared
                    };
                    let victim =
                        h.fill_block(h.l2_block(block_addr(b)), state, data, block_addr(b));
                    assert!(victim.is_none(), "working set must not evict");
                    model.resident.insert(b, exclusive);
                    model.dirty.remove(&b);
                }
                CacheOp::Load { b, w } => {
                    let got = h.read_word(word_addr(b, w));
                    match model.resident.get(&b) {
                        Some(_) => {
                            assert_eq!(got, model.words.get(&(b, w)).copied());
                        }
                        None => assert_eq!(got, None),
                    }
                }
                CacheOp::Store { b, w, v } => {
                    let ok = h.write_owned_word(word_addr(b, w), v);
                    let writable = model.resident.get(&b).copied().unwrap_or(false);
                    assert_eq!(ok, writable, "stores only hit writable lines");
                    if writable {
                        model.words.insert((b, w), v);
                        model.dirty.insert(b);
                    }
                }
                CacheOp::Invalidate { b } => {
                    let out = h.invalidate_block(h.l2_block(block_addr(b)));
                    assert_eq!(out.is_some(), model.resident.contains_key(&b));
                    if let Some((state, data)) = out {
                        // Only a dirty line surrenders data, and it must
                        // carry our latest values.
                        let dirty = model.dirty.contains(&b);
                        assert_eq!(state == LineState::Modified, dirty);
                        assert_eq!(data.is_some(), dirty);
                        for (w, &got) in data.iter().flat_map(|d| d.0.iter()).enumerate() {
                            assert_eq!(
                                got,
                                model.words[&(b, w as u8)],
                                "invalidation data mismatch at word {}",
                                w
                            );
                        }
                    }
                    model.resident.remove(&b);
                    model.dirty.remove(&b);
                }
                CacheOp::Downgrade { b } => {
                    let out = h.downgrade_block(h.l2_block(block_addr(b)));
                    assert_eq!(out.is_some(), model.resident.contains_key(&b));
                    if let std::collections::hash_map::Entry::Occupied(mut e) =
                        model.resident.entry(b)
                    {
                        e.insert(false);
                        // A dirty downgrade must surrender current values.
                        assert_eq!(matches!(out, Some(Some(_))), model.dirty.remove(&b));
                        if let Some(Some(data)) = out {
                            for w in 0..16u8 {
                                assert_eq!(data.word(w as usize), model.words[&(b, w)]);
                            }
                        }
                    }
                }
                CacheOp::Update { b, w, v } => {
                    let applied = h.apply_word_update(word_addr(b, w), v);
                    assert_eq!(applied, model.resident.contains_key(&b));
                    if applied {
                        model.words.insert((b, w), v);
                        // Updates never change coherence state.
                        let writable = model.resident[&b];
                        let state = h.state_of(block_addr(b)).expect("resident");
                        assert_eq!(state.can_write(), writable);
                    }
                }
            }
            // Global invariant: residency and writability agree with the
            // model after every operation.
            for b in 0u8..6 {
                let state = h.state_of(block_addr(b));
                match model.resident.get(&b) {
                    None => assert!(state.is_none(), "block {b} should be absent"),
                    Some(&writable) => {
                        let s = state.expect("resident block");
                        // Writability may only exceed the model after a
                        // store promoted Exclusive to Modified (same
                        // permission class).
                        assert_eq!(s.can_write(), writable, "block {} perms", b);
                    }
                }
            }
        }
    }
}

/// Probe results always carry the value the last write/update left.
#[test]
fn probe_values_track_writes() {
    for mut rng in cases(module_path!(), "probe_values_track_writes", 128) {
        let writes: Vec<(u8, u64)> = (0..rng.range(1..40))
            .map(|_| (rng.below(16) as u8, rng.range(1..100)))
            .collect();
        let cfg = SystemConfig::default();
        let mut h = CacheHierarchy::new(cfg.l1, cfg.l2);
        let b = block_addr(0);
        h.fill_block(
            h.l2_block(b),
            LineState::Exclusive,
            BlockData::zeroed(16),
            b,
        );
        let mut last = [0u64; 16];
        for (w, v) in writes {
            assert!(h.write_owned_word(word_addr(0, w), v));
            last[w as usize] = v;
            match h.probe_load(word_addr(0, w)) {
                Probe::L1 { value, .. } | Probe::L2 { value, .. } => {
                    assert_eq!(value, v);
                }
                Probe::Miss => panic!("just-written word cannot miss"),
            }
        }
        for w in 0..16u8 {
            assert_eq!(h.read_word(word_addr(0, w)), Some(last[w as usize]));
        }
    }
}

fn word(i: u8) -> Addr {
    // Words spread across distinct 128-byte blocks on one node.
    Addr::on_node(NodeId(0), 0x9000 + i as u64 * 256)
}

fn arb_kind(rng: &mut SplitMix) -> AmoKind {
    match rng.below(6) {
        0 => AmoKind::Inc,
        1 => AmoKind::FetchAdd,
        2 => AmoKind::Swap,
        3 => AmoKind::Cas {
            expected: rng.below(20),
        },
        4 => AmoKind::Max,
        _ => AmoKind::Min,
    }
}

/// Drive one AMO to completion through the AMU, resolving fine-gets
/// from the reference "memory" and applying puts/flushes back to it.
/// Returns the reply's old value.
fn drive_amo(
    amu: &mut Amu,
    memory: &mut HashMap<u64, Word>,
    now: &mut u64,
    kind: AmoKind,
    addr: Addr,
    operand: Word,
    stats: &mut Stats,
) -> Word {
    let op = AmuOp::Amo {
        req: ReqId(*now),
        requester: ProcId(0),
        kind,
        addr,
        operand,
        test: None,
    };
    let mut effects = Vec::new();
    assert!(amu.submit_into(op, *now, stats, &mut effects));
    let mut reply = None;
    while let Some(e) = effects.pop() {
        match e {
            AmuEffect::FineGet { token, addr, .. } => {
                let value = memory.get(&addr.0).copied().unwrap_or(0);
                amu.fine_value_into(token, addr, value, *now + 10, stats, &mut effects)
                    .unwrap();
            }
            AmuEffect::FinePut { addr, value, .. } | AmuEffect::WriteMemWord { addr, value } => {
                memory.insert(addr.0, value);
            }
            AmuEffect::FineComplete { put, .. } => {
                if let Some((a, v)) = put {
                    memory.insert(a.0, v);
                }
            }
            AmuEffect::ReplyAt { when, payload, .. } => {
                *now = (*now).max(when);
                if let amo_types::Payload::AmoReply { old, .. } = payload {
                    reply = Some(old);
                }
            }
            AmuEffect::WakeAt { when } => {
                *now = (*now).max(when);
                amu.advance_into(*now, stats, &mut effects);
            }
            AmuEffect::ReadMemWord { .. } => unreachable!("no MAO ops in this test"),
        }
    }
    *now += 1;
    reply.expect("every AMO replies")
}

/// With a tiny 2-word AMU cache and 5 hot words, operations
/// constantly evict each other — and every reply must still match
/// the scalar reference exactly, with memory + cache together always
/// holding the up-to-date value.
#[test]
fn amu_replies_match_scalar_reference() {
    for mut rng in cases(module_path!(), "amu_replies_match_scalar_reference", 256) {
        let ops: Vec<(AmoKind, u8, u64)> = (0..rng.range(1..60))
            .map(|_| (arb_kind(&mut rng), rng.below(5) as u8, rng.below(20)))
            .collect();
        let mut amu = Amu::new(2, 8, 64, 128);
        let mut memory: HashMap<u64, Word> = HashMap::new();
        let mut reference: HashMap<u64, Word> = HashMap::new();
        let mut stats = Stats::new();
        let mut now = 0u64;
        for (kind, w, operand) in ops {
            let addr = word(w);
            let old = drive_amo(
                &mut amu,
                &mut memory,
                &mut now,
                kind,
                addr,
                operand,
                &mut stats,
            );
            let expect_old = reference.get(&addr.0).copied().unwrap_or(0);
            assert_eq!(old, expect_old, "{:?} on word {}", kind, w);
            reference.insert(addr.0, kind.apply(expect_old, operand));
        }
        // Flush everything; cache + memory must equal the reference.
        for w in 0..5u8 {
            let addr = word(w);
            for (a, v) in amu.flush_block(addr.block(128)) {
                memory.insert(a.0, v);
            }
            let expect = reference.get(&addr.0).copied().unwrap_or(0);
            assert_eq!(
                memory.get(&addr.0).copied().unwrap_or(0),
                expect,
                "word {} after flush",
                w
            );
        }
    }
}

/// The delayed put fires exactly when the running value reaches the
/// test target, never before, never after.
#[test]
fn delayed_put_fires_exactly_at_test() {
    for mut rng in cases(module_path!(), "delayed_put_fires_exactly_at_test", 256) {
        let target = rng.range(2..12);
        let mut amu = Amu::new(8, 8, 64, 128);
        let mut stats = Stats::new();
        let addr = word(0);
        let mut now = 0u64;
        let mut puts = 0u32;
        for i in 0..target {
            let op = AmuOp::Amo {
                req: ReqId(i),
                requester: ProcId(0),
                kind: AmoKind::Inc,
                addr,
                operand: 0,
                test: Some(target),
            };
            let mut effects = Vec::new();
            assert!(amu.submit_into(op, now, &mut stats, &mut effects));
            while let Some(e) = effects.pop() {
                match e {
                    AmuEffect::FineGet { token, addr, .. } => {
                        amu.fine_value_into(token, addr, 0, now + 5, &mut stats, &mut effects)
                            .unwrap();
                    }
                    AmuEffect::FinePut { value, .. } => {
                        puts += 1;
                        assert_eq!(value, target, "put value is the target");
                        assert_eq!(i, target - 1, "put only at the last increment");
                    }
                    AmuEffect::FineComplete {
                        put: Some((_, v)), ..
                    } => {
                        puts += 1;
                        assert_eq!(v, target);
                        assert_eq!(i, target - 1);
                    }
                    AmuEffect::WakeAt { when } => {
                        now = now.max(when);
                        amu.advance_into(now, &mut stats, &mut effects);
                    }
                    AmuEffect::ReplyAt { when, .. } => now = now.max(when),
                    _ => {}
                }
            }
            now += 1;
        }
        assert_eq!(puts, 1, "exactly one delayed put");
    }
}
