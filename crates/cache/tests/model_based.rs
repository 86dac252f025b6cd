//! Model-based property tests: drive the cache hierarchy with random
//! operation sequences and check it against a trivially-correct
//! reference (a flat map of word values plus residency bookkeeping).

use amo_cache::{CacheHierarchy, LineState, Probe};
use amo_types::{Addr, BlockData, NodeId, SystemConfig, Word};
use proptest::prelude::*;
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

fn arb_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u8..6, any::<bool>(), 1u64..1000).prop_map(|(b, exclusive, seed)| CacheOp::Fill {
            b,
            exclusive,
            seed
        }),
        (0u8..6, 0u8..16).prop_map(|(b, w)| CacheOp::Load { b, w }),
        (0u8..6, 0u8..16, 1u64..1000).prop_map(|(b, w, v)| CacheOp::Store { b, w, v }),
        (0u8..6).prop_map(|b| CacheOp::Invalidate { b }),
        (0u8..6).prop_map(|b| CacheOp::Downgrade { b }),
        (0u8..6, 0u8..16, 1u64..1000).prop_map(|(b, w, v)| CacheOp::Update { b, w, v }),
    ]
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn hierarchy_matches_reference(ops in proptest::collection::vec(arb_op(), 1..120)) {
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
                    let state = if exclusive { LineState::Exclusive } else { LineState::Shared };
                    let victim = h.fill_block(
                        h.l2_block(block_addr(b)),
                        state,
                        data,
                        block_addr(b),
                    );
                    prop_assert!(victim.is_none(), "working set must not evict");
                    model.resident.insert(b, exclusive);
                    model.dirty.remove(&b);
                }
                CacheOp::Load { b, w } => {
                    let got = h.read_word(word_addr(b, w));
                    match model.resident.get(&b) {
                        Some(_) => {
                            prop_assert_eq!(got, model.words.get(&(b, w)).copied());
                        }
                        None => prop_assert_eq!(got, None),
                    }
                }
                CacheOp::Store { b, w, v } => {
                    let ok = h.write_owned_word(word_addr(b, w), v);
                    let writable = model.resident.get(&b).copied().unwrap_or(false);
                    prop_assert_eq!(ok, writable, "stores only hit writable lines");
                    if writable {
                        model.words.insert((b, w), v);
                        model.dirty.insert(b);
                    }
                }
                CacheOp::Invalidate { b } => {
                    let out = h.invalidate_block(h.l2_block(block_addr(b)));
                    prop_assert_eq!(out.is_some(), model.resident.contains_key(&b));
                    if let Some((state, data)) = out {
                        // Only a dirty line surrenders data, and it must
                        // carry our latest values.
                        let dirty = model.dirty.contains(&b);
                        prop_assert_eq!(state == LineState::Modified, dirty);
                        prop_assert_eq!(data.is_some(), dirty);
                        for (w, &got) in data.iter().flat_map(|d| d.0.iter()).enumerate() {
                            prop_assert_eq!(
                                got,
                                model.words[&(b, w as u8)],
                                "invalidation data mismatch at word {}", w
                            );
                        }
                    }
                    model.resident.remove(&b);
                    model.dirty.remove(&b);
                }
                CacheOp::Downgrade { b } => {
                    let out = h.downgrade_block(h.l2_block(block_addr(b)));
                    prop_assert_eq!(out.is_some(), model.resident.contains_key(&b));
                    if let std::collections::hash_map::Entry::Occupied(mut e) =
                        model.resident.entry(b)
                    {
                        e.insert(false);
                        // A dirty downgrade must surrender current values.
                        prop_assert_eq!(matches!(out, Some(Some(_))), model.dirty.remove(&b));
                        if let Some(Some(data)) = out {
                            for w in 0..16u8 {
                                prop_assert_eq!(data.word(w as usize), model.words[&(b, w)]);
                            }
                        }
                    }
                }
                CacheOp::Update { b, w, v } => {
                    let applied = h.apply_word_update(word_addr(b, w), v);
                    prop_assert_eq!(applied, model.resident.contains_key(&b));
                    if applied {
                        model.words.insert((b, w), v);
                        // Updates never change coherence state.
                        let writable = model.resident[&b];
                        let state = h.state_of(block_addr(b)).expect("resident");
                        prop_assert_eq!(state.can_write(), writable);
                    }
                }
            }
            // Global invariant: residency and writability agree with the
            // model after every operation.
            for b in 0u8..6 {
                let state = h.state_of(block_addr(b));
                match model.resident.get(&b) {
                    None => prop_assert!(state.is_none(), "block {b} should be absent"),
                    Some(&writable) => {
                        let s = state.expect("resident block");
                        // Writability may only exceed the model after a
                        // store promoted Exclusive to Modified (same
                        // permission class).
                        prop_assert_eq!(s.can_write(), writable, "block {} perms", b);
                    }
                }
            }
        }
    }

    /// Probe results always carry the value the last write/update left.
    #[test]
    fn probe_values_track_writes(
        writes in proptest::collection::vec((0u8..16, 1u64..100), 1..40),
    ) {
        let cfg = SystemConfig::default();
        let mut h = CacheHierarchy::new(cfg.l1, cfg.l2);
        let b = block_addr(0);
        h.fill_block(h.l2_block(b), LineState::Exclusive, BlockData::zeroed(16), b);
        let mut last = [0u64; 16];
        for (w, v) in writes {
            prop_assert!(h.write_owned_word(word_addr(0, w), v));
            last[w as usize] = v;
            match h.probe_load(word_addr(0, w)) {
                Probe::L1 { value, .. } | Probe::L2 { value, .. } => {
                    prop_assert_eq!(value, v);
                }
                Probe::Miss => prop_assert!(false, "just-written word cannot miss"),
            }
        }
        for w in 0..16u8 {
            prop_assert_eq!(h.read_word(word_addr(0, w)), Some(last[w as usize]));
        }
    }
}
