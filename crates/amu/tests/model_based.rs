//! Model-based property tests for the AMU: any interleaving of AMO
//! operations over a small set of words must return exactly the values
//! a scalar reference computes, regardless of cache hits, misses,
//! evictions, and flushes.

use amo_amu::{Amu, AmuEffect, AmuOp};
use amo_types::{Addr, AmoKind, NodeId, ProcId, ReqId, Stats, Word};
use proptest::prelude::*;
use std::collections::HashMap;

fn word(i: u8) -> Addr {
    // Words spread across distinct 128-byte blocks on one node.
    Addr::on_node(NodeId(0), 0x9000 + i as u64 * 256)
}

fn arb_kind() -> impl Strategy<Value = AmoKind> {
    prop_oneof![
        Just(AmoKind::Inc),
        Just(AmoKind::FetchAdd),
        Just(AmoKind::Swap),
        (0u64..20).prop_map(|expected| AmoKind::Cas { expected }),
        Just(AmoKind::Max),
        Just(AmoKind::Min),
    ]
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// With a tiny 2-word AMU cache and 5 hot words, operations
    /// constantly evict each other — and every reply must still match
    /// the scalar reference exactly, with memory + cache together always
    /// holding the up-to-date value.
    #[test]
    fn amu_replies_match_scalar_reference(
        ops in proptest::collection::vec((arb_kind(), 0u8..5, 0u64..20), 1..60),
    ) {
        let mut amu = Amu::new(2, 8, 64, 128);
        let mut memory: HashMap<u64, Word> = HashMap::new();
        let mut reference: HashMap<u64, Word> = HashMap::new();
        let mut stats = Stats::new();
        let mut now = 0u64;
        for (kind, w, operand) in ops {
            let addr = word(w);
            let old = drive_amo(&mut amu, &mut memory, &mut now, kind, addr, operand, &mut stats);
            let expect_old = reference.get(&addr.0).copied().unwrap_or(0);
            prop_assert_eq!(old, expect_old, "{:?} on word {}", kind, w);
            reference.insert(addr.0, kind.apply(expect_old, operand));
        }
        // Flush everything; cache + memory must equal the reference.
        for w in 0..5u8 {
            let addr = word(w);
            for (a, v) in amu.flush_block(addr.block(128)) {
                memory.insert(a.0, v);
            }
            let expect = reference.get(&addr.0).copied().unwrap_or(0);
            prop_assert_eq!(memory.get(&addr.0).copied().unwrap_or(0), expect,
                "word {} after flush", w);
        }
    }

    /// The delayed put fires exactly when the running value reaches the
    /// test target, never before, never after.
    #[test]
    fn delayed_put_fires_exactly_at_test(target in 2u64..12) {
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
            prop_assert!(amu.submit_into(op, now, &mut stats, &mut effects));
            while let Some(e) = effects.pop() {
                match e {
                    AmuEffect::FineGet { token, addr, .. } => {
                        amu.fine_value_into(token, addr, 0, now + 5, &mut stats, &mut effects).unwrap();
                    }
                    AmuEffect::FinePut { value, .. } => {
                        puts += 1;
                        prop_assert_eq!(value, target, "put value is the target");
                        prop_assert_eq!(i, target - 1, "put only at the last increment");
                    }
                    AmuEffect::FineComplete { put: Some((_, v)), .. } => {
                        puts += 1;
                        prop_assert_eq!(v, target);
                        prop_assert_eq!(i, target - 1);
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
        prop_assert_eq!(puts, 1, "exactly one delayed put");
    }
}
