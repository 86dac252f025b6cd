//! Allocation claims of the flat cache arena, checked with
//! [`amo_obs::CountingAlloc`] as this test binary's global allocator:
//! once a set has its ways, tag-only fills, invalidating a line that is
//! not Modified, and handing a Modified line's words back in the storage
//! its fill arrived in touch no allocator. One test, because the
//! counters are process-wide.

use amo_cache::{CacheHierarchy, LineState, SetAssocCache};
use amo_obs::{alloc_counters, CountingAlloc};
use amo_types::{Addr, BlockData, NodeId, SystemConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` performs.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = alloc_counters().0;
    f();
    alloc_counters().0 - before
}

#[test]
fn fills_and_invalidations_allocate_nothing() {
    let cfg = SystemConfig::default();
    // The L1 is a tag-only cache.
    let mut l1 = SetAssocCache::new(cfg.l1);
    let stride = cfg.l1.size_bytes / cfg.l1.ways as u64; // same set
    l1.insert_tag(0, LineState::Shared);
    let n = allocs(|| {
        for i in 1..16 {
            let victim = l1.insert_tag(i * stride, LineState::Modified);
            assert_eq!(victim.is_some(), i >= cfg.l1.ways as u64);
        }
        l1.insert_tag(15 * stride, LineState::Shared);
        assert_eq!(
            l1.invalidate(14 * stride),
            Some((LineState::Modified, None))
        );
        assert_eq!(l1.invalidate(15 * stride), Some((LineState::Shared, None)));
    });
    assert_eq!(n, 0, "tag-only fills and invalidations allocated");

    // The hierarchy: a clean L2 block is dropped without its words
    // becoming a block again; the block that arrived in the fill is the
    // only allocation, and it is made outside the count.
    let mut h = CacheHierarchy::new(cfg.l1, cfg.l2);
    let a = Addr::on_node(NodeId(1), 0x4000);
    let block = h.l2_block(a);
    h.fill_block(block, LineState::Shared, BlockData::zeroed(16), a);
    h.probe_load(a.offset_by(32));
    h.invalidate_block(block);
    for state in [LineState::Shared, LineState::Exclusive] {
        let data = BlockData::zeroed(16);
        let n = allocs(|| {
            h.fill_block(block, state, data, a);
            h.probe_load(a.offset_by(32));
            assert_eq!(h.invalidate_block(block), Some((state, None)));
        });
        // Dropping the incoming block frees; it does not allocate.
        assert_eq!(n, 0, "{state:?} fill + invalidate allocated");
    }
    // A dirty line leaves in the storage its fill arrived in.
    let data = BlockData::zeroed(16);
    let n = allocs(|| {
        h.fill_block(block, LineState::Exclusive, data, a);
        assert!(h.write_owned_word(a, 7));
        let (state, data) = h.invalidate_block(block).expect("resident");
        assert_eq!(
            (state, data.map(|d| d.word(0))),
            (LineState::Modified, Some(7))
        );
    });
    assert_eq!(n, 0, "a dirty invalidation allocated");
}
