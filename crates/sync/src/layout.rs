//! Synchronization-variable placement.
//!
//! Allocates words so that distinct variables never share a cache block
//! (the paper's "programmers must make sure that `barrier_variable` and
//! `spin_variable` do not reside in the same block"), places MAO
//! variables in a separate uncached region, and hands out active-message
//! service-counter ids per home node.

use amo_types::{Addr, NodeId, Word};
use std::collections::HashMap;

/// Base offset of the coherent synchronization-variable region.
const COHERENT_BASE: u64 = 0x10_000;
/// Base offset of the uncached (MAO) region — never accessed coherently.
const UNCACHED_BASE: u64 = 0x8000_0000;
/// Spacing between variables: two 128-byte blocks, so no two variables
/// share a block even with conservative prefetching assumptions.
const SPACING: u64 = 256;

/// Allocator for synchronization variables.
#[derive(Default)]
pub struct VarAlloc {
    coherent_next: HashMap<u16, u64>,
    uncached_next: HashMap<u16, u64>,
    ctr_next: HashMap<u16, u16>,
}

impl VarAlloc {
    /// Fresh allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a coherent word homed on `node`, in its own block.
    pub fn word(&mut self, node: NodeId) -> Addr {
        let next = self.coherent_next.entry(node.0).or_insert(COHERENT_BASE);
        let a = Addr::on_node(node, *next);
        *next += SPACING;
        a
    }

    /// Allocate an uncached (MAO) word homed on `node`.
    pub(crate) fn uncached_word(&mut self, node: NodeId) -> Addr {
        let next = self.uncached_next.entry(node.0).or_insert(UNCACHED_BASE);
        let a = Addr::on_node(node, *next);
        *next += SPACING;
        a
    }

    /// Allocate an active-message service counter id on `node`'s handler
    /// processor.
    pub fn ctr(&mut self, node: NodeId) -> u16 {
        let next = self.ctr_next.entry(node.0).or_insert(0);
        let id = *next;
        *next += 1;
        id
    }

    /// Allocate a word appropriate for the mechanism: uncached for MAO,
    /// coherent otherwise.
    pub fn counter_for(&mut self, mech: crate::Mechanism, node: NodeId) -> Addr {
        if mech.uses_uncached_vars() {
            self.uncached_word(node)
        } else {
            self.word(node)
        }
    }
}

/// Convenience: the cumulative target count for episode `e` (1-based)
/// with `n` participants.
pub(crate) fn cumulative_target(episode: u32, n: u16) -> Word {
    episode as Word * n as Word
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_get_distinct_blocks() {
        let mut v = VarAlloc::new();
        let a = v.word(NodeId(0));
        let b = v.word(NodeId(0));
        assert_ne!(a.block(128), b.block(128));
        assert_eq!(a.home(), NodeId(0));
    }

    #[test]
    fn nodes_are_independent() {
        let mut v = VarAlloc::new();
        let a = v.word(NodeId(0));
        let b = v.word(NodeId(1));
        assert_eq!(a.offset(), b.offset());
        assert_ne!(a, b);
    }

    #[test]
    fn uncached_region_is_disjoint() {
        let mut v = VarAlloc::new();
        let c = v.word(NodeId(0));
        let u = v.uncached_word(NodeId(0));
        assert!(u.offset() >= UNCACHED_BASE);
        assert!(c.offset() < UNCACHED_BASE);
    }

    #[test]
    fn ctr_ids_increment_per_node() {
        let mut v = VarAlloc::new();
        assert_eq!(v.ctr(NodeId(0)), 0);
        assert_eq!(v.ctr(NodeId(0)), 1);
        assert_eq!(v.ctr(NodeId(1)), 0);
    }

    #[test]
    fn cumulative_targets() {
        assert_eq!(cumulative_target(1, 4), 4);
        assert_eq!(cumulative_target(3, 256), 768);
    }
}
