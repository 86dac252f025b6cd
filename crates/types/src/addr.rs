//! Physical addresses with an explicit home-node encoding.
//!
//! The simulated machine is a CC-NUMA system: every physical address has a
//! *home node* whose memory controller (and directory, and AMU) owns it.
//! Rather than modelling a page-table / first-touch policy, addresses embed
//! their home node in the high bits. Workload code places synchronization
//! variables by constructing addresses with [`Addr::on_node`]; this mirrors
//! what the paper's OpenMP runtime achieves with data placement.

use crate::ids::NodeId;
use crate::Word;
use std::fmt;

/// Bit position where the home-node id starts inside an [`Addr`].
pub(crate) const NODE_SHIFT: u32 = 32;

/// A byte address in the simulated physical address space.
///
/// Layout: `addr = (home_node << 32) | offset`. Offsets are local to the
/// home node's memory. Word accesses must be 8-byte aligned.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Addr(pub u64);

impl Addr {
    /// Construct the address of byte `offset` in `node`'s local memory.
    #[inline]
    pub fn on_node(node: NodeId, offset: u64) -> Self {
        debug_assert!(offset < 1 << NODE_SHIFT, "offset overflows node field");
        Addr(((node.0 as u64) << NODE_SHIFT) | offset)
    }

    /// The home node owning this address.
    #[inline]
    pub fn home(self) -> NodeId {
        NodeId((self.0 >> NODE_SHIFT) as u16)
    }

    /// Byte offset within the home node's memory.
    #[inline]
    pub fn offset(self) -> u64 {
        self.0 & ((1 << NODE_SHIFT) - 1)
    }

    /// The cache block containing this address, for `block_bytes`-sized
    /// blocks (must be a power of two).
    #[inline]
    pub fn block(self, block_bytes: u64) -> BlockAddr {
        debug_assert!(block_bytes.is_power_of_two());
        BlockAddr(self.0 & !(block_bytes - 1))
    }

    /// Index of the word this address names within its block.
    #[inline]
    pub fn word_in_block(self, block_bytes: u64) -> usize {
        ((self.0 & (block_bytes - 1)) / WORD_BYTES) as usize
    }

    /// True if this address is 8-byte (word) aligned.
    #[inline]
    pub fn is_word_aligned(self) -> bool {
        self.0.is_multiple_of(WORD_BYTES)
    }

    /// The address `bytes` past this one (same node — offsets only).
    #[inline]
    pub fn offset_by(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

/// Size of a simulated machine word in bytes.
pub(crate) const WORD_BYTES: u64 = std::mem::size_of::<Word>() as u64;

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{:#x}", self.home(), self.offset())
    }
}

/// A block-aligned address: the granularity at which the directory tracks
/// coherence state (the paper's L2 uses 128-byte blocks).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// The home node owning this block.
    #[inline]
    pub fn home(self) -> NodeId {
        Addr(self.0).home()
    }

    /// The base byte address of the block.
    #[cfg(test)]
    #[inline]
    pub(crate) fn base(self) -> Addr {
        Addr(self.0)
    }

    /// The address of word `idx` within this block.
    #[inline]
    pub fn word_addr(self, idx: usize) -> Addr {
        Addr(self.0 + idx as u64 * WORD_BYTES)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{}", Addr(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_round_trips_node_and_offset() {
        let a = Addr::on_node(NodeId(5), 0x1234);
        assert_eq!(a.home(), NodeId(5));
        assert_eq!(a.offset(), 0x1234);
    }

    #[test]
    fn block_masks_low_bits() {
        let a = Addr::on_node(NodeId(2), 0x1238);
        let b = a.block(128);
        assert_eq!(b.base().offset(), 0x1200);
        assert_eq!(b.home(), NodeId(2));
    }

    #[test]
    fn word_index_within_block() {
        let a = Addr::on_node(NodeId(0), 0x1238);
        // 0x38 = 56 bytes into a 128B block = word 7.
        assert_eq!(a.word_in_block(128), 7);
        assert_eq!(a.block(128).word_addr(7), a);
    }

    #[test]
    fn alignment_check() {
        assert!(Addr::on_node(NodeId(0), 16).is_word_aligned());
        assert!(!Addr::on_node(NodeId(0), 12).is_word_aligned());
    }

    #[test]
    fn same_offset_different_nodes_are_distinct_blocks() {
        let a = Addr::on_node(NodeId(0), 0x100).block(128);
        let b = Addr::on_node(NodeId(1), 0x100).block(128);
        assert_ne!(a, b);
        assert_eq!(a.base().offset(), b.base().offset());
    }
}
