//! Two-level private cache hierarchy.
//!
//! Coherence state and data live at L2 granularity (128-byte blocks). The
//! L1 is an inclusive, tag-only latency filter over 32-byte sub-blocks:
//! whether a word is "in the L1" decides the access latency, but the data
//! is always read from the L2 copy, so the two levels can never disagree.

use crate::cache::{Evicted, SetAssocCache};
use crate::line::LineState;
use amo_types::{Addr, BlockAddr, BlockData, CacheConfig, Word};

/// Which level satisfied a probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Probe {
    /// Word present in L1 (and necessarily L2).
    L1 {
        /// Coherence state of the containing L2 block.
        state: LineState,
        /// Current value of the word.
        value: Word,
    },
    /// Word present in L2 only; the L1 sub-block has been filled.
    L2 {
        /// Coherence state of the containing L2 block.
        state: LineState,
        /// Current value of the word.
        value: Word,
    },
    /// Word not cached; a coherence transaction is required.
    Miss,
}

/// A private L1+L2 pair belonging to one processor.
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l1_line: u64,
    l2_line: u64,
}

impl CacheHierarchy {
    /// Build an empty hierarchy.
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        assert!(
            l1.line_bytes <= l2.line_bytes,
            "inclusive hierarchy needs L1 lines <= L2 lines"
        );
        CacheHierarchy {
            l1_line: l1.line_bytes,
            l2_line: l2.line_bytes,
            l1: SetAssocCache::new(l1),
            l2: SetAssocCache::new(l2),
        }
    }

    /// The L2 block containing `addr`.
    #[inline]
    pub fn l2_block(&self, addr: Addr) -> BlockAddr {
        addr.block(self.l2_line)
    }

    #[inline]
    fn l1_block(&self, addr: Addr) -> u64 {
        addr.block(self.l1_line).0
    }

    /// Probe for a load. L2 hits fill the L1 sub-block (that is what a
    /// real L1 fill does and it keeps subsequent spin reads at L1 cost).
    pub fn probe_load(&mut self, addr: Addr) -> Probe {
        let l2b = self.l2_block(addr);
        let word = addr.word_in_block(self.l2_line);
        let Some(state) = self.l2.probe(l2b.0) else {
            // Inclusivity: nothing can be in L1 either.
            return Probe::Miss;
        };
        let value = self
            .l2
            .read_word(l2b.0, word)
            .expect("probed line has data");
        let l1b = self.l1_block(addr);
        if self.l1.probe(l1b).is_some() {
            Probe::L1 { state, value }
        } else {
            self.fill_l1(l1b, state);
            Probe::L2 { state, value }
        }
    }

    fn fill_l1(&mut self, l1b: u64, state: LineState) {
        // Tag-only: the L1 data is never read, values come from L2, so
        // the fill stores no block (keeps the steady-state allocation-free).
        self.l1.insert_tag(l1b, state);
    }

    /// Probe for a store of `value`. On a hit with write permission the
    /// store is performed. Returns the probe result *before* any upgrade:
    /// `L1`/`L2` with a non-writable state means "present Shared — issue
    /// an Upgrade".
    pub fn probe_store(&mut self, addr: Addr, value: Word) -> Probe {
        let l2b = self.l2_block(addr);
        let word = addr.word_in_block(self.l2_line);
        let Some(state) = self.l2.probe(l2b.0) else {
            return Probe::Miss;
        };
        let l1b = self.l1_block(addr);
        let in_l1 = self.l1.probe(l1b).is_some();
        if state.can_write() {
            assert!(self.l2.write_word(l2b.0, word, value));
            if !in_l1 {
                self.fill_l1(l1b, LineState::Modified);
            }
        }
        let current = self.l2.read_word(l2b.0, word).expect("line present");
        if in_l1 {
            Probe::L1 {
                state,
                value: current,
            }
        } else {
            Probe::L2 {
                state,
                value: current,
            }
        }
    }

    /// Install a block arriving from the home node. Returns the evicted
    /// victim, if any — the caller must send a writeback for Exclusive or
    /// Modified victims (the directory relies on eviction notification to
    /// track owners) and may drop Shared victims silently.
    pub fn fill_block(
        &mut self,
        block: BlockAddr,
        state: LineState,
        data: BlockData,
        accessed: Addr,
    ) -> Option<Evicted> {
        debug_assert_eq!(self.l2_block(accessed), block);
        let victim = self.l2.insert(block.0, state, data);
        if let Some(ev) = &victim {
            self.drop_l1_range(ev.block);
        }
        self.fill_l1(self.l1_block(accessed), state);
        victim
    }

    fn drop_l1_range(&mut self, l2_block: u64) {
        let mut a = l2_block;
        while a < l2_block + self.l2_line {
            self.l1.invalidate(a);
            a += self.l1_line;
        }
    }

    /// Invalidate a whole L2 block (home sent Inv). Returns its state if
    /// it was present, with its data if it was Modified (the home needs
    /// it).
    pub fn invalidate_block(&mut self, block: BlockAddr) -> Option<(LineState, Option<BlockData>)> {
        self.drop_l1_range(block.0);
        self.l2.invalidate(block.0)
    }

    /// Downgrade an owned block to Shared. `Some(Some(data))` if it was
    /// dirty and home needs the data, `Some(None)` if clean, `None` if
    /// absent.
    pub fn downgrade_block(&mut self, block: BlockAddr) -> Option<Option<BlockData>> {
        let r = self.l2.downgrade(block.0);
        if r.is_some() {
            let mut a = block.0;
            while a < block.0 + self.l2_line {
                self.l1.set_state(a, LineState::Shared);
                a += self.l1_line;
            }
        }
        r
    }

    /// Promote a Shared block to Exclusive (UpgradeAck arrived).
    pub fn grant_exclusive(&mut self, block: BlockAddr) -> bool {
        self.l2.set_state(block.0, LineState::Exclusive)
    }

    /// Apply a pushed word update. State is untouched. Returns true if
    /// the word's block is resident.
    pub fn apply_word_update(&mut self, addr: Addr, value: Word) -> bool {
        let l2b = self.l2_block(addr);
        let word = addr.word_in_block(self.l2_line);
        self.l2.apply_word_update(l2b.0, word, value)
    }

    /// Write a word into an owned resident block (used by local RMW ops
    /// after ownership has been acquired).
    pub fn write_owned_word(&mut self, addr: Addr, value: Word) -> bool {
        let l2b = self.l2_block(addr);
        let word = addr.word_in_block(self.l2_line);
        self.l2.write_word(l2b.0, word, value)
    }

    /// Read a word from a resident block, regardless of state.
    pub fn read_word(&mut self, addr: Addr) -> Option<Word> {
        let l2b = self.l2_block(addr);
        let word = addr.word_in_block(self.l2_line);
        self.l2.read_word(l2b.0, word)
    }

    /// Coherence state of the block containing `addr`, if resident.
    pub fn state_of(&self, addr: Addr) -> Option<LineState> {
        self.l2.peek_state(self.l2_block(addr).0)
    }

    /// (l1_hits, l1_misses, l2_hits, l2_misses).
    pub fn hit_stats(&self) -> (u64, u64, u64, u64) {
        let (h1, m1) = self.l1.hit_stats();
        let (h2, m2) = self.l2.hit_stats();
        (h1, m1, h2, m2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_types::{NodeId, SystemConfig};

    fn hier() -> CacheHierarchy {
        let c = SystemConfig::default();
        CacheHierarchy::new(c.l1, c.l2)
    }

    fn addr(off: u64) -> Addr {
        Addr::on_node(NodeId(1), off)
    }

    fn block16(vals: &[(usize, Word)]) -> BlockData {
        let mut b = BlockData::zeroed(16);
        for &(i, v) in vals {
            b.set_word(i, v);
        }
        b
    }

    #[test]
    fn miss_then_fill_then_l1_hit() {
        let mut h = hier();
        let a = addr(0x100);
        assert_eq!(h.probe_load(a), Probe::Miss);
        let blk = h.l2_block(a);
        assert!(h
            .fill_block(blk, LineState::Shared, block16(&[(0, 7)]), a)
            .is_none());
        // First probe after fill: L1 was filled by fill_block.
        assert_eq!(
            h.probe_load(a),
            Probe::L1 {
                state: LineState::Shared,
                value: 7
            }
        );
    }

    #[test]
    fn l2_hit_fills_l1_subblock() {
        let mut h = hier();
        let a = addr(0x100); // word 0 of block, L1 sub-block 0
        let b = addr(0x140); // different L2 block? no: 0x140 is next block at 128B... use same block, different sub-block
        let a2 = addr(0x120); // 32 bytes in: word 4, second L1 sub-block of same L2 block
        let blk = h.l2_block(a);
        assert_eq!(h.l2_block(a2), blk);
        h.fill_block(blk, LineState::Shared, block16(&[(4, 9)]), a);
        // a2's sub-block is not in L1 yet → L2 hit, then L1 hit.
        assert_eq!(
            h.probe_load(a2),
            Probe::L2 {
                state: LineState::Shared,
                value: 9
            }
        );
        assert_eq!(
            h.probe_load(a2),
            Probe::L1 {
                state: LineState::Shared,
                value: 9
            }
        );
        let _ = b;
    }

    #[test]
    fn store_needs_ownership() {
        let mut h = hier();
        let a = addr(0x200);
        let blk = h.l2_block(a);
        h.fill_block(blk, LineState::Shared, block16(&[]), a);
        // Shared: store does not happen, value unchanged.
        match h.probe_store(a, 5) {
            Probe::L1 { state, value } => {
                assert_eq!(state, LineState::Shared);
                assert_eq!(value, 0);
            }
            p => panic!("unexpected {p:?}"),
        }
        h.grant_exclusive(blk);
        match h.probe_store(a, 5) {
            Probe::L1 { state, value } => {
                assert!(state.can_write());
                assert_eq!(value, 5);
            }
            p => panic!("unexpected {p:?}"),
        }
        assert_eq!(h.state_of(a), Some(LineState::Modified));
    }

    #[test]
    fn invalidate_clears_both_levels() {
        let mut h = hier();
        let a = addr(0x300);
        let blk = h.l2_block(a);
        h.fill_block(blk, LineState::Exclusive, block16(&[]), a);
        h.probe_store(a, 1);
        let (st, data) = h.invalidate_block(blk).expect("present");
        assert_eq!(st, LineState::Modified);
        assert_eq!(data.expect("dirty data").word(0), 1);
        assert_eq!(h.probe_load(a), Probe::Miss);
    }

    #[test]
    fn word_update_applies_in_place() {
        let mut h = hier();
        let a = addr(0x400);
        let blk = h.l2_block(a);
        h.fill_block(blk, LineState::Shared, block16(&[]), a);
        assert!(h.apply_word_update(a.offset_by(8), 77));
        assert_eq!(h.state_of(a), Some(LineState::Shared));
        assert_eq!(h.read_word(a.offset_by(8)), Some(77));
        assert!(!h.apply_word_update(addr(0x1000), 1));
    }

    #[test]
    fn downgrade_returns_dirty_data_once() {
        let mut h = hier();
        let a = addr(0x500);
        let blk = h.l2_block(a);
        h.fill_block(blk, LineState::Exclusive, block16(&[]), a);
        h.probe_store(a, 3);
        let d = h.downgrade_block(blk).expect("present").expect("dirty");
        assert_eq!(d.word(0), 3);
        assert_eq!(h.state_of(a), Some(LineState::Shared));
        // Second downgrade: already Shared, clean.
        assert_eq!(h.downgrade_block(blk), Some(None));
    }
}
