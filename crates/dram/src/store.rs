//! The backing value store of a node's local memory.
//!
//! Sparse: only 128-byte chunks ever written a nonzero word occupy
//! space; everything else reads as zero (the simulated workloads'
//! variables start zero-initialized). A chunk is one default-sized
//! block, so a block read or write is one lookup.

use amo_types::FxHashMap;
use amo_types::{Addr, BlockAddr, BlockData, Word};

/// Words per chunk.
const CHUNK_WORDS: usize = 16;
const CHUNK_BYTES: u64 = CHUNK_WORDS as u64 * 8;

/// Chunk-granular sparse memory for one home node.
#[derive(Default)]
pub struct MemoryStore {
    /// Every chunk ever written a nonzero word, by its base address.
    chunks: FxHashMap<u64, [Word; CHUNK_WORDS]>,
}

/// A word's chunk base and index within the chunk.
#[inline]
fn split(addr: Addr) -> (u64, usize) {
    debug_assert!(addr.is_word_aligned());
    let base = addr.0 & !(CHUNK_BYTES - 1);
    (base, ((addr.0 - base) / 8) as usize)
}

impl MemoryStore {
    /// An empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read one word.
    pub fn read_word(&self, addr: Addr) -> Word {
        let (base, i) = split(addr);
        self.chunks.get(&base).map_or(0, |c| c[i])
    }

    /// Write one word. Writing zero takes no space where the chunk holds
    /// nothing yet; a chunk once written stays, zeros and all.
    pub fn write_word(&mut self, addr: Addr, value: Word) {
        self.put(addr, &[value]);
    }

    /// Store `words` from `addr` on; they must lie in one chunk.
    fn put(&mut self, addr: Addr, words: &[Word]) {
        let (base, i) = split(addr);
        if words.iter().all(|&w| w == 0) && !self.chunks.contains_key(&base) {
            return;
        }
        let chunk = self.chunks.entry(base).or_insert([0; CHUNK_WORDS]);
        chunk[i..i + words.len()].copy_from_slice(words);
    }

    /// Read a whole block of `words` words (blocks are aligned to their
    /// size): one lookup per chunk it spans or lies in.
    pub fn read_block(&self, block: BlockAddr, words: usize) -> BlockData {
        let mut data = BlockData::zeroed(words);
        for (k, part) in data.0.chunks_mut(CHUNK_WORDS).enumerate() {
            let (base, i) = split(block.word_addr(k * CHUNK_WORDS));
            if let Some(chunk) = self.chunks.get(&base) {
                part.copy_from_slice(&chunk[i..i + part.len()]);
            }
        }
        data
    }

    /// Write a whole block back (writeback landing).
    pub fn write_block(&mut self, block: BlockAddr, data: &BlockData) {
        for (k, part) in data.0.chunks(CHUNK_WORDS).enumerate() {
            self.put(block.word_addr(k * CHUNK_WORDS), part);
        }
    }

    /// Number of nonzero words resident (diagnostics; a scan).
    #[cfg(test)]
    pub(crate) fn nonzero_words(&self) -> usize {
        self.chunks.values().flatten().filter(|&&w| w != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_types::NodeId;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn a(off: u64) -> Addr {
        Addr::on_node(NodeId(2), off)
    }

    #[test]
    fn zero_initialized() {
        let mut m = MemoryStore::new();
        assert_eq!(m.read_word(a(0x100)), 0);
        m.write_word(a(0x100), 0);
        m.write_block(a(0x200).block(128), &BlockData::zeroed(16));
        assert!(
            m.chunks.is_empty(),
            "writing zeros to untouched memory takes no space"
        );
    }

    #[test]
    fn word_round_trip() {
        let mut m = MemoryStore::new();
        m.write_word(a(0x100), 42);
        assert_eq!(m.read_word(a(0x100)), 42);
        m.write_word(a(0x100), 0);
        assert_eq!(m.read_word(a(0x100)), 0);
        assert_eq!(m.nonzero_words(), 0, "a zero write deletes the word");
    }

    #[test]
    fn block_round_trip() {
        let mut m = MemoryStore::new();
        let blk = a(0x200).block(128);
        let mut data = BlockData::zeroed(16);
        data.set_word(3, 7);
        data.set_word(15, 9);
        m.write_block(blk, &data);
        assert_eq!(m.read_word(blk.word_addr(3)), 7);
        let back = m.read_block(blk, 16);
        assert_eq!(back, data);
    }

    #[test]
    fn blocks_do_not_alias_across_nodes() {
        let mut m = MemoryStore::new();
        m.write_word(Addr::on_node(NodeId(0), 0x100), 1);
        assert_eq!(m.read_word(Addr::on_node(NodeId(1), 0x100)), 0);
    }

    #[derive(Clone, Debug)]
    enum MemOp {
        /// Write `value` (zero one time in three) to word `w`.
        Word { w: u64, value: Word },
        /// Write block `b` of `len` words, some of them zero.
        Block { b: u64, len: usize, seed: Word },
        /// Read block `b` of `len` words.
        Read { b: u64, len: usize },
    }

    /// Words of the window the operations address: 1 KiB, so words,
    /// 64-, 128- and 256-byte blocks overlap all the time.
    const WINDOW: u64 = 128;

    fn arb_op() -> impl Strategy<Value = MemOp> {
        let len = || (0u32..3).prop_map(|k| 8usize << k);
        prop_oneof![
            (0..WINDOW, 0u64..3).prop_map(|(w, value)| MemOp::Word { w, value }),
            (len(), 0..WINDOW, 0u64..100).prop_map(|(len, b, seed)| MemOp::Block {
                b: b % (WINDOW / len as u64),
                len,
                seed
            }),
            (len(), 0..WINDOW).prop_map(|(len, b)| MemOp::Read {
                b: b % (WINDOW / len as u64),
                len
            }),
        ]
    }

    proptest! {
        /// The chunked store reads, counts and deletes exactly like a
        /// word-granular map holding only nonzero words.
        #[test]
        fn chunks_match_a_word_map(ops in proptest::collection::vec(arb_op(), 1..200)) {
            let mut m = MemoryStore::new();
            let mut model: HashMap<u64, Word> = HashMap::new();
            let block = |b: u64, len: usize| a(b * len as u64 * 8).block(len as u64 * 8);
            for op in ops {
                match op {
                    MemOp::Word { w, value } => {
                        m.write_word(a(w * 8), value);
                        model.insert(a(w * 8).0, value);
                    }
                    MemOp::Block { b, len, seed } => {
                        let mut data = BlockData::zeroed(len);
                        for i in 0..len {
                            data.set_word(i, (seed + i as Word) % 3);
                            model.insert(block(b, len).word_addr(i).0, data.word(i));
                        }
                        m.write_block(block(b, len), &data);
                    }
                    MemOp::Read { b, len } => {
                        let got = m.read_block(block(b, len), len);
                        for i in 0..len {
                            let want = model.get(&block(b, len).word_addr(i).0);
                            prop_assert_eq!(got.word(i), want.copied().unwrap_or(0));
                        }
                    }
                }
                model.retain(|_, v| *v != 0);
                prop_assert_eq!(m.nonzero_words(), model.len());
            }
            for w in 0..WINDOW {
                prop_assert_eq!(m.read_word(a(w * 8)), model.get(&a(w * 8).0).copied().unwrap_or(0));
            }
        }
    }
}
