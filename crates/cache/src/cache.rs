//! A generic set-associative cache with LRU replacement, block data, and
//! coherence-state bookkeeping.

use crate::line::LineState;
use crate::runs::{Runs, NONE};
use amo_types::{BlockData, CacheConfig, Word};

/// One way of a touched set.
#[derive(Clone, Copy, Debug)]
struct Way {
    /// Block-aligned base address (full address bits, acts as the tag);
    /// [`FREE`] when the way holds nothing.
    block: u64,
    lru: u64,
    state: LineState,
    /// The line's run of words, or [`NONE`] for a line placed by
    /// [`SetAssocCache::insert_tag`].
    run: u32,
}

/// Tag of an empty way: blocks are aligned, so no block has it.
const FREE: u64 = u64::MAX;

const EMPTY: Way = Way {
    block: FREE,
    lru: 0,
    state: LineState::Invalid,
    run: NONE,
};

/// Size in bytes of one way record; referenced by the layout-guard tests.
pub const WAY_SIZE: usize = std::mem::size_of::<Way>();

/// A line pushed out by `SetAssocCache::insert`. The caller must write
/// back `data` if `state` was writable.
#[derive(Clone, Debug)]
pub struct Evicted {
    /// Block-aligned base address of the victim.
    pub block: u64,
    /// Victim's state at eviction.
    pub state: LineState,
    /// Victim's data if it was Exclusive or Modified (the home needs it
    /// back) and was inserted with data.
    pub data: Option<BlockData>,
}

/// Set-associative cache, addressed by block-aligned base addresses.
///
/// The cache stores whole simulated blocks (with data) and their coherence
/// states. It is deliberately agnostic about *which* level it is — the
/// hierarchy wires two of these together.
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// log2 of the line size: a block's set is `block >> shift`, masked.
    shift: u32,
    /// Per set index: 0 = never touched, else 1 + its chunk. A run
    /// touches a handful of the thousands of sets, so only those get
    /// storage — building and dropping a cache writes one zeroed array.
    set_of: Vec<u32>,
    /// Chunk `c`'s ways are `ways[c * cfg.ways..][..cfg.ways]`.
    ways: Vec<Way>,
    /// The words of the lines inserted with data (a tag-only cache has
    /// none).
    runs: Runs,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Build an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets > 0 && sets.is_power_of_two() && cfg.line_bytes.is_power_of_two(),
            "set count and line size must be powers of two"
        );
        SetAssocCache {
            shift: cfg.line_bytes.trailing_zeros(),
            runs: Runs::new(cfg.line_words()),
            cfg,
            set_of: vec![0; sets],
            ways: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// (hits, misses) observed by [`Self::probe`].
    pub(crate) fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    #[inline]
    fn set_index(&self, block: u64) -> usize {
        (block >> self.shift) as usize & (self.set_of.len() - 1)
    }

    /// Position in `ways` of `block`'s way, if it is resident.
    #[inline]
    fn find(&self, block: u64) -> Option<usize> {
        let n = self.cfg.ways;
        let base = (self.set_of[self.set_index(block)] as usize).checked_sub(1)? * n;
        let set = &self.ways[base..base + n];
        set.iter().position(|w| w.block == block).map(|i| base + i)
    }

    /// Look up a block, updating LRU and hit statistics. Returns its state.
    pub(crate) fn probe(&mut self, block: u64) -> Option<LineState> {
        self.tick += 1;
        let Some(i) = self.find(block) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.ways[i].lru = self.tick;
        Some(self.ways[i].state)
    }

    /// State of a block without touching LRU or statistics.
    pub(crate) fn peek_state(&self, block: u64) -> Option<LineState> {
        self.find(block).map(|i| self.ways[i].state)
    }

    /// Read a word from a resident block. `word` indexes into the block.
    pub(crate) fn read_word(&mut self, block: u64, word: usize) -> Option<Word> {
        self.find(block)
            .map(|i| self.runs.word(self.ways[i].run, word))
    }

    /// Write a word into a resident block, transitioning
    /// Exclusive→Modified. Returns false if the block is absent or not
    /// writable.
    pub(crate) fn write_word(&mut self, block: u64, word: usize, value: Word) -> bool {
        match self.find(block) {
            Some(i) if self.ways[i].state.can_write() => {
                self.runs.set_word(self.ways[i].run, word, value);
                self.ways[i].state = LineState::Modified;
                true
            }
            _ => false,
        }
    }

    /// Apply a pushed word update in place (fine-grained "put" landing).
    /// Does not change the coherence state. Returns true if applied.
    pub(crate) fn apply_word_update(&mut self, block: u64, word: usize, value: Word) -> bool {
        let run = self.find(block).map(|i| self.ways[i].run);
        run.map(|run| self.runs.set_word(run, word, value))
            .is_some()
    }

    /// Insert (or replace) a block, copying its words into the cache.
    /// Returns the victim if one was evicted.
    pub(crate) fn insert(
        &mut self,
        block: u64,
        state: LineState,
        data: BlockData,
    ) -> Option<Evicted> {
        self.place(block, state, Some(data))
    }

    /// Insert (or replace) a block with no data — for tag-only levels
    /// (the L1 latency filter) whose values always come from the level
    /// below. Writes no words and allocates nothing once the set exists.
    pub fn insert_tag(&mut self, block: u64, state: LineState) -> Option<Evicted> {
        self.place(block, state, None)
    }

    /// Give `block` a way of its set — its own if resident, else a free
    /// one, else the least recently used, whose line is returned as the
    /// victim — stamped most recently used.
    fn place(&mut self, block: u64, state: LineState, data: Option<BlockData>) -> Option<Evicted> {
        assert!(state.is_valid(), "cannot insert an Invalid line");
        self.tick += 1;
        let i = match self.find(block) {
            Some(i) => i,
            None => {
                let n = self.cfg.ways;
                let base = self.touch(block) * n;
                let set = &self.ways[base..base + n];
                // A free way's tick is 0, below every stamped one, so it
                // goes first; stamped ticks are unique, so a full set has
                // exactly one least recently used way.
                let lru = (0..n).min_by_key(|&j| set[j].lru);
                base + lru.expect("a set has ways")
            }
        };
        let old = self.ways[i];
        let evicted = old.block != FREE && old.block != block;
        let surrendered = self.release(old, evicted && old.state.can_write());
        self.ways[i] = Way {
            block,
            lru: self.tick,
            state,
            run: data.map_or(NONE, |data| self.runs.put(data)),
        };
        evicted.then_some(Evicted {
            block: old.block,
            state: old.state,
            data: surrendered,
        })
    }

    /// The chunk of `block`'s set, giving the set its ways on first touch.
    fn touch(&mut self, block: u64) -> usize {
        let idx = self.set_index(block);
        if self.set_of[idx] == 0 {
            self.ways.resize(self.ways.len() + self.cfg.ways, EMPTY);
            self.set_of[idx] = (self.ways.len() / self.cfg.ways) as u32;
        }
        self.set_of[idx] as usize - 1
    }

    /// The line `way` left the cache: vacate its run, if it has one, and
    /// hand back its words if it must `surrender` them.
    fn release(&mut self, way: Way, surrender: bool) -> Option<BlockData> {
        (way.run != NONE).then(|| self.runs.take(way.run, surrender))?
    }

    /// Remove a block entirely (invalidation). Returns its state if it
    /// was present, with its data if it was Modified.
    pub fn invalidate(&mut self, block: u64) -> Option<(LineState, Option<BlockData>)> {
        let i = self.find(block)?;
        let way = std::mem::replace(&mut self.ways[i], EMPTY);
        let data = self.release(way, way.state == LineState::Modified);
        Some((way.state, data))
    }

    /// Downgrade Exclusive/Modified to Shared (intervention for a reader).
    /// Returns the block data if the line was dirty (home needs it).
    pub(crate) fn downgrade(&mut self, block: u64) -> Option<Option<BlockData>> {
        let i = self.find(block)?;
        let way = self.ways[i];
        self.ways[i].state = LineState::Shared;
        let dirty = way.state == LineState::Modified && way.run != NONE;
        Some(dirty.then(|| BlockData(self.runs.get(way.run).into())))
    }

    /// Change the state of a resident line (e.g. upgrade Shared→Exclusive
    /// when an UpgradeAck arrives). Returns false if the line is absent.
    pub(crate) fn set_state(&mut self, block: u64, state: LineState) -> bool {
        let i = self.find(block);
        i.map(|i| self.ways[i].state = state).is_some()
    }

    /// Number of resident lines (diagnostics).
    #[cfg(test)]
    pub(crate) fn resident(&self) -> usize {
        self.ways.iter().filter(|w| w.block != FREE).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_types::CacheConfig;

    fn small() -> SetAssocCache {
        // 2 sets x 2 ways x 128B lines = 512B cache.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 128,
            ways: 2,
            hit_latency: 10,
        })
    }

    fn blk(data: &[(usize, Word)]) -> BlockData {
        let mut b = BlockData::zeroed(16);
        for &(i, v) in data {
            b.set_word(i, v);
        }
        b
    }

    #[test]
    fn insert_probe_read() {
        let mut c = small();
        assert_eq!(c.probe(0), None);
        c.insert(0, LineState::Shared, blk(&[(3, 42)]));
        assert_eq!(c.probe(0), Some(LineState::Shared));
        assert_eq!(c.read_word(0, 3), Some(42));
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn write_requires_ownership() {
        let mut c = small();
        c.insert(0, LineState::Shared, blk(&[]));
        assert!(!c.write_word(0, 0, 9), "shared line must refuse writes");
        c.set_state(0, LineState::Exclusive);
        assert!(c.write_word(0, 0, 9));
        assert_eq!(c.peek_state(0), Some(LineState::Modified));
        assert_eq!(c.read_word(0, 0), Some(9));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Set index = (block/128) & 1: blocks 0, 256, 512 share set 0.
        c.insert(0, LineState::Shared, blk(&[]));
        c.insert(256, LineState::Shared, blk(&[]));
        c.probe(0); // touch 0 so 256 is LRU
        let ev = c
            .insert(512, LineState::Shared, blk(&[]))
            .expect("eviction");
        assert_eq!(ev.block, 256);
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn eviction_returns_dirty_data() {
        let mut c = small();
        c.insert(0, LineState::Exclusive, blk(&[]));
        c.write_word(0, 1, 77);
        c.insert(256, LineState::Shared, blk(&[]));
        let ev = c
            .insert(512, LineState::Shared, blk(&[]))
            .expect("eviction");
        // LRU is block 0 (inserted, then written — both touch it; 256 later).
        // write_word touches via find without lru bump, so victim is 0.
        assert_eq!(ev.block, 0);
        assert_eq!(ev.state, LineState::Modified);
        assert_eq!(ev.data.expect("owned victim").word(1), 77);
        // A Shared victim has nothing the home needs.
        c.insert(1024, LineState::Shared, blk(&[]));
        let ev = c.insert(0, LineState::Shared, blk(&[])).expect("eviction");
        assert_eq!((ev.block, ev.state), (512, LineState::Shared));
        assert!(ev.data.is_none());
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.insert(0, LineState::Modified, blk(&[(0, 5)]));
        let (st, data) = c.invalidate(0).expect("was present");
        assert_eq!(st, LineState::Modified);
        assert_eq!(data.expect("dirty data").word(0), 5);
        assert_eq!(c.probe(0), None);
        assert!(c.invalidate(0).is_none());
        // Only a Modified line surrenders its words.
        c.insert(0, LineState::Exclusive, blk(&[(0, 5)]));
        assert_eq!(c.invalidate(0), Some((LineState::Exclusive, None)));
    }

    #[test]
    fn set_fills_evicts_in_lru_order_and_reuses_freed_ways() {
        // Blocks 0, 256, 512, 768 all map to set 0 of the 2-way cache.
        let mut c = small();
        assert!(c.insert(0, LineState::Shared, blk(&[(0, 1)])).is_none());
        assert!(c.insert(256, LineState::Shared, blk(&[(0, 2)])).is_none());
        assert_eq!(c.resident(), 2, "the set is full");
        c.probe(0);
        let ev = c.insert(512, LineState::Shared, blk(&[(0, 3)]));
        assert_eq!(ev.map(|e| e.block), Some(256), "least recently used");
        let ev = c.insert(768, LineState::Shared, blk(&[(0, 4)]));
        assert_eq!(ev.map(|e| e.block), Some(0), "next least recently used");
        // An interleaved invalidate frees a way: the next insert takes
        // it and evicts nothing, and no line's words are disturbed.
        assert!(c.invalidate(512).is_some());
        assert!(c.insert(0, LineState::Shared, blk(&[(0, 5)])).is_none());
        assert_eq!(c.read_word(768, 0), Some(4));
        assert_eq!(c.read_word(0, 0), Some(5));
        assert_eq!(c.resident(), 2);
        // The other set was never touched.
        assert_eq!(c.peek_state(128), None);
    }

    #[test]
    fn tag_only_lines_hold_no_words() {
        let mut c = small();
        c.insert_tag(0, LineState::Modified);
        assert_eq!(c.peek_state(0), Some(LineState::Modified));
        c.insert_tag(256, LineState::Exclusive);
        let ev = c.insert_tag(512, LineState::Shared).expect("eviction");
        assert_eq!((ev.block, ev.state), (0, LineState::Modified));
        assert!(ev.data.is_none(), "a tag-only victim has no data");
        assert_eq!(c.invalidate(256), Some((LineState::Exclusive, None)));
    }

    #[test]
    fn downgrade_reports_dirtiness() {
        let mut c = small();
        c.insert(0, LineState::Exclusive, blk(&[]));
        assert_eq!(
            c.downgrade(0),
            Some(None),
            "clean exclusive: no data needed"
        );
        c.insert(128, LineState::Exclusive, blk(&[]));
        c.write_word(128, 2, 3);
        let d = c.downgrade(128).expect("present");
        assert_eq!(d.expect("dirty data").word(2), 3);
        assert_eq!(c.peek_state(128), Some(LineState::Shared));
    }

    #[test]
    fn word_update_preserves_state() {
        let mut c = small();
        c.insert(0, LineState::Shared, blk(&[]));
        assert!(c.apply_word_update(0, 4, 99));
        assert_eq!(c.peek_state(0), Some(LineState::Shared));
        assert_eq!(c.read_word(0, 4), Some(99));
        assert!(
            !c.apply_word_update(128, 0, 1),
            "absent block ignores updates"
        );
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut c = small();
        c.insert(0, LineState::Shared, blk(&[(0, 1)]));
        assert!(c.insert(0, LineState::Exclusive, blk(&[(0, 2)])).is_none());
        assert_eq!(c.peek_state(0), Some(LineState::Exclusive));
        assert_eq!(c.read_word(0, 0), Some(2));
        assert_eq!(c.resident(), 1);
    }
}
