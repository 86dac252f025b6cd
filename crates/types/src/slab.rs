//! A dense, generation-indexed slab arena.
//!
//! The hot simulator state that used to live in `FxHashMap`s keyed by
//! transaction/request ids (directory entries, outstanding-miss
//! tracking) is bounded and churns fast: entries are allocated and
//! freed millions of times per run, but only a handful are live at
//! once. A slab gives that pattern O(1) id→slot access with no hashing
//! and no steady-state allocation: freed slots go on a free list,
//! threaded through the vacant slots themselves, and are reused, and
//! each reuse bumps the slot's generation so a stale [`SlotId`] from a
//! previous occupant can never alias the new one.
//!
//! Determinism note: slot allocation order depends only on the
//! insert/remove call sequence (LIFO free-list reuse), so two runs
//! issuing the same operations get the same ids — the slab introduces
//! no iteration-order or address-based nondeterminism. [`Slab::iter`]
//! visits occupied slots in index order, which is likewise a pure
//! function of the call history.

/// Handle to one occupied slot: dense index plus the generation the
/// slot had when the value was inserted. 8 bytes, `Copy`, and safe to
/// hold across removals — a lookup with a stale generation misses
/// instead of aliasing the slot's next occupant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId {
    idx: u32,
    gen: u32,
}

impl SlotId {
    /// The slot's dense index (always `< slab.capacity()` for ids minted
    /// by that slab). Useful for secondary dense side-tables.
    #[cfg(test)]
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.idx as usize
    }
}

/// One arena slot: the current generation and the value, if occupied.
/// Kept private; layout is asserted by the workspace layout guards via
/// [`Slab::slot_size`].
struct Slot<T> {
    gen: u32,
    /// While vacant: the next vacant slot's index, or [`NONE`].
    next_free: u32,
    val: Option<T>,
}

/// End of the free list.
const NONE: u32 = u32::MAX;

/// A generation-indexed slab arena. See the module docs.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// The most recently vacated slot, head of the free list threaded
    /// through `Slot::next_free` (vacant slots are reused LIFO).
    free: u32,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: NONE,
            len: 0,
        }
    }

    /// An empty slab with room for `cap` values before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free: NONE,
            len: 0,
        }
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots ever allocated (occupied + free-listed).
    #[cfg(test)]
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Size in bytes of one slot (generation tag, free-list link and
    /// value storage); referenced by the layout-guard tests so arena
    /// slots have a named budget just like events.
    pub const fn slot_size() -> usize {
        std::mem::size_of::<Slot<T>>()
    }

    /// Store `val`, reusing a free slot if one exists. O(1) amortized;
    /// allocation-free once the slab has reached its high-water mark.
    pub fn insert(&mut self, val: T) -> SlotId {
        self.len += 1;
        if self.free != NONE {
            let idx = self.free;
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.val.is_none(), "free-listed slot is occupied");
            self.free = slot.next_free;
            slot.val = Some(val);
            return SlotId { idx, gen: slot.gen };
        }
        let idx = u32::try_from(self.slots.len()).ok().filter(|&i| i != NONE);
        let idx = idx.expect("slab exceeds u32 slots");
        self.slots.push(Slot {
            gen: 0,
            next_free: NONE,
            val: Some(val),
        });
        SlotId { idx, gen: 0 }
    }

    /// The value at `id`, if it is still the same occupant.
    #[inline]
    pub fn get(&self, id: SlotId) -> Option<&T> {
        let slot = self.slots.get(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.val.as_ref()
    }

    /// Mutable access to the value at `id`, if still the same occupant.
    #[inline]
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.val.as_mut()
    }

    /// Remove and return the value at `id`. The slot's generation is
    /// bumped, so `id` (and any copy of it) is dead from here on.
    pub fn remove(&mut self, id: SlotId) -> Option<T> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.gen != id.gen || slot.val.is_none() {
            return None;
        }
        let val = slot.val.take();
        slot.gen = slot.gen.wrapping_add(1);
        slot.next_free = self.free;
        self.free = id.idx;
        self.len -= 1;
        val
    }

    /// Visit every occupied slot in index order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.val.as_ref().map(|v| {
                (
                    SlotId {
                        idx: i as u32,
                        gen: s.gen,
                    },
                    v,
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: Slab<String> = Slab::new();
        let a = s.insert("a".into());
        let b = s.insert("b".into());
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a).map(String::as_str), Some("a"));
        assert_eq!(s.get(b).map(String::as_str), Some("b"));
        assert_eq!(s.remove(a).as_deref(), Some("a"));
        assert_eq!(s.get(a), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn freed_slots_are_reused_with_new_generations() {
        let mut s: Slab<u64> = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        let b = s.insert(2);
        // LIFO reuse: same dense index, different generation.
        assert_eq!(b.index(), a.index());
        assert_ne!(a, b);
        assert_eq!(s.get(a), None, "stale id must miss, not alias");
        assert_eq!(s.get(b), Some(&2));
        assert_eq!(s.capacity(), 1, "no growth across reuse");
    }

    #[test]
    fn double_remove_is_none() {
        let mut s: Slab<u8> = Slab::new();
        let a = s.insert(9);
        assert_eq!(s.remove(a), Some(9));
        assert_eq!(s.remove(a), None);
        assert!(s.is_empty());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut s: Slab<Vec<u8>> = Slab::new();
        let a = s.insert(vec![1]);
        s.get_mut(a).unwrap().push(2);
        assert_eq!(s.get(a), Some(&vec![1, 2]));
    }

    #[test]
    fn iteration_visits_occupied_in_index_order() {
        let mut s: Slab<u32> = Slab::new();
        let ids: Vec<SlotId> = (0..5).map(|i| s.insert(i * 10)).collect();
        s.remove(ids[1]);
        s.remove(ids[3]);
        let seen: Vec<u32> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec![0, 20, 40]);
    }

    #[test]
    fn steady_state_churn_never_grows_capacity() {
        let mut s: Slab<u64> = Slab::new();
        let mut live: Vec<SlotId> = (0..8).map(|i| s.insert(i)).collect();
        let high_water = s.capacity();
        for round in 0..1000u64 {
            let id = live.remove((round as usize * 3) % live.len());
            assert!(s.remove(id).is_some());
            live.push(s.insert(round));
        }
        assert_eq!(s.capacity(), high_water, "churn must reuse slots");
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn allocation_order_is_deterministic() {
        let run = || {
            let mut s: Slab<u64> = Slab::new();
            let a = s.insert(1);
            let b = s.insert(2);
            s.remove(a);
            let c = s.insert(3);
            s.remove(b);
            let d = s.insert(4);
            (a, b, c, d)
        };
        assert_eq!(run(), run());
    }
}
