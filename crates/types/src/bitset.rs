//! Fixed-size bitset tracking which processor caches share a block.
//!
//! The paper's directory structure supports at most 256 processors
//! (Sec. 4.2.1), so four 64-bit limbs suffice and the set is `Copy`-cheap
//! enough to live inline in every directory entry.

use crate::ids::ProcId;

/// Number of 64-bit limbs in a [`ProcSet`].
const LIMBS: usize = 4;

/// Maximum processor count representable, matching the paper's directory.
pub(crate) const MAX_PROCS: usize = LIMBS * 64;

/// A set of processors, used by the directory as the sharer list of a
/// cache block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub struct ProcSet {
    limbs: [u64; LIMBS],
}

impl ProcSet {
    /// The empty set.
    #[inline]
    pub const fn new() -> Self {
        ProcSet { limbs: [0; LIMBS] }
    }

    /// Insert `p`; returns true if it was newly added.
    #[inline]
    pub fn insert(&mut self, p: ProcId) -> bool {
        let (l, b) = Self::split(p);
        let was = self.limbs[l] & (1 << b) != 0;
        self.limbs[l] |= 1 << b;
        !was
    }

    /// Remove `p`; returns true if it was present.
    #[inline]
    pub fn remove(&mut self, p: ProcId) -> bool {
        let (l, b) = Self::split(p);
        let was = self.limbs[l] & (1 << b) != 0;
        self.limbs[l] &= !(1 << b);
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, p: ProcId) -> bool {
        let (l, b) = Self::split(p);
        self.limbs[l] & (1 << b) != 0
    }

    /// Number of processors in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.limbs.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// True when no processor is in the set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Iterate the members in ascending processor-id order.
    pub fn iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.limbs
            .iter()
            .enumerate()
            .flat_map(|(li, &limb)| BitIter { limb }.map(move |b| ProcId((li * 64 + b) as u16)))
    }

    #[inline]
    fn split(p: ProcId) -> (usize, u32) {
        let i = p.0 as usize;
        assert!(i < MAX_PROCS, "processor id {i} exceeds directory capacity");
        (i / 64, (i % 64) as u32)
    }
}

struct BitIter {
    limb: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.limb == 0 {
            return None;
        }
        let b = self.limb.trailing_zeros() as usize;
        self.limb &= self.limb - 1;
        Some(b)
    }
}

impl FromIterator<ProcId> for ProcSet {
    fn from_iter<T: IntoIterator<Item = ProcId>>(iter: T) -> Self {
        let mut s = ProcSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcSet::new();
        assert!(s.insert(ProcId(3)));
        assert!(!s.insert(ProcId(3)));
        assert!(s.contains(ProcId(3)));
        assert!(!s.contains(ProcId(4)));
        assert!(s.remove(ProcId(3)));
        assert!(!s.remove(ProcId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let ids = [0u16, 1, 63, 64, 127, 128, 200, 255];
        let s: ProcSet = ids.iter().map(|&i| ProcId(i)).collect();
        let out: Vec<u16> = s.iter().map(|p| p.0).collect();
        assert_eq!(out, ids);
        assert_eq!(s.len(), ids.len());
    }

    #[test]
    #[should_panic(expected = "exceeds directory capacity")]
    fn oversized_id_panics() {
        let mut s = ProcSet::new();
        s.insert(ProcId(256));
    }
}
