//! Load-linked / store-conditional reservation tracking.
//!
//! The paper's baseline synchronization uses MIPS-style LL/SC: an LL
//! establishes a reservation on the loaded block; any loss of that block
//! (invalidation, intervention, eviction) before the SC completes makes
//! the SC fail. One reservation per processor, as on real MIPS.

use amo_types::BlockAddr;

/// A processor's (single) LL reservation.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LlReservation {
    block: Option<BlockAddr>,
}

impl LlReservation {
    /// No reservation held.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// An LL to `block` replaces any previous reservation.
    pub(crate) fn set(&mut self, block: BlockAddr) {
        self.block = Some(block);
    }

    /// True if a reservation on `block` is currently held.
    pub(crate) fn holds(&self, block: BlockAddr) -> bool {
        self.block == Some(block)
    }

    /// The block was lost (invalidated / downgraded / evicted): clear the
    /// reservation if it matches. Returns true if a reservation was lost.
    pub(crate) fn lose(&mut self, block: BlockAddr) -> bool {
        if self.block == Some(block) {
            self.block = None;
            true
        } else {
            false
        }
    }

    /// Consume the reservation at SC time. Returns true (SC may proceed)
    /// only if the reservation on `block` was still intact.
    pub(crate) fn consume(&mut self, block: BlockAddr) -> bool {
        let ok = self.holds(block);
        self.block = None;
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockAddr = BlockAddr(0x80);
    const C: BlockAddr = BlockAddr(0x100);

    #[test]
    fn reservation_lifecycle() {
        let mut r = LlReservation::new();
        assert!(!r.holds(B));
        r.set(B);
        assert!(r.holds(B));
        assert!(r.consume(B));
        assert!(!r.holds(B), "consume clears");
        assert!(!r.consume(B), "second SC fails");
    }

    #[test]
    fn invalidation_kills_reservation() {
        let mut r = LlReservation::new();
        r.set(B);
        assert!(!r.lose(C), "unrelated block does not clear");
        assert!(r.lose(B));
        assert!(!r.consume(B));
    }

    #[test]
    fn new_ll_replaces_old() {
        let mut r = LlReservation::new();
        r.set(B);
        r.set(C);
        assert!(!r.holds(B));
        assert!(r.consume(C));
    }
}
