//! Cache-line coherence states.

/// MESI-style state of a cached block, as seen by the owning cache.
///
/// `Exclusive` and `Modified` both mean "sole copy"; `Modified` is dirty
/// with respect to home memory and must be written back on eviction or
/// returned on intervention.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LineState {
    /// Not present (only used transiently; absent lines are usually just
    /// missing from the cache).
    Invalid,
    /// Read-only copy; other caches may also hold the block.
    Shared,
    /// Sole clean copy; may be written without a coherence transaction
    /// (silently upgrading to `Modified`).
    Exclusive,
    /// Sole dirty copy.
    Modified,
}

impl LineState {
    /// True for states granting write permission.
    #[inline]
    pub fn can_write(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Modified)
    }

    /// True for any valid (readable) state.
    #[inline]
    pub(crate) fn is_valid(self) -> bool {
        !matches!(self, LineState::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_permission() {
        assert!(!LineState::Invalid.can_write());
        assert!(!LineState::Shared.can_write());
        assert!(LineState::Exclusive.can_write());
        assert!(LineState::Modified.can_write());
    }

    #[test]
    fn validity() {
        assert!(!LineState::Invalid.is_valid());
        assert!(LineState::Shared.is_valid());
    }
}
