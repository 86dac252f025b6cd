//! Deterministic discrete-event simulation engine.
//!
//! The whole machine model is event-driven: components never poll the
//! clock; they schedule future events (message deliveries, unit-ready
//! notifications, timeouts) and the run loop advances time to the next
//! event. Determinism matters for reproducible experiments and for
//! property-based testing, so ties in time are broken by insertion order
//! (a monotonically increasing sequence number), never by heap internals.

pub use crate::queue::{EventQueue, QueueKind};

use amo_types::Cycle;

/// A monotonically advancing simulation clock.
///
/// The run loop owns the clock; components read it through the context
/// they are handed and may only move it forward by scheduling events.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Clock {
    now: Cycle,
}

impl Clock {
    /// Current simulation time.
    #[inline]
    pub(crate) fn now(&self) -> Cycle {
        self.now
    }

    /// Advance to `t`. Panics if time would move backwards — that is
    /// always an engine bug, never a legitimate model behaviour.
    #[inline]
    pub(crate) fn advance_to(&mut self, t: Cycle) {
        assert!(t >= self.now, "time went backwards: {} -> {}", self.now, t);
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::default();
        assert_eq!(c.now(), 0);
        c.advance_to(5);
        c.advance_to(5); // same time is fine
        c.advance_to(9);
        assert_eq!(c.now(), 9);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn clock_rejects_regression() {
        let mut c = Clock::default();
        c.advance_to(10);
        c.advance_to(9);
    }
}
