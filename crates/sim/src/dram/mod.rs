//! DRAM backend: timing (fixed latency + per-channel occupancy) and the
//! backing value store for each node's local memory.
//!
//! The paper's Table 1 gives a 60-cycle DRAM latency over 16 DDR channels
//! that deliver an 80-bit burst every two (hub) cycles. We model that as
//! a fixed access latency plus a short per-channel busy window, which is
//! enough to expose channel contention when many directory transactions
//! target the same home node — the contention that matters for the
//! synchronization storms the paper studies.

pub use crate::store::MemoryStore;
pub(crate) use crate::timing::DramTimer;
