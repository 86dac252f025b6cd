//! Processor-side cache structures.
//!
//! Coherence state is kept at L2-block granularity (the paper's 128-byte
//! blocks); the L1 is an inclusive latency filter holding 32-byte
//! sub-blocks of L2 lines. Word updates pushed by the home directory (the
//! AMO "put" fanout) are applied in place to both levels without changing
//! coherence state — that is precisely the paper's fine-grained update
//! semantics.

pub use crate::hierarchy::{CacheHierarchy, Probe};
pub use crate::line::LineState;
pub(crate) use crate::llsc::LlReservation;
pub use crate::set::{Evicted, SetAssocCache, WAY_SIZE};
