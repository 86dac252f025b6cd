//! Processor-side cache structures.
//!
//! Coherence state is kept at L2-block granularity (the paper's 128-byte
//! blocks); the L1 is an inclusive latency filter holding 32-byte
//! sub-blocks of L2 lines. Word updates pushed by the home directory (the
//! AMO "put" fanout) are applied in place to both levels without changing
//! coherence state — that is precisely the paper's fine-grained update
//! semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod line;
pub mod llsc;
mod runs;

pub use cache::{Evicted, SetAssocCache, WAY_SIZE};
pub use hierarchy::{CacheHierarchy, Probe};
pub use line::LineState;
pub use llsc::LlReservation;
