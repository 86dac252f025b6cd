//! The machine: the complete simulated CC-NUMA multiprocessor.
//!
//! A [`Machine`] assembles processors ([`amo_cpu::Processor`]), hubs
//! (directory + memory controller + DRAM + AMU, one per node), and
//! the fat-tree fabric, and drives them with a deterministic
//! discrete-event loop. Workloads install a [`amo_cpu::Kernel`] on each
//! processor and call [`Machine::run`]; the result carries timing,
//! per-marker timestamps, and the machine-wide [`amo_types::Stats`].
//!
//! The event graph mirrors the paper's hardware:
//!
//! ```text
//! processor ──bus──► local hub ──fabric──► home hub
//!                                           ├─ directory (serialized, occupancy)
//!                                           ├─ DRAM (channels, 60 cycles)
//!                                           └─ AMU (queue + 8-word cache, 2-hub-cycle ops)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod hub;
pub mod machine;

pub use amo_engine::QueueKind;
pub use error::{DiagBundle, NodeDepths, SimError, SimErrorKind};
pub use machine::{Machine, RunResult, EVENT_SIZE};
