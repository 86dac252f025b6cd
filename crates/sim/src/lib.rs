//! The machine: the complete simulated CC-NUMA multiprocessor.
//!
//! A [`Machine`] assembles processors ([`cpu::Processor`]), hubs
//! (directory + memory controller + DRAM + AMU, one per node), and
//! the fat-tree fabric, and drives them with a deterministic
//! discrete-event loop. Workloads install a [`cpu::Kernel`] on each
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
//!
//! Each part is a module: [`engine`] (event queue), [`noc`] (fabric),
//! [`cache`], [`dram`], [`directory`], [`amu`] and [`cpu`] (processor);
//! the seeded fault plan they consult is the crate-private `faults`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amu;
pub mod cache;
pub mod cpu;
pub mod directory;
pub mod dram;
pub mod engine;
mod error;
mod faults;
mod hub;
mod machine;
pub mod noc;

// The leaf modules sit at the crate root, so each keeps the module path
// (and its unit tests their names) that it had as a crate of its own; the
// files stay grouped under the public module that re-exports them.
#[path = "noc/fabric.rs"]
mod fabric;
#[path = "cache/hierarchy.rs"]
mod hierarchy;
#[path = "cpu/kernel.rs"]
mod kernel;
#[path = "cache/line.rs"]
mod line;
#[path = "cache/llsc.rs"]
mod llsc;
#[path = "cpu/proc/mod.rs"]
mod proc;
#[path = "directory/protocol.rs"]
mod protocol;
#[path = "engine/queue.rs"]
mod queue;
#[path = "cache/runs.rs"]
mod runs;
#[path = "cache/set.rs"]
mod set;
#[path = "dram/store.rs"]
mod store;
#[path = "dram/timing.rs"]
mod timing;
#[path = "noc/topology.rs"]
mod topology;
#[path = "amu/unit.rs"]
mod unit;

pub use engine::QueueKind;
pub use error::{DiagBundle, NodeDepths, SimError, SimErrorKind};
pub use machine::{Machine, RunResult, EVENT_SIZE};
