//! Shared vocabulary types for the `amo-rs` workspace.
//!
//! This crate defines everything the subsystem crates need to talk to each
//! other without depending on one another: simulation time, processor and
//! node identifiers, physical addresses with an explicit home-node encoding,
//! the full system configuration (the paper's Table 1), the coherence /
//! AMO / MAO / active-message wire-message catalogue with packet sizes, the
//! sharer bitset used by the directory, and the statistics counters every
//! component reports into.
//!
//! Nothing in this crate performs simulation; it is pure data. That keeps
//! the dependency graph of the workspace a clean DAG:
//! `types → {engine, noc, cache, dram} → {directory, amu, cpu} → sim →
//! sync → workloads → amo → bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bitset;
pub mod config;
pub mod fxmap;
pub mod histogram;
pub mod ids;
pub mod json;
pub mod jsonv;
pub mod msg;
pub mod seed;
pub mod slab;
pub mod stats;
pub mod tape;

pub use addr::{Addr, BlockAddr};
pub use bitset::ProcSet;
pub use config::{ActMsgConfig, AmuConfig, CacheConfig, FaultConfig, NetworkConfig, SystemConfig};
pub use fxmap::{FxHashMap, FxHashSet, FxHasher};
pub use histogram::{LatHist, LAT_BUCKETS};
pub use ids::{NodeId, ProcId, ReqId};
pub use json::JsonWriter;
pub use jsonv::Json;
pub use msg::{
    AmoKind, BlockData, HandlerKind, InterventionKind, InterventionResp, Payload, Publish, SpinPred,
};
pub use slab::{Slab, SlotId};
pub use stats::{MsgClass, MsgEndpoint, OpClass, Stats};
pub use tape::{ChoiceKind, ChoiceRec, SharedTape, TapeConfig, TapeState};

/// Simulation time, measured in CPU clock cycles (the paper's processors
/// run at 2 GHz; every latency in [`SystemConfig`] is expressed in these
/// cycles).
pub type Cycle = u64;

/// A 64-bit memory word — the granularity of synchronization variables,
/// AMO operands, and fine-grained updates.
pub type Word = u64;
