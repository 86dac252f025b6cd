//! `amo_sim::engine` under its former crate name, kept only because `crates/benchmark` imports it.
pub use amo_sim::engine::*;
