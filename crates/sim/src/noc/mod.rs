//! Interconnect model: the paper's NUMALink-4-style fat tree.
//!
//! The paper models "a fat-tree structure, where each non-leaf router has
//! eight children" with a hop latency of 50 ns (100 CPU cycles) and a
//! 32-byte minimum packet. We reproduce that: `Topology` computes hop
//! counts through the tree, and [`Fabric`] turns a message into a delivery
//! time, charging per-hop latency plus serialization at the source and
//! destination network interfaces. Endpoint serialization is what creates
//! the home-node ingress contention that synchronization storms suffer
//! from; router-internal buffering is deliberately not modelled (the
//! paper's hot spot is the home node, not the fabric core — see
//! DESIGN.md).

pub(crate) use crate::fabric::Delivery;
pub use crate::fabric::Fabric;
