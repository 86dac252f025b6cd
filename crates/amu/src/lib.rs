//! The Active Memory Unit (paper Sec. 3.1).
//!
//! The AMU sits in the home node's memory controller. Processors ship
//! simple atomic operations (`amo.inc`, `amo.fetchadd`) to it; the AMU
//! executes them next to memory instead of bouncing the cache block
//! across the network. Its key pieces, all modelled here:
//!
//! * a **dispatch queue** — commands wait until the function unit is
//!   ready;
//! * a tiny **AMU cache** (default 8 words) that coalesces operations to
//!   hot synchronization variables: a hit completes in 2 hub cycles
//!   "regardless of the number of processors contending";
//! * the **test value** mechanism: an `amo.inc` carries the value at
//!   which the AMU should *put* the word back (triggering the directory's
//!   fine-grained update fanout); `amo.fetchadd` puts after every
//!   operation;
//! * the **MAO port**: the same function unit reached through uncached
//!   (non-coherent) addresses, reproducing SGI Origin 2000 / Cray T3E
//!   memory-side atomics for the paper's MAO baseline.
//!
//! The AMU is pure logic: the hub executes the [`AmuEffect`]s it emits
//! and feeds back directory fine-get values and memory words.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod unit;

pub use unit::{Amu, AmuEffect, AmuError, AmuOp};
