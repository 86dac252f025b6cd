//! The processor model.
//!
//! Processors do not execute MIPS binaries; they run *kernels* — explicit
//! state machines (implementations of [`Kernel`]) that issue the memory
//! and synchronization operations a compiled synchronization routine
//! would. The paper's benchmarks are pure synchronization loops, so this
//! captures exactly what its experiments measure: every coherence
//! transaction, every AMO/MAO/active-message exchange, every spin.
//!
//! Key behaviours modelled here:
//!
//! * two-level cache access with miss transactions through the home
//!   directory (GetS / GetX / Upgrade / writeback);
//! * MIPS-style LL/SC with a single reservation cleared by invalidations;
//! * processor-side atomic read-modify-write (the "Atomic" baseline);
//! * **event-driven spinning**: a spinning processor sleeps on its cached
//!   copy and is woken by an invalidation (→ reload, the conventional
//!   wake-up storm) or by a pushed word update (→ immediate re-check, the
//!   AMO path);
//! * active-message handler execution on the home processor, with
//!   invocation overhead, queueing, at-most-once dedup, and the resulting
//!   interference with the processor's own work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod proc;

pub use kernel::{Kernel, Op, Outcome};
pub use proc::{ProcEffect, ProcFault, Processor, TimerKind};
