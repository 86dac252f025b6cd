//! Synchronization algorithms — the paper's evaluation subjects.
//!
//! Every algorithm is implemented once, parameterized by the
//! [`Mechanism`] providing its atomic fetch-and-add, its release write,
//! and its spin:
//!
//! | mechanism | fetch-add | release | spin |
//! |---|---|---|---|
//! | `LlSc` | LL/SC retry loop | coherent store | cached, invalidate-wakes |
//! | `Atomic` | processor RMW (GetX) | coherent store | cached |
//! | `ActMsg` | handler on home CPU | coherent store (handler publish for barriers) | cached |
//! | `Mao` | uncached AMU op | uncached AMU fetch-add | remote uncached + backoff (locks), coherent (optimized barrier) |
//! | `Amo` | AMU op w/ fine-grained get | AMU fetch-add w/ immediate put | cached, word-update-wakes |
//!
//! The algorithms themselves are the paper's: centralized barriers
//! (naive and spin-variable, Fig. 3), software combining-tree barriers
//! (Yew et al.), ticket locks, and Anderson array-based queuing locks
//! (Mellor-Crummey & Scott). There is one combining-tree kernel
//! ([`ktree`]): the paper's two-level tree is the shape with fan-ins
//! `[B, ⌈P/B⌉]`, the k-level extension the shape with a uniform fan-in.
//! All use *cumulative* counts across episodes/rounds, so no reset
//! races exist and the AMO test value is simply `episode × participants`.
//!
//! To put an algorithm on a machine, go through [`install`]:
//! [`BarrierAlgo::install`] and [`LockKind::install`] own the pairing
//! of each spec with its kernel (and the array lock's initialization),
//! and [`BarrierAlgo::check`] / [`LockKind::check`] say beforehand
//! whether the request can run. The spec and kernel types stay public
//! for code that composes kernels itself (`SeqKernel` phases, several
//! locks on one machine).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod dissemination;
pub mod install;
pub mod ktree;
pub mod layout;
pub mod lock;
pub mod mcs;
pub mod mechanism;

pub use barrier::{BarrierKernel, BarrierSpec, BarrierStyle};
pub use dissemination::{DisseminationKernel, DisseminationSpec};
pub use install::{BarrierAlgo, LockInstalled, LockKind, ProcPlan};
pub use ktree::{KTreeKernel, KTreeSpec};
pub use layout::VarAlloc;
pub use lock::{ArrayLockKernel, ArrayLockSpec, TicketLockKernel, TicketLockSpec};
pub use mcs::{McsLockKernel, McsLockSpec};
pub use mechanism::Mechanism;
