//! `amo-verify`: online protocol monitors and a bounded schedule
//! explorer with replayable counterexamples.
//!
//! Simulation gives determinism; determinism alone does not give
//! *coverage* — the keyed-hash fault oracle executes one interleaving
//! per seed. This crate closes the gap from both ends:
//!
//! * [`monitor`] — online checkers over the trace/effect stream
//!   (mutual exclusion, ticket-FIFO order, barrier-epoch separation,
//!   at-most-once AMU application, directory slab sanity). Monitors
//!   are pure observers riding the existing `Tracer` hooks: a
//!   monitored run is timing-identical to an unmonitored one, and the
//!   default `NopTracer` build compiles every hook away.
//! * [`explore`](mod@explore) — a bounded DFS over **choice tapes**
//!   (`amo_types::tape`): every implicit delivery/retry decision
//!   becomes an explicit, enumerable choice, so the explorer
//!   systematically visits arrival skews, reorder permutations, and
//!   duplication/jitter picks, deduping on outcome fingerprints.
//! * [`doc`] — violating tapes shrink to minimal reproducers and
//!   serialize as fingerprint-checked `amo-schedule-v1` documents the
//!   `amo verify --replay` re-runs to the identical typed error.
//! * [`matrix`] — declarative verification matrices cached through
//!   the campaign's content-addressed result store.
//!
//! See DESIGN.md §12 for the monitor catalog, choice-tape semantics,
//! and the soundness boundary of the exploration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doc;
pub mod explore;
pub mod matrix;
pub mod model;
pub mod monitor;

pub use doc::{ScheduleDoc, SCHEDULE_SCHEMA};
pub use explore::{explore, Counterexample, ExploreLimits, ExploreReport};
pub use matrix::{render_matrix_report, run_matrix, CellOutcome, MatrixCell, VerifyMatrix};
pub use model::{Outcome, VerifyModel, VerifyWorkload};
pub use monitor::{
    AtMostOnce, BarrierEpoch, DirSanity, Monitor, MonitorTracer, MutualExclusion, TicketFifo,
};
