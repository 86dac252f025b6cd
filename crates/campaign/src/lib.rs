//! Declarative experiment campaigns over the AMO simulator.
//!
//! This crate turns "regenerate the paper's tables" and "sweep this
//! parameter" from hand-written loops into data:
//!
//! * [`run`] — the unit of work: a [`run::RunSpec`] canonically
//!   describes one simulator invocation, hashes to a stable 128-bit
//!   content key, and executes to [`run::RunArtifacts`].
//! * [`sched`] — the [`sched::Campaign`] scheduler: dedups a batch by
//!   content key, serves what the cache holds, runs the cold ones on
//!   the `amo-workloads` sweep pool largest machine first (writing each
//!   cache entry as its run finishes), and reassembles results in index
//!   order, bit-identically.
//! * [`cache`] — [`cache::ResultCache`], the content-addressed on-disk
//!   store (checksummed entries; corruption is detected and recomputed,
//!   staleness is impossible by construction because inputs are the
//!   address).
//! * [`spec`] — the `amo-campaign-v1` JSON spec format: parameter grids
//!   with axes, filters, and replicas, or named paper-artifact sets.
//! * [`table`] — [`table::Table`], what an artefact *is*: labelled
//!   columns and keyed rows of numbers with one paper layout, one CSV
//!   form, and lookup by row key and column label.
//! * [`artifacts`] — every table/figure of the paper's evaluation as a
//!   *table function* that asks an `artifacts::Cells` handle for each
//!   number by describing the run that produces it;
//!   `artifacts::evaluate`, the planner that turns what a function
//!   asks for into one campaign batch per generator;
//!   [`artifacts::tables`], and [`artifacts::render_artifacts`] which
//!   regenerates the committed `tables_output.txt` byte-for-byte.
//! * [`render`] — the plain-text renderer of a grid campaign.
//! * [`chaos`] — chaos search: sample seeded delivery-fault plans from
//!   a grid, shrink each failure to a minimal reproducer, and emit it
//!   as a replayable `amo-fault-plan-v1` document.
//!
//! The cache guarantee: a warm re-run of any campaign serves every
//! cell from disk (zero simulations) and renders byte-identical output.
//! See DESIGN.md §10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod cache;
pub mod chaos;
pub mod render;
pub mod run;
pub mod sched;
pub mod spec;
pub mod table;

pub use artifacts::ArtifactProfile;
pub use cache::ResultCache;
pub use chaos::{ChaosFinding, ChaosGrid, ChaosReport, ChaosSpec, DeliveryPlan, PlanDoc};
pub use run::{RunArtifacts, RunSpec};
pub use sched::{Campaign, CampaignCounters};
pub use spec::{CampaignPlan, CampaignSpec, GridRun};
