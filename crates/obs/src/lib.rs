//! Observability for the `amo-rs` simulator: cycle-stamped event traces,
//! Perfetto export, interval time series, and machine-readable metrics
//! reports.
//!
//! The design contract is **zero overhead when disabled**: every
//! instrumentation hook in the simulator is guarded by
//! `if T::ENABLED { ... }` where `T` is a [`Tracer`] implementation and
//! `ENABLED` is an associated `const`. With the zero-sized [`NopTracer`]
//! the guard is a compile-time `false`, so the entire hook — including
//! construction of the [`TraceEvent`] — is dead code the optimizer
//! removes (`amo-benchmark` measures its end-to-end floors on this default
//! path). With [`RingTracer`] events land in a fixed-capacity ring, so a
//! trillion-cycle run still has bounded memory and keeps the *most
//! recent* window, with a count of what it dropped.
//!
//! Exports:
//! * [`critpath::analyze`] — causal-DAG critical-path extraction and
//!   per-stage sync-tax attribution (`amo-critpath-v1` reports) with an
//!   exact conservation invariant.
//! * [`perfetto::perfetto_json`] — Chrome/Perfetto trace-event JSON, one
//!   process per node, one track per component (directory, AMU, NoC, each
//!   processor), with flow arrows linking each request's causal chain.
//!   Open in <https://ui.perfetto.dev>.
//! * [`perfetto::text_dump`] — compact grep-able text form.
//! * [`timeseries::TimeSeries`] — interval samples of queue depths and
//!   link backlogs, with an ASCII timeline renderer.
//! * [`report::metrics_json`] — one JSON document combining `Stats` and
//!   the time series, for `--metrics-json`.
//! * [`Json`] — `amo_types`' small JSON value parser, re-exported because
//!   tests and CI validate everything this crate emits with it.
//! * [`hostprof`] — *host-side* self-profiling: the same
//!   compile-time-gated pattern applied to the simulator's own
//!   wall-clock and allocations (`amo-hostprof-v1` reports).

// `deny`, not `forbid`: the one sanctioned exception is the
// `GlobalAlloc` impl in `hostprof` (an unsafe trait by definition),
// which carries its own narrowly-scoped `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod critpath;
pub mod hostprof;
pub mod perfetto;
pub mod report;
pub mod timeseries;
pub mod tracer;

pub use critpath::{
    analyze, CritPathError, CritPathReport, EpisodePath, Stage, Workload, ALL_STAGES, STAGES,
};
pub use hostprof::{
    alloc_counters, hostprof_json, validate_hostprof, CountingAlloc, EdgeReport, HostProf,
    HostProfReport, HostProfSection, HostProfSectionSummary, HostProfiler, NopHostProf, Scope,
    ScopeReport,
};
pub use perfetto::{perfetto_json, text_dump, validate_perfetto, PerfettoSummary};
pub use report::{campaign_metrics_json, metrics_json, CampaignSummary};
pub use timeseries::{Metric, NodeSample, Tick, TimeSeries};
pub use tracer::{NopTracer, RingTracer, TraceBuf, TraceEvent, TraceKind, Tracer, Violation};

pub use amo_types::Json;
