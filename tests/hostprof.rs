//! End-to-end checks of the host-side self-profiler: a profiled run
//! must be simulated-timing-identical to an unprofiled one (the hooks
//! observe host wall-clock, never the simulation), its dispatch scopes
//! must account for every simulated event, and the exported
//! `amo-hostprof-v1` document must pass the in-tree validator's exact
//! self-time accounting.

use amo::obs::{hostprof_json, validate_hostprof, HostProfSection};
use amo::prelude::*;

fn bench(procs: u16) -> BarrierBench {
    BarrierBench {
        episodes: 5,
        warmup: 1,
        ..BarrierBench::paper(Mechanism::Amo, procs)
    }
}

fn profiled() -> ObsSpec {
    ObsSpec {
        trace_cap: 0,
        sample_interval: 0,
        hostprof: true,
    }
}

#[test]
fn profiling_does_not_change_simulated_time() {
    let plain = run_barrier(bench(32));
    let prof = run_barrier_obs(bench(32), profiled());
    assert_eq!(plain.timing.per_episode, prof.timing.per_episode);
    assert_eq!(plain.stats.total_msgs(), prof.stats.total_msgs());
    assert_eq!(plain.stats.total_bytes(), prof.stats.total_bytes());
    assert!(prof.obs.hostprof.is_some(), "profile was requested");
}

#[test]
fn dispatch_scopes_cover_every_simulated_event() {
    let r = run_barrier_obs(bench(64), profiled());
    let report = r.obs.hostprof.as_ref().expect("profiling enabled");
    let dispatched: u64 = report
        .scopes
        .iter()
        .filter(|s| s.scope.is_dispatch())
        .map(|s| s.count)
        .sum();
    assert_eq!(
        dispatched, r.info.events,
        "every event dispatch passes through exactly one dispatch scope"
    );
    assert!(report.wall_ns > 0, "the run took host time");
}

#[test]
fn hostprof_doc_validates_and_reports_render() {
    let r = run_barrier_obs(bench(64), profiled());
    let report = r.obs.hostprof.as_ref().expect("profiling enabled");
    let doc = hostprof_json(
        &[("workload", "barrier".into()), ("mech", "amo".into())],
        &[HostProfSection {
            name: "amo_barrier",
            phase: "cold",
            events: r.info.events,
            report,
        }],
    );
    // The validator re-parses the document and checks the books: scope
    // self-times sum to wall-clock, every edge's parent and child exist,
    // and incoming-edge time sums to each scope's total.
    let summaries = validate_hostprof(&doc).expect("document must validate");
    assert_eq!(summaries.len(), 1);
    assert_eq!(summaries[0].name, "amo_barrier");
    assert_eq!(summaries[0].phase, "cold");
    assert!(summaries[0].wall_ns > 0);

    // The human-facing table covers the hot path.
    let table = report.self_time_table();
    assert!(table.contains("dispatch:"), "table lists dispatch scopes");
}

#[test]
fn unprofiled_run_carries_no_report() {
    let r = run_barrier_obs(
        bench(16),
        ObsSpec {
            trace_cap: 0,
            sample_interval: 0,
            hostprof: false,
        },
    );
    assert!(r.obs.hostprof.is_none());
}
