//! End-to-end checks of the tracing & metrics subsystem: a traced
//! 64-processor barrier must export viewer-valid Perfetto JSON, and the
//! metrics report must carry per-node counters, latency quantiles, and
//! a non-empty occupancy time series.

use amo::obs::{metrics_json, perfetto_json, text_dump, validate_perfetto, Json, TraceEvent};
use amo::prelude::*;
use amo::types::SystemConfig;

fn traced_barrier(procs: u16) -> (BarrierResult, SystemConfig) {
    let r = run_scenario(
        &BarrierBench {
            episodes: 6,
            warmup: 1,
            ..BarrierBench::paper(Mechanism::Amo, procs)
        },
        ObsSpec {
            trace_cap: 1 << 20,
            sample_interval: 500,
            hostprof: false,
        },
    )
    .unwrap();
    (r, SystemConfig::with_procs(procs))
}

#[test]
fn traced_64_proc_barrier_exports_valid_perfetto() {
    let (r, cfg) = traced_barrier(64);
    let buf = r.obs.trace.as_ref().expect("trace requested");
    assert!(!buf.events.is_empty());
    assert_eq!(buf.dropped, 0, "1M-event ring must hold this run");

    let json = perfetto_json(buf, cfg.num_nodes(), cfg.procs_per_node);
    // validate_perfetto re-parses the document and checks that every
    // track's timestamps are monotone and every node contributed.
    let summary =
        validate_perfetto(&json, Some(cfg.num_nodes())).expect("export must be viewer-valid");
    assert_eq!(summary.nodes_with_events, cfg.num_nodes() as usize);
    assert!(summary.tracks > cfg.num_nodes() as usize);
    assert_eq!(summary.events as usize, buf.events.len());
    // Causal flows: every request that touched more than one component
    // draws an arrow, and the validator proved each `"f"` terminator had
    // a matching earlier `"s"` start. A 64-CPU barrier has hundreds.
    assert!(
        summary.flow_links > 100,
        "expected many flow arrows, got {}",
        summary.flow_links
    );

    // Spot-check the trace-event envelope shape directly too.
    let doc = Json::parse(&json).unwrap();
    assert_eq!(
        doc.get("displayTimeUnit").unwrap().as_str(),
        Some("ns"),
        "1 cycle renders as 1ns"
    );
    assert_eq!(doc.get("droppedEvents").unwrap().as_u64(), Some(0));

    // The text dump covers the same events, one line each (plus nothing
    // else, since nothing was dropped).
    let dump = text_dump(buf);
    assert_eq!(dump.lines().count(), buf.events.len());
}

#[test]
fn trace_spans_are_internally_consistent() {
    let (r, cfg) = traced_barrier(16);
    let buf = r.obs.trace.expect("trace requested");
    for ev in &buf.events {
        assert!((ev.node as u32) < cfg.num_nodes() as u32, "node in range");
        if ev.proc != TraceEvent::NO_PROC {
            assert!((ev.proc as u32) < cfg.num_procs as u32, "proc in range");
        }
    }
    // Recording order is dispatch order, not time order (spans are
    // stamped with their start, which can precede or follow the cycle
    // they were recorded at) — `perfetto_json` sorts. But every span
    // must have a sane extent, and the run must contain real spans.
    assert!(buf.events.iter().any(|e| e.dur > 0), "spans were recorded");
    let last = buf.events.iter().map(|e| e.when + e.dur).max().unwrap();
    assert!(last < 40_000_000_000, "events lie within the run's horizon");
}

#[test]
fn metrics_report_has_per_node_counts_quantiles_and_series() {
    let (r, cfg) = traced_barrier(64);
    let doc = metrics_json(
        &r.stats,
        r.obs.timeseries.as_ref(),
        r.obs.trace.as_ref(),
        &[("workload", "barrier".into())],
    );
    let v = Json::parse(&doc).expect("metrics JSON parses");
    assert_eq!(v.get("schema").unwrap().as_str(), Some("amo-metrics-v1"));

    // The trace section accounts for the ring: a complete capture with
    // zero drops.
    let tr = v.get("trace").unwrap();
    assert!(tr.get("events").unwrap().as_u64().unwrap() > 0);
    assert_eq!(tr.get("dropped").unwrap().as_u64(), Some(0));
    assert_eq!(tr.get("complete").unwrap().as_u64(), Some(1));

    // Per-node message counts: one row per node, and the AMO barrier's
    // home node (0) receives requests from everyone.
    let per_node = v
        .get("stats")
        .unwrap()
        .get("derived")
        .unwrap()
        .get("per_node")
        .unwrap()
        .as_arr()
        .unwrap();
    assert_eq!(per_node.len(), cfg.num_nodes() as usize);
    let home_recv = per_node[0].get("recv_total").unwrap().as_u64().unwrap();
    assert!(home_recv > 0, "home node receives traffic");
    let sent_sum: u64 = per_node
        .iter()
        .map(|n| n.get("sent_total").unwrap().as_u64().unwrap())
        .sum();
    assert_eq!(sent_sum, r.stats.total_msgs(), "per-node rows sum to total");

    // Latency quantiles for the AMO op class, ordered.
    let amo = v
        .get("stats")
        .unwrap()
        .get("derived")
        .unwrap()
        .get("op_latency")
        .unwrap()
        .get("amo")
        .unwrap();
    let (p50, p95, p99) = (
        amo.get("p50").unwrap().as_u64().unwrap(),
        amo.get("p95").unwrap().as_u64().unwrap(),
        amo.get("p99").unwrap().as_u64().unwrap(),
    );
    let max = amo.get("max").unwrap().as_u64().unwrap();
    assert!(p50 <= p95 && p95 <= p99 && p99 <= max);
    assert!(p50 > 0, "an AMO round-trip takes time");

    // The occupancy time series is present and covers every node.
    let ts = v.get("timeseries").unwrap();
    let ticks = ts.get("ticks").unwrap().as_arr().unwrap();
    assert!(!ticks.is_empty(), "sampling produced ticks");
    for t in ticks {
        assert_eq!(
            t.get("per_node").unwrap().as_arr().unwrap().len(),
            cfg.num_nodes() as usize
        );
    }
    // Somewhere, some node had a non-empty directory queue or AMU queue
    // (64 processors hammering one barrier variable guarantees queueing).
    let busy = ticks.iter().any(|t| {
        t.get("per_node")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .any(|n| {
                n.get("dir_queue").unwrap().as_u64().unwrap() > 0
                    || n.get("amu_queue").unwrap().as_u64().unwrap() > 0
            })
    });
    assert!(busy, "a contended barrier must show queueing somewhere");
}

#[test]
fn perfetto_export_stays_valid_under_ring_truncation() {
    // A ring far smaller than the run: the tracer keeps only the newest
    // window and counts every overwrite.
    let cap = 1 << 10;
    let bench = BarrierBench {
        episodes: 4,
        warmup: 1,
        ..BarrierBench::paper(Mechanism::Amo, 64)
    };
    let spec = |trace_cap| ObsSpec {
        trace_cap,
        sample_interval: 0,
        hostprof: false,
    };
    let r = run_scenario(&bench, spec(cap)).unwrap();
    let buf = r.obs.trace.as_ref().expect("trace requested");
    assert_eq!(buf.events.len(), cap, "ring keeps exactly its capacity");
    assert!(buf.dropped > 0, "this run must overflow the ring");

    // The drop count is exactly the events lost, pinned against an
    // identical run whose ring holds everything.
    let full = run_scenario(&bench, spec(1 << 20)).unwrap();
    let full_buf = full.obs.trace.as_ref().unwrap();
    assert_eq!(full_buf.dropped, 0, "1M-event ring holds the full run");
    assert_eq!(
        buf.events.len() as u64 + buf.dropped,
        full_buf.events.len() as u64,
        "kept + dropped == total recorded"
    );

    // The truncated window still exports viewer-valid JSON: tracks stay
    // monotone and every flow arrow in the window is well-formed (flow
    // endpoints are recomputed over the kept events, so a flow whose
    // start was overwritten simply starts at its first kept event).
    let cfg = SystemConfig::with_procs(64);
    let json = perfetto_json(buf, cfg.num_nodes(), cfg.procs_per_node);
    let summary = validate_perfetto(&json, None).expect("truncated export must stay viewer-valid");
    assert_eq!(summary.events as usize, buf.events.len());
    let doc = Json::parse(&json).unwrap();
    assert_eq!(
        doc.get("droppedEvents").unwrap().as_u64(),
        Some(buf.dropped),
        "the export advertises its truncation"
    );

    // And the metrics report accounts for the same loss.
    let metrics = metrics_json(&r.stats, None, r.obs.trace.as_ref(), &[]);
    let m = Json::parse(&metrics).unwrap();
    let tr = m.get("trace").unwrap();
    assert_eq!(tr.get("dropped").unwrap().as_u64(), Some(buf.dropped));
    assert_eq!(tr.get("complete").unwrap().as_u64(), Some(0));
}

#[test]
fn observation_does_not_change_simulated_time() {
    let bench = BarrierBench {
        episodes: 5,
        warmup: 1,
        ..BarrierBench::paper(Mechanism::LlSc, 32)
    };
    let plain = run_barrier(bench);
    let observed = run_scenario(
        &bench,
        ObsSpec {
            trace_cap: 1 << 18,
            sample_interval: 1_000,
            hostprof: false,
        },
    )
    .unwrap();
    assert_eq!(plain.timing.per_episode, observed.timing.per_episode);
    assert_eq!(plain.stats.total_msgs(), observed.stats.total_msgs());
    assert_eq!(plain.stats.total_bytes(), observed.stats.total_bytes());
}
