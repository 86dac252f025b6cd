//! The combined metrics report emitted by `--metrics-json`.

use crate::timeseries::TimeSeries;
use crate::tracer::TraceBuf;
use amo_types::{JsonWriter, Stats};

/// Render one run's metrics as a single JSON document:
/// `{"schema": "amo-metrics-v1", "meta": {...}, "stats": <Stats JSON>,
/// "timeseries": {...} | null, "trace": {...} | null}`.
///
/// `meta` carries free-form run identification (workload, sizes, seeds)
/// as string pairs. When the run was traced, pass the [`TraceBuf`] so
/// the bundle records how many events were captured and — critically —
/// how many the ring **dropped**: a nonzero `dropped` means every
/// trace-derived artifact (Perfetto export, critical-path report) saw
/// only a suffix window of the run.
pub fn metrics_json(
    stats: &Stats,
    series: Option<&TimeSeries>,
    trace: Option<&TraceBuf>,
    meta: &[(&str, String)],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.kv_str("schema", "amo-metrics-v1");
    w.key("meta");
    w.begin_obj();
    for (k, v) in meta {
        w.kv_str(k, v);
    }
    w.end_obj();
    w.key("stats");
    stats.write_json(&mut w);
    w.key("timeseries");
    match series {
        Some(ts) => ts.write_json(&mut w),
        None => w.raw_val("null"),
    }
    w.key("trace");
    match trace {
        Some(buf) => {
            w.begin_obj();
            w.kv_u64("events", buf.events.len() as u64);
            w.kv_u64("dropped", buf.dropped);
            w.kv_u64("complete", u64::from(buf.dropped == 0));
            w.end_obj();
        }
        None => w.raw_val("null"),
    }
    w.end_obj();
    w.finish()
}

/// Scheduling totals of one experiment campaign, for the aggregate
/// report.
#[derive(Clone, Copy, Debug, Default)]
pub struct CampaignSummary {
    /// Runs requested (before content-key dedup).
    pub runs: u64,
    /// Distinct runs after dedup.
    pub unique: u64,
    /// Distinct runs served from the result cache.
    pub cache_hits: u64,
    /// Distinct runs that simulated.
    pub cache_misses: u64,
    /// Distinct runs that ended in an error.
    pub errors: u64,
}

/// Render a whole campaign's aggregate metrics as one `amo-metrics-v1`
/// document: the standard `meta`/`stats` sections (with `stats` the
/// merge of every run's statistics) plus a `campaign` section carrying
/// the scheduling totals.
pub fn campaign_metrics_json(
    summary: &CampaignSummary,
    stats: &Stats,
    meta: &[(&str, String)],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.kv_str("schema", "amo-metrics-v1");
    w.key("meta");
    w.begin_obj();
    for (k, v) in meta {
        w.kv_str(k, v);
    }
    w.end_obj();
    w.key("campaign");
    w.begin_obj();
    w.kv_u64("runs", summary.runs);
    w.kv_u64("unique", summary.unique);
    w.kv_u64("cache_hits", summary.cache_hits);
    w.kv_u64("cache_misses", summary.cache_misses);
    w.kv_u64("errors", summary.errors);
    w.end_obj();
    w.key("stats");
    stats.write_json(&mut w);
    w.key("timeseries");
    w.raw_val("null");
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::{NodeSample, Tick};
    use amo_types::stats::{MsgClass, MsgEndpoint, OpClass};
    use amo_types::Json;
    use amo_types::NodeId;

    #[test]
    fn report_combines_stats_and_series() {
        let mut stats = Stats::new();
        stats.record_msg(
            MsgClass::Amo,
            32,
            2,
            NodeId(0),
            NodeId(1),
            MsgEndpoint::Proc,
        );
        stats.record_op(OpClass::Amo, 420);
        let mut ts = TimeSeries::new(500, 1);
        ts.push(Tick {
            when: 500,
            events_queued: 4,
            per_node: vec![NodeSample {
                dir_queue: 2,
                ..Default::default()
            }],
        });
        let doc = metrics_json(&stats, Some(&ts), None, &[("workload", "unit-test".into())]);
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("amo-metrics-v1"));
        assert_eq!(
            v.get("meta").unwrap().get("workload").unwrap().as_str(),
            Some("unit-test")
        );
        let stats_v = v.get("stats").unwrap();
        assert_eq!(
            stats_v.get("schema").unwrap().as_str(),
            Some("amo-stats-v1")
        );
        assert_eq!(
            stats_v
                .get("derived")
                .unwrap()
                .get("op_latency")
                .unwrap()
                .get("amo")
                .unwrap()
                .get("p50")
                .unwrap()
                .as_u64(),
            Some(420)
        );
        let ticks = v
            .get("timeseries")
            .unwrap()
            .get("ticks")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(ticks.len(), 1);
    }

    #[test]
    fn campaign_report_carries_scheduling_totals() {
        let summary = CampaignSummary {
            runs: 10,
            unique: 8,
            cache_hits: 3,
            cache_misses: 5,
            errors: 1,
        };
        let doc = campaign_metrics_json(&summary, &Stats::new(), &[("campaign", "paper".into())]);
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("amo-metrics-v1"));
        let c = v.get("campaign").unwrap();
        assert_eq!(c.get("runs").unwrap().as_u64(), Some(10));
        assert_eq!(c.get("cache_hits").unwrap().as_u64(), Some(3));
        assert_eq!(c.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(
            v.get("stats").unwrap().get("schema").unwrap().as_str(),
            Some("amo-stats-v1")
        );
        assert_eq!(v.get("timeseries"), Some(&Json::Null));
    }

    #[test]
    fn report_without_series_is_null() {
        let doc = metrics_json(&Stats::new(), None, None, &[]);
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("timeseries"), Some(&Json::Null));
        assert_eq!(v.get("trace"), Some(&Json::Null));
    }

    #[test]
    fn report_surfaces_ring_drop_accounting() {
        use crate::tracer::{RingTracer, TraceEvent, TraceKind, Tracer};
        let mut t = RingTracer::new(2);
        for i in 0..5u64 {
            t.record(TraceEvent::instant(TraceKind::Mark, 0, i));
        }
        let buf = t.take_buf().unwrap();
        let doc = metrics_json(&Stats::new(), None, Some(&buf), &[]);
        let v = Json::parse(&doc).unwrap();
        let tr = v.get("trace").unwrap();
        assert_eq!(tr.get("events").unwrap().as_u64(), Some(2));
        assert_eq!(tr.get("dropped").unwrap().as_u64(), Some(3));
        assert_eq!(tr.get("complete").unwrap().as_u64(), Some(0));
    }
}
