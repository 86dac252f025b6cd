//! Interval time-series sampling of machine occupancy, with a JSON
//! export and an ASCII timeline renderer.
//!
//! The simulator samples at fixed cycle intervals (the machine checks the
//! boundary once per dispatched event, so a quiet stretch of simulated
//! time produces one catch-up tick when the next event fires — intervals
//! with no activity simply have no tick, which is itself a signal).

use amo_types::{Cycle, JsonWriter};

/// Occupancy snapshot of one node at one tick.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeSample {
    /// Requests queued at the directory (all blocks).
    pub dir_queue: u32,
    /// Operations queued at the AMU (excluding the one in flight).
    pub amu_queue: u32,
    /// Cycles until the node's network-interface egress port is free.
    pub egress_backlog: u32,
    /// Cycles until the node's ingress port is free.
    pub ingress_backlog: u32,
    /// Outstanding processor cache misses across the node's CPUs.
    pub outstanding_misses: u32,
}

/// One sampling instant.
#[derive(Clone, Debug)]
pub struct Tick {
    /// Cycle the sample was taken at (an interval boundary).
    pub when: Cycle,
    /// Events pending in the machine's future-event list.
    pub events_queued: u64,
    /// Per-node occupancy, indexed by node id.
    pub per_node: Vec<NodeSample>,
}

/// A full run's samples.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    /// Sampling interval in cycles.
    pub interval: Cycle,
    /// Number of nodes each tick covers.
    pub nodes: usize,
    /// Samples in time order.
    pub ticks: Vec<Tick>,
}

/// Which [`NodeSample`] field to render or extract.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// Directory queue depth.
    DirQueue,
    /// AMU queue depth.
    AmuQueue,
    /// Egress link backlog (cycles).
    Egress,
    /// Ingress link backlog (cycles).
    Ingress,
    /// Outstanding cache misses.
    Misses,
}

impl Metric {
    /// Label used in headers and JSON keys.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Metric::DirQueue => "dir_queue",
            Metric::AmuQueue => "amu_queue",
            Metric::Egress => "egress_backlog",
            Metric::Ingress => "ingress_backlog",
            Metric::Misses => "outstanding_misses",
        }
    }

    /// Extract this metric from a sample.
    pub(crate) fn of(self, s: &NodeSample) -> u32 {
        match self {
            Metric::DirQueue => s.dir_queue,
            Metric::AmuQueue => s.amu_queue,
            Metric::Egress => s.egress_backlog,
            Metric::Ingress => s.ingress_backlog,
            Metric::Misses => s.outstanding_misses,
        }
    }
}

impl TimeSeries {
    /// Empty series for `nodes` nodes sampled every `interval` cycles.
    pub fn new(interval: Cycle, nodes: usize) -> Self {
        TimeSeries {
            interval,
            nodes,
            ticks: Vec::new(),
        }
    }

    /// Append one tick (must be later than the previous one).
    pub fn push(&mut self, tick: Tick) {
        debug_assert!(self.ticks.last().is_none_or(|last| last.when < tick.when));
        debug_assert_eq!(tick.per_node.len(), self.nodes);
        self.ticks.push(tick);
    }

    /// Peak value of a metric across all ticks and nodes.
    pub(crate) fn peak(&self, metric: Metric) -> u32 {
        self.ticks
            .iter()
            .flat_map(|t| t.per_node.iter().map(|s| metric.of(s)))
            .max()
            .unwrap_or(0)
    }

    /// Emit as a JSON object into an open writer.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.kv_u64("interval", self.interval);
        w.kv_u64("nodes", self.nodes as u64);
        w.key("ticks");
        w.begin_arr();
        for t in &self.ticks {
            w.begin_obj();
            w.kv_u64("when", t.when);
            w.kv_u64("events_queued", t.events_queued);
            w.key("per_node");
            w.begin_arr();
            for s in &t.per_node {
                w.begin_obj();
                w.kv_u64("dir_queue", s.dir_queue as u64);
                w.kv_u64("amu_queue", s.amu_queue as u64);
                w.kv_u64("egress_backlog", s.egress_backlog as u64);
                w.kv_u64("ingress_backlog", s.ingress_backlog as u64);
                w.kv_u64("outstanding_misses", s.outstanding_misses as u64);
                w.end_obj();
            }
            w.end_arr();
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    }

    /// Render one metric as an ASCII timeline: one row per node, one
    /// column per time slice (ticks are averaged down to at most `width`
    /// columns), glyphs scaled to the metric's peak.
    pub fn render_ascii(&self, metric: Metric, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let peak = self.peak(metric);
        let span = self.ticks.last().map(|t| t.when).unwrap_or(0);
        let _ = writeln!(
            out,
            "{} over {} cycles ({} ticks every {} cycles), peak {}",
            metric.label(),
            span,
            self.ticks.len(),
            self.interval,
            peak
        );
        if self.ticks.is_empty() || peak == 0 {
            out.push_str("(no activity recorded)\n");
            return out;
        }
        const GLYPHS: &[u8] = b" .:-=+*#%@";
        let width = width.max(1).min(self.ticks.len());
        for node in 0..self.nodes {
            let _ = write!(out, "node{node:<3} |");
            for col in 0..width {
                // Average the ticks that fall into this column.
                let lo = col * self.ticks.len() / width;
                let hi = ((col + 1) * self.ticks.len() / width).max(lo + 1);
                let sum: u64 = self.ticks[lo..hi]
                    .iter()
                    .map(|t| metric.of(&t.per_node[node]) as u64)
                    .sum();
                let avg = sum / (hi - lo) as u64;
                let g = if avg == 0 {
                    0
                } else {
                    // Nonzero always renders visibly.
                    (avg * (GLYPHS.len() as u64 - 1)).div_ceil(peak as u64) as usize
                };
                out.push(GLYPHS[g.min(GLYPHS.len() - 1)] as char);
            }
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_types::Json;

    fn series() -> TimeSeries {
        let mut ts = TimeSeries::new(100, 2);
        for i in 0..10u64 {
            ts.push(Tick {
                when: (i + 1) * 100,
                events_queued: i,
                per_node: vec![
                    NodeSample {
                        dir_queue: i as u32,
                        ..Default::default()
                    },
                    NodeSample {
                        dir_queue: 0,
                        amu_queue: 3,
                        ..Default::default()
                    },
                ],
            });
        }
        ts
    }

    #[test]
    fn json_parses_and_has_ticks() {
        let ts = series();
        let mut w = JsonWriter::new();
        ts.write_json(&mut w);
        let v = Json::parse(&w.finish()).unwrap();
        assert_eq!(v.get("interval").unwrap().as_u64(), Some(100));
        let ticks = v.get("ticks").unwrap().as_arr().unwrap();
        assert_eq!(ticks.len(), 10);
        assert_eq!(
            ticks[9].get("per_node").unwrap().as_arr().unwrap()[0]
                .get("dir_queue")
                .unwrap()
                .as_u64(),
            Some(9)
        );
    }

    #[test]
    fn ascii_timeline_shows_load_where_it_is() {
        let ts = series();
        let art = ts.render_ascii(Metric::DirQueue, 10);
        let lines: Vec<&str> = art.lines().collect();
        assert!(lines[0].contains("peak 9"));
        // Node 0 ramps up: last column darker than first.
        let row0 = lines[1];
        assert!(row0.starts_with("node0"));
        // Node 1 has zero dir_queue everywhere: all blank.
        let row1 = lines[2];
        assert!(row1.contains("|          |"), "{art}");
        let zero_glyphs = row1.matches(' ').count();
        assert!(zero_glyphs >= 10);
    }

    #[test]
    fn peak_selects_metric() {
        let ts = series();
        assert_eq!(ts.peak(Metric::DirQueue), 9);
        assert_eq!(ts.peak(Metric::AmuQueue), 3);
        assert_eq!(ts.peak(Metric::Egress), 0);
    }
}
