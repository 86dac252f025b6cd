//! Critical-path extraction and sync-tax attribution.
//!
//! Builds the causal DAG of a drained [`TraceBuf`] — trace events are
//! linked by the `flow` ids the simulator stamps on every request's
//! life — and walks backwards from each synchronization episode's end
//! to its start, attributing every cycle of the episode to exactly one
//! [`Stage`]. The walk is exact by construction: at every step it
//! splits the remaining interval at a junction point, so the per-stage
//! sums reconstruct the end-to-end episode latency cycle for cycle
//! (the *conservation invariant*, pinned by tests and re-checked at
//! report time).

use crate::tracer::{TraceBuf, TraceEvent, TraceKind};
use amo_types::{Cycle, FxHashMap, JsonWriter, MsgClass};
use std::fmt;

/// Where a cycle on the critical path was spent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// NoC serialization + hop pipeline at zero load.
    NocSer,
    /// NoC queueing above zero load (egress/ingress contention).
    NocContend,
    /// Link-level CRC replay cycles charged to a send on the path.
    FaultReplay,
    /// Node-local bus hops between a processor and its hub.
    Bus,
    /// Waiting for the directory service pipeline (occupancy backlog).
    DirQueue,
    /// Directory service: occupancy, memory access, protocol completion
    /// (interventions, invalidation acks) until the reply leaves.
    DirService,
    /// Waiting in the AMU dispatch queue before execution starts.
    AmuQueue,
    /// AMU function-unit execution.
    AmuExec,
    /// Processor spinning / waiting for a delivery that belongs to
    /// another flow (lock held elsewhere, barrier peers not yet done).
    CpuSpin,
    /// Processor backoff between a NACK/reply delivery and the resend.
    CpuBackoff,
    /// Processor-local compute (cache hits, kernel bookkeeping).
    CpuLocal,
    /// Unattributable remainder (walk cap, missing context).
    Other,
}

/// Number of [`Stage`] variants.
pub const STAGES: usize = 12;

/// All stages in discriminant order.
pub const ALL_STAGES: [Stage; STAGES] = [
    Stage::NocSer,
    Stage::NocContend,
    Stage::FaultReplay,
    Stage::Bus,
    Stage::DirQueue,
    Stage::DirService,
    Stage::AmuQueue,
    Stage::AmuExec,
    Stage::CpuSpin,
    Stage::CpuBackoff,
    Stage::CpuLocal,
    Stage::Other,
];

impl Stage {
    /// Dense index for attribution arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label used in reports and grepped by CI.
    pub fn label(self) -> &'static str {
        match self {
            Stage::NocSer => "noc_ser",
            Stage::NocContend => "noc_contend",
            Stage::FaultReplay => "fault_replay",
            Stage::Bus => "bus",
            Stage::DirQueue => "dir_queue",
            Stage::DirService => "dir_service",
            Stage::AmuQueue => "amu_queue",
            Stage::AmuExec => "amu_exec",
            Stage::CpuSpin => "cpu_spin",
            Stage::CpuBackoff => "cpu_backoff",
            Stage::CpuLocal => "cpu_local",
            Stage::Other => "other",
        }
    }
}

/// Which mark scheme the trace's episodes use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Barrier episodes: enter mark `2e`, exit mark `2e+1` (e ≥ 1).
    /// One episode per `e`, ending at the *last* exit mark.
    Barrier,
    /// Lock episodes: acquire mark `2r` (r ≥ 1). One "handoff" episode
    /// between consecutive acquires, machine-wide.
    Lock,
}

impl Workload {
    /// Stable label used in reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Workload::Barrier => "barrier",
            Workload::Lock => "lock",
        }
    }
}

/// Why a critical path could not be extracted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CritPathError {
    /// The ring tracer overwrote events: the causal DAG has holes, so
    /// any attribution would silently lie. Re-run with a larger
    /// `trace_cap`.
    IncompleteDag {
        /// Events the ring dropped.
        dropped: u64,
    },
    /// No episode boundaries (Mark events) found in the trace.
    NoEpisodes,
}

impl fmt::Display for CritPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CritPathError::IncompleteDag { dropped } => write!(
                f,
                "incomplete causal DAG: the ring tracer dropped {dropped} events; \
                 re-run with a larger trace capacity"
            ),
            CritPathError::NoEpisodes => {
                write!(f, "no episode marks in trace (nothing to attribute)")
            }
        }
    }
}

impl std::error::Error for CritPathError {}

/// One episode's critical path: end-to-end latency split by stage.
#[derive(Clone, Debug)]
pub struct EpisodePath {
    /// Human-readable episode label (`barrier_ep3`, `handoff7`).
    pub label: String,
    /// Episode start cycle.
    pub start: Cycle,
    /// Episode end cycle.
    pub end: Cycle,
    /// `end - start`; equals the sum of `stages` exactly.
    pub total: Cycle,
    /// Cycles attributed to each stage, indexed by [`Stage::index`].
    pub stages: [u64; STAGES],
    /// Walk steps taken (diagnostics).
    pub steps: usize,
}

impl EpisodePath {
    /// True iff the stage sums reconstruct the episode latency exactly.
    pub fn conserved(&self) -> bool {
        self.stages.iter().sum::<u64>() == self.total
    }
}

/// Aggregated critical-path attribution for one traced run.
#[derive(Clone, Debug)]
pub struct CritPathReport {
    /// Mark scheme the episodes were extracted under.
    pub workload: Workload,
    /// Trace events analyzed.
    pub events: usize,
    /// Per-episode critical paths, in episode order.
    pub episodes: Vec<EpisodePath>,
    /// Stage totals across all episodes, indexed by [`Stage::index`].
    pub totals: [u64; STAGES],
    /// Sum of episode latencies.
    pub total_cycles: u64,
}

impl CritPathReport {
    /// True iff every episode's stage sums equal its latency.
    pub fn conserved(&self) -> bool {
        self.episodes.iter().all(|e| e.conserved())
            && self.totals.iter().sum::<u64>() == self.total_cycles
    }

    /// Render the report as `amo-critpath-v1` JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.kv_str("schema", "amo-critpath-v1");
        w.kv_str("workload", self.workload.label());
        w.kv_u64("events", self.events as u64);
        w.kv_u64("dropped", 0);
        w.kv_u64("episodes_n", self.episodes.len() as u64);
        w.kv_u64("total_cycles", self.total_cycles);
        w.kv_str(
            "conservation",
            if self.conserved() {
                "exact"
            } else {
                "violated"
            },
        );
        w.key("totals");
        w.begin_obj();
        for s in ALL_STAGES {
            w.kv_u64(s.label(), self.totals[s.index()]);
        }
        w.end_obj();
        w.key("episodes");
        w.begin_arr();
        for ep in &self.episodes {
            w.begin_obj();
            w.kv_str("label", &ep.label);
            w.kv_u64("start", ep.start);
            w.kv_u64("end", ep.end);
            w.kv_u64("total", ep.total);
            w.kv_u64("steps", ep.steps as u64);
            w.key("stages");
            w.begin_obj();
            for s in ALL_STAGES {
                if ep.stages[s.index()] > 0 {
                    w.kv_u64(s.label(), ep.stages[s.index()]);
                }
            }
            w.end_obj();
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }

    /// Render a human-readable attribution table.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# critical-path attribution ({} episodes, {} workload)",
            self.episodes.len(),
            self.workload.label()
        );
        let _ = writeln!(
            out,
            "# conservation: {} (stage sums == end-to-end latency)",
            if self.conserved() {
                "exact"
            } else {
                "VIOLATED"
            }
        );
        let _ = writeln!(out, "{:<14} {:>14} {:>8}", "stage", "cycles", "share");
        let total = self.total_cycles.max(1);
        for s in ALL_STAGES {
            let c = self.totals[s.index()];
            if c == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<14} {:>14} {:>7.2}%",
                s.label(),
                c,
                c as f64 * 100.0 / total as f64
            );
        }
        let _ = writeln!(
            out,
            "{:<14} {:>14} {:>7.2}%",
            "total", self.total_cycles, 100.0
        );
        for ep in &self.episodes {
            let mut top: Vec<(Stage, u64)> = ALL_STAGES
                .iter()
                .map(|&s| (s, ep.stages[s.index()]))
                .filter(|&(_, c)| c > 0)
                .collect();
            top.sort_by_key(|&(_, cycles)| std::cmp::Reverse(cycles));
            let tops: Vec<String> = top
                .iter()
                .take(3)
                .map(|(s, c)| format!("{}={}", s.label(), c))
                .collect();
            let _ = writeln!(
                out,
                "  {} [{}..{}] {} cycles: {}",
                ep.label,
                ep.start,
                ep.end,
                ep.total,
                tops.join(" ")
            );
        }
        out
    }
}

const NO_PROC: u16 = TraceEvent::NO_PROC;

fn end_of(e: &TraceEvent) -> Cycle {
    e.when + e.dur
}

/// Indexes over one trace, built once per [`analyze`] call.
struct Dag<'a> {
    ev: &'a [TraceEvent],
    /// Events of each flow, in recording order.
    per_flow: FxHashMap<u64, Vec<usize>>,
    /// Per-processor events (delivery, completion, injection, marks),
    /// sorted by (end, seq).
    per_proc: FxHashMap<u16, Vec<usize>>,
    /// MsgRecv per node, sorted by (when, seq).
    recv_by_node: FxHashMap<u16, Vec<usize>>,
    /// WordUpdate MsgSend per destination node (the event's `a` arg),
    /// sorted by (end, seq).
    wu_send_by_dst: FxHashMap<u16, Vec<usize>>,
    /// Link-replay cycles charged at (node, send-start).
    link_retry: FxHashMap<(u16, Cycle), u64>,
    /// flow → parent flow, from any event that carried the link.
    flow_parent: FxHashMap<u64, u64>,
}

impl<'a> Dag<'a> {
    fn build(ev: &'a [TraceEvent]) -> Self {
        let mut dag = Dag {
            ev,
            per_flow: FxHashMap::default(),
            per_proc: FxHashMap::default(),
            recv_by_node: FxHashMap::default(),
            wu_send_by_dst: FxHashMap::default(),
            link_retry: FxHashMap::default(),
            flow_parent: FxHashMap::default(),
        };
        let wu = MsgClass::WordUpdate.index() as u8;
        for (i, e) in ev.iter().enumerate() {
            if e.flow != 0 {
                dag.per_flow.entry(e.flow).or_default().push(i);
                if e.parent != 0 {
                    dag.flow_parent.insert(e.flow, e.parent);
                }
            }
            match e.kind {
                TraceKind::ProcRecv
                | TraceKind::OpComplete
                | TraceKind::MsgSend
                | TraceKind::Mark
                | TraceKind::KernelDone
                    if e.proc != NO_PROC =>
                {
                    dag.per_proc.entry(e.proc).or_default().push(i);
                }
                _ => {}
            }
            match e.kind {
                TraceKind::MsgRecv => dag.recv_by_node.entry(e.node).or_default().push(i),
                TraceKind::MsgSend if e.class == wu => {
                    dag.wu_send_by_dst.entry(e.a as u16).or_default().push(i)
                }
                TraceKind::LinkRetry => {
                    *dag.link_retry.entry((e.node, e.when)).or_insert(0) += e.b;
                }
                _ => {}
            }
        }
        for v in dag.per_proc.values_mut() {
            v.sort_by_key(|&i| (end_of(&ev[i]), i));
        }
        for v in dag.recv_by_node.values_mut() {
            v.sort_by_key(|&i| (ev[i].when, i));
        }
        for v in dag.wu_send_by_dst.values_mut() {
            v.sort_by_key(|&i| (end_of(&ev[i]), i));
        }
        dag
    }

    /// Latest event in `list` (sorted by end) with `end <= t`, passing
    /// `keep`, excluding already-visited events (a backward walk
    /// consumes each event at most once — ties at the same cycle would
    /// otherwise cycle forever).
    fn latest_by_end(
        &self,
        list: Option<&Vec<usize>>,
        t: Cycle,
        visited: &[bool],
        keep: impl Fn(&TraceEvent) -> bool,
    ) -> Option<usize> {
        let list = list?;
        // Partition point: first index with end > t.
        let hi = list.partition_point(|&i| end_of(&self.ev[i]) <= t);
        list[..hi]
            .iter()
            .rev()
            .find(|&&i| !visited[i] && keep(&self.ev[i]))
            .copied()
    }

    /// Max-end unvisited event of `flow` with `end <= t` and a kind in
    /// `kinds`. Flow lists are small (one request's life).
    fn flow_pred(
        &self,
        flow: u64,
        t: Cycle,
        visited: &[bool],
        kinds: &[TraceKind],
    ) -> Option<usize> {
        let list = self.per_flow.get(&flow)?;
        list.iter()
            .copied()
            .filter(|&i| {
                !visited[i] && kinds.contains(&self.ev[i].kind) && end_of(&self.ev[i]) <= t
            })
            .max_by_key(|&i| (end_of(&self.ev[i]), i))
    }

    /// Does `flow` causally belong to op root `root` (same flow, or
    /// linked to it via a parent edge)?
    fn belongs_to(&self, flow: u64, root: u64) -> bool {
        flow == root || self.flow_parent.get(&flow) == Some(&root)
    }
}

/// Walk one episode backwards from its end Mark, attributing every
/// cycle of `[start, end]` to a stage. Exact by construction.
fn walk(dag: &Dag<'_>, end_idx: usize, ep_start: Cycle, stages: &mut [u64; STAGES]) -> usize {
    let ev = dag.ev;
    let mut cur = end_idx;
    let mut cursor = end_of(&ev[end_idx]);
    let mut steps = 0usize;
    let cap = 4 * ev.len() + 64;
    let mut visited = vec![false; ev.len()];
    let add = |stages: &mut [u64; STAGES], s: Stage, lo: Cycle, hi: Cycle| {
        if hi > lo {
            stages[s.index()] += hi - lo;
        }
    };
    while cursor > ep_start {
        steps += 1;
        if steps > cap {
            // Backstop: dump the unexplained remainder.
            add(stages, Stage::Other, ep_start, cursor);
            break;
        }
        visited[cur] = true;
        let e = &ev[cur];
        let span_lo = e.when.max(ep_start);

        // 1. The event's own span, clipped to [span_lo, cursor].
        match e.kind {
            TraceKind::MsgSend => {
                let t = cursor.saturating_sub(span_lo);
                let replay = dag
                    .link_retry
                    .get(&(e.node, e.when))
                    .copied()
                    .unwrap_or(0)
                    .min(t);
                let ser = e.b.min(t - replay);
                add(stages, Stage::FaultReplay, 0, replay);
                add(stages, Stage::NocSer, 0, ser);
                add(stages, Stage::NocContend, 0, t - replay - ser);
                cursor = span_lo;
            }
            TraceKind::DirService => {
                add(stages, Stage::DirService, span_lo, cursor);
                cursor = span_lo;
            }
            TraceKind::AmuOp => {
                add(stages, Stage::AmuExec, span_lo, cursor);
                cursor = span_lo;
            }
            TraceKind::OpComplete => {
                // Find the delivery that satisfied the op: the latest
                // ProcRecv on this processor inside the op's span.
                let delivery =
                    dag.latest_by_end(dag.per_proc.get(&e.proc), cursor, &visited, |p| {
                        p.kind == TraceKind::ProcRecv && p.when >= e.when
                    });
                match delivery {
                    Some(d) => {
                        let del = &ev[d];
                        // Tail after the delivery: spin if the delivery
                        // belongs to a foreign flow (we were waiting on
                        // someone else), local completion otherwise.
                        let tail =
                            if del.flow != 0 && e.flow != 0 && !dag.belongs_to(del.flow, e.flow) {
                                Stage::CpuSpin
                            } else {
                                Stage::CpuLocal
                            };
                        let j = del.when.max(ep_start);
                        add(stages, tail, j, cursor);
                        cursor = j;
                        cur = d;
                        continue; // the delivery IS the predecessor
                    }
                    None => {
                        // The op never left the core (or its messages
                        // predate the window): all local.
                        add(stages, Stage::CpuLocal, span_lo, cursor);
                        cursor = span_lo;
                    }
                }
            }
            // Instants (ProcRecv, MsgRecv, Mark, KernelDone, AmuNack…):
            // zero-width, nothing to attribute for the event itself.
            _ => {
                cursor = cursor.min(e.when).max(ep_start);
            }
        }
        if cursor <= ep_start {
            break;
        }
        let j = cursor;

        // 2. Find the predecessor and attribute the gap.
        let (pred, gap) = predecessor(dag, cur, j, &visited);
        let Some(p) = pred else {
            let fallback = if e.proc != NO_PROC {
                Stage::CpuLocal
            } else {
                Stage::Other
            };
            add(stages, fallback, ep_start, cursor);
            break;
        };
        let pe = end_of(&ev[p]).min(cursor).max(ep_start);
        add(stages, gap, pe, cursor);
        cursor = pe;
        cur = p;
    }
    steps
}

/// Predecessor of `cur` at junction time `j`, plus the stage the gap
/// between them belongs to. `visited` excludes events the walk already
/// consumed.
fn predecessor(dag: &Dag<'_>, cur: usize, j: Cycle, visited: &[bool]) -> (Option<usize>, Stage) {
    let ev = dag.ev;
    let e = &ev[cur];
    match e.kind {
        TraceKind::ProcRecv => {
            if e.flow != 0 {
                if let Some(p) = dag.flow_pred(e.flow, j, visited, &[TraceKind::MsgSend]) {
                    return (Some(p), Stage::Bus);
                }
            }
            // Flow-less word updates: join on the fanout send targeting
            // this node.
            if e.class == MsgClass::WordUpdate.index() as u8 {
                if let Some(p) =
                    dag.latest_by_end(dag.wu_send_by_dst.get(&e.node), j, visited, |_| true)
                {
                    return (Some(p), Stage::Bus);
                }
            }
            (
                dag.latest_by_end(dag.per_proc.get(&e.proc), j, visited, |_| true),
                Stage::CpuLocal,
            )
        }
        TraceKind::MsgRecv => {
            if e.flow != 0 {
                if let Some(p) = dag.flow_pred(e.flow, j, visited, &[TraceKind::MsgSend]) {
                    return (Some(p), Stage::Bus);
                }
            }
            (
                dag.latest_by_end(dag.wu_send_by_dst.get(&e.node), j, visited, |_| true),
                Stage::Bus,
            )
        }
        TraceKind::DirService => {
            if e.flow != 0 {
                if let Some(p) = dag.flow_pred(e.flow, j, visited, &[TraceKind::MsgRecv]) {
                    return (Some(p), Stage::DirQueue);
                }
            }
            (
                dag.latest_by_end(dag.recv_by_node.get(&e.node), j, visited, |p| {
                    p.class == e.class
                }),
                Stage::DirQueue,
            )
        }
        TraceKind::AmuOp => (
            dag.flow_pred(e.flow, j, visited, &[TraceKind::MsgRecv]),
            Stage::AmuQueue,
        ),
        TraceKind::MsgSend => {
            if e.proc != NO_PROC {
                // Processor-originated injection: what was the core
                // doing just before? A delivery of the same flow means
                // a NACK/retry backoff; anything else is local compute.
                let p = dag.latest_by_end(dag.per_proc.get(&e.proc), j, visited, |_| true);
                let gap = match p {
                    Some(i)
                        if e.flow != 0
                            && ev[i].flow == e.flow
                            && matches!(ev[i].kind, TraceKind::ProcRecv | TraceKind::MsgSend) =>
                    {
                        Stage::CpuBackoff
                    }
                    _ => Stage::CpuLocal,
                };
                return (p, gap);
            }
            // Hub-originated (reply, fanout): the service that produced
            // it. Directory replies can trail the service span by the
            // full memory/protocol latency — that time IS directory
            // service.
            if e.flow != 0 {
                if let Some(p) = dag.flow_pred(
                    e.flow,
                    j,
                    visited,
                    &[TraceKind::AmuOp, TraceKind::DirService],
                ) {
                    let gap = if ev[p].kind == TraceKind::DirService {
                        Stage::DirService
                    } else {
                        Stage::Other
                    };
                    return (Some(p), gap);
                }
                if let Some(p) = dag.flow_pred(e.flow, j, visited, &[TraceKind::MsgRecv]) {
                    return (Some(p), Stage::AmuQueue);
                }
            }
            (None, Stage::Other)
        }
        // Mark / KernelDone / OpComplete-fallback / anything on a core:
        // the previous thing the core did.
        _ if e.proc != NO_PROC => (
            dag.latest_by_end(dag.per_proc.get(&e.proc), j, visited, |_| true),
            Stage::CpuLocal,
        ),
        _ => (None, Stage::Other),
    }
}

/// Episode boundaries extracted from Mark events.
struct Episode {
    label: String,
    start: Cycle,
    end_idx: usize,
}

fn extract_episodes(ev: &[TraceEvent], workload: Workload) -> Vec<Episode> {
    let marks: Vec<usize> = (0..ev.len())
        .filter(|&i| ev[i].kind == TraceKind::Mark)
        .collect();
    match workload {
        Workload::Barrier => {
            // exit mark 2e+1 closes episode e; the slowest (last) exit
            // defines the release.
            let mut last_exit: FxHashMap<u64, usize> = FxHashMap::default();
            let mut first_enter: FxHashMap<u64, Cycle> = FxHashMap::default();
            for &i in &marks {
                let a = ev[i].a;
                if a >= 3 && a % 2 == 1 {
                    let e = (a - 1) / 2;
                    let cur = last_exit.entry(e).or_insert(i);
                    if (ev[i].when, i) > (ev[*cur].when, *cur) {
                        *cur = i;
                    }
                } else if a >= 2 && a.is_multiple_of(2) {
                    let e = a / 2;
                    let w = first_enter.entry(e).or_insert(ev[i].when);
                    *w = (*w).min(ev[i].when);
                }
            }
            let mut eps: Vec<u64> = last_exit.keys().copied().collect();
            eps.sort_unstable();
            let mut out = Vec::new();
            for &e in &eps {
                let end_idx = last_exit[&e];
                let start = last_exit
                    .get(&(e - 1))
                    .map(|&i| ev[i].when)
                    .or_else(|| first_enter.get(&e).copied());
                let Some(start) = start else { continue };
                if ev[end_idx].when <= start {
                    continue;
                }
                out.push(Episode {
                    label: format!("barrier_ep{e}"),
                    start,
                    end_idx,
                });
            }
            out
        }
        Workload::Lock => {
            // Acquire marks (even ids ≥ 2) across all processors, in
            // time order; each consecutive pair is one handoff.
            let mut acq: Vec<usize> = marks
                .iter()
                .copied()
                .filter(|&i| ev[i].a >= 2 && ev[i].a.is_multiple_of(2))
                .collect();
            acq.sort_by_key(|&i| (ev[i].when, i));
            acq.windows(2)
                .enumerate()
                .filter(|(_, w)| ev[w[1]].when > ev[w[0]].when)
                .map(|(n, w)| Episode {
                    label: format!("handoff{}", n + 1),
                    start: ev[w[0]].when,
                    end_idx: w[1],
                })
                .collect()
        }
    }
}

/// Extract per-episode critical paths and stage attribution from a
/// drained trace.
///
/// Fails with [`CritPathError::IncompleteDag`] if the ring dropped
/// events (the DAG has holes — any attribution would be silently
/// wrong) and [`CritPathError::NoEpisodes`] if the trace carries no
/// usable Mark events.
pub fn analyze(buf: &TraceBuf, workload: Workload) -> Result<CritPathReport, CritPathError> {
    if buf.dropped > 0 {
        return Err(CritPathError::IncompleteDag {
            dropped: buf.dropped,
        });
    }
    let episodes = extract_episodes(&buf.events, workload);
    if episodes.is_empty() {
        return Err(CritPathError::NoEpisodes);
    }
    let dag = Dag::build(&buf.events);
    let mut out = Vec::with_capacity(episodes.len());
    let mut totals = [0u64; STAGES];
    let mut total_cycles = 0u64;
    for ep in episodes {
        let end = end_of(&buf.events[ep.end_idx]);
        let mut stages = [0u64; STAGES];
        let steps = walk(&dag, ep.end_idx, ep.start, &mut stages);
        let total = end - ep.start;
        debug_assert_eq!(
            stages.iter().sum::<u64>(),
            total,
            "conservation violated for {}",
            ep.label
        );
        for (t, s) in totals.iter_mut().zip(stages.iter()) {
            *t += s;
        }
        total_cycles += total;
        out.push(EpisodePath {
            label: ep.label,
            start: ep.start,
            end,
            total,
            stages,
            steps,
        });
    }
    Ok(CritPathReport {
        workload,
        events: buf.events.len(),
        episodes: out,
        totals,
        total_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(proc: u16, node: u16, a: u64, when: Cycle) -> TraceEvent {
        TraceEvent::instant(TraceKind::Mark, node, when)
            .on_proc(proc)
            .args(a, 0)
    }

    /// A hand-built trace of one barrier episode on one node:
    ///   enter(2)@100 → send req [100,140] (zero-load 30) →
    ///   recv@140 → dir [150,170] → reply send [170,190] (zero-load 20)
    ///   → deliver@195 → op [95,200] → exit(3)@200
    fn tiny_barrier_trace() -> TraceBuf {
        let f = 42u64;
        let events = vec![
            mark(0, 0, 2, 100),
            TraceEvent::span(TraceKind::OpComplete, 0, 95, 200)
                .on_proc(0)
                .flow(f),
            TraceEvent::span(TraceKind::MsgSend, 0, 100, 140)
                .on_proc(0)
                .args(1, 30)
                .flow(f),
            TraceEvent::instant(TraceKind::MsgRecv, 1, 140).flow(f),
            TraceEvent::span(TraceKind::DirService, 1, 150, 170).flow(f),
            TraceEvent::span(TraceKind::MsgSend, 1, 170, 190)
                .args(0, 20)
                .flow(f),
            TraceEvent::instant(TraceKind::ProcRecv, 0, 195)
                .on_proc(0)
                .flow(f),
            mark(0, 0, 3, 200),
        ];
        TraceBuf { events, dropped: 0 }
    }

    #[test]
    fn conservation_is_exact_on_a_hand_built_episode() {
        let buf = tiny_barrier_trace();
        let rep = analyze(&buf, Workload::Barrier).unwrap();
        assert_eq!(rep.episodes.len(), 1);
        let ep = &rep.episodes[0];
        assert_eq!(ep.label, "barrier_ep1");
        assert_eq!((ep.start, ep.end), (100, 200));
        assert_eq!(ep.total, 100);
        assert!(
            ep.conserved(),
            "stages {:?} != total {}",
            ep.stages,
            ep.total
        );
        assert!(rep.conserved());
        // The directory span is on the path.
        assert!(ep.stages[Stage::DirService.index()] >= 20);
        // Zero-load serialization of both sends.
        assert!(ep.stages[Stage::NocSer.index()] >= 50);
        // Queue wait before the directory (140→150).
        assert!(ep.stages[Stage::DirQueue.index()] >= 10);
    }

    #[test]
    fn dropped_events_refuse_analysis_with_typed_error() {
        let mut buf = tiny_barrier_trace();
        buf.dropped = 7;
        assert_eq!(
            analyze(&buf, Workload::Barrier).unwrap_err(),
            CritPathError::IncompleteDag { dropped: 7 }
        );
    }

    #[test]
    fn no_marks_is_a_typed_error() {
        let buf = TraceBuf {
            events: vec![TraceEvent::instant(TraceKind::MsgRecv, 0, 5)],
            dropped: 0,
        };
        assert_eq!(
            analyze(&buf, Workload::Barrier).unwrap_err(),
            CritPathError::NoEpisodes
        );
    }

    #[test]
    fn lock_handoffs_pair_consecutive_acquires() {
        let events = vec![
            mark(0, 0, 2, 100), // acquire round 1
            mark(1, 0, 4, 400), // acquire round 2
            mark(0, 0, 6, 900), // acquire round 3
        ];
        let buf = TraceBuf { events, dropped: 0 };
        let rep = analyze(&buf, Workload::Lock).unwrap();
        assert_eq!(rep.episodes.len(), 2);
        assert_eq!(rep.episodes[0].total, 300);
        assert_eq!(rep.episodes[1].total, 500);
        assert!(rep.conserved());
    }

    #[test]
    fn report_json_carries_schema_and_conservation() {
        let rep = analyze(&tiny_barrier_trace(), Workload::Barrier).unwrap();
        let json = rep.to_json();
        assert!(json.contains("\"schema\":\"amo-critpath-v1\""));
        assert!(json.contains("\"conservation\":\"exact\""));
        assert!(json.contains("\"dropped\":0"));
        assert!(json.contains("\"dir_service\":"));
        let text = rep.render_text();
        assert!(text.contains("conservation: exact"));
        assert!(text.contains("barrier_ep1"));
    }
}
