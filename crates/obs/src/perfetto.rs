//! Chrome/Perfetto trace-event export, a compact text dump, and a
//! validator used by tests and CI.
//!
//! The emitted document is the legacy "JSON trace event" format that
//! <https://ui.perfetto.dev> (and `chrome://tracing`) opens directly:
//! `{"displayTimeUnit": "ns", "traceEvents": [...]}`. Mapping:
//!
//! * **process (`pid`)** = NUMA node;
//! * **thread (`tid`)** = component track within the node: 1 =
//!   directory, 2 = AMU, 3 = NoC/network interface, `10 + i` = the
//!   node's `i`-th local processor;
//! * **`ts`/`dur`** = CPU cycles (the simulator's native unit; Perfetto
//!   displays them as "ns", so 1 ns on screen = 1 cycle);
//! * spans use `ph: "X"` (complete events), instants `ph: "i"` with
//!   thread scope, and `ph: "M"` metadata names every track;
//! * causal flows (one id per request, from [`TraceEvent::flow`]) are
//!   drawn as flow arrows: `ph: "s"` at the flow's first event,
//!   `ph: "t"` steps at intermediate events, `ph: "f"` (binding point
//!   `"e"`) at the last — the viewer threads an arrow across nodes and
//!   tracks for each request's life.

use crate::tracer::{TraceBuf, TraceEvent, TraceKind};
use amo_types::stats::{ALL_MSG_CLASSES, ALL_OP_CLASSES, MSG_CLASSES, OP_CLASSES};
use amo_types::JsonWriter;
use std::fmt::Write as _;

/// Track ids within a node process.
const TID_DIR: u64 = 1;
const TID_AMU: u64 = 2;
const TID_NOC: u64 = 3;
const TID_PROC_BASE: u64 = 10;

fn msg_label(class: u8) -> &'static str {
    let i = class as usize;
    if i < MSG_CLASSES {
        ALL_MSG_CLASSES[i].label()
    } else {
        "?"
    }
}

fn op_label(class: u8) -> &'static str {
    let i = class as usize;
    if i < OP_CLASSES {
        ALL_OP_CLASSES[i].label()
    } else {
        "?"
    }
}

/// The track an event renders on and its display name.
fn track_and_name(ev: &TraceEvent, procs_per_node: u16) -> (u64, String) {
    let tid = if ev.proc != TraceEvent::NO_PROC {
        TID_PROC_BASE + (ev.proc % procs_per_node.max(1)) as u64
    } else {
        match ev.kind {
            TraceKind::DirService | TraceKind::DirTxnEnd | TraceKind::DirReclaim => TID_DIR,
            TraceKind::AmuOp | TraceKind::AmuNack | TraceKind::AmuApply => TID_AMU,
            _ => TID_NOC,
        }
    };
    let name = match ev.kind {
        TraceKind::MsgSend
        | TraceKind::MsgRecv
        | TraceKind::ProcRecv
        | TraceKind::MsgDrop
        | TraceKind::MsgDup => {
            format!("{}:{}", ev.kind.label(), msg_label(ev.class))
        }
        TraceKind::DirService => format!("dir:{}", msg_label(ev.class)),
        TraceKind::OpComplete => format!("op:{}", op_label(ev.class)),
        TraceKind::DirTxnEnd
        | TraceKind::AmuOp
        | TraceKind::Mark
        | TraceKind::KernelDone
        | TraceKind::LinkRetry
        | TraceKind::AmuNack
        | TraceKind::Fault
        | TraceKind::E2eTimeout
        | TraceKind::AmuApply
        | TraceKind::DirReclaim => ev.kind.label().to_string(),
    };
    (tid, name)
}

/// Render a drained trace as Perfetto JSON. `nodes` and `procs_per_node`
/// size the metadata (track names) so even quiet components get labeled
/// tracks.
pub fn perfetto_json(buf: &TraceBuf, nodes: u16, procs_per_node: u16) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.kv_str("displayTimeUnit", "ns");
    w.kv_u64("droppedEvents", buf.dropped);
    if buf.dropped > 0 {
        w.kv_str(
            "warning",
            &format!(
                "ring tracer dropped {} older events; the trace window is \
                 incomplete and flows may be truncated",
                buf.dropped
            ),
        );
    }
    w.key("traceEvents");
    w.begin_arr();

    // Metadata: name every process and track.
    for node in 0..nodes {
        meta(
            &mut w,
            node as u64,
            0,
            "process_name",
            &format!("node{node}"),
        );
        meta(&mut w, node as u64, TID_DIR, "thread_name", "directory");
        meta(&mut w, node as u64, TID_AMU, "thread_name", "amu");
        meta(&mut w, node as u64, TID_NOC, "thread_name", "noc");
        for p in 0..procs_per_node {
            let global = node * procs_per_node + p;
            meta(
                &mut w,
                node as u64,
                TID_PROC_BASE + p as u64,
                "thread_name",
                &format!("cpu{global}"),
            );
        }
    }

    // Events, time-sorted (stable: equal timestamps keep recording
    // order, which is causal order within the simulator).
    let mut order: Vec<usize> = (0..buf.events.len()).collect();
    order.sort_by_key(|&i| buf.events[i].when);

    // Flow endpoints in the sorted sequence: flow id → (first, last)
    // position. Flows touching a single event draw no arrow.
    let mut flow_span: std::collections::BTreeMap<u64, (usize, usize)> = Default::default();
    for (pos, &i) in order.iter().enumerate() {
        let f = buf.events[i].flow;
        if f == 0 {
            continue;
        }
        flow_span
            .entry(f)
            .and_modify(|s| s.1 = pos)
            .or_insert((pos, pos));
    }

    for (pos, &i) in order.iter().enumerate() {
        let ev = &buf.events[i];
        let (tid, name) = track_and_name(ev, procs_per_node);
        w.begin_obj();
        w.kv_str("name", &name);
        w.kv_str("ph", if ev.dur > 0 { "X" } else { "i" });
        w.kv_u64("ts", ev.when);
        if ev.dur > 0 {
            w.kv_u64("dur", ev.dur);
        } else {
            w.kv_str("s", "t");
        }
        w.kv_u64("pid", ev.node as u64);
        w.kv_u64("tid", tid);
        w.key("args");
        w.begin_obj();
        w.kv_u64("a", ev.a);
        w.kv_u64("b", ev.b);
        if ev.flow != 0 {
            w.kv_u64("flow", ev.flow);
        }
        if ev.parent != 0 {
            w.kv_u64("parent_flow", ev.parent);
        }
        w.end_obj();
        w.end_obj();
        // Flow arrow anchored to this event (same ts/pid/tid keeps every
        // track time-monotone).
        if ev.flow != 0 {
            let (first, last) = flow_span[&ev.flow];
            if first != last {
                let ph = if pos == first {
                    "s"
                } else if pos == last {
                    "f"
                } else {
                    "t"
                };
                w.begin_obj();
                w.kv_str("name", "flow");
                w.kv_str("cat", "flow");
                w.kv_str("ph", ph);
                if ph == "f" {
                    w.kv_str("bp", "e");
                }
                w.kv_u64("id", ev.flow);
                w.kv_u64("ts", ev.when);
                w.kv_u64("pid", ev.node as u64);
                w.kv_u64("tid", tid);
                w.end_obj();
            }
        }
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

fn meta(w: &mut JsonWriter, pid: u64, tid: u64, what: &str, name: &str) {
    w.begin_obj();
    w.kv_str("ph", "M");
    w.kv_str("name", what);
    w.kv_u64("pid", pid);
    if tid != 0 {
        w.kv_u64("tid", tid);
    }
    w.key("args");
    w.begin_obj();
    w.kv_str("name", name);
    w.end_obj();
    w.end_obj();
}

/// Compact text dump: one event per line, grep-able, recording order.
pub fn text_dump(buf: &TraceBuf) -> String {
    let mut out = String::new();
    if buf.dropped > 0 {
        let _ = writeln!(
            out,
            "# WARNING: {} older events dropped by the ring tracer — this \
             trace window is INCOMPLETE and causal flows may be truncated",
            buf.dropped
        );
    }
    for ev in &buf.events {
        let _ = write!(out, "{:>12} ", ev.when);
        if ev.dur > 0 {
            let _ = write!(out, "+{:<8} ", ev.dur);
        } else {
            let _ = write!(out, "{:<9} ", ".");
        }
        let _ = write!(out, "n{:<3} ", ev.node);
        if ev.proc != TraceEvent::NO_PROC {
            let _ = write!(out, "p{:<4} ", ev.proc);
        } else {
            let _ = write!(out, "{:<6} ", "-");
        }
        let (_, name) = track_and_name(ev, u16::MAX);
        let _ = write!(out, "{:<18} a={} b={}", name, ev.a, ev.b);
        if ev.flow != 0 {
            let _ = write!(out, " flow={:#x}", ev.flow);
        }
        if ev.parent != 0 {
            let _ = write!(out, " parent={:#x}", ev.parent);
        }
        let _ = writeln!(out);
    }
    out
}

/// What [`validate_perfetto`] learned about a trace.
#[derive(Debug)]
pub struct PerfettoSummary {
    /// Non-metadata, non-flow events in the document.
    pub events: usize,
    /// Distinct `(pid, tid)` tracks carrying events.
    pub tracks: usize,
    /// Distinct `pid`s (nodes) carrying at least one event.
    pub nodes_with_events: usize,
    /// Completed flow arrows: `"f"` terminators, each with a matching
    /// earlier `"s"` start of the same id.
    pub flow_links: usize,
}

/// Validate an emitted Perfetto document: it parses, every non-metadata
/// event carries the required fields, events are time-ordered within
/// each `(pid, tid)` track, flow events are well-formed (every `"t"`
/// step and `"f"` finish has a matching *earlier* `"s"` start with the
/// same id, and every started flow finishes), and — when
/// `expected_nodes` is given — every node contributes at least one
/// event.
pub fn validate_perfetto(
    json: &str,
    expected_nodes: Option<u16>,
) -> Result<PerfettoSummary, String> {
    let doc = amo_types::Json::parse(json)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("missing traceEvents array")?;
    let mut last_ts: std::collections::BTreeMap<(u64, u64), u64> = Default::default();
    let mut nodes: std::collections::BTreeSet<u64> = Default::default();
    let mut open_flows: std::collections::BTreeSet<u64> = Default::default();
    let mut count = 0usize;
    let mut flow_links = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or(format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        if ph == "s" || ph == "t" || ph == "f" {
            let id = ev
                .get("id")
                .and_then(|v| v.as_u64())
                .ok_or(format!("event {i}: flow event missing id"))?;
            match ph {
                "s" => {
                    if !open_flows.insert(id) {
                        return Err(format!("event {i}: flow {id} started twice"));
                    }
                }
                "t" => {
                    if !open_flows.contains(&id) {
                        return Err(format!(
                            "event {i}: flow step for {id} without an earlier start"
                        ));
                    }
                }
                _ => {
                    if !open_flows.remove(&id) {
                        return Err(format!(
                            "event {i}: flow finish for {id} without an earlier start"
                        ));
                    }
                    flow_links += 1;
                }
            }
            continue;
        }
        let pid = ev
            .get("pid")
            .and_then(|v| v.as_u64())
            .ok_or(format!("event {i}: missing pid"))?;
        let tid = ev
            .get("tid")
            .and_then(|v| v.as_u64())
            .ok_or(format!("event {i}: missing tid"))?;
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_u64())
            .ok_or(format!("event {i}: missing ts"))?;
        ev.get("name")
            .and_then(|v| v.as_str())
            .ok_or(format!("event {i}: missing name"))?;
        if let Some(&prev) = last_ts.get(&(pid, tid)) {
            if ts < prev {
                return Err(format!(
                    "event {i}: track ({pid},{tid}) goes backwards: {prev} -> {ts}"
                ));
            }
        }
        last_ts.insert((pid, tid), ts);
        nodes.insert(pid);
        count += 1;
    }
    if let Some(first) = open_flows.iter().next() {
        return Err(format!(
            "{} flow(s) started but never finished (e.g. id {first})",
            open_flows.len()
        ));
    }
    if let Some(n) = expected_nodes {
        for node in 0..n as u64 {
            if !nodes.contains(&node) {
                return Err(format!("node {node} contributed no events"));
            }
        }
    }
    Ok(PerfettoSummary {
        events: count,
        tracks: last_ts.len(),
        nodes_with_events: nodes.len(),
        flow_links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{RingTracer, Tracer};
    use amo_types::stats::{MsgClass, OpClass};

    fn sample_buf() -> TraceBuf {
        let mut t = RingTracer::new(64);
        t.record(
            TraceEvent::span(TraceKind::MsgSend, 0, 10, 130)
                .class(MsgClass::Amo.index())
                .args(1, 32)
                .flow(7),
        );
        t.record(
            TraceEvent::span(TraceKind::DirService, 1, 130, 134)
                .class(MsgClass::Amo.index())
                .flow(7),
        );
        t.record(
            TraceEvent::span(TraceKind::AmuOp, 1, 134, 140)
                .args(0, 0)
                .flow(7),
        );
        t.record(
            TraceEvent::span(TraceKind::OpComplete, 0, 10, 260)
                .on_proc(0)
                .class(OpClass::Amo.index())
                .flow(7),
        );
        t.record(
            TraceEvent::instant(TraceKind::Mark, 0, 261)
                .on_proc(1)
                .args(7, 0),
        );
        t.take_buf().unwrap()
    }

    #[test]
    fn exported_json_validates() {
        let buf = sample_buf();
        let json = perfetto_json(&buf, 2, 2);
        let sum = validate_perfetto(&json, Some(2)).unwrap();
        assert_eq!(sum.events, 5);
        assert_eq!(sum.nodes_with_events, 2);
        assert!(sum.tracks >= 4);
        assert_eq!(sum.flow_links, 1);
        assert!(json.contains(r#""name":"send:amo""#));
        assert!(json.contains(r#""name":"op:amo""#));
        assert!(json.contains(r#""thread_name""#));
        assert!(json.contains(r#""ph":"s""#));
        assert!(json.contains(r#""ph":"f""#));
        assert!(!json.contains(r#""warning""#));
    }

    #[test]
    fn validator_rejects_flow_finish_without_start() {
        let bad = r#"{"traceEvents":[
            {"name":"flow","cat":"flow","ph":"f","bp":"e","id":9,"ts":1,"pid":0,"tid":1}
        ]}"#;
        let err = validate_perfetto(bad, None).unwrap_err();
        assert!(err.contains("without an earlier start"), "{err}");
    }

    #[test]
    fn validator_rejects_unfinished_flow() {
        let bad = r#"{"traceEvents":[
            {"name":"flow","cat":"flow","ph":"s","id":9,"ts":1,"pid":0,"tid":1}
        ]}"#;
        let err = validate_perfetto(bad, None).unwrap_err();
        assert!(err.contains("never finished"), "{err}");
    }

    #[test]
    fn dropped_events_surface_a_warning() {
        let mut t = RingTracer::new(2);
        for i in 0..5u64 {
            t.record(TraceEvent::instant(TraceKind::Mark, 0, i).args(i, 0));
        }
        let buf = t.take_buf().unwrap();
        assert_eq!(buf.dropped, 3);
        let json = perfetto_json(&buf, 1, 1);
        assert!(json.contains(r#""droppedEvents":3"#));
        assert!(json.contains(r#""warning""#));
        assert!(text_dump(&buf).contains("WARNING: 3"));
    }

    #[test]
    fn validator_rejects_out_of_order_tracks() {
        let bad = r#"{"traceEvents":[
            {"name":"x","ph":"i","s":"t","ts":10,"pid":0,"tid":1},
            {"name":"y","ph":"i","s":"t","ts":5,"pid":0,"tid":1}
        ]}"#;
        let err = validate_perfetto(bad, None).unwrap_err();
        assert!(err.contains("goes backwards"), "{err}");
    }

    #[test]
    fn validator_requires_all_nodes() {
        let one = r#"{"traceEvents":[
            {"name":"x","ph":"i","s":"t","ts":1,"pid":0,"tid":1}
        ]}"#;
        assert!(validate_perfetto(one, Some(1)).is_ok());
        let err = validate_perfetto(one, Some(2)).unwrap_err();
        assert!(err.contains("node 1"), "{err}");
    }

    #[test]
    fn text_dump_mentions_every_event() {
        let buf = sample_buf();
        let dump = text_dump(&buf);
        assert_eq!(dump.lines().count(), 5);
        assert!(dump.contains("send:amo"));
        assert!(dump.contains("mark"));
    }
}
