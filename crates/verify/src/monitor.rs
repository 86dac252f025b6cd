//! Online protocol monitors over the trace/effect stream.
//!
//! A [`Monitor`] is a small state machine fed every [`TraceEvent`] the
//! simulator records. It never touches simulation state — monitors are
//! pure observers, so a monitored run is timing-identical to an
//! unmonitored one (the passivity guarantee CI checks). When an event
//! contradicts a protocol invariant the monitor returns a detail
//! string; the [`MonitorTracer`] wraps it into a
//! [`Violation`] that the machine converts into a typed
//! `SimErrorKind::MonitorViolation` abort with the full diagnostic
//! bundle (critical path included) attached.
//!
//! The catalog (see DESIGN.md §12 for the soundness boundary of each):
//!
//! * [`MutualExclusion`] — at most one lock holder at a time, releases
//!   only by the holder (lock kernels' acquire/release marks).
//! * [`TicketFifo`] — lock acquisition order equals ticket-grant order
//!   (AMU fetch-add applies on the sequencer; AMO/MAO mechanisms only).
//! * [`BarrierEpoch`] — no processor exits barrier episode `e` before
//!   every participant has entered it.
//! * [`AtMostOnce`] — every request tag is applied by the AMU at most
//!   once, no matter how often delivery faults retransmit it.
//! * [`DirSanity`] — the directory never reclaims a slab entry that
//!   still has an open transaction or queued work.

use amo_obs::{RingTracer, TraceBuf, TraceEvent, TraceKind, Tracer, Violation};
use amo_types::FxHashSet;

/// One online protocol checker. `observe` sees every recorded event in
/// dispatch order and returns `Some(detail)` on the first event that
/// violates the monitored invariant.
pub trait Monitor {
    /// Stable monitor name (`"mutual-exclusion"`, …) — becomes the
    /// `monitor` field of the typed error and the schedule document.
    fn name(&self) -> &'static str;
    /// Feed one event; `Some` reports a violation with its witnesses.
    fn observe(&mut self, ev: &TraceEvent) -> Option<String>;
}

/// A [`Tracer`] that runs a monitor stack over every recorded event and
/// keeps the events in a bounded ring for the diagnostic bundle. The
/// first violation is latched; the machine polls it via
/// [`Tracer::take_violation`] after every dispatch and aborts the run.
pub struct MonitorTracer {
    ring: RingTracer,
    monitors: Vec<Box<dyn Monitor>>,
    violation: Option<Violation>,
}

impl MonitorTracer {
    /// Monitor stack over a ring of `cap` retained events.
    pub(crate) fn new(cap: usize, monitors: Vec<Box<dyn Monitor>>) -> Self {
        MonitorTracer {
            ring: RingTracer::new(cap),
            monitors,
            violation: None,
        }
    }

    /// Add a monitor that could only be built once the workload was on
    /// the machine (it watches an address the installer chose). Checked
    /// after every monitor already on the stack.
    pub(crate) fn push(&mut self, monitor: Box<dyn Monitor>) {
        self.monitors.push(monitor);
    }
}

impl Tracer for MonitorTracer {
    const ENABLED: bool = true;

    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if self.violation.is_none() {
            for m in &mut self.monitors {
                if let Some(detail) = m.observe(&ev) {
                    self.violation = Some(Violation {
                        monitor: m.name(),
                        detail,
                        at: ev.when,
                    });
                    break;
                }
            }
        }
        self.ring.record(ev);
    }

    fn take_buf(&mut self) -> Option<TraceBuf> {
        self.ring.take_buf()
    }

    fn take_violation(&mut self) -> Option<Violation> {
        self.violation.take()
    }
}

/// Lock-kernel mark decoding: round `r` (1-based) acquires at mark `2r`
/// and releases at `2r + 1` (see `amo_sync::lock::acquire_mark`).
/// Barrier kernels use the same arithmetic for enter/exit, so mark
/// monitors are attached per workload, never both at once.
fn is_acquire_mark(id: u64) -> bool {
    id >= 2 && id.is_multiple_of(2)
}

fn is_release_mark(id: u64) -> bool {
    id >= 3 && id % 2 == 1
}

/// At most one processor holds the lock; only the holder releases it.
#[derive(Default)]
pub struct MutualExclusion {
    holder: Option<(u16, u64)>,
}

impl MutualExclusion {
    /// Fresh monitor (no holder).
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Monitor for MutualExclusion {
    fn name(&self) -> &'static str {
        "mutual-exclusion"
    }

    fn observe(&mut self, ev: &TraceEvent) -> Option<String> {
        if ev.kind != TraceKind::Mark {
            return None;
        }
        if is_acquire_mark(ev.a) {
            if let Some((holder, since)) = self.holder {
                return Some(format!(
                    "proc {} acquired the lock at cycle {} while proc {holder} \
                     has held it since cycle {since}",
                    ev.proc, ev.when
                ));
            }
            self.holder = Some((ev.proc, ev.when));
        } else if is_release_mark(ev.a) {
            match self.holder.take() {
                Some((holder, _)) if holder != ev.proc => {
                    return Some(format!(
                        "proc {} released the lock at cycle {} but proc {holder} \
                         holds it",
                        ev.proc, ev.when
                    ));
                }
                Some(_) => {}
                None => {
                    return Some(format!(
                        "proc {} released the lock at cycle {} but nobody holds it",
                        ev.proc, ev.when
                    ));
                }
            }
        }
        None
    }
}

/// Ticket locks grant in FIFO order: the `i`-th acquisition must come
/// from the processor whose fetch-add on the sequencer was applied
/// `i`-th. Watches `AmuApply` events on the sequencer address, so it is
/// only attached for mechanisms that route the fetch-add through the
/// AMU (AMO, MAO).
pub struct TicketFifo {
    ticket_addr: u64,
    grants: Vec<u16>,
    acquires: usize,
}

impl TicketFifo {
    /// Monitor FIFO order on the ticket sequencer at `ticket_addr`.
    pub(crate) fn new(ticket_addr: u64) -> Self {
        TicketFifo {
            ticket_addr,
            grants: Vec::new(),
            acquires: 0,
        }
    }
}

impl Monitor for TicketFifo {
    fn name(&self) -> &'static str {
        "ticket-fifo"
    }

    fn observe(&mut self, ev: &TraceEvent) -> Option<String> {
        match ev.kind {
            TraceKind::AmuApply if ev.a == self.ticket_addr => {
                self.grants.push(ev.proc);
                None
            }
            TraceKind::Mark if is_acquire_mark(ev.a) => {
                let Some(&expected) = self.grants.get(self.acquires) else {
                    return Some(format!(
                        "proc {} acquired the lock at cycle {} before any \
                         unclaimed ticket was granted (acquisition #{})",
                        ev.proc,
                        ev.when,
                        self.acquires + 1
                    ));
                };
                self.acquires += 1;
                if expected != ev.proc {
                    return Some(format!(
                        "acquisition #{} at cycle {} went to proc {} but \
                         ticket #{0} was granted to proc {expected}: the \
                         ticket lock is not FIFO",
                        self.acquires, ev.when, ev.proc
                    ));
                }
                None
            }
            _ => None,
        }
    }
}

/// No processor exits barrier episode `e` before all `procs`
/// participants have entered it.
pub struct BarrierEpoch {
    procs: u64,
    /// Enter count per episode, indexed by `e - 1`.
    entered: Vec<u64>,
}

impl BarrierEpoch {
    /// Monitor a barrier over `procs` participants.
    pub(crate) fn new(procs: u16) -> Self {
        BarrierEpoch {
            procs: procs as u64,
            entered: Vec::new(),
        }
    }
}

impl Monitor for BarrierEpoch {
    fn name(&self) -> &'static str {
        "barrier-epoch"
    }

    fn observe(&mut self, ev: &TraceEvent) -> Option<String> {
        if ev.kind != TraceKind::Mark {
            return None;
        }
        if is_acquire_mark(ev.a) {
            // Enter mark for episode `e = a / 2`.
            let e = (ev.a / 2) as usize;
            if self.entered.len() < e {
                self.entered.resize(e, 0);
            }
            self.entered[e - 1] += 1;
        } else if is_release_mark(ev.a) {
            // Exit mark for episode `e = (a - 1) / 2`.
            let e = ((ev.a - 1) / 2) as usize;
            let entered = self.entered.get(e - 1).copied().unwrap_or(0);
            if entered < self.procs {
                return Some(format!(
                    "proc {} exited barrier episode {e} at cycle {} with only \
                     {entered}/{} participants entered: episodes are not \
                     separated",
                    ev.proc, ev.when, self.procs
                ));
            }
        }
        None
    }
}

/// Every request tag is applied by an AMU at most once. The AMU logs an
/// `AmuApply` only for true applies — dedup-suppressed replays of an
/// already-served request do not count — so a duplicate flow here means
/// a retransmission slipped past the at-most-once machinery.
#[derive(Default)]
pub struct AtMostOnce {
    seen: FxHashSet<u64>,
}

impl AtMostOnce {
    /// Fresh monitor.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Monitor for AtMostOnce {
    fn name(&self) -> &'static str {
        "at-most-once"
    }

    fn observe(&mut self, ev: &TraceEvent) -> Option<String> {
        if ev.kind == TraceKind::AmuApply && !self.seen.insert(ev.flow) {
            return Some(format!(
                "request flow {:#x} from proc {} was applied twice at the AMU \
                 (second apply at cycle {} on address {:#x}): a retransmission \
                 escaped duplicate suppression",
                ev.flow, ev.proc, ev.when, ev.a
            ));
        }
        None
    }
}

/// The directory only returns *idle* entries to the slab arena: a
/// reclaim of an entry with an open transaction or queued work would
/// orphan that work when the slot is reused. `DirReclaim` events carry
/// the idle flag recomputed at the removal site (`b = 1` when idle).
#[derive(Default)]
pub struct DirSanity;

impl DirSanity {
    /// Fresh monitor.
    pub(crate) fn new() -> Self {
        Self
    }
}

impl Monitor for DirSanity {
    fn name(&self) -> &'static str {
        "dir-sanity"
    }

    fn observe(&mut self, ev: &TraceEvent) -> Option<String> {
        if ev.kind == TraceKind::DirReclaim && ev.b == 0 {
            return Some(format!(
                "directory entry for block {:#x} was reclaimed at cycle {} \
                 while still active (open transaction or queued requests)",
                ev.a, ev.when
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(proc: u16, id: u64, when: u64) -> TraceEvent {
        TraceEvent::instant(TraceKind::Mark, 0, when)
            .on_proc(proc)
            .args(id, 0)
    }

    fn apply(proc: u16, flow: u64, addr: u64, when: u64) -> TraceEvent {
        TraceEvent::instant(TraceKind::AmuApply, 0, when)
            .on_proc(proc)
            .args(addr, 0)
            .flow(flow)
    }

    #[test]
    fn mutual_exclusion_accepts_serial_handoff_and_flags_overlap() {
        let mut m = MutualExclusion::new();
        assert!(m.observe(&mark(0, 2, 10)).is_none(), "p0 acquires");
        assert!(m.observe(&mark(0, 3, 20)).is_none(), "p0 releases");
        assert!(m.observe(&mark(1, 2, 30)).is_none(), "p1 acquires");
        let v = m.observe(&mark(2, 2, 35)).expect("overlap detected");
        assert!(v.contains("proc 2") && v.contains("proc 1"), "{v}");
    }

    #[test]
    fn mutual_exclusion_flags_release_by_non_holder() {
        let mut m = MutualExclusion::new();
        assert!(m.observe(&mark(0, 2, 10)).is_none());
        let v = m.observe(&mark(1, 3, 15)).expect("wrong releaser");
        assert!(v.contains("proc 1") && v.contains("proc 0"), "{v}");
    }

    #[test]
    fn ticket_fifo_accepts_grant_order_and_flags_overtaking() {
        let mut m = TicketFifo::new(0x80);
        assert!(m.observe(&apply(0, 1, 0x80, 5)).is_none());
        assert!(m.observe(&apply(1, 2, 0x80, 6)).is_none());
        assert!(m.observe(&apply(2, 3, 0x90, 7)).is_none(), "other addr");
        assert!(m.observe(&mark(0, 2, 10)).is_none(), "ticket 0 → p0");
        let v = m.observe(&mark(2, 2, 12)).expect("p2 overtook p1");
        assert!(v.contains("proc 2") && v.contains("proc 1"), "{v}");
    }

    #[test]
    fn barrier_epoch_requires_all_entries_before_any_exit() {
        let mut m = BarrierEpoch::new(2);
        assert!(m.observe(&mark(0, 2, 10)).is_none(), "p0 enters e1");
        let v = m.observe(&mark(0, 3, 12)).expect("early exit");
        assert!(v.contains("1/2"), "{v}");
        let mut ok = BarrierEpoch::new(2);
        assert!(ok.observe(&mark(0, 2, 10)).is_none());
        assert!(ok.observe(&mark(1, 2, 11)).is_none());
        assert!(ok.observe(&mark(0, 3, 12)).is_none(), "all entered");
    }

    #[test]
    fn at_most_once_flags_duplicate_flow() {
        let mut m = AtMostOnce::new();
        assert!(m.observe(&apply(0, 7, 0x80, 5)).is_none());
        assert!(m.observe(&apply(0, 8, 0x80, 6)).is_none());
        let v = m.observe(&apply(0, 7, 0x80, 9)).expect("double apply");
        assert!(v.contains("0x7"), "{v}");
    }

    #[test]
    fn dir_sanity_trusts_idle_reclaims_only() {
        let mut m = DirSanity::new();
        let idle = TraceEvent::instant(TraceKind::DirReclaim, 0, 5).args(0x40, 1);
        assert!(m.observe(&idle).is_none());
        let bad = TraceEvent::instant(TraceKind::DirReclaim, 0, 9).args(0x40, 0);
        let v = m.observe(&bad).expect("active reclaim");
        assert!(v.contains("0x40"), "{v}");
    }

    #[test]
    fn monitor_tracer_latches_first_violation_and_keeps_tracing() {
        let mut t = MonitorTracer::new(8, vec![Box::new(MutualExclusion::new())]);
        t.record(mark(0, 2, 1));
        t.record(mark(1, 2, 2));
        t.record(mark(2, 2, 3));
        let v = t.take_violation().expect("violation latched");
        assert_eq!(v.monitor, "mutual-exclusion");
        assert_eq!(v.at, 2);
        assert!(t.take_violation().is_none(), "latched once");
        let buf = t.take_buf().expect("ring kept events");
        assert_eq!(buf.events.len(), 3);
    }
}
