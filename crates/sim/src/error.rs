//! Typed simulation errors and the diagnostic bundle attached to them.
//!
//! A [`crate::Machine`] never panics on a modelled fault (exhausted link
//! replay budget, starved retry loop, protocol violation, watchdog
//! trip): it stops the event loop and surfaces a [`SimError`] carrying
//! enough state — the stall report, per-node queue depths, the tail of
//! the ring trace — to diagnose the run post-mortem.

use amo_amu::AmuError;
use amo_obs::TraceBuf;
use amo_types::{Cycle, NodeId, ProcId};

/// Queue-depth snapshot of one node, taken at abort time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeDepths {
    /// Requests queued at the directory controller.
    pub dir_queue: u32,
    /// Operations queued at the AMU.
    pub amu_queue: u32,
    /// Outstanding cache misses across the node's processors.
    pub outstanding_misses: u32,
}

/// Diagnostics harvested when the machine aborts.
#[derive(Clone, Debug, Default)]
pub struct DiagBundle {
    /// [`crate::Machine::stall_report`] at the moment of the abort.
    pub stall_report: String,
    /// Per-node queue depths, indexed by node id.
    pub queue_depths: Vec<NodeDepths>,
    /// The last events recorded by the attached tracer (`None` with the
    /// default `NopTracer`).
    pub trace: Option<TraceBuf>,
    /// Events dispatched before the abort.
    pub events_processed: u64,
    /// Rendered critical-path stage breakdown of the failed run,
    /// attached by the runner when the trace ring is complete (no
    /// dropped events) and the DAG analyzable. `None` when untraced,
    /// when the ring wrapped, or when the analyzer's typed
    /// `IncompleteDag` refusal fired — a partial attribution would
    /// mis-blame stages.
    pub critpath: Option<String>,
    /// For `MonitorViolation` aborts: the monitor's full account of the
    /// violated invariant with the witnessing values.
    pub violation: Option<String>,
}

/// Why a run aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimErrorKind {
    /// A packet exhausted the link replay budget
    /// (`FaultConfig::max_link_retries`).
    LinkFailed {
        /// Sending node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Replay attempts consumed.
        attempts: u32,
    },
    /// An active message exhausted its retransmission budget.
    ActMsgStarved {
        /// The starved requester.
        proc: ProcId,
        /// Retries attempted.
        attempts: u32,
    },
    /// An AMO/MAO was NACKed by the home AMU past
    /// `AmuConfig::max_retries`.
    AmuStarved {
        /// The starved requester.
        proc: ProcId,
        /// Retries attempted.
        attempts: u32,
    },
    /// An AMU received a value it cannot correlate with a pending
    /// operation — a protocol bug, not a recoverable fault.
    AmuProtocol {
        /// The AMU's node.
        node: NodeId,
        /// The unit's own diagnosis.
        err: AmuError,
    },
    /// A hub or directory received a payload it has no handler for.
    UnexpectedPayload {
        /// Which dispatcher rejected it (`"hub"` or `"directory"`).
        at: &'static str,
        /// The receiving node.
        node: NodeId,
    },
    /// The watchdog saw events flowing but no kernel progress (no
    /// operation retired, no handler run) for a full window — livelock.
    NoProgress {
        /// The configured watchdog window, in cycles.
        window: Cycle,
        /// Cycle of the last observed progress.
        last_progress_at: Cycle,
    },
    /// The event queue drained with kernels unfinished while the
    /// watchdog was armed — deadlock (nothing left that could wake
    /// them).
    Deadlock {
        /// Kernels that never reached `Op::Done`.
        unfinished: u32,
    },
    /// An outstanding request exhausted its end-to-end retransmission
    /// budget (`FaultConfig::max_e2e_retries`) under delivery faults —
    /// every copy of the request or its reply kept vanishing.
    RequestTimedOut {
        /// The requester that gave up.
        proc: ProcId,
        /// End-to-end retransmissions attempted.
        attempts: u32,
    },
    /// An online protocol monitor (see `amo-verify`) observed a
    /// semantic-invariant violation in the trace stream. The full
    /// account lives in [`DiagBundle::violation`].
    MonitorViolation {
        /// Stable name of the monitor that fired.
        monitor: &'static str,
    },
}

impl std::fmt::Display for SimErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimErrorKind::LinkFailed { src, dst, attempts } => write!(
                f,
                "link {src}->{dst} failed after {attempts} replay attempts"
            ),
            SimErrorKind::ActMsgStarved { proc, attempts } => write!(
                f,
                "active message from {proc} starved after {attempts} retransmissions"
            ),
            SimErrorKind::AmuStarved { proc, attempts } => {
                write!(f, "AMU request from {proc} starved after {attempts} NACKs")
            }
            SimErrorKind::AmuProtocol { node, err } => {
                write!(f, "AMU protocol violation at {node}: {err}")
            }
            SimErrorKind::UnexpectedPayload { at, node } => {
                write!(f, "unexpected payload at {at} of {node}")
            }
            SimErrorKind::NoProgress {
                window,
                last_progress_at,
            } => write!(
                f,
                "no progress for {window} cycles (last progress at {last_progress_at}) — livelock"
            ),
            SimErrorKind::Deadlock { unfinished } => {
                write!(
                    f,
                    "event queue drained with {unfinished} kernels unfinished — deadlock"
                )
            }
            SimErrorKind::RequestTimedOut { proc, attempts } => write!(
                f,
                "request from {proc} timed out end-to-end after {attempts} retransmissions"
            ),
            SimErrorKind::MonitorViolation { monitor } => {
                write!(f, "protocol monitor '{monitor}' detected a violation")
            }
        }
    }
}

/// A typed, diagnosable abort of a [`crate::Machine`] run.
#[derive(Clone, Debug)]
pub struct SimError {
    /// What went wrong.
    pub kind: SimErrorKind,
    /// Cycle at which the fault was detected.
    pub at: Cycle,
    /// State harvested at the abort.
    pub bundle: DiagBundle,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cycle {}: {}", self.at, self.kind)
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_diagnosis() {
        let e = SimError {
            kind: SimErrorKind::LinkFailed {
                src: NodeId(1),
                dst: NodeId(3),
                attempts: 8,
            },
            at: 12_345,
            bundle: DiagBundle::default(),
        };
        let s = e.to_string();
        assert!(s.contains("cycle 12345"), "{s}");
        assert!(s.contains("8 replay attempts"), "{s}");
        let w = SimErrorKind::NoProgress {
            window: 1_000,
            last_progress_at: 42,
        }
        .to_string();
        assert!(w.contains("livelock"), "{w}");
        assert!(SimErrorKind::Deadlock { unfinished: 3 }
            .to_string()
            .contains("deadlock"));
    }
}
