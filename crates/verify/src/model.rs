//! The small models the schedule explorer enumerates.
//!
//! A [`VerifyModel`] describes one bounded verification workload: a
//! mechanism, a barrier or ticket-lock kernel at a small processor
//! count, and the choice structure the explorer may vary — per-proc
//! arrival skew, per-delivery reorder skew, optional duplication, and
//! retry jitter. [`VerifyModel::run_once`] executes the model under a
//! forced choice-tape prefix with the full monitor stack attached and
//! reduces the run to a deterministic [`Outcome`] whose fingerprint
//! the explorer dedups on.
//!
//! The model's canonical JSON document (and its 128-bit key) folds in
//! the complete machine configuration plus the campaign
//! [`CODE_FINGERPRINT`], so schedule documents minted under one
//! simulator refuse to replay under a drifted one.

use crate::monitor::{
    AtMostOnce, BarrierEpoch, DirSanity, Monitor, MonitorTracer, MutualExclusion, TicketFifo,
};
use amo_campaign::chaos::failure_kind;
use amo_campaign::run::CODE_FINGERPRINT;
use amo_obs::critpath::Workload;
use amo_obs::{HostProf, Tracer};
use amo_sim::{Machine, QueueKind, SimErrorKind};
use amo_sync::{BarrierAlgo, LockKind, Mechanism, ProcPlan};
use amo_types::jsonv::{narrow, Json};
use amo_types::seed::stable_hash128;
use amo_types::tape::{ChoiceKind, ChoiceRec, SharedTape, TapeConfig, TapeState};
use amo_types::{Addr, Cycle, JsonWriter, ProcId, SystemConfig};
use amo_workloads::runner::{run_on, Finished, RunFailure, Scenario};

/// Retained trace events per run (diagnostic bundles only; the
/// monitors themselves are streaming and unbounded-safe).
const TRACE_CAP: usize = 4096;

/// Which kernel a model runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VerifyWorkload {
    /// Centralized barrier, `episodes` episodes per participant.
    Barrier {
        /// Barrier episodes each participant executes.
        episodes: u32,
    },
    /// Ticket lock, `rounds` acquisitions per participant.
    TicketLock {
        /// Acquisitions each participant performs.
        rounds: u32,
    },
}

impl VerifyWorkload {
    /// Stable workload tag for documents and specs.
    pub fn tag(&self) -> &'static str {
        match self {
            VerifyWorkload::Barrier { .. } => "barrier",
            VerifyWorkload::TicketLock { .. } => "ticket-lock",
        }
    }
}

/// One bounded verification model: workload, mechanism, and the choice
/// structure the explorer enumerates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifyModel {
    /// Synchronization mechanism under test.
    pub mech: Mechanism,
    /// Kernel and its size.
    pub workload: VerifyWorkload,
    /// Participating processors (must be a multiple of the config's
    /// procs-per-node, i.e. even for the paper machine).
    pub procs: u16,
    /// Alternatives for each per-proc arrival-skew choice (1 = all
    /// kernels start at cycle 0).
    pub skew_choices: u16,
    /// Cycles per arrival-skew unit: proc `p` starts at
    /// `chosen * skew_step`.
    pub skew_step: Cycle,
    /// Link reorder window (cycles); each delivery gets a tape choice
    /// of `0..=window` extra skew. 0 disables reordering but the tape
    /// still drives the delivery layer.
    pub reorder_window: Cycle,
    /// Offer a duplicate/no-duplicate tape choice per delivery.
    pub explore_dups: bool,
    /// Alternatives for each retry-jitter choice (1 = no jitter picks).
    pub jitter_choices: u16,
    /// Choice-point horizon: beyond this many consumed choices the tape
    /// stops branching (the *bound* of the bounded explorer).
    pub max_choice_points: u32,
    /// No-progress watchdog window per probe, cycles.
    pub watchdog: Cycle,
    /// Arm the test-only planted bug: dedup-suppressed AMU replays log
    /// a second apply record for the at-most-once monitor to catch.
    pub planted_double_apply: bool,
}

impl VerifyModel {
    /// A model with the default bounded choice structure: two arrival
    /// offsets per proc, reorder window 2, a 10-choice horizon.
    pub fn new(mech: Mechanism, workload: VerifyWorkload, procs: u16) -> Self {
        VerifyModel {
            mech,
            workload,
            procs,
            skew_choices: 2,
            skew_step: 40,
            reorder_window: 2,
            explore_dups: false,
            jitter_choices: 1,
            max_choice_points: 10,
            watchdog: 2_000_000,
            planted_double_apply: false,
        }
    }

    /// The machine configuration this model runs under. The reorder
    /// window arms the delivery layer's recovery machinery (per-hub
    /// dedup, end-to-end retransmission); when the model explores
    /// duplicates with a zero window, a nominal duplication rate arms
    /// it instead — the taped oracle never consults the rate, only
    /// `delivery_enabled()` does.
    pub(crate) fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::with_procs(self.procs);
        // One processor per node: on the paper's two-per-node machine a
        // 2-proc model would be a single node, every message would be
        // hub-local, and the delivery layer (where the interesting
        // schedule choices live) would never be consulted.
        cfg.procs_per_node = 1;
        cfg.faults.link_reorder_window = self.reorder_window;
        if self.explore_dups && !cfg.faults.delivery_enabled() {
            cfg.faults.link_dup_ppm = 1;
        }
        if cfg.faults.delivery_enabled() {
            cfg.faults.dedup_window = cfg.faults.dedup_window.max(self.procs as u32);
        }
        cfg
    }

    fn tape_config(&self) -> TapeConfig {
        TapeConfig {
            explore_dups: self.explore_dups,
            jitter_choices: self.jitter_choices,
            max_choice_points: self.max_choice_points,
        }
    }

    /// Write every field as members of the currently open JSON object:
    /// the one model writer, shared by [`canonical_doc`](Self::canonical_doc)
    /// (keys, fingerprints) and schedule documents.
    pub(crate) fn write_fields(&self, w: &mut JsonWriter) {
        w.kv_str("mech", self.mech.label());
        w.kv_str("workload", self.workload.tag());
        match self.workload {
            VerifyWorkload::Barrier { episodes } => w.kv_u64("episodes", episodes as u64),
            VerifyWorkload::TicketLock { rounds } => w.kv_u64("rounds", rounds as u64),
        }
        w.kv_u64("procs", self.procs as u64);
        w.kv_u64("skew_choices", self.skew_choices as u64);
        w.kv_u64("skew_step", self.skew_step);
        w.kv_u64("reorder_window", self.reorder_window);
        w.key("explore_dups");
        w.bool_val(self.explore_dups);
        w.kv_u64("jitter_choices", self.jitter_choices as u64);
        w.kv_u64("max_choice_points", self.max_choice_points as u64);
        w.kv_u64("watchdog", self.watchdog);
        w.key("planted_double_apply");
        w.bool_val(self.planted_double_apply);
    }

    /// The one model reader, inverse of [`write_fields`](Self::write_fields):
    /// decode a model from the members of `obj`. `mech`, `workload` and
    /// `procs` are required; every other field defaults as in
    /// [`VerifyModel::new`] (two barrier episodes, one lock round).
    /// Members named in `also` belong to the caller; any other unknown
    /// member is an error naming it, and so is a model that fails
    /// [`check`](Self::check) — a verifier must not quietly check
    /// something narrower than it was asked to.
    pub(crate) fn from_json(obj: &Json, also: &[&str]) -> Result<VerifyModel, String> {
        let Json::Obj(members) = obj else {
            return Err("a model must be an object".into());
        };
        let text = |k: &str| {
            let v = obj.get(k).and_then(Json::as_str);
            v.ok_or_else(|| format!("missing {k}"))
        };
        let mech = Mechanism::parse(text("mech")?)?;
        let workload = match text("workload")? {
            "barrier" => VerifyWorkload::Barrier { episodes: 2 },
            "ticket-lock" => VerifyWorkload::TicketLock { rounds: 1 },
            other => return Err(format!("unknown workload {other:?} (barrier, ticket-lock)")),
        };
        obj.get("procs").ok_or("missing procs")?;
        let mut m = VerifyModel::new(mech, workload, 0);
        for (key, v) in members {
            let num = || {
                let n = v.as_u64();
                n.ok_or_else(|| format!("{key} must be an unsigned integer"))
            };
            let flag = || {
                let b = v.as_bool();
                b.ok_or_else(|| format!("{key} must be true or false"))
            };
            match (key.as_str(), &mut m.workload) {
                ("mech" | "workload", _) => {}
                ("episodes", VerifyWorkload::Barrier { episodes }) => {
                    *episodes = narrow(key, num()?)?
                }
                ("rounds", VerifyWorkload::TicketLock { rounds }) => *rounds = narrow(key, num()?)?,
                ("procs", _) => m.procs = narrow(key, num()?)?,
                ("skew_choices", _) => m.skew_choices = narrow(key, num()?)?,
                ("skew_step", _) => m.skew_step = num()?,
                ("reorder_window", _) => m.reorder_window = num()?,
                ("explore_dups", _) => m.explore_dups = flag()?,
                ("jitter_choices", _) => m.jitter_choices = narrow(key, num()?)?,
                ("max_choice_points", _) => m.max_choice_points = narrow(key, num()?)?,
                ("watchdog", _) => m.watchdog = num()?,
                ("planted_double_apply", _) => m.planted_double_apply = flag()?,
                (k, _) if also.contains(&k) => {}
                (k, w) => return Err(format!("unknown field {k:?} for a {} model", w.tag())),
            }
        }
        m.check()?;
        Ok(m)
    }

    /// Can this model run? `Err` names the offending value.
    pub fn check(&self) -> Result<(), String> {
        match self.workload {
            VerifyWorkload::Barrier { episodes: 0 } => Err("episodes = 0: need at least one"),
            VerifyWorkload::TicketLock { rounds: 0 } => Err("rounds = 0: need at least one"),
            _ => Ok(()),
        }?;
        self.config().check()
    }

    /// Canonical JSON document: every field that can change a run's
    /// outcome, the normalized machine configuration, and the campaign
    /// code fingerprint.
    pub(crate) fn canonical_doc(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.kv_str("code", CODE_FINGERPRINT);
        self.write_fields(&mut w);
        w.key("config");
        w.raw_val(&self.config().canonical_json());
        w.end_obj();
        w.finish()
    }

    /// The model's content key (`stable_hash128` of the canonical doc).
    pub(crate) fn key(&self) -> (u64, u64) {
        stable_hash128(self.canonical_doc().as_bytes())
    }

    /// Execute the model once under a forced choice-tape `prefix` with
    /// the full monitor stack attached. Deterministic: same model,
    /// same prefix, same [`Outcome`].
    pub fn run_once(&self, prefix: &[u16]) -> Outcome {
        let tape = TapeState::with_prefix(self.tape_config(), prefix.to_vec()).shared();
        let mut monitors: Vec<Box<dyn Monitor>> =
            vec![Box::new(AtMostOnce::new()), Box::new(DirSanity::new())];
        monitors.push(match self.workload {
            VerifyWorkload::Barrier { .. } => Box::new(BarrierEpoch::new(self.procs)),
            VerifyWorkload::TicketLock { .. } => Box::new(MutualExclusion::new()),
        });
        let mut machine = Machine::with_tracer(
            self.config(),
            QueueKind::Calendar,
            MonitorTracer::new(TRACE_CAP, monitors),
        );
        let probe = Probe { model: self, tape };
        let (end, fingerprint, failure) = probe.drive(&mut machine, |tracer, sequencer| {
            // LL/SC and plain atomics grab tickets coherently — no
            // AMU applies to order against (soundness boundary,
            // DESIGN.md §12).
            if let (Some(ticket), Mechanism::Amo | Mechanism::Mao) = (sequencer, self.mech) {
                tracer.push(Box::new(TicketFifo::new(ticket.0)));
            }
        });
        let error = failure.as_ref().and_then(|f| f.error.as_deref());
        let log = probe.tape.borrow().log().to_vec();
        Outcome {
            log,
            end,
            kind: failure.as_deref().map(failure_kind),
            monitor: error.and_then(|e| match e.kind {
                SimErrorKind::MonitorViolation { monitor } => Some(monitor),
                _ => None,
            }),
            detail: error.map(|e| {
                e.bundle
                    .violation
                    .clone()
                    .unwrap_or_else(|| e.kind.to_string())
            }),
            fingerprint,
        }
    }

    /// The unmonitored twin of [`run_once`](Self::run_once): same
    /// config, same tape semantics, but a `NopTracer` machine — every
    /// instrumentation hook compiles away. Returns the end cycle and
    /// the outcome fingerprint computed identically to the monitored
    /// path, so passivity (monitors never perturb timing) is a direct
    /// equality check.
    pub fn run_unmonitored(&self, prefix: &[u16]) -> (Cycle, (u64, u64)) {
        let tape = TapeState::with_prefix(self.tape_config(), prefix.to_vec()).shared();
        let probe = Probe { model: self, tape };
        let (end, fingerprint, _) = probe.drive(&mut Machine::new(self.config()), |_, _| {});
        (end, fingerprint)
    }
}

/// One execution of a model under one tape: what the shared driver
/// runs. The tape, the planted bug and the tape-chosen arrival skew are
/// the model's extra set-up around the ordinary installers.
#[derive(Debug)]
struct Probe<'a> {
    model: &'a VerifyModel,
    tape: SharedTape,
}

impl Probe<'_> {
    /// Run on `machine` through the shared driver: the end cycle, the
    /// outcome fingerprint, and the failure if the run did not finish
    /// clean.
    fn drive<T: Tracer>(
        &self,
        machine: &mut Machine<T>,
        attach: impl FnOnce(&mut T, &Option<Addr>),
    ) -> (Cycle, (u64, u64), Option<Box<RunFailure>>) {
        match run_on(self, machine, attach) {
            Ok((fingerprint, info)) => (info.end, fingerprint, None),
            Err(f) => {
                let end = f.info.end;
                let fingerprint = outcome_fingerprint(end, Some(failure_kind(&f)), &f.marks);
                (end, fingerprint, Some(f))
            }
        }
    }
}

impl Scenario for Probe<'_> {
    /// The ticket sequencer, for the FIFO monitor.
    type Installed = Option<Addr>;
    /// The outcome fingerprint of a clean finish.
    type Output = (u64, u64);

    fn check(&self) -> Result<(), String> {
        self.model.check()
    }

    fn config(&self) -> SystemConfig {
        self.model.config()
    }

    fn watchdog(&self) -> Cycle {
        self.model.watchdog
    }

    fn workload(&self) -> Workload {
        match self.model.workload {
            VerifyWorkload::Barrier { .. } => Workload::Barrier,
            VerifyWorkload::TicketLock { .. } => Workload::Lock,
        }
    }

    /// Attach the tape, arm the planted bug, and install one kernel
    /// per proc — arrival skew is one tape choice per proc, consumed
    /// here in proc order before the run starts.
    fn install<T: Tracer, P: HostProf>(&self, machine: &mut Machine<T, P>) -> Option<Addr> {
        let m = self.model;
        machine.set_schedule_tape(self.tape.clone());
        if m.planted_double_apply {
            machine.plant_amu_double_apply();
        }
        let mut tape = self.tape.borrow_mut();
        let mut plan = |len: u32| ProcPlan {
            work: vec![100; len as usize],
            start: tape.choose(ChoiceKind::ArrivalSkew, m.skew_choices) as Cycle * m.skew_step,
        };
        match m.workload {
            VerifyWorkload::Barrier { episodes } => {
                BarrierAlgo::Central.install(machine, m.mech, None, episodes, |_| plan(episodes));
                None
            }
            VerifyWorkload::TicketLock { rounds } => {
                let lock =
                    LockKind::Ticket.install(machine, m.mech, rounds, 50, false, |_| plan(rounds));
                Some(lock.sequencer)
            }
        }
    }

    fn reduce(&self, _: Option<Addr>, run: &Finished) -> (u64, u64) {
        outcome_fingerprint(run.info.end, None, run.marks)
    }
}

/// Reduce a finished run to its observable outcome and hash it: end
/// cycle, outcome kind, and the complete mark history.
fn outcome_fingerprint(
    end: Cycle,
    kind: Option<&'static str>,
    marks: &[(ProcId, u32, Cycle)],
) -> (u64, u64) {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.kv_u64("end", end);
    w.kv_str("kind", kind.unwrap_or("ok"));
    w.key("marks");
    w.begin_arr();
    for (p, id, at) in marks {
        w.begin_arr();
        w.u64_val(p.0 as u64);
        w.u64_val(*id as u64);
        w.u64_val(*at);
        w.end_arr();
    }
    w.end_arr();
    w.end_obj();
    stable_hash128(w.finish().as_bytes())
}

/// What one probe of a model under one tape prefix observably did.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every choice the run consumed, with its arity — the branching
    /// structure the explorer expands.
    pub log: Vec<ChoiceRec>,
    /// Cycle of the last processed event.
    pub end: Cycle,
    /// Typed failure discriminant name (`"MonitorViolation"`, …),
    /// `"Stall"` for an undiagnosed stall, `None` for a clean finish.
    pub kind: Option<&'static str>,
    /// Firing monitor's name, when the failure is a monitor violation.
    pub monitor: Option<&'static str>,
    /// Violation detail (or the error's display) when the run failed.
    pub detail: Option<String>,
    /// `stable_hash128` over end cycle, outcome kind, and the complete
    /// mark history — the explorer's state-dedup key.
    pub fingerprint: (u64, u64),
}

impl Outcome {
    /// The choices this run actually took, position by position.
    pub(crate) fn chosen(&self) -> Vec<u16> {
        self.log.iter().map(|c| c.chosen).collect()
    }

    /// Outcome kind as a document string (`"ok"` for a clean finish).
    pub(crate) fn kind_str(&self) -> &'static str {
        self.kind.unwrap_or("ok")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock_model() -> VerifyModel {
        VerifyModel::new(Mechanism::Amo, VerifyWorkload::TicketLock { rounds: 1 }, 2)
    }

    #[test]
    fn empty_prefix_run_finishes_clean_and_is_deterministic() {
        let m = lock_model();
        let a = m.run_once(&[]);
        assert_eq!(a.kind, None, "detail: {:?}", a.detail);
        assert!(!a.log.is_empty(), "tape consumed choices");
        let b = m.run_once(&[]);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.chosen(), b.chosen());
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn arrival_skew_choice_changes_the_outcome_fingerprint() {
        let m = lock_model();
        let base = m.run_once(&[]);
        let skewed = m.run_once(&[1]);
        assert_eq!(skewed.log[0].chosen, 1, "prefix forced the skew pick");
        assert_ne!(
            base.fingerprint, skewed.fingerprint,
            "a delayed kernel start must move the marks"
        );
    }

    #[test]
    fn barrier_model_runs_clean_under_default_tape() {
        let m = VerifyModel::new(Mechanism::Amo, VerifyWorkload::Barrier { episodes: 2 }, 2);
        let out = m.run_once(&[]);
        assert_eq!(out.kind, None, "detail: {:?}", out.detail);
    }

    #[test]
    fn monitored_runs_are_timing_identical_to_unmonitored() {
        // Passivity: the monitor stack observes the trace stream and
        // never schedules anything, so a monitored run must match the
        // NopTracer build cycle for cycle — end time, marks, outcome.
        for model in [
            lock_model(),
            VerifyModel::new(Mechanism::Amo, VerifyWorkload::Barrier { episodes: 2 }, 4),
        ] {
            for prefix in [&[][..], &[1, 1, 0, 2][..]] {
                let monitored = model.run_once(prefix);
                let (end, fingerprint) = model.run_unmonitored(prefix);
                assert_eq!(monitored.end, end, "model {model:?} prefix {prefix:?}");
                assert_eq!(
                    monitored.fingerprint, fingerprint,
                    "model {model:?} prefix {prefix:?}"
                );
            }
        }
    }

    #[test]
    fn model_key_pins_every_knob() {
        let m = lock_model();
        let mut other = m;
        other.reorder_window = 3;
        assert_ne!(m.key(), other.key());
        let mut planted = m;
        planted.planted_double_apply = true;
        assert_ne!(m.key(), planted.key());
    }
}
