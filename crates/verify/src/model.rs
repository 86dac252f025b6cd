//! The small models the schedule explorer enumerates.
//!
//! A [`VerifyModel`] describes one bounded verification workload: a
//! campaign cell (a barrier or ticket-lock [`ModelCell`] at a small
//! processor count, run by its own installer) and the choice structure
//! the explorer may vary around it — per-proc arrival skew, per-delivery
//! reorder skew, optional duplication, and retry jitter.
//! [`VerifyModel::run_once`] executes the model under a forced
//! choice-tape prefix with the full monitor stack attached and reduces
//! the run to a deterministic [`Outcome`] whose fingerprint the
//! explorer dedups on.
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
use amo_sync::{Mechanism, ProcPlan};
use amo_types::jsonv::{read_object, Json};
use amo_types::seed::stable_hash128;
use amo_types::tape::{ChoiceKind, ChoiceRec, SharedTape, TapeConfig, TapeState};
use amo_types::{Addr, Cycle, JsonWriter, ProcId, SystemConfig};
use amo_workloads::runner::{
    run_on, BarrierBench, Finished, LockBench, LockKind, RunFailure, Scenario,
};

/// Retained trace events per run (diagnostic bundles only; the
/// monitors themselves are streaming and unbounded-safe).
const TRACE_CAP: usize = 4096;

/// The campaign cell a model explores: its mechanism, kernel, size and
/// watchdog. The explorer replaces only its arrival plan. A model's
/// documents and key spell only `mech`, `procs`, `episodes` / `rounds`
/// and `watchdog`, so every other member must stay as [`ModelCell::new`]
/// sets it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelCell {
    /// A barrier cell.
    Barrier(BarrierBench),
    /// A lock cell.
    Lock(LockBench),
}

impl ModelCell {
    /// The cell a model of `workload` starts from: the centralized
    /// barrier of two episodes, none of them warm-up, or one round of
    /// the ticket lock with 50-cycle critical sections; either under a
    /// 2,000,000-cycle watchdog.
    pub fn new(workload: &str, mech: Mechanism, procs: u16) -> Result<ModelCell, String> {
        let watchdog = 2_000_000;
        Ok(match workload {
            "barrier" => ModelCell::Barrier(BarrierBench {
                episodes: 2,
                warmup: 0,
                watchdog,
                ..BarrierBench::paper(mech, procs)
            }),
            "ticket-lock" => ModelCell::Lock(LockBench {
                rounds: 1,
                cs_cycles: 50,
                watchdog,
                check_exclusion: false,
                ..LockBench::paper(mech, LockKind::Ticket, procs)
            }),
            other => return Err(format!("unknown workload {other:?} (barrier, ticket-lock)")),
        })
    }

    /// Stable workload tag for documents and specs.
    pub fn tag(&self) -> &'static str {
        match self {
            ModelCell::Barrier(_) => "barrier",
            ModelCell::Lock(_) => "ticket-lock",
        }
    }

    /// Synchronization mechanism under test.
    pub fn mech(&self) -> Mechanism {
        match self {
            ModelCell::Barrier(b) => b.mech,
            ModelCell::Lock(l) => l.mech,
        }
    }

    /// Participating processors.
    pub fn procs(&self) -> u16 {
        match self {
            ModelCell::Barrier(b) => b.procs,
            ModelCell::Lock(l) => l.procs,
        }
    }
}

/// One bounded verification model: a cell and the choice structure the
/// explorer enumerates around it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifyModel {
    /// What runs.
    pub cell: ModelCell,
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
    /// Arm the test-only planted bug: dedup-suppressed AMU replays log
    /// a second apply record for the at-most-once monitor to catch.
    pub planted_double_apply: bool,
}

amo_types::members! {
    /// A model's members, in the order its canonical document and
    /// schedule documents write them: the one model writer and reader.
    pub(crate) mod fields(m: VerifyModel) {
        "mech" required: arm(m.cell, c in ModelCell::Barrier | ModelCell::Lock => tag(c.mech, Mechanism, label)),
        "workload" required: given(m.cell.tag()),
        "episodes": arm(m.cell, c in ModelCell::Barrier => num(c.episodes)),
        "rounds": arm(m.cell, c in ModelCell::Lock => num(c.rounds)),
        "procs" required: arm(m.cell, c in ModelCell::Barrier | ModelCell::Lock => num(c.procs)),
        "skew_choices": num(m.skew_choices),
        "skew_step": num(m.skew_step),
        "reorder_window": num(m.reorder_window),
        "explore_dups": flag(m.explore_dups),
        "jitter_choices": num(m.jitter_choices),
        "max_choice_points": num(m.max_choice_points),
        "watchdog": arm(m.cell, c in ModelCell::Barrier | ModelCell::Lock => num(c.watchdog)),
        "planted_double_apply": flag(m.planted_double_apply),
    }
}

impl Default for VerifyModel {
    /// The two-processor AMO barrier of two episodes.
    fn default() -> Self {
        VerifyModel::new(ModelCell::new("barrier", Mechanism::Amo, 2).expect("a known workload"))
    }
}

impl VerifyModel {
    /// A model of `cell` with the default bounded choice structure: two
    /// arrival offsets per proc, reorder window 2, a 10-choice horizon.
    pub fn new(cell: ModelCell) -> Self {
        VerifyModel {
            cell,
            skew_choices: 2,
            skew_step: 40,
            reorder_window: 2,
            explore_dups: false,
            jitter_choices: 1,
            max_choice_points: 10,
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
        let mut cfg = match &self.cell {
            ModelCell::Barrier(b) => b.config(),
            ModelCell::Lock(l) => l.config(),
        };
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
            cfg.faults.dedup_window = cfg.faults.dedup_window.max(self.cell.procs() as u32);
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

    /// The one model reader, through [`fields`]. Unset fields default
    /// as in [`VerifyModel::new`] and [`ModelCell::new`] (two barrier
    /// episodes, one lock round; `max_choice_points` to `horizon` if
    /// given). A member no list holds goes to `also`, the caller's own;
    /// one neither takes is refused by name, and so is a model that
    /// fails [`check`](Self::check): a verifier must not quietly check
    /// something narrower than it was asked to.
    pub(crate) fn from_json(
        obj: &Json,
        horizon: Option<u32>,
        mut also: impl FnMut(&str, &Json) -> Result<bool, String>,
    ) -> Result<VerifyModel, String> {
        // The workload tag picks the cell a size member fills.
        let tag = obj.get("workload").and_then(Json::as_str);
        let mut m = VerifyModel::new(ModelCell::new(tag.unwrap_or("barrier"), Mechanism::Amo, 2)?);
        m.max_choice_points = horizon.unwrap_or(m.max_choice_points);
        read_object(obj, "", fields::REQUIRED, |k, v| {
            Ok(fields::read(&mut m, k, v)? || also(k, v)?)
        })?;
        m.check()?;
        Ok(m)
    }

    /// Can this model run: is its cell, on the model's machine, one the
    /// campaign could run? `Err` names the offending value.
    pub fn check(&self) -> Result<(), String> {
        let config = Some(self.config());
        match &self.cell {
            ModelCell::Barrier(b) if b.episodes == 0 => {
                Err("episodes = 0: need at least one".into())
            }
            ModelCell::Lock(l) if l.rounds == 0 => Err("rounds = 0: need at least one".into()),
            ModelCell::Barrier(b) => BarrierBench { config, ..*b }.check(),
            ModelCell::Lock(l) => LockBench { config, ..*l }.check(),
        }
    }

    /// Canonical JSON document: every field that can change a run's
    /// outcome, the normalized machine configuration, and the campaign
    /// code fingerprint.
    pub(crate) fn canonical_doc(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.kv_str("code", CODE_FINGERPRINT);
        fields::write(self, &mut w);
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
        monitors.push(match &self.cell {
            ModelCell::Barrier(b) => Box::new(BarrierEpoch::new(b.procs)),
            ModelCell::Lock(_) => Box::new(MutualExclusion::new()),
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
            if let (Some(ticket), Mechanism::Amo | Mechanism::Mao) = (sequencer, self.cell.mech()) {
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
/// the model's extra set-up around its cell's own installer.
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
        match &self.model.cell {
            ModelCell::Barrier(b) => b.watchdog(),
            ModelCell::Lock(l) => l.watchdog(),
        }
    }

    fn label(&self) -> String {
        match &self.model.cell {
            ModelCell::Barrier(b) => b.label(),
            ModelCell::Lock(l) => l.label(),
        }
    }

    fn workload(&self) -> Workload {
        match &self.model.cell {
            ModelCell::Barrier(b) => b.workload(),
            ModelCell::Lock(l) => l.workload(),
        }
    }

    /// Attach the tape, arm the planted bug, and install the cell with
    /// the tape's arrival plan — one skew choice per proc, consumed here
    /// in proc order before the run starts — in place of its own draw.
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
        match &m.cell {
            ModelCell::Barrier(b) => {
                b.install_with(machine, |_| plan(b.episodes));
                None
            }
            ModelCell::Lock(l) => Some(l.install_with(machine, |_| plan(l.rounds)).sequencer),
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

    fn model(workload: &str, procs: u16) -> VerifyModel {
        VerifyModel::new(ModelCell::new(workload, Mechanism::Amo, procs).unwrap())
    }

    fn lock_model() -> VerifyModel {
        model("ticket-lock", 2)
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
        let out = model("barrier", 2).run_once(&[]);
        assert_eq!(out.kind, None, "detail: {:?}", out.detail);
    }

    #[test]
    fn monitored_runs_are_timing_identical_to_unmonitored() {
        // Passivity: the monitor stack observes the trace stream and
        // never schedules anything, so a monitored run must match the
        // NopTracer build cycle for cycle — end time, marks, outcome.
        for model in [lock_model(), model("barrier", 4)] {
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

    /// Every knob of a model, each off its default, in the bytes its
    /// key and every schedule fingerprint hash.
    #[test]
    fn canonical_doc_pins_every_knob() {
        let mut m = VerifyModel {
            skew_choices: 3,
            skew_step: 17,
            reorder_window: 5,
            explore_dups: true,
            jitter_choices: 2,
            max_choice_points: 7,
            planted_double_apply: true,
            ..VerifyModel::new(ModelCell::new("barrier", Mechanism::LlSc, 4).unwrap())
        };
        if let ModelCell::Barrier(b) = &mut m.cell {
            (b.episodes, b.watchdog) = (3, 12_345);
        }
        assert_eq!(
            m.canonical_doc(),
            format!(
                r#"{{"code":"{CODE_FINGERPRINT}","mech":"LL/SC","workload":"barrier","episodes":3,"procs":4,"skew_choices":3,"skew_step":17,"reorder_window":5,"explore_dups":true,"jitter_choices":2,"max_choice_points":7,"watchdog":12345,"planted_double_apply":true,"config":{}}}"#,
                m.config().canonical_json()
            )
        );
        let mut lock = VerifyModel {
            cell: ModelCell::new("ticket-lock", Mechanism::LlSc, 4).unwrap(),
            explore_dups: false,
            ..m
        };
        if let ModelCell::Lock(l) = &mut lock.cell {
            l.rounds = 4;
        }
        let doc = lock.canonical_doc();
        let want = r#""workload":"ticket-lock","rounds":4,"procs":4,"#;
        assert!(doc.contains(want), "{doc}");
        assert!(doc.contains(r#""explore_dups":false,"#), "{doc}");
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
