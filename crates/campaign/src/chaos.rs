//! Chaos search over delivery-fault plans (`amo-fault-plan-v1`).
//!
//! A chaos search samples N seeded [`DeliveryPlan`]s from a grid of
//! fault dimensions (drop rate, duplication rate, reorder window,
//! end-to-end recovery budget), runs the AMO barrier under each plan
//! through the same fallible runner campaign cells use, and — when a
//! plan kills the run — **shrinks** it: dimension zeroing first, then
//! rate halving, then window bisection, each step re-probed and kept
//! only if the shrunk plan still fails with the *same* typed
//! [`SimErrorKind`] discriminant. The result is the minimal
//! deterministic reproducer, serialized as a replayable
//! `amo-fault-plan-v1` JSON document that `amo chaos --plan-in`
//! replays.
//!
//! Every step is seeded: sampling derives per-sample dimension choices
//! from `run_seed(search_seed, sample)` and the shrinker is a pure
//! function of the failing plan, so two searches with the same spec
//! produce byte-identical reports and artifacts.
//!
//! The plan document carries a **config fingerprint** — the content
//! key of the exact `RunSpec` the plan reproduces against, which folds
//! in the full machine configuration *and* the campaign
//! [`CODE_FINGERPRINT`](crate::run::CODE_FINGERPRINT). Replaying a
//! plan against a drifted simulator is refused loudly instead of
//! silently "reproducing" something else.

use crate::run::RunSpec;
use amo_sim::SimErrorKind;
use amo_sync::Mechanism;
use amo_types::jsonv::{document, read_object};
use amo_types::seed::{key_hex, run_seed, splitmix64};
use amo_types::{Cycle, JsonWriter};
use amo_workloads::runner::{run_scenario, BarrierBench, ObsSpec, RunFailure, Scenario, SkewMode};

/// Schema tag of a serialized fault plan.
pub(crate) const PLAN_SCHEMA: &str = "amo-fault-plan-v1";

/// One delivery-fault plan: the three fault dimensions, the oracle
/// seed that fixes *which* messages they bite, and the end-to-end
/// recovery budget they race against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryPlan {
    /// Per-message drop probability, parts per million.
    pub drop_ppm: u32,
    /// Per-message duplication probability, parts per million.
    pub dup_ppm: u32,
    /// Max extra delivery skew (cycles) for reordering; 0 = in order.
    pub reorder_window: Cycle,
    /// Requester-side retransmission timeout, cycles.
    pub e2e_timeout: Cycle,
    /// Retransmissions before a request escalates to `RequestTimedOut`.
    pub max_e2e_retries: u32,
    /// Fault-oracle seed.
    pub seed: u64,
}

impl DeliveryPlan {
    /// True if no fault dimension is armed (such a plan cannot fail).
    pub(crate) fn is_benign(&self) -> bool {
        self.drop_ppm == 0 && self.dup_ppm == 0 && self.reorder_window == 0
    }

    /// The unfaulted `bench` with this plan written into its machine
    /// configuration.
    pub fn on(&self, bench: &BarrierBench) -> BarrierBench {
        let mut cfg = bench.config();
        cfg.faults.link_drop_ppm = self.drop_ppm;
        cfg.faults.link_dup_ppm = self.dup_ppm;
        cfg.faults.link_reorder_window = self.reorder_window;
        cfg.faults.e2e_timeout = self.e2e_timeout;
        cfg.faults.max_e2e_retries = self.max_e2e_retries;
        cfg.faults.seed = self.seed;
        BarrierBench {
            config: Some(cfg),
            ..*bench
        }
    }
}

/// The value grid a chaos search samples from. Every dimension list
/// must be non-empty; a single-element list pins that dimension.
#[derive(Clone, Debug)]
pub struct ChaosGrid {
    /// Drop-rate choices (ppm).
    pub drop_ppm: Vec<u32>,
    /// Duplication-rate choices (ppm).
    pub dup_ppm: Vec<u32>,
    /// Reorder-window choices (cycles).
    pub reorder_window: Vec<Cycle>,
    /// End-to-end timeout choices (cycles).
    pub e2e_timeout: Vec<Cycle>,
    /// Retransmission-budget choices.
    pub max_e2e_retries: Vec<u32>,
}

impl Default for ChaosGrid {
    /// The default search space: rates from benign to brutal, budgets
    /// from paper-default generosity down to a single retry.
    fn default() -> Self {
        ChaosGrid {
            drop_ppm: vec![0, 10_000, 50_000, 150_000, 400_000],
            dup_ppm: vec![0, 10_000, 50_000],
            reorder_window: vec![0, 32, 128],
            e2e_timeout: vec![5_000, 20_000],
            max_e2e_retries: vec![1, 4, 16],
        }
    }
}

/// A chaos-search specification: how many plans to sample, from what
/// grid, against what barrier workload.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Plans to sample.
    pub samples: u32,
    /// Search seed; drives sampling and per-plan oracle seeds.
    pub seed: u64,
    /// The barrier every plan probes, unfaulted.
    pub bench: BarrierBench,
    /// Stop searching after this many distinct failures are shrunk.
    pub max_failures: usize,
    /// The fault-dimension grid.
    pub grid: ChaosGrid,
}

/// The barrier `amo chaos` drives: the paper's 64-processor AMO barrier
/// of four arithmetic-skew episodes, none of them warm-up, with the
/// watchdog armed.
pub fn chaos_bench() -> BarrierBench {
    BarrierBench {
        episodes: 4,
        warmup: 0,
        skew: SkewMode::Arithmetic,
        watchdog: 10_000_000,
        ..BarrierBench::paper(Mechanism::Amo, 64)
    }
}

impl ChaosSpec {
    /// A small, deterministic default: 16 samples over the default
    /// grid against [`chaos_bench`].
    pub fn new(seed: u64) -> Self {
        ChaosSpec {
            samples: 16,
            seed,
            bench: chaos_bench(),
            max_failures: 4,
            grid: ChaosGrid::default(),
        }
    }

    /// Can every plan this search will sample run at all? (A shrunk
    /// plan only lowers rates and windows, so it can run if its
    /// original can.)
    pub fn check(&self) -> Result<(), String> {
        (0..self.samples).try_for_each(|i| self.sample(i).on(&self.bench).check())
    }

    /// Sample `i`'s plan: each dimension choice is an independent
    /// keyed-hash draw from `run_seed(seed, i)`, so inserting a value
    /// into one grid list does not reshuffle the other dimensions.
    pub(crate) fn sample(&self, i: u32) -> DeliveryPlan {
        let base = run_seed(self.seed, i as u64);
        let pick = |salt: u64, len: usize| (splitmix64(base ^ salt) % len as u64) as usize;
        DeliveryPlan {
            drop_ppm: self.grid.drop_ppm[pick(0x01, self.grid.drop_ppm.len())],
            dup_ppm: self.grid.dup_ppm[pick(0x02, self.grid.dup_ppm.len())],
            reorder_window: self.grid.reorder_window[pick(0x03, self.grid.reorder_window.len())],
            e2e_timeout: self.grid.e2e_timeout[pick(0x04, self.grid.e2e_timeout.len())],
            max_e2e_retries: self.grid.max_e2e_retries[pick(0x05, self.grid.max_e2e_retries.len())],
            seed: splitmix64(base ^ 0x06),
        }
    }
}

/// Stable name of a typed fault's discriminant — the shrinker's
/// failure-equivalence class, and the `kind` a plan document records.
pub(crate) fn kind_name(kind: &SimErrorKind) -> &'static str {
    match kind {
        SimErrorKind::LinkFailed { .. } => "LinkFailed",
        SimErrorKind::ActMsgStarved { .. } => "ActMsgStarved",
        SimErrorKind::AmuStarved { .. } => "AmuStarved",
        SimErrorKind::AmuProtocol { .. } => "AmuProtocol",
        SimErrorKind::UnexpectedPayload { .. } => "UnexpectedPayload",
        SimErrorKind::NoProgress { .. } => "NoProgress",
        SimErrorKind::Deadlock { .. } => "Deadlock",
        SimErrorKind::RequestTimedOut { .. } => "RequestTimedOut",
        SimErrorKind::MonitorViolation { .. } => "MonitorViolation",
    }
}

/// The `kind` documents record for a failed run: the typed fault's
/// discriminant name, `"Stall"` for an untyped stall (no watchdog
/// diagnosis), `"Rejected"` for a description that was never run.
pub fn failure_kind(f: &RunFailure) -> &'static str {
    match (&f.rejected, &f.error) {
        (Some(_), _) => "Rejected",
        (None, Some(e)) => kind_name(&e.kind),
        (None, None) => "Stall",
    }
}

/// Run one plan to completion or abort. `Some(kind)` is the failure's
/// [`failure_kind`]; `None` means the barrier finished.
pub(crate) fn probe(spec: &ChaosSpec, plan: &DeliveryPlan) -> Option<&'static str> {
    run_scenario(&plan.on(&spec.bench), ObsSpec::default())
        .err()
        .map(|f| failure_kind(&f))
}

/// Upper bound on shrink probes per failure; the shrinker is greedy
/// and monotone, so this is a safety net, not a tuning knob.
const MAX_SHRINK_PROBES: u32 = 64;

/// Shrink a failing plan to a minimal reproducer of the same failure
/// kind. Three greedy passes, every candidate re-probed:
///
/// 1. **Dimension zeroing** — drop whole fault dimensions
///    (duplication, reordering, then dropping) that the failure does
///    not actually need.
/// 2. **Rate halving** — walk the surviving rates down by halving
///    while the failure persists.
/// 3. **Window bisection** — binary-search the smallest reorder
///    window that still fails.
///
/// Returns the shrunk plan and the number of probes spent.
pub(crate) fn shrink(spec: &ChaosSpec, plan: DeliveryPlan, kind: &str) -> (DeliveryPlan, u32) {
    let mut best = plan;
    let mut probes = 0u32;
    let still_fails = |candidate: &DeliveryPlan, probes: &mut u32| {
        if *probes >= MAX_SHRINK_PROBES || candidate.is_benign() {
            return false;
        }
        *probes += 1;
        probe(spec, candidate) == Some(kind)
    };

    // Pass 1: dimension zeroing, least-essential first.
    for zero in [
        (|p: &mut DeliveryPlan| p.dup_ppm = 0) as fn(&mut DeliveryPlan),
        |p| p.reorder_window = 0,
        |p| p.drop_ppm = 0,
    ] {
        let mut candidate = best;
        zero(&mut candidate);
        if candidate != best && still_fails(&candidate, &mut probes) {
            best = candidate;
        }
    }

    // Pass 2: rate halving.
    for field in [
        (|p: &mut DeliveryPlan| &mut p.drop_ppm) as fn(&mut DeliveryPlan) -> &mut u32,
        |p| &mut p.dup_ppm,
    ] {
        loop {
            let mut candidate = best;
            let v = field(&mut candidate);
            if *v == 0 {
                break;
            }
            *v /= 2;
            if still_fails(&candidate, &mut probes) {
                best = candidate;
            } else {
                break;
            }
        }
    }

    // Pass 3: reorder-window bisection to the smallest failing value.
    if best.reorder_window > 0 {
        let (mut lo, mut hi) = (0, best.reorder_window);
        while lo < hi && probes < MAX_SHRINK_PROBES {
            let mid = lo + (hi - lo) / 2;
            let candidate = DeliveryPlan {
                reorder_window: mid,
                ..best
            };
            if still_fails(&candidate, &mut probes) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        best.reorder_window = hi;
    }

    (best, probes)
}

/// One failure the search found and shrunk.
#[derive(Clone, Debug)]
pub struct ChaosFinding {
    /// Sample index the failing plan came from.
    pub sample: u32,
    /// The plan as sampled.
    pub plan: DeliveryPlan,
    /// Failure-kind discriminant name (`"RequestTimedOut"`, …).
    pub kind: String,
    /// The minimal reproducer the shrinker reached.
    pub minimal: DeliveryPlan,
    /// Probes the shrinker spent.
    pub shrink_probes: u32,
}

/// What a chaos search did.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Plans actually probed.
    pub sampled: u32,
    /// Plans skipped because every fault dimension sampled to zero.
    pub benign: u32,
    /// Failures found, in sample order, each shrunk.
    pub failures: Vec<ChaosFinding>,
}

/// Run a chaos search: sample, probe, shrink. Deterministic in
/// `spec` — same spec, same report.
pub fn search(spec: &ChaosSpec) -> ChaosReport {
    let mut report = ChaosReport {
        sampled: 0,
        benign: 0,
        failures: Vec::new(),
    };
    for i in 0..spec.samples {
        if report.failures.len() >= spec.max_failures {
            break;
        }
        let plan = spec.sample(i);
        if plan.is_benign() {
            report.benign += 1;
            continue;
        }
        report.sampled += 1;
        if let Some(kind) = probe(spec, &plan) {
            let (minimal, shrink_probes) = shrink(spec, plan, kind);
            report.failures.push(ChaosFinding {
                sample: i,
                plan,
                kind: kind.to_string(),
                minimal,
                shrink_probes,
            });
        }
    }
    report
}

/// A replayable fault-plan document: the plan, the barrier workload it
/// reproduces against, the failure kind it is expected to reproduce,
/// and the config fingerprint pinning the exact simulator + machine
/// configuration the plan was minimized under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanDoc {
    /// The delivery-fault plan.
    pub plan: DeliveryPlan,
    /// The barrier it replays against, unfaulted: [`chaos_bench`] with
    /// the document's `procs`, `episodes` and `watchdog`.
    pub bench: BarrierBench,
    /// Expected outcome: a failure-kind name, or `"ok"` for a plan the
    /// run is expected to survive.
    pub kind: String,
    /// Content key of the `RunSpec` this plan replays (hex, 32 digits).
    pub fingerprint: String,
}

impl PlanDoc {
    /// Build the document for a plan against the unfaulted `bench`,
    /// stamping the current config fingerprint.
    pub fn new(bench: &BarrierBench, plan: DeliveryPlan, kind: &str) -> PlanDoc {
        let mut doc = PlanDoc {
            plan,
            bench: *bench,
            kind: kind.to_string(),
            fingerprint: String::new(),
        };
        doc.fingerprint = doc.current_fingerprint();
        doc
    }

    /// The run this document describes: its barrier under its plan.
    pub fn run(&self) -> BarrierBench {
        self.plan.on(&self.bench)
    }

    /// The config fingerprint this simulator would stamp on this plan
    /// *now*: the content key of the exact run it describes. Folds in
    /// the machine configuration and the campaign code fingerprint, so
    /// any drift in either breaks the match.
    pub(crate) fn current_fingerprint(&self) -> String {
        key_hex(RunSpec::Barrier(self.run()).key())
    }

    /// `Err` describes the drift if this plan was minted by a
    /// different simulator or machine configuration.
    pub fn check_fingerprint(&self) -> Result<(), String> {
        let now = self.current_fingerprint();
        if now == self.fingerprint {
            Ok(())
        } else {
            Err(format!(
                "fault plan fingerprint mismatch: plan was minted under {}, \
                 this simulator computes {} — the simulator or machine \
                 configuration has drifted and the plan is not a valid \
                 reproducer here",
                self.fingerprint, now
            ))
        }
    }

    /// Serialize as one `amo-fault-plan-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.kv_str("schema", PLAN_SCHEMA);
        plan_doc::write(self, &mut w);
        w.end_obj();
        w.finish()
    }

    /// Decode an `amo-fault-plan-v1` document whose barrier can run
    /// (`Scenario::check`). Does **not** verify the fingerprint — call
    /// [`PlanDoc::check_fingerprint`] before trusting the plan as a
    /// reproducer.
    pub fn from_json(doc: &str) -> Result<PlanDoc, String> {
        Self::decode(doc).map_err(|e| format!("plan: {e}"))
    }

    fn decode(doc: &str) -> Result<PlanDoc, String> {
        let v = document(doc, PLAN_SCHEMA)?;
        let mut doc = PlanDoc {
            plan: DeliveryPlan::default(),
            bench: chaos_bench(),
            kind: String::new(),
            fingerprint: String::new(),
        };
        read_object(&v, "", plan_doc::REQUIRED, |k, x| {
            plan_doc::read(&mut doc, k, x)
        })?;
        doc.run().check()?;
        Ok(doc)
    }
}

amo_types::members! {
    /// A plan document's members: the barrier a plan replays against,
    /// the outcome it expects and the fingerprint it was minted under.
    mod plan_doc(d: PlanDoc) {
        "fingerprint" required: text(d.fingerprint),
        "kind" required: text(d.kind),
        "procs" required: num(d.bench.procs),
        "episodes" required: num(d.bench.episodes),
        "watchdog" required: num(d.bench.watchdog),
        "faults" required: nested(d.plan, faults),
    }
}

amo_types::members! {
    /// A plan's `faults` object. A full-width seed does not survive the
    /// f64-backed JSON number, so it is written as a hex string.
    mod faults(p: DeliveryPlan) {
        "link_drop_ppm" required: num(p.drop_ppm),
        "link_dup_ppm" required: num(p.dup_ppm),
        "link_reorder_window" required: num(p.reorder_window),
        "e2e_timeout" required: num(p.e2e_timeout),
        "max_e2e_retries" required: num(p.max_e2e_retries),
        "seed" required: hex(p.seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny grid guaranteed to contain a killer: heavy drops against
    /// a single-retry budget, small machine so probes stay cheap.
    fn planted_spec() -> ChaosSpec {
        ChaosSpec {
            samples: 4,
            seed: 7,
            bench: BarrierBench {
                procs: 16,
                episodes: 3,
                watchdog: 2_000_000,
                ..chaos_bench()
            },
            max_failures: 1,
            grid: ChaosGrid {
                drop_ppm: vec![400_000],
                dup_ppm: vec![0, 20_000],
                reorder_window: vec![0, 32],
                e2e_timeout: vec![5_000],
                max_e2e_retries: vec![1],
            },
        }
    }

    #[test]
    fn sampling_is_seeded_and_stays_on_the_grid() {
        let spec = ChaosSpec::new(0xC4A0_5EED);
        for i in 0..spec.samples {
            let p = spec.sample(i);
            assert_eq!(p, spec.sample(i), "sampling must be deterministic");
            assert!(spec.grid.drop_ppm.contains(&p.drop_ppm));
            assert!(spec.grid.dup_ppm.contains(&p.dup_ppm));
            assert!(spec.grid.reorder_window.contains(&p.reorder_window));
            assert!(spec.grid.e2e_timeout.contains(&p.e2e_timeout));
            assert!(spec.grid.max_e2e_retries.contains(&p.max_e2e_retries));
        }
        // Distinct samples draw distinct oracle seeds.
        assert_ne!(spec.sample(0).seed, spec.sample(1).seed);
    }

    #[test]
    fn planted_failure_is_found_shrunk_and_still_reproduces() {
        let spec = planted_spec();
        let report = search(&spec);
        assert_eq!(report.failures.len(), 1, "planted config must be found");
        let f = &report.failures[0];
        assert_eq!(f.kind, "RequestTimedOut");
        // The shrunk plan is no larger than the sampled one on every
        // fault dimension...
        assert!(f.minimal.drop_ppm <= f.plan.drop_ppm);
        assert!(f.minimal.dup_ppm <= f.plan.dup_ppm);
        assert!(f.minimal.reorder_window <= f.plan.reorder_window);
        // ...and still reproduces the same typed failure.
        assert_eq!(probe(&spec, &f.minimal), Some("RequestTimedOut"));
        // Same spec, same findings: the search is deterministic.
        let again = search(&spec);
        assert_eq!(again.failures[0].minimal, f.minimal);
        assert_eq!(again.failures[0].shrink_probes, f.shrink_probes);
    }

    #[test]
    fn plan_documents_round_trip_and_pin_the_config() {
        let spec = planted_spec();
        let plan = spec.sample(0);
        let doc = PlanDoc::new(&spec.bench, plan, "RequestTimedOut");
        let json = doc.to_json();
        let back = PlanDoc::from_json(&json).expect("decodes");
        assert_eq!(back, doc);
        assert_eq!(back.to_json(), json, "decode∘encode is identity");
        back.check_fingerprint().expect("fresh plan matches");

        // A plan minted under a different machine configuration is
        // refused loudly.
        let mut drifted = back.clone();
        drifted.bench.procs = 32;
        let err = drifted.check_fingerprint().expect_err("drift detected");
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    /// A plan document's bytes: member order, decimal counts and the
    /// hex seed.
    #[test]
    fn plan_documents_pin_every_member() {
        let doc = PlanDoc {
            plan: DeliveryPlan {
                drop_ppm: 400_000,
                dup_ppm: 20_000,
                reorder_window: 32,
                e2e_timeout: 5_000,
                max_e2e_retries: 1,
                seed: 0xDEAD_BEEF_0123_4567,
            },
            bench: planted_spec().bench,
            kind: "RequestTimedOut".into(),
            fingerprint: "0123456789abcdef0123456789abcdef".into(),
        };
        assert_eq!(
            doc.to_json(),
            r#"{"schema":"amo-fault-plan-v1","fingerprint":"0123456789abcdef0123456789abcdef","kind":"RequestTimedOut","procs":16,"episodes":3,"watchdog":2000000,"faults":{"link_drop_ppm":400000,"link_dup_ppm":20000,"link_reorder_window":32,"e2e_timeout":5000,"max_e2e_retries":1,"seed":"0xdeadbeef01234567"}}"#
        );
    }

    /// A member no list holds is refused at either level, a missing
    /// one is named by its path, and the seed reads in either form.
    #[test]
    fn plan_members_are_checked_by_path() {
        let spec = planted_spec();
        let json = PlanDoc::new(&spec.bench, spec.sample(0), "RequestTimedOut").to_json();
        for (from, to, why) in [
            (
                "\"procs\"",
                "\"bogus\":1,\"procs\"",
                "plan: unknown member \"bogus\"",
            ),
            (
                "\"link_dup_ppm\"",
                "\"link_dupe\":1,\"link_dup_ppm\"",
                "plan: unknown member \"faults.link_dupe\"",
            ),
            (
                "\"link_drop_ppm\"",
                "\"link_drop\"",
                "plan: missing faults.link_drop_ppm",
            ),
            ("\"kind\"", "\"kinds\"", "plan: missing kind"),
            (
                "\"link_drop_ppm\":",
                "\"link_drop_ppm\":4294967296,\"x\":",
                "plan: faults.link_drop_ppm: 4294967296 does not fit u32",
            ),
        ] {
            let err = PlanDoc::from_json(&json.replacen(from, to, 1)).unwrap_err();
            assert_eq!(err, why);
        }
        let seed = PlanDoc::from_json(&json).unwrap().plan.seed;
        let decimal = json.replace(&format!("\"{seed:#x}\""), "7");
        assert_eq!(PlanDoc::from_json(&decimal).unwrap().plan.seed, 7);
    }

    #[test]
    fn benign_plans_are_skipped_without_probing() {
        let spec = ChaosSpec {
            grid: ChaosGrid {
                drop_ppm: vec![0],
                dup_ppm: vec![0],
                reorder_window: vec![0],
                e2e_timeout: vec![5_000],
                max_e2e_retries: vec![1],
            },
            samples: 3,
            ..planted_spec()
        };
        let report = search(&spec);
        assert_eq!(report.sampled, 0);
        assert_eq!(report.benign, 3);
        assert!(report.failures.is_empty());
    }
}
