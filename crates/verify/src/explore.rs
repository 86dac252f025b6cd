//! The bounded schedule explorer.
//!
//! Systematic enumeration over the choice tape: run the empty prefix,
//! read back the branching structure the run consumed (every choice
//! with its arity), and for every position at or past the forced
//! prefix push one new prefix per untaken alternative. Each complete
//! tape is visited exactly once; the DFS order is a pure function of
//! the model, so two explorations are byte-identical.
//!
//! Two prunings bound the search (both documented in DESIGN.md §12):
//!
//! * **Horizon** — the tape stops branching after
//!   `max_choice_points` consumed choices (arity collapses to 1), so
//!   the frontier is finite even on long runs.
//! * **Outcome dedup** — a run whose outcome fingerprint (end cycle,
//!   outcome kind, full mark history) was already seen does not expand
//!   its alternatives, in the spirit of sleep sets: schedules that
//!   produced an already-explored observable state rarely lead
//!   anywhere new. This trades completeness for tractability; every
//!   run still passes through the full monitor stack, so pruning never
//!   hides a violation on an executed schedule.
//!
//! A violating run is reported as a [`Counterexample`] and **shrunk**:
//! greedily minimize each tape position (smallest alternative that
//! still reproduces the same monitor + failure kind), then trim
//! trailing zeros. The result replays as an `amo-schedule-v1`
//! document (see [`crate::doc`]).

use crate::model::VerifyModel;
use amo_types::FxHashSet;

/// Search bounds.
#[derive(Clone, Copy, Debug)]
pub struct ExploreLimits {
    /// Stop after this many executed schedules (the report is marked
    /// truncated).
    pub max_runs: u64,
    /// Stop collecting counterexamples after this many distinct
    /// (monitor, kind) classes.
    pub max_counterexamples: usize,
    /// Probe budget for shrinking each counterexample.
    pub max_shrink_probes: u32,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_runs: 20_000,
            max_counterexamples: 4,
            max_shrink_probes: 64,
        }
    }
}

/// One violating schedule, as found and as shrunk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// Firing monitor (`"at-most-once"`, …).
    pub monitor: String,
    /// Typed failure discriminant (`"MonitorViolation"`, …).
    pub kind: String,
    /// Violation detail with witnesses.
    pub detail: String,
    /// The tape that provoked the violation, as executed.
    pub tape: Vec<u16>,
    /// The shrunk (minimal) tape: still reproduces the same monitor
    /// and kind.
    pub minimal: Vec<u16>,
    /// Probes the shrinker spent.
    pub shrink_probes: u32,
}

/// What an exploration did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreReport {
    /// Schedules executed.
    pub schedules: u64,
    /// Distinct outcome fingerprints among them.
    pub distinct: u64,
    /// Runs whose alternatives were not expanded because their outcome
    /// fingerprint was already seen.
    pub pruned: u64,
    /// True if `max_runs` cut the search short.
    pub truncated: bool,
    /// Violations found, first per (monitor, kind) class, each shrunk.
    pub counterexamples: Vec<Counterexample>,
}

impl ExploreReport {
    /// Number of violating schedule classes found.
    pub fn violations(&self) -> u64 {
        self.counterexamples.len() as u64
    }
}

/// Run the bounded exploration of `model` under `limits`.
/// Deterministic: same inputs, same report, field for field.
pub fn explore(model: &VerifyModel, limits: &ExploreLimits) -> ExploreReport {
    let mut report = ExploreReport {
        schedules: 0,
        distinct: 0,
        pruned: 0,
        truncated: false,
        counterexamples: Vec::new(),
    };
    let mut seen: FxHashSet<(u64, u64)> = FxHashSet::default();
    let mut stack: Vec<Vec<u16>> = vec![Vec::new()];

    while let Some(prefix) = stack.pop() {
        if report.schedules >= limits.max_runs {
            report.truncated = true;
            break;
        }
        let out = model.run_once(&prefix);
        report.schedules += 1;

        if let Some(kind) = out.kind {
            let monitor = out.monitor.unwrap_or("");
            let known = report
                .counterexamples
                .iter()
                .any(|c| c.monitor == monitor && c.kind == kind);
            if !known && report.counterexamples.len() < limits.max_counterexamples {
                let tape = out.chosen();
                let (minimal, shrink_probes) =
                    shrink(model, &tape, kind, out.monitor, limits.max_shrink_probes);
                report.counterexamples.push(Counterexample {
                    monitor: monitor.to_string(),
                    kind: kind.to_string(),
                    detail: out.detail.clone().unwrap_or_default(),
                    tape,
                    minimal,
                    shrink_probes,
                });
            }
        }

        if seen.insert(out.fingerprint) {
            report.distinct += 1;
            // Expand every untaken alternative at or past the forced
            // prefix. Pushed deepest-position-first so the DFS pops
            // shallow deviations first — purely cosmetic; any fixed
            // order enumerates the same set.
            let chosen = out.chosen();
            for i in prefix.len()..out.log.len() {
                for alt in (out.log[i].chosen + 1)..out.log[i].arity {
                    let mut next = chosen[..i].to_vec();
                    next.push(alt);
                    stack.push(next);
                }
            }
        } else {
            report.pruned += 1;
        }
    }
    report
}

/// Greedily minimize a violating tape: for each position, take the
/// smallest alternative that still reproduces the same monitor and
/// failure kind; then drop trailing zeros (the tape's default beyond
/// the prefix is 0, so they carry no information).
fn shrink(
    model: &VerifyModel,
    tape: &[u16],
    kind: &'static str,
    monitor: Option<&'static str>,
    max_probes: u32,
) -> (Vec<u16>, u32) {
    let mut best = tape.to_vec();
    let mut probes = 0u32;
    for i in 0..best.len() {
        for v in 0..best[i] {
            if probes >= max_probes {
                break;
            }
            let mut candidate = best.clone();
            candidate[i] = v;
            probes += 1;
            let out = model.run_once(&candidate);
            if out.kind == Some(kind) && out.monitor == monitor {
                best[i] = v;
                break;
            }
        }
    }
    while best.last() == Some(&0) {
        best.pop();
    }
    (best, probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::ScheduleDoc;
    use crate::model::ModelCell;
    use amo_sync::Mechanism;

    fn model(workload: &str) -> VerifyModel {
        VerifyModel::new(ModelCell::new(workload, Mechanism::Amo, 2).unwrap())
    }

    fn lock_model() -> VerifyModel {
        // The pinned exhaustiveness workload: 2-proc AMO ticket lock,
        // arrival skew ∈ {0, 1} per proc, reorder window 2.
        model("ticket-lock")
    }

    #[test]
    fn lock_exploration_counts_are_pinned_and_deterministic() {
        let report = explore(&lock_model(), &ExploreLimits::default());
        // Exact enumeration counts: any change to the simulator's
        // choice structure (new choice points, reordered consumption,
        // changed arities) shows up here before it silently shrinks or
        // inflates coverage.
        assert_eq!(report.schedules, 64);
        assert_eq!(report.distinct, 15);
        assert_eq!(report.pruned, 49);
        assert!(!report.truncated);
        assert_eq!(report.violations(), 0, "{:?}", report.counterexamples);
        // Byte-identical determinism: two explorations of the same
        // model agree field for field.
        let again = explore(&lock_model(), &ExploreLimits::default());
        assert_eq!(again, report);
    }

    #[test]
    fn barrier_exploration_finds_no_violations() {
        let report = explore(&model("barrier"), &ExploreLimits::default());
        assert_eq!(report.schedules, 168);
        assert_eq!(report.distinct, 162);
        assert!(!report.truncated);
        assert_eq!(report.violations(), 0, "{:?}", report.counterexamples);
    }

    #[test]
    fn planted_double_apply_is_found_shrunk_and_replayable() {
        let mut model = lock_model();
        model.explore_dups = true;
        model.planted_double_apply = true;
        let report = explore(&model, &ExploreLimits::default());
        assert_eq!(report.violations(), 1, "{:?}", report.counterexamples);
        let cx = &report.counterexamples[0];
        assert_eq!(cx.monitor, "at-most-once");
        assert_eq!(cx.kind, "MonitorViolation");
        assert!(cx.detail.contains("applied twice"), "{}", cx.detail);
        // The shrunk tape is minimal: exactly the one duplication
        // choice that provokes the planted bug survives.
        assert!(cx.minimal.len() <= cx.tape.len());
        assert_eq!(
            cx.minimal.iter().filter(|&&v| v != 0).count(),
            1,
            "minimal tape {:?} should carry a single nonzero choice",
            cx.minimal
        );

        // The minimal tape round-trips through an amo-schedule-v1
        // document and replays to the identical typed violation.
        let out = model.run_once(&cx.minimal);
        assert_eq!(out.kind, Some("MonitorViolation"));
        let doc = ScheduleDoc::new(model, cx.minimal.clone(), &out);
        let back = ScheduleDoc::from_json(&doc.to_json()).expect("decodes");
        assert_eq!(back, doc);
        let replayed = back.replay().expect("reproduces the violation");
        assert_eq!(replayed.monitor, Some("at-most-once"));
        assert_eq!(replayed.fingerprint, out.fingerprint);
    }

    #[test]
    fn run_bound_truncates_and_reports_it() {
        let report = explore(
            &lock_model(),
            &ExploreLimits {
                max_runs: 5,
                ..ExploreLimits::default()
            },
        );
        assert_eq!(report.schedules, 5);
        assert!(report.truncated);
    }
}
