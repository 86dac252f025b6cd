//! Declarative campaign specifications (`amo-campaign-v1`).
//!
//! A spec is a JSON document describing a whole experiment campaign.
//! Two kinds exist:
//!
//! * `"kind": "grid"` — a parameter grid over one workload. `base`
//!   gives the fixed parameters, `axes` maps parameter names to value
//!   lists, and the grid is their cartesian product (first axis
//!   slowest, declaration order preserved). Parameters address either
//!   bench fields (`mech`, `procs`, `episodes`, `seed`, …) or machine
//!   configuration via dotted `config.` paths
//!   (`config.faults.link_error_ppm`), so a fault-injection sweep is a
//!   one-axis spec. Optional `include`/`exclude` lists filter cells;
//!   `replicas` repeats each cell with independently derived seeds.
//! * `"kind": "artifacts"` — regenerate named paper artifacts
//!   (`table2`, `figure7`, `ext-ktree`, …) under an
//!   [`ArtifactProfile`].
//!
//! ```json
//! {
//!   "schema": "amo-campaign-v1",
//!   "name": "error-rate-sweep",
//!   "kind": "grid",
//!   "workload": "barrier",
//!   "base": {"mech": "AMO", "procs": 16, "episodes": 10, "warmup": 2},
//!   "axes": {
//!     "mech": ["LL/SC", "AMO"],
//!     "config.faults.link_error_ppm": [0, 50, 200, 1000]
//!   }
//! }
//! ```

use crate::artifacts::{check_artifact_names, ArtifactProfile};
use crate::run::{barrier, lock, RunSpec};
use amo_sync::Mechanism;
use amo_types::jsonv::{array, document, object, read_object, text, unsigned, Json};
use amo_types::seed::run_seed;
use amo_types::SystemConfig;
use amo_workloads::runner::{BarrierBench, LockBench, LockKind};

/// Schema tag a campaign spec must carry.
pub(crate) const SPEC_SCHEMA: &str = "amo-campaign-v1";

/// The most runs a grid may expand to, replicas included: each costs a
/// label and a description before anything runs, and no grid anyone has
/// asked for comes near (the paper's whole campaign is 405 cells).
const MAX_GRID_RUNS: u64 = 1 << 16;

/// One expanded grid cell: a human-readable label plus the run it
/// schedules.
#[derive(Clone, Debug)]
pub struct GridRun {
    /// `name[axis=value,...]` (plus `#replica` when replicated).
    pub label: String,
    /// The run this cell executes.
    pub spec: RunSpec,
}

/// What a parsed spec asks the campaign to do.
#[derive(Clone, Debug)]
pub enum CampaignPlan {
    /// An expanded parameter grid.
    Grid(Vec<GridRun>),
    /// Paper-artifact regeneration.
    Artifacts {
        /// Artifact names (`table2`, `figure5`, …); empty means all.
        artifacts: Vec<String>,
        /// Sweep sizes and episode counts.
        profile: ArtifactProfile,
    },
}

/// A parsed, fully expanded campaign specification.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// The spec's self-declared name (used in labels and reports).
    pub name: String,
    /// The expanded execution plan.
    pub plan: CampaignPlan,
}

impl CampaignSpec {
    /// Parse and expand a spec document. Every grid cell is checked
    /// (`RunSpec::check`) here, so a cell that cannot run fails the
    /// parse with its label rather than the campaign with a panic.
    pub fn parse(doc: &str) -> Result<CampaignSpec, String> {
        Self::decode(doc).map_err(|e| format!("spec: {e}"))
    }

    fn decode(doc: &str) -> Result<CampaignSpec, String> {
        let v = document(doc, SPEC_SCHEMA)?;
        let name = v.get("name").and_then(Json::as_str).ok_or("missing name")?;
        let plan = match v.get("kind").and_then(Json::as_str) {
            Some("grid") => CampaignPlan::Grid(expand_grid(name, &v)?),
            Some("artifacts") => parse_artifacts(&v)?,
            other => return Err(format!("bad kind {other:?}")),
        };
        let name = name.to_string();
        Ok(CampaignSpec { name, plan })
    }
}

/// Find the last assignment of `key` (axis values come after `base`, so
/// the last one wins).
fn lookup<'a>(assignments: &'a [(&'a str, &'a Json)], key: &str) -> Option<&'a Json> {
    assignments
        .iter()
        .rev()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
}

/// A barrier or lock cell at the paper's defaults, before its
/// parameters are assigned, and the parameters it must be given.
fn blank(workload: &str) -> Result<(RunSpec, &'static [&'static str]), String> {
    let (amo, ticket) = (Mechanism::Amo, LockKind::Ticket);
    Ok(match workload {
        "barrier" => (
            RunSpec::Barrier(BarrierBench::paper(amo, 0)),
            barrier::REQUIRED,
        ),
        "lock" => (
            RunSpec::Lock(LockBench::paper(amo, ticket, 0)),
            lock::REQUIRED,
        ),
        other => return Err(format!("unknown workload {other:?} (barrier, lock)")),
    })
}

/// Assign one grid parameter: a member of the cell's list, or a
/// `config.` path of its machine, which starts as the paper's at the
/// cell's processor count. Any other name is refused.
fn assign(workload: &str, spec: &mut RunSpec, key: &str, v: &Json) -> Result<(), String> {
    let known = match (spec, key.strip_prefix("config.")) {
        (RunSpec::Barrier(b), None) => barrier::read(b, key, v)?,
        (RunSpec::Lock(b), None) => lock::read(b, key, v)?,
        (
            RunSpec::Barrier(BarrierBench { procs, config, .. })
            | RunSpec::Lock(LockBench { procs, config, .. }),
            Some(path),
        ) => {
            let cfg = config.get_or_insert_with(|| SystemConfig::with_procs(*procs));
            cfg.set_field(path, unsigned(v, key)?).map(|()| true)?
        }
        _ => unreachable!("grid workloads are barrier|lock"),
    };
    known
        .then_some(())
        .ok_or_else(|| format!("unknown {workload} parameter {key:?}"))
}

/// Build one run from an assignment list (`base` entries first, then
/// the axis point's). The cell's own parameters go first, so the
/// machine its `config.` paths edit has the cell's processor count.
fn build_run(workload: &str, assignments: &[(&str, &Json)]) -> Result<RunSpec, String> {
    let (mut spec, required) = blank(workload)?;
    if let Some(r) = required.iter().find(|r| lookup(assignments, r).is_none()) {
        return Err(format!("grid cell missing {r}"));
    }
    for config in [false, true] {
        for &(key, v) in assignments {
            if key.starts_with("config.") == config {
                assign(workload, &mut spec, key, v)?;
            }
        }
    }
    Ok(spec)
}

fn scalar_label(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Json::Bool(b) => format!("{b}"),
        other => format!("{other:?}"),
    }
}

/// Does the cell satisfy `filter` (every filter key equal to the cell's
/// effective assignment)?
fn matches(filter: &Json, assignments: &[(&str, &Json)]) -> bool {
    filter
        .keys()
        .all(|k| lookup(assignments, k) == filter.get(k))
}

/// Read a grid spec's members and expand it.
fn expand_grid(name: &str, v: &Json) -> Result<Vec<GridRun>, String> {
    let (mut workload, mut base, mut axes) = ("", &[][..], &[][..]);
    let (mut include, mut exclude, mut replicas) = (None, &[][..], 1);
    read_object(v, "", &["workload"], |k, x| {
        match k {
            "name" | "kind" => {}
            "workload" => workload = text(x, k)?,
            "base" => base = object(x, k)?,
            "axes" => axes = object(x, k)?,
            "include" => include = Some(array(x, k)?),
            "exclude" => exclude = array(x, k)?,
            "replicas" => replicas = unsigned::<u64>(x, k)?.max(1),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    // A filter key must name a parameter a cell can be assigned, with a
    // value it can hold: a filter that can never match is a typo.
    for f in include.unwrap_or(&[]).iter().chain(exclude) {
        let (mut cell, _) = blank(workload)?;
        let mut set = |k, v| assign(workload, &mut cell, k, v).map(|()| true);
        read_object(f, "", &[], &mut set).map_err(|e| format!("filter: {e}"))?;
    }

    // Axis value lists, validated up front.
    let mut axis_values: Vec<(&str, &[Json])> = Vec::new();
    for (k, vals) in axes {
        let vals = (vals.as_arr()).ok_or_else(|| format!("axis {k:?} must be an array"))?;
        if vals.is_empty() {
            return Err(format!("axis {k:?} is empty"));
        }
        axis_values.push((k, vals));
    }

    // Cartesian product, first axis slowest, bounded before a run is
    // expanded.
    let cells = (axis_values.iter()).try_fold(1u64, |n, (_, v)| n.checked_mul(v.len() as u64));
    let runs = cells.and_then(|c| c.checked_mul(replicas));
    let (Some(cells), Some(..=MAX_GRID_RUNS)) = (cells, runs) else {
        let runs = runs.map_or("more than 2^64".into(), |n| n.to_string());
        return Err(format!(
            "the grid expands to {runs} runs ({replicas} replicas of each cell), \
             more than the {MAX_GRID_RUNS} a grid may expand to"
        ));
    };
    let mut runs = Vec::new();
    for i in 0..cells {
        let mut point: Vec<(&str, &Json)> = Vec::with_capacity(axis_values.len());
        let mut rest = i;
        for &(k, vals) in axis_values.iter().rev() {
            point.push((k, &vals[(rest % vals.len() as u64) as usize]));
            rest /= vals.len() as u64;
        }
        point.reverse();

        let mut assignments: Vec<(&str, &Json)> =
            base.iter().map(|(k, v)| (k.as_str(), v)).collect();
        assignments.extend(point.iter().copied());

        let kept = include.is_none_or(|fs| fs.iter().any(|f| matches(f, &assignments)));
        if !kept || exclude.iter().any(|f| matches(f, &assignments)) {
            continue;
        }

        let label = if point.is_empty() {
            name.to_string()
        } else {
            let parts: Vec<String> = point
                .iter()
                .map(|(k, v)| format!("{k}={}", scalar_label(v)))
                .collect();
            format!("{name}[{}]", parts.join(","))
        };
        let spec = build_run(workload, &assignments)
            .and_then(|spec| spec.check().map(|()| spec))
            .map_err(|e| format!("{label}: {e}"))?;

        // Replicas repeat the cell with seeds split off the cell's own
        // seed via the workspace-wide run_seed derivation, so replica r
        // of a cell is reproducible in isolation.
        for r in 0..replicas {
            let mut spec = spec.clone();
            let mut label = label.clone();
            if replicas > 1 {
                match &mut spec {
                    RunSpec::Barrier(b) => b.seed = run_seed(b.seed, r),
                    RunSpec::Lock(b) => b.seed = run_seed(b.seed, r),
                    _ => unreachable!("grid workloads are barrier|lock"),
                }
                label.push_str(&format!("#{r}"));
            }
            runs.push(GridRun { label, spec });
        }
    }
    Ok(runs)
}

/// Read an artifacts spec's members.
fn parse_artifacts(v: &Json) -> Result<CampaignPlan, String> {
    let (mut artifacts, mut profile) = (Vec::new(), None);
    read_object(v, "", &[], |k, x| {
        match k {
            "name" | "kind" => {}
            "artifacts" => {
                let names = array(x, k)?.iter().map(|s| text(s, "an artefact name"));
                artifacts = names
                    .map(|n| n.map(str::to_string))
                    .collect::<Result<_, _>>()?;
            }
            "profile" => profile = Some(parse_profile(x)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    check_artifact_names(&artifacts)?;
    let profile = profile.unwrap_or_else(ArtifactProfile::paper);
    Ok(CampaignPlan::Artifacts { artifacts, profile })
}

/// A profile's name, or an object overriding the paper profile's fields.
fn parse_profile(p: &Json) -> Result<ArtifactProfile, String> {
    if let Some(name) = p.as_str() {
        return ArtifactProfile::named(name);
    }
    let mut profile = ArtifactProfile::paper();
    read_object(p, "profile.", &[], |k, x| {
        let sizes =
            || -> Result<Vec<u16>, _> { array(x, k)?.iter().map(|n| unsigned(n, k)).collect() };
        match k {
            "sizes" => profile.sizes = sizes()?,
            "tree_sizes" => profile.tree_sizes = sizes()?,
            "traffic_sizes" => profile.traffic_sizes = sizes()?,
            "episodes" => profile.episodes = unsigned(x, k)?,
            "warmup" => profile.warmup = unsigned(x, k)?,
            "rounds" => profile.rounds = unsigned(x, k)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWEEP: &str = r#"{
        "schema": "amo-campaign-v1",
        "name": "sweep",
        "kind": "grid",
        "workload": "barrier",
        "base": {"mech": "AMO", "procs": 8, "episodes": 4, "warmup": 1, "seed": "0xA40_5EED"},
        "axes": {
            "mech": ["LL/SC", "AMO"],
            "config.faults.link_error_ppm": [0, 1000]
        }
    }"#;

    #[test]
    fn grid_expands_in_declaration_order() {
        let spec = CampaignSpec::parse(SWEEP).unwrap();
        assert_eq!(spec.name, "sweep");
        let CampaignPlan::Grid(runs) = spec.plan else {
            panic!("grid expected")
        };
        assert_eq!(runs.len(), 4);
        // First axis slowest: LL/SC ppm 0, LL/SC ppm 1000, AMO ppm 0, ...
        assert_eq!(
            runs[0].label,
            "sweep[mech=LL/SC,config.faults.link_error_ppm=0]"
        );
        assert_eq!(
            runs[3].label,
            "sweep[mech=AMO,config.faults.link_error_ppm=1000]"
        );
        // Distinct cells get distinct content keys; base seed applied.
        let keys: Vec<_> = runs.iter().map(|r| r.spec.key()).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        let RunSpec::Barrier(b) = &runs[0].spec else {
            panic!()
        };
        assert_eq!(b.seed, 0xA40_5EED);
        assert_eq!(b.episodes, 4);
        // ppm=0 normalizes to the same key as no override at all.
        let plain = RunSpec::Barrier(BarrierBench {
            episodes: 4,
            warmup: 1,
            seed: 0xA40_5EED,
            ..BarrierBench::paper(Mechanism::LlSc, 8)
        });
        assert_eq!(runs[0].spec.key(), plain.key());
    }

    #[test]
    fn exclude_and_include_filter_cells() {
        let doc = SWEEP.replace(
            "\"axes\"",
            "\"exclude\": [{\"mech\": \"LL/SC\", \"config.faults.link_error_ppm\": 1000}], \"axes\"",
        );
        let CampaignPlan::Grid(runs) = CampaignSpec::parse(&doc).unwrap().plan else {
            panic!()
        };
        assert_eq!(runs.len(), 3, "one cell excluded");
        assert!(runs
            .iter()
            .all(|r| r.label != "sweep[mech=LL/SC,config.faults.link_error_ppm=1000]"));

        let doc = SWEEP.replace("\"axes\"", "\"include\": [{\"mech\": \"AMO\"}], \"axes\"");
        let CampaignPlan::Grid(runs) = CampaignSpec::parse(&doc).unwrap().plan else {
            panic!()
        };
        assert_eq!(runs.len(), 2, "only AMO cells kept");
    }

    #[test]
    fn replicas_split_seeds_deterministically() {
        let doc = SWEEP.replace("\"axes\"", "\"replicas\": 3, \"axes\"");
        let CampaignPlan::Grid(runs) = CampaignSpec::parse(&doc).unwrap().plan else {
            panic!()
        };
        assert_eq!(runs.len(), 12);
        let seeds: Vec<u64> = runs[..3]
            .iter()
            .map(|r| match &r.spec {
                RunSpec::Barrier(b) => b.seed,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seeds[0], run_seed(0xA40_5EED, 0));
        assert_eq!(seeds[1], run_seed(0xA40_5EED, 1));
        assert_ne!(seeds[0], seeds[1]);
        assert!(runs[0].label.ends_with("#0") && runs[2].label.ends_with("#2"));
    }

    #[test]
    fn lock_grids_and_config_paths_work() {
        let doc = r#"{
            "schema": "amo-campaign-v1",
            "name": "locks",
            "kind": "grid",
            "workload": "lock",
            "base": {"mech": "AMO", "procs": 8, "rounds": 4, "kind": "mcs",
                     "config.network.hop_latency": 20},
            "axes": {}
        }"#;
        let CampaignPlan::Grid(runs) = CampaignSpec::parse(doc).unwrap().plan else {
            panic!()
        };
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].label, "locks");
        let RunSpec::Lock(b) = &runs[0].spec else {
            panic!()
        };
        assert_eq!(b.kind, LockKind::Mcs);
        assert_eq!(b.config.unwrap().network.hop_latency, 20);
    }

    #[test]
    fn artifacts_plans_parse() {
        let doc = r#"{
            "schema": "amo-campaign-v1",
            "name": "tables",
            "kind": "artifacts",
            "artifacts": ["table2", "figure5"],
            "profile": {"sizes": [4, 8], "episodes": 5, "warmup": 1}
        }"#;
        let CampaignPlan::Artifacts { artifacts, profile } = CampaignSpec::parse(doc).unwrap().plan
        else {
            panic!()
        };
        assert_eq!(artifacts, ["table2", "figure5"]);
        assert_eq!(profile.sizes, [4, 8]);
        assert_eq!(profile.episodes, 5);
        assert_eq!(profile.rounds, 8, "unset fields keep paper defaults");
    }

    #[test]
    fn bad_specs_are_rejected() {
        for (doc, why) in [
            ("{}", "missing schema"),
            (
                r#"{"schema": "amo-campaign-v1", "name": "x", "kind": "nope"}"#,
                "bad kind",
            ),
            (
                r#"{"schema": "amo-campaign-v1", "name": "x", "kind": "grid",
                    "workload": "barrier", "base": {"mech": "AMO", "procs": 4, "bogus": 1}}"#,
                "unknown parameter",
            ),
            (
                r#"{"schema": "amo-campaign-v1", "name": "x", "kind": "grid",
                    "workload": "barrier", "base": {"mech": "AMO"}}"#,
                "missing procs",
            ),
            (
                r#"{"schema": "amo-campaign-v1", "name": "x", "kind": "artifacts",
                    "artifacts": ["table2", "tabel2"]}"#,
                "unknown artefact name",
            ),
            (
                r#"{"schema": "amo-campaign-v1", "name": "x", "kind": "artifacts",
                    "profile": "papr"}"#,
                "unknown profile",
            ),
        ] {
            assert!(CampaignSpec::parse(doc).is_err(), "{why}");
        }

        // A cell that cannot run fails the parse, labelled, instead of
        // panicking the campaign (or, for `65540`, running as 4 procs).
        for (workload, base, why) in [
            ("barrier", r#""procs": 5"#, "num_procs = 5"),
            (
                "barrier",
                r#""procs": 8, "config.l1.line_bytes": 48"#,
                "l1.line_bytes = 48",
            ),
            (
                "barrier",
                r#""procs": 8, "episodes": 3, "warmup": 5"#,
                "warmup = 5",
            ),
            (
                "barrier",
                r#""procs": 8, "config.num_procs": 16"#,
                "config.num_procs = 16, procs = 8",
            ),
            (
                "lock",
                r#""procs": 1, "kind": "array", "config.procs_per_node": 1,
                   "config.num_procs": 1"#,
                "kind array needs at least 2 slots",
            ),
            (
                "barrier",
                r#""procs": 65540"#,
                "procs: 65540 does not fit u16",
            ),
            (
                "barrier",
                r#""procs": 8, "episodes": 4294967296"#,
                "does not fit u32",
            ),
        ] {
            let doc = format!(
                r#"{{"schema": "amo-campaign-v1", "name": "x", "kind": "grid",
                    "workload": "{workload}", "base": {{{base}}},
                    "axes": {{"mech": ["AMO"]}}}}"#
            );
            let err = CampaignSpec::parse(&doc).unwrap_err();
            assert!(err.starts_with("spec: x[mech=AMO]: "), "{err}");
            assert!(err.contains(why), "{err} lacks {why:?}");
        }
    }

    /// A misspelt member is refused by name wherever it stands, and a
    /// grid that would expand past its bound is refused before it is.
    #[test]
    fn misspelt_members_and_oversized_grids_are_refused() {
        for (from, to, why) in [
            (
                "\"axes\"",
                "\"replica\": 3, \"axes\"",
                "unknown member \"replica\"",
            ),
            (
                "\"axes\"",
                "\"profile\": \"quick\", \"axes\"",
                "unknown member \"profile\"",
            ),
            (
                "\"axes\"",
                "\"exclude\": [{\"episode\": 2}], \"axes\"",
                "filter: unknown barrier parameter \"episode\"",
            ),
            (
                "\"axes\"",
                "\"include\": [{\"config.faults.link_error\": 2}], \"axes\"",
                "unknown SystemConfig field `faults.link_error`",
            ),
            (
                "\"axes\"",
                "\"replicas\": 1099511627776, \"axes\"",
                "expands to 4398046511104 runs (1099511627776 replicas of each cell), \
                 more than the 65536",
            ),
            (
                "\"axes\"",
                "\"replicas\": 9223372036854775808, \"axes\"",
                "expands to more than 2^64 runs",
            ),
            (
                "\"warmup\": 1",
                "\"warmup\": 1, \"style\": \"Naive\"",
                "unknown barrier parameter \"style\"",
            ),
        ] {
            let doc = SWEEP.replace(from, to);
            let err = CampaignSpec::parse(&doc).unwrap_err();
            assert!(err.contains(why), "{err} lacks {why:?}");
        }
        let doc = SWEEP.replace("\"axes\"", "\"replicas\": 16384, \"axes\"");
        assert!(
            CampaignSpec::parse(&doc).is_ok(),
            "4 × 16384 runs is the bound"
        );
        // Both number forms read everywhere; a lock grid names its own
        // members and a barrier's are unknown to it.
        let lock = r#"{"schema": "amo-campaign-v1", "name": "l", "kind": "grid", "workload": "lock",
            "base": {"mech": "AMO", "procs": "0x8", "cs_cycles": "0x1_0", "max_think": 7}}"#;
        let CampaignPlan::Grid(runs) = CampaignSpec::parse(lock).unwrap().plan else {
            panic!()
        };
        let RunSpec::Lock(b) = &runs[0].spec else {
            panic!()
        };
        assert_eq!((b.procs, b.cs_cycles, b.max_think), (8, 16, 7));
        let err = CampaignSpec::parse(&lock.replace("max_think", "max_skew")).unwrap_err();
        assert!(err.contains("unknown lock parameter \"max_skew\""), "{err}");
    }
}
