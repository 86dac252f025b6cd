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
use crate::run::RunSpec;
use amo_sync::Mechanism;
use amo_types::jsonv::{narrow, Json};
use amo_types::seed::run_seed;
use amo_types::SystemConfig;
use amo_workloads::runner::{BarrierAlgo, BarrierBench, LockBench, LockKind, SkewMode};

/// Schema tag a campaign spec must carry.
pub(crate) const SPEC_SCHEMA: &str = "amo-campaign-v1";

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
        let v = Json::parse(doc)?;
        match v.get("schema").and_then(|s| s.as_str()) {
            Some(SPEC_SCHEMA) => {}
            other => return Err(format!("bad schema {other:?}, want {SPEC_SCHEMA:?}")),
        }
        let name = v
            .get("name")
            .and_then(|s| s.as_str())
            .ok_or("missing name")?
            .to_string();
        let plan = match v.get("kind").and_then(|s| s.as_str()) {
            Some("grid") => CampaignPlan::Grid(expand_grid(&name, &v)?),
            Some("artifacts") => parse_artifacts(&v)?,
            other => return Err(format!("bad kind {other:?}")),
        };
        Ok(CampaignSpec { name, plan })
    }
}

fn obj_entries<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    match v {
        Json::Obj(m) => Ok(m),
        _ => Err(format!("{what} must be an object")),
    }
}

/// Decode an unsigned integer field of type `T`, range-checked.
fn parse_num<T: TryFrom<u64>>(v: &Json, what: &str) -> Result<T, String> {
    if let Some(n) = v.as_u64() {
        return narrow(what, n);
    }
    // Seeds read better in hex; accept "0x..." strings too.
    if let Some(s) = v.as_str() {
        if let Some(hex) = s.strip_prefix("0x") {
            let n = u64::from_str_radix(&hex.replace('_', ""), 16);
            return narrow(what, n.map_err(|e| format!("{what}: {e}"))?);
        }
    }
    Err(format!("{what} must be an unsigned integer"))
}

/// Decode a string-tagged enum field through the type's own `parse`.
fn parse_tag<T>(v: &Json, what: &str, parse: fn(&str) -> Result<T, String>) -> Result<T, String> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("{what} must be a string"))?;
    parse(s)
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

/// Build one run from an assignment list (`base` entries first, then
/// the axis point's).
fn build_run(workload: &str, assignments: &[(&str, &Json)]) -> Result<RunSpec, String> {
    let procs = parse_num(
        lookup(assignments, "procs").ok_or("grid cell missing procs")?,
        "procs",
    )?;
    let mech = parse_tag(
        lookup(assignments, "mech").ok_or("grid cell missing mech")?,
        "mech",
        Mechanism::parse,
    )?;
    let mut cfg = SystemConfig::with_procs(procs);
    let mut cfg_touched = false;
    match workload {
        "barrier" => {
            let mut b = BarrierBench::paper(mech, procs);
            for &(key, v) in assignments {
                match key {
                    "mech" | "procs" => {}
                    "episodes" => b.episodes = parse_num(v, key)?,
                    "warmup" => b.warmup = parse_num(v, key)?,
                    "algo" => b.algo = parse_tag(v, key, BarrierAlgo::parse)?,
                    "max_skew" => b.max_skew = parse_num(v, key)?,
                    "skew" => b.skew = parse_tag(v, key, SkewMode::parse)?,
                    "seed" => b.seed = parse_num(v, key)?,
                    "watchdog" => b.watchdog = parse_num(v, key)?,
                    _ if key.starts_with("config.") => {
                        cfg.set_field(&key["config.".len()..], parse_num(v, key)?)?;
                        cfg_touched = true;
                    }
                    _ => return Err(format!("unknown barrier parameter {key:?}")),
                }
            }
            if cfg_touched {
                b.config = Some(cfg);
            }
            Ok(RunSpec::Barrier(b))
        }
        "lock" => {
            let kind = match lookup(assignments, "kind") {
                Some(v) => parse_tag(v, "kind", LockKind::parse)?,
                None => LockKind::Ticket,
            };
            let mut b = LockBench::paper(mech, kind, procs);
            for &(key, v) in assignments {
                match key {
                    "mech" | "procs" | "kind" => {}
                    "rounds" => b.rounds = parse_num(v, key)?,
                    "cs_cycles" => b.cs_cycles = parse_num(v, key)?,
                    "max_think" => b.max_think = parse_num(v, key)?,
                    "seed" => b.seed = parse_num(v, key)?,
                    "watchdog" => b.watchdog = parse_num(v, key)?,
                    _ if key.starts_with("config.") => {
                        cfg.set_field(&key["config.".len()..], parse_num(v, key)?)?;
                        cfg_touched = true;
                    }
                    _ => return Err(format!("unknown lock parameter {key:?}")),
                }
            }
            if cfg_touched {
                b.config = Some(cfg);
            }
            Ok(RunSpec::Lock(b))
        }
        other => Err(format!("unknown workload {other:?} (barrier, lock)")),
    }
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

/// Does `cell` satisfy `filter` (every filter key equal to the cell's
/// effective assignment)?
fn matches(filter: &Json, assignments: &[(&str, &Json)]) -> Result<bool, String> {
    for (k, want) in obj_entries(filter, "filter entry")? {
        match lookup(assignments, k) {
            Some(have) if have == want => {}
            _ => return Ok(false),
        }
    }
    Ok(true)
}

fn expand_grid(name: &str, v: &Json) -> Result<Vec<GridRun>, String> {
    let workload = v
        .get("workload")
        .and_then(|s| s.as_str())
        .ok_or("grid missing workload")?;
    let empty = Json::Obj(Vec::new());
    let base = obj_entries(v.get("base").unwrap_or(&empty), "base")?;
    let axes = obj_entries(v.get("axes").unwrap_or(&empty), "axes")?;
    let include = match v.get("include") {
        Some(f) => Some(f.as_arr().ok_or("include must be an array")?),
        None => None,
    };
    let exclude = match v.get("exclude") {
        Some(f) => f.as_arr().ok_or("exclude must be an array")?,
        None => &[],
    };
    let replicas = match v.get("replicas") {
        Some(r) => parse_num::<u64>(r, "replicas")?.max(1),
        None => 1,
    };

    // Axis value lists, validated up front.
    let mut axis_values: Vec<(&str, &[Json])> = Vec::new();
    for (k, vals) in axes {
        let vals = vals
            .as_arr()
            .ok_or_else(|| format!("axis {k:?} must be an array"))?;
        if vals.is_empty() {
            return Err(format!("axis {k:?} is empty"));
        }
        axis_values.push((k, vals));
    }

    // Cartesian product, first axis slowest.
    let cells: u64 = axis_values.iter().map(|(_, v)| v.len() as u64).product();
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

        if let Some(filters) = include {
            let mut keep = false;
            for f in filters {
                if matches(f, &assignments)? {
                    keep = true;
                    break;
                }
            }
            if !keep {
                continue;
            }
        }
        let mut dropped = false;
        for f in exclude {
            if matches(f, &assignments)? {
                dropped = true;
                break;
            }
        }
        if dropped {
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

fn parse_artifacts(v: &Json) -> Result<CampaignPlan, String> {
    let artifacts = match v.get("artifacts") {
        Some(a) => a
            .as_arr()
            .ok_or("artifacts must be an array")?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "artifact names must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    check_artifact_names(&artifacts)?;
    let profile = match v.get("profile") {
        None => ArtifactProfile::paper(),
        Some(p) => match p.as_str() {
            Some(name) => ArtifactProfile::named(name)?,
            None => {
                // An object overrides individual fields of the paper
                // profile.
                let mut profile = ArtifactProfile::paper();
                for (k, val) in obj_entries(p, "profile")? {
                    let sizes = |v: &Json| -> Result<Vec<u16>, String> {
                        v.as_arr()
                            .ok_or_else(|| format!("profile {k} must be an array"))?
                            .iter()
                            .map(|n| parse_num(n, k))
                            .collect()
                    };
                    match k.as_str() {
                        "sizes" => profile.sizes = sizes(val)?,
                        "tree_sizes" => profile.tree_sizes = sizes(val)?,
                        "traffic_sizes" => profile.traffic_sizes = sizes(val)?,
                        "episodes" => profile.episodes = parse_num(val, k)?,
                        "warmup" => profile.warmup = parse_num(val, k)?,
                        "rounds" => profile.rounds = parse_num(val, k)?,
                        other => return Err(format!("unknown profile field {other:?}")),
                    }
                }
                profile
            }
        },
    };
    Ok(CampaignPlan::Artifacts { artifacts, profile })
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
}
