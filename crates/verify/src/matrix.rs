//! Verification matrices (`amo-verify-matrix-v1`) through the
//! campaign result cache.
//!
//! A matrix is a declarative list of [`VerifyModel`] cells — the
//! committed `specs/verify-matrix.json` covers {AMO, MAO, LL/SC} ×
//! {barrier, ticket lock} small models. Each cell's exploration is
//! content-addressed exactly like a campaign run: the cell key is the
//! stable hash of the model's canonical document plus the search
//! limits, and the finished [`ExploreReport`] summary is stored as an
//! `amo-verify-cell-v1` blob in the shared
//! [`ResultCache`]. A warm re-run of a matrix
//! explores nothing.

use crate::explore::{explore, ExploreLimits, ExploreReport};
use crate::model::{VerifyModel, VerifyWorkload};
use amo_campaign::ResultCache;
use amo_sync::Mechanism;
use amo_types::jsonv::Json;
use amo_types::seed::stable_hash128;
use amo_types::{Cycle, JsonWriter};

/// Schema tag of a matrix spec.
pub const MATRIX_SCHEMA: &str = "amo-verify-matrix-v1";
/// Schema tag of a cached cell summary.
pub const CELL_SCHEMA: &str = "amo-verify-cell-v1";
/// Blob kind cells are cached under.
pub const CACHE_KIND: &str = "verify";

/// One matrix cell: a model and its search limits.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// The model to explore.
    pub model: VerifyModel,
    /// Search bounds for this cell.
    pub limits: ExploreLimits,
}

impl MatrixCell {
    /// The cell's content address: model canonical doc + limits.
    pub fn key(&self) -> (u64, u64) {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("model");
        w.raw_val(&self.model.canonical_doc());
        w.kv_u64("max_runs", self.limits.max_runs);
        w.kv_u64(
            "max_counterexamples",
            self.limits.max_counterexamples as u64,
        );
        w.kv_u64("max_shrink_probes", self.limits.max_shrink_probes as u64);
        w.end_obj();
        stable_hash128(w.finish().as_bytes())
    }

    /// Human-readable cell label for reports.
    pub fn label(&self) -> String {
        format!(
            "{} {} x{}",
            self.model.mech.label(),
            self.model.workload.tag(),
            self.model.procs
        )
    }
}

/// A parsed verification matrix.
#[derive(Clone, Debug)]
pub struct VerifyMatrix {
    /// Cells, in spec order.
    pub cells: Vec<MatrixCell>,
}

impl VerifyMatrix {
    /// Parse an `amo-verify-matrix-v1` spec. Top-level `max_runs` /
    /// `max_choice_points` apply to every cell unless the cell
    /// overrides them.
    pub fn from_json(doc: &str) -> Result<VerifyMatrix, String> {
        let v = Json::parse(doc).map_err(|e| format!("matrix: {e}"))?;
        match v.get("schema").and_then(|s| s.as_str()) {
            Some(MATRIX_SCHEMA) => {}
            other => {
                return Err(format!(
                    "matrix: bad schema {other:?}, want {MATRIX_SCHEMA:?}"
                ))
            }
        }
        let top_runs = v.get("max_runs").and_then(|n| n.as_u64());
        let top_horizon = v.get("max_choice_points").and_then(|n| n.as_u64());
        let cells = v
            .get("cells")
            .and_then(|c| c.as_arr())
            .ok_or("matrix: missing cells")?;
        let mut out = Vec::with_capacity(cells.len());
        for (i, c) in cells.iter().enumerate() {
            out.push(parse_cell(c, top_runs, top_horizon).map_err(|e| format!("cell {i}: {e}"))?);
        }
        Ok(VerifyMatrix { cells: out })
    }
}

fn parse_cell(
    c: &Json,
    top_runs: Option<u64>,
    top_horizon: Option<u64>,
) -> Result<MatrixCell, String> {
    let num = |k: &str| c.get(k).and_then(|n| n.as_u64());
    let mech = Mechanism::parse(
        c.get("mech")
            .and_then(|s| s.as_str())
            .ok_or("missing mech")?,
    )?;
    let procs = num("procs").ok_or("missing procs")? as u16;
    let workload = match c.get("workload").and_then(|s| s.as_str()) {
        Some("barrier") => VerifyWorkload::Barrier {
            episodes: num("episodes").unwrap_or(2) as u32,
        },
        Some("ticket-lock") => VerifyWorkload::TicketLock {
            rounds: num("rounds").unwrap_or(1) as u32,
        },
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut model = VerifyModel::new(mech, workload, procs);
    if let Some(n) = num("skew_choices") {
        model.skew_choices = n as u16;
    }
    if let Some(n) = num("skew_step") {
        model.skew_step = n as Cycle;
    }
    if let Some(n) = num("reorder_window") {
        model.reorder_window = n as Cycle;
    }
    if let Some(n) = num("max_choice_points").or(top_horizon) {
        model.max_choice_points = n as u32;
    }
    if let Some(n) = num("watchdog") {
        model.watchdog = n as Cycle;
    }
    let mut limits = ExploreLimits::default();
    if let Some(n) = num("max_runs").or(top_runs) {
        limits.max_runs = n;
    }
    Ok(MatrixCell { model, limits })
}

/// One cell's result, possibly served from the cache.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Cell label (`"AMO barrier x4"`).
    pub label: String,
    /// Schedules executed (or recorded, when cached).
    pub schedules: u64,
    /// Distinct outcome fingerprints.
    pub distinct: u64,
    /// Violating schedule classes found.
    pub violations: u64,
    /// True if the search hit its run bound.
    pub truncated: bool,
    /// True if the summary came from the result cache.
    pub cached: bool,
}

fn cell_summary_json(r: &ExploreReport) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.kv_str("schema", CELL_SCHEMA);
    w.kv_u64("schedules", r.schedules);
    w.kv_u64("distinct", r.distinct);
    w.kv_u64("violations", r.violations());
    w.key("truncated");
    w.bool_val(r.truncated);
    w.end_obj();
    w.finish()
}

fn parse_cell_summary(doc: &str) -> Option<(u64, u64, u64, bool)> {
    let v = Json::parse(doc).ok()?;
    if v.get("schema")?.as_str()? != CELL_SCHEMA {
        return None;
    }
    Some((
        v.get("schedules")?.as_u64()?,
        v.get("distinct")?.as_u64()?,
        v.get("violations")?.as_u64()?,
        v.get("truncated")?.as_bool()?,
    ))
}

/// Run every cell of a matrix, serving warm cells from `cache` and
/// storing cold ones into it. Cells run in spec order; the report is
/// deterministic either way because explorations are.
pub fn run_matrix(matrix: &VerifyMatrix, cache: Option<&ResultCache>) -> Vec<CellOutcome> {
    matrix
        .cells
        .iter()
        .map(|cell| {
            let key = cell.key();
            if let Some(c) = cache {
                if let Some((schedules, distinct, violations, truncated)) = c
                    .get_blob(CACHE_KIND, key)
                    .as_deref()
                    .and_then(parse_cell_summary)
                {
                    return CellOutcome {
                        label: cell.label(),
                        schedules,
                        distinct,
                        violations,
                        truncated,
                        cached: true,
                    };
                }
            }
            let report = explore(&cell.model, &cell.limits);
            if let Some(c) = cache {
                // Cache-store failures degrade to a cold cell next time.
                let _ = c.put_blob(CACHE_KIND, key, &cell_summary_json(&report));
            }
            CellOutcome {
                label: cell.label(),
                schedules: report.schedules,
                distinct: report.distinct,
                violations: report.violations(),
                truncated: report.truncated,
                cached: false,
            }
        })
        .collect()
}

/// Render matrix outcomes as `amo verify --matrix`'s JSON report. The
/// top-level `"violations"` field is the total across cells — CI greps
/// it for `"violations": 0`.
pub fn render_matrix_report(outcomes: &[CellOutcome]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.kv_str("schema", "amo-verify-report-v1");
    w.kv_u64("cells", outcomes.len() as u64);
    w.kv_u64(
        "violations",
        outcomes.iter().map(|o| o.violations).sum::<u64>(),
    );
    w.key("results");
    w.begin_arr();
    for o in outcomes {
        w.begin_obj();
        w.kv_str("cell", &o.label);
        w.kv_u64("schedules", o.schedules);
        w.kv_u64("distinct", o.distinct);
        w.kv_u64("violations", o.violations);
        w.key("truncated");
        w.bool_val(o.truncated);
        w.key("cached");
        w.bool_val(o.cached);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}
