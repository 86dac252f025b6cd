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
use crate::model::VerifyModel;
use amo_campaign::ResultCache;
use amo_types::jsonv::{array, document, read_object, unsigned, Json};
use amo_types::seed::stable_hash128;
use amo_types::JsonWriter;

/// Schema tag of a matrix spec.
pub(crate) const MATRIX_SCHEMA: &str = "amo-verify-matrix-v1";
/// Schema tag of a cached cell summary.
pub(crate) const CELL_SCHEMA: &str = "amo-verify-cell-v1";
/// Blob kind cells are cached under.
pub(crate) const CACHE_KIND: &str = "verify";

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
    pub(crate) fn key(&self) -> (u64, u64) {
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
        let cell = &self.model.cell;
        format!("{} {} x{}", cell.mech().label(), cell.tag(), cell.procs())
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
    /// overrides them. A cell is a model ([`VerifyModel`]'s own reader)
    /// plus `max_runs`.
    pub fn from_json(doc: &str) -> Result<VerifyMatrix, String> {
        let v = document(doc, MATRIX_SCHEMA).map_err(|e| format!("matrix: {e}"))?;
        let (mut runs, mut horizon, mut cells) = (None, None, None);
        read_object(&v, "", &["cells"], |k, x| {
            match k {
                "max_runs" => runs = Some(unsigned(x, k)?),
                "max_choice_points" => horizon = Some(unsigned(x, k)?),
                "cells" => cells = Some(array(x, k)?),
                _ => return Ok(false),
            }
            Ok(true)
        })
        .map_err(|e| format!("matrix: {e}"))?;
        let cells = cells.unwrap_or_default();
        let mut out = Vec::with_capacity(cells.len());
        for (i, c) in cells.iter().enumerate() {
            let mut limits = ExploreLimits::default();
            limits.max_runs = runs.unwrap_or(limits.max_runs);
            let model = VerifyModel::from_json(c, horizon, |k, x| {
                let ours = k == "max_runs";
                if ours {
                    limits.max_runs = unsigned(x, k)?;
                }
                Ok(ours)
            });
            let model = model.map_err(|e| format!("cell {i}: {e}"))?;
            out.push(MatrixCell { model, limits });
        }
        Ok(VerifyMatrix { cells: out })
    }
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
            // Only a cached run needs the cell's key.
            let cached = cache.map(|c| (c, cell.key()));
            if let Some((c, key)) = cached {
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
            if let Some((c, key)) = cached {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelCell;
    use amo_campaign::chaos::chaos_bench;
    use amo_campaign::{DeliveryPlan, PlanDoc};
    use amo_sync::Mechanism;
    use amo_types::seed::key_hex;

    fn matrix(cell: &str) -> Result<VerifyMatrix, String> {
        VerifyMatrix::from_json(&format!(
            r#"{{"schema":"amo-verify-matrix-v1","max_runs":50,"max_choice_points":6,
                "cells":[{{"mech":"AMO","workload":"ticket-lock","procs":2{cell}}}]}}"#
        ))
    }

    /// A cell sets every model field (the matrix used to drop three of
    /// them silently), top-level defaults fill only what it leaves out,
    /// and unknown or out-of-range members are refused by name.
    #[test]
    fn cells_accept_every_model_field_and_reject_unknown_ones() {
        let plain = &matrix("").unwrap().cells[0];
        assert_eq!(plain.limits.max_runs, 50);
        assert_eq!(plain.model.max_choice_points, 6);
        assert_eq!(plain.label(), "AMO ticket-lock x2");

        let cell = &matrix(
            r#","rounds":2,"skew_choices":3,"skew_step":9,"reorder_window":1,
               "explore_dups":true,"jitter_choices":2,"max_choice_points":4,
               "watchdog":99999,"planted_double_apply":true,"max_runs":7"#,
        )
        .unwrap()
        .cells[0];
        let mut want = VerifyModel {
            skew_choices: 3,
            skew_step: 9,
            reorder_window: 1,
            explore_dups: true,
            jitter_choices: 2,
            max_choice_points: 4,
            planted_double_apply: true,
            ..VerifyModel::new(ModelCell::new("ticket-lock", Mechanism::Amo, 2).unwrap())
        };
        if let ModelCell::Lock(l) = &mut want.cell {
            (l.rounds, l.watchdog) = (2, 99_999);
        }
        assert_eq!((cell.model, cell.limits.max_runs), (want, 7));

        for (cell, needle) in [
            (r#","bogus":7"#, "\"bogus\""),
            (r#","episodes":2"#, "\"episodes\""),
            (r#","skew_choices":70000"#, "70000 does not fit u16"),
            (r#","rounds":0"#, "rounds = 0"),
            (r#","max_runs":"many""#, "max_runs"),
        ] {
            let err = matrix(cell).unwrap_err();
            assert!(err.starts_with("cell 0: "), "{err}");
            assert!(err.contains(needle), "{cell}: {err}");
        }
        let wide = VerifyMatrix::from_json(
            r#"{"schema":"amo-verify-matrix-v1","cells":[{"mech":"AMO","workload":"barrier","procs":65538}]}"#,
        );
        assert!(wide.unwrap_err().contains("procs: 65538 does not fit u16"));
    }

    /// A misspelt top-level member is refused, not ignored, and every
    /// number reads in either form.
    #[test]
    fn top_level_members_are_checked_and_numbers_read_as_hex() {
        let doc = r#"{"schema":"amo-verify-matrix-v1","max_run":1,"cells":[]}"#;
        let err = VerifyMatrix::from_json(doc).unwrap_err();
        assert_eq!(err, "matrix: unknown member \"max_run\"");
        let cell = &matrix(r#","watchdog":"0x10","max_runs":"0x20""#)
            .unwrap()
            .cells[0];
        assert!(matches!(cell.model.cell, ModelCell::Lock(l) if l.watchdog == 16));
        assert_eq!(cell.limits.max_runs, 32);
        let err = VerifyMatrix::from_json(r#"{"schema":"amo-verify-matrix-v1"}"#).unwrap_err();
        assert_eq!(err, "matrix: missing cells");
    }

    /// The soundness bug: a planted double apply used to be parsed away
    /// and the cell reported clean.
    #[test]
    fn a_planted_bug_in_a_cell_is_explored_not_dropped() {
        let m = matrix(r#","rounds":1,"explore_dups":true,"planted_double_apply":true"#).unwrap();
        let outcomes = run_matrix(&m, None);
        assert_eq!(outcomes[0].violations, 1, "{outcomes:?}");
    }

    /// The content keys every cache entry, schedule document and fault
    /// plan is filed under, as the committed matrix, the default model
    /// and one plan read before their descriptions became campaign
    /// cells: a change that moves one orphans what was stored under it.
    #[test]
    fn content_keys_are_pinned() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../specs/verify-matrix.json"
        );
        let spec = std::fs::read_to_string(path).unwrap();
        let keys: Vec<_> = VerifyMatrix::from_json(&spec)
            .unwrap()
            .cells
            .iter()
            .map(|c| (c.label(), key_hex(c.key())))
            .collect();
        let want = [
            ("AMO barrier x2", "c3d310464427b0c94e86a534b4fd10b6"),
            ("AMO ticket-lock x2", "76f2440cee4f28125acdf1ce1f8a2c09"),
            ("MAO barrier x2", "a0aa5b52d7c9f2c16c75189e7ca6f45e"),
            ("MAO ticket-lock x2", "233bd1a7ba89b6da2e7d69d938afd3c1"),
            ("LL/SC barrier x2", "c50731662f467b855f785bd040857c3e"),
            ("LL/SC ticket-lock x2", "9d63b3b2005f9b26ffb93ac35f750ba1"),
        ];
        let want: Vec<_> = want.map(|(l, k)| (l.to_string(), k.to_string())).into();
        assert_eq!(keys, want);
        assert_eq!(
            key_hex(VerifyModel::default().key()),
            "66ef122b0816fb0d04255f9a25049ce8"
        );
        let plan = DeliveryPlan {
            drop_ppm: 400_000,
            dup_ppm: 20_000,
            reorder_window: 32,
            e2e_timeout: 5_000,
            max_e2e_retries: 1,
            seed: 0xDEAD_BEEF_0123_4567,
        };
        let doc = PlanDoc::new(&chaos_bench(), plan, "RequestTimedOut");
        assert_eq!(doc.fingerprint, "1a5506ad4d31c1625978bbcdee5149bd");
    }
}
