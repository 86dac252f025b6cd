//! `verify_matrix`: the committed verification matrix, explored
//! uncached — hundreds of two-processor machines built, run under the
//! monitor tracer and torn down. Construction cost and observer cost
//! dominate here and nowhere else.

use crate::catalog::{Metrics, Scale};
use crate::measure::{floor_ns_per, section, Section};
use crate::trace::Trace;
use crate::{embedded, Env};
use amo_bench::timed;
use amo_types::Json;
use amo_verify::{explore, run_matrix, CellOutcome, VerifyMatrix};

/// The matrix spec, relative to the repository root.
pub const MATRIX_SPEC: &str = "specs/verify-matrix.json";

/// Read and parse the matrix: this workload's set-up. Returns the
/// matrix and the seconds it took.
pub fn setup(env: &Env) -> Result<(VerifyMatrix, f64), String> {
    let (m, secs) = timed(|| {
        let doc = env.read(MATRIX_SPEC)?;
        VerifyMatrix::from_json(&doc).map_err(|e| format!("{MATRIX_SPEC}: {e}"))
    });
    Ok((m?, secs))
}

/// One rep: `passes` uncached passes over the matrix as the timed
/// section. Returns every pass's outcomes.
pub fn rep(matrix: &VerifyMatrix, passes: u32) -> (Vec<Vec<CellOutcome>>, Section) {
    section(|| (0..passes).map(|_| run_matrix(matrix, None)).collect())
}

/// One pass with allocation counting on; its time is not measured.
pub fn counted_pass(matrix: &VerifyMatrix) -> (Vec<CellOutcome>, u64) {
    crate::alloc::counted(|| run_matrix(matrix, None))
}

/// Schedules explored in one pass.
pub fn schedules(pass: &[CellOutcome]) -> u64 {
    pass.iter().map(|o| o.schedules).sum()
}

/// Failed checks of one pass (empty = correct): a monitor violation, a
/// cached cell in an uncached run, or a schedule / distinct-outcome
/// count off its pin (the matrix is the same at every seed and size).
pub fn failures(pass: &[CellOutcome]) -> Vec<String> {
    let mut out = Vec::new();
    let want = embedded(crate::EXPECTED_JSON);
    let pins = want
        .get("verify_matrix")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    if pins.len() != pass.len() {
        out.push(format!("{} cells, pinned {}", pass.len(), pins.len()));
    }
    for (o, pin) in pass.iter().zip(pins) {
        if o.violations > 0 {
            out.push(format!("{}: {} violations", o.label, o.violations));
        }
        if o.cached {
            out.push(format!("{}: served from a cache", o.label));
        }
        let num = |k: &str| pin.get(k).and_then(Json::as_u64);
        let label = pin.get("cell").and_then(Json::as_str);
        if label != Some(&o.label)
            || num("schedules") != Some(o.schedules)
            || num("distinct") != Some(o.distinct)
        {
            out.push(format!(
                "{}: {} schedules / {} distinct, pinned {:?}: {:?} / {:?}",
                o.label,
                o.schedules,
                o.distinct,
                label,
                num("schedules"),
                num("distinct")
            ));
        }
    }
    out
}

/// The traced pass: one `explore` span per cell under a `matrix` span.
/// Returns `(schedules, distinct)` summed over cells and the matrix
/// span's index.
pub fn traced_pass(matrix: &VerifyMatrix, trace: &mut Trace) -> ((u64, u64), usize) {
    trace.scope("matrix", |t| {
        let mut totals = (0, 0);
        for cell in &matrix.cells {
            let (report, _) = t.scope(&format!("explore:{}", cell.label()), |_| {
                explore(&cell.model, &cell.limits)
            });
            totals.0 += report.schedules;
            totals.1 += report.distinct;
        }
        totals
    })
}

/// Drivers: one default-schedule `run_once` per cell (machine build +
/// monitored run + teardown) against its unmonitored twin. Returns the
/// mean `run_once` microseconds.
pub fn drivers(m: &mut Metrics, matrix: &VerifyMatrix, sc: &Scale) -> f64 {
    // Enough schedules per timing that a rep is milliseconds, not one
    // 100 µs run.
    let rounds = (20 / sc.driver_shrink).max(1);
    let per = rounds * matrix.cells.len() as u64;
    let monitored = floor_ns_per(sc.driver_reps, per, || {
        for _ in 0..rounds {
            for cell in &matrix.cells {
                std::hint::black_box(cell.model.run_once(&[]));
            }
        }
    });
    let bare = floor_ns_per(sc.driver_reps, per, || {
        for _ in 0..rounds {
            for cell in &matrix.cells {
                std::hint::black_box(cell.model.run_unmonitored(&[]));
            }
        }
    });
    m.set("verify.run_once_us", monitored / 1e3);
    m.set_ratio("obs.monitor_overhead_pct", 100.0 * (monitored - bare), bare);
    monitored / 1e3
}
