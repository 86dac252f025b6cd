//! `paper_cold` and `paper_warm`: the campaign spec through `Campaign`
//! against an empty, then a filled, result cache — plus the accuracy
//! figure against the paper's own tables and the campaign layer's
//! drivers.

use crate::catalog::{Metrics, Scale};
use crate::measure::{floor_ns_per, section, Section};
use crate::trace::Trace;
use crate::{dir_bytes, embedded, Env};
use amo_bench::timed;
use amo_campaign::run::outcome_from_json;
use amo_campaign::{
    artifacts, render, Campaign, CampaignCounters, CampaignPlan, CampaignSpec, ResultCache, RunSpec,
};
use amo_sync::Mechanism;
use amo_types::{Json, Stats};
use amo_workloads::runner::BarrierBench;
use std::path::{Path, PathBuf};

/// Artifact names in the order `render_artifacts` emits their sections,
/// grouped by the generator that produces them. Rendering the groups
/// one after another yields the same document as one call with every
/// name — which is what lets a pass be timed, or traced, per generator.
const ARTIFACT_GROUPS: [&[&str]; 12] = [
    &["table2", "figure5"],
    &["table3", "figure6"],
    &["table4"],
    &["figure7"],
    &["ext-locks"],
    &["ext-barriers"],
    &["ext-ktree"],
    &["ext-app"],
    &["ext-cs"],
    &["ext-signal"],
    &["ext-selfsched"],
    &["figure1"],
];

/// Read and parse the campaign spec: the set-up of both paper
/// workloads. Returns the parsed spec and the seconds it took.
pub fn setup(env: &Env, sc: &Scale) -> Result<(CampaignSpec, f64), String> {
    let (spec, secs) = timed(|| {
        let doc = env.read(sc.campaign_spec)?;
        CampaignSpec::parse(&doc).map_err(|e| format!("{}: {e}", sc.campaign_spec))
    });
    Ok((spec?, secs))
}

/// What one pass of the campaign produced.
pub struct Pass {
    /// The rendered document.
    pub output: String,
    /// Scheduling counters.
    pub counters: CampaignCounters,
    /// Merged statistics of every distinct successful cell.
    pub aggregate: Stats,
}

/// Does the spec ask for artifact `name`? (Same rule as the `campaign`
/// binary: an empty list or `all` selects everything.)
fn wanted(names: &[String], name: &str) -> bool {
    names.is_empty() || names.iter().any(|w| w == name || w == "all")
}

/// Wraps the execution of one segment of a pass: gets the segment's
/// name and the closure that runs it, returns what the closure returned.
type Around<'a> = &'a mut dyn FnMut(&str, &mut dyn FnMut() -> String) -> String;

/// Run the plan through a `Campaign` writing through `cache_dir`, one
/// artifact generator (segment) at a time, each inside `around`. The
/// concatenated sections are the document one `render_artifacts` call
/// with every name would produce.
fn execute(spec: &CampaignSpec, cache_dir: &Path, around: Around) -> Pass {
    let mut campaign = Campaign::new(Some(ResultCache::new(cache_dir)));
    let mut output = String::new();
    match &spec.plan {
        CampaignPlan::Artifacts {
            artifacts: names,
            profile,
        } => {
            for group in ARTIFACT_GROUPS {
                if !group.iter().any(|n| wanted(names, n)) {
                    continue;
                }
                output.push_str(&around(&format!("artifact:{}", group[0]), &mut || {
                    artifacts::render_artifacts(
                        &mut campaign,
                        profile,
                        &|n| group.contains(&n) && wanted(names, n),
                        false,
                    )
                }));
            }
        }
        CampaignPlan::Grid(runs) => {
            output = around("grid", &mut || {
                let specs: Vec<RunSpec> = runs.iter().map(|r| r.spec.clone()).collect();
                let outcomes = campaign.run(&specs);
                render::render_grid(runs, &outcomes)
            });
        }
    }
    Pass {
        output,
        counters: campaign.counters,
        aggregate: campaign.aggregate,
    }
}

/// One untraced pass; the timed section, cut into one [`Section`] per
/// artifact generator (see `run::Reps` for why). `between` runs after
/// every segment, outside the timing.
pub fn pass(
    spec: &CampaignSpec,
    cache_dir: &Path,
    between: &mut dyn FnMut(),
) -> (Pass, Vec<Section>) {
    let mut segments = Vec::new();
    let pass = execute(spec, cache_dir, &mut |_, run| {
        let (part, sec) = section(run);
        segments.push(sec);
        between();
        part
    });
    (pass, segments)
}

/// One pass with allocation counting on; its time is not measured.
pub fn counted_pass(spec: &CampaignSpec, cache_dir: &Path) -> (Pass, u64) {
    crate::alloc::counted(|| execute(spec, cache_dir, &mut |_, run| run()))
}

/// One traced pass: `render` span with one child per artifact
/// generator. Returns the pass and the render span's index.
pub fn traced_pass(spec: &CampaignSpec, cache_dir: &Path, trace: &mut Trace) -> (Pass, usize) {
    trace.scope("render", |t| {
        execute(spec, cache_dir, &mut |name, run| t.scope(name, |_| run()).0)
    })
}

/// Cold or warm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Temp {
    /// Empty cache directory.
    Cold,
    /// Cache directory a cold pass just filled.
    Warm,
}

impl Temp {
    /// Key of this temperature's pinned counters in `expected.json`.
    fn key(self) -> &'static str {
        match self {
            Temp::Cold => "paper_cold",
            Temp::Warm => "paper_warm",
        }
    }
}

/// Failed checks of one pass (empty = correct). `golden` is the
/// committed `tables_output.txt` at full size, `None` at quick size
/// (which has no golden).
pub fn failures(p: &Pass, temp: Temp, sc: &Scale, golden: Option<&str>) -> Vec<String> {
    let mut out = Vec::new();
    let c = &p.counters;
    if c.errors > 0 {
        out.push(format!("{} cells ended in an error", c.errors));
    }
    if let Some(g) = golden {
        if p.output != g {
            out.push("rendered output differs from tables_output.txt".into());
        }
    }
    if temp == Temp::Warm && (c.cache_misses > 0 || c.cache_hits != c.unique) {
        out.push(format!(
            "warm pass simulated: {} hits, {} misses of {} cells",
            c.cache_hits, c.cache_misses, c.unique
        ));
    }
    if temp == Temp::Cold && c.cache_misses == 0 {
        out.push("cold pass found a filled cache".into());
    }
    if !sc.quick {
        // A cold pass does hit its own cache where two artifacts share
        // a cell, so the split is pinned rather than required to be 0.
        let want = embedded(crate::EXPECTED_JSON);
        let pin = |k: &str| {
            want.get(temp.key())
                .and_then(|t| t.get(k))
                .and_then(Json::as_u64)
        };
        let got = [
            ("cells", c.requested),
            ("cache_hits", c.cache_hits),
            ("cache_misses", c.cache_misses),
        ];
        for (k, v) in got {
            if pin(k) != Some(v) {
                out.push(format!("{k} = {v}, pinned {:?}", pin(k)));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Accuracy against the paper
// ---------------------------------------------------------------------

/// Extract one column of one rendered table: the rows `(CPUs, value)`
/// of the table whose title line starts with `title`, reading the
/// column whose header token is exactly `column`. Any shape surprise —
/// missing title, missing or repeated column, a row with a different
/// token count than the header, a non-numeric cell — is an error, never
/// a silently wrong column.
pub fn extract_column(output: &str, title: &str, column: &str) -> Result<Vec<(u64, f64)>, String> {
    let tokens = |line: &str| -> Vec<String> {
        line.split_whitespace()
            .filter(|t| *t != "|")
            .map(str::to_string)
            .collect()
    };
    let mut lines = output.lines().skip_while(|l| !l.starts_with(title));
    lines.next().ok_or_else(|| format!("no table {title:?}"))?;
    let header = tokens(lines.next().ok_or_else(|| format!("{title}: no header"))?);
    if header.first().map(String::as_str) != Some("CPUs") {
        return Err(format!("{title}: header does not start with CPUs"));
    }
    let hits: Vec<usize> = (0..header.len()).filter(|&i| header[i] == column).collect();
    let &[col] = &hits[..] else {
        return Err(format!(
            "{title}: column {column:?} appears {} times in {header:?}",
            hits.len()
        ));
    };
    // "LL/SC cycles" is one column with a two-token header.
    let width = header.len() - usize::from(header.last().is_some_and(|t| t == "cycles"));
    let rule = lines.next().unwrap_or_default();
    if !rule.starts_with("---") {
        return Err(format!("{title}: no rule under the header"));
    }
    let mut rows = Vec::new();
    for line in lines.take_while(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit())) {
        let t = tokens(line);
        if t.len() != width {
            return Err(format!(
                "{title}: row {line:?} has {} cells, want {width}",
                t.len()
            ));
        }
        let cpus = t[0]
            .parse()
            .map_err(|_| format!("{title}: bad CPUs {:?}", t[0]))?;
        let value = t[col]
            .parse()
            .map_err(|_| format!("{title}: bad value {:?}", t[col]))?;
        rows.push((cpus, value));
    }
    if rows.is_empty() {
        return Err(format!("{title}: no rows"));
    }
    Ok(rows)
}

/// One scored column of the paper's tables.
struct ReferenceColumn {
    /// Title line of the table it belongs to.
    title: String,
    /// Header token of the column.
    column: String,
    /// `(CPUs, paper value)` per row.
    rows: Vec<(u64, f64)>,
}

/// The columns the accuracy figure covers: the AMO column of Table 2
/// and the AMOt column of Table 4.
fn reference_entries() -> Vec<ReferenceColumn> {
    let doc = embedded(crate::PAPER_TABLES_JSON);
    let scored = doc
        .get("scored")
        .and_then(Json::as_arr)
        .expect("scored list");
    scored
        .iter()
        .map(|s| {
            let table = s.get("table").and_then(Json::as_str).expect("table");
            let column = s.get("column").and_then(Json::as_str).expect("column");
            let t = doc.get(table).expect("scored table exists");
            let title = t.get("title").and_then(Json::as_str).expect("title");
            let cpus = t.get("cpus").and_then(Json::as_arr).expect("cpus");
            let values = t
                .get("columns")
                .and_then(|c| c.get(column))
                .and_then(Json::as_arr)
                .expect("column values");
            assert_eq!(cpus.len(), values.len(), "{table}.{column} is ragged");
            let rows = cpus
                .iter()
                .zip(values)
                .map(|(c, v)| (c.as_u64().expect("cpus"), v.as_f64().expect("value")))
                .collect();
            ReferenceColumn {
                title: title.to_string(),
                column: column.to_string(),
                rows,
            }
        })
        .collect()
}

/// Mean of |ours − paper| / paper, in percent, over the reference
/// entries whose CPU row the rendered output has, and how many entries
/// that was (14 for the full paper profile).
pub fn paper_err_pct(output: &str) -> Result<(f64, usize), String> {
    let mut sum = 0.0;
    let mut n = 0;
    for ReferenceColumn {
        title,
        column,
        rows,
    } in reference_entries()
    {
        let ours = extract_column(output, &title, &column)?;
        for (cpus, value) in ours {
            let Some((_, paper)) = rows.iter().find(|(c, _)| *c == cpus) else {
                return Err(format!("{title}: no paper value for {cpus} CPUs"));
            };
            sum += (value - paper).abs() / paper;
            n += 1;
        }
    }
    if n == 0 {
        return Err("no reference entry matched".into());
    }
    Ok((100.0 * sum / n as f64, n))
}

// ---------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------

/// Keys and paths of the run-outcome entries in a cache directory
/// (`<dir>/<2 hex>/<32 hex>.json`; blob kinds live in longer-named
/// subdirectories and are skipped), sorted by key.
fn cache_entries(dir: &Path) -> Vec<((u64, u64), PathBuf)> {
    let mut out = Vec::new();
    for shard in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if shard.file_name().len() != 2 {
            continue;
        }
        for e in std::fs::read_dir(shard.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let path = e.path();
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if stem.len() != 32 || path.extension().is_none_or(|x| x != "json") {
                continue;
            }
            if let (Ok(hi), Ok(lo)) = (
                u64::from_str_radix(&stem[..16], 16),
                u64::from_str_radix(&stem[16..], 16),
            ) {
                out.push(((hi, lo), path));
            }
        }
    }
    out.sort();
    out
}

/// Does `dir` hold run outcomes already?
pub fn is_filled(dir: &Path) -> bool {
    !cache_entries(dir).is_empty()
}

/// Entries the campaign drivers sample from a filled cache: at 2 ms per
/// read or decode, all 334 of them seven times over would take longer
/// than the pass they explain.
const DRIVER_ENTRIES: usize = 64;

/// Drivers of the campaign layer's per-cell steps, each called in
/// isolation on the entries of a filled cache: content key, cache read,
/// outcome decode, cache write.
pub fn campaign_drivers(m: &mut Metrics, env: &Env, sc: &Scale, filled: &Path) {
    let reps = sc.driver_reps;
    let specs: Vec<RunSpec> = Mechanism::ALL
        .into_iter()
        .flat_map(|mech| {
            artifacts::PAPER_SIZES
                .into_iter()
                .map(move |procs| RunSpec::Barrier(BarrierBench::paper(mech, procs)))
        })
        .collect();
    let key_ns = floor_ns_per(reps, specs.len() as u64, || {
        for s in &specs {
            std::hint::black_box(s.key());
        }
    });
    m.set("campaign.key_us", key_ns / 1e3);

    // Keys are content hashes, so the first few in key order are a
    // fair sample of cell sizes.
    let mut entries = cache_entries(filled);
    entries.truncate(DRIVER_ENTRIES);
    let n = entries.len() as u64;
    m.set("campaign.cache_bytes", dir_bytes(filled) as f64);
    if n == 0 {
        return;
    }
    let cache = ResultCache::new(filled);
    let get_ns = floor_ns_per(reps, n, || {
        for (key, _) in &entries {
            assert!(cache.get(*key).is_some(), "filled cache entry must verify");
        }
    });
    m.set("campaign.cache_get_us", get_ns / 1e3);

    let payloads: Vec<String> = entries
        .iter()
        .filter_map(|(_, path)| std::fs::read_to_string(path).ok())
        .filter_map(|raw| raw.split_once('\n').map(|(_, p)| p.trim_end().to_string()))
        .collect();
    let decode_ns = floor_ns_per(reps, payloads.len() as u64, || {
        for p in &payloads {
            drop(std::hint::black_box(
                outcome_from_json(p).expect("cache payload decodes"),
            ));
        }
    });
    m.set("campaign.outcome_decode_us", decode_ns / 1e3);

    let outcomes: Vec<_> = payloads
        .iter()
        .map(|p| outcome_from_json(p).expect("cache payload decodes"))
        .collect();
    let put_dir = env.fresh_dir("put-driver");
    let sink = ResultCache::new(&put_dir);
    let put_ns = floor_ns_per(reps, outcomes.len() as u64, || {
        for ((key, _), outcome) in entries.iter().zip(&outcomes) {
            sink.put(*key, outcome).expect("scratch cache is writable");
        }
    });
    m.set("campaign.cache_put_us", put_ns / 1e3);
    let _ = std::fs::remove_dir_all(put_dir);
}

/// Counters of one pass plus the accuracy figure, with cells as ops.
pub fn pass_metrics(m: &mut Metrics, p: &Pass) {
    let c = &p.counters;
    m.set("campaign.cells", c.requested as f64);
    m.set("campaign.unique_cells", c.unique as f64);
    m.set_ratio(
        "campaign.cache_hit_ratio",
        c.cache_hits as f64,
        c.unique as f64,
    );
    if let Ok((err, _)) = paper_err_pct(&p.output) {
        m.set("campaign.paper_err_pct", err);
    }
    crate::single::stats_metrics(m, &p.aggregate, c.requested);
}

/// `campaign.render_ms`: what a warm pass spends outside content keys
/// and cache reads — row reduction, `Stats::merge`, outcome clones and
/// text rendering. A warm `Campaign::run` keys every requested cell
/// once for dedup and once more per distinct cell for the lookup.
pub fn render_ms(m: &Metrics, warm_wall_s: f64, c: &CampaignCounters) -> f64 {
    let us = |name| m.get(name).unwrap_or(0.0);
    let keyed = (c.requested + c.unique) as f64 * us("campaign.key_us");
    let read = c.unique as f64 * us("campaign.cache_get_us");
    (warm_wall_s * 1e3 - (keyed + read) / 1e3).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tables_output.txt");
        std::fs::read_to_string(path).expect("tables_output.txt")
    }

    #[test]
    fn accuracy_against_the_paper_is_pinned() {
        let (err, n) = paper_err_pct(&golden()).expect("golden tables parse");
        assert_eq!(n, 14, "7 sizes x (Table 2 AMO, Table 4 AMOt)");
        let pinned = embedded(crate::EXPECTED_JSON)
            .get("paper_err_pct")
            .and_then(Json::as_f64)
            .expect("pinned paper_err_pct");
        assert_eq!(err, pinned, "model accuracy moved; re-pin expected.json");
        // Spot values: the columns really are AMO and AMOt.
        let t2 = extract_column(&golden(), "Table 2.", "AMO").unwrap();
        assert_eq!(t2[0], (4, 2.86));
        assert_eq!(t2[6], (256, 99.49));
        let t4 = extract_column(&golden(), "Table 4.", "AMOt").unwrap();
        assert_eq!(t4[4], (64, 2.97));
    }

    #[test]
    fn a_table_shape_change_is_an_error_not_a_wrong_column() {
        let g = golden();
        // Column renamed away.
        let renamed = g.replacen("      AMO | LL/SC cycles", "      XYZ | LL/SC cycles", 1);
        assert!(extract_column(&renamed, "Table 2.", "AMO").is_err());
        // A column inserted into the rows only: token count mismatch.
        let widened = g.replacen("    4 |     1.03", "    4 |     9.99     1.03", 1);
        assert!(extract_column(&widened, "Table 2.", "AMO")
            .unwrap_err()
            .contains("cells"));
        // Table missing altogether.
        assert!(extract_column("nothing here\n", "Table 2.", "AMO").is_err());
        // A size the paper never ran.
        let odd = g.replacen("\n    4 |     1.03", "\n    5 |     1.03", 1);
        assert!(paper_err_pct(&odd).unwrap_err().contains("5 CPUs"));
    }

    #[test]
    fn reference_holds_both_tables_in_full() {
        let doc = embedded(crate::PAPER_TABLES_JSON);
        for (table, cols) in [("table2", 4), ("table4", 10)] {
            let t = doc.get(table).unwrap();
            assert_eq!(t.get("cpus").unwrap().as_arr().unwrap().len(), 7);
            let Json::Obj(columns) = t.get("columns").unwrap() else {
                panic!("columns object");
            };
            assert_eq!(columns.len(), cols);
        }
        assert_eq!(reference_entries().len(), 2);
    }
}
