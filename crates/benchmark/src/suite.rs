//! All six workloads in one command:
//!
//! ```text
//! amo-benchmark --seed N --out FILE [--quick] [--selfcheck]
//! ```
//!
//! Every sample is a fresh child process (this binary in [`crate::run`]
//! form: one second of quarter-second reps, or one `paper_cold` pass),
//! so peak memory and allocator state are per sample, and the parent
//! idles while a child runs. Reps are
//! interleaved in rounds with the order rotated, so each workload's
//! reps are spread over the whole session and sample the host's fast
//! phases; rounds continue until every workload's `wall_s` floor is
//! resolved or a cap is hit. One traced child per workload follows.
//! The result file records every metric with its dispersion, the host,
//! and a hash of every input file.

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::measure::{iqr_share, median, quartiles, Floor};
use crate::run::{spawn, RunArgs};
use crate::{embedded, Env};
use amo_types::seed::stable_hash128;
use amo_types::{Json, JsonWriter};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rounds before the stopping rule is consulted.
const MIN_ROUNDS: usize = 5;
/// Rounds at which measuring stops regardless.
const MAX_ROUNDS: usize = 14;
/// Seconds of child run time at which measuring stops regardless.
const MAX_MEASURED_S: f64 = 200.0;
/// `paper_cold` runs every other round, at least / at most this often.
const COLD_MIN_REPS: usize = 3;
const COLD_MAX_REPS: usize = 5;

/// Arguments of the suite.
#[derive(Clone, Debug)]
pub struct SuiteArgs {
    /// Seed of the generated inputs (every rep uses the same).
    pub seed: u64,
    /// Result file; spans go to `<out>.trace.json`.
    pub out: PathBuf,
    /// Smoke size, one round, no floor loop.
    pub quick: bool,
    /// Measure two sets and compare them.
    pub selfcheck: bool,
}

/// One end-to-end metric of one workload over the reps of a set.
#[derive(Clone, Debug)]
pub struct Stat {
    /// Unit from the catalog.
    pub unit: &'static str,
    /// The estimate and its dispersion. For `work_per_s` (higher is
    /// better) `value` is the fastest rep's rate.
    pub floor: Floor,
}

/// Everything one set measured for one workload.
#[derive(Clone, Debug, Default)]
pub struct WorkloadResult {
    /// Units attempted, summed over reps and the traced child.
    pub attempted: u64,
    /// Failed checks, likewise.
    pub failed: u64,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<&'static str, Stat>,
    /// Per-layer metrics `(value, unit)` by name.
    pub per_layer: BTreeMap<&'static str, (f64, &'static str)>,
    /// The traced child's span document, verbatim.
    pub trace_doc: String,
}

/// One full set of measurements.
#[derive(Clone, Debug, Default)]
pub struct Set {
    /// Rounds run.
    pub rounds: usize,
    /// Seconds of child run time.
    pub measured_s: f64,
    /// Results by workload.
    pub workloads: BTreeMap<&'static str, WorkloadResult>,
}

/// Seconds a child of a short workload measures: four quarter-second
/// reps, so that one burst cannot own the sample. `paper_cold` and the
/// smoke size make exactly one rep (`--seconds 0`).
const CHILD_SECONDS: f64 = 1.0;

/// One sample of `workload` as a child's arguments.
fn child_args(
    workload: &str,
    args: &SuiteArgs,
    trace: bool,
    cache_dir: &Path,
    trace_out: Option<PathBuf>,
) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: if args.quick || workload == "paper_cold" {
            0.0
        } else {
            CHILD_SECONDS
        },
        trace,
        quick: args.quick,
        trace_out,
        cache_dir: Some(cache_dir.to_path_buf()),
    }
}

/// Reduce one metric's reps. Times are floors; `work_per_s` is the rate
/// of the fastest rep with the same spread rule on its reciprocal;
/// `peak_rss_mb` is a median with its interquartile share as spread.
fn reduce(name: &str, unit: &'static str, values: &[f64], kth: usize) -> Stat {
    let floor = match name {
        "work_per_s" => {
            let inv: Vec<f64> = values.iter().map(|v| 1.0 / v).collect();
            let f = Floor::of(&inv, kth);
            let (q1, q3) = quartiles(values);
            Floor {
                value: 1.0 / f.value,
                median: median(values),
                q1,
                q3,
                ..f
            }
        }
        "peak_rss_mb" => {
            let (q1, q3) = quartiles(values);
            Floor {
                value: median(values),
                median: median(values),
                q1,
                q3,
                n: values.len(),
                floor_spread: iqr_share(values),
                resolved: !values.is_empty(),
            }
        }
        _ => Floor::of(values, kth),
    };
    Stat { unit, floor }
}

/// Which fastest rep the floor is compared against.
fn kth(workload: &str, quick: bool) -> usize {
    match (quick, workload) {
        (true, _) => 1,
        (false, "paper_cold") => 2,
        (false, _) => 3,
    }
}

/// Measure one set.
pub fn measure_set(env: &Env, args: &SuiteArgs) -> Result<Set, String> {
    let cache = env.fresh_dir("suite-cache");
    let mut samples: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    let mut set = Set::default();
    let reps = |samples: &BTreeMap<&str, BTreeMap<&str, Vec<f64>>>, w: &str| {
        samples
            .get(w)
            .and_then(|m| m.get("wall_s"))
            .map_or(0, Vec::len)
    };
    loop {
        let round = set.rounds;
        let mut order = WORKLOADS;
        order.rotate_left(round % WORKLOADS.len());
        for w in order {
            if w == "paper_cold"
                && !args.quick
                && (round % 2 == 1 || reps(&samples, w) >= COLD_MAX_REPS)
            {
                continue;
            }
            let t0 = Instant::now();
            let child = spawn(&child_args(w, args, false, &cache, None))?;
            set.measured_s += t0.elapsed().as_secs_f64();
            let result = set.workloads.entry(w).or_default();
            result.attempted += child.attempted;
            result.failed += child.failed;
            for (name, _) in END_TO_END {
                let v = child
                    .metrics
                    .get(name)
                    .ok_or_else(|| format!("{w}: child did not report {name}"))?;
                samples
                    .entry(w)
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(*v);
            }
        }
        set.rounds += 1;
        let resolved = WORKLOADS.iter().all(|w| {
            let walls = &samples[w]["wall_s"];
            Floor::of(walls, kth(w, args.quick)).resolved
        });
        let enough = set.rounds >= MIN_ROUNDS && reps(&samples, "paper_cold") >= COLD_MIN_REPS;
        if args.quick
            || (enough && resolved)
            || set.rounds >= MAX_ROUNDS
            || set.measured_s >= MAX_MEASURED_S
        {
            break;
        }
    }
    for w in WORKLOADS {
        let result = set.workloads.entry(w).or_default();
        for (name, unit) in END_TO_END {
            let stat = reduce(name, unit, &samples[w][name], kth(w, args.quick));
            result.end_to_end.insert(name, stat);
        }
        let trace_path = env.scratch.join(format!("trace-{w}.json"));
        let child = spawn(&child_args(w, args, true, &cache, Some(trace_path.clone())))?;
        result.attempted += child.attempted;
        result.failed += child.failed;
        for (name, unit) in PER_LAYER {
            let v = child
                .metrics
                .get(name)
                .ok_or_else(|| format!("{w}: traced child did not report {name}"))?;
            result.per_layer.insert(name, (*v, unit));
        }
        result.trace_doc = std::fs::read_to_string(&trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    }
    Ok(set)
}

/// A per-layer metric that repeats exactly from run to run: counters
/// and ratios of counters, not anything derived from a clock.
pub fn is_exact(name: &str, unit: &str) -> bool {
    const CLOCKED_RATIOS: [&str; 4] = [
        "workloads.executor_efficiency",
        "workloads.cpu_over_wall",
        "campaign.execute_share",
        "verify.explore_overhead_share",
    ];
    name == "campaign.paper_err_pct"
        || (matches!(unit, "count" | "cycles" | "ratio") && !CLOCKED_RATIOS.contains(&name))
}

/// The regression bound of each end-to-end metric, from
/// `BENCHMARK.json`.
fn bounds(env: &Env) -> Result<BTreeMap<String, f64>, String> {
    let doc =
        Json::parse(&env.read("BENCHMARK.json")?).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Where two sets of the same code disagree by more than the
/// benchmark's own rules allow: an exact metric that differs at all, or
/// a timed end-to-end metric resolved in both sets whose values differ
/// by more than its bound. Unresolved metrics are reported as such by
/// the table, not gated.
pub fn disagreements(a: &Set, b: &Set, bounds: &BTreeMap<String, f64>) -> Vec<String> {
    let mut out = Vec::new();
    for w in WORKLOADS {
        let (ra, rb) = (&a.workloads[w], &b.workloads[w]);
        if (ra.failed, rb.failed) != (0, 0) {
            out.push(format!("{w}: failed checks {} / {}", ra.failed, rb.failed));
        }
        for (name, _) in END_TO_END {
            let (sa, sb) = (&ra.end_to_end[name].floor, &rb.end_to_end[name].floor);
            let bound = bounds.get(name).copied().unwrap_or(0.0);
            let rel = (sa.value - sb.value).abs() / sa.value.min(sb.value);
            if sa.resolved && sb.resolved && rel > bound {
                out.push(format!(
                    "{w}: {name} {} vs {} differs by {:.1}% > bound {:.0}%",
                    sa.value,
                    sb.value,
                    100.0 * rel,
                    100.0 * bound
                ));
            }
        }
        for (name, unit) in PER_LAYER {
            let (va, vb) = (ra.per_layer[name].0, rb.per_layer[name].0);
            if is_exact(name, unit) && va.to_bits() != vb.to_bits() {
                out.push(format!("{w}: exact metric {name} differs: {va} vs {vb}"));
            }
        }
    }
    out
}

fn host_facts(w: &mut JsonWriter) {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    w.key("host");
    w.begin_obj();
    w.kv_u64(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
    );
    w.kv_str("cpu_model", model);
    w.kv_str("os", std::env::consts::OS);
    w.kv_str("arch", std::env::consts::ARCH);
    w.end_obj();
}

/// Every file the workloads read, with a content hash, so a changed
/// input is visible in the result.
fn input_hashes(env: &Env, quick: bool, w: &mut JsonWriter) -> Result<(), String> {
    let spec = if quick {
        "specs/quick.json"
    } else {
        "specs/paper.json"
    };
    w.key("inputs");
    w.begin_obj();
    for rel in [
        spec,
        crate::matrix::MATRIX_SPEC,
        "tables_output.txt",
        "crates/benchmark/expected.json",
        "crates/benchmark/reference/paper_tables.json",
    ] {
        let (hi, lo) = stable_hash128(env.read(rel)?.as_bytes());
        w.kv_str(rel, &format!("{hi:016x}{lo:016x}"));
    }
    w.end_obj();
    Ok(())
}

fn write_set(w: &mut JsonWriter, set: &Set) {
    w.begin_obj();
    w.kv_u64("rounds", set.rounds as u64);
    w.kv_f64("measured_s", set.measured_s);
    w.key("workloads");
    w.begin_obj();
    for name in WORKLOADS {
        let r = &set.workloads[name];
        w.key(name);
        w.begin_obj();
        w.kv_u64("attempted", r.attempted);
        w.kv_u64("failed", r.failed);
        w.key("end_to_end");
        w.begin_obj();
        for (metric, _) in END_TO_END {
            let s = &r.end_to_end[metric];
            w.key(metric);
            w.begin_obj();
            w.kv_f64("value", s.floor.value);
            w.kv_str("unit", s.unit);
            w.kv_f64("median", s.floor.median);
            w.kv_f64("q1", s.floor.q1);
            w.kv_f64("q3", s.floor.q3);
            w.kv_u64("n", s.floor.n as u64);
            w.kv_f64("floor_spread", s.floor.floor_spread);
            w.kv_bool("resolved", s.floor.resolved);
            w.end_obj();
        }
        w.end_obj();
        w.key("per_layer");
        w.begin_obj();
        for (metric, _) in PER_LAYER {
            let (value, unit) = r.per_layer[metric];
            w.key(metric);
            w.begin_obj();
            w.kv_f64("value", value);
            w.kv_str("unit", unit);
            w.kv_bool("exact", is_exact(metric, unit));
            w.end_obj();
        }
        w.end_obj();
        // Traced wall next to untraced wall, and Σ self times.
        let t = embedded(&r.trace_doc);
        w.key("trace");
        w.begin_obj();
        for k in ["traced_wall_s", "self_sum_s", "untraced_wall_s"] {
            w.kv_f64(k, t.get(k).and_then(Json::as_f64).unwrap_or(0.0));
        }
        w.end_obj();
        w.end_obj();
    }
    w.end_obj();
    w.end_obj();
}

fn print_table(sets: &[Set]) {
    for name in WORKLOADS {
        println!("\n== {name}");
        for (metric, unit) in END_TO_END {
            print!("  {metric:<34}");
            for set in sets {
                let f = &set.workloads[name].end_to_end[metric].floor;
                print!(
                    " {:>16.6} {unit:<5} (median {:.6}, n {}, spread {:.1}%{})",
                    f.value,
                    f.median,
                    f.n,
                    100.0 * f.floor_spread,
                    if f.resolved { "" } else { ", UNRESOLVED" }
                );
            }
            println!();
        }
        for (metric, unit) in PER_LAYER {
            let values: Vec<f64> = sets
                .iter()
                .map(|s| s.workloads[name].per_layer[metric].0)
                .collect();
            if values.iter().all(|v| *v == 0.0) {
                continue;
            }
            print!("  {metric:<34}");
            for v in values {
                print!(" {v:>16.6} {unit:<5}");
            }
            println!();
        }
        for set in sets {
            let t = embedded(&set.workloads[name].trace_doc);
            let num = |k: &str| t.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "  traced wall {:.4} s = Σ self {:.4} s; untraced wall {:.4} s; {} attempted, {} failed",
                num("traced_wall_s"),
                num("self_sum_s"),
                num("untraced_wall_s"),
                set.workloads[name].attempted,
                set.workloads[name].failed
            );
        }
    }
}

/// Run the suite. Returns the process exit code: 0 when every check
/// passed (and, under `--selfcheck`, the two sets agree), 1 otherwise,
/// 2 when the suite could not run.
pub fn main(args: &SuiteArgs) -> i32 {
    match suite(args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("amo-benchmark: {e}");
            2
        }
    }
}

fn suite(args: &SuiteArgs) -> Result<bool, String> {
    let env = Env::discover()?;
    let mut sets = vec![measure_set(&env, args)?];
    if args.selfcheck {
        sets.push(measure_set(&env, args)?);
    }
    print_table(&sets);

    let mut ok = sets
        .iter()
        .all(|s| s.workloads.values().all(|w| w.failed == 0));
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.kv_str("schema", "amo-benchmark-result-v1");
    w.kv_u64("seed", args.seed);
    w.kv_bool("quick", args.quick);
    host_facts(&mut w);
    input_hashes(&env, args.quick, &mut w)?;
    w.key("sets");
    w.begin_arr();
    for set in &sets {
        write_set(&mut w, set);
    }
    w.end_arr();
    if let [a, b] = &sets[..] {
        let diffs = disagreements(a, b, &bounds(&env)?);
        println!("\nselfcheck: {} disagreement(s)", diffs.len());
        for d in &diffs {
            println!("  {d}");
        }
        ok &= diffs.is_empty();
        w.key("selfcheck");
        w.begin_obj();
        w.kv_bool("passed", diffs.is_empty());
        w.key("disagreements");
        w.begin_arr();
        for d in &diffs {
            w.str_val(d);
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_obj();
    std::fs::write(&args.out, w.finish()).map_err(|e| format!("{}: {e}", args.out.display()))?;

    // The spans of the first set's traced children, in one file.
    let mut t = JsonWriter::new();
    t.begin_obj();
    t.kv_str("schema", "amo-benchmark-trace-v1");
    t.key("workloads");
    t.begin_arr();
    for name in WORKLOADS {
        t.raw_val(&sets[0].workloads[name].trace_doc);
    }
    t.end_arr();
    t.end_obj();
    let mut trace_path = args.out.clone().into_os_string();
    trace_path.push(".trace.json");
    std::fs::write(&trace_path, t.finish())
        .map_err(|e| format!("{}: {e}", Path::new(&trace_path).display()))?;
    println!(
        "\nwrote {} and {}",
        args.out.display(),
        Path::new(&trace_path).display()
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(values: &[f64]) -> Stat {
        reduce("wall_s", "s", values, 3)
    }

    fn set_with(wall: &[f64], events_per_op: f64) -> Set {
        let mut set = Set::default();
        for w in WORKLOADS {
            let mut r = WorkloadResult::default();
            for (name, unit) in END_TO_END {
                r.end_to_end.insert(name, reduce(name, unit, wall, 3));
            }
            for (name, unit) in PER_LAYER {
                r.per_layer.insert(name, (events_per_op, unit));
            }
            set.workloads.insert(w, r);
        }
        set
    }

    #[test]
    fn work_per_s_reports_the_fastest_reps_rate() {
        let s = reduce("work_per_s", "op/s", &[100.0, 99.0, 98.5, 80.0], 3);
        assert_eq!(s.floor.value, 100.0);
        assert!((s.floor.floor_spread - (100.0 / 98.5 - 1.0)).abs() < 1e-12);
        assert!(s.floor.resolved);
        assert_eq!(stat(&[1.0, 1.01, 1.02]).floor.value, 1.0);
    }

    #[test]
    fn selfcheck_gates_exact_metrics_and_resolved_times_only() {
        let bounds: BTreeMap<String, f64> = END_TO_END
            .iter()
            .map(|(n, _)| (n.to_string(), 0.10))
            .collect();
        let a = set_with(&[1.00, 1.01, 1.02], 19.5);
        assert!(disagreements(&a, &a, &bounds).is_empty());
        // 20% slower and resolved: every workload's every timed metric.
        let slow = set_with(&[1.20, 1.21, 1.22], 19.5);
        let d = disagreements(&a, &slow, &bounds);
        assert_eq!(d.len(), WORKLOADS.len() * END_TO_END.len());
        // The same gap, but unresolved in one set: reported, not gated —
        // except `peak_rss_mb`, a median that always counts as resolved.
        let noisy = set_with(&[1.20, 1.40, 1.60], 19.5);
        let d = disagreements(&a, &noisy, &bounds);
        assert_eq!(d.len(), WORKLOADS.len(), "{d:?}");
        assert!(d.iter().all(|m| m.contains("peak_rss_mb")));
        // An exact metric off by one ulp is a disagreement.
        let drift = set_with(&[1.00, 1.01, 1.02], f64::from_bits(19.5f64.to_bits() + 1));
        let d = disagreements(&a, &drift, &bounds);
        let exact = PER_LAYER.iter().filter(|(n, u)| is_exact(n, u)).count();
        assert_eq!(d.len(), WORKLOADS.len() * exact);
    }

    #[test]
    fn clocked_ratios_are_not_exact() {
        assert!(is_exact("sim.events_per_op", "count"));
        assert!(is_exact("amu.hit_ratio", "ratio"));
        assert!(is_exact("campaign.paper_err_pct", "%"));
        assert!(!is_exact("workloads.executor_efficiency", "ratio"));
        assert!(!is_exact("obs.hostprof_overhead_pct", "%"));
        assert!(!is_exact("noc.send_ns", "ns"));
    }
}
