//! One workload, one process, one JSON line — the form `BENCHMARK.json`
//! describes:
//!
//! ```text
//! amo-benchmark --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` repeats set-up + timed section until `S` seconds have
//! been measured and reports every end-to-end metric; `--trace 1` makes
//! the traced pass, runs the layer drivers and reports every per-layer
//! metric. Either way the outputs are checked and the last stdout line
//! is `{"correct", "attempted", "failed", "metrics"}`.

use crate::catalog::{Metrics, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use crate::measure::{low_decile, median, peak_rss_mib, Section};
use crate::paper::Temp;
use crate::single::Kind;
use crate::trace::Trace;
use crate::{layers, matrix, paper, single, Env};
use amo_obs::HostProfReport;
use amo_types::{Json, JsonWriter};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Events the ring tracer keeps in the trace-hook overhead run: enough
/// that the ring wraps, as it does in every long traced run.
const RING_CAP: usize = 1 << 16;

/// Set-ups timed in one batch, where a set-up takes microseconds. A
/// batch runs after every rep (and every segment of a campaign pass),
/// so the samples are spread over the whole run and see the same host
/// phases the timed sections do.
const SETUP_BATCH: usize = 64;

/// Arguments of one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds to measure (`--trace 0`); at least one rep always runs.
    pub seconds: f64,
    /// Traced pass + layer drivers instead of the end-to-end reps.
    pub trace: bool,
    /// Smoke size.
    pub quick: bool,
    /// Where to write the traced pass's spans, if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Result-cache directory of the paper workloads, kept afterwards,
    /// so that a `paper_warm` run can read what a `paper_cold` run just
    /// filled (the suite does this). Default: a private scratch
    /// directory, removed at exit.
    pub cache_dir: Option<PathBuf>,
}

/// What one run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Units attempted: runs, campaign cells, explored schedules.
    pub attempted: u64,
    /// Failed checks.
    pub failed: u64,
    /// The failed checks, for stderr.
    pub failures: Vec<String>,
    /// Exact counts worth seeing beside the metrics (what
    /// `expected.json` pins), for stderr.
    pub notes: Vec<String>,
    /// `(name, value, unit)` in catalog order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The result line.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.kv_bool("correct", self.failed == 0);
        w.kv_u64("attempted", self.attempted);
        w.kv_u64("failed", self.failed);
        w.key("metrics");
        w.begin_obj();
        for (name, value, unit) in &self.metrics {
            w.key(name);
            w.begin_obj();
            w.kv_f64("value", *value);
            w.kv_str("unit", unit);
            w.end_obj();
        }
        w.end_obj();
        w.end_obj();
        w.finish()
    }

    fn check(&mut self, units: u64, failures: Vec<String>) {
        self.attempted += units;
        self.failed += failures.len() as u64;
        self.failures.extend(failures);
    }

    fn fill(&mut self, m: &Metrics, table: &[(&'static str, &'static str)]) {
        self.metrics = table
            .iter()
            .map(|&(name, unit)| (name, m.get(name).unwrap_or(0.0), unit))
            .collect();
    }
}

/// The reps of one `--trace 0` run.
///
/// A rep's timed section arrives as consecutive segments cut at fixed
/// work boundaries — the artifact generators of a campaign pass, or one
/// segment for everything else. Host noise on a shared sandbox comes in
/// bursts that only ever add time, so each segment keeps the fastest
/// time any rep took for it, and the run reports the sum: the time the
/// section takes when nothing disturbs it. For one segment that is the
/// fastest rep.
#[derive(Default)]
struct Reps {
    setups: Vec<f64>,
    /// Per segment, the fastest wall and the fastest CPU seconds so far.
    best: Vec<Section>,
    reps: usize,
    measured_s: f64,
    ops: u64,
}

impl Reps {
    fn push(&mut self, setup_s: f64, segments: &[Section], ops: u64) {
        if self.reps == 0 {
            self.best = segments.to_vec();
        }
        assert_eq!(self.best.len(), segments.len(), "reps must cut alike");
        for (b, s) in self.best.iter_mut().zip(segments) {
            b.wall_s = b.wall_s.min(s.wall_s);
            b.cpu_s = b.cpu_s.min(s.cpu_s);
        }
        self.setups.push(setup_s);
        self.reps += 1;
        self.measured_s += setup_s + Section::total(segments).wall_s;
        self.ops = ops;
    }

    /// Reps continue until `seconds` have been measured — and there are
    /// two of them, so that a burst cannot own the whole run; `--seconds
    /// 0` asks for exactly one rep (the suite's children).
    fn wants_more(&self, seconds: f64) -> bool {
        let min_reps = if seconds > 0.0 { 2 } else { 1 };
        self.reps < min_reps || self.measured_s < seconds
    }

    /// Time one batch of set-ups (none at smoke size).
    fn setup_batch(
        &mut self,
        sc: &Scale,
        mut setup: impl FnMut() -> Result<f64, String>,
    ) -> Result<(), String> {
        if !sc.quick {
            for _ in 0..SETUP_BATCH {
                self.setups.push(setup()?);
            }
        }
        Ok(())
    }

    fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        let floor = Section::total(&self.best);
        m.set("setup_s", low_decile(&self.setups));
        m.set("wall_s", floor.wall_s);
        m.set("cpu_s", floor.cpu_s);
        m.set_ratio("work_per_s", self.ops as f64, floor.wall_s);
        m.set("peak_rss_mb", peak_rss_mib());
        m
    }
}

/// The parsed result line of a child run.
pub struct ChildResult {
    /// Units the child attempted.
    pub attempted: u64,
    /// Checks the child failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Run `args` as a child process of this binary and wait for it. A
/// fresh process per rep keeps peak memory and allocator state per rep
/// (the suite), and keeps a cache fill out of the memory reading of the
/// warm pass that follows it.
pub fn spawn(args: &RunArgs) -> Result<ChildResult, String> {
    let w = &args.workload;
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(dir) = &args.cache_dir {
        cmd.arg("--cache-dir").arg(dir);
    }
    if let Some(path) = &args.trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let out = cmd.output().map_err(|e| format!("spawn {w}: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("{w} child failed:\n{stderr}"));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(line).map_err(|e| format!("{w} result line: {e}"))?;
    let num = |k: &str| doc.get(k).and_then(Json::as_u64);
    let (Some(attempted), Some(failed), Some(Json::Obj(members))) =
        (num("attempted"), num("failed"), doc.get("metrics"))
    else {
        return Err(format!("{w} result line is malformed: {line}"));
    };
    if failed > 0 {
        // Show which checks failed; the count still lands in the result.
        eprint!("{stderr}");
    }
    let metrics = members
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        attempted,
        failed,
        metrics,
    })
}

/// Fill `dir` with one cold pass of the campaign, in a child process so
/// that its 450 MiB do not become this process's peak memory. The
/// child checks its own output; its counts join this run's.
fn fill_cache(dir: &Path, args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let child = spawn(&RunArgs {
        workload: "paper_cold".into(),
        seconds: 0.0,
        trace: false,
        trace_out: None,
        cache_dir: Some(dir.to_path_buf()),
        ..args.clone()
    })?;
    report.attempted += child.attempted;
    report.failed += child.failed;
    if child.failed > 0 {
        report
            .failures
            .push("the cold pass filling the cache failed its checks".into());
    }
    Ok(())
}

/// The pinned `(sim_events, end_cycle, marks)` of a single-machine
/// workload, when `expected.json` pins this seed at full size.
fn pinned(kind: Kind, sc: &Scale, seed: u64) -> Option<(u64, u64, u64)> {
    let want = crate::embedded(crate::EXPECTED_JSON);
    if sc.quick || want.get("seed")?.as_u64()? != seed {
        return None;
    }
    let w = want.get("single")?.get(kind.name())?;
    let n = |k: &str| w.get(k).and_then(amo_types::Json::as_u64);
    Some((n("sim_events")?, n("end_cycle")?, n("marks")?))
}

/// Execute one run.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    let sc = if args.quick {
        Scale::quick()
    } else {
        Scale::full()
    };
    // At most two busy threads, whatever the host offers: the sweep
    // executor reads this at every batch.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    std::env::set_var("AMO_SWEEP_THREADS", workers.to_string());
    let env = Env::discover()?;
    let mut report = Report::default();
    let metrics = match (Kind::parse(&args.workload), args.workload.as_str()) {
        (Some(kind), _) if args.trace => single_traced(kind, &sc, args, &mut report)?,
        (Some(kind), _) => single_reps(kind, &sc, args, &mut report)?,
        (None, "verify_matrix") if args.trace => matrix_traced(&env, &sc, args, &mut report)?,
        (None, "verify_matrix") => matrix_reps(&env, &sc, args, &mut report)?,
        (None, w) => {
            let temp = if w == "paper_cold" {
                Temp::Cold
            } else {
                Temp::Warm
            };
            if args.trace {
                paper_traced(&env, &sc, temp, workers, args, &mut report)?
            } else {
                paper_reps(&env, &sc, temp, args, &mut report)?
            }
        }
    };
    report.fill(&metrics, if args.trace { &PER_LAYER } else { &END_TO_END });
    Ok(report)
}

// ---------------------------------------------------------------------
// Single-machine workloads
// ---------------------------------------------------------------------

fn single_reps(
    kind: Kind,
    sc: &Scale,
    args: &RunArgs,
    report: &mut Report,
) -> Result<Metrics, String> {
    let mut reps = Reps::default();
    let pin = pinned(kind, sc, args.seed);
    while reps.wants_more(args.seconds) {
        let (setup_s, sec, fin) = single::rep(kind, sc, args.seed);
        if reps.reps == 0 {
            report.notes.push(format!(
                "sim_events {} end_cycle {} marks {}",
                fin.result.events, fin.result.end, fin.marks
            ));
        }
        report.check(1, fin.failures(kind, sc, pin));
        reps.push(setup_s, &[sec], kind.ops(sc));
    }
    Ok(reps.end_to_end())
}

fn single_traced(
    kind: Kind,
    sc: &Scale,
    args: &RunArgs,
    report: &mut Report,
) -> Result<Metrics, String> {
    let pin = pinned(kind, sc, args.seed);
    let mut m = Metrics::default();
    // Reference rep, observers off: exact counters and the wall time
    // the traced rep is compared to.
    let (_, plain, fin) = single::rep(kind, sc, args.seed);
    report.check(1, fin.failures(kind, sc, pin));
    single::run_metrics(&mut m, &fin, kind.ops(sc));

    let mut trace = Trace::new(kind.name());
    let (traced_wall, traced, profile) = single::traced_rep(kind, sc, args.seed, &mut trace);
    let mut failures = traced.failures(kind, sc, pin);
    if (traced.result.events, traced.result.end) != (fin.result.events, fin.result.end) {
        failures.push("profiled run diverged from the unprofiled one".into());
    }
    report.check(1, failures);
    single::profile_metrics(&mut m, &profile, traced.result.events);
    m.set_ratio(
        "obs.hostprof_overhead_pct",
        100.0 * (traced_wall - plain.wall_s),
        plain.wall_s,
    );
    if kind == Kind::BarrierAmo {
        let ring = single::ring_traced_wall(kind, sc, args.seed, RING_CAP);
        m.set_ratio(
            "obs.ring_trace_overhead_pct",
            100.0 * (ring - plain.wall_s),
            plain.wall_s,
        );
    }
    // Allocations of the timed section, on a rep whose time nobody
    // reads.
    let (again, allocs) = single::counted_rep(kind, sc, args.seed);
    report.check(1, again.failures(kind, sc, pin));
    m.set_ratio("host.allocs_per_op", allocs as f64, kind.ops(sc) as f64);
    layers::run_all(&mut m, sc);
    finish_trace(&trace, Some(&profile), plain.wall_s, args, report)?;
    Ok(m)
}

// ---------------------------------------------------------------------
// Paper campaign
// ---------------------------------------------------------------------

fn cache_dir(env: &Env, args: &RunArgs) -> PathBuf {
    args.cache_dir
        .clone()
        .unwrap_or_else(|| env.fresh_dir("cache"))
}

/// Count one campaign pass's cells as attempted and its failed checks
/// as failed.
fn check_pass(report: &mut Report, p: &paper::Pass, temp: Temp, sc: &Scale, golden: Option<&str>) {
    report.check(p.counters.requested, paper::failures(p, temp, sc, golden));
}

fn golden(env: &Env, sc: &Scale) -> Result<Option<String>, String> {
    if sc.quick {
        Ok(None)
    } else {
        env.read("tables_output.txt").map(Some)
    }
}

fn paper_reps(
    env: &Env,
    sc: &Scale,
    temp: Temp,
    args: &RunArgs,
    report: &mut Report,
) -> Result<Metrics, String> {
    let golden = golden(env, sc)?;
    let dir = cache_dir(env, args);
    if temp == Temp::Warm && !paper::is_filled(&dir) {
        fill_cache(&dir, args, report)?;
    }
    let mut reps = Reps::default();
    while reps.wants_more(args.seconds) {
        if temp == Temp::Cold {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let (spec, setup_s) = paper::setup(env, sc)?;
        let mut sampled = Ok(());
        let (p, segments) = paper::pass(&spec, &dir, &mut || {
            if sampled.is_ok() {
                sampled = reps.setup_batch(sc, || Ok(paper::setup(env, sc)?.1));
            }
        });
        sampled?;
        check_pass(report, &p, temp, sc, golden.as_deref());
        reps.push(setup_s, &segments, p.counters.requested);
    }
    Ok(reps.end_to_end())
}

fn paper_traced(
    env: &Env,
    sc: &Scale,
    temp: Temp,
    workers: usize,
    args: &RunArgs,
    report: &mut Report,
) -> Result<Metrics, String> {
    let golden = golden(env, sc)?;
    let name = &args.workload;
    let mut m = Metrics::default();
    let mut trace = Trace::new(name);
    // The cold passes need an empty cache of their own; the warm ones
    // read whatever filled cache they are given, or fill their own.
    let dir = match temp {
        Temp::Cold => env.fresh_dir("cache"),
        Temp::Warm => cache_dir(env, args),
    };
    let (spec, parse) = trace.scope("spec_parse", |_| paper::setup(env, sc));
    let (spec, _) = spec?;
    m.set(
        "campaign.spec_parse_ms",
        trace.duration_ns(parse) as f64 / 1e6,
    );

    let untraced_wall;
    if temp == Temp::Cold {
        // Serial traced pass: one worker, so a batch span is the serial
        // work the executor has to spread.
        std::env::set_var("AMO_SWEEP_THREADS", "1");
        let (serial, render) = paper::traced_pass(&spec, &dir, &mut trace);
        std::env::set_var("AMO_SWEEP_THREADS", workers.to_string());
        check_pass(report, &serial, temp, sc, golden.as_deref());
        let serial_wall = trace.duration_ns(render) as f64 * 1e-9;
        let batches: Vec<f64> = trace
            .spans()
            .iter()
            .filter(|s| s.parent == Some(render))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        m.set("workloads.batch_ms_p50", median(&batches));
        m.set(
            "workloads.batch_ms_max",
            batches.iter().copied().fold(0.0, f64::max),
        );

        // The same pass as users run it: all workers, observers off.
        let _ = std::fs::remove_dir_all(&dir);
        let (par, segments) = paper::pass(&spec, &dir, &mut || ());
        let sec = Section::total(&segments);
        check_pass(report, &par, temp, sc, golden.as_deref());
        untraced_wall = sec.wall_s;
        m.set_ratio(
            "workloads.executor_efficiency",
            serial_wall,
            workers as f64 * sec.wall_s,
        );
        m.set_ratio("workloads.cpu_over_wall", sec.cpu_s, sec.wall_s);
        paper::pass_metrics(&mut m, &par);

        // What is not simulation: a warm pass over the cache just
        // filled costs the keys, reads, merges and rendering alone.
        let (warm, segments) = paper::pass(&spec, &dir, &mut || ());
        let wsec = Section::total(&segments);
        check_pass(report, &warm, Temp::Warm, sc, golden.as_deref());
        m.set_ratio(
            "campaign.execute_share",
            (serial_wall - wsec.wall_s).max(0.0),
            serial_wall,
        );
        paper::campaign_drivers(&mut m, env, sc, &dir);
        m.set(
            "campaign.render_ms",
            paper::render_ms(&m, wsec.wall_s, &warm.counters),
        );

        // Allocations, on a pass whose time nobody reads — one worker,
        // or both would fight over the counter's cache line.
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("AMO_SWEEP_THREADS", "1");
        let (counted, allocs) = paper::counted_pass(&spec, &dir);
        std::env::set_var("AMO_SWEEP_THREADS", workers.to_string());
        check_pass(report, &counted, temp, sc, golden.as_deref());
        m.set_ratio(
            "host.allocs_per_op",
            allocs as f64,
            counted.counters.requested as f64,
        );
    } else {
        if !paper::is_filled(&dir) {
            fill_cache(&dir, args, report)?;
        }
        let (warm, render) = paper::traced_pass(&spec, &dir, &mut trace);
        check_pass(report, &warm, temp, sc, golden.as_deref());
        let (again, segments) = paper::pass(&spec, &dir, &mut || ());
        let sec = Section::total(&segments);
        check_pass(report, &again, temp, sc, golden.as_deref());
        untraced_wall = sec.wall_s;
        let (counted, allocs) = paper::counted_pass(&spec, &dir);
        check_pass(report, &counted, temp, sc, golden.as_deref());
        m.set_ratio(
            "host.allocs_per_op",
            allocs as f64,
            counted.counters.requested as f64,
        );
        paper::pass_metrics(&mut m, &warm);
        paper::campaign_drivers(&mut m, env, sc, &dir);
        let warm_wall = trace.duration_ns(render) as f64 * 1e-9;
        m.set(
            "campaign.render_ms",
            paper::render_ms(&m, warm_wall, &warm.counters),
        );
    }
    layers::run_all(&mut m, sc);
    finish_trace(&trace, None, untraced_wall, args, report)?;
    Ok(m)
}

// ---------------------------------------------------------------------
// Verification matrix
// ---------------------------------------------------------------------

fn matrix_reps(
    env: &Env,
    sc: &Scale,
    args: &RunArgs,
    report: &mut Report,
) -> Result<Metrics, String> {
    let mut reps = Reps::default();
    while reps.wants_more(args.seconds) {
        let (mx, setup_s) = matrix::setup(env)?;
        let (passes, sec) = matrix::rep(&mx, sc.matrix_passes);
        let mut ops = 0;
        for pass in &passes {
            report.check(matrix::schedules(pass), matrix::failures(pass));
            ops += matrix::schedules(pass);
        }
        reps.push(setup_s, &[sec], ops);
        reps.setup_batch(sc, || Ok(matrix::setup(env)?.1))?;
    }
    Ok(reps.end_to_end())
}

fn matrix_traced(
    env: &Env,
    sc: &Scale,
    args: &RunArgs,
    report: &mut Report,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let (mx, _) = matrix::setup(env)?;
    let (passes, plain) = matrix::rep(&mx, 1);
    report.check(matrix::schedules(&passes[0]), matrix::failures(&passes[0]));

    let mut trace = Trace::new(&args.workload);
    let ((schedules, distinct), span) = matrix::traced_pass(&mx, &mut trace);
    let mut failures = Vec::new();
    if schedules != matrix::schedules(&passes[0]) {
        failures.push("traced pass explored a different number of schedules".into());
    }
    report.check(schedules, failures);
    m.set("verify.schedules", schedules as f64);
    m.set_ratio("verify.distinct_ratio", distinct as f64, schedules as f64);
    let (counted, allocs) = matrix::counted_pass(&mx);
    report.check(matrix::schedules(&counted), matrix::failures(&counted));
    m.set_ratio("host.allocs_per_op", allocs as f64, schedules as f64);
    let run_once_us = matrix::drivers(&mut m, &mx, sc);
    let explore_us = trace.duration_ns(span) as f64 / 1e3;
    m.set_ratio(
        "verify.explore_overhead_share",
        (explore_us - schedules as f64 * run_once_us).max(0.0),
        explore_us,
    );
    layers::run_all(&mut m, sc);
    finish_trace(&trace, None, plain.wall_s, args, report)?;
    Ok(m)
}

// ---------------------------------------------------------------------
// Trace output
// ---------------------------------------------------------------------

/// Check that the trace conserves time, tell stderr where the time
/// went, and write the spans out if asked to.
fn finish_trace(
    trace: &Trace,
    profile: Option<&HostProfReport>,
    untraced_wall_s: f64,
    args: &RunArgs,
    report: &mut Report,
) -> Result<(), String> {
    let (selfs, roots) = trace.conservation();
    let mut failures = Vec::new();
    if selfs != roots {
        failures.push(format!(
            "trace does not conserve time: self {selfs} ns, roots {roots} ns"
        ));
    }
    report.check(1, failures);
    eprintln!(
        "{}: traced wall {:.4} s (Σ self {:.4} s), untraced wall {:.4} s",
        trace.workload,
        roots as f64 * 1e-9,
        selfs as f64 * 1e-9,
        untraced_wall_s
    );
    let Some(path) = &args.trace_out else {
        return Ok(());
    };
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.kv_str("workload", &trace.workload);
    w.kv_f64("traced_wall_s", roots as f64 * 1e-9);
    w.kv_f64("self_sum_s", selfs as f64 * 1e-9);
    w.kv_f64("untraced_wall_s", untraced_wall_s);
    trace.write_json(&mut w);
    if let Some(p) = profile {
        // The profiler's own nesting, which the flattened `self:*`
        // spans under `run` do not show.
        w.key("hostprof_edges");
        w.begin_arr();
        for e in &p.edges {
            w.begin_obj();
            w.kv_str("parent", e.parent.map_or("(root)", |s| s.name()));
            w.kv_str("child", e.child.name());
            w.kv_u64("count", e.count);
            w.kv_u64("ns", e.ns);
            w.end_obj();
        }
        w.end_arr();
    }
    w.end_obj();
    std::fs::write(path, w.finish()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run, print the metrics to stderr and the result line to stdout.
/// Returns the process exit code: 0 when the run completed (correct or
/// not — `correct` says which), 2 when it could not run at all.
pub fn main(args: &RunArgs) -> i32 {
    let started = Instant::now();
    match run(args) {
        Ok(report) => {
            for (name, value, unit) in &report.metrics {
                eprintln!("{:<12} {name:<36} {value:>16.6} {unit}", args.workload);
            }
            for n in &report.notes {
                eprintln!("{}: {n}", args.workload);
            }
            for f in &report.failures {
                eprintln!("{}: FAILED: {f}", args.workload);
            }
            eprintln!(
                "{}: {} attempted, {} failed, {:.1} s",
                args.workload,
                report.attempted,
                report.failed,
                started.elapsed().as_secs_f64()
            );
            println!("{}", report.to_json());
            0
        }
        Err(e) => {
            eprintln!("amo-benchmark: {e}");
            2
        }
    }
}
