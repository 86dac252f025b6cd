//! `amo experiment barrier|lock`: run a single custom experiment and,
//! on request, export what the run's observers saw.

use crate::{procs, write, Stop};
use amo_bench::cli::{Args, Command};
use amo_obs::{
    analyze, hostprof_json, metrics_json, perfetto_json, validate_hostprof, validate_perfetto,
    HostProfSection, Workload,
};
use amo_sync::Mechanism;
use amo_types::stats::ALL_OP_CLASSES;
use amo_types::{Stats, SystemConfig};
use amo_workloads::{
    run_scenario, BarrierAlgo, BarrierBench, LockBench, LockKind, ObsReport, ObsSpec, Run,
    Scenario, SkewMode,
};

/// The flags [`parse_obs`] reads, shared by both commands.
macro_rules! obs_flags {
    () => {
        "[--trace-out FILE] [--trace-cap N] [--critpath-out FILE]
        [--metrics-json FILE] [--sample-interval CYC] [--hostprof-out FILE]"
    };
}

pub(crate) const BARRIER: Command = Command {
    name: "experiment barrier",
    synopsis: concat!(
        "--mech MECH --procs N [--episodes N] [--warmup N]
        [--algo ALGO] [--skew CYC] [--seed N] [--watchdog CYC] [--csv]\n",
        obs_flags!()
    ),
    about: "Run one barrier benchmark, e.g. --mech amo --procs 64 --algo tree:8.
        MECH: llsc, atomic, actmsg, mao, amo (or the table labels LL/SC, ...);
        ALGO: central (the default), tree:B, ktree:B, dissem.
        --trace-out: Perfetto trace; --critpath-out: amo-critpath-v1 report;
        --metrics-json: amo-metrics-v1 run bundle; --hostprof-out:
        amo-hostprof-v1 host self-profile of this (cold) run.",
};

pub(crate) const LOCK: Command = Command {
    name: "experiment lock",
    synopsis: concat!(
        "--mech MECH --kind KIND --procs N [--rounds N]
        [--cs CYC] [--think CYC] [--seed N] [--watchdog CYC] [--csv]\n",
        obs_flags!()
    ),
    about: "Run one lock benchmark, e.g. --mech llsc --kind ticket --procs 32 --csv.
        KIND: ticket, array, mcs. Observability flags as for the barrier.",
};

/// Where [`emit_obs`] writes each document; `None` skips it.
pub(crate) struct ObsPaths<'a> {
    pub trace: Option<&'a str>,
    pub critpath: Option<&'a str>,
    pub metrics: Option<&'a str>,
    pub hostprof: Option<&'a str>,
}

/// The output paths the observability flags name, and the observers a
/// run needs to produce them.
fn parse_obs(args: &Args) -> Result<(ObsSpec, ObsPaths<'_>), String> {
    let paths = ObsPaths {
        trace: args.get("trace-out"),
        critpath: args.get("critpath-out"),
        metrics: args.get("metrics-json"),
        hostprof: args.get("hostprof-out"),
    };
    let tracing = paths.trace.is_some() || paths.critpath.is_some();
    let sampling = paths.metrics.is_some() || args.has("sample-interval");
    let spec = ObsSpec {
        trace_cap: if tracing {
            args.num("trace-cap", 1 << 20)?
        } else {
            0
        },
        sample_interval: if sampling {
            args.num("sample-interval", 500)?
        } else {
            0
        },
        hostprof: paths.hostprof.is_some(),
    };
    Ok((spec, paths))
}

/// Write the requested Perfetto / critpath / metrics / hostprof
/// documents of one finished run — the only code that writes them,
/// whatever launched the run. `meta` is stamped on the metrics and
/// hostprof documents, and its first value names the hostprof section.
pub(crate) fn emit_obs(
    paths: &ObsPaths,
    cfg: &SystemConfig,
    stats: &Stats,
    events: u64,
    obs: &ObsReport,
    workload: Workload,
    meta: &[(&str, String)],
) -> Result<(), Stop> {
    let traced = || obs.trace.as_ref().expect("the run was traced");
    if let Some(buf) = obs.trace.as_ref().filter(|buf| buf.dropped > 0) {
        eprintln!(
            "WARNING: ring tracer dropped {} events; trace-derived artefacts \
             cover only the final window of the run — rerun with a larger \
             --trace-cap for complete coverage",
            buf.dropped
        );
    }
    if let Some(path) = paths.trace {
        let json = perfetto_json(traced(), cfg.num_nodes(), cfg.procs_per_node);
        write(path, &json)?;
        // Re-validated after writing, so a malformed export fails
        // loudly here rather than in the viewer.
        let s = validate_perfetto(&json, Some(cfg.num_nodes()))
            .map_err(|e| Stop::Failed(format!("{path}: invalid trace export: {e}")))?;
        eprintln!(
            "wrote {path}: {} events on {} tracks ({} dropped); open at ui.perfetto.dev",
            s.events,
            s.tracks,
            traced().dropped
        );
    }
    if let Some(path) = paths.critpath {
        let report = analyze(traced(), workload)
            .map_err(|e| Stop::Failed(format!("critical-path analysis failed: {e}")))?;
        write(path, &report.to_json())?;
        eprint!("{}", report.render_text());
        eprintln!("wrote {path}");
    }
    if let Some(path) = paths.metrics {
        let doc = metrics_json(stats, obs.timeseries.as_ref(), obs.trace.as_ref(), meta);
        write(path, &doc)?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = paths.hostprof {
        let report = obs.hostprof.as_ref().expect("the run was profiled");
        // A single uncached run has no warm-up pass, so container
        // growth is in-profile: this is a "cold" section by definition.
        let section = HostProfSection {
            name: meta.first().map_or("experiment", |(_, v)| v.as_str()),
            phase: "cold",
            events,
            report,
        };
        let doc = hostprof_json(meta, &[section]);
        let summaries = validate_hostprof(&doc)
            .map_err(|e| Stop::Failed(format!("{path}: invalid hostprof doc: {e}")))?;
        write(path, &doc)?;
        eprint!("{}", report.self_time_table());
        let s = &summaries[0];
        eprintln!(
            "wrote {path}: {} section, {:.1} ms profiled wall-clock, alloc tracking {}",
            s.phase,
            s.wall_ns as f64 / 1e6,
            if s.alloc_tracking { "on" } else { "off" }
        );
    }
    Ok(())
}

/// Print a finished run: as CSV (`header`, then `row` plus the traffic
/// totals), or as the `summary` line, the machine statistics and the
/// mean operation latencies.
fn print_result(csv: bool, stats: &Stats, header: &str, row: String, summary: String) {
    if csv {
        println!(
            "{header}\n{row},{},{}",
            stats.total_msgs(),
            stats.total_bytes()
        );
        return;
    }
    let mut latencies = String::from("mean op latency:");
    for c in ALL_OP_CLASSES {
        if let Some(l) = stats.mean_op_latency(c) {
            latencies.push_str(&format!(" {}={:.0}cy", c.label(), l));
        }
    }
    println!("{summary}\n{stats}\n{latencies}");
}

/// Check `bench`, run it under the observers the flags ask for, and
/// write the documents they name.
fn run_observed<S: Scenario + Clone>(
    args: &Args,
    bench: &S,
    meta: &[(&str, String)],
) -> Result<Run<S>, Stop> {
    bench.check()?;
    let (obs, paths) = parse_obs(args)?;
    let r = run_scenario(bench, obs).map_err(|f| Stop::Failed(f.to_string()))?;
    let (cfg, events) = (bench.config(), r.info.events);
    emit_obs(
        &paths,
        &cfg,
        &r.stats,
        events,
        &r.obs,
        bench.workload(),
        meta,
    )?;
    Ok(r)
}

pub(crate) fn barrier(args: &Args) -> Result<i32, Stop> {
    let mech = Mechanism::parse(args.get("mech").expect("required by the synopsis"))?;
    let procs = procs(args, 0, 2)?;
    let bench = BarrierBench {
        mech,
        procs,
        episodes: args.num("episodes", 10)?,
        warmup: args.num("warmup", 2)?,
        algo: args
            .get("algo")
            .map_or(Ok(BarrierAlgo::Central), BarrierAlgo::parse)?,
        style: None,
        max_skew: args.num("skew", 800)?,
        skew: SkewMode::Random,
        seed: args.num("seed", 0xA40_5EEDu64)?,
        watchdog: args.num("watchdog", 0)?,
        config: None,
    };
    let (mech, algo) = (mech.label(), bench.algo);
    let meta = [
        ("workload", "barrier".into()),
        ("mech", mech.into()),
        ("procs", procs.to_string()),
        ("algo", format!("{algo:?}")),
        ("episodes", bench.episodes.to_string()),
    ];
    let r = run_observed(args, &bench, &meta)?;
    let t = r.timing;
    print_result(
        args.has("csv"),
        &r.stats,
        "kind,mech,procs,algo,avg_cycles,cycles_per_proc,msgs,bytes",
        format!(
            "barrier,{mech},{procs},{algo:?},{:.1},{:.2}",
            t.avg_cycles, t.cycles_per_proc
        ),
        format!(
            "{mech} barrier, {procs} CPUs, {algo:?}: {:.0} cycles/episode \
             ({:.1} cycles/processor)",
            t.avg_cycles, t.cycles_per_proc
        ),
    );
    Ok(0)
}

pub(crate) fn lock(args: &Args) -> Result<i32, Stop> {
    let mech = Mechanism::parse(args.get("mech").expect("required by the synopsis"))?;
    let kind = LockKind::parse(args.get("kind").expect("required by the synopsis"))?;
    let procs = procs(args, 0, 2)?;
    let bench = LockBench {
        mech,
        kind,
        procs,
        rounds: args.num("rounds", 8)?,
        cs_cycles: args.num("cs", 250)?,
        max_think: args.num("think", 1000)?,
        seed: args.num("seed", 0x10C_5EEDu64)?,
        watchdog: args.num("watchdog", 0)?,
        check_exclusion: true,
        config: None,
    };
    let mech = mech.label();
    let meta = [
        ("workload", "lock".into()),
        ("mech", mech.into()),
        ("kind", format!("{kind:?}")),
        ("procs", procs.to_string()),
        ("rounds", bench.rounds.to_string()),
    ];
    let r = run_observed(args, &bench, &meta)?;
    let t = r.timing;
    print_result(
        args.has("csv"),
        &r.stats,
        "kind,mech,lock,procs,total_cycles,cycles_per_acq,msgs,bytes",
        format!(
            "lock,{mech},{kind:?},{procs},{},{:.1}",
            t.total_cycles, t.cycles_per_acquisition
        ),
        format!(
            "{mech} {kind:?} lock, {procs} CPUs: {} cycles total \
             ({:.0} cycles/acquisition, 0 exclusion violations)",
            t.total_cycles, t.cycles_per_acquisition
        ),
    );
    Ok(0)
}
