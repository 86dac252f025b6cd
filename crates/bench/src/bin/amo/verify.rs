//! `amo verify`: monitored schedule explorations, verification
//! matrices, passivity checks, and schedule-document replays.

use crate::{cache, emit, procs, read, write, Stop};
use amo_bench::cli::{Args, Command};
use amo_sync::Mechanism;
use amo_types::JsonWriter;
use amo_verify::{
    explore, render_matrix_report, run_matrix, ExploreLimits, ExploreReport, ScheduleDoc,
    VerifyMatrix, VerifyModel, VerifyWorkload,
};

pub(crate) const VERIFY: Command = Command {
    name: "verify",
    synopsis: "[--explore] [--matrix FILE] [--replay FILE] [--passivity]
        [--mech MECH] [--workload barrier|ticket-lock] [--procs N]
        [--episodes N] [--rounds N] [--skew-choices N] [--skew-step CYC]
        [--reorder-window CYC] [--dups] [--planted-double-apply] [--max-runs N]
        [--max-choice-points N] [--watchdog CYC] [--emit-doc FILE] [--out FILE]
        [--no-cache] [--cache-dir DIR]",
    about: "One of four modes; exit 1 when violations were found.
        --explore: enumerate (bounded) the schedules of the model --mech ..
        --watchdog describe, under the monitor stack, and report as JSON.
        --emit-doc writes the first counterexample's minimal schedule, or the
        empty known-good one, as an amo-schedule-v1 document.
        --matrix: every cell of an amo-verify-matrix-v1 spec, through the
        result cache (--no-cache, --cache-dir).
        --replay: re-run an amo-schedule-v1 document; the file must equal its
        own re-encoding byte for byte and carry the current fingerprint.
        --passivity: monitored and unmonitored barrier and ticket-lock runs of
        --mech at --procs (default 64) must agree cycle for cycle.
        --out redirects the JSON report.",
};

/// The model `--mech`, `--procs` and the sizing flags describe, running
/// `workload`.
fn model(args: &Args, workload: &str, default_procs: u16) -> Result<VerifyModel, String> {
    let mech = args
        .get("mech")
        .map_or(Ok(Mechanism::Amo), Mechanism::parse)?;
    let workload = match workload {
        "barrier" => VerifyWorkload::Barrier {
            episodes: args.num("episodes", 2)?,
        },
        "ticket-lock" => VerifyWorkload::TicketLock {
            rounds: args.num("rounds", 1)?,
        },
        other => {
            return Err(format!(
                "--workload: unknown workload '{other}' (barrier, ticket-lock)"
            ))
        }
    };
    let model = VerifyModel::new(mech, workload, procs(args, default_procs, 1)?);
    model.check()?;
    Ok(model)
}

fn explore_report_json(model: &VerifyModel, report: &ExploreReport) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.kv_str("schema", "amo-verify-explore-v1");
    w.kv_str("mech", model.mech.label());
    w.kv_str("workload", model.workload.tag());
    w.kv_u64("procs", model.procs as u64);
    w.kv_u64("schedules", report.schedules);
    w.kv_u64("distinct", report.distinct);
    w.kv_u64("pruned", report.pruned);
    w.key("truncated");
    w.bool_val(report.truncated);
    w.kv_u64("violations", report.violations());
    w.key("counterexamples");
    w.begin_arr();
    for cx in &report.counterexamples {
        w.begin_obj();
        w.kv_str("monitor", &cx.monitor);
        w.kv_str("kind", &cx.kind);
        w.kv_str("detail", &cx.detail);
        for (key, tape) in [("tape", &cx.tape), ("minimal", &cx.minimal)] {
            w.key(key);
            w.begin_arr();
            for &v in tape {
                w.u64_val(v as u64);
            }
            w.end_arr();
        }
        w.kv_u64("shrink_probes", cx.shrink_probes as u64);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

fn run_explore(args: &Args) -> Result<i32, Stop> {
    let mut model = model(args, args.get("workload").unwrap_or("barrier"), 2)?;
    model.skew_choices = args.num("skew-choices", model.skew_choices)?;
    model.skew_step = args.num("skew-step", model.skew_step)?;
    model.reorder_window = args.num("reorder-window", model.reorder_window)?;
    model.max_choice_points = args.num("max-choice-points", model.max_choice_points)?;
    model.watchdog = args.num("watchdog", model.watchdog)?;
    model.explore_dups = args.has("dups");
    model.planted_double_apply = args.has("planted-double-apply");
    let mut limits = ExploreLimits::default();
    limits.max_runs = args.num("max-runs", limits.max_runs)?;

    let report = explore(&model, &limits);
    emit(
        args.get("out"),
        &format!("{}\n", explore_report_json(&model, &report)),
    )?;

    if let Some(path) = args.get("emit-doc") {
        let tape = report
            .counterexamples
            .first()
            .map_or(Vec::new(), |cx| cx.minimal.clone());
        let out = model.run_once(&tape);
        let doc = ScheduleDoc::new(model, tape, &out);
        write(path, &format!("{}\n", doc.to_json()))?;
        eprintln!(
            "wrote {path} kind={} fingerprint={}",
            doc.kind, doc.fingerprint
        );
    }
    Ok((report.violations() > 0) as i32)
}

fn run_matrix_mode(args: &Args, path: &str) -> Result<i32, Stop> {
    let matrix =
        VerifyMatrix::from_json(&read(path)?).map_err(|e| Stop::Failed(format!("{path}: {e}")))?;
    let outcomes = run_matrix(&matrix, cache(args).as_ref());
    emit(
        args.get("out"),
        &format!("{}\n", render_matrix_report(&outcomes)),
    )?;
    Ok(outcomes.iter().any(|o| o.violations > 0) as i32)
}

fn run_replay(path: &str) -> Result<i32, Stop> {
    let raw = read(path)?;
    let doc = ScheduleDoc::from_json(&raw).map_err(|e| Stop::Failed(format!("{path}: {e}")))?;
    // The committed document must be exactly what this simulator would
    // mint: decode∘encode is byte-identity (modulo one trailing
    // newline), so stale hand-edits cannot hide behind a lenient parse.
    if doc.to_json() != raw.trim_end_matches('\n') {
        return Err(Stop::Failed(format!(
            "{path} is not byte-identical to its re-encoding — regenerate it"
        )));
    }
    let out = doc.replay().map_err(Stop::Failed)?;
    println!(
        "replay: ok kind={} monitor={} end={} schedule={path}",
        doc.kind,
        if doc.monitor.is_empty() {
            "-"
        } else {
            &doc.monitor
        },
        out.end
    );
    Ok(0)
}

fn run_passivity(args: &Args) -> Result<i32, Stop> {
    let mut status = 0;
    for model in [model(args, "barrier", 64)?, model(args, "ticket-lock", 64)?] {
        let workload = model.workload.tag();
        let monitored = model.run_once(&[]);
        let (end, fingerprint) = model.run_unmonitored(&[]);
        if monitored.end == end && monitored.fingerprint == fingerprint {
            println!(
                "passivity: ok workload={workload} procs={} end={end}",
                model.procs
            );
        } else {
            eprintln!(
                "passivity: VIOLATED workload={workload} procs={} monitored_end={} unmonitored_end={end}",
                model.procs, monitored.end
            );
            status = 1;
        }
    }
    Ok(status)
}

pub(crate) fn run(args: &Args) -> Result<i32, Stop> {
    if let Some(path) = args.get("matrix") {
        run_matrix_mode(args, path)
    } else if let Some(path) = args.get("replay") {
        run_replay(path)
    } else if args.has("passivity") {
        run_passivity(args)
    } else if args.has("explore") {
        run_explore(args)
    } else {
        Err(Stop::Usage(
            "one of --explore, --matrix FILE, --replay FILE, --passivity is required".into(),
        ))
    }
}
