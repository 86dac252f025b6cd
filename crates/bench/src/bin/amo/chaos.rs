//! `amo chaos` and `amo chaos_search`: fault-injection runs of the AMO
//! barrier and the seeded search for minimal failing fault plans.
//!
//! Every stdout line is derived from simulated state and seeds only —
//! no wall clock — so CI runs the same command twice and diffs the
//! output byte-for-byte to prove fault injection, search and shrinking
//! are deterministic. The runs go through the same fallible runner
//! (`run_scenario`, arithmetic skew mode) that campaign grid cells use.

use crate::{read, run_flags, write, Stop};
use amo_bench::cli::{Args, Command};
use amo_campaign::chaos::{chaos_bench, failure_kind, search, ChaosGrid, ChaosSpec};
use amo_campaign::chaos::{DeliveryPlan, PlanDoc};
use amo_types::Stats;
use amo_workloads::runner::{run_scenario, BarrierBench, ObsSpec, RunFailure, RunInfo, Scenario};

pub(crate) const CHAOS: Command = Command {
    name: "chaos",
    synopsis: "[--procs N] [--episodes N] [--quick] [--seed N] [--watchdog CYC]
        [--rate PPM] [--jitter CYC] [--brownout] [--unrecoverable]
        [--drop PPM] [--dup PPM] [--reorder CYC] [--timeout CYC] [--retries N]
        [--plan-out FILE] [--plan-in FILE]",
    about: "Drive the AMO barrier through a lossy, jittery fabric with the watchdog
        armed and print what the fault subsystem did; the barrier must complete
        (any abort is exit 1). --rate/--jitter/--brownout: link-level faults.
        --unrecoverable corrupts every traversal against a replay budget of one,
        and expects a typed error (exit 0), never a panic.
        --drop/--dup/--reorder: delivery faults, recovered end to end within
        --timeout/--retries.
        --plan-out: also write the run as a replayable amo-fault-plan-v1 document
        (the delivery plan, the observed outcome, a fingerprint of simulator and
        machine configuration); to replay exactly it runs the delivery faults
        only, ignoring --rate/--jitter/--brownout.
        --plan-in: replay such a document. A fingerprint mismatch (the simulator
        or configuration drifted) is refused, exit 1; exit 0 only if the run
        reproduces the recorded outcome.",
};

pub(crate) const CHAOS_SEARCH: Command = Command {
    name: "chaos_search",
    synopsis: "[--samples N] [--seed N] [--procs N] [--episodes N]
        [--watchdog CYC] [--max-failures N] [--drops a,b,..] [--dups a,b,..]
        [--reorders a,b,..] [--timeouts a,b,..] [--retries a,b,..] [--out FILE]",
    about: "Sample seeded delivery-fault plans from a grid, probe the AMO barrier
        under each, and shrink every failure to a minimal reproducer. Each list
        flag overrides one grid dimension (a single value pins it), so a
        known-bad region, say --drops 400000 --retries 1, is a planted target
        the search must find. --out writes the first minimal plan for
        `amo chaos --plan-in`; finding none is then exit 1.",
};

/// A plan's delivery-fault knobs, as every report line spells them.
fn fmt_knobs(p: &DeliveryPlan) -> String {
    format!(
        "drop_ppm={} dup_ppm={} reorder_window={} e2e_timeout={} max_e2e_retries={}",
        p.drop_ppm, p.dup_ppm, p.reorder_window, p.e2e_timeout, p.max_e2e_retries
    )
}

fn fmt_plan(p: &DeliveryPlan) -> String {
    format!("{} fault_seed={:#x}", fmt_knobs(p), p.seed)
}

fn print_fault_counters(info: &RunInfo, s: &Stats) {
    for (name, value) in [
        ("end", info.end),
        ("events", info.events),
        ("link_crc_errors", s.link_crc_errors),
        ("link_retransmissions", s.link_retransmissions),
        ("link_replay_cycles", s.link_replay_cycles),
        ("link_jitter_cycles", s.link_jitter_cycles),
        ("amu_nacks", s.amu_nacks),
        ("amu_brownout_nacks", s.amu_brownout_nacks),
        ("amu_nack_retries", s.amu_nack_retries),
        ("actmsg_retransmissions", s.actmsg_retransmissions),
        ("msgs_dropped", s.msgs_dropped),
        ("msgs_duplicated", s.msgs_duplicated),
        ("msgs_reordered", s.msgs_reordered),
        ("dup_suppressed", s.dup_suppressed),
        ("e2e_timeouts", s.e2e_timeouts),
        ("e2e_retransmissions", s.e2e_retransmissions),
    ] {
        println!("{name}={value}");
    }
}

fn print_abort(f: &RunFailure) {
    match &f.error {
        Some(err) => {
            println!("result=error kind={:?} at={}", err.kind, err.at);
            println!("error: {err}");
            for (n, d) in err.bundle.queue_depths.iter().enumerate() {
                println!(
                    "node{n}: dir_queue={} amu_queue={} outstanding_misses={}",
                    d.dir_queue, d.amu_queue, d.outstanding_misses
                );
            }
            print!("{}", err.bundle.stall_report);
        }
        None => {
            println!("result=stall hit_limit={}", f.hit_limit);
            print!("{}", f.stall_report);
        }
    }
}

/// Run the barrier, print its fault counters and verdict, and return
/// the observed outcome as a plan document records it: `ok`, `Stall`,
/// or the typed error's kind name.
fn run_and_report(bench: BarrierBench) -> &'static str {
    match run_scenario(&bench, ObsSpec::default()) {
        Ok(r) => {
            print_fault_counters(&r.info, &r.stats);
            println!(
                "result=ok all_finished={} last_finish={}",
                r.info.all_finished, r.info.last_finish
            );
            "ok"
        }
        Err(f) => {
            print_fault_counters(&f.info, &f.stats);
            print_abort(&f);
            failure_kind(&f)
        }
    }
}

/// Write `doc` as `--plan-out` / `--out` asked and say so on stdout.
fn write_plan(path: &str, doc: &PlanDoc) -> Result<(), Stop> {
    write(path, &doc.to_json())?;
    println!(
        "plan_out={path} kind={} fingerprint={}",
        doc.kind, doc.fingerprint
    );
    Ok(())
}

/// Replay an `amo-fault-plan-v1` document; status 0 only on an exact
/// reproduction of its recorded outcome.
fn replay_plan(path: &str) -> Result<i32, Stop> {
    let doc = PlanDoc::from_json(&read(path)?)
        .and_then(|doc| doc.check_fingerprint().map(|()| doc))
        .map_err(|e| Stop::Failed(format!("{path}: {e}")))?;
    let bench = doc.bench;
    println!(
        "chaos: replay plan={path} expect={} procs={} episodes={} watchdog={} {}",
        doc.kind,
        bench.procs,
        bench.episodes,
        bench.watchdog,
        fmt_plan(&doc.plan)
    );
    let observed = run_and_report(doc.run());
    if observed != doc.kind {
        return Err(Stop::Failed(format!(
            "plan did not reproduce: expected {} but observed {observed}",
            doc.kind
        )));
    }
    println!("replay=reproduced kind={observed}");
    Ok(0)
}

pub(crate) fn chaos(args: &Args) -> Result<i32, Stop> {
    if let Some(path) = args.get("plan-in") {
        return replay_plan(path);
    }
    let unrecoverable = args.has("unrecoverable");
    // The barrier `--plan-in` replays: the plan and nothing else.
    let mut cell = BarrierBench {
        episodes: if args.has("quick") { 4 } else { 10 },
        ..chaos_bench()
    };
    run_flags(args, &mut cell, 2)?;
    let seed: u64 = args.num("seed", 0xC4A0_5EED)?;
    let plan_out = args.get("plan-out");

    let defaults = cell.config().faults;
    let plan = DeliveryPlan {
        drop_ppm: args.num("drop", 0)?,
        dup_ppm: args.num("dup", 0)?,
        reorder_window: args.num("reorder", 0)?,
        e2e_timeout: args.num("timeout", defaults.e2e_timeout)?,
        max_e2e_retries: args.num("retries", defaults.max_e2e_retries)?,
        seed,
    };
    let mut bench = plan.on(&cell);
    let faults = &mut bench.config.as_mut().expect("the plan's machine").faults;
    // The classic lossy-fabric dimensions are parsed either way, but
    // plan-out mode does not apply them, so the written plan replays
    // exactly.
    let (rate, jitter) = (args.num("rate", 20_000)?, args.num("jitter", 8)?);
    if plan_out.is_none() {
        faults.link_error_ppm = rate;
        faults.jitter_max = jitter;
        if args.has("brownout") {
            faults.amu_brownout_period = 20_000;
            faults.amu_brownout_len = 2_000;
        }
        if unrecoverable {
            faults.link_error_ppm = 1_000_000;
            faults.max_link_retries = 1;
        }
    }
    let faults = *faults;
    bench.check()?;
    println!(
        "chaos: procs={} rate_ppm={} seed={seed:#x} watchdog={} \
         jitter={} episodes={} unrecoverable={unrecoverable} {}",
        cell.procs,
        faults.link_error_ppm,
        cell.watchdog,
        faults.jitter_max,
        cell.episodes,
        fmt_knobs(&plan)
    );

    let observed = run_and_report(bench);
    let mut status = 0;
    if unrecoverable && observed == "ok" {
        eprintln!("expected an unrecoverable fault, but the run completed");
        status = 1;
    }
    if !unrecoverable && observed != "ok" && plan_out.is_none() {
        eprintln!("unexpected abort in a recoverable configuration");
        status = 1;
    }

    if let Some(path) = plan_out {
        write_plan(path, &PlanDoc::new(&cell, plan, observed))?;
    }
    Ok(status)
}

fn fmt_list<T: std::fmt::Display>(v: &[T]) -> String {
    v.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

pub(crate) fn chaos_search(args: &Args) -> Result<i32, Stop> {
    let g = ChaosGrid::default();
    let mut bench = chaos_bench();
    run_flags(args, &mut bench, 2)?;
    let spec = ChaosSpec {
        samples: args.num("samples", 16)?,
        seed: args.num("seed", 0xC4A0_5EED)?,
        bench,
        max_failures: args.num("max-failures", 4)?,
        grid: ChaosGrid {
            drop_ppm: args.list("drops", g.drop_ppm)?,
            dup_ppm: args.list("dups", g.dup_ppm)?,
            reorder_window: args.list("reorders", g.reorder_window)?,
            e2e_timeout: args.list("timeouts", g.e2e_timeout)?,
            max_e2e_retries: args.list("retries", g.max_e2e_retries)?,
        },
    };
    spec.check()?;

    println!(
        "chaos-search: samples={} seed={:#x} procs={} episodes={} watchdog={} max_failures={}",
        spec.samples, spec.seed, bench.procs, bench.episodes, bench.watchdog, spec.max_failures
    );
    println!(
        "grid: drops=[{}] dups=[{}] reorders=[{}] timeouts=[{}] retries=[{}]",
        fmt_list(&spec.grid.drop_ppm),
        fmt_list(&spec.grid.dup_ppm),
        fmt_list(&spec.grid.reorder_window),
        fmt_list(&spec.grid.e2e_timeout),
        fmt_list(&spec.grid.max_e2e_retries),
    );

    let report = search(&spec);
    println!(
        "searched: sampled={} benign={} failures={}",
        report.sampled,
        report.benign,
        report.failures.len()
    );
    for f in &report.failures {
        println!(
            "finding: sample={} kind={} {}",
            f.sample,
            f.kind,
            fmt_plan(&f.plan)
        );
        println!(
            "minimal: sample={} kind={} {} shrink_probes={}",
            f.sample,
            f.kind,
            fmt_plan(&f.minimal),
            f.shrink_probes
        );
    }

    if let Some(path) = args.get("out") {
        let Some(f) = report.failures.first() else {
            return Err(Stop::Failed(format!(
                "no failure found in {} samples, nothing to write",
                spec.samples
            )));
        };
        write_plan(path, &PlanDoc::new(&bench, f.minimal, &f.kind))?;
    }
    Ok(0)
}
