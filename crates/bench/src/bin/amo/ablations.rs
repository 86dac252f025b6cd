//! `amo ablations`: the design-choice studies DESIGN.md §6 calls out,
//! as simulated cycle counts — deterministic, so CI runs it twice and
//! diffs.

use crate::Stop;
use amo_bench::cli::{Args, Command};
use amo_sim::Machine;
use amo_sync::{BarrierKernel, BarrierSpec, BarrierStyle, Mechanism, VarAlloc};
use amo_types::{NodeId, ProcId, Stats, SystemConfig};
use amo_workloads::{run_barrier, BarrierBench};

pub(crate) const ABLATIONS: Command = Command {
    name: "ablations",
    synopsis: "",
    about: "Print the design-choice ablation studies (simulated cycle counts at 32
        CPUs: AMU cache size and pressure, router contention, delayed vs eager
        put, barrier coding, hop latency, handler overhead, tree branching).",
};

const PROCS: u16 = 32;

fn base(mech: Mechanism, procs: u16) -> BarrierBench {
    BarrierBench {
        episodes: 6,
        warmup: 2,
        ..BarrierBench::paper(mech, procs)
    }
}

fn with_config(mech: Mechanism, cfg: SystemConfig) -> BarrierBench {
    BarrierBench {
        config: Some(cfg),
        ..base(mech, cfg.num_procs)
    }
}

/// One study: a heading, then per variant its label, its cycles per
/// episode and whatever `detail` reads off the machine statistics.
fn study(
    heading: &str,
    variants: impl IntoIterator<Item = (String, BarrierBench)>,
    detail: fn(&Stats) -> String,
) {
    println!("== ablation: {heading} ==");
    for (label, bench) in variants {
        let r = run_barrier(bench);
        let cycles = r.timing.avg_cycles;
        println!("  {label}: {cycles:8.0} cycles/episode{}", detail(&r.stats));
    }
}

/// One study of LL/SC against AMO: per machine configuration, both
/// barriers' cycles per episode and AMO's speedup.
fn versus(heading: &str, machines: impl IntoIterator<Item = (String, SystemConfig)>) {
    println!("== ablation: {heading} ==");
    for (label, cfg) in machines {
        let [llsc, amo] = [Mechanism::LlSc, Mechanism::Amo]
            .map(|mech| run_barrier(with_config(mech, cfg)).timing.avg_cycles);
        let speedup = llsc / amo;
        println!("  {label}: LL/SC {llsc:8.0}, AMO {amo:7.0}, speedup {speedup:5.1}x");
    }
}

/// The single-variable cache-size ablation is flat (one hot word); the
/// paper's claim is that "an N-word AMU cache allows N outstanding
/// synchronization operations". Pressure-test it: 16 independent
/// 2-processor barriers, all homed on node 0, against AMU caches of
/// 2/8/16/64 words.
fn amu_cache_pressure() {
    println!("== ablation: AMU cache pressure (16 concurrent 2-CPU AMO barriers) ==");
    for words in [2usize, 8, 16, 64] {
        let mut cfg = SystemConfig::with_procs(32);
        cfg.amu.cache_words = words;
        let mut machine = Machine::new(cfg);
        let mut alloc = VarAlloc::new();
        let episodes = 8;
        for g in 0..16u16 {
            // All counters share node 0's AMU — the hot-spot scenario.
            // Each group gets its own spec, so its kernels believe only
            // 2 participants exist and the counters are disjoint.
            let spec = BarrierSpec::build(&mut alloc, Mechanism::Amo, NodeId(0), 2, episodes);
            for p in [g * 2, g * 2 + 1] {
                let work: Vec<u64> = (0..episodes)
                    .map(|e| 100 + (p as u64 * 29 + e as u64 * 11) % 500)
                    .collect();
                machine.install_kernel(ProcId(p), Box::new(BarrierKernel::new(spec, work)), 0);
            }
        }
        let res = machine.run(10_000_000_000);
        assert!(res.all_finished);
        let s = machine.stats();
        println!(
            "  {words:>2} words: finish {:>8} cycles ({} hits, {} misses, {} evictions)",
            res.last_finish(),
            s.amu_hits,
            s.amu_misses,
            s.amu_evictions
        );
    }
}

pub(crate) fn run(_: &Args) -> Result<i32, Stop> {
    study(
        &format!("AMU cache size (AMO barrier, {PROCS} CPUs)"),
        [1usize, 8, 64].map(|words| {
            let mut cfg = SystemConfig::with_procs(PROCS);
            cfg.amu.cache_words = words;
            (
                format!("{words:>2} words"),
                with_config(Mechanism::Amo, cfg),
            )
        }),
        |s| {
            let (hits, misses, evictions) = (s.amu_hits, s.amu_misses, s.amu_evictions);
            format!(" ({hits} amu hits, {misses} misses, {evictions} evictions)")
        },
    );
    amu_cache_pressure();
    // Does modelling per-link queueing in the fabric core change the
    // barrier story, or is the home node the only hot spot (as the
    // paper's analysis assumes)?
    versus(
        "fabric router contention (64 CPUs)",
        [("endpoint-only", false), ("per-link", true)].map(|(name, on)| {
            let mut cfg = SystemConfig::with_procs(64);
            cfg.network.model_router_contention = on;
            (format!("{name:>13}"), cfg)
        }),
    );
    let styled = |mech, style| BarrierBench {
        style: Some(style),
        ..base(mech, PROCS)
    };
    study(
        "delayed put (test value) vs eager per-increment updates",
        [
            ("delayed (paper)", BarrierStyle::Naive),
            ("eager per-increment", BarrierStyle::EagerUpdates),
        ]
        .map(|(name, style)| (format!("{name:>20}"), styled(Mechanism::Amo, style))),
        |s| format!(", {} puts, {} word updates", s.puts, s.word_updates_sent),
    );
    study(
        "naive vs spin-variable coding (LL/SC barrier)",
        [
            ("naive (Fig 3a)", BarrierStyle::Naive),
            ("spin variable (Fig 3b)", BarrierStyle::SpinVariable),
        ]
        .map(|(name, style)| (format!("{name:>22}"), styled(Mechanism::LlSc, style))),
        |s| {
            let (reloads, failures) = (s.spin_reloads, s.sc_failures);
            format!(", {reloads} spin reloads, {failures} SC failures")
        },
    );
    versus(
        "network hop latency (LL/SC vs AMO barrier)",
        [50u64, 100, 200].map(|hop| {
            let mut cfg = SystemConfig::with_procs(PROCS);
            cfg.network.hop_latency = hop;
            (format!("hop={hop:>3}"), cfg)
        }),
    );
    study(
        "active-message invocation overhead",
        [100u64, 350, 1000].map(|invoke| {
            let mut cfg = SystemConfig::with_procs(PROCS);
            cfg.actmsg.invoke_cycles = invoke;
            (
                format!("invoke={invoke:>4}"),
                with_config(Mechanism::ActMsg, cfg),
            )
        }),
        |_| String::new(),
    );
    study(
        &format!("tree branching factor (LL/SC tree barrier, {PROCS} CPUs)"),
        [2u16, 4, 8, 16].map(|b| {
            (
                format!("b={b:>2}"),
                base(Mechanism::LlSc, PROCS).with_tree(b),
            )
        }),
        |_| String::new(),
    );
    Ok(0)
}
