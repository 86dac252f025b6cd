//! Where does the synchronization tax actually go?
//!
//! Runs the same contended central barrier under LL/SC and under AMOs,
//! traces both with causal flow ids, extracts each run's critical path,
//! and prints the per-stage attribution side by side. Under LL/SC the
//! episode latency is dominated by the home directory (every spinner's
//! reload is a coherence transaction); AMOs collapse the episode to a
//! handful of NoC traversals plus a few cycles of AMU execution — the
//! paper's claim, cycle-attributed.
//!
//! ```sh
//! cargo run --release --example sync_tax_attribution
//! ```

use amo::obs::{analyze, CritPathReport, Workload, ALL_STAGES};
use amo::prelude::*;

fn attribute(mech: Mechanism, procs: u16) -> CritPathReport {
    let r = run_scenario(
        &BarrierBench {
            episodes: 6,
            warmup: 1,
            ..BarrierBench::paper(mech, procs)
        },
        ObsSpec {
            trace_cap: 1 << 20,
            sample_interval: 0,
            hostprof: false,
        },
    )
    .unwrap();
    let buf = r.obs.trace.as_ref().expect("tracing was requested");
    assert_eq!(buf.dropped, 0, "ring must hold the whole run");
    analyze(buf, Workload::Barrier).expect("barrier trace has episodes")
}

fn main() {
    let procs = 64;
    let llsc = attribute(Mechanism::LlSc, procs);
    let amo = attribute(Mechanism::Amo, procs);
    assert!(llsc.conserved() && amo.conserved());

    println!("critical-path attribution, {procs}-CPU central barrier (6 episodes)\n");
    println!(
        "{:<14} {:>12} {:>8}   {:>12} {:>8}",
        "stage", "ll/sc cy", "share", "amo cy", "share"
    );
    let (lt, at) = (llsc.total_cycles.max(1), amo.total_cycles.max(1));
    for s in ALL_STAGES {
        let (l, a) = (llsc.totals[s.index()], amo.totals[s.index()]);
        if l == 0 && a == 0 {
            continue;
        }
        println!(
            "{:<14} {:>12} {:>7.2}%   {:>12} {:>7.2}%",
            s.label(),
            l,
            l as f64 * 100.0 / lt as f64,
            a,
            a as f64 * 100.0 / at as f64
        );
    }
    println!(
        "{:<14} {:>12} {:>8}   {:>12}",
        "total", llsc.total_cycles, "", amo.total_cycles
    );
    println!(
        "\nAMO removes {:.1}% of the end-to-end barrier latency ({} of {} cycles).",
        (1.0 - amo.total_cycles as f64 / llsc.total_cycles as f64) * 100.0,
        llsc.total_cycles - amo.total_cycles,
        llsc.total_cycles
    );
    let dir_share = llsc.totals[amo::obs::Stage::DirService.index()] as f64 / lt as f64;
    println!(
        "Under LL/SC, {:.0}% of every episode is directory service at the home node;",
        dir_share * 100.0
    );
    println!("under AMOs that stage all but disappears — the sync moved into the AMU.");
}
