//! Where does a contended lock actually queue?
//!
//! Runs the same heavily contended ticket-lock benchmark under LL/SC
//! and under AMOs, samples every node's occupancy as the run progresses,
//! and renders per-node ASCII timelines. Under LL/SC the home node's
//! directory queue lights up (every spinner's reload is a coherence
//! transaction at node 0); under AMOs the spinning moves into the AMU
//! and the directory stays quiet.
//!
//! ```sh
//! cargo run --release --example congestion_timeline
//! ```

use amo::obs::Metric;
use amo::prelude::*;

fn timeline(mech: Mechanism) {
    let procs = 32;
    let r = run_scenario(
        &LockBench {
            rounds: 6,
            cs_cycles: 400,
            max_think: 200, // short think time = high contention
            ..LockBench::paper(mech, LockKind::Ticket, procs)
        },
        ObsSpec {
            trace_cap: 0, // timelines only; add a cap to also keep a trace
            sample_interval: 2_000,
            hostprof: false,
        },
    )
    .unwrap();
    let ts = r.obs.timeseries.expect("sampling was enabled");
    println!(
        "== {} ticket lock, {procs} CPUs: {} cycles total, {:.0} cycles/acquisition",
        mech.label(),
        r.timing.total_cycles,
        r.timing.cycles_per_acquisition
    );
    for metric in [Metric::DirQueue, Metric::Egress] {
        print!("{}", ts.render_ascii(metric, 72));
    }
    println!();
}

fn main() {
    for mech in [Mechanism::LlSc, Mechanism::Amo] {
        timeline(mech);
    }
    println!("(glyph scale: ' ' idle through '@' at the metric's peak; node0 is the lock's home)");
}
