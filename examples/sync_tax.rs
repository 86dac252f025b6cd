//! The paper's introduction, measured: "a 32-processor barrier
//! operation on an SGI Origin 3000 system takes about 90,000 cycles,
//! during which time the 32 processors could execute 5.76 million
//! FLOPS" — synchronization as a tax on real computation.
//!
//! This example runs a bulk-synchronous iterative application (work,
//! barrier, repeat) and reports what fraction of the machine's time
//! each mechanism's barrier consumes, across work granularities.
//!
//! ```sh
//! cargo run --release --example sync_tax
//! ```

use amo::prelude::*;
use amo::workloads::app::{barrier_cost_cycles, SyncTax};

fn main() {
    let procs = 32u16;

    println!("== the intro argument at {procs} CPUs ==");
    let llsc = barrier_cost_cycles(Mechanism::LlSc, procs);
    let amo = barrier_cost_cycles(Mechanism::Amo, procs);
    println!(
        "one LL/SC barrier: {llsc:.0} cycles — {procs} CPUs could have run \
         ~{:.2}M instructions in that time",
        llsc * procs as f64 / 1e6
    );
    println!(
        "one AMO   barrier: {amo:.0} cycles  ({:.1}x cheaper)\n",
        llsc / amo
    );

    println!("== synchronization tax of a bulk-synchronous app ==");
    println!("(fraction of each work+barrier step spent synchronizing)\n");
    println!(
        "{:>12} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "work/step", "LL/SC", "ActMsg", "Atomic", "MAO", "AMO"
    );
    for grain in [1_000, 10_000, 100_000] {
        print!("{grain:>12}");
        for mech in Mechanism::ALL {
            let cell = SyncTax {
                mech,
                procs,
                grain,
                steps: 8,
                warmup: 2,
            };
            let run = run_scenario(&cell, ObsSpec::default()).unwrap_or_else(|f| panic!("{f}"));
            print!(" {:>8.1}%", run.timing.tax * 100.0);
        }
        println!();
    }
    println!(
        "\nAt fine granularity conventional synchronization devours the machine;\n\
         AMOs give most of it back — the paper's motivating observation."
    );
}
