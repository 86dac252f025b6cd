//! `amo-benchmark` command line; see the crate docs and README.

use amo_bench::cli::Args;
use amo_benchmark::alloc::SwitchedCountingAlloc;
use amo_benchmark::run::{self, RunArgs};
use amo_benchmark::suite::{self, SuiteArgs};

/// Counts allocations only while `alloc::counted` asks it to; see the
/// module for why `amo_obs::CountingAlloc` cannot be used here.
#[global_allocator]
static ALLOC: SwitchedCountingAlloc = SwitchedCountingAlloc;

fn die(msg: String) -> ! {
    eprintln!("amo-benchmark: {msg}");
    std::process::exit(2);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw);
    if let Some(stray) = args.errors.first() {
        die(format!("unexpected argument {stray:?}"));
    }
    let seed = args.num("seed", 1u64).unwrap_or_else(|e| die(e));
    let quick = args.has("quick");
    let Some(workload) = args.get("workload") else {
        let Some(out) = args.get("out") else {
            die("give --workload W (one run) or --out FILE (the whole suite)".into());
        };
        std::process::exit(suite::main(&SuiteArgs {
            seed,
            out: out.into(),
            quick,
            selfcheck: args.has("selfcheck"),
        }));
    };
    let run_args = RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: args.num("seconds", 10.0).unwrap_or_else(|e| die(e)),
        trace: args.num("trace", 0u8).unwrap_or_else(|e| die(e)) != 0,
        quick,
        trace_out: args.get("trace-out").map(Into::into),
        cache_dir: args.get("cache-dir").map(Into::into),
    };
    std::process::exit(run::main(&run_args));
}
