//! # amo — Active Memory Operations
//!
//! A from-scratch Rust reproduction of *“Highly Efficient
//! Synchronization Based on Active Memory Operations”* (Zhang, Fang &
//! Carter, IPDPS 2004): a cycle-level CC-NUMA multiprocessor simulator
//! whose home memory controllers carry an **Active Memory Unit (AMU)**,
//! plus the paper's complete synchronization-algorithm zoo — barriers
//! and spin locks over LL/SC, processor-side atomics, active messages,
//! conventional memory-side atomics (MAO), and AMOs.
//!
//! ## Quick start
//!
//! ```
//! use amo::prelude::*;
//!
//! // Run the paper's AMO barrier on an 8-processor machine and compare
//! // it with the LL/SC baseline.
//! let mk = |mech| BarrierBench { episodes: 4, warmup: 1, ..BarrierBench::paper(mech, 8) };
//! let amo = run_barrier(mk(Mechanism::Amo));
//! let llsc = run_barrier(mk(Mechanism::LlSc));
//! let speedup = llsc.timing.avg_cycles / amo.timing.avg_cycles;
//! assert!(speedup > 1.0, "AMO beats LL/SC: {speedup:.1}x");
//! ```
//!
//! ## Crate map
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | experiments | [`workloads`] | the one run driver and its scenarios: barrier and lock benchmarks, application studies |
//! | observability | [`obs`] | event tracing, Perfetto export, occupancy time series |
//! | algorithms | [`sync`] | barriers (centralized, combining tree, dissemination), ticket, array & MCS locks, and the installers that put them on a machine |
//! | machine | [`sim`] | the `Machine`: hubs, fabric, event loop |
//! | processor | [`cpu`] | kernels, memory ops, LL/SC, spinning, handlers |
//! | home node | [`directory`], [`amu`], [`dram`] | coherence protocol, AMU, memory |
//! | fabric | [`noc`] | fat-tree topology, endpoint serialization, link-level replay |
//! | robustness | [`faults`] | deterministic fault plans: link errors, jitter, AMU brown-outs |
//! | substrate | [`types`], [`engine`], [`cache`] | vocabulary, events, caches |
//!
//! The architectural parameters default to the paper's Table 1
//! ([`types::SystemConfig::default`]); experiments reproduce Tables 2–4
//! and Figures 5–7 (`cargo run --release -p amo-bench -- tables`; `-- help`
//! lists the other subcommands of the `amo` command).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use amo_amu as amu;
pub use amo_cache as cache;
pub use amo_cpu as cpu;
pub use amo_directory as directory;
pub use amo_dram as dram;
pub use amo_engine as engine;
pub use amo_faults as faults;
pub use amo_noc as noc;
pub use amo_obs as obs;
pub use amo_sim as sim;
pub use amo_sync as sync;
pub use amo_types as types;
pub use amo_workloads as workloads;

/// The names almost every user of this library needs.
pub mod prelude {
    pub use amo_sim::{Machine, RunResult, SimError, SimErrorKind};
    pub use amo_sync::{
        ArrayLockKernel, ArrayLockSpec, BarrierKernel, BarrierSpec, BarrierStyle,
        DisseminationKernel, DisseminationSpec, KTreeKernel, KTreeSpec, McsLockKernel, McsLockSpec,
        Mechanism, ProcPlan, TicketLockKernel, TicketLockSpec, VarAlloc,
    };
    pub use amo_types::{Addr, Cycle, FaultConfig, NodeId, ProcId, SystemConfig, Word};
    pub use amo_workloads::{
        run_barrier, run_barrier_obs, run_lock, run_lock_obs, run_scenario, try_run_barrier,
        try_run_barrier_obs, try_run_lock, try_run_lock_obs, BarrierAlgo, BarrierBench,
        BarrierResult, LockBench, LockKind, LockResult, ObsReport, ObsSpec, RunFailure, Scenario,
        SkewMode,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn prelude_quickstart_compiles_and_runs() {
        let r = run_barrier(BarrierBench {
            episodes: 3,
            warmup: 1,
            ..BarrierBench::paper(Mechanism::Amo, 4)
        });
        assert!(r.timing.avg_cycles > 0.0);
    }
}
