//! The fixed vocabulary of the benchmark: workload names, sizes, and
//! every metric with its unit. `BENCHMARK.json` at the repository root
//! lists the same names; a test keeps the two in step.

use std::collections::BTreeMap;

/// The six workloads, in reporting order. Why each exists is in
/// `BENCHMARK.json` and the crate README.
pub const WORKLOADS: [&str; 6] = [
    "barrier_llsc_64",
    "barrier_amo_64",
    "lock_amo_64",
    "paper_cold",
    "paper_warm",
    "verify_matrix",
];

/// End-to-end metrics `(name, unit)`, measured untraced; every workload
/// reports all of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("work_per_s", "op/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, from the traced pass, the exact
/// counters and the layer drivers. A metric that does not apply to a
/// workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 73] = [
    // The whole program: heap allocations of the timed section, counted
    // on a pass of its own (counting perturbs time, see `alloc`).
    ("host.allocs_per_op", "count"),
    // sim: events and simulated time per op, dispatch self-times,
    // construction cost.
    ("sim.events_per_op", "count"),
    ("sim.cycles_per_op", "cycles"),
    ("sim.ev_proc_wake_per_op", "count"),
    ("sim.ev_proc_word_update_per_op", "count"),
    ("sim.ev_to_hub_per_op", "count"),
    ("sim.ev_dir_process_per_op", "count"),
    ("sim.ev_to_proc_per_op", "count"),
    ("sim.ev_amu_per_op", "count"),
    ("sim.ev_proc_timeout_per_op", "count"),
    ("sim.run_self_ns_per_event", "ns"),
    ("sim.dispatch_word_update_self_ns", "ns"),
    ("sim.dispatch_to_hub_self_ns", "ns"),
    ("sim.dispatch_to_proc_self_ns", "ns"),
    ("sim.dispatch_dir_process_self_ns", "ns"),
    ("sim.dispatch_proc_wake_self_ns", "ns"),
    ("sim.machine_new_us_p4", "us"),
    ("sim.machine_new_us_p64", "us"),
    ("sim.machine_new_us_p256", "us"),
    ("engine.queue_ns_per_event", "ns"),
    ("noc.msgs_per_op", "count"),
    ("noc.byte_hops_per_op", "count"),
    ("noc.local_msgs_per_op", "count"),
    ("noc.send_self_ns", "ns"),
    ("noc.send_ns", "ns"),
    ("directory.transactions_per_op", "count"),
    ("directory.queued_per_op", "count"),
    ("directory.invalidations_per_op", "count"),
    ("directory.interventions_per_op", "count"),
    ("directory.protocol_self_ns", "ns"),
    ("directory.request_ns", "ns"),
    ("amu.ops_per_op", "count"),
    ("amu.hit_ratio", "ratio"),
    ("amu.puts_per_op", "count"),
    ("amu.word_updates_per_op", "count"),
    ("amu.exec_self_ns", "ns"),
    ("amu.submit_ns", "ns"),
    ("cache.l1_hit_ratio", "ratio"),
    ("cache.l2_hit_ratio", "ratio"),
    ("cache.spin_reloads_per_op", "count"),
    ("cache.probe_ns", "ns"),
    ("cache.word_update_ns", "ns"),
    ("cache.fill_inval_ns", "ns"),
    ("cpu.ll_per_op", "count"),
    ("cpu.sc_fail_ratio", "ratio"),
    ("cpu.handlers_per_op", "count"),
    ("cpu.retx_per_op", "count"),
    ("cpu.step_ns", "ns"),
    ("cpu.handle_ns", "ns"),
    ("dram.accesses_per_op", "count"),
    ("workloads.executor_efficiency", "ratio"),
    ("workloads.batch_ms_p50", "ms"),
    ("workloads.batch_ms_max", "ms"),
    ("workloads.cpu_over_wall", "ratio"),
    ("campaign.cells", "count"),
    ("campaign.unique_cells", "count"),
    ("campaign.cache_hit_ratio", "ratio"),
    ("campaign.cache_bytes", "count"),
    ("campaign.spec_parse_ms", "ms"),
    ("campaign.key_us", "us"),
    ("campaign.cache_get_us", "us"),
    ("campaign.outcome_decode_us", "us"),
    ("campaign.cache_put_us", "us"),
    ("campaign.render_ms", "ms"),
    ("campaign.execute_share", "ratio"),
    ("campaign.paper_err_pct", "%"),
    ("verify.schedules", "count"),
    ("verify.distinct_ratio", "ratio"),
    ("verify.run_once_us", "us"),
    ("verify.explore_overhead_share", "ratio"),
    ("obs.hostprof_overhead_pct", "%"),
    ("obs.ring_trace_overhead_pct", "%"),
    ("obs.monitor_overhead_pct", "%"),
];

/// How much work each workload does. `full` is what the numbers are
/// quoted at; `quick` is the smoke size the tier-1 test runs in a debug
/// build.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// True for the smoke size.
    pub quick: bool,
    /// Processors of the single-machine workloads.
    pub procs: u16,
    /// Episodes of `barrier_llsc_64`.
    pub llsc_episodes: u32,
    /// Episodes of `barrier_amo_64`.
    pub amo_episodes: u32,
    /// Acquisitions per contender of `lock_amo_64`.
    pub lock_rounds: u32,
    /// Campaign spec of `paper_cold` / `paper_warm`, relative to the
    /// repository root.
    pub campaign_spec: &'static str,
    /// `run_matrix` passes per `verify_matrix` rep.
    pub matrix_passes: u32,
    /// Reps of each layer driver (floor of these).
    pub driver_reps: usize,
    /// Divisor applied to layer-driver iteration counts.
    pub driver_shrink: u64,
}

impl Scale {
    /// The size every quoted number uses. A single-machine rep and a
    /// matrix rep take about a quarter of a second: measured on the
    /// 2-vCPU sandbox, host slow-downs come in bursts of a few seconds,
    /// and the fastest of forty 0.25 s reps repeats from run to run three
    /// times better (interquartile spread 7 % against 24 %) than the
    /// fastest of ten 1 s reps, while 0.1 s reps gain nothing more.
    pub const fn full() -> Scale {
        Scale {
            quick: false,
            procs: 64,
            llsc_episodes: 2_500,
            amo_episodes: 6_000,
            lock_rounds: 600,
            campaign_spec: "specs/paper.json",
            matrix_passes: 3,
            driver_reps: 7,
            driver_shrink: 1,
        }
    }

    /// The smoke size: same code paths, a few milliseconds each.
    pub const fn quick() -> Scale {
        Scale {
            quick: true,
            procs: 8,
            llsc_episodes: 10,
            amo_episodes: 10,
            lock_rounds: 10,
            campaign_spec: "specs/quick.json",
            matrix_passes: 1,
            driver_reps: 1,
            driver_shrink: 100,
        }
    }
}

/// Named metric values of one run. Setting a name outside the catalog
/// is a bug in the benchmark, caught in debug builds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalog"
        );
        self.0.insert(name, value);
    }

    /// Record `num / den`, or 0 when the denominator is 0.
    pub fn set_ratio(&mut self, name: &'static str, num: f64, den: f64) {
        self.set(name, if den == 0.0 { 0.0 } else { num / den });
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
