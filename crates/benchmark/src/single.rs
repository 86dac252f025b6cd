//! The three single-machine workloads: one `Machine`, seeded
//! per-processor inputs, one `Machine::run` as the timed section.
//!
//! The seed only shapes the work / think-time vectors generated here;
//! the simulator receives the vectors and nothing else.

use crate::catalog::{Metrics, Scale};
use crate::measure::{section, Section};
use crate::trace::Trace;
use amo_bench::timed;
use amo_obs::{HostProf, HostProfReport, HostProfiler, NopHostProf, NopTracer, Scope, Tracer};
use amo_sim::{Machine, QueueKind, RunResult};
use amo_sync::{BarrierKernel, BarrierSpec, Mechanism, TicketLockKernel, TicketLockSpec, VarAlloc};
use amo_types::seed::{run_seed, splitmix64};
use amo_types::{Cycle, NodeId, ProcId, Stats, SystemConfig, Word};

/// Far beyond any of these runs; a run that gets here has stalled.
const MAX_CYCLES: Cycle = 100_000_000_000;

/// Critical-section length of the ticket lock, as in `perf_smoke`.
const CS_CYCLES: Cycle = 150;

/// Which single-machine workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `barrier_llsc_64`.
    BarrierLlsc,
    /// `barrier_amo_64`.
    BarrierAmo,
    /// `lock_amo_64`.
    LockAmo,
}

impl Kind {
    /// The workload with this benchmark name, if it is one of the three.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "barrier_llsc_64" => Some(Kind::BarrierLlsc),
            "barrier_amo_64" => Some(Kind::BarrierAmo),
            "lock_amo_64" => Some(Kind::LockAmo),
            _ => None,
        }
    }

    /// Benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::BarrierLlsc => "barrier_llsc_64",
            Kind::BarrierAmo => "barrier_amo_64",
            Kind::LockAmo => "lock_amo_64",
        }
    }

    /// Episodes (barriers) or rounds (lock) each processor executes.
    fn steps(self, sc: &Scale) -> u32 {
        match self {
            Kind::BarrierLlsc => sc.llsc_episodes,
            Kind::BarrierAmo => sc.amo_episodes,
            Kind::LockAmo => sc.lock_rounds,
        }
    }

    /// Ops of one run: barrier arrivals, or acquire+release pairs.
    pub fn ops(self, sc: &Scale) -> u64 {
        sc.procs as u64 * self.steps(sc) as u64
    }

    /// Marks a completed run records: enter+exit per arrival, or
    /// acquire+release per hand-off.
    pub fn expected_marks(self, sc: &Scale) -> usize {
        2 * self.ops(sc) as usize
    }
}

/// One vector per processor: pre-episode work (barriers, ≈200 cycles)
/// or pre-acquire think time (lock, 100–599 cycles).
pub struct Inputs(Vec<Vec<Cycle>>);

/// Generate a workload's inputs from `seed` (splitmix64 streams, one
/// per processor).
pub fn gen_inputs(kind: Kind, sc: &Scale, seed: u64) -> Inputs {
    let (base, span) = match kind {
        Kind::BarrierLlsc | Kind::BarrierAmo => (150, 101),
        Kind::LockAmo => (100, 500),
    };
    Inputs(
        (0..sc.procs as u64)
            .map(|p| {
                let mut s = run_seed(seed, p);
                (0..kind.steps(sc))
                    .map(|_| {
                        s = splitmix64(s);
                        base + s % span
                    })
                    .collect()
            })
            .collect(),
    )
}

fn machine_new<T: Tracer, P: HostProf>(sc: &Scale, tracer: T, prof: P) -> Machine<T, P> {
    Machine::with_parts(
        SystemConfig::with_procs(sc.procs),
        QueueKind::Calendar,
        tracer,
        prof,
    )
}

fn install<T: Tracer, P: HostProf>(m: &mut Machine<T, P>, kind: Kind, sc: &Scale, inputs: Inputs) {
    let mut alloc = VarAlloc::new();
    match kind {
        Kind::BarrierLlsc | Kind::BarrierAmo => {
            let mech = if kind == Kind::BarrierLlsc {
                Mechanism::LlSc
            } else {
                Mechanism::Amo
            };
            let spec = BarrierSpec::build(&mut alloc, mech, NodeId(0), sc.procs, kind.steps(sc));
            for (p, work) in inputs.0.into_iter().enumerate() {
                m.install_kernel(
                    ProcId(p as u16),
                    Box::new(BarrierKernel::new(spec, work)),
                    0,
                );
            }
        }
        Kind::LockAmo => {
            let spec = TicketLockSpec::build(
                &mut alloc,
                Mechanism::Amo,
                NodeId(0),
                kind.steps(sc),
                CS_CYCLES,
            );
            for (p, think) in inputs.0.into_iter().enumerate() {
                let kernel = TicketLockKernel::new(spec, think, p as Word + 1, None);
                m.install_kernel(ProcId(p as u16), Box::new(kernel), 0);
            }
        }
    }
}

/// Everything one finished run exposes, for checks and counters.
pub struct Finished {
    /// What `Machine::run` returned.
    pub result: RunResult,
    /// `Op::Mark` records.
    pub marks: usize,
    /// Machine-wide counters.
    pub stats: Stats,
    /// Dispatched events by kind.
    pub histogram: Vec<(&'static str, u64)>,
}

impl Finished {
    fn of<T: Tracer, P: HostProf>(m: &Machine<T, P>, result: RunResult) -> Finished {
        Finished {
            result,
            marks: m.marks().len(),
            stats: m.stats().clone(),
            histogram: m.event_histogram(),
        }
    }

    /// Failed checks of this run, as messages (empty = correct).
    /// `pinned` is `(sim_events, end_cycle, marks)` when the expected
    /// file pins this seed and size.
    pub fn failures(&self, kind: Kind, sc: &Scale, pinned: Option<(u64, u64, u64)>) -> Vec<String> {
        let mut out = Vec::new();
        let r = &self.result;
        if let Some(e) = &r.error {
            out.push(format!("SimError: {e}"));
        }
        if !r.all_finished {
            out.push("unfinished kernels".into());
        }
        if r.hit_limit {
            out.push("hit the cycle limit".into());
        }
        if self.marks != kind.expected_marks(sc) {
            out.push(format!(
                "{} marks, want {}",
                self.marks,
                kind.expected_marks(sc)
            ));
        }
        if let Some((events, end, marks)) = pinned {
            if (r.events, r.end, self.marks as u64) != (events, end, marks) {
                out.push(format!(
                    "pinned counts off: events {} end {} marks {}, want {events} {end} {marks}",
                    r.events, r.end, self.marks
                ));
            }
        }
        out
    }
}

/// Inputs, `Machine::new` and kernel install: the set-up of one rep.
fn build<T: Tracer, P: HostProf>(
    kind: Kind,
    sc: &Scale,
    seed: u64,
    tracer: T,
    prof: P,
) -> Machine<T, P> {
    let inputs = gen_inputs(kind, sc, seed);
    let mut m = machine_new(sc, tracer, prof);
    install(&mut m, kind, sc, inputs);
    m
}

/// One untraced rep: set-up seconds, the timed `Machine::run`, and what
/// it produced.
pub fn rep(kind: Kind, sc: &Scale, seed: u64) -> (f64, Section, Finished) {
    let (mut m, setup_s) = timed(|| build(kind, sc, seed, NopTracer, NopHostProf));
    let (result, sec) = section(|| m.run(MAX_CYCLES));
    (setup_s, sec, Finished::of(&m, result))
}

/// One rep with allocation counting on around `Machine::run`; its time
/// is not measured.
pub fn counted_rep(kind: Kind, sc: &Scale, seed: u64) -> (Finished, u64) {
    let mut m = build(kind, sc, seed, NopTracer, NopHostProf);
    let (result, allocs) = crate::alloc::counted(|| m.run(MAX_CYCLES));
    (Finished::of(&m, result), allocs)
}

/// Wall seconds of one rep with a recording tracer of `cap` events
/// attached (and no profiler) — the cost of the trace hooks.
pub fn ring_traced_wall(kind: Kind, sc: &Scale, seed: u64, cap: usize) -> f64 {
    let mut m = build(kind, sc, seed, amo_obs::RingTracer::new(cap), NopHostProf);
    let (r, secs) = timed(|| m.run(MAX_CYCLES));
    assert!(r.all_finished, "ring-traced run must complete");
    secs
}

/// The traced rep: same inputs on a `Machine<NopTracer, HostProfiler>`,
/// benchmark spans around set-up and run, the profiler's per-scope self
/// times laid under the `run` span. Returns the run span's wall
/// seconds, the finished run and the profile.
pub fn traced_rep(
    kind: Kind,
    sc: &Scale,
    seed: u64,
    trace: &mut Trace,
) -> (f64, Finished, HostProfReport) {
    let (mut m, _) = trace.scope("setup", |t| {
        let (inputs, _) = t.scope("gen_inputs", |_| gen_inputs(kind, sc, seed));
        let (mut m, _) = t.scope("machine_new", |_| {
            machine_new(sc, NopTracer, HostProfiler::new())
        });
        t.scope("install_kernels", |_| install(&mut m, kind, sc, inputs));
        m
    });
    let (result, run) = trace.scope("run", |_| m.run(MAX_CYCLES));
    let report = m.take_hostprof().expect("HostProfiler keeps a report");
    // Every scope except `run` itself becomes a child of the run span;
    // what is left over is the run loop's own self time.
    let parts: Vec<(String, u64)> = report
        .scopes
        .iter()
        .filter(|s| s.scope != Scope::Run)
        .map(|s| (format!("self:{}", s.scope.name()), s.self_ns()))
        .collect();
    trace.fill(run, &parts);
    let wall_s = trace.duration_ns(run) as f64 * 1e-9;
    (wall_s, Finished::of(&m, result), report)
}

/// Per-op counters of the model's layers from one run's `Stats` (or a
/// campaign's merged `Stats`, with cells as ops).
pub fn stats_metrics(m: &mut Metrics, s: &Stats, ops: u64) {
    let per = |v: u64| v as f64 / ops.max(1) as f64;
    m.set("noc.msgs_per_op", per(s.total_msgs()));
    m.set("noc.byte_hops_per_op", per(s.byte_hops));
    m.set("noc.local_msgs_per_op", per(s.local_msgs()));
    m.set("directory.transactions_per_op", per(s.dir_transactions));
    m.set("directory.queued_per_op", per(s.dir_queued));
    m.set("directory.invalidations_per_op", per(s.invalidations_sent));
    m.set("directory.interventions_per_op", per(s.interventions_sent));
    m.set("amu.ops_per_op", per(s.amo_ops + s.mao_ops));
    m.set_ratio(
        "amu.hit_ratio",
        s.amu_hits as f64,
        (s.amu_hits + s.amu_misses) as f64,
    );
    m.set("amu.puts_per_op", per(s.puts));
    m.set("amu.word_updates_per_op", per(s.word_updates_sent));
    m.set_ratio(
        "cache.l1_hit_ratio",
        s.l1_hits as f64,
        (s.l1_hits + s.l1_misses) as f64,
    );
    m.set_ratio(
        "cache.l2_hit_ratio",
        s.l2_hits as f64,
        (s.l2_hits + s.l2_misses) as f64,
    );
    m.set("cache.spin_reloads_per_op", per(s.spin_reloads));
    m.set("cpu.ll_per_op", per(s.ll_issued));
    m.set_ratio(
        "cpu.sc_fail_ratio",
        s.sc_failures as f64,
        (s.sc_successes + s.sc_failures) as f64,
    );
    m.set("cpu.handlers_per_op", per(s.handlers_run));
    m.set(
        "cpu.retx_per_op",
        per(s.actmsg_retransmissions + s.amu_nack_retries + s.e2e_retransmissions),
    );
    m.set("dram.accesses_per_op", per(s.dram_reads + s.dram_writes));
}

/// Per-op event counts and simulated cycles of one finished run.
pub fn run_metrics(m: &mut Metrics, f: &Finished, ops: u64) {
    let per = |v: u64| v as f64 / ops.max(1) as f64;
    let ev = |names: &[&str]| -> u64 {
        f.histogram
            .iter()
            .filter(|(n, _)| names.contains(n))
            .map(|(_, c)| c)
            .sum()
    };
    m.set("sim.events_per_op", per(f.result.events));
    m.set("sim.cycles_per_op", per(f.result.end));
    m.set("sim.ev_proc_wake_per_op", per(ev(&["ProcWake"])));
    m.set(
        "sim.ev_proc_word_update_per_op",
        per(ev(&["ProcWordUpdate"])),
    );
    m.set("sim.ev_to_hub_per_op", per(ev(&["ToHub"])));
    m.set("sim.ev_dir_process_per_op", per(ev(&["DirProcess"])));
    m.set("sim.ev_to_proc_per_op", per(ev(&["ToProc"])));
    m.set(
        "sim.ev_amu_per_op",
        per(ev(&["AmuWake", "AmuMemValue", "AmuSend"])),
    );
    m.set("sim.ev_proc_timeout_per_op", per(ev(&["ProcTimeout"])));
    stats_metrics(m, &f.stats, ops);
}

/// Mean self times of the simulator's layers from the traced rep's
/// profile.
pub fn profile_metrics(m: &mut Metrics, report: &HostProfReport, events: u64) {
    let scope = |s: Scope| report.scopes.iter().find(|r| r.scope == s);
    let mean_self = |s: Scope| scope(s).map_or(0.0, |r| r.self_ns() as f64 / r.count.max(1) as f64);
    let loop_self: u64 = report
        .scopes
        .iter()
        .filter(|r| matches!(r.scope, Scope::Run | Scope::Drain) || r.scope.is_dispatch())
        .map(|r| r.self_ns())
        .sum();
    m.set_ratio("sim.run_self_ns_per_event", loop_self as f64, events as f64);
    m.set(
        "sim.dispatch_word_update_self_ns",
        mean_self(Scope::DispatchProcWordUpdate),
    );
    m.set(
        "sim.dispatch_to_hub_self_ns",
        mean_self(Scope::DispatchToHub),
    );
    m.set(
        "sim.dispatch_to_proc_self_ns",
        mean_self(Scope::DispatchToProc),
    );
    m.set(
        "sim.dispatch_dir_process_self_ns",
        mean_self(Scope::DispatchDirProcess),
    );
    m.set(
        "sim.dispatch_proc_wake_self_ns",
        mean_self(Scope::DispatchProcWake),
    );
    m.set("noc.send_self_ns", mean_self(Scope::NocSend));
    m.set("directory.protocol_self_ns", mean_self(Scope::DirProtocol));
    m.set("amu.exec_self_ns", mean_self(Scope::AmuExec));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_differs() {
        let sc = Scale::quick();
        let a = gen_inputs(Kind::BarrierAmo, &sc, 7);
        let b = gen_inputs(Kind::BarrierAmo, &sc, 7);
        let c = gen_inputs(Kind::BarrierAmo, &sc, 8);
        assert_eq!(a.0, b.0);
        assert_ne!(a.0, c.0);
        assert_eq!(a.0.len(), sc.procs as usize);
        assert!(a.0.iter().flatten().all(|w| (150..=250).contains(w)));
        let think = gen_inputs(Kind::LockAmo, &sc, 7);
        assert!(think.0.iter().flatten().all(|w| (100..600).contains(w)));
    }

    #[test]
    fn quick_reps_complete_and_repeat_exactly() {
        let sc = Scale::quick();
        for kind in [Kind::BarrierLlsc, Kind::BarrierAmo, Kind::LockAmo] {
            let (_, _, a) = rep(kind, &sc, 3);
            let (_, _, b) = rep(kind, &sc, 3);
            assert_eq!(a.failures(kind, &sc, None), Vec::<String>::new());
            assert_eq!(
                (a.result.events, a.result.end),
                (b.result.events, b.result.end)
            );
            let wrong = a.failures(kind, &sc, Some((1, 2, 3)));
            assert_eq!(wrong.len(), 1, "a pinned mismatch is one failed check");
        }
    }

    #[test]
    fn traced_rep_matches_untraced_counts_and_conserves_time() {
        let sc = Scale::quick();
        let (_, _, plain) = rep(Kind::BarrierAmo, &sc, 5);
        let mut trace = Trace::new("barrier_amo_64");
        let (wall_s, traced, report) = traced_rep(Kind::BarrierAmo, &sc, 5, &mut trace);
        assert!(wall_s > 0.0);
        assert_eq!(traced.result.end, plain.result.end, "profiling is passive");
        assert_eq!(traced.result.events, plain.result.events);
        let (selfs, roots) = trace.conservation();
        assert_eq!(selfs, roots);
        let mut m = Metrics::default();
        run_metrics(&mut m, &traced, Kind::BarrierAmo.ops(&sc));
        profile_metrics(&mut m, &report, traced.result.events);
        assert!(m.get("sim.events_per_op").unwrap() > 1.0);
        assert!(m.get("amu.ops_per_op").unwrap() >= 1.0);
        assert!(m.get("sim.run_self_ns_per_event").unwrap() > 0.0);
    }
}
