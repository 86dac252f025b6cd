//! Build machines, install kernels, run, and collect results.
//!
//! Two entry-point families per workload: the infallible `run_*`
//! (panics on a stalled or faulted run — right for paper-table
//! generation where an abort is a bug) and the fallible `try_run_*`
//! (returns a [`RunFailure`] carrying the typed [`SimError`], the
//! machine statistics, and the stall report — right for campaign grids
//! and chaos studies where one faulted cell must not kill the sweep).

use crate::measure::{barrier_measurement, lock_measurement, BarrierMeasurement, LockMeasurement};
use amo_obs::critpath::{self, Workload};
use amo_obs::hostprof::{HostProf, HostProfReport, HostProfiler};
use amo_obs::{NopTracer, RingTracer, TimeSeries, TraceBuf, Tracer};
use amo_sim::{Machine, QueueKind, RunResult, SimError};
use amo_sync::lock::ExclusionCheck;
use amo_sync::{
    ArrayLockKernel, ArrayLockSpec, BarrierKernel, BarrierSpec, BarrierStyle, DisseminationKernel,
    DisseminationSpec, KTreeKernel, KTreeSpec, McsLockKernel, McsLockSpec, Mechanism,
    TicketLockKernel, TicketLockSpec, TreeBarrierKernel, TreeBarrierSpec, VarAlloc,
};
use amo_types::seed::{arithmetic_skew, run_seed};
use amo_types::{Cycle, NodeId, ProcId, Stats, SystemConfig, Word};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::rc::Rc;

/// Safety limit for any single simulation (a run that hits it is a bug).
const MAX_CYCLES: Cycle = 40_000_000_000;

/// What to observe during a run. The default observes nothing and takes
/// the zero-overhead `NopTracer` path.
#[derive(Clone, Copy, Default, Debug)]
pub struct ObsSpec {
    /// Event-trace ring capacity; 0 disables tracing entirely (the
    /// machine is built with the compile-time-disabled tracer).
    pub trace_cap: usize,
    /// Occupancy sampling interval in cycles; 0 disables sampling.
    pub sample_interval: Cycle,
    /// Attach a host profiler (`amo_obs::HostProfiler`) attributing the
    /// simulator's own wall-clock and allocations; false keeps the
    /// compile-time-disabled `NopHostProf`. A hostprof run is
    /// simulated-timing-identical to an unprofiled one (pinned by
    /// test), but several times slower on the host.
    pub hostprof: bool,
}

impl ObsSpec {
    /// True if anything at all is being observed.
    pub fn any(self) -> bool {
        self.trace_cap > 0 || self.sample_interval > 0 || self.hostprof
    }
}

/// What a run observed (all fields `None` under the default
/// [`ObsSpec`]).
#[derive(Clone, Default, Debug)]
pub struct ObsReport {
    /// Drained event trace, if tracing was enabled.
    pub trace: Option<TraceBuf>,
    /// Occupancy time series, if sampling was enabled.
    pub timeseries: Option<TimeSeries>,
    /// Host-side self-profile, if host profiling was enabled.
    pub hostprof: Option<HostProfReport>,
}

/// How per-processor arrival skew is drawn.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SkewMode {
    /// Seeded random skew from the bench's RNG stream (the paper's
    /// methodology: same seed ⇒ identical arrival pattern across
    /// mechanisms, which is what makes speedups fair).
    #[default]
    Random,
    /// RNG-free arithmetic pattern `100 + (p*37 + e*13) % max_skew`
    /// ([`amo_types::seed::arithmetic_skew`]). Chaos runs use this so
    /// their output stays bit-identical under seed-derivation changes.
    Arithmetic,
}

impl SkewMode {
    /// Stable tag for specs and content keys.
    pub fn tag(self) -> &'static str {
        match self {
            SkewMode::Random => "random",
            SkewMode::Arithmetic => "arithmetic",
        }
    }

    /// Inverse of [`SkewMode::tag`].
    pub fn parse(s: &str) -> Result<SkewMode, String> {
        [SkewMode::Random, SkewMode::Arithmetic]
            .into_iter()
            .find(|m| m.tag() == s)
            .ok_or_else(|| format!("unknown skew {s:?} (random, arithmetic)"))
    }
}

/// Run-level facts every completed or aborted simulation reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunInfo {
    /// Cycle the run ended at.
    pub end: Cycle,
    /// Events the engine dispatched.
    pub events: u64,
    /// Did every kernel reach `Op::Done`?
    pub all_finished: bool,
    /// Latest kernel-finish cycle (0 if none finished).
    pub last_finish: Cycle,
}

impl RunInfo {
    fn from_result(res: &RunResult) -> Self {
        RunInfo {
            end: res.end,
            events: res.events,
            all_finished: res.all_finished,
            last_finish: res.finished.iter().flatten().copied().max().unwrap_or(0),
        }
    }
}

/// Why a fallible run did not produce a measurement. Carries everything
/// the infallible runners used to fold into a panic message, plus the
/// machine statistics — a faulted chaos run still reports its fault
/// counters.
#[derive(Clone, Debug)]
pub struct RunFailure {
    /// What was running, e.g. `"barrier Amo at 64 procs"`.
    pub what: String,
    /// The typed fault, if the machine detected one ( `None` for a
    /// plain stall: the event queue drained, or the cycle limit hit,
    /// with kernels unfinished and no watchdog armed).
    pub error: Option<Box<SimError>>,
    /// The machine's stall report at abort time.
    pub stall_report: String,
    /// Machine-wide statistics up to the abort.
    pub stats: Stats,
    /// Run-level facts at the abort.
    pub info: RunInfo,
    /// True if the run hit the cycle safety limit.
    pub hit_limit: bool,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.error {
            Some(e) => write!(f, "{} aborted: {e}", self.what),
            None => write!(
                f,
                "{} stalled (hit_limit={})\n{}",
                self.what, self.hit_limit, self.stall_report
            ),
        }
    }
}

impl std::error::Error for RunFailure {}

/// Attach the critical-path stage breakdown of a failed traced run to
/// its `DiagBundle`. Only when the trace ring is complete (no dropped
/// events) and the DAG analyzable: the analyzer's typed `IncompleteDag`
/// refusal is honoured, since a partial attribution would mis-blame
/// stages. Untraced or unanalyzable aborts leave `critpath` as `None`.
fn attach_critpath(error: &mut Option<Box<SimError>>, workload: Workload) {
    let Some(err) = error else { return };
    let Some(trace) = &err.bundle.trace else {
        return;
    };
    if trace.dropped > 0 {
        return;
    }
    if let Ok(report) = critpath::analyze(trace, workload) {
        err.bundle.critpath = Some(report.render_text());
    }
}

/// Which barrier algorithm a [`BarrierBench`] runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BarrierAlgo {
    /// Centralized barrier (paper Fig. 3).
    Central,
    /// Two-level combining tree with the given branching (paper
    /// Sec. 4.2.2).
    Tree(u16),
    /// K-level combining tree with uniform branching (the paper's
    /// future-work generalization).
    KTree(u16),
    /// Dissemination barrier (log-depth, no hot spot).
    Dissemination,
}

impl BarrierAlgo {
    /// Stable tag for specs and content keys: `central`, `tree:B`,
    /// `ktree:B`, `dissem`.
    pub fn tag(self) -> String {
        match self {
            BarrierAlgo::Central => "central".into(),
            BarrierAlgo::Tree(b) => format!("tree:{b}"),
            BarrierAlgo::KTree(b) => format!("ktree:{b}"),
            BarrierAlgo::Dissemination => "dissem".into(),
        }
    }

    /// Inverse of [`BarrierAlgo::tag`]; `dissemination` is accepted too.
    pub fn parse(s: &str) -> Result<BarrierAlgo, String> {
        let branching = |b: &str| {
            b.parse::<u16>()
                .map_err(|e| format!("algo {s:?}: branching: {e}"))
        };
        match s.split_once(':') {
            None if s == "central" => Ok(BarrierAlgo::Central),
            None if s == "dissem" || s == "dissemination" => Ok(BarrierAlgo::Dissemination),
            Some(("tree", b)) => branching(b).map(BarrierAlgo::Tree),
            Some(("ktree", b)) => branching(b).map(BarrierAlgo::KTree),
            _ => Err(format!(
                "unknown algo {s:?} (central, dissem, tree:B, ktree:B)"
            )),
        }
    }
}

/// A barrier benchmark description.
#[derive(Clone, Copy, Debug)]
pub struct BarrierBench {
    /// Mechanism under test.
    pub mech: Mechanism,
    /// Processor count.
    pub procs: u16,
    /// Total episodes (including warm-up).
    pub episodes: u32,
    /// Warm-up episodes excluded from measurement.
    pub warmup: u32,
    /// Which barrier algorithm to run.
    pub algo: BarrierAlgo,
    /// Override the barrier style (centralized only); `None` = the
    /// paper's default per mechanism.
    pub style: Option<BarrierStyle>,
    /// Maximum random pre-episode local work (arrival skew), in cycles.
    pub max_skew: Cycle,
    /// How the skew pattern is drawn; see [`SkewMode`].
    pub skew: SkewMode,
    /// RNG seed for the skew pattern (same seed ⇒ identical arrival
    /// pattern across mechanisms — that is what makes speedups fair).
    /// The actual `StdRng` seed is derived as
    /// `amo_types::seed::run_seed(seed, procs)`.
    pub seed: u64,
    /// Arm the progress watchdog with this window (cycles); 0 leaves it
    /// off. With the watchdog armed, stalls surface as typed
    /// `NoProgress` / `Deadlock` errors instead of running to the cycle
    /// limit.
    pub watchdog: Cycle,
    /// Full machine-configuration override (ablations: AMU cache size,
    /// hop latency, handler costs, ...). `None` = the paper's Table 1
    /// with `procs` processors.
    pub config: Option<SystemConfig>,
}

impl BarrierBench {
    /// The defaults used by the paper-table generators.
    pub fn paper(mech: Mechanism, procs: u16) -> Self {
        BarrierBench {
            mech,
            procs,
            episodes: 10,
            warmup: 2,
            algo: BarrierAlgo::Central,
            style: None,
            max_skew: 800,
            skew: SkewMode::Random,
            seed: 0xA40_5EED,
            watchdog: 0,
            config: None,
        }
    }

    /// Same benchmark through a two-level combining tree.
    pub fn with_tree(mut self, branching: u16) -> Self {
        self.algo = BarrierAlgo::Tree(branching);
        self
    }

    /// Same benchmark through a k-level combining tree.
    pub fn with_ktree(mut self, branching: u16) -> Self {
        self.algo = BarrierAlgo::KTree(branching);
        self
    }

    /// Same benchmark through a dissemination barrier.
    pub fn with_dissemination(mut self) -> Self {
        self.algo = BarrierAlgo::Dissemination;
        self
    }
}

/// Outcome of a barrier benchmark.
#[derive(Clone, Debug)]
pub struct BarrierResult {
    /// The benchmark that ran.
    pub bench: BarrierBench,
    /// Timing reduction.
    pub timing: BarrierMeasurement,
    /// Machine-wide statistics for the whole run.
    pub stats: Stats,
    /// Run-level facts (end cycle, events, last finish).
    pub info: RunInfo,
    /// Trace / time-series captured per the run's [`ObsSpec`].
    pub obs: ObsReport,
}

/// One processor's per-episode arrival-skew plan. `Random` draws come
/// sequentially from the bench's one RNG stream (call order = proc
/// order); `Arithmetic` ignores the RNG entirely.
fn skew_plan(
    mode: SkewMode,
    rng: &mut StdRng,
    p: u16,
    episodes: u32,
    max_skew: Cycle,
) -> Vec<Cycle> {
    match mode {
        SkewMode::Random => (0..episodes)
            .map(|_| 100 + rng.gen_range(0..max_skew.max(1)))
            .collect(),
        SkewMode::Arithmetic => (0..episodes)
            .map(|e| arithmetic_skew(p as u64, e as u64, max_skew.max(1)))
            .collect(),
    }
}

/// Run one barrier benchmark to completion; panics on a stall or fault.
pub fn run_barrier(bench: BarrierBench) -> BarrierResult {
    run_barrier_obs(bench, ObsSpec::default())
}

/// Run one barrier benchmark, optionally tracing and sampling. A zero
/// `trace_cap` keeps the `NopTracer` machine so the hot path is
/// identical to [`run_barrier`].
pub fn run_barrier_obs(bench: BarrierBench, obs: ObsSpec) -> BarrierResult {
    try_run_barrier_obs(bench, obs).unwrap_or_else(|f| panic!("barrier run stalled: {f}"))
}

/// Fallible barrier run: a stalled or faulted machine comes back as a
/// [`RunFailure`] instead of a panic, so a campaign grid cell can fail
/// alone.
pub fn try_run_barrier(bench: BarrierBench) -> Result<BarrierResult, Box<RunFailure>> {
    try_run_barrier_obs(bench, ObsSpec::default())
}

/// Fallible barrier run with observation; see [`try_run_barrier`].
pub fn try_run_barrier_obs(
    bench: BarrierBench,
    obs: ObsSpec,
) -> Result<BarrierResult, Box<RunFailure>> {
    let cfg = bench
        .config
        .unwrap_or_else(|| SystemConfig::with_procs(bench.procs));
    assert_eq!(
        cfg.num_procs, bench.procs,
        "config override must match procs"
    );
    match (obs.trace_cap > 0, obs.hostprof) {
        (true, true) => run_barrier_on(
            bench,
            cfg,
            Machine::with_parts(
                cfg,
                QueueKind::Calendar,
                RingTracer::new(obs.trace_cap),
                HostProfiler::new(),
            ),
            obs,
        ),
        (true, false) => run_barrier_on(
            bench,
            cfg,
            Machine::with_tracer(cfg, QueueKind::Calendar, RingTracer::new(obs.trace_cap)),
            obs,
        ),
        (false, true) => run_barrier_on(
            bench,
            cfg,
            Machine::with_parts(cfg, QueueKind::Calendar, NopTracer, HostProfiler::new()),
            obs,
        ),
        (false, false) => run_barrier_on(bench, cfg, Machine::new(cfg), obs),
    }
}

fn run_barrier_on<T: Tracer, P: HostProf>(
    bench: BarrierBench,
    cfg: SystemConfig,
    mut machine: Machine<T, P>,
    obs: ObsSpec,
) -> Result<BarrierResult, Box<RunFailure>> {
    if obs.sample_interval > 0 {
        machine.enable_sampling(obs.sample_interval);
    }
    if bench.watchdog > 0 {
        machine.enable_watchdog(bench.watchdog);
    }
    let nodes = cfg.num_nodes();
    let mut alloc = VarAlloc::new();
    let mut rng = StdRng::seed_from_u64(run_seed(bench.seed, bench.procs as u64));

    match bench.algo {
        BarrierAlgo::Central => {
            let spec = match bench.style {
                None => BarrierSpec::build(
                    &mut alloc,
                    bench.mech,
                    NodeId(0),
                    bench.procs,
                    bench.episodes,
                ),
                Some(style) => BarrierSpec::build_styled(
                    &mut alloc,
                    bench.mech,
                    style,
                    NodeId(0),
                    bench.procs,
                    bench.episodes,
                ),
            };
            for p in 0..bench.procs {
                let work = skew_plan(bench.skew, &mut rng, p, bench.episodes, bench.max_skew);
                machine.install_kernel(ProcId(p), Box::new(BarrierKernel::new(spec, work)), 0);
            }
        }
        BarrierAlgo::Tree(branching) => {
            let spec = TreeBarrierSpec::build(
                &mut alloc,
                bench.mech,
                bench.procs,
                bench.episodes,
                branching,
                nodes,
            );
            for p in 0..bench.procs {
                let work = skew_plan(bench.skew, &mut rng, p, bench.episodes, bench.max_skew);
                machine.install_kernel(
                    ProcId(p),
                    Box::new(TreeBarrierKernel::new(spec.clone(), p, work)),
                    0,
                );
            }
        }
        BarrierAlgo::KTree(branching) => {
            let spec = KTreeSpec::build(
                &mut alloc,
                bench.mech,
                bench.procs,
                bench.episodes,
                branching,
                nodes,
            );
            for p in 0..bench.procs {
                let work = skew_plan(bench.skew, &mut rng, p, bench.episodes, bench.max_skew);
                machine.install_kernel(
                    ProcId(p),
                    Box::new(KTreeKernel::new(spec.clone(), p, work)),
                    0,
                );
            }
        }
        BarrierAlgo::Dissemination => {
            let spec = DisseminationSpec::build(
                &mut alloc,
                bench.mech,
                bench.procs,
                cfg.procs_per_node,
                bench.episodes,
            );
            for p in 0..bench.procs {
                let work = skew_plan(bench.skew, &mut rng, p, bench.episodes, bench.max_skew);
                machine.install_kernel(
                    ProcId(p),
                    Box::new(DisseminationKernel::new(spec.clone(), p, work)),
                    0,
                );
            }
        }
    }

    let res = machine.run(MAX_CYCLES);
    if !res.all_finished || res.error.is_some() {
        let info = RunInfo::from_result(&res);
        let mut error = res.error.map(Box::new);
        attach_critpath(&mut error, Workload::Barrier);
        return Err(Box::new(RunFailure {
            what: format!("barrier {:?} at {} procs", bench.mech, bench.procs),
            stall_report: machine.stall_report(),
            stats: machine.stats().clone(),
            info,
            hit_limit: res.hit_limit,
            error,
        }));
    }
    let timing = barrier_measurement(machine.marks(), bench.procs, bench.episodes, bench.warmup);
    let stats = machine.stats().clone();
    Ok(BarrierResult {
        bench,
        timing,
        stats,
        info: RunInfo::from_result(&res),
        obs: ObsReport {
            trace: machine.take_trace_buf(),
            timeseries: machine.take_timeseries(),
            hostprof: machine.take_hostprof(),
        },
    })
}

/// Search tree branching factors and return the best-performing result,
/// as the paper does ("we try all possible tree branching factors and
/// use the one that delivers the best performance").
pub fn best_tree_barrier(base: BarrierBench) -> (u16, BarrierResult) {
    let candidates = [2u16, 4, 8, 16, 32, 64]
        .into_iter()
        .filter(|&b| b < base.procs)
        .collect::<Vec<_>>();
    assert!(
        !candidates.is_empty(),
        "no valid branching factor for {} procs",
        base.procs
    );
    let mut best: Option<(u16, BarrierResult)> = None;
    for b in candidates {
        let r = run_barrier(base.with_tree(b));
        let better = match &best {
            None => true,
            Some((_, cur)) => r.timing.avg_cycles < cur.timing.avg_cycles,
        };
        if better {
            best = Some((b, r));
        }
    }
    best.expect("at least one branching factor")
}

/// Which lock algorithm to benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockKind {
    /// Ticket lock (Mellor-Crummey & Scott formulation).
    Ticket,
    /// Anderson array-based queuing lock.
    Array,
    /// MCS list-based queue lock (extension; needs swap/cas, so it is
    /// unavailable under the active-message mechanism).
    Mcs,
}

impl LockKind {
    /// Stable tag for specs and content keys.
    pub fn tag(self) -> &'static str {
        match self {
            LockKind::Ticket => "ticket",
            LockKind::Array => "array",
            LockKind::Mcs => "mcs",
        }
    }

    /// Inverse of [`LockKind::tag`].
    pub fn parse(s: &str) -> Result<LockKind, String> {
        [LockKind::Ticket, LockKind::Array, LockKind::Mcs]
            .into_iter()
            .find(|k| k.tag() == s)
            .ok_or_else(|| format!("unknown lock kind {s:?} (ticket, array, mcs)"))
    }
}

/// A lock benchmark description.
#[derive(Clone, Copy, Debug)]
pub struct LockBench {
    /// Mechanism under test.
    pub mech: Mechanism,
    /// Lock algorithm.
    pub kind: LockKind,
    /// Processor count.
    pub procs: u16,
    /// Acquisitions per processor.
    pub rounds: u32,
    /// Critical-section length.
    pub cs_cycles: Cycle,
    /// Maximum random think time between acquisitions.
    pub max_think: Cycle,
    /// RNG seed (shared across mechanisms for fairness). The actual
    /// `StdRng` seed is `amo_types::seed::run_seed(seed, procs)`.
    pub seed: u64,
    /// Arm the progress watchdog with this window (cycles); 0 = off.
    pub watchdog: Cycle,
    /// Attach the in-simulation mutual-exclusion checker.
    pub check_exclusion: bool,
    /// Full machine-configuration override (ablations). `None` = the
    /// paper's Table 1 with `procs` processors.
    pub config: Option<SystemConfig>,
}

impl LockBench {
    /// The defaults used by the paper-table generators.
    pub fn paper(mech: Mechanism, kind: LockKind, procs: u16) -> Self {
        LockBench {
            mech,
            kind,
            procs,
            rounds: 8,
            cs_cycles: 250,
            max_think: 1_000,
            seed: 0x10C_5EED,
            watchdog: 0,
            check_exclusion: true,
            config: None,
        }
    }
}

/// Outcome of a lock benchmark.
#[derive(Clone, Debug)]
pub struct LockResult {
    /// The benchmark that ran.
    pub bench: LockBench,
    /// Timing reduction.
    pub timing: LockMeasurement,
    /// Machine-wide statistics.
    pub stats: Stats,
    /// Mutual-exclusion violations observed (must be zero).
    pub violations: u64,
    /// Run-level facts (end cycle, events, last finish).
    pub info: RunInfo,
    /// Trace / time-series captured per the run's [`ObsSpec`].
    pub obs: ObsReport,
}

/// Run one lock benchmark to completion; panics on a stall or fault.
pub fn run_lock(bench: LockBench) -> LockResult {
    run_lock_obs(bench, ObsSpec::default())
}

/// Run one lock benchmark, optionally tracing and sampling.
pub fn run_lock_obs(bench: LockBench, obs: ObsSpec) -> LockResult {
    try_run_lock_obs(bench, obs).unwrap_or_else(|f| panic!("lock run stalled: {f}"))
}

/// Fallible lock run; see [`try_run_barrier`]. A mutual-exclusion
/// violation counts as a failure.
pub fn try_run_lock(bench: LockBench) -> Result<LockResult, Box<RunFailure>> {
    try_run_lock_obs(bench, ObsSpec::default())
}

/// Fallible lock run with observation; see [`try_run_lock`].
pub fn try_run_lock_obs(bench: LockBench, obs: ObsSpec) -> Result<LockResult, Box<RunFailure>> {
    let cfg = bench
        .config
        .unwrap_or_else(|| SystemConfig::with_procs(bench.procs));
    assert_eq!(
        cfg.num_procs, bench.procs,
        "config override must match procs"
    );
    match (obs.trace_cap > 0, obs.hostprof) {
        (true, true) => run_lock_on(
            bench,
            cfg,
            Machine::with_parts(
                cfg,
                QueueKind::Calendar,
                RingTracer::new(obs.trace_cap),
                HostProfiler::new(),
            ),
            obs,
        ),
        (true, false) => run_lock_on(
            bench,
            cfg,
            Machine::with_tracer(cfg, QueueKind::Calendar, RingTracer::new(obs.trace_cap)),
            obs,
        ),
        (false, true) => run_lock_on(
            bench,
            cfg,
            Machine::with_parts(cfg, QueueKind::Calendar, NopTracer, HostProfiler::new()),
            obs,
        ),
        (false, false) => run_lock_on(bench, cfg, Machine::new(cfg), obs),
    }
}

fn run_lock_on<T: Tracer, P: HostProf>(
    bench: LockBench,
    cfg: SystemConfig,
    mut machine: Machine<T, P>,
    obs: ObsSpec,
) -> Result<LockResult, Box<RunFailure>> {
    if obs.sample_interval > 0 {
        machine.enable_sampling(obs.sample_interval);
    }
    if bench.watchdog > 0 {
        machine.enable_watchdog(bench.watchdog);
    }
    let mut alloc = VarAlloc::new();
    let mut rng = StdRng::seed_from_u64(run_seed(bench.seed, bench.procs as u64));
    let check = bench.check_exclusion.then(|| ExclusionCheck {
        addr: alloc.word(NodeId(0)),
        violations: Rc::new(Cell::new(0)),
    });

    match bench.kind {
        LockKind::Ticket => {
            let spec = TicketLockSpec::build(
                &mut alloc,
                bench.mech,
                NodeId(0),
                bench.rounds,
                bench.cs_cycles,
            );
            for p in 0..bench.procs {
                let think: Vec<Cycle> = (0..bench.rounds)
                    .map(|_| 100 + rng.gen_range(0..bench.max_think.max(1)))
                    .collect();
                machine.install_kernel(
                    ProcId(p),
                    Box::new(TicketLockKernel::new(
                        spec,
                        think,
                        p as Word + 1,
                        check.clone(),
                    )),
                    0,
                );
            }
        }
        LockKind::Mcs => {
            let spec = McsLockSpec::build(
                &mut alloc,
                bench.mech,
                NodeId(0),
                bench.procs,
                cfg.procs_per_node,
                bench.rounds,
                bench.cs_cycles,
            );
            for p in 0..bench.procs {
                let think: Vec<Cycle> = (0..bench.rounds)
                    .map(|_| 100 + rng.gen_range(0..bench.max_think.max(1)))
                    .collect();
                machine.install_kernel(
                    ProcId(p),
                    Box::new(McsLockKernel::new(
                        spec.clone(),
                        p,
                        think,
                        p as Word + 1,
                        check.clone(),
                    )),
                    0,
                );
            }
        }
        LockKind::Array => {
            let spec = ArrayLockSpec::build(
                &mut alloc,
                bench.mech,
                NodeId(0),
                bench.procs,
                bench.rounds,
                bench.cs_cycles,
            );
            spec.init(&mut machine);
            for p in 0..bench.procs {
                let think: Vec<Cycle> = (0..bench.rounds)
                    .map(|_| 100 + rng.gen_range(0..bench.max_think.max(1)))
                    .collect();
                machine.install_kernel(
                    ProcId(p),
                    Box::new(ArrayLockKernel::new(
                        spec.clone(),
                        think,
                        p as Word + 1,
                        check.clone(),
                    )),
                    0,
                );
            }
        }
    }

    let res = machine.run(MAX_CYCLES);
    let what = format!(
        "lock {:?} {:?} at {} procs",
        bench.mech, bench.kind, bench.procs
    );
    if !res.all_finished || res.error.is_some() {
        let info = RunInfo::from_result(&res);
        let mut error = res.error.map(Box::new);
        attach_critpath(&mut error, Workload::Lock);
        return Err(Box::new(RunFailure {
            what,
            stall_report: machine.stall_report(),
            stats: machine.stats().clone(),
            info,
            hit_limit: res.hit_limit,
            error,
        }));
    }
    let violations = check.map_or(0, |c| c.violations.get());
    assert_eq!(
        violations, 0,
        "{:?} {:?} violated mutual exclusion",
        bench.mech, bench.kind
    );
    let timing = lock_measurement(machine.marks(), bench.procs, bench.rounds);
    let stats = machine.stats().clone();
    Ok(LockResult {
        bench,
        timing,
        stats,
        violations,
        info: RunInfo::from_result(&res),
        obs: ObsReport {
            trace: machine.take_trace_buf(),
            timeseries: machine.take_timeseries(),
            hostprof: machine.take_hostprof(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip_and_legacy_spellings_parse() {
        for a in [
            BarrierAlgo::Central,
            BarrierAlgo::Tree(8),
            BarrierAlgo::KTree(2),
            BarrierAlgo::Dissemination,
        ] {
            assert_eq!(BarrierAlgo::parse(&a.tag()), Ok(a));
        }
        assert_eq!(
            BarrierAlgo::parse("dissemination"),
            Ok(BarrierAlgo::Dissemination)
        );
        for k in [LockKind::Ticket, LockKind::Array, LockKind::Mcs] {
            assert_eq!(LockKind::parse(k.tag()), Ok(k));
        }
        for m in [SkewMode::Random, SkewMode::Arithmetic] {
            assert_eq!(SkewMode::parse(m.tag()), Ok(m));
        }
        for bad in [
            "tree",
            "tree:",
            "tree:x",
            "ktree:-1",
            "central:2",
            "Central",
        ] {
            let err = BarrierAlgo::parse(bad).unwrap_err();
            assert!(err.contains(bad), "{bad}: {err}");
        }
        assert!(LockKind::parse("tickt")
            .unwrap_err()
            .contains("ticket, array, mcs"));
        assert!(SkewMode::parse("")
            .unwrap_err()
            .contains("random, arithmetic"));
    }

    #[test]
    fn barrier_runner_produces_measurement() {
        let r = run_barrier(BarrierBench {
            episodes: 4,
            warmup: 1,
            ..BarrierBench::paper(Mechanism::Amo, 4)
        });
        assert_eq!(r.timing.measured, 3);
        assert!(r.timing.avg_cycles > 0.0);
        assert_eq!(r.stats.puts, 4, "one put per episode");
    }

    #[test]
    fn tree_runner_works() {
        let r = run_barrier(
            BarrierBench {
                episodes: 3,
                warmup: 1,
                ..BarrierBench::paper(Mechanism::Atomic, 8)
            }
            .with_tree(4),
        );
        assert!(r.timing.avg_cycles > 0.0);
    }

    #[test]
    fn lock_runner_all_kinds() {
        for kind in [LockKind::Ticket, LockKind::Array] {
            let r = run_lock(LockBench {
                rounds: 3,
                ..LockBench::paper(Mechanism::Atomic, kind, 4)
            });
            assert_eq!(r.timing.acquisitions, 12);
            assert_eq!(r.violations, 0);
        }
    }

    #[test]
    fn observed_run_matches_plain_run_and_captures_data() {
        let b = BarrierBench {
            episodes: 4,
            warmup: 1,
            ..BarrierBench::paper(Mechanism::Amo, 8)
        };
        let plain = run_barrier(b);
        let observed = run_barrier_obs(
            b,
            ObsSpec {
                trace_cap: 1 << 16,
                sample_interval: 200,
                hostprof: false,
            },
        );
        assert_eq!(
            plain.timing.per_episode, observed.timing.per_episode,
            "observation must not perturb timing"
        );
        assert_eq!(plain.stats.total_msgs(), observed.stats.total_msgs());
        let trace = observed.obs.trace.expect("trace requested");
        assert!(!trace.events.is_empty());
        let ts = observed.obs.timeseries.expect("sampling requested");
        assert!(!ts.ticks.is_empty());
        assert!(plain.obs.trace.is_none() && plain.obs.timeseries.is_none());
    }

    #[test]
    fn try_runner_surfaces_faults_as_values() {
        let mut cfg = SystemConfig::with_procs(4);
        cfg.faults.link_error_ppm = 1_000_000;
        cfg.faults.max_link_retries = 1;
        cfg.faults.seed = 7;
        let err = try_run_barrier(BarrierBench {
            episodes: 2,
            warmup: 1,
            config: Some(cfg),
            ..BarrierBench::paper(Mechanism::Amo, 4)
        })
        .unwrap_err();
        assert!(err.error.is_some(), "expected a typed SimError");
        assert!(err.stats.link_crc_errors > 0, "fault counters must survive");
        assert!(err.to_string().contains("aborted"), "{err}");
        assert!(err.info.events > 0);
    }

    #[test]
    fn arithmetic_skew_ignores_the_seed() {
        let b = BarrierBench {
            episodes: 3,
            warmup: 1,
            skew: SkewMode::Arithmetic,
            ..BarrierBench::paper(Mechanism::Amo, 4)
        };
        let a = run_barrier(b);
        let c = run_barrier(BarrierBench { seed: 999, ..b });
        assert_eq!(
            a.timing.per_episode, c.timing.per_episode,
            "arithmetic skew must be RNG-free"
        );
    }

    #[test]
    fn same_seed_same_result() {
        let b = BarrierBench {
            episodes: 3,
            warmup: 1,
            ..BarrierBench::paper(Mechanism::LlSc, 4)
        };
        let a = run_barrier(b);
        let c = run_barrier(b);
        assert_eq!(a.timing.per_episode, c.timing.per_episode);
        assert_eq!(a.stats.total_msgs(), c.stats.total_msgs());
    }
}
