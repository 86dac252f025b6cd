//! The one run path: check a description, build its machine, observe
//! it, bound it, run it, and hand back its result or its failure.
//!
//! Everything that can be simulated is a [`Scenario`]: it says which
//! machine it needs, how to put its kernels on one (through the
//! `amo_sync::install` installers, or with kernels of its own), and how
//! to reduce the recorded marks to its result. [`run_scenario`] does
//! the rest, once, for every scenario: it rejects a description that
//! cannot run *before* anything is simulated, picks the tracer ×
//! host-profiler machine the [`ObsSpec`] asks for, arms sampling and
//! the watchdog, runs to the one cycle limit, and packages a stall or a
//! typed fault as a [`RunFailure`] (with the critical-path breakdown of
//! a traced abort attached). [`BarrierBench`], [`LockBench`] and the
//! application studies in [`crate::app`] are its scenarios; the
//! schedule explorer runs its models through the inner half,
//! [`run_on`], on machines it builds itself.
//!
//! The `run_*` / `try_run_*` families are the barrier and lock
//! shorthands over it: the infallible forms panic on a rejected,
//! stalled or faulted run (right for paper-table generation, where an
//! abort is a bug), the fallible forms return the [`RunFailure`] (right
//! for campaign grids and chaos studies, where one bad cell must not
//! kill the sweep).

use crate::measure::{barrier_measurement, lock_measurement, BarrierMeasurement, LockMeasurement};
use amo_obs::critpath::{self, Workload};
use amo_obs::hostprof::{HostProf, HostProfReport, HostProfiler};
use amo_obs::{NopTracer, RingTracer, TimeSeries, TraceBuf, Tracer};
use amo_sim::{Machine, QueueKind, RunResult, SimError};
use amo_sync::{BarrierStyle, LockInstalled, Mechanism, ProcPlan};
use amo_types::seed::{arithmetic_skew, run_seed};
use amo_types::{Cycle, ProcId, Stats, SystemConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use amo_sync::{BarrierAlgo, LockKind};

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

impl ObsSpec {}

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

/// Why a run did not produce a result: its description was rejected
/// before anything was simulated, or the machine stalled or faulted.
/// Carries everything known at the abort — a faulted chaos run still
/// reports its fault counters.
#[derive(Clone, Debug)]
pub struct RunFailure {
    /// What was running, e.g. `"barrier Amo at 64 procs"`.
    pub what: String,
    /// Why the description cannot run at all ([`Scenario::check`]);
    /// nothing was simulated and every other field is empty.
    pub rejected: Option<String>,
    /// The typed fault, if the machine detected one ( `None` for a
    /// plain stall: the event queue drained, or the cycle limit hit,
    /// with kernels unfinished and no watchdog armed).
    pub error: Option<Box<SimError>>,
    /// The machine's stall report at abort time.
    pub stall_report: String,
    /// Machine-wide statistics up to the abort.
    pub stats: Stats,
    /// Every `Op::Mark` recorded up to the abort.
    pub marks: Vec<(ProcId, u32, Cycle)>,
    /// Run-level facts at the abort.
    pub info: RunInfo,
    /// True if the run hit the cycle safety limit.
    pub hit_limit: bool,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.rejected, &self.error) {
            (Some(why), _) => write!(f, "{} rejected: {why}", self.what),
            (None, Some(e)) => write!(f, "{} aborted: {e}", self.what),
            (None, None) => write!(
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

/// What a finished machine shows the scenario that ran on it.
pub struct Finished<'a> {
    /// Every `Op::Mark` the kernels recorded: (processor, id, cycle).
    pub marks: &'a [(ProcId, u32, Cycle)],
    /// Run-level facts (end cycle, events, last finish).
    pub info: RunInfo,
}

/// One simulation, described: the machine it needs, the kernels it puts
/// on it, and what its marks reduce to.
pub trait Scenario: std::fmt::Debug {
    /// What [`install`](Self::install) hands on: to observers attached
    /// after it (the ticket sequencer's address) and to
    /// [`reduce`](Self::reduce) (the exclusion-check counter).
    type Installed;
    /// What a finished run reduces to.
    type Output;

    /// Can this run at all? `Err` names the offending value. Called by
    /// the driver, and by every decoder and command line that builds a
    /// description, before anything is simulated.
    fn check(&self) -> Result<(), String>;

    /// The machine to build.
    fn config(&self) -> SystemConfig;

    /// Progress-watchdog window in cycles; 0 leaves it off. Armed,
    /// stalls surface as typed `NoProgress` / `Deadlock` errors instead
    /// of running to the cycle limit.
    fn watchdog(&self) -> Cycle {
        0
    }

    /// What is running, for failure reports.
    fn label(&self) -> String {
        format!("{self:?}")
    }

    /// The mark scheme of its episodes, for the critical-path
    /// breakdown of a traced abort (one without such marks gets none).
    fn workload(&self) -> Workload {
        Workload::Barrier
    }

    /// Load one kernel per participating processor.
    fn install<T: Tracer, P: HostProf>(&self, machine: &mut Machine<T, P>) -> Self::Installed;

    /// Reduce a run in which every kernel finished.
    fn reduce(&self, installed: Self::Installed, run: &Finished) -> Self::Output;
}

/// Outcome of [`run_scenario`].
#[derive(Clone, Debug)]
pub struct Run<S: Scenario> {
    /// The scenario that ran.
    pub bench: S,
    /// Its reduction of the run.
    pub timing: S::Output,
    /// Machine-wide statistics for the whole run.
    pub stats: Stats,
    /// Run-level facts (end cycle, events, last finish).
    pub info: RunInfo,
    /// Trace / time-series / host profile captured per the [`ObsSpec`].
    pub obs: ObsReport,
}

/// Outcome of a barrier benchmark.
pub type BarrierResult = Run<BarrierBench>;
/// Outcome of a lock benchmark. (It has no violation count: a run that
/// violates mutual exclusion panics in [`Scenario::reduce`].)
pub type LockResult = Run<LockBench>;

/// The machine a description of `procs` processors runs on: its
/// override if it has one, else the paper's Table 1.
fn machine_for(procs: u16, config: Option<SystemConfig>) -> SystemConfig {
    config.unwrap_or_else(|| SystemConfig::with_procs(procs))
}

/// The conditions on [`machine_for`]'s machine.
pub(crate) fn check_machine(procs: u16, config: Option<SystemConfig>) -> Result<(), String> {
    let cfg = machine_for(procs, config);
    if cfg.num_procs != procs {
        return Err(format!(
            "config override must match procs: config.num_procs = {}, procs = {procs}",
            cfg.num_procs
        ));
    }
    cfg.check()
}

/// A reduction over episodes needs one left after the warm-up.
pub(crate) fn check_measured(what: &str, total: u32, warmup: u32) -> Result<(), String> {
    if warmup < total {
        return Ok(());
    }
    Err(format!(
        "need at least one measured episode: warmup = {warmup} leaves none of {what} = {total}"
    ))
}

/// Run one scenario: reject it if it cannot run, otherwise simulate it
/// on the machine `obs` asks for. A zero `trace_cap` without `hostprof`
/// keeps the `NopTracer` machine, so an unobserved run pays nothing for
/// observability.
pub fn run_scenario<S: Scenario + Clone>(
    scenario: &S,
    obs: ObsSpec,
) -> Result<Run<S>, Box<RunFailure>> {
    if let Err(why) = scenario.check() {
        return Err(Box::new(RunFailure {
            what: scenario.label(),
            rejected: Some(why),
            error: None,
            stall_report: String::new(),
            stats: Stats::new(),
            marks: Vec::new(),
            info: RunInfo::default(),
            hit_limit: false,
        }));
    }
    let (cfg, queue) = (scenario.config(), QueueKind::Calendar);
    let ring = || RingTracer::new(obs.trace_cap);
    match (obs.trace_cap > 0, obs.hostprof) {
        (true, true) => {
            let machine = Machine::with_parts(cfg, queue, ring(), HostProfiler::new());
            observe(scenario, machine, obs)
        }
        (true, false) => observe(scenario, Machine::with_tracer(cfg, queue, ring()), obs),
        (false, true) => {
            let machine = Machine::with_parts(cfg, queue, NopTracer, HostProfiler::new());
            observe(scenario, machine, obs)
        }
        (false, false) => observe(scenario, Machine::new(cfg), obs),
    }
}

/// Run on the chosen machine and collect what it observed.
fn observe<S: Scenario + Clone, T: Tracer, P: HostProf>(
    scenario: &S,
    mut machine: Machine<T, P>,
    obs: ObsSpec,
) -> Result<Run<S>, Box<RunFailure>> {
    if obs.sample_interval > 0 {
        machine.enable_sampling(obs.sample_interval);
    }
    let (timing, info) = run_on(scenario, &mut machine, |_, _| {})?;
    Ok(Run {
        bench: scenario.clone(),
        timing,
        stats: machine.stats().clone(),
        info,
        obs: ObsReport {
            trace: machine.take_trace_buf(),
            timeseries: machine.take_timeseries(),
            hostprof: machine.take_hostprof(),
        },
    })
}

/// The driver's inner half, for a caller that brings its own machine
/// (built for `scenario.config()`, with whatever tracer and extra
/// set-up it wants): arm the watchdog, install the scenario, let
/// `attach` hook observers that need to know what was installed onto
/// the tracer, run to the cycle limit, and reduce — or package the
/// stall or fault. Does not call [`Scenario::check`]; allocates nothing
/// per run beyond what the scenario does.
pub fn run_on<S: Scenario, T: Tracer, P: HostProf>(
    scenario: &S,
    machine: &mut Machine<T, P>,
    attach: impl FnOnce(&mut T, &S::Installed),
) -> Result<(S::Output, RunInfo), Box<RunFailure>> {
    if scenario.watchdog() > 0 {
        machine.enable_watchdog(scenario.watchdog());
    }
    let installed = scenario.install(machine);
    attach(machine.tracer_mut(), &installed);
    let res = machine.run(MAX_CYCLES);
    let info = RunInfo::from_result(&res);
    if !res.all_finished || res.error.is_some() {
        let mut error = res.error.map(Box::new);
        attach_critpath(&mut error, scenario.workload());
        return Err(Box::new(RunFailure {
            what: scenario.label(),
            rejected: None,
            error,
            stall_report: machine.stall_report(),
            stats: machine.stats().clone(),
            marks: machine.marks().to_vec(),
            info,
            hit_limit: res.hit_limit,
        }));
    }
    let run = Finished {
        marks: machine.marks(),
        info,
    };
    Ok((scenario.reduce(installed, &run), info))
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

impl Scenario for BarrierBench {
    type Installed = ();
    type Output = BarrierMeasurement;

    fn check(&self) -> Result<(), String> {
        check_machine(self.procs, self.config)?;
        check_measured("episodes", self.episodes, self.warmup)?;
        self.algo.check(self.procs)
    }

    fn config(&self) -> SystemConfig {
        machine_for(self.procs, self.config)
    }

    fn watchdog(&self) -> Cycle {
        self.watchdog
    }

    fn label(&self) -> String {
        format!("barrier {:?} at {} procs", self.mech, self.procs)
    }

    fn install<T: Tracer, P: HostProf>(&self, machine: &mut Machine<T, P>) {
        let mut rng = StdRng::seed_from_u64(run_seed(self.seed, self.procs as u64));
        let plan = |p| ProcPlan {
            work: skew_plan(self.skew, &mut rng, p, self.episodes, self.max_skew),
            start: 0,
        };
        self.algo
            .install(machine, self.mech, self.style, self.episodes, plan);
    }

    fn reduce(&self, (): (), run: &Finished) -> BarrierMeasurement {
        barrier_measurement(run.marks, self.procs, self.episodes, self.warmup)
    }
}

/// Run one barrier benchmark to completion; panics on a rejected,
/// stalled or faulted run.
pub fn run_barrier(bench: BarrierBench) -> BarrierResult {
    run_barrier_obs(bench, ObsSpec::default())
}

/// Run one barrier benchmark, optionally tracing and sampling.
pub fn run_barrier_obs(bench: BarrierBench, obs: ObsSpec) -> BarrierResult {
    try_run_barrier_obs(bench, obs).unwrap_or_else(|f| panic!("{f}"))
}

/// Fallible barrier run: a rejected description or a stalled or faulted
/// machine comes back as a [`RunFailure`] instead of a panic, so a
/// campaign grid cell can fail alone.
pub fn try_run_barrier(bench: BarrierBench) -> Result<BarrierResult, Box<RunFailure>> {
    try_run_barrier_obs(bench, ObsSpec::default())
}

/// Fallible barrier run with observation; see [`try_run_barrier`].
pub fn try_run_barrier_obs(
    bench: BarrierBench,
    obs: ObsSpec,
) -> Result<BarrierResult, Box<RunFailure>> {
    run_scenario(&bench, obs)
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

impl Scenario for LockBench {
    type Installed = LockInstalled;
    type Output = LockMeasurement;

    fn check(&self) -> Result<(), String> {
        check_machine(self.procs, self.config)?;
        if self.rounds == 0 {
            return Err("rounds = 0: need at least one acquisition per processor".into());
        }
        self.kind.check(self.mech, self.procs)
    }

    fn config(&self) -> SystemConfig {
        machine_for(self.procs, self.config)
    }

    fn watchdog(&self) -> Cycle {
        self.watchdog
    }

    fn label(&self) -> String {
        format!(
            "lock {:?} {:?} at {} procs",
            self.mech, self.kind, self.procs
        )
    }

    fn workload(&self) -> Workload {
        Workload::Lock
    }

    fn install<T: Tracer, P: HostProf>(&self, machine: &mut Machine<T, P>) -> LockInstalled {
        let mut rng = StdRng::seed_from_u64(run_seed(self.seed, self.procs as u64));
        let plan = |_| ProcPlan {
            work: (0..self.rounds)
                .map(|_| 100 + rng.gen_range(0..self.max_think.max(1)))
                .collect(),
            start: 0,
        };
        self.kind.install(
            machine,
            self.mech,
            self.rounds,
            self.cs_cycles,
            self.check_exclusion,
            plan,
        )
    }

    /// A mutual-exclusion violation is a simulator bug, not a result.
    fn reduce(&self, lock: LockInstalled, run: &Finished) -> LockMeasurement {
        assert_eq!(
            lock.check.map_or(0, |c| c.violations.get()),
            0,
            "{:?} {:?} violated mutual exclusion",
            self.mech,
            self.kind
        );
        lock_measurement(run.marks, self.procs, self.rounds)
    }
}

/// Run one lock benchmark to completion; panics on a rejected, stalled
/// or faulted run.
pub fn run_lock(bench: LockBench) -> LockResult {
    run_lock_obs(bench, ObsSpec::default())
}

/// Run one lock benchmark, optionally tracing and sampling.
pub fn run_lock_obs(bench: LockBench, obs: ObsSpec) -> LockResult {
    try_run_lock_obs(bench, obs).unwrap_or_else(|f| panic!("{f}"))
}

/// Fallible lock run; see [`try_run_barrier`].
pub fn try_run_lock(bench: LockBench) -> Result<LockResult, Box<RunFailure>> {
    try_run_lock_obs(bench, ObsSpec::default())
}

/// Fallible lock run with observation; see [`try_run_lock`].
pub fn try_run_lock_obs(bench: LockBench, obs: ObsSpec) -> Result<LockResult, Box<RunFailure>> {
    run_scenario(&bench, obs)
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

    /// A description that cannot run comes back from the driver as a
    /// rejection naming the offending value, before anything is
    /// simulated (the warm-up ones used to assert after the whole run).
    #[test]
    fn descriptions_that_cannot_run_are_rejected_not_simulated() {
        use crate::app::{Signal, SyncTax};
        fn why<S: Scenario + Clone>(scenario: S) -> String {
            let f = run_scenario(&scenario, ObsSpec::default()).map(|_| ());
            let f = f.unwrap_err();
            assert_eq!(f.info.events, 0, "nothing may be simulated: {f}");
            let text = f.to_string();
            assert!(text.contains(" rejected: ") && !text.contains("stalled"));
            f.rejected.expect("a rejection")
        }
        let (mech, procs) = (Mechanism::Amo, 8);
        let barrier = BarrierBench::paper(mech, procs);
        let tax = SyncTax {
            mech,
            procs,
            grain: 1_000,
            steps: 3,
            warmup: 3,
        };
        let no_pairs = Signal {
            mech,
            pairs: 0,
            rounds: 4,
        };
        let no_rounds = LockBench {
            rounds: 0,
            ..LockBench::paper(mech, LockKind::Ticket, procs)
        };
        let override_16 = BarrierBench {
            config: Some(SystemConfig::with_procs(16)),
            ..barrier
        };
        for (why, needle) in [
            (why(tax), "warmup = 3 leaves none of steps = 3"),
            (why(no_pairs), "pairs = 0"),
            (why(no_rounds), "rounds = 0"),
            (why(override_16), "config.num_procs = 16, procs = 8"),
            (why(barrier.with_tree(8)), "tree:8"),
            (why(barrier.with_ktree(1)), "ktree:1"),
        ] {
            assert!(why.contains(needle), "{why:?} lacks {needle:?}");
        }
    }

    /// The application studies run through the same driver: observable
    /// without perturbation, and a failed one is a value carrying its
    /// label and statistics.
    #[test]
    fn app_studies_are_observable_and_fail_as_values() {
        use crate::app::SyncTax;
        let tax = SyncTax {
            mech: Mechanism::Amo,
            procs: 8,
            grain: 2_000,
            steps: 4,
            warmup: 1,
        };
        let plain = run_scenario(&tax, ObsSpec::default()).unwrap();
        let observed = run_scenario(
            &tax,
            ObsSpec {
                trace_cap: 1 << 16,
                sample_interval: 200,
                hostprof: false,
            },
        )
        .unwrap();
        assert_eq!(plain.timing.step_cycles, observed.timing.step_cycles);
        assert!(plain.stats.total_msgs() > 0 && plain.obs.trace.is_none());
        assert!(!observed.obs.trace.expect("traced").events.is_empty());
        assert!(!observed.obs.timeseries.expect("sampled").ticks.is_empty());

        // The study on a machine whose links fail for good.
        let mut cfg = tax.config();
        cfg.faults.link_error_ppm = 1_000_000;
        cfg.faults.max_link_retries = 1;
        let failed = run_on(&tax, &mut Machine::new(cfg), |_, _| {}).unwrap_err();
        assert!(failed
            .what
            .starts_with("SyncTax { mech: Amo, procs: 8, grain: 2000"));
        assert!(failed.error.is_some() && failed.stats.link_crc_errors > 0);
        assert!(failed.to_string().contains("aborted"), "{failed}");
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
