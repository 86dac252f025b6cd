//! The machine: event loop and component glue.

use crate::error::{DiagBundle, NodeDepths, SimError, SimErrorKind};
use crate::hub::Hub;
use amo_amu::{AmuEffect, AmuError};
use amo_cpu::{Kernel, ProcEffect, ProcFault, Processor, TimerKind};
use amo_directory::{DirAction, DirRequest, Directory};
use amo_engine::{Clock, EventQueue, QueueKind};
use amo_faults::FaultPlan;
use amo_noc::{Delivery, Fabric};
use amo_obs::hostprof::{HostProf, HostProfReport, NopHostProf, Scope};
use amo_obs::timeseries::{NodeSample, Tick, TimeSeries};
use amo_obs::{NopTracer, TraceBuf, TraceEvent, TraceKind, Tracer};
use amo_types::{
    Addr, BlockAddr, Cycle, MsgClass, MsgEndpoint, NodeId, Payload, ProcId, ReqId, SharedTape,
    Slab, SlotId, Stats, SystemConfig, Word,
};

/// Declares the event enum together with a fieldless mirror enum whose
/// discriminants give every variant a dense index, so `Event::COUNT`,
/// `Event::NAMES`, and `Event::index` all derive from the one variant
/// list — adding a variant can never desynchronize the counters.
macro_rules! define_events {
    (
        $(#[$em:meta])*
        enum $ename:ident / $kname:ident {
            $( $(#[$vm:meta])* $vname:ident ( $($vty:ty),* $(,)? ) ),+ $(,)?
        }
    ) => {
        $(#[$em])*
        enum $ename { $( $(#[$vm])* $vname ( $($vty),* ) ),+ }

        #[derive(Clone, Copy)]
        enum $kname { $( $vname ),+ }

        impl $ename {
            /// Number of event variants.
            const COUNT: usize = [$( $kname::$vname ),+].len();
            /// Variant names, in declaration order.
            const NAMES: [&'static str; Self::COUNT] = [$( stringify!($vname) ),+];
            /// Dense index of this event's variant.
            #[inline]
            fn index(&self) -> usize {
                (match self { $( Self::$vname(..) => $kname::$vname ),+ }) as usize
            }
        }
    };
}

define_events! {
    /// Everything that can happen. Events are moved (never cloned) from
    /// the queue through dispatch; a message's payload is parked in the
    /// machine's payload slab and the event carries its slot.
    #[derive(Debug)]
    enum Event / EventKind {
        /// Call `Processor::step_into`.
        ProcWake(ProcId),
        /// Call `Processor::handler_done_into`.
        ProcHandlerDone(ProcId),
        /// Call `Processor::timeout_into`.
        ProcTimeout(ProcId, ReqId, TimerKind),
        /// Apply a word update at a processor (bus latency included).
        ProcWordUpdate(ProcId, Addr, Word),
        /// A message arrived at a hub's network interface.
        ToHub(NodeId, SlotId),
        /// A directory-bound message cleared the service pipeline.
        DirProcess(NodeId, SlotId),
        /// A DRAM block read completed for the directory.
        DramDone(NodeId, BlockAddr),
        /// The AMU function unit becomes free.
        AmuWake(NodeId),
        /// An uncached memory word read completed for the AMU.
        AmuMemValue(NodeId, u64, Addr),
        /// An AMU reply is ready to inject into the fabric.
        AmuSend(NodeId, ProcId, SlotId),
        /// A message is delivered to a processor (bus latency included).
        ToProc(ProcId, SlotId),
    }
}

/// Size of one queued event in bytes. The event type itself is private
/// (its variants are the machine's internals); the size is exported so
/// the layout-guard tests can pin the hot-path memory budget — every
/// schedule writes exactly this many bytes into a node of the event
/// queue's arena, and the pop that hands the event to dispatch reads
/// them from there. Payloads are not part of it: they are written into
/// the payload slab once and taken out once.
pub const EVENT_SIZE: usize = std::mem::size_of::<Event>();

/// Result of [`Machine::run`].
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Cycle of the last processed event.
    pub end: Cycle,
    /// True if every installed kernel reached `Op::Done`.
    pub all_finished: bool,
    /// Per-processor completion times.
    pub finished: Vec<Option<Cycle>>,
    /// Events processed.
    pub events: u64,
    /// True if the run stopped at the cycle limit.
    pub hit_limit: bool,
    /// The typed fault that aborted the run, if one did. `None` means
    /// the run ended normally (drained queue or cycle limit).
    pub error: Option<SimError>,
}

impl RunResult {
    /// Latest kernel completion time (panics if any kernel is unfinished).
    pub fn last_finish(&self) -> Cycle {
        self.finished
            .iter()
            .map(|f| f.expect("kernel did not finish"))
            .max()
            .expect("at least one kernel")
    }
}

/// The simulated multiprocessor.
///
/// ```
/// use amo_sim::Machine;
/// use amo_cpu::{Kernel, Op, Outcome};
/// use amo_types::{Addr, NodeId, ProcId, SystemConfig};
///
/// // One processor stores 7 to a remote word, another reads it back.
/// struct Put(bool);
/// impl Kernel for Put {
///     fn next(&mut self, _l: Option<Outcome>) -> Op {
///         if self.0 { return Op::Done; }
///         self.0 = true;
///         Op::Store { addr: Addr::on_node(NodeId(1), 0x100), value: 7 }
///     }
/// }
///
/// let mut m = Machine::new(SystemConfig::with_procs(4));
/// m.install_kernel(ProcId(0), Box::new(Put(false)), 0);
/// let result = m.run(1_000_000);
/// assert!(result.all_finished);
/// assert!(m.stats().total_msgs() > 0);
/// ```
pub struct Machine<T: Tracer = NopTracer, P: HostProf = NopHostProf> {
    cfg: SystemConfig,
    clock: Clock,
    queue: EventQueue<Event>,
    fabric: Fabric,
    procs: Vec<Processor>,
    hubs: Vec<Hub>,
    stats: Stats,
    marks: Vec<(ProcId, u32, Cycle)>,
    event_counts: [u64; Event::COUNT],
    /// Payloads of the queued message events, each inserted when its
    /// event is scheduled and removed when it is dispatched. Slot ids
    /// never reach simulated state, and the slab is empty whenever the
    /// queue is.
    payloads: Slab<Payload>,
    /// Reusable effect buffers: the dispatch hot path hands one to each
    /// component `*_into` call and returns it after draining, so steady
    /// state event processing performs no heap allocation. Pools (not
    /// single buffers) because effect processing nests: an AMU effect
    /// can produce directory actions whose processing produces further
    /// AMU effects while the outer buffer is still being drained.
    proc_eff_pool: Vec<Vec<ProcEffect>>,
    amu_eff_pool: Vec<Vec<AmuEffect>>,
    dir_act_pool: Vec<Vec<DirAction>>,
    /// The instrumentation switch. With the default [`NopTracer`] every
    /// hook (`if T::ENABLED { ... }`) is compile-time dead code; see
    /// `amo-obs` for the contract. [`Machine::with_tracer`] swaps in a
    /// recording implementation.
    tracer: T,
    /// The host-profiling switch: the same compile-time pattern as the
    /// tracer, but attributing the simulator's *own* wall-clock and
    /// allocations (`if P::ENABLED { self.prof.enter(..) }`). The
    /// default [`NopHostProf`] folds every hook away;
    /// [`Machine::with_parts`] swaps in `amo_obs::HostProfiler`.
    prof: P,
    /// Time-series sampling cadence; 0 until enabled.
    sample_interval: Cycle,
    /// Next sampling boundary (`Cycle::MAX` = sampling off, so the run
    /// loop's check is a single always-false compare by default).
    next_sample: Cycle,
    timeseries: Option<TimeSeries>,
    /// The fault oracle (shared in spirit with the fabric's copy; used
    /// here for AMU brown-out windows).
    faults: FaultPlan,
    /// First typed fault raised during dispatch; the run loop stops on
    /// it at the next event boundary.
    pending_fault: Option<(SimErrorKind, Cycle)>,
    /// Full detail of a pending `MonitorViolation`, attached to the
    /// bundle by `make_error`.
    pending_violation: Option<String>,
    /// Reusable drain buffers for the AMU apply log and directory
    /// reclaim log (traced builds only; stay empty under `NopTracer`).
    apply_buf: Vec<(ReqId, ProcId, Addr, Word)>,
    reclaim_buf: Vec<(BlockAddr, bool)>,
    /// Watchdog no-progress window; 0 = watchdog off.
    watchdog_window: Cycle,
    /// Progress metric value at the last observed change.
    wd_last_progress: u64,
    /// Cycle of the last observed progress change.
    wd_last_progress_at: Cycle,
}

/// Causal flow id carried by a payload's request tag (0 = none).
#[inline]
fn flow_of(payload: &Payload) -> u64 {
    payload.req().map_or(0, |r| r.flow())
}

/// Upper bound on concurrently pending events, from the config: every
/// processor can hold its outstanding-miss limit in flight (each miss is
/// at most one queued event at a time), plus per-node slack for AMU
/// queues and update fanout. It sizes the event queue's window (see
/// [`EventQueue::with_capacity_and_kind`]): a bigger machine schedules
/// further ahead. It also sizes the queue's node arena and the payload
/// slab, so a run fills both without regrowing.
fn queue_capacity(cfg: &SystemConfig) -> usize {
    cfg.num_procs as usize * cfg.max_outstanding_misses
        + cfg.num_nodes() as usize * cfg.amu.queue_cap.min(64)
}

impl Machine {
    /// Build a machine per `cfg` (validated).
    pub fn new(cfg: SystemConfig) -> Self {
        Machine::with_tracer(cfg, QueueKind::Calendar, NopTracer)
    }
}

impl<T: Tracer> Machine<T> {
    /// Build a machine that records a cycle-stamped event trace through
    /// `tracer` (e.g. `amo_obs::RingTracer`). Processor op-span emission
    /// is switched on here so issue→completion spans reach the trace;
    /// [`Machine::new`] leaves it off.
    pub fn with_tracer(cfg: SystemConfig, kind: QueueKind, tracer: T) -> Self {
        Machine::with_parts(cfg, kind, tracer, NopHostProf)
    }
}

impl<T: Tracer, P: HostProf> Machine<T, P> {
    /// Build a machine with both instrumentation switches explicit: a
    /// tracer for simulated-time observability and a host profiler for
    /// wall-clock/allocation attribution (`amo_obs::HostProfiler`).
    /// Either can be the zero-sized nop.
    pub fn with_parts(cfg: SystemConfig, kind: QueueKind, tracer: T, prof: P) -> Self {
        cfg.validate();
        let nodes = cfg.num_nodes();
        let mut procs: Vec<Processor> = (0..cfg.num_procs)
            .map(|i| Processor::new(ProcId(i), cfg))
            .collect();
        if T::ENABLED {
            for p in &mut procs {
                p.set_op_tracing(true);
            }
        }
        let mut hubs: Vec<Hub> = (0..nodes).map(|n| Hub::new(NodeId(n), &cfg)).collect();
        if T::ENABLED {
            // Protocol-monitor observability: record true AMU applies
            // and directory idle reclaims so the trace stream carries
            // the semantic events the monitors check.
            for h in &mut hubs {
                h.amu.set_log_applies(true);
                h.directory.set_log_reclaims(true);
            }
        }
        Machine {
            fabric: Fabric::with_faults(nodes, cfg.network, FaultPlan::new(cfg.faults)),
            procs,
            hubs,
            clock: Clock::new(),
            queue: EventQueue::with_capacity_and_kind(queue_capacity(&cfg), kind),
            stats: Stats::new(),
            marks: Vec::new(),
            event_counts: [0; Event::COUNT],
            payloads: Slab::with_capacity(queue_capacity(&cfg)),
            proc_eff_pool: Vec::new(),
            amu_eff_pool: Vec::new(),
            dir_act_pool: Vec::new(),
            tracer,
            prof,
            sample_interval: 0,
            next_sample: Cycle::MAX,
            timeseries: None,
            faults: FaultPlan::new(cfg.faults),
            pending_fault: None,
            pending_violation: None,
            apply_buf: Vec::new(),
            reclaim_buf: Vec::new(),
            watchdog_window: 0,
            wd_last_progress: 0,
            wd_last_progress_at: 0,
            cfg,
        }
    }

    /// Arm the progress watchdog: abort with
    /// [`SimErrorKind::NoProgress`] if `window` cycles pass with events
    /// still flowing but nothing retiring (no kernel operation
    /// completes, no handler runs), and with
    /// [`SimErrorKind::Deadlock`] if the event queue drains with
    /// kernels unfinished. Off by default — legitimate open-ended runs
    /// (e.g. inspecting a stalled kernel via
    /// [`stall_report`](Self::stall_report)) stay non-fatal.
    pub fn enable_watchdog(&mut self, window: Cycle) {
        assert!(window > 0, "watchdog window must be positive");
        self.watchdog_window = window;
    }

    /// Mutable access to the attached tracer (e.g. to read drop counts).
    pub fn tracer_mut(&mut self) -> &mut T {
        &mut self.tracer
    }

    /// Mutable access to the attached host profiler (e.g. to `reset()`
    /// it between a warm-up run and the steady-state run it profiles).
    pub fn profiler_mut(&mut self) -> &mut P {
        &mut self.prof
    }

    /// Drain the accumulated host profile, if the profiler keeps one
    /// (`None` for [`NopHostProf`]).
    pub fn take_hostprof(&mut self) -> Option<HostProfReport> {
        self.prof.take_report()
    }

    /// Clear the recorded `Op::Mark` history, retaining the buffer's
    /// capacity. Used between a warm-up run and a profiled steady-state
    /// run so the mark sink doesn't regrow (and re-allocate) from
    /// scratch.
    pub fn clear_marks(&mut self) {
        self.marks.clear();
    }

    /// Attach a schedule tape: every delivery-layer choice (reorder
    /// skew, duplication) and every retry-jitter draw is resolved by
    /// `tape` instead of the fault plan's keyed hash, making the
    /// interleaving an explicit, enumerable input. Used by the
    /// `amo-verify` schedule explorer; see `amo_types::tape`. Call
    /// before [`run`](Self::run).
    pub fn set_schedule_tape(&mut self, tape: SharedTape) {
        self.fabric.set_schedule_tape(tape.clone());
        for p in &mut self.procs {
            p.set_schedule_tape(tape.clone());
        }
    }

    /// Test-only planted bug for the `amo-verify` explorer: make every
    /// AMU's dedup-suppressed replay *log* an apply record as if it had
    /// executed twice. Protocol state is untouched — only the
    /// observation stream lies — so the at-most-once monitor must catch
    /// it from the trace alone.
    pub fn plant_amu_double_apply(&mut self) {
        for h in &mut self.hubs {
            h.amu.plant_double_apply();
        }
    }

    /// Drain the recorded event trace, if the tracer keeps one (`None`
    /// for [`NopTracer`]).
    pub fn take_trace_buf(&mut self) -> Option<TraceBuf> {
        self.tracer.take_buf()
    }

    /// Sample per-node occupancy (directory queue, AMU queue, link
    /// backlogs, outstanding misses) every `interval` cycles during
    /// [`run`](Self::run). The sampler piggybacks on event dispatch: the
    /// first event at or past a boundary takes the sample, so a quiet
    /// stretch of simulated time yields one catch-up tick stamped at the
    /// latest boundary. Works with any tracer, including `NopTracer`.
    pub fn enable_sampling(&mut self, interval: Cycle) {
        assert!(interval > 0, "sampling interval must be positive");
        self.sample_interval = interval;
        self.next_sample = interval;
        self.timeseries = Some(TimeSeries::new(interval, self.cfg.num_nodes() as usize));
    }

    /// Take ownership of the sampled time series (disables further
    /// sampling).
    pub fn take_timeseries(&mut self) -> Option<TimeSeries> {
        self.next_sample = Cycle::MAX;
        self.timeseries.take()
    }

    /// One node's occupancy right now: directory queue, AMU queue, and
    /// the outstanding misses of its processors (sampler and abort
    /// diagnostics).
    fn node_depths(&self, node: NodeId) -> NodeDepths {
        let hub = &self.hubs[node.index()];
        let misses: usize = node
            .procs(self.cfg.procs_per_node)
            .map(|p| self.procs[p.index()].outstanding_misses())
            .sum();
        NodeDepths {
            dir_queue: hub.directory.queued_requests() as u32,
            amu_queue: hub.amu.queue_len() as u32,
            outstanding_misses: misses as u32,
        }
    }

    fn sample_now(&mut self, when: Cycle) {
        let interval = self.sample_interval;
        let boundary = (when / interval) * interval;
        let mut per_node = Vec::with_capacity(self.hubs.len());
        for node in (0..self.hubs.len() as u16).map(NodeId) {
            let depths = self.node_depths(node);
            per_node.push(NodeSample {
                dir_queue: depths.dir_queue,
                amu_queue: depths.amu_queue,
                egress_backlog: self.fabric.egress_backlog(node, when).min(u32::MAX as u64) as u32,
                ingress_backlog: self.fabric.ingress_backlog(node, when).min(u32::MAX as u64)
                    as u32,
                outstanding_misses: depths.outstanding_misses,
            });
        }
        if let Some(ts) = self.timeseries.as_mut() {
            ts.push(Tick {
                when: boundary,
                // Pending after this cycle: the events still queued at it
                // are not counted.
                events_queued: (self.queue.len() - self.queue.len_at(when)) as u64,
                per_node,
            });
        }
        self.next_sample = boundary + interval;
    }

    /// Dispatched-event histogram, by `Event` variant order (diagnostic:
    /// spotting event storms).
    pub fn event_histogram(&self) -> Vec<(&'static str, u64)> {
        Event::NAMES
            .iter()
            .zip(self.event_counts)
            .map(|(&name, count)| (name, count))
            .collect()
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Machine-wide statistics (valid after [`Self::run`]).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Recorded `Op::Mark` timestamps, in event order.
    pub fn marks(&self) -> &[(ProcId, u32, Cycle)] {
        &self.marks
    }

    /// A node's memory backing store (for asserting final values).
    pub fn memory(&self, node: NodeId) -> &amo_dram::MemoryStore {
        &self.hubs[node.index()].memory
    }

    /// Human-readable report of unfinished kernels and their states —
    /// the first thing to look at when a custom kernel stalls.
    pub fn stall_report(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.procs.iter().enumerate() {
            if p.has_kernel() && p.finished_at().is_none() {
                out.push_str(&format!("P{i}: {}\n", p.kstate_debug()));
            }
        }
        if out.is_empty() {
            out.push_str("all kernels finished\n");
        }
        out
    }

    /// Pre-initialize a word of home memory before the run (program
    /// initialization, e.g. an array lock's first granted slot).
    pub fn init_word(&mut self, addr: Addr, value: Word) {
        self.hubs[addr.home().index()]
            .memory
            .write_word(addr, value);
    }

    /// Install `kernel` on processor `p`, starting at cycle `start`
    /// (arrival skew goes here).
    pub fn install_kernel(&mut self, p: ProcId, kernel: Box<dyn Kernel>, start: Cycle) {
        self.procs[p.index()].load_kernel(kernel);
        self.queue.schedule(start, Event::ProcWake(p));
    }

    /// Run until the event queue drains, `max_cycles` passes, or a
    /// typed fault aborts the run (reported in [`RunResult::error`],
    /// never a panic). Returns timing and completion information.
    pub fn run(&mut self, max_cycles: Cycle) -> RunResult {
        self.scoped(Scope::Run, |m| m.run_inner(max_cycles))
    }

    /// Run `f` inside host-profiling scope `scope`; under
    /// [`NopHostProf`] this is `f(self)`.
    #[inline(always)]
    fn scoped<R>(&mut self, scope: Scope, f: impl FnOnce(&mut Self) -> R) -> R {
        if P::ENABLED {
            self.prof.enter(scope);
        }
        let r = f(self);
        if P::ENABLED {
            self.prof.exit(scope);
        }
        r
    }

    fn run_inner(&mut self, max_cycles: Cycle) -> RunResult {
        let mut events = 0u64;
        let mut hit_limit = false;
        // One event at a time. An event scheduled at the current cycle
        // joins the tail of that cycle's chain, behind every event
        // already there; a fault abort leaves the rest queued for the
        // resumed run.
        loop {
            let Some((when, ev)) = self.queue.pop_until(max_cycles) else {
                hit_limit = !self.queue.is_empty();
                break;
            };
            self.clock.advance_to(when);
            if when >= self.next_sample {
                self.scoped(Scope::Sample, |m| m.sample_now(when));
            }
            events += 1;
            // No `black_box(ev)`: the 24-byte event dispatches faster
            // without one (see DESIGN.md §7, packed events).
            let idx = ev.index();
            self.event_counts[idx] += 1;
            self.scoped(Scope::dispatch(idx), |m| m.dispatch(ev, when));
            if T::ENABLED {
                if let Some(v) = self.tracer.take_violation() {
                    self.pending_violation = Some(v.detail);
                    self.pending_fault.get_or_insert((
                        SimErrorKind::MonitorViolation { monitor: v.monitor },
                        v.at,
                    ));
                }
            }
            if self.pending_fault.is_some() || self.fabric.has_failure() {
                if let Some(f) = self.fabric.take_failure() {
                    self.pending_fault.get_or_insert((
                        SimErrorKind::LinkFailed {
                            src: f.src,
                            dst: f.dst,
                            attempts: f.attempts,
                        },
                        f.at,
                    ));
                }
                break;
            }
            if self.watchdog_window > 0 {
                let progress = self.progress_metric();
                if progress != self.wd_last_progress {
                    self.wd_last_progress = progress;
                    self.wd_last_progress_at = when;
                } else if when - self.wd_last_progress_at >= self.watchdog_window {
                    self.pending_fault = Some((
                        SimErrorKind::NoProgress {
                            window: self.watchdog_window,
                            last_progress_at: self.wd_last_progress_at,
                        },
                        when,
                    ));
                    break;
                }
            }
        }
        self.collect_cache_stats();
        let mut finished: Vec<Option<Cycle>> = Vec::with_capacity(self.procs.len());
        finished.extend(
            self.procs
                .iter()
                .filter(|p| p.has_kernel())
                .map(Processor::finished_at),
        );
        let all_finished = finished.iter().all(|f| f.is_some());
        if self.watchdog_window > 0 && self.pending_fault.is_none() && !hit_limit && !all_finished {
            let unfinished = finished.iter().filter(|f| f.is_none()).count() as u32;
            self.pending_fault = Some((SimErrorKind::Deadlock { unfinished }, self.clock.now()));
        }
        let error = self
            .pending_fault
            .take()
            .map(|(kind, at)| self.make_error(kind, at, events));
        RunResult {
            end: self.clock.now(),
            all_finished,
            finished,
            events,
            hit_limit,
            error,
        }
    }

    /// Monotone per-run progress indicator the watchdog watches: kernel
    /// operations retired plus active-message handlers run. Delays,
    /// spins, and in-flight coherence traffic do not count — a machine
    /// that only shuffles messages is not making progress.
    fn progress_metric(&self) -> u64 {
        self.stats.op_lat_cnt.iter().sum::<u64>() + self.stats.handlers_run
    }

    /// Harvest the diagnostic bundle for an abort at `at`.
    fn make_error(&mut self, kind: SimErrorKind, at: Cycle, events: u64) -> SimError {
        if T::ENABLED {
            self.tracer
                .record(TraceEvent::instant(TraceKind::Fault, 0, self.clock.now()).args(at, 0));
        }
        let queue_depths = (0..self.hubs.len() as u16)
            .map(|n| self.node_depths(NodeId(n)))
            .collect();
        SimError {
            kind,
            at,
            bundle: DiagBundle {
                stall_report: self.stall_report(),
                queue_depths,
                trace: self.tracer.take_buf(),
                events_processed: events,
                critpath: None,
                violation: self.pending_violation.take(),
            },
        }
    }

    fn collect_cache_stats(&mut self) {
        let (mut h1, mut m1, mut h2, mut m2) = (0, 0, 0, 0);
        for p in &self.procs {
            let (a, b, c, d) = p.caches().hit_stats();
            h1 += a;
            m1 += b;
            h2 += c;
            m2 += d;
        }
        self.stats.l1_hits = h1;
        self.stats.l1_misses = m1;
        self.stats.l2_hits = h2;
        self.stats.l2_misses = m2;
    }

    fn node_of(&self, p: ProcId) -> NodeId {
        p.node(self.cfg.procs_per_node)
    }

    /// Schedule the message event `ev` at `when` with `payload` parked.
    #[inline]
    fn park(&mut self, when: Cycle, payload: Payload, ev: impl FnOnce(SlotId) -> Event) {
        let id = self.payloads.insert(payload);
        self.queue.schedule(when, ev(id));
    }

    /// Take a dispatched message event's parked payload.
    #[inline]
    fn unpark(&mut self, id: SlotId) -> Payload {
        self.payloads.remove(id).expect("payload parked once")
    }

    fn dispatch(&mut self, ev: Event, now: Cycle) {
        if !T::ENABLED {
            return self.dispatch_inner(ev, now);
        }
        // Directory transactions retire deep inside the dispatch of the
        // node-bearing events below; `record_op`-style hooks can't see
        // them, so detect retirement by the stats delta and stamp an
        // instant (with the node's remaining open-transaction count).
        let ev_node = match &ev {
            Event::ToHub(n, _)
            | Event::DirProcess(n, _)
            | Event::DramDone(n, _)
            | Event::AmuWake(n)
            | Event::AmuMemValue(n, _, _)
            | Event::AmuSend(n, _, _) => Some(*n),
            _ => None,
        };
        let txn_before = self.stats.dir_transactions;
        self.dispatch_inner(ev, now);
        if P::ENABLED {
            self.prof.enter(Scope::TracerHooks);
        }
        if let Some(node) = ev_node {
            let retired = self.stats.dir_transactions - txn_before;
            if retired > 0 {
                let open = self.hubs[node.index()].directory.open_transactions() as u64;
                for _ in 0..retired {
                    self.tracer.record(
                        TraceEvent::instant(TraceKind::DirTxnEnd, node.0, now).args(open, 0),
                    );
                }
            }
            // Drain the semantic protocol events the node's components
            // logged during this dispatch: true AMU applies (never
            // dedup replays) and directory idle reclaims. These feed
            // the `amo-verify` monitors.
            let mut applies = std::mem::take(&mut self.apply_buf);
            self.hubs[node.index()].amu.drain_applies_into(&mut applies);
            for (req, proc, addr, pre) in applies.drain(..) {
                self.tracer.record(
                    TraceEvent::instant(TraceKind::AmuApply, node.0, now)
                        .on_proc(proc.0)
                        .args(addr.0, pre)
                        .flow(req.flow()),
                );
            }
            self.apply_buf = applies;
            let mut reclaims = std::mem::take(&mut self.reclaim_buf);
            self.hubs[node.index()]
                .directory
                .drain_reclaims_into(&mut reclaims);
            for (block, idle) in reclaims.drain(..) {
                self.tracer.record(
                    TraceEvent::instant(TraceKind::DirReclaim, node.0, now)
                        .args(block.0, idle as u64),
                );
            }
            self.reclaim_buf = reclaims;
        }
        if P::ENABLED {
            self.prof.exit(Scope::TracerHooks);
        }
    }

    /// Call one `Processor` entry point of `p` with a pooled effect buffer,
    /// then execute the effects it appended.
    #[inline(always)]
    fn on_proc(&mut self, p: ProcId, now: Cycle, f: impl FnOnce(&mut Self, &mut Vec<ProcEffect>)) {
        let mut eff = self.proc_eff_pool.pop().unwrap_or_default();
        f(self, &mut eff);
        self.run_proc_effects(p, &mut eff, now);
        self.proc_eff_pool.push(eff);
    }

    /// Call into `node`'s hub for its AMU (inside the `AmuExec` scope)
    /// with a pooled effect buffer, then execute the effects.
    #[inline(always)]
    fn on_amu<R>(
        &mut self,
        node: NodeId,
        now: Cycle,
        f: impl FnOnce(&mut Hub, &mut Stats, &mut Vec<AmuEffect>) -> R,
    ) -> R {
        let mut eff = self.amu_eff_pool.pop().unwrap_or_default();
        let r = self.scoped(Scope::AmuExec, |m| {
            f(&mut m.hubs[node.index()], &mut m.stats, &mut eff)
        });
        self.run_amu_effects(node, &mut eff, now);
        self.amu_eff_pool.push(eff);
        r
    }

    /// Call one entry point of `node`'s directory with a pooled action
    /// buffer, then execute the actions. The call itself is timed under
    /// `scope`; `None` leaves its time with the caller's scope.
    #[inline(always)]
    fn on_dir<R>(
        &mut self,
        node: NodeId,
        now: Cycle,
        scope: Option<Scope>,
        f: impl FnOnce(&mut Directory, &mut Stats, &mut Vec<DirAction>) -> R,
    ) -> R {
        let mut actions = self.dir_act_pool.pop().unwrap_or_default();
        let call = |m: &mut Self| {
            f(
                &mut m.hubs[node.index()].directory,
                &mut m.stats,
                &mut actions,
            )
        };
        let r = match scope {
            Some(scope) => self.scoped(scope, call),
            None => call(self),
        };
        self.run_dir_actions(node, &mut actions, now);
        self.dir_act_pool.push(actions);
        r
    }

    /// An AMU completion the unit was not waiting for is a bug in the
    /// model, not in the simulated program: abort with a typed error.
    fn amu_protocol(&mut self, node: NodeId, now: Cycle, res: Result<(), AmuError>) {
        if let Err(err) = res {
            self.pending_fault
                .get_or_insert((SimErrorKind::AmuProtocol { node, err }, now));
        }
    }

    fn dispatch_inner(&mut self, ev: Event, now: Cycle) {
        match ev {
            Event::ProcWake(p) => self.on_proc(p, now, |m, eff| {
                m.procs[p.index()].step_into(now, &mut m.stats, eff)
            }),
            Event::ProcHandlerDone(p) => {
                self.on_proc(p, now, |m, eff| {
                    m.procs[p.index()].handler_done_into(now, &mut m.stats, eff)
                });
                // The kernel may have been blocked behind the handler.
                self.queue.schedule(now, Event::ProcWake(p));
            }
            Event::ProcTimeout(p, req, kind) => self.on_proc(p, now, |m, eff| {
                let fired_before = m.stats.e2e_timeouts;
                m.procs[p.index()].timeout_into(req, kind, now, &mut m.stats, eff);
                if T::ENABLED && m.stats.e2e_timeouts > fired_before {
                    let attempt = match kind {
                        TimerKind::E2e { attempt } => attempt as u64,
                        TimerKind::Retry => 0,
                    };
                    m.tracer.record(
                        TraceEvent::instant(TraceKind::E2eTimeout, m.node_of(p).0, now)
                            .on_proc(p.0)
                            .args(p.0 as u64, attempt)
                            .flow(req.flow()),
                    );
                }
            }),
            Event::ProcWordUpdate(p, addr, value) => {
                if T::ENABLED {
                    self.tracer.record(
                        TraceEvent::instant(TraceKind::ProcRecv, self.node_of(p).0, now)
                            .on_proc(p.0)
                            .class(MsgClass::WordUpdate.index()),
                    );
                }
                self.on_proc(p, now, |m, eff| {
                    m.procs[p.index()].word_update_into(addr, value, now, &mut m.stats, eff)
                });
            }
            Event::ToHub(node, id) => {
                let payload = self.unpark(id);
                if T::ENABLED {
                    self.tracer.record(
                        TraceEvent::instant(TraceKind::MsgRecv, node.0, now)
                            .class(payload.class().index())
                            .flow(flow_of(&payload)),
                    );
                }
                self.hub_receive(node, payload, now)
            }
            Event::DirProcess(node, id) => {
                let payload = self.unpark(id);
                self.dir_process(node, payload, now)
            }
            Event::DramDone(node, block) => {
                let words = self.cfg.l2.line_words();
                let data = self.hubs[node.index()].memory.read_block(block, words);
                self.on_dir(
                    node,
                    now,
                    Some(Scope::DirProtocol),
                    |dir, stats, actions| dir.dram_done_into(block, data, stats, actions),
                );
            }
            Event::AmuWake(node) => self.on_amu(node, now, |hub, stats, eff| {
                hub.amu.advance_into(now, stats, eff)
            }),
            Event::AmuMemValue(node, token, addr) => {
                let res = self.on_amu(node, now, |hub, stats, eff| {
                    let value = hub.memory.read_word(addr);
                    hub.amu.mem_value_into(token, value, now, stats, eff)
                });
                self.amu_protocol(node, now, res);
            }
            Event::AmuSend(node, proc, id) => {
                let payload = self.unpark(id);
                self.send_to_proc(node, proc, payload, now);
            }
            Event::ToProc(p, id) => {
                let payload = self.unpark(id);
                if T::ENABLED {
                    self.tracer.record(
                        TraceEvent::instant(TraceKind::ProcRecv, self.node_of(p).0, now)
                            .on_proc(p.0)
                            .class(payload.class().index())
                            .flow(flow_of(&payload)),
                    );
                }
                self.on_proc(p, now, |m, eff| {
                    m.procs[p.index()].handle_into(payload, now, &mut m.stats, eff)
                });
            }
        }
    }

    /// Dispatch one operation to a node's AMU, or NACK it back to the
    /// requester when the unit cannot take it: the dispatch queue is
    /// full, or the node is inside an injected brown-out window. The
    /// requester backs off and resends the same request (same `ReqId`),
    /// so no operation is ever lost — only delayed.
    fn submit_amu(
        &mut self,
        node: NodeId,
        req: ReqId,
        requester: ProcId,
        class: MsgClass,
        op: amo_amu::AmuOp,
        now: Cycle,
    ) {
        let browned = self.faults.brownouts_enabled() && self.faults.amu_browned_out(node.0, now);
        let ok = !browned
            && self.on_amu(node, now, |hub, stats, eff| {
                hub.amu.submit_into(op, now, stats, eff)
            });
        if !ok {
            if browned {
                self.stats.amu_brownout_nacks += 1;
            } else {
                self.stats.amu_nacks += 1;
            }
            if T::ENABLED {
                self.tracer.record(
                    TraceEvent::instant(TraceKind::AmuNack, node.0, now)
                        .args(requester.0 as u64, browned as u64)
                        .flow(req.flow()),
                );
            }
            self.send_to_proc(node, requester, Payload::AmuNack { req, class }, now);
        }
    }

    /// Route a message that just arrived at a hub's network interface.
    fn hub_receive(&mut self, node: NodeId, payload: Payload, now: Cycle) {
        let class = payload.class();
        match payload {
            // Directory-bound traffic goes through the service pipeline.
            Payload::GetS { .. }
            | Payload::GetX { .. }
            | Payload::Upgrade { .. }
            | Payload::Writeback { .. }
            | Payload::InvAck { .. }
            | Payload::InterventionReply { .. } => {
                let occ = Hub::dir_occupancy(&self.cfg);
                let hub = &mut self.hubs[node.index()];
                let start = now.max(hub.dir_free);
                hub.dir_free = start + occ;
                if T::ENABLED {
                    self.tracer.record(
                        TraceEvent::span(TraceKind::DirService, node.0, start, start + occ)
                            .class(payload.class().index())
                            .flow(flow_of(&payload)),
                    );
                }
                self.park(start + occ, payload, |id| Event::DirProcess(node, id));
            }
            // AMU-bound traffic.
            Payload::AmoReq {
                req,
                requester,
                kind,
                addr,
                operand,
                test,
            } => {
                let op = amo_amu::AmuOp::Amo {
                    req,
                    requester,
                    kind,
                    addr,
                    operand,
                    test,
                };
                self.submit_amu(node, req, requester, class, op, now);
            }
            Payload::MaoReq {
                req,
                requester,
                kind,
                addr,
                operand,
            } => {
                let op = amo_amu::AmuOp::Mao {
                    req,
                    requester,
                    kind,
                    addr,
                    operand,
                };
                self.submit_amu(node, req, requester, class, op, now);
            }
            Payload::UncachedRead {
                req,
                requester,
                addr,
            } => {
                let op = amo_amu::AmuOp::UncachedRead {
                    req,
                    requester,
                    addr,
                };
                self.submit_amu(node, req, requester, class, op, now);
            }
            Payload::UncachedWrite {
                req,
                requester,
                addr,
                value,
            } => {
                let op = amo_amu::AmuOp::UncachedWrite {
                    req,
                    requester,
                    addr,
                    value,
                };
                self.submit_amu(node, req, requester, class, op, now);
            }
            // Processor-bound traffic crossing this hub.
            Payload::ActiveMsg { target_proc, .. } => {
                assert_eq!(self.node_of(target_proc), node, "active message misrouted");
                let when = now + self.cfg.bus_latency;
                self.park(when, payload, |id| Event::ToProc(target_proc, id));
            }
            Payload::ActMsgAck { req, .. } => {
                // The ack goes back to whoever allocated the request tag.
                let proc = req.proc();
                assert_eq!(self.node_of(proc), node, "ack misrouted");
                let when = now + self.cfg.bus_latency;
                self.park(when, payload, |id| Event::ToProc(proc, id));
            }
            // Fine-grained update fanout landing on this node.
            Payload::WordUpdate { addr, value } => {
                for p in node.procs(self.cfg.procs_per_node) {
                    self.queue.schedule(
                        now + self.cfg.bus_latency,
                        Event::ProcWordUpdate(p, addr, value),
                    );
                }
            }
            _ => {
                self.pending_fault
                    .get_or_insert((SimErrorKind::UnexpectedPayload { at: "hub", node }, now));
            }
        }
    }

    /// A directory-bound message cleared the occupancy pipeline.
    fn dir_process(&mut self, node: NodeId, payload: Payload, now: Cycle) {
        let expected = self.on_dir(
            node,
            now,
            Some(Scope::DirProtocol),
            |dir, stats, actions| {
                match payload {
                    Payload::GetS {
                        req,
                        requester,
                        block,
                    } => {
                        dir.request_into(block, DirRequest::GetS { req, requester }, stats, actions)
                    }
                    Payload::GetX {
                        req,
                        requester,
                        block,
                    } => {
                        dir.request_into(block, DirRequest::GetX { req, requester }, stats, actions)
                    }
                    Payload::Upgrade {
                        req,
                        requester,
                        block,
                    } => dir.request_into(
                        block,
                        DirRequest::Upgrade { req, requester },
                        stats,
                        actions,
                    ),
                    Payload::Writeback {
                        requester,
                        block,
                        data,
                    } => dir.writeback_into(block, requester, data, stats, actions),
                    Payload::InvAck { block, from } => {
                        dir.inv_ack_into(block, from, stats, actions)
                    }
                    Payload::InterventionReply { block, from, resp } => {
                        dir.intervention_reply_into(block, from, resp, stats, actions)
                    }
                    _ => return false,
                }
                true
            },
        );
        if !expected {
            self.pending_fault.get_or_insert((
                SimErrorKind::UnexpectedPayload {
                    at: "directory",
                    node,
                },
                now,
            ));
        }
    }

    fn run_dir_actions(&mut self, node: NodeId, actions: &mut Vec<DirAction>, now: Cycle) {
        if P::ENABLED {
            self.prof.enter(Scope::DirProtocol);
        }
        for action in actions.drain(..) {
            match action {
                DirAction::ToProc { proc, payload } => {
                    self.send_to_proc(node, proc, payload, now);
                }
                DirAction::WordUpdateToNode {
                    node: dst,
                    addr,
                    value,
                    flow,
                } => {
                    let payload = Payload::WordUpdate { addr, value };
                    self.inject(now, node, dst, payload, None, None, flow);
                }
                DirAction::ReadDram { block } => {
                    let done = self.hubs[node.index()].dram.access(now, block);
                    self.queue.schedule(done, Event::DramDone(node, block));
                }
                DirAction::WriteDramWord { addr, value } => {
                    let hub = &mut self.hubs[node.index()];
                    hub.memory.write_word(addr, value);
                    hub.dram.access(now, addr.block(self.cfg.l2.line_bytes));
                }
                DirAction::WriteDramBlock { block, data } => {
                    let hub = &mut self.hubs[node.index()];
                    hub.memory.write_block(block, &data);
                    hub.dram.access(now, block);
                }
                DirAction::FlushAmu { block } => {
                    let dirty = self.hubs[node.index()].amu.flush_block(block);
                    for (addr, value) in dirty {
                        self.hubs[node.index()].memory.write_word(addr, value);
                    }
                }
                DirAction::FineValue { token, addr, value } => {
                    let res = self.on_amu(node, now, |hub, stats, eff| {
                        hub.amu.fine_value_into(token, addr, value, now, stats, eff)
                    });
                    self.amu_protocol(node, now, res);
                }
            }
        }
        if P::ENABLED {
            self.prof.exit(Scope::DirProtocol);
        }
    }

    fn run_amu_effects(&mut self, node: NodeId, effects: &mut Vec<AmuEffect>, now: Cycle) {
        if P::ENABLED {
            self.prof.enter(Scope::AmuExec);
        }
        // Directory calls made from here are the AMU's fine-grained
        // accesses: their time stays in `AmuExec`, not `DirProtocol`.
        for eff in effects.drain(..) {
            match eff {
                AmuEffect::ReplyAt {
                    when,
                    proc,
                    payload,
                } => {
                    if T::ENABLED {
                        let depth = self.hubs[node.index()].amu.queue_len() as u64;
                        self.tracer.record(
                            TraceEvent::span(TraceKind::AmuOp, node.0, now, when)
                                .on_proc(proc.0)
                                .class(payload.class().index())
                                .args(depth, 0)
                                .flow(flow_of(&payload)),
                        );
                    }
                    self.park(when, payload, |id| Event::AmuSend(node, proc, id));
                }
                AmuEffect::FineGet { token, addr, .. } => {
                    let block = addr.block(self.cfg.l2.line_bytes);
                    self.on_dir(node, now, None, |dir, stats, actions| {
                        dir.request_into(block, DirRequest::FineGet { token, addr }, stats, actions)
                    });
                }
                AmuEffect::FinePut { addr, value, flow } => {
                    let block = addr.block(self.cfg.l2.line_bytes);
                    let put = DirRequest::FinePut { addr, value, flow };
                    self.on_dir(node, now, None, |dir, stats, actions| {
                        dir.request_into(block, put, stats, actions)
                    });
                }
                AmuEffect::FineComplete { block, put, flow } => {
                    self.on_dir(node, now, None, |dir, stats, actions| {
                        dir.fine_complete_into(block, put, flow, stats, actions)
                    });
                }
                AmuEffect::ReadMemWord { token, addr } => {
                    let done = self.hubs[node.index()]
                        .dram
                        .access(now, addr.block(self.cfg.l2.line_bytes));
                    self.queue
                        .schedule(done, Event::AmuMemValue(node, token, addr));
                }
                AmuEffect::WriteMemWord { addr, value } => {
                    let hub = &mut self.hubs[node.index()];
                    hub.memory.write_word(addr, value);
                    hub.dram.access(now, addr.block(self.cfg.l2.line_bytes));
                }
                AmuEffect::WakeAt { when } => {
                    self.queue.schedule(when, Event::AmuWake(node));
                }
            }
        }
        if P::ENABLED {
            self.prof.exit(Scope::AmuExec);
        }
    }

    /// The one way onto the fabric: send `payload` from `src`'s hub at
    /// cycle `at` to `dst`, where it is handed to processor `to` across
    /// the bus or, with no `to`, to the hub itself. Times the transfer,
    /// traces it (on `sender`'s track when a processor sent it) and
    /// schedules the one, zero or two arrivals the delivery-fault layer
    /// decides on.
    #[allow(clippy::too_many_arguments)]
    fn inject(
        &mut self,
        at: Cycle,
        src: NodeId,
        dst: NodeId,
        payload: Payload,
        sender: Option<ProcId>,
        to: Option<ProcId>,
        flow: u64,
    ) {
        let far_end = match sender.or(to) {
            Some(_) => MsgEndpoint::Proc,
            None => MsgEndpoint::Hub,
        };
        let retx_before = (
            self.stats.link_retransmissions,
            self.stats.link_replay_cycles,
        );
        let delivery = self.scoped(Scope::NocSend, |m| {
            m.fabric
                .send_delivery(at, src, dst, &payload, far_end, &mut m.stats)
        });
        let class = payload.class().index();
        if T::ENABLED {
            // Link replays the send consumed, by the counter delta.
            let retx = self.stats.link_retransmissions - retx_before.0;
            if retx > 0 {
                let cycles = self.stats.link_replay_cycles - retx_before.1;
                self.tracer.record(
                    TraceEvent::instant(TraceKind::LinkRetry, src.0, at).args(retx, cycles),
                );
            }
            let bytes = payload.size_bytes(&self.cfg.network);
            let mut span = TraceEvent::span(TraceKind::MsgSend, src.0, at, delivery.primary())
                .class(class)
                .args(dst.0 as u64, self.fabric.zero_load_latency(src, dst, bytes))
                .flow(flow);
            if let Some(p) = sender {
                span = span
                    .on_proc(p.0)
                    .parent(self.procs[p.index()].flow_parent(&payload));
            }
            self.tracer.record(span);
        }
        let arrive = |m: &mut Self, when: Cycle, payload: Payload| match to {
            Some(p) => m.park(when + m.cfg.bus_latency, payload, |id| Event::ToProc(p, id)),
            None => m.park(when, payload, |id| Event::ToHub(dst, id)),
        };
        let fault = |kind: TraceKind, when: Cycle| {
            TraceEvent::instant(kind, dst.0, when)
                .class(class)
                .args(src.0 as u64, 0)
                .flow(flow)
        };
        match delivery {
            Delivery::One(when) => arrive(self, when, payload),
            Delivery::Dropped(when) => {
                if T::ENABLED {
                    self.tracer.record(fault(TraceKind::MsgDrop, when));
                }
            }
            Delivery::Dup(first, second) => {
                if T::ENABLED {
                    self.tracer.record(fault(TraceKind::MsgDup, second));
                }
                arrive(self, first, payload.clone());
                arrive(self, second, payload);
            }
        }
    }

    /// Send a hub-originated message to a processor: fabric to its node,
    /// then the bus.
    fn send_to_proc(&mut self, from: NodeId, proc: ProcId, payload: Payload, now: Cycle) {
        let flow = flow_of(&payload);
        self.inject(
            now,
            from,
            self.node_of(proc),
            payload,
            None,
            Some(proc),
            flow,
        );
    }

    fn run_proc_effects(&mut self, p: ProcId, effects: &mut Vec<ProcEffect>, now: Cycle) {
        let src = self.node_of(p);
        for eff in effects.drain(..) {
            match eff {
                ProcEffect::Send { dst, payload } => {
                    // The message crosses the sender's bus first.
                    let (at, flow) = (now + self.cfg.bus_latency, flow_of(&payload));
                    self.inject(at, src, dst, payload, Some(p), None, flow);
                }
                ProcEffect::Wake { when } => {
                    self.queue.schedule(when, Event::ProcWake(p));
                }
                ProcEffect::HandlerWake { when } => {
                    self.queue.schedule(when, Event::ProcHandlerDone(p));
                }
                ProcEffect::TimeoutAt { req, when, kind } => {
                    self.queue.schedule(when, Event::ProcTimeout(p, req, kind));
                }
                ProcEffect::Finished { when } => {
                    if T::ENABLED {
                        self.tracer.record(
                            TraceEvent::instant(TraceKind::KernelDone, src.0, when).on_proc(p.0),
                        );
                    }
                }
                ProcEffect::Mark { id, when } => {
                    if T::ENABLED {
                        self.tracer.record(
                            TraceEvent::instant(TraceKind::Mark, src.0, when)
                                .on_proc(p.0)
                                .args(id as u64, 0),
                        );
                    }
                    self.marks.push((p, id, when));
                }
                ProcEffect::Defer { payload, when } => {
                    self.park(when, payload, |id| Event::ToProc(p, id));
                }
                ProcEffect::Fault { kind, when } => {
                    let kind = match kind {
                        ProcFault::ActMsgStarved { attempts } => {
                            SimErrorKind::ActMsgStarved { proc: p, attempts }
                        }
                        ProcFault::AmuStarved { attempts } => {
                            SimErrorKind::AmuStarved { proc: p, attempts }
                        }
                        ProcFault::RequestTimedOut { attempts, .. } => {
                            SimErrorKind::RequestTimedOut { proc: p, attempts }
                        }
                    };
                    self.pending_fault.get_or_insert((kind, when));
                }
                ProcEffect::OpDone {
                    class,
                    start,
                    end,
                    flow,
                } => {
                    // Only emitted when op tracing is on (see
                    // `with_tracer`), but keep the arm unconditional so
                    // the match stays exhaustive.
                    if T::ENABLED {
                        self.tracer.record(
                            TraceEvent::span(TraceKind::OpComplete, src.0, start, end)
                                .on_proc(p.0)
                                .class(class.index())
                                .flow(flow),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_cpu::{Op, Outcome};
    use amo_types::{AmoKind, SpinPred};

    fn var(node: u16, off: u64) -> Addr {
        Addr::on_node(NodeId(node), off)
    }

    /// Simple scripted kernel: runs a fixed list of ops, records outcomes.
    struct Script {
        ops: Vec<Op>,
        at: usize,
        outcomes: std::rc::Rc<std::cell::RefCell<Vec<Outcome>>>,
    }

    impl Script {
        fn new(ops: Vec<Op>) -> (Self, std::rc::Rc<std::cell::RefCell<Vec<Outcome>>>) {
            let outcomes = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            (
                Script {
                    ops,
                    at: 0,
                    outcomes: outcomes.clone(),
                },
                outcomes,
            )
        }
    }

    impl Kernel for Script {
        fn next(&mut self, last: Option<Outcome>) -> Op {
            if let Some(o) = last {
                self.outcomes.borrow_mut().push(o);
            }
            let op = self.ops.get(self.at).copied().unwrap_or(Op::Done);
            self.at += 1;
            op
        }
    }

    #[test]
    fn traced_run_records_events_and_samples() {
        use amo_obs::{RingTracer, TraceKind};
        let mut m = Machine::with_tracer(
            SystemConfig::with_procs(4),
            QueueKind::Calendar,
            RingTracer::new(1 << 16),
        );
        m.enable_sampling(100);
        let a = var(1, 0x100);
        let (w, _) = Script::new(vec![Op::Store { addr: a, value: 7 }]);
        m.install_kernel(ProcId(0), Box::new(w), 0);
        let (r, _) = Script::new(vec![Op::Delay { cycles: 2_000 }, Op::Load { addr: a }]);
        m.install_kernel(ProcId(3), Box::new(r), 0);
        let res = m.run(1_000_000);
        assert!(res.all_finished);
        let buf = m.take_trace_buf().expect("ring tracer keeps a buffer");
        assert_eq!(buf.dropped, 0);
        let kinds: Vec<TraceKind> = buf.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TraceKind::MsgSend));
        assert!(kinds.contains(&TraceKind::MsgRecv));
        assert!(kinds.contains(&TraceKind::DirService));
        assert!(kinds.contains(&TraceKind::DirTxnEnd));
        assert!(kinds.contains(&TraceKind::OpComplete));
        assert!(kinds.contains(&TraceKind::KernelDone));
        let ts = m.take_timeseries().expect("sampling was enabled");
        assert!(!ts.ticks.is_empty());
        assert!(ts.ticks.windows(2).all(|w| w[0].when < w[1].when));
    }

    #[test]
    fn traced_and_plain_runs_produce_identical_stats() {
        use amo_obs::RingTracer;
        fn drive<T: amo_obs::Tracer>(mut m: Machine<T>) -> (Cycle, String) {
            for p in 0..8u16 {
                let a = var(p % 2, 0x40 * (p as u64 + 1));
                let (k, _) = Script::new(vec![
                    Op::Store {
                        addr: a,
                        value: p as u64,
                    };
                    3
                ]);
                m.install_kernel(ProcId(p), Box::new(k), 0);
            }
            let res = m.run(1_000_000);
            assert!(res.all_finished);
            (res.end, format!("{:?}", m.stats()))
        }
        let plain = drive(Machine::new(SystemConfig::with_procs(8)));
        let traced = drive(Machine::with_tracer(
            SystemConfig::with_procs(8),
            QueueKind::Calendar,
            RingTracer::new(1 << 12),
        ));
        assert_eq!(plain, traced, "tracing must not perturb timing");
    }

    #[test]
    fn every_message_is_sent_and_traced_once() {
        use amo_obs::RingTracer;
        // One delivery in five of the faultable classes arrives twice.
        let mut cfg = SystemConfig::with_procs(8);
        cfg.faults.link_dup_ppm = 200_000;
        let mut m = Machine::with_tracer(cfg, QueueKind::Calendar, RingTracer::new(1 << 16));
        // Four AMO barrier episodes, each on its own counter: amo.inc
        // with the delayed put at 8, then spin on the pushed update.
        let counters = [0x300, 0x380, 0x400, 0x480].map(|off| var(0, off));
        for p in 0..8u16 {
            let ops = counters.iter().flat_map(|&addr| {
                [
                    Op::Amo {
                        kind: AmoKind::Inc,
                        addr,
                        operand: 0,
                        test: Some(8),
                    },
                    Op::SpinUntil {
                        addr,
                        pred: SpinPred::Eq(8),
                    },
                ]
            });
            let (k, _) = Script::new(ops.collect());
            m.install_kernel(ProcId(p), Box::new(k), (p as u64) * 50);
        }
        let res = m.run(10_000_000);
        assert!(res.all_finished && res.error.is_none(), "{:?}", res.error);
        for ctr in counters {
            assert_eq!(m.memory(NodeId(0)).read_word(ctr), 8, "barrier count");
        }
        assert_eq!(m.stats().amo_ops, 32, "a duplicate must not apply twice");
        // Every send went through the one `inject`: one span per message
        // the fabric counted, in every class.
        let buf = m.take_trace_buf().expect("ring tracer keeps a buffer");
        assert_eq!(buf.dropped, 0);
        let of_kind = |kind: TraceKind| buf.events.iter().filter(move |e| e.kind == kind);
        for class in amo_types::stats::ALL_MSG_CLASSES {
            let spans = of_kind(TraceKind::MsgSend)
                .filter(|e| e.class as usize == class.index())
                .count() as u64;
            assert_eq!(spans, m.stats().msgs[class.index()], "{class:?}");
        }
        assert_eq!(
            of_kind(TraceKind::MsgSend).count() as u64,
            m.stats().total_msgs()
        );
        // Only the AMO request/reply channel is duplicated; word updates
        // and coherence traffic share the path and are never touched.
        assert!(m.stats().msgs_duplicated > 0);
        assert_eq!(
            of_kind(TraceKind::MsgDup).count() as u64,
            m.stats().msgs_duplicated
        );
        assert!(of_kind(TraceKind::MsgDup).all(|e| e.class as usize == MsgClass::Amo.index()));
        for class in [MsgClass::WordUpdate, MsgClass::Request, MsgClass::Data] {
            assert!(m.stats().msgs[class.index()] > 0, "{class:?} never sent");
        }
    }

    #[test]
    fn dispatch_scope_names_match_event_names() {
        // The hostprof dispatch scopes are declared in amo-obs, blind to
        // this crate's private Event enum; this pins the correspondence
        // (count, order, and names) so neither side can drift.
        assert_eq!(amo_obs::hostprof::DISPATCH_SCOPES, Event::COUNT);
        for (i, name) in Event::NAMES.iter().enumerate() {
            assert_eq!(
                Scope::dispatch(i).name(),
                format!("dispatch:{name}"),
                "dispatch scope {i} does not match event variant {name}"
            );
        }
    }

    #[test]
    fn profiled_and_plain_runs_produce_identical_machines() {
        use amo_obs::hostprof::HostProfiler;
        fn drive<P: HostProf>(
            mut m: Machine<NopTracer, P>,
        ) -> (Cycle, u64, String, Machine<NopTracer, P>) {
            for p in 0..8u16 {
                let a = var(p % 2, 0x40 * (p as u64 + 1));
                let (k, _) = Script::new(vec![
                    Op::AtomicRmw {
                        kind: AmoKind::FetchAdd,
                        addr: a,
                        operand: 1,
                    };
                    3
                ]);
                m.install_kernel(ProcId(p), Box::new(k), 0);
            }
            let res = m.run(1_000_000);
            assert!(res.all_finished);
            let stats = format!("{:?}", m.stats());
            (res.end, res.events, stats, m)
        }
        let (pe, pn, ps, _) = drive(Machine::new(SystemConfig::with_procs(8)));
        let (qe, qn, qs, mut m) = drive(Machine::with_parts(
            SystemConfig::with_procs(8),
            QueueKind::Calendar,
            NopTracer,
            HostProfiler::new(),
        ));
        assert_eq!((pe, pn, ps), (qe, qn, qs), "profiling must be passive");
        let report = m.take_hostprof().expect("profiler keeps a report");
        // Every dispatched event was wrapped in exactly one dispatch
        // scope entry.
        let dispatch_count: u64 = report
            .scopes
            .iter()
            .filter(|s| s.scope.is_dispatch())
            .map(|s| s.count)
            .sum();
        assert_eq!(dispatch_count, qn, "one dispatch scope entry per event");
        // The run scope is the single root, and self-times telescope to
        // the profiled wall-clock within rounding.
        let run = report
            .scopes
            .iter()
            .find(|s| s.scope == Scope::Run)
            .expect("run scope present");
        assert_eq!(run.count, 1);
        assert_eq!(report.wall_ns, run.total_ns);
        let self_sum: u64 = report
            .scopes
            .iter()
            .map(amo_obs::hostprof::ScopeReport::self_ns)
            .sum();
        let tolerance = (report.wall_ns / 1000).max(10_000);
        assert!(
            self_sum.abs_diff(report.wall_ns) <= tolerance,
            "self-time sum {self_sum} vs wall {}",
            report.wall_ns
        );
    }

    #[test]
    fn store_then_remote_load_sees_value() {
        let mut m = Machine::new(SystemConfig::with_procs(4));
        let a = var(1, 0x100);
        let (w, _) = Script::new(vec![Op::Store { addr: a, value: 42 }]);
        m.install_kernel(ProcId(0), Box::new(w), 0);
        let (r, out) = Script::new(vec![Op::Delay { cycles: 5_000 }, Op::Load { addr: a }]);
        m.install_kernel(ProcId(3), Box::new(r), 0);
        let res = m.run(1_000_000);
        assert!(res.all_finished, "finished: {:?}", res.finished);
        assert_eq!(out.borrow()[1], Outcome::Value(42));
        // The store's dirty block is fetched from P0 via an intervention.
        assert_eq!(m.stats().interventions_sent, 1);
    }

    #[test]
    fn two_writers_serialize_through_home() {
        let mut m = Machine::new(SystemConfig::with_procs(4));
        let a = var(0, 0x100);
        for p in [0u16, 1, 2, 3] {
            let (k, _) = Script::new(vec![Op::AtomicRmw {
                kind: AmoKind::FetchAdd,
                addr: a,
                operand: 1,
            }]);
            m.install_kernel(ProcId(p), Box::new(k), 0);
        }
        let res = m.run(1_000_000);
        assert!(res.all_finished);
        // All four increments are visible in home memory after the dust
        // settles? The final value lives in the last owner's cache; memory
        // holds the value as of the last ownership transfer (3 increments).
        // Force visibility through stats instead: four atomic ops ran.
        assert_eq!(m.stats().atomic_ops, 4);
    }

    #[test]
    fn spin_wakes_via_invalidate_and_reload() {
        let mut m = Machine::new(SystemConfig::with_procs(4));
        let flag = var(0, 0x200);
        let (spinner, out) = Script::new(vec![Op::SpinUntil {
            addr: flag,
            pred: SpinPred::Eq(1),
        }]);
        m.install_kernel(ProcId(2), Box::new(spinner), 0);
        let (setter, _) = Script::new(vec![
            Op::Delay { cycles: 10_000 },
            Op::Store {
                addr: flag,
                value: 1,
            },
        ]);
        m.install_kernel(ProcId(1), Box::new(setter), 0);
        let res = m.run(1_000_000);
        assert!(res.all_finished);
        assert_eq!(out.borrow()[0], Outcome::SpinDone(1));
        assert!(
            m.stats().spin_reloads >= 1,
            "spinner reloaded after invalidation"
        );
        assert!(m.stats().invalidations_sent >= 1);
    }

    #[test]
    fn amo_inc_counts_all_processors_and_pushes_update() {
        let cfg = SystemConfig::with_procs(4);
        let mut m = Machine::new(cfg);
        let ctr = var(0, 0x300);
        for p in 0..4u16 {
            // Every processor: amo.inc with test 4, then spin on the
            // counter — the naive AMO barrier (paper Fig. 3(c)).
            let (k, _) = Script::new(vec![
                Op::Amo {
                    kind: AmoKind::Inc,
                    addr: ctr,
                    operand: 0,
                    test: Some(4),
                },
                Op::SpinUntil {
                    addr: ctr,
                    pred: SpinPred::Eq(4),
                },
            ]);
            m.install_kernel(ProcId(p), Box::new(k), (p as u64) * 50);
        }
        let res = m.run(2_000_000);
        assert!(res.all_finished, "finished: {:?}", res.finished);
        assert_eq!(m.stats().amo_ops, 4);
        assert_eq!(m.stats().puts, 1, "exactly one delayed put at count 4");
        assert_eq!(m.memory(NodeId(0)).read_word(ctr), 4);
        // No invalidation storm: the AMO path never invalidates spinners.
        assert_eq!(m.stats().invalidations_sent, 0);
    }

    #[test]
    fn mao_fetchadd_accumulates_in_memory() {
        let mut m = Machine::new(SystemConfig::with_procs(4));
        let ctr = var(1, 0x400);
        for p in 0..4u16 {
            let (k, _) = Script::new(vec![Op::Mao {
                kind: AmoKind::FetchAdd,
                addr: ctr,
                operand: 10,
            }]);
            m.install_kernel(ProcId(p), Box::new(k), 0);
        }
        let res = m.run(1_000_000);
        assert!(res.all_finished);
        assert_eq!(m.memory(NodeId(1)).read_word(ctr), 40);
        assert_eq!(m.stats().mao_ops, 4);
    }

    #[test]
    fn active_message_barrier_publish_wakes_spinners() {
        let cfg = SystemConfig::with_procs(4);
        let mut m = Machine::new(cfg);
        let home = NodeId(0);
        let spin = var(0, 0x500);
        for p in 0..4u16 {
            let (k, _) = Script::new(vec![
                Op::ActiveMsg {
                    home,
                    handler: amo_types::HandlerKind::FetchAdd {
                        ctr: 0,
                        operand: 1,
                        publish: Some(amo_types::Publish {
                            addr: spin,
                            when_count: Some(4),
                            value: Some(1),
                            reset: true,
                        }),
                    },
                },
                Op::SpinUntil {
                    addr: spin,
                    pred: SpinPred::Eq(1),
                },
            ]);
            m.install_kernel(ProcId(p), Box::new(k), (p as u64) * 100);
        }
        let res = m.run(5_000_000);
        assert!(res.all_finished, "finished: {:?}", res.finished);
        assert_eq!(m.stats().handlers_run, 4);
        // The publish value reaches home memory via the spinners'
        // intervention-triggered writeback of P0's dirty line.
        assert_eq!(m.memory(home).read_word(spin), 1);
    }

    #[test]
    fn marks_record_timestamps() {
        let mut m = Machine::new(SystemConfig::with_procs(4));
        let (k, _) = Script::new(vec![
            Op::Mark { id: 7 },
            Op::Delay { cycles: 100 },
            Op::Mark { id: 8 },
        ]);
        m.install_kernel(ProcId(0), Box::new(k), 50);
        let res = m.run(10_000);
        assert!(res.all_finished);
        let marks = m.marks();
        assert_eq!(marks.len(), 2);
        assert_eq!(marks[0], (ProcId(0), 7, 50));
        assert_eq!(marks[1].1, 8);
        assert_eq!(marks[1].2, 150);
    }

    #[test]
    fn stall_report_names_stuck_processors() {
        let mut m = Machine::new(SystemConfig::with_procs(4));
        // A spinner nobody will ever wake.
        let (k, _) = Script::new(vec![Op::SpinUntil {
            addr: var(0, 0x100),
            pred: SpinPred::Eq(1),
        }]);
        m.install_kernel(ProcId(2), Box::new(k), 0);
        let res = m.run(1_000_000);
        assert!(!res.all_finished);
        let report = m.stall_report();
        assert!(report.contains("P2"), "{report}");
        assert!(report.contains("Spinning"), "{report}");
        // A finished machine reports cleanly.
        let mut m2 = Machine::new(SystemConfig::with_procs(4));
        let (k, _) = Script::new(vec![Op::Delay { cycles: 5 }]);
        m2.install_kernel(ProcId(0), Box::new(k), 0);
        assert!(m2.run(1_000).all_finished);
        assert!(m2.stall_report().contains("all kernels finished"));
    }

    #[test]
    fn init_word_preloads_memory() {
        let mut m = Machine::new(SystemConfig::with_procs(4));
        let a = var(1, 0x800);
        m.init_word(a, 99);
        let (k, out) = Script::new(vec![Op::Load { addr: a }]);
        m.install_kernel(ProcId(0), Box::new(k), 0);
        assert!(m.run(1_000_000).all_finished);
        assert_eq!(out.borrow()[0], Outcome::Value(99));
    }

    #[test]
    fn event_histogram_accounts_every_event() {
        let mut m = Machine::new(SystemConfig::with_procs(4));
        let (k, _) = Script::new(vec![
            Op::Load {
                addr: var(1, 0x100),
            },
            Op::Amo {
                kind: AmoKind::Inc,
                addr: var(0, 0x200),
                operand: 0,
                test: None,
            },
        ]);
        m.install_kernel(ProcId(0), Box::new(k), 0);
        let res = m.run(1_000_000);
        assert!(res.all_finished);
        let total: u64 = m.event_histogram().iter().map(|&(_, n)| n).sum();
        assert_eq!(total, res.events);
        let hist = m.event_histogram();
        let get = |name: &str| hist.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(get("ToProc") >= 2, "a data reply and an AMO reply arrived");
        assert!(get("DramDone") >= 1);
        assert!(get("AmuWake") >= 1);
    }

    #[test]
    fn uncached_ops_roundtrip_through_home_memory() {
        let mut m = Machine::new(SystemConfig::with_procs(4));
        let a = var(1, 0x8000_0000);
        let (w, _) = Script::new(vec![Op::UncachedStore { addr: a, value: 5 }]);
        let (r, out) = Script::new(vec![
            Op::Delay { cycles: 5_000 },
            Op::UncachedLoad { addr: a },
        ]);
        m.install_kernel(ProcId(0), Box::new(w), 0);
        m.install_kernel(ProcId(2), Box::new(r), 0);
        assert!(m.run(1_000_000).all_finished);
        assert_eq!(out.borrow()[1], Outcome::Value(5));
        assert_eq!(m.memory(NodeId(1)).read_word(a), 5);
    }

    #[test]
    fn probe_inside_residence_window_is_deferred_not_lost() {
        // Two writers fight over one word; the minimum-residence deferral
        // must delay interventions, never drop them: both finish and both
        // increments land.
        let mut m = Machine::new(SystemConfig::with_procs(4));
        let a = var(0, 0x700);
        for p in [0u16, 1] {
            let (k, _) = Script::new(vec![
                Op::AtomicRmw {
                    kind: AmoKind::FetchAdd,
                    addr: a,
                    operand: 1,
                },
                Op::AtomicRmw {
                    kind: AmoKind::FetchAdd,
                    addr: a,
                    operand: 1,
                },
            ]);
            m.install_kernel(ProcId(p), Box::new(k), 0);
        }
        let res = m.run(1_000_000);
        assert!(res.all_finished);
        // Flush the final owner's dirty line by reading with a third
        // processor through an atomic (exclusive grant).
        let (k, out) = Script::new(vec![Op::AtomicRmw {
            kind: AmoKind::FetchAdd,
            addr: a,
            operand: 0,
        }]);
        m.install_kernel(ProcId(3), Box::new(k), res.end + 1);
        assert!(m.run(2_000_000).all_finished);
        assert_eq!(out.borrow()[0], Outcome::Value(4), "no increment lost");
    }

    #[test]
    fn op_latencies_are_recorded() {
        use amo_types::stats::OpClass;
        let mut m = Machine::new(SystemConfig::with_procs(4));
        let a = var(1, 0x900);
        let (k, _) = Script::new(vec![
            Op::Load { addr: a },
            Op::Amo {
                kind: AmoKind::Inc,
                addr: a,
                operand: 0,
                test: None,
            },
            Op::Delay { cycles: 100 },
        ]);
        m.install_kernel(ProcId(0), Box::new(k), 0);
        assert!(m.run(1_000_000).all_finished);
        let s = m.stats();
        assert_eq!(s.op_lat_cnt[OpClass::Load.index()], 1);
        assert_eq!(s.op_lat_cnt[OpClass::Amo.index()], 1);
        assert_eq!(s.op_lat_cnt[OpClass::Atomic.index()], 0);
        // A remote load miss costs hundreds of cycles; the recorded mean
        // must be in that range, and delays are not recorded.
        let load = s.mean_op_latency(OpClass::Load).unwrap();
        assert!(load > 100.0 && load < 2_000.0, "load latency {load}");
        assert!(s.mean_op_latency(OpClass::Spin).is_none());
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut m = Machine::new(SystemConfig::with_procs(8));
            let a = var(0, 0x600);
            for p in 0..8u16 {
                let (k, _) = Script::new(vec![
                    Op::AtomicRmw {
                        kind: AmoKind::FetchAdd,
                        addr: a,
                        operand: 1,
                    },
                    Op::Amo {
                        kind: AmoKind::Inc,
                        addr: var(1, 0x700),
                        operand: 0,
                        test: None,
                    },
                ]);
                m.install_kernel(ProcId(p), Box::new(k), (p as u64) * 13);
            }
            let res = m.run(10_000_000);
            assert!(res.all_finished);
            (
                res.last_finish(),
                m.stats().total_msgs(),
                m.stats().byte_hops,
            )
        };
        assert_eq!(run(), run());
    }

    /// Every processor fires `rounds` back-to-back MAO fetch-adds at one
    /// home counter: sustained AMU traffic, so queue overflow, link
    /// errors, and brown-out windows all get plenty of chances to bite.
    fn hammer_amo(cfg: SystemConfig, procs: u16, rounds: usize) -> (Machine, RunResult) {
        let mut m = Machine::new(cfg);
        let ctr = var(0, 0x300);
        for p in 0..procs {
            let (k, _) = Script::new(vec![
                Op::Mao {
                    kind: AmoKind::FetchAdd,
                    addr: ctr,
                    operand: 1,
                };
                rounds
            ]);
            m.install_kernel(ProcId(p), Box::new(k), (p as u64) * 31);
        }
        let res = m.run(100_000_000);
        (m, res)
    }

    #[test]
    fn zero_rate_fault_plan_is_timing_identical() {
        // A fault config with a seed but every rate at zero must not
        // perturb a single cycle or counter relative to the unfaulted
        // engine.
        let drive = |cfg: SystemConfig| {
            let (m, res) = hammer_amo(cfg, 8, 6);
            assert!(res.all_finished);
            assert!(res.error.is_none());
            (res.end, res.finished, m.stats().to_json())
        };
        let plain = drive(SystemConfig::with_procs(8));
        let mut cfg = SystemConfig::with_procs(8);
        cfg.faults.seed = 0xDEAD_BEEF;
        let zeroed = drive(cfg);
        assert_eq!(plain, zeroed, "zero-rate fault plan perturbed the run");
    }

    #[test]
    fn faulty_links_retry_and_complete() {
        let mut cfg = SystemConfig::with_procs(8);
        cfg.faults.link_error_ppm = 100_000; // 10% per traversal
        cfg.faults.jitter_max = 8;
        cfg.faults.seed = 7;
        let (m, res) = hammer_amo(cfg, 8, 6);
        assert!(res.all_finished, "faulty run must still complete");
        assert!(res.error.is_none());
        let s = m.stats();
        assert!(s.link_crc_errors > 0, "2% over a barrier hits some sends");
        assert_eq!(s.link_crc_errors, s.link_retransmissions);
        assert!(s.link_jitter_cycles > 0);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let drive = || {
            let mut cfg = SystemConfig::with_procs(8);
            cfg.faults.link_error_ppm = 100_000;
            cfg.faults.jitter_max = 16;
            cfg.faults.seed = 99;
            cfg.faults.amu_brownout_period = 2_000;
            cfg.faults.amu_brownout_len = 400;
            let (m, res) = hammer_amo(cfg, 8, 6);
            assert!(res.all_finished);
            (res.end, res.finished, m.stats().to_json())
        };
        assert_eq!(drive(), drive(), "same fault seed must replay exactly");
    }

    #[test]
    fn amu_queue_overflow_nacks_and_recovers() {
        // One-deep dispatch queue and eight contenders: overflow NACKs
        // must delay, never lose, requests — and every NACK must be
        // matched by a recorded retry.
        let mut cfg = SystemConfig::with_procs(8);
        cfg.amu.queue_cap = 1;
        let (m, res) = hammer_amo(cfg, 8, 4);
        assert!(res.all_finished, "NACK/backoff must recover");
        assert!(res.error.is_none());
        let s = m.stats();
        assert!(s.amu_nacks > 0, "a 1-deep queue under 8 procs overflows");
        assert_eq!(s.amu_nack_retries, s.amu_nacks + s.amu_brownout_nacks);
        assert_eq!(m.memory(NodeId(0)).read_word(var(0, 0x300)), 32);
    }

    #[test]
    fn amu_brownouts_nack_and_recover() {
        let mut cfg = SystemConfig::with_procs(8);
        cfg.faults.amu_brownout_period = 1_000;
        cfg.faults.amu_brownout_len = 300;
        cfg.faults.seed = 3;
        let (m, res) = hammer_amo(cfg, 8, 20);
        assert!(res.all_finished, "brown-outs must only delay the run");
        let s = m.stats();
        assert!(s.amu_brownout_nacks > 0, "quarter-duty brown-out hits");
        assert_eq!(s.amu_nack_retries, s.amu_nacks + s.amu_brownout_nacks);
    }

    #[test]
    fn exhausted_link_budget_is_a_typed_error() {
        let mut cfg = SystemConfig::with_procs(4);
        cfg.faults.link_error_ppm = 1_000_000; // every traversal corrupts
        cfg.faults.max_link_retries = 2;
        let mut m = Machine::new(cfg);
        let (k, _) = Script::new(vec![Op::Store {
            addr: var(1, 0x100),
            value: 1,
        }]);
        m.install_kernel(ProcId(0), Box::new(k), 0);
        let err = m.run(1_000_000).error.expect("typed abort");
        assert!(
            matches!(err.kind, SimErrorKind::LinkFailed { attempts: 2, .. }),
            "{err}"
        );
        assert!(!err.bundle.stall_report.is_empty());
        assert_eq!(err.bundle.queue_depths.len(), 2);
    }

    #[test]
    fn watchdog_flags_livelock_as_no_progress() {
        // Events keep flowing (a delay chain) but nothing ever retires:
        // the watchdog must convert the spin into a typed error instead
        // of burning cycles to the limit.
        let mut m = Machine::new(SystemConfig::with_procs(4));
        m.enable_watchdog(50_000);
        let (k, _) = Script::new(vec![Op::Delay { cycles: 10_000 }; 100]);
        m.install_kernel(ProcId(0), Box::new(k), 0);
        let res = m.run(100_000_000);
        let err = res.error.expect("watchdog must trip");
        assert!(
            matches!(err.kind, SimErrorKind::NoProgress { window: 50_000, .. }),
            "{err}"
        );
        assert!(
            err.bundle.stall_report.contains("P0"),
            "{}",
            err.bundle.stall_report
        );
        assert!(err.bundle.events_processed > 0);
    }

    #[test]
    fn watchdog_flags_drained_queue_as_deadlock() {
        // A spinner nobody wakes: the queue drains with the kernel
        // unfinished. Without the watchdog that is a quiet non-finish;
        // with it, a typed deadlock report.
        let mut m = Machine::new(SystemConfig::with_procs(4));
        m.enable_watchdog(1_000_000);
        let (k, _) = Script::new(vec![Op::SpinUntil {
            addr: var(0, 0x100),
            pred: SpinPred::Eq(1),
        }]);
        m.install_kernel(ProcId(2), Box::new(k), 0);
        let err = m.run(10_000_000).error.expect("typed abort");
        assert!(
            matches!(err.kind, SimErrorKind::Deadlock { unfinished: 1 }),
            "{err}"
        );
        assert!(err.bundle.stall_report.contains("Spinning"));
    }

    #[test]
    fn traced_abort_attaches_ring_tail() {
        use amo_obs::RingTracer;
        let mut cfg = SystemConfig::with_procs(4);
        cfg.faults.link_error_ppm = 1_000_000;
        cfg.faults.max_link_retries = 1;
        let mut m = Machine::with_tracer(cfg, QueueKind::Calendar, RingTracer::new(256));
        let (k, _) = Script::new(vec![Op::Store {
            addr: var(1, 0x100),
            value: 1,
        }]);
        m.install_kernel(ProcId(0), Box::new(k), 0);
        let err = m.run(1_000_000).error.expect("typed abort");
        let buf = err.bundle.trace.as_ref().expect("ring tail attached");
        assert!(buf.events.iter().any(|e| e.kind == TraceKind::Fault));
        assert!(buf.events.iter().any(|e| e.kind == TraceKind::LinkRetry));
    }

    /// How a differential run drives the machine.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Drive {
        /// One `run` to completion.
        Whole,
        /// A `run(until)` call every 997 cycles, so queued events and
        /// their parked payloads carry over from one call to the next.
        Sliced,
    }

    /// What a queue, dispatch or run-loop change must not move.
    #[derive(Debug)]
    struct Fingerprint {
        finished: Vec<Option<Cycle>>,
        end: Cycle,
        events: u64,
        stats: String,
        histogram: Vec<(&'static str, u64)>,
        marks: Vec<(ProcId, u32, Cycle)>,
    }

    /// Installs one input's kernels on a machine of the given size.
    type Install = fn(&mut Machine, u16);

    /// Run `install`'s kernels to completion on a `procs`-processor
    /// machine over `kind`, driven as `drive` says; also returns how many
    /// events the queue scheduled beyond its window.
    fn fingerprint(
        procs: u16,
        kind: QueueKind,
        drive: Drive,
        install: Install,
    ) -> (Fingerprint, u64) {
        let mut m = Machine::with_tracer(SystemConfig::with_procs(procs), kind, NopTracer);
        install(&mut m, procs);
        let mut until = if drive == Drive::Sliced {
            0
        } else {
            1_000_000_000
        };
        let mut events = 0;
        let res = loop {
            let res = m.run(until);
            events += res.events;
            if !res.hit_limit {
                break res;
            }
            // Every parked payload belongs to a queued event.
            assert!(m.payloads.len() <= m.queue.len());
            until += 997;
        };
        assert!(res.all_finished, "{}", m.stall_report());
        assert!(m.payloads.is_empty(), "a drained machine parks no payload");
        let fp = Fingerprint {
            finished: res.finished.clone(),
            end: res.end,
            events,
            stats: format!("{:?}", m.stats()),
            histogram: m.event_histogram(),
            marks: m.marks().to_vec(),
        };
        (fp, m.queue.overflowed())
    }

    /// Every timing and every counter of two runs of one input agrees.
    fn assert_same(name: &str, a: &Fingerprint, b: &Fingerprint) {
        assert_eq!(a.finished, b.finished, "{name}: completion times differ");
        assert_eq!(a.end, b.end, "{name}: end cycles differ");
        assert_eq!(a.events, b.events, "{name}: event counts differ");
        assert_eq!(a.histogram, b.histogram, "{name}: event histograms differ");
        assert_eq!(a.marks, b.marks, "{name}: marks differ");
        assert_eq!(a.stats, b.stats, "{name}: stats differ");
    }

    /// Staggered starts, a processor-side fetch-add on one word, then an
    /// AMO barrier.
    fn rmw_then_amo_barrier(m: &mut Machine, procs: u16) {
        let a = var(0, 0x600);
        for p in 0..procs {
            let (k, _) = Script::new(vec![
                Op::AtomicRmw {
                    kind: AmoKind::FetchAdd,
                    addr: a,
                    operand: 1,
                },
                Op::Amo {
                    kind: AmoKind::Inc,
                    addr: var(1, 0x700),
                    operand: 0,
                    test: Some(procs as Word),
                },
                Op::SpinUntil {
                    addr: var(1, 0x700),
                    pred: SpinPred::Eq(procs as Word),
                },
                Op::Mark { id: 1 },
            ]);
            m.install_kernel(ProcId(p), Box::new(k), (p as u64) * 37);
        }
    }

    /// Remote stores and AMOs between 100,000-cycle delays: every wake-up
    /// after a delay lands far beyond the window, in the overflow, while
    /// the other processors' traffic keeps scheduling straight into
    /// buckets.
    fn long_delays(m: &mut Machine, procs: u16) {
        for p in 0..procs {
            let (k, _) = Script::new(vec![
                Op::Delay {
                    cycles: 100_000 + p as Cycle * 7,
                },
                Op::Store {
                    addr: var(1, 0x100 + 0x80 * p as u64),
                    value: p as Word,
                },
                Op::Mark { id: 2 },
                Op::Delay { cycles: 100_000 },
                Op::Amo {
                    kind: AmoKind::FetchAdd,
                    addr: var(0, 0x700),
                    operand: 1,
                    test: None,
                },
            ]);
            m.install_kernel(ProcId(p), Box::new(k), p as u64 * 13);
        }
    }

    /// A ticket lock over LL/SC, two acquisitions per processor: take a
    /// ticket with an LL/SC fetch-increment (again on a failed SC), spin
    /// until `serving` shows it, hold it 150 cycles, pass it on with a
    /// store.
    struct LlscTicket {
        rounds: u32,
        ticket: Word,
    }

    impl Kernel for LlscTicket {
        fn next(&mut self, last: Option<Outcome>) -> Op {
            let (next, serving) = (var(0, 0x100), var(0, 0x200));
            match last {
                None | Some(Outcome::ScResult(false)) => Op::LoadLinked { addr: next },
                Some(Outcome::Value(t)) => {
                    self.ticket = t;
                    Op::StoreConditional {
                        addr: next,
                        value: t + 1,
                    }
                }
                Some(Outcome::ScResult(true)) => Op::SpinUntil {
                    addr: serving,
                    pred: SpinPred::Eq(self.ticket),
                },
                Some(Outcome::SpinDone(_)) => Op::Delay { cycles: 150 },
                Some(Outcome::Delayed) => Op::Store {
                    addr: serving,
                    value: self.ticket + 1,
                },
                Some(Outcome::Stored) if self.rounds > 1 => {
                    self.rounds -= 1;
                    Op::LoadLinked { addr: next }
                }
                Some(Outcome::Stored) => Op::Done,
                Some(other) => unreachable!("{other:?}"),
            }
        }
    }

    fn llsc_ticket_lock(m: &mut Machine, procs: u16) {
        for p in 0..procs {
            let k = LlscTicket {
                rounds: 2,
                ticket: 0,
            };
            m.install_kernel(ProcId(p), Box::new(k), (p as u64 * 41) % 500);
        }
    }

    /// The queue swap must be invisible: every timing and every counter
    /// agrees between the bucket list and the reference heap on `input`.
    /// Returns the bucket list's overflow count.
    fn assert_queues_agree(name: &str, procs: u16, input: Install) -> u64 {
        let (cal, overflowed) = fingerprint(procs, QueueKind::Calendar, Drive::Whole, input);
        let (heap, _) = fingerprint(procs, QueueKind::Heap, Drive::Whole, input);
        assert_same(name, &cal, &heap);
        overflowed
    }

    #[test]
    fn calendar_and_heap_queues_give_identical_machines() {
        assert_queues_agree("rmw + amo barrier", 8, rmw_then_amo_barrier);
        // Four processors size the window to 1,024 cycles.
        let overflowed = assert_queues_agree("long delays", 4, long_delays);
        assert!(overflowed > 0, "the delays must reach past the window");
    }

    #[test]
    #[ignore = "256 processors: slow in debug builds; CI runs it with --release"]
    fn calendar_and_heap_queues_agree_on_a_256_processor_llsc_lock() {
        // The directory backlog of 256 LL/SC contenders schedules
        // directory work 2,048 – 8,192 cycles ahead: the edge of the
        // largest window.
        assert_queues_agree("llsc ticket lock", 256, llsc_ticket_lock);
    }

    #[test]
    fn batched_and_per_event_dispatch_give_identical_machines() {
        // Cutting a run into many `run(until)` calls, across which queued
        // events and their parked payloads wait, must be invisible: the
        // sliced run agrees with one whole `run` on every completion
        // time, counter, event tally and mark — for both queue
        // implementations, inside the window and across it.
        let inputs: [(u16, Install); 2] = [(8, rmw_then_amo_barrier), (4, long_delays)];
        for (procs, input) in inputs {
            for kind in [QueueKind::Calendar, QueueKind::Heap] {
                let (whole, _) = fingerprint(procs, kind, Drive::Whole, input);
                let (sliced, _) = fingerprint(procs, kind, Drive::Sliced, input);
                assert_same(&format!("{kind:?} sliced"), &whole, &sliced);
            }
        }
    }
}
