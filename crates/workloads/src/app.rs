//! Application-style workloads: what the synchronization speedups mean
//! for a real program.
//!
//! The paper's introduction motivates AMOs with a "synchronization tax"
//! argument: a 32-processor barrier on an Origin 3000 costs ~90,000
//! cycles, time in which the machine could have executed 5.76 MFLOPS.
//! [`SyncTax`] measures exactly that: an iterative bulk-synchronous
//! computation (work, then barrier, repeated) across work grains, and
//! how much of the wall time each mechanism's barrier eats.
//!
//! The lock-side analogue needs no scenario of its own: a ticket
//! [`LockBench`](crate::runner::LockBench) at growing `cs_cycles` shows
//! lock overhead amortizing and every mechanism converging — the AMO
//! advantage is a *short-critical-section* phenomenon.
//!
//! Each study's cell is a [`Scenario`] ([`SyncTax`], [`Signal`],
//! [`SelfSched`]) run by the same driver as every barrier and lock
//! benchmark, so a cell can be rejected, can fail alone, and can be
//! traced, sampled and profiled like any other run. The sweeps over
//! cells — grains × mechanisms — are campaign batches
//! (`amo_campaign::artifacts`), not loops here.

use crate::measure::barrier_measurement;
use crate::runner::{check_machine, check_measured, BarrierAlgo, Finished, Scenario};
use amo_obs::{HostProf, Tracer};
use amo_sim::cpu::{Kernel, Op, Outcome};
use amo_sim::Machine;
use amo_sync::mechanism::{release, Step, Sub};
use amo_sync::{Mechanism, ProcPlan, VarAlloc};
use amo_types::seed::{run_seed, SplitMix};
use amo_types::{Addr, Cycle, NodeId, ProcId, SpinPred, SystemConfig, Word};

/// Base seed of the sync-tax work-jitter stream; the per-grain stream is
/// `run_seed(SYNC_TAX_SEED, grain)`.
pub(crate) const SYNC_TAX_SEED: u64 = 0x7_AEED;

/// One mechanism's result at one work grain.
#[derive(Clone, Debug)]
pub struct SyncTaxCell {
    /// Mechanism measured.
    pub mech: Mechanism,
    /// Mean wall time of one (work + barrier) step.
    pub step_cycles: f64,
    /// Fraction of the step spent synchronizing (1 − work/step).
    pub tax: f64,
}

/// One cell of the synchronization-tax study: `steps` iterations of
/// `grain` cycles of local work followed by a barrier, one mechanism —
/// the centralized barrier with a jittered work plan. Important detail:
/// the work-jitter stream is seeded per *grain*
/// (`run_seed(SYNC_TAX_SEED, grain)`), not per mechanism, so every
/// mechanism sees the identical imbalance pattern.
#[derive(Clone, Copy, Debug)]
pub struct SyncTax {
    /// Mechanism under test.
    pub mech: Mechanism,
    /// Processor count.
    pub procs: u16,
    /// Cycles of useful work per processor per step.
    pub grain: Cycle,
    /// Steps (including warm-up).
    pub steps: u32,
    /// Warm-up steps excluded from measurement.
    pub warmup: u32,
}

impl Scenario for SyncTax {
    type Installed = ();
    type Output = SyncTaxCell;

    fn check(&self) -> Result<(), String> {
        check_machine(self.procs, None)?;
        check_measured("steps", self.steps, self.warmup)
    }

    fn config(&self) -> SystemConfig {
        SystemConfig::with_procs(self.procs)
    }

    fn install<T: Tracer, P: HostProf>(&self, machine: &mut Machine<T, P>) {
        let (grain, steps) = (self.grain, self.steps);
        let mut rng = SplitMix::new(run_seed(SYNC_TAX_SEED, grain));
        // Work with ±5% jitter: realistic imbalance.
        let plan = |_| ProcPlan {
            work: (0..steps)
                .map(|_| grain - grain / 20 + rng.below(grain / 10 + 1))
                .collect(),
            start: 0,
        };
        BarrierAlgo::Central.install(machine, self.mech, None, steps, plan);
    }

    fn reduce(&self, (): (), run: &Finished) -> SyncTaxCell {
        let m = barrier_measurement(run.marks, self.procs, self.steps, self.warmup);
        SyncTaxCell {
            mech: self.mech,
            step_cycles: m.avg_cycles,
            tax: 1.0 - self.grain as f64 / m.avg_cycles,
        }
    }
}

/// Result of the producer→consumer signalling study.
#[derive(Clone, Debug)]
pub struct SignalResult {
    /// Mechanism measured.
    pub mech: Mechanism,
    /// Mean one-way signal latency: producer's release issue to
    /// consumer's wake-up, averaged over all pairs and rounds.
    pub mean_latency: f64,
}

/// Point-to-point signalling: `pairs` producer→consumer pairs ping-pong
/// `rounds` times over per-pair flag words (each homed on its waiter's
/// node). Measures the latency of "make one waiting processor see my
/// write" — the primitive underneath every release — isolating the AMO
/// word-update push against the conventional invalidate-then-reload
/// wake-up.
#[derive(Clone, Copy, Debug)]
pub struct Signal {
    /// Mechanism under test.
    pub mech: Mechanism,
    /// Cross-node producer/consumer pairs.
    pub pairs: u16,
    /// Ping-pong rounds per pair.
    pub rounds: u32,
}

/// One end of a [`Signal`] pair.
struct PingPong {
    /// Flag I set (homed at my peer).
    out: Addr,
    /// Flag I wait on (homed at me).
    inn: Addr,
    /// True: I signal first each round.
    initiator: bool,
    mech: Mechanism,
    rounds: u32,
    r: u32,
    phase: u8,
}

impl Kernel for PingPong {
    fn next(&mut self, _l: Option<Outcome>) -> Op {
        if self.r >= self.rounds {
            return Op::Done;
        }
        let await_peer = Op::SpinUntil {
            addr: self.inn,
            pred: SpinPred::Ge(self.r as Word + 1),
        };
        let op = match (self.initiator, self.phase) {
            // Initiator: mark, signal, await the echo.
            (true, 0) => Op::Mark { id: self.r * 2 + 2 },
            (true, 1) => release(self.mech, self.out, self.r as Word + 1),
            (true, 2) => await_peer,
            // Responder: await the signal, mark, echo.
            (false, 0) => await_peer,
            (false, 1) => Op::Mark { id: self.r * 2 + 3 },
            (false, 2) => release(self.mech, self.out, self.r as Word + 1),
            _ => unreachable!(),
        };
        self.phase += 1;
        if self.phase == 3 {
            self.phase = 0;
            self.r += 1;
        }
        op
    }
}

impl Scenario for Signal {
    type Installed = ();
    type Output = SignalResult;

    fn check(&self) -> Result<(), String> {
        if self.pairs == 0 || self.rounds == 0 {
            return Err(format!(
                "need at least one pair and one round: pairs = {}, rounds = {}",
                self.pairs, self.rounds
            ));
        }
        self.config().check()
    }

    fn config(&self) -> SystemConfig {
        SystemConfig::with_procs(self.pairs.saturating_mul(2))
    }

    fn install<T: Tracer, P: HostProf>(&self, machine: &mut Machine<T, P>) {
        let per_node = machine.config().procs_per_node;
        let mut alloc = VarAlloc::new();
        for pair in 0..self.pairs {
            // Initiators occupy the first half of the machine, responders
            // the second, so every pair crosses the network.
            let (a, b) = (ProcId(pair), ProcId(self.pairs + pair));
            let flag_at_a = alloc.word(a.node(per_node));
            let flag_at_b = alloc.word(b.node(per_node));
            for (me, out, inn) in [(a, flag_at_b, flag_at_a), (b, flag_at_a, flag_at_b)] {
                let kernel = PingPong {
                    out,
                    inn,
                    initiator: me == a,
                    mech: self.mech,
                    rounds: self.rounds,
                    r: 0,
                    phase: 0,
                };
                machine.install_kernel(me, Box::new(kernel), 0);
            }
        }
    }

    /// Mean latency: initiator's send mark (2r+2) to responder's receive
    /// mark (2r+3), per pair; pairs share round ids so collect per proc.
    fn reduce(&self, (): (), run: &Finished) -> SignalResult {
        let at = |p: ProcId, id: u32, what: &str| {
            let mark = run.marks.iter().find(|&&(q, i, _)| q == p && i == id);
            mark.unwrap_or_else(|| panic!("{what} mark")).2
        };
        let mut sum = 0u64;
        for pair in 0..self.pairs {
            for r in 0..self.rounds {
                let sent = at(ProcId(pair), r * 2 + 2, "send");
                let recv = at(ProcId(self.pairs + pair), r * 2 + 3, "receive");
                sum += recv.saturating_sub(sent);
            }
        }
        SignalResult {
            mech: self.mech,
            mean_latency: sum as f64 / (self.pairs as u64 * self.rounds as u64) as f64,
        }
    }
}

/// Result of the self-scheduling-loop study at one task grain.
#[derive(Clone, Debug)]
pub struct SelfSchedCell {
    /// Mechanism measured.
    pub mech: Mechanism,
    /// Wall time to drain the task pool.
    pub total_cycles: u64,
}

/// One cell of the self-scheduling study: one mechanism draining the
/// task pool at one task grain.
///
/// Dynamic loop self-scheduling (the NYU Ultracomputer's motivating
/// fetch-and-add workload, paper Sec. 2): `tasks` loop iterations are
/// handed out by an atomic fetch-add on a shared index; each worker
/// loops "grab next index, compute" until the pool drains. At fine task
/// grains the fetch-add is the bottleneck — precisely where shipping it
/// to the memory controller pays.
#[derive(Clone, Copy, Debug)]
pub struct SelfSched {
    /// Mechanism under test.
    pub mech: Mechanism,
    /// Processor count.
    pub procs: u16,
    /// Tasks in the shared pool.
    pub tasks: u32,
    /// Cycles of work per task.
    pub grain: Cycle,
}

/// One [`SelfSched`] participant.
struct Worker {
    /// The fetch-and-add that grabs the next task index.
    grab: Sub,
    /// The grab in flight, or a fresh one while a task computes.
    fa: Sub,
    tasks: Word,
    grain: Cycle,
}

impl Kernel for Worker {
    fn next(&mut self, last: Option<Outcome>) -> Op {
        match self.fa.poll(last) {
            Step::Issue(op) => op,
            Step::Ready(idx) => {
                self.fa = self.grab;
                if idx >= self.tasks {
                    return Op::Done;
                }
                Op::Delay { cycles: self.grain }
            }
        }
    }
}

impl Scenario for SelfSched {
    type Installed = ();
    type Output = SelfSchedCell;

    fn check(&self) -> Result<(), String> {
        check_machine(self.procs, None)
    }

    fn config(&self) -> SystemConfig {
        SystemConfig::with_procs(self.procs)
    }

    fn install<T: Tracer, P: HostProf>(&self, machine: &mut Machine<T, P>) {
        let mut alloc = VarAlloc::new();
        let index = alloc.counter_for(self.mech, NodeId(0));
        let ctr_id = alloc.ctr(NodeId(0));
        for p in 0..self.procs {
            let grab = Sub::fetch_inc(self.mech, index, ctr_id);
            let worker = Worker {
                grab,
                fa: grab,
                tasks: self.tasks as Word,
                grain: self.grain,
            };
            // Slight stagger.
            machine.install_kernel(ProcId(p), Box::new(worker), (p as Cycle) * 7);
        }
    }

    fn reduce(&self, (): (), run: &Finished) -> SelfSchedCell {
        SelfSchedCell {
            mech: self.mech,
            total_cycles: run.info.last_finish,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_lock, run_scenario, LockBench, LockKind, ObsSpec};

    /// Run a study cell on a fault-free machine, where an abort is a bug.
    fn run_ok<S: Scenario + Clone>(cell: &S) -> S::Output {
        run_scenario(cell, ObsSpec::default())
            .unwrap_or_else(|f| panic!("{f}"))
            .timing
    }

    #[test]
    fn sync_tax_decreases_with_work_grain() {
        let tax = |mech, grain| {
            let cell = SyncTax {
                mech,
                procs: 8,
                grain,
                steps: 4,
                warmup: 1,
            };
            run_ok(&cell).tax
        };
        for grain in [1_000, 50_000] {
            let (llsc, amo) = (tax(Mechanism::LlSc, grain), tax(Mechanism::Amo, grain));
            assert!(amo < llsc, "AMO tax below LL/SC at grain {grain}");
            assert!(amo > 0.0 && amo < 1.0);
        }
        // Bigger work grain → smaller tax for everyone.
        let small = tax(Mechanism::LlSc, 1_000);
        let big = tax(Mechanism::LlSc, 50_000);
        assert!(
            big < small,
            "tax must shrink with work grain: {small} -> {big}"
        );
    }

    #[test]
    fn amo_advantage_shrinks_with_critical_section_length() {
        let amo_speedup = |cs_cycles| {
            let cycles = |mech| {
                let ticket = LockBench {
                    rounds: 4,
                    cs_cycles,
                    ..LockBench::paper(mech, LockKind::Ticket, 8)
                };
                run_lock(ticket).timing.total_cycles as f64
            };
            cycles(Mechanism::LlSc) / cycles(Mechanism::Amo)
        };
        let short = amo_speedup(50);
        let long = amo_speedup(5_000);
        assert!(
            long < short,
            "AMO speedup should shrink as critical sections grow: {short} -> {long}"
        );
        assert!(long >= 0.9, "long-CS regime converges near 1.0: {long}");
    }

    #[test]
    fn self_scheduling_completes_every_task_and_amo_wins_fine_grains() {
        let cycles = |mech, grain| {
            let cell = SelfSched {
                mech,
                procs: 8,
                tasks: 64,
                grain,
            };
            run_ok(&cell).total_cycles
        };
        // Fine grain: the shared index is the bottleneck; AMO must win.
        let llsc = cycles(Mechanism::LlSc, 50);
        let amo = cycles(Mechanism::Amo, 50);
        assert!(amo < llsc, "fine-grain AMO {amo} vs LL/SC {llsc}");
        // Coarse grain: compute dominates; mechanisms converge within 20%.
        let coarse = Mechanism::ALL.map(|mech| cycles(mech, 20_000));
        let min = *coarse.iter().min().unwrap() as f64;
        let max = *coarse.iter().max().unwrap() as f64;
        assert!(max / min < 1.2, "coarse grain converges: {min} vs {max}");
        // Work conservation: coarse runs take at least tasks*grain/procs.
        assert!(max >= (64u64 * 20_000 / 8) as f64);
    }

    #[test]
    fn amo_signalling_beats_invalidate_reload() {
        // One-way producer→consumer latency: the AMO word-update push
        // must beat every invalidate-then-reload mechanism.
        let latency = |mech| {
            let cell = Signal {
                mech,
                pairs: 4,
                rounds: 4,
            };
            run_ok(&cell).mean_latency
        };
        let amo = latency(Mechanism::Amo);
        for mech in [Mechanism::LlSc, Mechanism::Atomic] {
            let conv = latency(mech);
            assert!(amo < conv, "AMO signal {amo} should beat {mech:?} {conv}");
        }
        assert!(amo > 100.0, "a cross-node signal costs real cycles: {amo}");
    }
}
