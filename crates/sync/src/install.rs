//! The installers: which barrier and lock kernels exist, and how each
//! one goes onto a machine.
//!
//! [`BarrierAlgo::install`] and [`LockKind::install`] are the only
//! places that pair a `*Spec::build` with its `*Kernel::new`: they
//! allocate the algorithm's variables, apply any program
//! initialization it needs (the array lock's open first slot), and
//! load one kernel per processor. Callers say *what* each processor
//! does around the synchronization — a [`ProcPlan`] per processor, asked
//! for in processor order — and never see a constructor. The matching
//! `check` says up front whether an algorithm can run at a given size,
//! so a bad request is a message, not an assertion inside a builder.
//!
//! Variable allocation order is part of the simulated machine (it
//! decides every home node and block) and is pinned by the golden
//! tables: the lock installer allocates the exclusion-check word
//! *before* the lock's own variables.

use crate::lock::ExclusionCheck;
use crate::{
    ArrayLockKernel, ArrayLockSpec, BarrierKernel, BarrierSpec, BarrierStyle, DisseminationKernel,
    DisseminationSpec, KTreeKernel, KTreeSpec, McsLockKernel, McsLockSpec, Mechanism,
    TicketLockKernel, TicketLockSpec, VarAlloc,
};
use amo_cpu::Kernel;
use amo_obs::{HostProf, Tracer};
use amo_sim::Machine;
use amo_types::{Addr, Cycle, NodeId, ProcId, Word};
use std::cell::Cell;
use std::rc::Rc;

/// One processor's part in an installed workload.
pub struct ProcPlan {
    /// Local work before each barrier episode, or think time before
    /// each lock acquisition, in cycles (one entry per episode/round).
    pub work: Vec<Cycle>,
    /// Cycle the processor's kernel starts at (arrival skew).
    pub start: Cycle,
}

/// Load `kernel(p, work)` on every processor, drawing the plans in
/// processor order.
fn install_each<T: Tracer, P: HostProf, K: Kernel + 'static>(
    machine: &mut Machine<T, P>,
    plan: &mut impl FnMut(u16) -> ProcPlan,
    mut kernel: impl FnMut(u16, Vec<Cycle>) -> K,
) {
    for p in 0..machine.config().num_procs {
        let ProcPlan { work, start } = plan(p);
        machine.install_kernel(ProcId(p), Box::new(kernel(p, work)), start);
    }
}

/// Which barrier algorithm to run.
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

    /// Can this algorithm synchronize `procs` processors?
    pub fn check(self, procs: u16) -> Result<(), String> {
        let why = match self {
            BarrierAlgo::Tree(b) if b < 2 || b >= procs => format!(
                "a two-level tree over {procs} processors needs a fan-in of 2 to {}",
                procs.saturating_sub(1)
            ),
            BarrierAlgo::KTree(b) if b < 2 => "a tree needs a fan-in of at least 2".into(),
            BarrierAlgo::KTree(_) | BarrierAlgo::Dissemination if procs < 2 => {
                format!("needs at least 2 processors, not {procs}")
            }
            _ => return Ok(()),
        };
        Err(format!("algo {}: {why}", self.tag()))
    }

    /// Allocate this barrier for every processor of `machine` and load
    /// its kernels: `episodes` episodes under `mech`, processor `p`
    /// working `plan(p).work[e]` cycles before episode `e`. `style`
    /// overrides the centralized barrier's spin placement (`None` = the
    /// paper's default per mechanism). The request must pass
    /// [`check`](Self::check).
    pub fn install<T: Tracer, P: HostProf>(
        self,
        machine: &mut Machine<T, P>,
        mech: Mechanism,
        style: Option<BarrierStyle>,
        episodes: u32,
        mut plan: impl FnMut(u16) -> ProcPlan,
    ) {
        let cfg = *machine.config();
        let (procs, nodes) = (cfg.num_procs, cfg.num_nodes());
        let mut alloc = VarAlloc::new();
        match self {
            BarrierAlgo::Central => {
                let spec = match style {
                    None => BarrierSpec::build(&mut alloc, mech, NodeId(0), procs, episodes),
                    Some(style) => BarrierSpec::build_styled(
                        &mut alloc,
                        mech,
                        style,
                        NodeId(0),
                        procs,
                        episodes,
                    ),
                };
                install_each(machine, &mut plan, |_, work| BarrierKernel::new(spec, work));
            }
            BarrierAlgo::Tree(b) | BarrierAlgo::KTree(b) => {
                let build = match self {
                    BarrierAlgo::Tree(_) => KTreeSpec::build_two_level,
                    _ => KTreeSpec::build,
                };
                let spec = Rc::new(build(&mut alloc, mech, procs, episodes, b, nodes));
                install_each(machine, &mut plan, |p, work| {
                    KTreeKernel::new(Rc::clone(&spec), p, work)
                });
            }
            BarrierAlgo::Dissemination => {
                let spec =
                    DisseminationSpec::build(&mut alloc, mech, procs, cfg.procs_per_node, episodes);
                install_each(machine, &mut plan, |p, work| {
                    DisseminationKernel::new(spec.clone(), p, work)
                });
            }
        }
    }
}

/// Which lock algorithm to run.
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

/// What an installed lock hands back to observers.
pub struct LockInstalled {
    /// The word every acquisition serializes on: the ticket or array
    /// sequencer, the MCS queue tail.
    pub sequencer: Addr,
    /// The in-simulation mutual-exclusion checker, if one was asked for.
    pub check: Option<ExclusionCheck>,
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

    /// Can `procs` processors run this lock under `mech`?
    pub fn check(self, mech: Mechanism, procs: u16) -> Result<(), String> {
        match self {
            LockKind::Mcs if mech == Mechanism::ActMsg => Err(format!(
                "kind mcs needs swap/cas, which {} lacks (its lock is home-mediated instead)",
                mech.label()
            )),
            LockKind::Array if procs < 2 => Err(format!(
                "kind array needs at least 2 slots (one per processor), not {procs}"
            )),
            _ => Ok(()),
        }
    }

    /// Allocate this lock on node 0 for every processor of `machine`
    /// and load its kernels: `rounds` acquisitions of `cs_cycles` each
    /// under `mech`, processor `p` thinking `plan(p).work[r]` cycles
    /// before round `r` and holding the lock as owner `p + 1`. With
    /// `check_exclusion` every holder also runs the in-simulation
    /// mutual-exclusion check. The request must pass
    /// [`check`](Self::check).
    pub fn install<T: Tracer, P: HostProf>(
        self,
        machine: &mut Machine<T, P>,
        mech: Mechanism,
        rounds: u32,
        cs_cycles: Cycle,
        check_exclusion: bool,
        mut plan: impl FnMut(u16) -> ProcPlan,
    ) -> LockInstalled {
        let cfg = *machine.config();
        let mut alloc = VarAlloc::new();
        let check = check_exclusion.then(|| ExclusionCheck {
            addr: alloc.word(NodeId(0)),
            violations: Rc::new(Cell::new(0)),
        });
        let owner = |p: u16| p as Word + 1;
        let sequencer = match self {
            LockKind::Ticket => {
                let spec = TicketLockSpec::build(&mut alloc, mech, NodeId(0), rounds, cs_cycles);
                install_each(machine, &mut plan, |p, think| {
                    TicketLockKernel::new(spec, think, owner(p), check.clone())
                });
                spec.next_ticket
            }
            LockKind::Mcs => {
                let spec = McsLockSpec::build(
                    &mut alloc,
                    mech,
                    NodeId(0),
                    cfg.num_procs,
                    cfg.procs_per_node,
                    rounds,
                    cs_cycles,
                );
                install_each(machine, &mut plan, |p, think| {
                    McsLockKernel::new(spec.clone(), p, think, owner(p), check.clone())
                });
                spec.tail
            }
            LockKind::Array => {
                let spec = ArrayLockSpec::build(
                    &mut alloc,
                    mech,
                    NodeId(0),
                    cfg.num_procs,
                    rounds,
                    cs_cycles,
                );
                // Slot 0 starts granted, or the lock never opens.
                spec.init(machine);
                install_each(machine, &mut plan, |p, think| {
                    ArrayLockKernel::new(spec.clone(), think, owner(p), check.clone())
                });
                spec.sequencer
            }
        };
        LockInstalled { sequencer, check }
    }
}

/// The one way this crate's unit tests run an algorithm: through the
/// installers, on a fresh paper machine, with a fixed skewed plan.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use amo_types::SystemConfig;

    /// Run a barrier to completion and check it synchronized: in every
    /// episode every processor enters and exits once, and no exit
    /// precedes an enter. Returns the machine and the last finish.
    pub fn run_barrier(
        algo: BarrierAlgo,
        mech: Mechanism,
        style: Option<BarrierStyle>,
        procs: u16,
        episodes: u32,
    ) -> (Machine, Cycle) {
        let mut machine = Machine::new(SystemConfig::with_procs(procs));
        algo.install(&mut machine, mech, style, episodes, |p| ProcPlan {
            work: (0..episodes as u64)
                .map(|e| 100 + (p as u64 * 37 + e * 13) % 400)
                .collect(),
            start: 0,
        });
        let res = machine.run(4_000_000_000);
        let what = format!("{algo:?} {mech:?} {style:?}");
        assert!(res.all_finished, "{what}: {:?}", res.finished);
        for e in 1..=episodes {
            let times = |id: u32| -> Vec<Cycle> {
                let marks = machine.marks().iter().filter(|m| m.1 == id);
                marks.map(|m| m.2).collect()
            };
            let enters = times(BarrierSpec::enter_mark(e));
            let exits = times(BarrierSpec::exit_mark(e));
            assert_eq!(
                (enters.len(), exits.len()),
                (procs as usize, procs as usize)
            );
            assert!(
                exits.iter().min() >= enters.iter().max(),
                "{what} episode {e}: an exit before the last enter"
            );
        }
        (machine, res.last_finish())
    }

    /// Run a lock to completion under the in-simulation exclusion
    /// checker (a violation panics). Returns the machine and the last
    /// finish.
    pub fn run_lock(kind: LockKind, mech: Mechanism, procs: u16, rounds: u32) -> (Machine, Cycle) {
        let mut machine = Machine::new(SystemConfig::with_procs(procs));
        let lock = kind.install(&mut machine, mech, rounds, 200, true, |p| ProcPlan {
            work: (0..rounds as u64)
                .map(|r| 100 + (p as u64 * 41 + r * 17) % 500)
                .collect(),
            start: 0,
        });
        let res = machine.run(4_000_000_000);
        assert!(res.all_finished, "{kind:?} {mech:?}: {:?}", res.finished);
        let violations = lock.check.expect("asked for").violations.get();
        assert_eq!(violations, 0, "{kind:?} {mech:?} violated mutual exclusion");
        (machine, res.last_finish())
    }
}
