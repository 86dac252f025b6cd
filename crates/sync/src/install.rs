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
use amo_obs::{HostProf, Tracer};
use amo_sim::cpu::Kernel;
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
    use amo_sim::RunResult;
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
        let (machine, res) = run_barrier_full(algo, mech, style, procs, episodes);
        (machine, res.last_finish())
    }

    /// [`run_barrier`], returning the whole run result.
    pub fn run_barrier_full(
        algo: BarrierAlgo,
        mech: Mechanism,
        style: Option<BarrierStyle>,
        procs: u16,
        episodes: u32,
    ) -> (Machine, RunResult) {
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
        (machine, res)
    }

    /// Run a lock to completion under the in-simulation exclusion
    /// checker (a violation panics). Returns the machine and the last
    /// finish.
    pub fn run_lock(kind: LockKind, mech: Mechanism, procs: u16, rounds: u32) -> (Machine, Cycle) {
        let (machine, res) = run_lock_full(kind, mech, procs, rounds);
        (machine, res.last_finish())
    }

    /// [`run_lock`], returning the whole run result.
    pub fn run_lock_full(
        kind: LockKind,
        mech: Mechanism,
        procs: u16,
        rounds: u32,
    ) -> (Machine, RunResult) {
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
        (machine, res)
    }
}

/// Every kernel under every mechanism it runs on, pinned op stream by op
/// stream: a change to this crate that is meant to move nothing simulated
/// must leave each cell's last finish, event count, mark history and
/// statistics exactly as they are here.
#[cfg(test)]
mod pinned {
    use super::testkit::{run_barrier_full, run_lock_full};
    use super::*;
    use amo_sim::RunResult;
    use amo_types::seed::{key_hex, stable_hash128};

    /// One line per cell: last finish, events, hash of the marks, hash of
    /// the statistics document.
    const PINNED: &str = "\
LL/SC central Some(Naive): 6468 212 c1d9733add8f403c56261ad699a7c499 7b17817e64a5501232a48a3626e7f0e9
ActMsg central Some(Naive): 7639 243 743c2e5291e5cde7296873a234bb64fe be5ed41d46de2704ade9b1784fbe76cd
Atomic central Some(Naive): 5888 200 f0600545feeeded0946d26191f77f591 da7ad70954da92857e06d2502eb84ebe
MAO central Some(Naive): 3501 185 df7bd61dd5d567ace919e03a9d2eb73d 76d66811cf6fb01ad388df5cda6ea5ed
AMO central Some(Naive): 2588 141 edb0aedf25aa9dcf57a2dc50daddd23e 4546ef701285af1d4bc61d9ca1ab40c8
LL/SC central Some(SpinVariable): 8616 235 261b52aa5099bcf58fff8a40afc35838 0233f748a7cb2d67fd6953fb375e7450
ActMsg central Some(SpinVariable): 7639 243 743c2e5291e5cde7296873a234bb64fe be5ed41d46de2704ade9b1784fbe76cd
Atomic central Some(SpinVariable): 8130 223 5eba96c54c58c511b859aee89cf6ea04 ab798868d306a5c7b86c3daf51b1b76a
MAO central Some(SpinVariable): 6807 207 c407d02e80fe674b9d9b52aee430eb6a d5c25f4bc23b35208eb822615b3d8095
AMO central Some(SpinVariable): 3441 156 03caa13d4e19b2a0cbeea0aa52e76aed 2fd5399715b9db2d167a9df5ead77c32
LL/SC central Some(EagerUpdates): 6468 212 c1d9733add8f403c56261ad699a7c499 7b17817e64a5501232a48a3626e7f0e9
ActMsg central Some(EagerUpdates): 7639 243 743c2e5291e5cde7296873a234bb64fe be5ed41d46de2704ade9b1784fbe76cd
Atomic central Some(EagerUpdates): 5888 200 f0600545feeeded0946d26191f77f591 da7ad70954da92857e06d2502eb84ebe
MAO central Some(EagerUpdates): 3501 185 df7bd61dd5d567ace919e03a9d2eb73d 76d66811cf6fb01ad388df5cda6ea5ed
AMO central Some(EagerUpdates): 2604 177 e8d7e20f732cd1ef56fc5c035862e6fe 2f0d68c6a6688f31610656407a1c3338
LL/SC tree:2 None: 7746 330 995181af0ccd9dff5abab25bb0e831ae b2ae959331ac0617cd3309edeb8019a8
ActMsg tree:2 None: 9607 363 2a1c335c648c770c6bec6ee039aeb0b1 b20c4450eb1f74e5288a48023daceae4
Atomic tree:2 None: 7302 312 537510986ee5282f840318b264dab13e d297a866aafca898b795485c82575623
MAO tree:2 None: 5992 305 9229391be79b04d814143e9c25db7555 920bbbd70ed1d93be669e1b5d778bc56
AMO tree:2 None: 3763 229 73b1de1ecd202709e73e06931c4726d8 aeccb722b4194f249548db3d2b34ee17
LL/SC ktree:2 None: 7746 330 995181af0ccd9dff5abab25bb0e831ae b2ae959331ac0617cd3309edeb8019a8
ActMsg ktree:2 None: 9607 363 2a1c335c648c770c6bec6ee039aeb0b1 b20c4450eb1f74e5288a48023daceae4
Atomic ktree:2 None: 7302 312 537510986ee5282f840318b264dab13e d297a866aafca898b795485c82575623
MAO ktree:2 None: 5992 305 9229391be79b04d814143e9c25db7555 920bbbd70ed1d93be669e1b5d778bc56
AMO ktree:2 None: 3763 229 73b1de1ecd202709e73e06931c4726d8 aeccb722b4194f249548db3d2b34ee17
LL/SC dissem None: 7501 368 32b5f0170532951955f20f389f103f84 0257d23e64acfd4e4f4b2bc4b694f0b5
ActMsg dissem None: 7501 368 32b5f0170532951955f20f389f103f84 0257d23e64acfd4e4f4b2bc4b694f0b5
Atomic dissem None: 7501 368 32b5f0170532951955f20f389f103f84 0257d23e64acfd4e4f4b2bc4b694f0b5
MAO dissem None: 7501 368 32b5f0170532951955f20f389f103f84 0257d23e64acfd4e4f4b2bc4b694f0b5
AMO dissem None: 4137 275 5761754380a15f75afad9087b8f81e14 78de65328fab6242288d11208b04a3af
LL/SC ticket: 22806 557 4900897c64d537ddc7944888a3f940f4 80dd5fcb449e7be0a497f52bda863103
ActMsg ticket: 20266 343 743f273eb908292e709b13b14c8c93f3 eabe38b2699727ace9e82018bb14e3dd
Atomic ticket: 23192 552 3caeaa04c81954a0dec1f5a33f58ccb5 fa713f75e68f951fd37974020356b0ce
MAO ticket: 22909 535 d46624902be0fe99db770d40a8e4882c f0d425d8030e96c77d9451e16981be0a
AMO ticket: 13102 368 802c31a7e701db8fb44bba4345f688b2 c709cc55b3c7b9f42fd17a34de81d3d1
LL/SC array: 26641 516 5e883d8865fa06a0a9e6f620b2c9ece5 ba4584618d93263345047845da10660c
ActMsg array: 27913 519 e4531698e8c88db785788cdc53446896 b534ed75a5a35a8f6103979190d2f61c
Atomic array: 26731 504 76f89b3a1149460534c839c5596d1b0c 8352020cb08337d816cfe228628993a1
MAO array: 26249 480 89deaf2e540ae34cdf187b4543c838b9 88db00db8032d6a8653dabe6b56d2b91
AMO array: 13282 335 2f52bb9c31341062fb280bd86c0710df 252794fe157fdc94963c1f7353760761
LL/SC mcs: 28634 710 00338a226adc372fc4bb28ced169e056 b394023f224258b0cd8ec521822cbe4f
Atomic mcs: 27670 683 06c4792f7ecfc9d756f6b1b0e238518a ef85a32f468c237a2e6cf1bb0866d8cb
MAO mcs: 23018 682 74a613e041838c7a430a34c17a4e95fb ee31cb3907b64843f049d3a2c62b1bc8
AMO mcs: 19121 616 f09ba59a939adc401a64ed43ad15ec5d a38eb0b4022f77ebe9db600db513eb4e
";

    fn row(cell: String, (machine, res): (Machine, RunResult)) -> String {
        let marks: Vec<u8> = (machine.marks().iter())
            .flat_map(|&(p, id, t)| [p.0 as u64, id as u64, t])
            .flat_map(u64::to_le_bytes)
            .collect();
        let stats = machine.stats().to_json();
        format!(
            "{cell}: {} {} {} {}",
            res.last_finish(),
            res.events,
            key_hex(stable_hash128(&marks)),
            key_hex(stable_hash128(stats.as_bytes())),
        )
    }

    /// 30 barrier cells (4 processors, 3 episodes) and 14 lock cells (4
    /// processors, 3 rounds, exclusion check on).
    #[test]
    fn every_cell_keeps_its_op_stream() {
        let styles = [
            BarrierStyle::Naive,
            BarrierStyle::SpinVariable,
            BarrierStyle::EagerUpdates,
        ];
        let barriers = (styles.map(|s| (BarrierAlgo::Central, Some(s))).into_iter()).chain([
            (BarrierAlgo::Tree(2), None),
            (BarrierAlgo::KTree(2), None),
            (BarrierAlgo::Dissemination, None),
        ]);
        let mut got = Vec::new();
        for (algo, style) in barriers {
            for mech in Mechanism::ALL {
                let cell = format!("{} {} {style:?}", mech.label(), algo.tag());
                got.push(row(cell, run_barrier_full(algo, mech, style, 4, 3)));
            }
        }
        for kind in [LockKind::Ticket, LockKind::Array, LockKind::Mcs] {
            for mech in Mechanism::ALL
                .into_iter()
                .filter(|&m| kind.check(m, 4).is_ok())
            {
                let cell = format!("{} {}", mech.label(), kind.tag());
                got.push(row(cell, run_lock_full(kind, mech, 4, 3)));
            }
        }
        let want: Vec<&str> = PINNED.lines().collect();
        let moved: Vec<&String> = got.iter().filter(|g| !want.contains(&g.as_str())).collect();
        assert!(
            got.len() == 44 && moved.is_empty(),
            "{} cells, moved: {moved:#?}\nnow:\n{}",
            got.len(),
            got.join("\n")
        );
        assert_eq!(want.len(), 44);
    }
}
