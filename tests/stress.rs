//! Stress and composition tests: AMU-cache thrash with exact final
//! values, extended-AMO model checking under eviction, independent locks
//! running concurrently without cross-talk, array-lock exclusion under
//! random think times, and lock→barrier kernel composition.

use amo::cpu::{Kernel, Op, Outcome};
use amo::prelude::*;
use amo::sync::barrier::BarrierSpec;
use amo::sync::lock::{ArrayLockSpec, ExclusionCheck, TicketLockSpec};
use amo::sync::{ArrayLockKernel, BarrierKernel, Mechanism, TicketLockKernel, VarAlloc};
use amo::types::seed::cases;
use amo::types::AmoKind;
use std::cell::RefCell;
use std::rc::Rc;

/// Replay a fixed list of operations, recording every value-carrying
/// outcome in program order.
struct Script {
    ops: Vec<Op>,
    at: usize,
    got: Rc<RefCell<Vec<Word>>>,
}

impl Kernel for Script {
    fn next(&mut self, last: Option<Outcome>) -> Op {
        if let Some(Outcome::Value(v)) = last {
            self.got.borrow_mut().push(v);
        }
        let op = self.ops.get(self.at).copied().unwrap_or(Op::Done);
        self.at += 1;
        op
    }
}

/// Read each word with an exclusive-fetching atomic (which flushes any
/// dirty AMU-cached copy) and return the observed values.
fn flush_read(machine: &mut Machine, addrs: &[Addr], start: Cycle) -> Vec<Word> {
    let got = Rc::new(RefCell::new(Vec::new()));
    let ops = addrs
        .iter()
        .map(|&addr| Op::AtomicRmw {
            kind: AmoKind::FetchAdd,
            addr,
            operand: 0,
        })
        .collect();
    machine.install_kernel(
        ProcId(0),
        Box::new(Script {
            ops,
            at: 0,
            got: got.clone(),
        }),
        start,
    );
    let res = machine.run(5_000_000_000);
    assert!(res.all_finished, "flush reader stalled: {:?}", res.finished);
    let out = got.borrow().clone();
    out
}

/// Sixteen hot counters — twice the AMU cache capacity — hammered by
/// eight processors in skewed round-robin order. Every fetch-add must
/// survive the constant evict/flush/refill churn: each counter's final
/// value is exactly the sum of what every processor contributed.
#[test]
fn amu_cache_thrash_preserves_every_counter() {
    const CTRS: usize = 16; // AMU cache holds 8 words
    const PASSES: usize = 2;
    let procs: u16 = 8;
    let mut machine = Machine::new(SystemConfig::with_procs(procs));
    let mut alloc = VarAlloc::new();
    let ctrs: Vec<Addr> = (0..CTRS)
        .map(|i| alloc.word(NodeId((i % 2) as u16)))
        .collect();

    for p in 0..procs {
        let mut ops = vec![Op::Delay {
            cycles: 37 * (p as Cycle + 1),
        }];
        for pass in 0..PASSES {
            for i in 0..CTRS {
                // Stride 3 is coprime to 16: every pass touches every
                // counter exactly once, but processors collide on
                // different counters at different times.
                let c = (p as usize + i * 3 + pass) % CTRS;
                ops.push(Op::Amo {
                    kind: AmoKind::FetchAdd,
                    addr: ctrs[c],
                    operand: p as Word + 1,
                    test: None,
                });
            }
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        machine.install_kernel(ProcId(p), Box::new(Script { ops, at: 0, got }), 0);
    }
    let res = machine.run(5_000_000_000);
    assert!(res.all_finished, "adders stalled: {:?}", res.finished);

    // Each counter received (p+1) from every processor, PASSES times.
    let expected: Word = PASSES as Word * (1..=procs as Word).sum::<Word>();
    let finals = flush_read(&mut machine, &ctrs, res.end + 1);
    for (c, &v) in finals.iter().enumerate() {
        assert_eq!(v, expected, "counter {c} lost updates under AMU thrash");
    }
}

/// Model-check the extended AMO instruction set (`swap`, `cas`, `max`,
/// `min`, plus `inc`/`fetchadd`) against a reference interpreter, over
/// twelve words so the 8-word AMU cache continuously evicts. Every
/// returned old value and every final memory word must match; coherent
/// atomic interrogations are interleaved to force flush/refill cycles.
#[test]
fn extended_amo_ops_match_reference_model_under_eviction() {
    const WORDS: usize = 12;
    let mut machine = Machine::new(SystemConfig::with_procs(2));
    let mut alloc = VarAlloc::new();
    let words: Vec<Addr> = (0..WORDS).map(|_| alloc.word(NodeId(0))).collect();

    // Deterministic LCG (no external entropy — runs must be replayable).
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };

    let mut model = vec![0u64; WORDS];
    let mut ops = Vec::new();
    let mut expected = Vec::new();
    let mut trace: Vec<(usize, u32, String)> = Vec::new();
    for step in 0..200 {
        let w = (rng() % WORDS as u64) as usize;
        let operand = rng() % 50;
        if step % 17 == 16 {
            trace.push((w, step, format!("interrogate, model {}", model[w])));
            // Coherent interrogation: flushes the AMU word and records
            // the linearized value at this point in program order.
            ops.push(Op::AtomicRmw {
                kind: AmoKind::FetchAdd,
                addr: words[w],
                operand: 0,
            });
            expected.push(model[w]);
            continue;
        }
        let kind = match rng() % 6 {
            0 => AmoKind::Inc,
            1 => AmoKind::FetchAdd,
            2 => AmoKind::Swap,
            3 => AmoKind::Cas {
                // Half the time CAS an expected value that actually
                // matches, half the time a likely miss.
                expected: if rng() % 2 == 0 { model[w] } else { rng() % 50 },
            },
            4 => AmoKind::Max,
            _ => AmoKind::Min,
        };
        ops.push(Op::Amo {
            kind,
            addr: words[w],
            operand,
            test: None,
        });
        expected.push(model[w]);
        trace.push((
            w,
            step,
            format!(
                "{kind:?} operand {operand}: {} -> {}",
                model[w],
                kind.apply(model[w], operand)
            ),
        ));
        model[w] = kind.apply(model[w], operand);
    }

    let got = Rc::new(RefCell::new(Vec::new()));
    machine.install_kernel(
        ProcId(0),
        Box::new(Script {
            ops,
            at: 0,
            got: got.clone(),
        }),
        0,
    );
    let res = machine.run(5_000_000_000);
    assert!(res.all_finished, "script stalled: {:?}", res.finished);
    assert_eq!(
        *got.borrow(),
        expected,
        "an AMO returned the wrong old value"
    );

    let finals = flush_read(&mut machine, &words, res.end + 1);
    if finals != model {
        for (w, (&f, &m)) in finals.iter().zip(model.iter()).enumerate() {
            if f != m {
                eprintln!("word {w}: memory {f} model {m}; trace:");
                for t in &trace {
                    if t.0 == w {
                        eprintln!("  {:?}", t);
                    }
                }
            }
        }
    }
    assert_eq!(
        finals, model,
        "final memory diverged from the reference model"
    );
}

/// Regression: an upgrade must not be satisfied from a stale shared
/// copy while the AMU holds a silently-accumulated word. Sequence: the
/// processor owns the line, an eager-putting AMO downgrades it to a
/// sharer (copy refreshed by the put), a silent `amo.inc` then dirties
/// the AMU word, and a subsequent atomic RMW — an Upgrade, since the
/// line is Shared — must observe the inc, not its stale copy. Before
/// the directory degraded such upgrades to GetX, the RMW kept the stale
/// value and its writeback clobbered the flushed increment.
#[test]
fn upgrade_after_silent_inc_sees_amu_value() {
    let mut machine = Machine::new(SystemConfig::with_procs(2));
    let mut alloc = VarAlloc::new();
    let w = alloc.word(NodeId(0));
    let ops = vec![
        // GetX: processor owns the line, value 5.
        Op::AtomicRmw {
            kind: AmoKind::FetchAdd,
            addr: w,
            operand: 5,
        },
        // FineGet downgrades the owner to a sharer; the eager put
        // refreshes the shared copy to 12.
        Op::Amo {
            kind: AmoKind::FetchAdd,
            addr: w,
            operand: 7,
            test: None,
        },
        // Silent accumulation: AMU holds 13 dirty, shared copy says 12.
        Op::Amo {
            kind: AmoKind::Inc,
            addr: w,
            operand: 0,
            test: None,
        },
        // Shared line → Upgrade path. Must observe 13.
        Op::AtomicRmw {
            kind: AmoKind::FetchAdd,
            addr: w,
            operand: 0,
        },
    ];
    let got = Rc::new(RefCell::new(Vec::new()));
    machine.install_kernel(
        ProcId(0),
        Box::new(Script {
            ops,
            at: 0,
            got: got.clone(),
        }),
        0,
    );
    let res = machine.run(10_000_000);
    assert!(res.all_finished, "{:?}", res.finished);
    assert_eq!(*got.borrow(), vec![0, 5, 12, 13]);
}

mod single_writer_histories {
    use super::*;

    /// A script whose value-carrying outcomes are tagged with the word
    /// they touched, so observations can be checked per word.
    struct TaggedScript {
        ops: Vec<(Op, Option<usize>)>,
        at: usize,
        got: Rc<RefCell<Vec<(usize, Word)>>>,
    }

    impl Kernel for TaggedScript {
        fn next(&mut self, last: Option<Outcome>) -> Op {
            if let Some(Outcome::Value(v)) = last {
                if let Some((_, Some(tag))) = self.at.checked_sub(1).map(|i| self.ops[i]) {
                    self.got.borrow_mut().push((tag, v));
                }
            }
            let op = self.ops.get(self.at).map(|&(op, _)| op).unwrap_or(Op::Done);
            self.at += 1;
            op
        }
    }

    /// One writer operation, decoded from random draws.
    fn decode(sel: u8, a: Word, b: Word, addr: Addr) -> (Op, bool) {
        match sel {
            0 => (
                Op::Amo {
                    kind: AmoKind::Inc,
                    addr,
                    operand: 0,
                    test: None,
                },
                true,
            ),
            1 => (
                Op::Amo {
                    kind: AmoKind::FetchAdd,
                    addr,
                    operand: a,
                    test: None,
                },
                true,
            ),
            2 => (
                Op::Amo {
                    kind: AmoKind::Swap,
                    addr,
                    operand: a,
                    test: None,
                },
                true,
            ),
            3 => (
                Op::Amo {
                    kind: AmoKind::Cas { expected: b },
                    addr,
                    operand: a,
                    test: None,
                },
                true,
            ),
            4 => (
                Op::Amo {
                    kind: AmoKind::Max,
                    addr,
                    operand: a,
                    test: None,
                },
                true,
            ),
            5 => (
                Op::Amo {
                    kind: AmoKind::Min,
                    addr,
                    operand: a,
                    test: None,
                },
                true,
            ),
            6 => (
                Op::AtomicRmw {
                    kind: AmoKind::FetchAdd,
                    addr,
                    operand: a,
                },
                true,
            ),
            _ => (Op::Store { addr, value: a }, false),
        }
    }

    fn model(sel: u8, a: Word, b: Word, cur: Word) -> Word {
        match sel {
            0 => AmoKind::Inc.apply(cur, 0),
            1 => AmoKind::FetchAdd.apply(cur, a),
            2 => AmoKind::Swap.apply(cur, a),
            3 => AmoKind::Cas { expected: b }.apply(cur, a),
            4 => AmoKind::Max.apply(cur, a),
            5 => AmoKind::Min.apply(cur, a),
            6 => AmoKind::FetchAdd.apply(cur, a),
            _ => a,
        }
    }

    /// Each word has exactly one writer mixing AMOs, coherent
    /// atomics, and plain stores, while reader processors churn the
    /// protocol with loads (GetS, allowed to be stale) and
    /// exclusive-fetching interrogations (GetX/Upgrade, which flush
    /// the AMU). Whatever the interleaving: the writer's returned
    /// old values follow its program-order fold exactly, every value
    /// any reader ever observes is a genuine history value of that
    /// word (no torn, lost, or invented updates), and final memory
    /// is the last fold.
    #[test]
    fn single_writer_histories_stay_linear() {
        for mut rng in cases(module_path!(), "single_writer_histories_stay_linear", 12) {
            let plans: Vec<Vec<(u8, u64, u64)>> = (0..4)
                .map(|_| {
                    (0..rng.range(1..16))
                        .map(|_| (rng.below(8) as u8, rng.below(8), rng.below(8)))
                        .collect()
                })
                .collect();
            let reads: Vec<Vec<(usize, bool, u64)>> = (0..2)
                .map(|_| {
                    (0..rng.below(16))
                        .map(|_| {
                            (
                                rng.below(4) as usize,
                                rng.next_u64() & 1 == 1,
                                rng.below(600),
                            )
                        })
                        .collect()
                })
                .collect();
            const WORDS: usize = 4;
            let mut machine = Machine::new(SystemConfig::with_procs(4));
            let mut alloc = VarAlloc::new();
            let words: Vec<Addr> = (0..WORDS)
                .map(|i| alloc.word(NodeId((i % 2) as u16)))
                .collect();

            // Per-word history of folded values (initial 0 included).
            let mut history: Vec<Vec<Word>> = vec![vec![0]; WORDS];
            // Writer proc w (0/1) owns words {w, w+2}: interleave them.
            let mut writer_expected: Vec<Vec<(usize, Word)>> = vec![Vec::new(); 2];
            let mut writer_ops: Vec<Vec<(Op, Option<usize>)>> = vec![Vec::new(); 2];
            let max_len = plans.iter().map(Vec::len).max().unwrap_or(0);
            for k in 0..max_len {
                for (w, plan) in plans.iter().enumerate() {
                    let Some(&(sel, a, b)) = plan.get(k) else {
                        continue;
                    };
                    let writer = w % 2;
                    let cur = *history[w].last().unwrap();
                    let (op, carries) = decode(sel, a, b, words[w]);
                    writer_ops[writer].push((op, carries.then_some(w)));
                    if carries {
                        writer_expected[writer].push((w, cur));
                    }
                    history[w].push(model(sel, a, b, cur));
                }
            }

            let mut outs = Vec::new();
            for (writer, ops) in writer_ops.into_iter().enumerate() {
                let got = Rc::new(RefCell::new(Vec::new()));
                outs.push(got.clone());
                machine.install_kernel(
                    ProcId(writer as u16),
                    Box::new(TaggedScript { ops, at: 0, got }),
                    0,
                );
            }
            for (r, plan) in reads.iter().enumerate() {
                let mut ops = Vec::new();
                for &(w, load, delay) in plan {
                    ops.push((Op::Delay { cycles: delay }, None));
                    let op = if load {
                        Op::Load { addr: words[w] }
                    } else {
                        Op::AtomicRmw {
                            kind: AmoKind::FetchAdd,
                            addr: words[w],
                            operand: 0,
                        }
                    };
                    ops.push((op, Some(w)));
                }
                let got = Rc::new(RefCell::new(Vec::new()));
                outs.push(got.clone());
                machine.install_kernel(
                    ProcId(2 + r as u16),
                    Box::new(TaggedScript { ops, at: 0, got }),
                    0,
                );
            }

            let res = machine.run(5_000_000_000);
            assert!(res.all_finished, "stalled: {:?}", res.finished);

            // Writers saw exactly their program-order folds.
            for (writer, expected) in writer_expected.iter().enumerate() {
                assert_eq!(
                    &*outs[writer].borrow(),
                    expected,
                    "writer {} diverged from its fold",
                    writer
                );
            }
            // Readers only ever saw genuine history values.
            let sets: Vec<std::collections::HashSet<Word>> = history
                .iter()
                .map(|h| h.iter().copied().collect())
                .collect();
            for reader in &outs[2..] {
                for &(w, v) in reader.borrow().iter() {
                    assert!(
                        sets[w].contains(&v),
                        "reader observed {} on word {}, not in history {:?}",
                        v,
                        w,
                        history[w]
                    );
                }
            }
            // Final memory is the last fold of every word.
            let finals = flush_read(&mut machine, &words, res.end + 1);
            for (w, &f) in finals.iter().enumerate() {
                assert_eq!(
                    f,
                    *history[w].last().unwrap(),
                    "word {} final value diverged",
                    w
                );
            }
        }
    }
}

/// Two ticket locks homed on different nodes, each serving half the
/// machine concurrently. Exclusion must hold per lock and neither lock's
/// traffic may stall the other (both groups finish).
#[test]
fn independent_locks_do_not_cross_talk() {
    for mech in Mechanism::ALL {
        let procs: u16 = 8;
        let rounds: u32 = 3;
        let mut machine = Machine::new(SystemConfig::with_procs(procs));
        let mut alloc = VarAlloc::new();
        let spec_a = TicketLockSpec::build(&mut alloc, mech, NodeId(0), rounds, 100);
        let spec_b = TicketLockSpec::build(&mut alloc, mech, NodeId(2), rounds, 100);
        let mk_check = |alloc: &mut VarAlloc, home| ExclusionCheck {
            addr: alloc.word(home),
            violations: Rc::new(std::cell::Cell::new(0)),
        };
        let check_a = mk_check(&mut alloc, NodeId(0));
        let check_b = mk_check(&mut alloc, NodeId(2));
        for p in 0..procs {
            let (spec, check) = if p < procs / 2 {
                (spec_a, check_a.clone())
            } else {
                (spec_b, check_b.clone())
            };
            let think = vec![60 + 13 * p as Cycle; rounds as usize];
            machine.install_kernel(
                ProcId(p),
                Box::new(TicketLockKernel::new(
                    spec,
                    think,
                    p as Word + 1,
                    Some(check),
                )),
                0,
            );
        }
        let res = machine.run(5_000_000_000);
        assert!(res.all_finished, "{mech:?} stalled: {:?}", res.finished);
        assert_eq!(check_a.violations.get(), 0, "{mech:?} lock A violated");
        assert_eq!(check_b.violations.get(), 0, "{mech:?} lock B violated");

        // Per-group mark analysis: within each lock's clientele, holders
        // never overlap.
        for (lo, hi) in [(0u16, procs / 2), (procs / 2, procs)] {
            let in_group = |p: &ProcId| -> bool { (lo..hi).contains(&p.0) };
            let mut acquires: Vec<Cycle> = machine
                .marks()
                .iter()
                .filter(|(p, id, _)| in_group(p) && id % 2 == 0 && *id >= 2)
                .map(|&(_, _, t)| t)
                .collect();
            let mut releases: Vec<Cycle> = machine
                .marks()
                .iter()
                .filter(|(p, id, _)| in_group(p) && id % 2 == 1 && *id >= 3)
                .map(|&(_, _, t)| t)
                .collect();
            acquires.sort_unstable();
            releases.sort_unstable();
            assert_eq!(acquires.len(), (procs / 2) as usize * rounds as usize);
            for k in 1..acquires.len() {
                assert!(
                    acquires[k] >= releases[k - 1],
                    "{mech:?} group {lo}..{hi}: overlapping critical sections"
                );
            }
        }
    }
}

/// Array-lock safety under random think times and critical-section
/// lengths, for every mechanism (the ticket and MCS analogues live
/// in `invariants.rs`).
#[test]
fn array_lock_excludes_under_random_think() {
    for mut rng in cases(module_path!(), "array_lock_excludes_under_random_think", 16) {
        let mech = [
            Mechanism::LlSc,
            Mechanism::Atomic,
            Mechanism::ActMsg,
            Mechanism::Mao,
            Mechanism::Amo,
        ][rng.below(5) as usize];
        let procs = [4u16, 8][rng.below(2) as usize];
        let rounds = rng.range(1..4) as u32;
        let thinks: Vec<u64> = (0..8 * 4).map(|_| rng.below(2_000)).collect();
        let cs = rng.range(20..600);
        let cfg = SystemConfig::with_procs(procs);
        let mut machine = Machine::new(cfg);
        let mut alloc = VarAlloc::new();
        let spec = ArrayLockSpec::build(&mut alloc, mech, NodeId(0), procs, rounds, cs);
        spec.init(&mut machine);
        let check = ExclusionCheck {
            addr: alloc.word(NodeId(0)),
            violations: Rc::new(std::cell::Cell::new(0)),
        };
        for p in 0..procs {
            let think: Vec<Cycle> = (0..rounds)
                .map(|r| 50 + thinks[(p as usize * 4 + r as usize) % thinks.len()])
                .collect();
            machine.install_kernel(
                ProcId(p),
                Box::new(ArrayLockKernel::new(
                    spec.clone(),
                    think,
                    p as Word + 1,
                    Some(check.clone()),
                )),
                0,
            );
        }
        let res = machine.run(5_000_000_000);
        assert!(res.all_finished, "{mech:?} stalled: {:?}", res.finished);
        assert_eq!(
            check.violations.get(),
            0,
            "{:?} array lock violated exclusion",
            mech
        );
    }
}

/// Composition: every processor runs a contended ticket-lock phase and
/// then immediately joins a barrier — early finishers' barrier traffic
/// interleaves with stragglers' lock traffic on the same fabric and
/// directories. The composition must neither deadlock nor break
/// exclusion, and must stay deterministic.
#[test]
fn lock_then_barrier_composition_runs_clean() {
    for mech in Mechanism::ALL {
        let run_once = || {
            let procs: u16 = 8;
            let rounds: u32 = 2;
            let episodes: u32 = 2;
            let mut machine = Machine::new(SystemConfig::with_procs(procs));
            let mut alloc = VarAlloc::new();
            let lock = TicketLockSpec::build(&mut alloc, mech, NodeId(0), rounds, 80);
            let barrier = BarrierSpec::build(&mut alloc, mech, NodeId(1), procs, episodes);
            let check = ExclusionCheck {
                addr: alloc.word(NodeId(0)),
                violations: Rc::new(std::cell::Cell::new(0)),
            };
            for p in 0..procs {
                let think = vec![40 + 11 * p as Cycle; rounds as usize];
                let work = vec![30; episodes as usize];
                let mut lock =
                    TicketLockKernel::new(lock, think, p as Word + 1, Some(check.clone()));
                let mut barrier = BarrierKernel::new(barrier, work);
                let mut locking = true;
                // The barrier phase starts fresh in the call where the
                // lock phase finishes, so no cycle is lost in between.
                let phases = move |mut last: Option<Outcome>| {
                    if locking {
                        match lock.next(last) {
                            Op::Done => (locking, last) = (false, None),
                            op => return op,
                        }
                    }
                    barrier.next(last)
                };
                machine.install_kernel(ProcId(p), Box::new(phases), 0);
            }
            let res = machine.run(5_000_000_000);
            assert!(
                res.all_finished,
                "{mech:?} composition stalled: {:?}",
                res.finished
            );
            assert_eq!(
                check.violations.get(),
                0,
                "{mech:?} composition broke exclusion"
            );
            (res.end, machine.marks().to_vec())
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "{mech:?} composed run is nondeterministic");
    }
}
