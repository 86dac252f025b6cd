//! Generators for every table and figure of the paper's evaluation,
//! expressed as campaign batches.
//!
//! Each generator expands its table into a flat list of [`RunSpec`]
//! cells — one simulator run each, including every tree-branching
//! candidate of a "best branching" search — hands the whole batch to
//! the [`Campaign`] scheduler (work-stealing pool + result cache), and
//! reduces the index-ordered artifacts into structured rows.
//! [`crate::render`] turns rows into text. Absolute cycle counts come
//! from our simulator, not the authors' testbed — the claims to check
//! are the *shapes*: orderings, approximate factors, and crossover
//! points (see EXPERIMENTS.md).

use crate::run::{RunArtifacts, RunSpec};
use crate::sched::Campaign;
use amo_sync::Mechanism;
use amo_types::Cycle;
use amo_workloads::app::{
    CsSensitivityRow, SelfSched, SelfSchedCell, SelfSchedRow, Signal, SignalResult, SyncTax,
    SyncTaxCell, SyncTaxRow,
};
use amo_workloads::runner::{BarrierBench, LockBench, LockKind};

/// Processor counts used by the paper for non-tree experiments.
pub const PAPER_SIZES: [u16; 7] = [4, 8, 16, 32, 64, 128, 256];
/// Processor counts used by the paper for tree experiments.
pub const TREE_SIZES: [u16; 5] = [16, 32, 64, 128, 256];

/// Mechanisms in the column order of Tables 2 and 3.
pub const TABLE_MECHS: [Mechanism; 4] = [
    Mechanism::ActMsg,
    Mechanism::Atomic,
    Mechanism::Mao,
    Mechanism::Amo,
];

/// Tree-table mechanism order (the paper's columns).
pub const TREE_MECHS: [Mechanism; 5] = [
    Mechanism::LlSc,
    Mechanism::ActMsg,
    Mechanism::Atomic,
    Mechanism::Mao,
    Mechanism::Amo,
];

/// Lock-table mechanism order (the paper's columns).
pub const LOCK_MECHS: [Mechanism; 5] = [
    Mechanism::LlSc,
    Mechanism::ActMsg,
    Mechanism::Atomic,
    Mechanism::Mao,
    Mechanism::Amo,
];

/// Mechanisms that support the MCS lock (everything with swap/cas).
pub const MCS_MECHS: [Mechanism; 4] = [
    Mechanism::LlSc,
    Mechanism::Atomic,
    Mechanism::Mao,
    Mechanism::Amo,
];

/// Branching factors a "best branching" tree search tries, as the paper
/// does ("we try all possible tree branching factors and use the one
/// that delivers the best performance"). Candidates at or above the
/// machine size are skipped.
pub const TREE_CANDIDATES: [u16; 6] = [2, 4, 8, 16, 32, 64];

fn tree_candidates(procs: u16) -> impl Iterator<Item = u16> {
    TREE_CANDIDATES.into_iter().filter(move |&b| b < procs)
}

/// First strict minimum of `avg_cycles` over `(candidate, artifact)`
/// pairs — identical to running the candidates serially and keeping a
/// strictly-better result, so the campaign form reproduces the old
/// `best_tree_barrier` choice bit-for-bit.
fn best_branching<'a>(
    pairs: impl Iterator<Item = (u16, &'a RunArtifacts)>,
) -> (u16, &'a RunArtifacts) {
    let mut best: Option<(u16, &RunArtifacts)> = None;
    for (b, art) in pairs {
        let better = match &best {
            None => true,
            Some((_, cur)) => art.num("avg_cycles") < cur.num("avg_cycles"),
        };
        if better {
            best = Some((b, art));
        }
    }
    best.expect("at least one branching candidate")
}

/// One row of Table 2 (plus the Figure 5 series for the same runs).
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Processor count.
    pub procs: u16,
    /// LL/SC baseline barrier time (cycles per episode).
    pub base_cycles: f64,
    /// Speedup over the baseline, per mechanism in [`TABLE_MECHS`] order.
    pub speedups: Vec<(Mechanism, f64)>,
    /// Figure 5: cycles-per-processor, for LL/SC then [`TABLE_MECHS`].
    pub cycles_per_proc: Vec<(Mechanism, f64)>,
}

/// Generate Table 2 and Figure 5: centralized barriers.
pub fn table2(c: &mut Campaign, sizes: &[u16], episodes: u32, warmup: u32) -> Vec<Table2Row> {
    // One cell per (size, mechanism), LL/SC baseline first in each row.
    let specs: Vec<RunSpec> = sizes
        .iter()
        .flat_map(|&procs| {
            std::iter::once(Mechanism::LlSc)
                .chain(TABLE_MECHS)
                .map(move |mech| {
                    RunSpec::Barrier(BarrierBench {
                        episodes,
                        warmup,
                        ..BarrierBench::paper(mech, procs)
                    })
                })
        })
        .collect();
    let results = c.run_ok(&specs);
    sizes
        .iter()
        .zip(results.chunks(1 + TABLE_MECHS.len()))
        .map(|(&procs, row)| {
            let base = row[0].num("avg_cycles");
            let mut speedups = Vec::new();
            let mut cpp = vec![(Mechanism::LlSc, row[0].num("cycles_per_proc"))];
            for (&mech, r) in TABLE_MECHS.iter().zip(&row[1..]) {
                speedups.push((mech, base / r.num("avg_cycles")));
                cpp.push((mech, r.num("cycles_per_proc")));
            }
            Table2Row {
                procs,
                base_cycles: base,
                speedups,
                cycles_per_proc: cpp,
            }
        })
        .collect()
}

/// One row of Table 3 (plus Figure 6 series).
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Processor count.
    pub procs: u16,
    /// Flat LL/SC baseline barrier time (denominator of all speedups).
    pub base_cycles: f64,
    /// Tree-barrier speedups over the flat LL/SC baseline, one per
    /// mechanism (LL/SC, ActMsg, Atomic, MAO, AMO), with the best
    /// branching factor found.
    pub tree_speedups: Vec<(Mechanism, u16, f64)>,
    /// Flat AMO speedup (the paper's last column).
    pub amo_flat_speedup: f64,
    /// Figure 6: cycles-per-processor of each tree barrier.
    pub cycles_per_proc: Vec<(Mechanism, f64)>,
}

/// Generate Table 3 and Figure 6: two-level combining-tree barriers.
/// Every branching candidate of every mechanism's tree search is its
/// own campaign cell, so the search parallelizes and caches per run.
pub fn table3(c: &mut Campaign, sizes: &[u16], episodes: u32, warmup: u32) -> Vec<Table3Row> {
    let mk = |mech, procs| BarrierBench {
        episodes,
        warmup,
        ..BarrierBench::paper(mech, procs)
    };
    // Per size: flat LL/SC baseline, every (mechanism, branching)
    // candidate, and the flat AMO barrier. Rows have a variable cell
    // count (candidates depend on the size), so results are re-sliced
    // by per-row counts.
    let mut specs: Vec<RunSpec> = Vec::new();
    for &procs in sizes {
        specs.push(RunSpec::Barrier(mk(Mechanism::LlSc, procs)));
        for mech in TREE_MECHS {
            for b in tree_candidates(procs) {
                specs.push(RunSpec::Barrier(mk(mech, procs).with_tree(b)));
            }
        }
        specs.push(RunSpec::Barrier(mk(Mechanism::Amo, procs)));
    }
    let results = c.run_ok(&specs);
    let mut at = 0;
    sizes
        .iter()
        .map(|&procs| {
            let ncand = tree_candidates(procs).count();
            let n = 2 + TREE_MECHS.len() * ncand;
            let row = &results[at..at + n];
            at += n;
            let base = row[0].num("avg_cycles");
            let amo_flat = &row[n - 1];
            let mut tree_speedups = Vec::new();
            let mut cpp = Vec::new();
            for (i, &mech) in TREE_MECHS.iter().enumerate() {
                let arts = &row[1 + i * ncand..1 + (i + 1) * ncand];
                let (b, best) = best_branching(tree_candidates(procs).zip(arts));
                tree_speedups.push((mech, b, base / best.num("avg_cycles")));
                cpp.push((mech, best.num("cycles_per_proc")));
            }
            Table3Row {
                procs,
                base_cycles: base,
                tree_speedups,
                amo_flat_speedup: base / amo_flat.num("avg_cycles"),
                cycles_per_proc: cpp,
            }
        })
        .collect()
}

/// One row of Table 4.
#[derive(Clone, Debug)]
pub struct Table4Row {
    /// Processor count.
    pub procs: u16,
    /// LL/SC ticket-lock baseline time.
    pub base_cycles: f64,
    /// Per mechanism (paper order LL/SC, ActMsg, Atomic, MAO, AMO):
    /// (mechanism, ticket speedup, array speedup) over the LL/SC ticket
    /// lock.
    pub speedups: Vec<(Mechanism, f64, f64)>,
}

/// Generate Table 4: ticket and array locks.
pub fn table4(c: &mut Campaign, sizes: &[u16], rounds: u32) -> Vec<Table4Row> {
    // Per size: every (mechanism, kind) pair; the LL/SC ticket cell
    // doubles as the row's baseline.
    let per_row: Vec<(Mechanism, LockKind)> = LOCK_MECHS
        .iter()
        .flat_map(|&m| [(m, LockKind::Ticket), (m, LockKind::Array)])
        .collect();
    let specs: Vec<RunSpec> = sizes
        .iter()
        .flat_map(|&procs| {
            per_row.iter().map(move |&(mech, kind)| {
                RunSpec::Lock(LockBench {
                    rounds,
                    ..LockBench::paper(mech, kind, procs)
                })
            })
        })
        .collect();
    let results = c.run_ok(&specs);
    sizes
        .iter()
        .zip(results.chunks(per_row.len()))
        .map(|(&procs, row)| {
            let base = row[0].num("total_cycles");
            let speedups = LOCK_MECHS
                .iter()
                .enumerate()
                .map(|(i, &mech)| {
                    (
                        mech,
                        base / row[2 * i].num("total_cycles"),
                        base / row[2 * i + 1].num("total_cycles"),
                    )
                })
                .collect();
            Table4Row {
                procs,
                base_cycles: base,
                speedups,
            }
        })
        .collect()
}

/// Figure 7: ticket-lock network traffic, normalized to LL/SC.
#[derive(Clone, Debug)]
pub struct Figure7Row {
    /// Processor count (paper: 128 and 256).
    pub procs: u16,
    /// (mechanism, traffic bytes, normalized to LL/SC).
    pub traffic: Vec<(Mechanism, u64, f64)>,
}

/// Generate Figure 7 for the given sizes.
pub fn figure7(c: &mut Campaign, sizes: &[u16], rounds: u32) -> Vec<Figure7Row> {
    let specs: Vec<RunSpec> = sizes
        .iter()
        .flat_map(|&procs| {
            LOCK_MECHS.iter().map(move |&mech| {
                RunSpec::Lock(LockBench {
                    rounds,
                    ..LockBench::paper(mech, LockKind::Ticket, procs)
                })
            })
        })
        .collect();
    let results = c.run_ok(&specs);
    sizes
        .iter()
        .zip(results.chunks(LOCK_MECHS.len()))
        .map(|(&procs, row)| {
            let base_bytes = row[0].stats.total_bytes();
            let traffic = LOCK_MECHS
                .iter()
                .zip(row)
                .map(|(&mech, art)| {
                    let bytes = art.stats.total_bytes();
                    (mech, bytes, bytes as f64 / base_bytes as f64)
                })
                .collect();
            Figure7Row { procs, traffic }
        })
        .collect()
}

/// Figure 1 message census: one barrier episode on four processors,
/// LL/SC vs AMO. Returns (llsc one-way messages, amo one-way messages).
pub fn figure1(c: &mut Campaign) -> (u64, u64) {
    let mk = |mech| {
        RunSpec::Barrier(BarrierBench {
            episodes: 2,
            warmup: 1,
            max_skew: 200,
            ..BarrierBench::paper(mech, 4)
        })
    };
    let results = c.run_ok(&[mk(Mechanism::LlSc), mk(Mechanism::Amo)]);
    // Messages for the measured (warm) episode ≈ total − cold episode;
    // report the per-episode steady-state count.
    (
        results[0].stats.total_msgs() / 2,
        results[1].stats.total_msgs() / 2,
    )
}

// ---------------------------------------------------------------------
// Extension experiments (beyond the paper's tables; see EXPERIMENTS.md)
// ---------------------------------------------------------------------

/// One row of the MCS-lock extension table.
#[derive(Clone, Debug)]
pub struct ExtLocksRow {
    /// Processor count.
    pub procs: u16,
    /// LL/SC ticket-lock baseline time (the same denominator Table 4
    /// uses).
    pub base_cycles: f64,
    /// MCS speedup over that baseline, per mechanism in [`MCS_MECHS`]
    /// order.
    pub mcs_speedups: Vec<(Mechanism, f64)>,
}

/// Extension: the MCS list-based queue lock across mechanisms,
/// normalized like Table 4.
pub fn ext_locks(c: &mut Campaign, sizes: &[u16], rounds: u32) -> Vec<ExtLocksRow> {
    // Per size: the LL/SC ticket baseline, then one MCS run per
    // mechanism.
    let per_row: Vec<(Mechanism, LockKind)> = std::iter::once((Mechanism::LlSc, LockKind::Ticket))
        .chain(MCS_MECHS.iter().map(|&m| (m, LockKind::Mcs)))
        .collect();
    let specs: Vec<RunSpec> = sizes
        .iter()
        .flat_map(|&procs| {
            per_row.iter().map(move |&(mech, kind)| {
                RunSpec::Lock(LockBench {
                    rounds,
                    ..LockBench::paper(mech, kind, procs)
                })
            })
        })
        .collect();
    let results = c.run_ok(&specs);
    sizes
        .iter()
        .zip(results.chunks(per_row.len()))
        .map(|(&procs, row)| {
            let base = row[0].num("total_cycles");
            let mcs_speedups = MCS_MECHS
                .iter()
                .zip(&row[1..])
                .map(|(&mech, art)| (mech, base / art.num("total_cycles")))
                .collect();
            ExtLocksRow {
                procs,
                base_cycles: base,
                mcs_speedups,
            }
        })
        .collect()
}

/// One row of the barrier-algorithm extension table.
#[derive(Clone, Debug)]
pub struct ExtBarriersRow {
    /// Processor count.
    pub procs: u16,
    /// (label, cycles/episode, speedup over centralized LL/SC).
    pub entries: Vec<(&'static str, f64, f64)>,
}

/// Column labels of the barrier-algorithm extension table.
const EXT_BARRIER_LABELS: [&str; 5] = [
    "LL/SC central",
    "LL/SC dissem",
    "LL/SC tree*",
    "AMO central",
    "AMO dissem",
];

/// Extension: dissemination barriers against the paper's algorithms,
/// for the baseline and AMO mechanisms.
pub fn ext_barriers(
    c: &mut Campaign,
    sizes: &[u16],
    episodes: u32,
    warmup: u32,
) -> Vec<ExtBarriersRow> {
    let mk = |mech, procs| BarrierBench {
        episodes,
        warmup,
        ..BarrierBench::paper(mech, procs)
    };
    // Per size: the five variants in label order, with the LL/SC tree*
    // search expanded to one cell per branching candidate.
    let mut specs: Vec<RunSpec> = Vec::new();
    for &procs in sizes {
        specs.push(RunSpec::Barrier(mk(Mechanism::LlSc, procs)));
        specs.push(RunSpec::Barrier(
            mk(Mechanism::LlSc, procs).with_dissemination(),
        ));
        for b in tree_candidates(procs) {
            specs.push(RunSpec::Barrier(mk(Mechanism::LlSc, procs).with_tree(b)));
        }
        specs.push(RunSpec::Barrier(mk(Mechanism::Amo, procs)));
        specs.push(RunSpec::Barrier(
            mk(Mechanism::Amo, procs).with_dissemination(),
        ));
    }
    let results = c.run_ok(&specs);
    let mut at = 0;
    sizes
        .iter()
        .map(|&procs| {
            let ncand = tree_candidates(procs).count();
            let n = 4 + ncand;
            let row = &results[at..at + n];
            at += n;
            let tree_best = best_branching(tree_candidates(procs).zip(&row[2..2 + ncand])).1;
            let cycles: [f64; 5] = [
                row[0].num("avg_cycles"),
                row[1].num("avg_cycles"),
                tree_best.num("avg_cycles"),
                row[2 + ncand].num("avg_cycles"),
                row[3 + ncand].num("avg_cycles"),
            ];
            let base = cycles[0];
            let entries = EXT_BARRIER_LABELS
                .iter()
                .zip(cycles)
                .map(|(&label, cyc)| (label, cyc, base / cyc))
                .collect();
            ExtBarriersRow { procs, entries }
        })
        .collect()
}

/// One row of the k-level-tree extension study (the paper's future-work
/// question).
#[derive(Clone, Debug)]
pub struct ExtKtreeRow {
    /// Processor count.
    pub procs: u16,
    /// Flat AMO barrier cycles/episode.
    pub flat_cycles: f64,
    /// (branching, tree depth, cycles/episode, ratio flat/ktree — above
    /// 1 means the deep tree *helps*).
    pub ktrees: Vec<(u16, usize, f64, f64)>,
}

/// Extension: can deep AMO combining trees beat the flat AMO barrier at
/// scale? (Paper Sec. 4.2.2: "part of our future work".)
pub fn ext_ktree(c: &mut Campaign, sizes: &[u16], episodes: u32, warmup: u32) -> Vec<ExtKtreeRow> {
    let branchings = |procs: u16| [2u16, 4, 8, 16].into_iter().filter(move |&b| b < procs);
    let mk = |procs| BarrierBench {
        episodes,
        warmup,
        ..BarrierBench::paper(Mechanism::Amo, procs)
    };
    let mut specs: Vec<RunSpec> = Vec::new();
    for &procs in sizes {
        specs.push(RunSpec::Barrier(mk(procs)));
        for b in branchings(procs) {
            specs.push(RunSpec::Barrier(mk(procs).with_ktree(b)));
        }
    }
    let results = c.run_ok(&specs);
    let mut at = 0;
    sizes
        .iter()
        .map(|&procs| {
            let n = 1 + branchings(procs).count();
            let row = &results[at..at + n];
            at += n;
            let flat_cycles = row[0].num("avg_cycles");
            let ktrees = branchings(procs)
                .zip(&row[1..])
                .map(|(b, art)| {
                    let depth = amo_sync::KTreeSpec::uniform_depth(procs, b);
                    let cycles = art.num("avg_cycles");
                    (b, depth, cycles, flat_cycles / cycles)
                })
                .collect();
            ExtKtreeRow {
                procs,
                flat_cycles,
                ktrees,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Application studies as campaign batches
// ---------------------------------------------------------------------

/// The synchronization-tax study as one campaign batch (rows match
/// `amo_workloads::app::sync_tax`).
pub fn sync_tax(
    c: &mut Campaign,
    procs: u16,
    work_grains: &[Cycle],
    steps: u32,
    warmup: u32,
) -> Vec<SyncTaxRow> {
    let specs: Vec<RunSpec> = work_grains
        .iter()
        .flat_map(|&grain| {
            Mechanism::ALL.iter().map(move |&mech| {
                RunSpec::SyncTax(SyncTax {
                    mech,
                    procs,
                    grain,
                    steps,
                    warmup,
                })
            })
        })
        .collect();
    let results = c.run_ok(&specs);
    work_grains
        .iter()
        .zip(results.chunks(Mechanism::ALL.len()))
        .map(|(&grain, row)| SyncTaxRow {
            work_grain: grain,
            cells: Mechanism::ALL
                .iter()
                .zip(row)
                .map(|(&mech, art)| SyncTaxCell {
                    mech,
                    step_cycles: art.num("step_cycles"),
                    tax: art.num("tax"),
                })
                .collect(),
        })
        .collect()
}

/// The critical-section sensitivity study as one campaign batch (rows
/// match `amo_workloads::app::cs_sensitivity`).
pub fn cs_sensitivity(
    c: &mut Campaign,
    procs: u16,
    cs_lengths: &[Cycle],
    rounds: u32,
) -> Vec<CsSensitivityRow> {
    let specs: Vec<RunSpec> = cs_lengths
        .iter()
        .flat_map(|&cs| {
            Mechanism::ALL.iter().map(move |&mech| {
                RunSpec::Lock(LockBench {
                    rounds,
                    cs_cycles: cs,
                    ..LockBench::paper(mech, LockKind::Ticket, procs)
                })
            })
        })
        .collect();
    let results = c.run_ok(&specs);
    cs_lengths
        .iter()
        .zip(results.chunks(Mechanism::ALL.len()))
        .map(|(&cs, row)| CsSensitivityRow {
            cs_cycles: cs,
            times: Mechanism::ALL
                .iter()
                .zip(row)
                .map(|(&mech, art)| (mech, art.num("total_cycles") as u64))
                .collect(),
        })
        .collect()
}

/// The signalling study as one campaign batch, all mechanisms.
pub fn signal_latency(c: &mut Campaign, pairs: u16, rounds: u32) -> Vec<SignalResult> {
    let specs: Vec<RunSpec> = Mechanism::ALL
        .iter()
        .map(|&mech| {
            RunSpec::Signal(Signal {
                mech,
                pairs,
                rounds,
            })
        })
        .collect();
    c.run_ok(&specs)
        .iter()
        .zip(Mechanism::ALL)
        .map(|(art, mech)| SignalResult {
            mech,
            mean_latency: art.num("mean_latency"),
        })
        .collect()
}

/// The self-scheduling study as one campaign batch (rows match
/// `amo_workloads::app::self_scheduling`).
pub fn self_scheduling(
    c: &mut Campaign,
    procs: u16,
    tasks: u32,
    task_grains: &[Cycle],
) -> Vec<SelfSchedRow> {
    let specs: Vec<RunSpec> = task_grains
        .iter()
        .flat_map(|&grain| {
            Mechanism::ALL.iter().map(move |&mech| {
                RunSpec::SelfSched(SelfSched {
                    mech,
                    procs,
                    tasks,
                    grain,
                })
            })
        })
        .collect();
    let results = c.run_ok(&specs);
    task_grains
        .iter()
        .zip(results.chunks(Mechanism::ALL.len()))
        .map(|(&grain, row)| SelfSchedRow {
            task_grain: grain,
            cells: Mechanism::ALL
                .iter()
                .zip(row)
                .map(|(&mech, art)| SelfSchedCell {
                    mech,
                    total_cycles: art.num("total_cycles") as u64,
                })
                .collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Full-document regeneration
// ---------------------------------------------------------------------

/// Parameters of one regeneration pass over the paper's artifacts.
#[derive(Clone, Debug)]
pub struct ArtifactProfile {
    /// Processor counts for Tables 2/4 and Figure 5.
    pub sizes: Vec<u16>,
    /// Processor counts for Table 3 / Figure 6 (tree barriers).
    pub tree_sizes: Vec<u16>,
    /// Processor counts for Figure 7 (lock traffic).
    pub traffic_sizes: Vec<u16>,
    /// Barrier episodes (including warm-up).
    pub episodes: u32,
    /// Warm-up episodes.
    pub warmup: u32,
    /// Lock acquisitions per processor.
    pub rounds: u32,
}

impl ArtifactProfile {
    /// The paper's full sweep (4–256 processors).
    pub fn paper() -> Self {
        ArtifactProfile {
            sizes: PAPER_SIZES.to_vec(),
            tree_sizes: TREE_SIZES.to_vec(),
            traffic_sizes: vec![128, 256],
            episodes: 10,
            warmup: 2,
            rounds: 8,
        }
    }

    /// The profile a spec or command line names: `paper` or `quick`.
    pub fn named(name: &str) -> Result<Self, String> {
        match name {
            "paper" => Ok(Self::paper()),
            "quick" => Ok(Self::quick()),
            other => Err(format!("unknown profile {other:?} (paper, quick)")),
        }
    }

    /// A fast profile for smoke tests.
    pub fn quick() -> Self {
        ArtifactProfile {
            sizes: vec![4, 8, 16],
            tree_sizes: vec![16],
            traffic_sizes: vec![16],
            episodes: 5,
            warmup: 1,
            rounds: 4,
        }
    }
}

/// Every artifact name [`render_artifacts`] understands, in document
/// order.
pub const ARTIFACT_NAMES: [&str; 14] = [
    "table2",
    "figure5",
    "table3",
    "figure6",
    "table4",
    "figure7",
    "ext-locks",
    "ext-barriers",
    "ext-ktree",
    "ext-app",
    "ext-cs",
    "ext-signal",
    "ext-selfsched",
    "figure1",
];

/// Reject a selection naming anything but [`ARTIFACT_NAMES`] or `all`:
/// [`render_artifacts`] would silently render nothing for it.
pub fn check_artifact_names(names: &[String]) -> Result<(), String> {
    match names
        .iter()
        .find(|n| *n != "all" && !ARTIFACT_NAMES.contains(&n.as_str()))
    {
        None => Ok(()),
        Some(bad) => Err(format!(
            "unknown artifact {bad:?} (all, {})",
            ARTIFACT_NAMES.join(", ")
        )),
    }
}

/// Regenerate the selected artifacts (`want` filters by name, e.g.
/// `"table2"`; pass `|_| true` for everything) and return the rendered
/// document — the exact bytes of the committed `tables_output.txt` when
/// run with the paper profile and every artifact selected. `csv`
/// switches Tables 2–4 and Figure 7 to their CSV renderers.
pub fn render_artifacts(
    c: &mut Campaign,
    profile: &ArtifactProfile,
    want: &dyn Fn(&str) -> bool,
    csv: bool,
) -> String {
    use crate::render;
    let mut out = String::new();
    // A text section is followed by a blank line (the shell bins used
    // `println!("{section}")` on strings already ending in '\n').
    fn text(out: &mut String, s: String) {
        out.push_str(&s);
        out.push('\n');
    }

    if want("table2") || want("figure5") {
        let rows = table2(c, &profile.sizes, profile.episodes, profile.warmup);
        if csv {
            out.push_str(&render::csv_table2(&rows));
        } else {
            if want("table2") {
                text(&mut out, render::render_table2(&rows));
            }
            if want("figure5") {
                text(&mut out, render::render_figure5(&rows));
            }
        }
    }

    if want("table3") || want("figure6") {
        let rows = table3(c, &profile.tree_sizes, profile.episodes, profile.warmup);
        if csv {
            out.push_str(&render::csv_table3(&rows));
        } else {
            if want("table3") {
                text(&mut out, render::render_table3(&rows));
            }
            if want("figure6") {
                text(&mut out, render::render_figure6(&rows));
            }
        }
    }

    if want("table4") {
        let rows = table4(c, &profile.sizes, profile.rounds);
        if csv {
            out.push_str(&render::csv_table4(&rows));
        } else {
            text(&mut out, render::render_table4(&rows));
        }
    }

    if want("figure7") {
        let rows = figure7(c, &profile.traffic_sizes, profile.rounds);
        if csv {
            out.push_str(&render::csv_figure7(&rows));
        } else {
            text(&mut out, render::render_figure7(&rows));
        }
    }

    if want("ext-locks") {
        let rows = ext_locks(c, &profile.sizes, profile.rounds);
        text(&mut out, render::render_ext_locks(&rows));
    }

    if want("ext-barriers") {
        let rows = ext_barriers(c, &profile.tree_sizes, profile.episodes, profile.warmup);
        text(&mut out, render::render_ext_barriers(&rows));
    }

    if want("ext-ktree") {
        let sizes: Vec<u16> = profile
            .tree_sizes
            .iter()
            .copied()
            .filter(|&s| s >= 16)
            .collect();
        let rows = ext_ktree(c, &sizes, profile.episodes, profile.warmup);
        text(&mut out, render::render_ext_ktree(&rows));
    }

    if want("ext-app") {
        let procs = *profile.sizes.last().unwrap_or(&16).min(&64);
        let rows = sync_tax(c, procs, &[1_000, 10_000, 100_000], 8, 2);
        text(&mut out, render::render_sync_tax(procs, &rows));
    }

    if want("ext-cs") {
        let procs = *profile.sizes.last().unwrap_or(&16).min(&32);
        let rows = cs_sensitivity(c, procs, &[0, 250, 1_000, 5_000], profile.rounds);
        text(&mut out, render::render_cs_sensitivity(procs, &rows));
    }

    if want("ext-signal") {
        let pairs = 8u16;
        let results = signal_latency(c, pairs, profile.rounds);
        text(&mut out, render::render_signal(pairs, &results));
    }

    if want("ext-selfsched") {
        let procs = *profile.sizes.last().unwrap_or(&16).min(&64);
        let tasks = 256;
        let rows = self_scheduling(c, procs, tasks, &[50, 500, 5_000]);
        text(&mut out, render::render_self_sched(procs, tasks, &rows));
    }

    if want("figure1") {
        let (llsc, amo) = figure1(c);
        out.push_str(&format!(
            "Figure 1 census (4 CPUs, one warm episode):\n  \
             LL/SC barrier: ~{llsc} one-way messages\n  \
             AMO barrier:   ~{amo} one-way messages\n\n"
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_names_are_exactly_what_render_artifacts_asks_for() {
        let asked = std::cell::RefCell::new(Vec::new());
        let want = |n: &str| {
            if !asked.borrow().iter().any(|a| a == n) {
                asked.borrow_mut().push(n.to_string());
            }
            false
        };
        let doc = render_artifacts(
            &mut Campaign::uncached(),
            &ArtifactProfile::quick(),
            &want,
            false,
        );
        assert_eq!(doc, "", "nothing wanted, nothing rendered");
        assert_eq!(*asked.borrow(), ARTIFACT_NAMES);
        assert!(check_artifact_names(&["all".into(), "figure1".into()]).is_ok());
        let err = check_artifact_names(&["tabel2".into()]).unwrap_err();
        assert!(
            err.contains("\"tabel2\"") && err.contains("table2"),
            "{err}"
        );
    }

    #[test]
    fn table2_small_shapes() {
        let mut c = Campaign::uncached();
        let rows = table2(&mut c, &[4, 8], 4, 1);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            let amo = row
                .speedups
                .iter()
                .find(|(m, _)| *m == Mechanism::Amo)
                .unwrap()
                .1;
            assert!(
                amo > 1.0,
                "AMO must beat LL/SC at {} procs: {amo}",
                row.procs
            );
        }
        // Scaling: AMO's advantage grows with the machine.
        let amo4 = rows[0]
            .speedups
            .iter()
            .find(|(m, _)| *m == Mechanism::Amo)
            .unwrap()
            .1;
        let amo8 = rows[1]
            .speedups
            .iter()
            .find(|(m, _)| *m == Mechanism::Amo)
            .unwrap()
            .1;
        assert!(amo8 > amo4, "AMO speedup should grow: {amo4} -> {amo8}");
        // Cell accounting: 2 sizes × 5 mechanisms, no duplicates.
        assert_eq!(c.counters.requested, 10);
        assert_eq!(c.counters.unique, 10);
    }

    #[test]
    fn table4_small_shapes() {
        let mut c = Campaign::uncached();
        let rows = table4(&mut c, &[4], 4);
        let amo = rows[0]
            .speedups
            .iter()
            .find(|(m, ..)| *m == Mechanism::Amo)
            .unwrap();
        assert!(amo.1 > 1.0, "AMO ticket lock must beat LL/SC: {}", amo.1);
    }

    #[test]
    fn ext_generators_smoke() {
        let mut c = Campaign::uncached();
        let locks = ext_locks(&mut c, &[4], 2);
        assert_eq!(locks[0].mcs_speedups.len(), 4);
        assert!(locks[0].mcs_speedups.iter().all(|&(_, s)| s > 0.0));

        let barriers = ext_barriers(&mut c, &[8], 3, 1);
        assert_eq!(barriers[0].entries.len(), 5);
        let amo = barriers[0]
            .entries
            .iter()
            .find(|(l, ..)| *l == "AMO central")
            .unwrap();
        assert!(amo.2 > 1.0, "AMO central beats the baseline");

        let ktrees = ext_ktree(&mut c, &[8], 3, 1);
        assert!(!ktrees[0].ktrees.is_empty());
        for &(b, depth, _, ratio) in &ktrees[0].ktrees {
            assert!(depth >= 1, "b={b}");
            assert!(ratio > 0.0);
        }
    }

    #[test]
    fn renderers_cover_extensions() {
        use crate::render;
        let mut c = Campaign::uncached();
        let locks = ext_locks(&mut c, &[4], 2);
        assert!(render::render_ext_locks(&locks).contains("MCS"));
        let barriers = ext_barriers(&mut c, &[8], 3, 1);
        assert!(render::render_ext_barriers(&barriers).contains("dissem"));
        let ktrees = ext_ktree(&mut c, &[8], 3, 1);
        assert!(render::render_ext_ktree(&ktrees).contains("flat"));
        // CSV renderers emit headers and one line per cell.
        let t2 = table2(&mut c, &[4], 3, 1);
        let csv = render::csv_table2(&t2);
        assert!(csv.starts_with("table,procs,mech"));
        assert_eq!(csv.lines().count(), 1 + 5);
        let t4 = table4(&mut c, &[4], 2);
        assert_eq!(render::csv_table4(&t4).lines().count(), 1 + 10);
    }

    #[test]
    fn figure7_small() {
        let mut c = Campaign::uncached();
        let rows = figure7(&mut c, &[8], 3);
        let amo = rows[0]
            .traffic
            .iter()
            .find(|(m, ..)| *m == Mechanism::Amo)
            .unwrap();
        assert!(amo.2 < 1.0, "AMO traffic must be below LL/SC: {}", amo.2);
    }

    #[test]
    fn tree_search_matches_serial_best_tree_barrier() {
        // The campaign's per-candidate expansion must pick the same
        // branching and cycles as the retained serial search.
        let base = BarrierBench {
            episodes: 3,
            warmup: 1,
            ..BarrierBench::paper(Mechanism::Atomic, 16)
        };
        let (serial_b, serial_r) = amo_workloads::runner::best_tree_barrier(base);
        let mut c = Campaign::uncached();
        let specs: Vec<RunSpec> = tree_candidates(16)
            .map(|b| RunSpec::Barrier(base.with_tree(b)))
            .collect();
        let arts = c.run_ok(&specs);
        let (b, best) = best_branching(tree_candidates(16).zip(arts.iter()));
        assert_eq!(b, serial_b);
        assert_eq!(best.num("avg_cycles"), serial_r.timing.avg_cycles);
    }
}
