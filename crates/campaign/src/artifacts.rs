//! Every table and figure of the paper's evaluation as a *table
//! function*: code that builds [`Table`]s and asks for each number by
//! describing the run that produces it.
//!
//! A table function receives a `Cells` handle and is written as if
//! every cell were simulated on demand:
//! `base / cells.num(RunSpec::Barrier(p.barrier(mech, procs)), "avg_cycles")`.
//! It never builds a run list and never indexes into one. `evaluate`
//! is the one planner behind that illusion: it calls the function with
//! nothing known (every answer NaN or 0) to record what it asks for,
//! hands the recorded runs — deduplicated by content key, in
//! first-asked order — to the [`Campaign`] scheduler as **one batch**
//! (sweep pool + result cache), and calls the function again
//! with the results, until a call asks for nothing new. Every candidate
//! of a "best branching" tree search is its own cell, so the search
//! parallelizes and caches per run.
//!
//! `GENERATORS` lists the twelve table functions in document order;
//! artefacts that share their cells (Table 2 / Figure 5, Table 3 /
//! Figure 6) share a function, and each function's cells are one batch.
//! [`tables`] evaluates the selected ones and [`render_artifacts`]
//! formats what it returns. Ten artefacts are grids and print through
//! `Table::text`; four are not — two numbers per cell, a ragged list,
//! a transposed list, a sentence — and keep a short layout function
//! beside their table function instead of bending the grid around
//! them. Their numbers are a [`Table`] all the same, so CSV output and
//! [`Table::value`] cover all fourteen.
//!
//! Absolute cycle counts come from our simulator, not the authors'
//! testbed — the claims to check are the *shapes*: orderings,
//! approximate factors, and crossover points (see EXPERIMENTS.md, and
//! `tests/campaign.rs` where each is a checked predicate).

use crate::run::{number, RunSpec};
use crate::sched::Campaign;
use crate::table::{Table, CSV_HEADER};
use amo_sync::{KTreeSpec, Mechanism};
use amo_types::Stats;
use amo_workloads::app::{SelfSched, Signal, SyncTax};
use amo_workloads::runner::{BarrierBench, LockBench, LockKind};
use std::collections::HashMap;

/// Processor counts used by the paper for non-tree experiments.
pub const PAPER_SIZES: [u16; 7] = [4, 8, 16, 32, 64, 128, 256];
/// Processor counts used by the paper for tree experiments.
pub(crate) const TREE_SIZES: [u16; 5] = [16, 32, 64, 128, 256];

/// Mechanisms in the column order of Table 2 (every one but the LL/SC
/// baseline).
pub(crate) const TABLE_MECHS: [Mechanism; 4] = [
    Mechanism::ActMsg,
    Mechanism::Atomic,
    Mechanism::Mao,
    Mechanism::Amo,
];

/// Mechanisms that support the MCS lock (everything with swap/cas).
pub(crate) const MCS_MECHS: [Mechanism; 4] = [
    Mechanism::LlSc,
    Mechanism::Atomic,
    Mechanism::Mao,
    Mechanism::Amo,
];

/// Branching factors a "best branching" tree search tries, as the paper
/// does ("we try all possible tree branching factors and use the one
/// that delivers the best performance"). Candidates at or above the
/// machine size are skipped.
pub(crate) const TREE_CANDIDATES: [u16; 6] = [2, 4, 8, 16, 32, 64];

/// Fan-ins the deep-tree study tries.
const KTREE_BRANCHINGS: [u16; 4] = [2, 4, 8, 16];

// ---------------------------------------------------------------------
// Ask by description: `Cells` and the planner
// ---------------------------------------------------------------------

/// What a table function asks its numbers from. Each question names the
/// run that answers it; the same run asked twice — even through two
/// `RunSpec` values that canonicalize to one document — is one cell.
#[derive(Default)]
pub(crate) struct Cells {
    /// Content key → position in `known` followed by `asked`.
    index: HashMap<(u64, u64), usize>,
    /// Answers of the batches run so far, in the order they were asked.
    known: Vec<Answer>,
    /// Runs asked for since the last batch, first-asked order.
    asked: Vec<RunSpec>,
    /// Beside `asked`: whether a `stat` question reads the run's
    /// statistics.
    asked_stats: Vec<bool>,
}

/// What a table function reads of one run: its named scalars, and its
/// statistics only if a `stat` question asked for them — at 2.7 KB and
/// up a run, a batch's statistics would otherwise be most of a warm
/// render's memory.
#[derive(Default)]
struct Answer {
    numbers: Vec<(String, f64)>,
    stats: Option<Box<Stats>>,
}

impl Cells {
    /// Position of the run `spec` describes, asking for it if it is new.
    fn at(&mut self, spec: RunSpec) -> usize {
        let next = self.known.len() + self.asked.len();
        let at = *self.index.entry(spec.key()).or_insert(next);
        if at == next {
            self.asked.push(spec);
            self.asked_stats.push(false);
        }
        at
    }

    /// The named scalar of the run `spec` describes; NaN while the run
    /// is only planned.
    pub(crate) fn num(&mut self, spec: RunSpec, name: &str) -> f64 {
        let at = self.at(spec);
        self.known
            .get(at)
            .map_or(f64::NAN, |a| number(&a.numbers, name))
    }

    /// A counter of the run's machine statistics; 0 while the run is
    /// only planned. Only the round that first asks for a run can ask
    /// for its statistics: a run first asked for by `num` keeps its
    /// numbers alone, and a later `stat` question on it panics.
    pub(crate) fn stat(&mut self, spec: RunSpec, of: fn(&Stats) -> u64) -> u64 {
        let at = self.at(spec);
        match self.known.get(at) {
            Some(a) => of(a.stats.as_deref().expect(
                "a run's statistics are asked for in the round that first asks for the run",
            )),
            None => {
                self.asked_stats[at - self.known.len()] = true;
                0
            }
        }
    }
}

/// Evaluate a table function: run what it asks for, one campaign batch
/// per round of questions, until it has every answer. A function whose
/// questions do not depend on earlier answers — all of this module's —
/// costs exactly one batch. Which runs a later round asks for may depend
/// on answers, but whether a run's statistics are read may not: `stat`
/// must be asked in the same round as the run's first question (see
/// [`Cells::stat`]).
pub(crate) fn evaluate<T>(c: &mut Campaign, table: impl Fn(&mut Cells) -> T) -> T {
    let mut cells = Cells::default();
    loop {
        let out = table(&mut cells);
        if cells.asked.is_empty() {
            return out;
        }
        let batch = std::mem::take(&mut cells.asked);
        let keep_stats = std::mem::take(&mut cells.asked_stats);
        let first = cells.known.len();
        cells
            .known
            .resize_with(first + batch.len(), Answer::default);
        c.run_each(&batch, |i, outcome| {
            let art = outcome.unwrap_or_else(|e| panic!("campaign cell failed: {e}"));
            cells.known[first + i] = Answer {
                numbers: art.numbers,
                stats: keep_stats[i].then(|| Box::new(art.stats)),
            };
        });
    }
}

/// Best tree barrier over [`TREE_CANDIDATES`]: the first strict minimum
/// of `avg_cycles`, exactly what running the candidates serially and
/// keeping a strictly better result chooses (`best_tree_barrier`).
/// Returns the winning branching and its bench.
fn best_tree(cells: &mut Cells, flat: BarrierBench) -> (u16, BarrierBench) {
    let mut best: Option<(u16, f64)> = None;
    for b in TREE_CANDIDATES.into_iter().filter(|&b| b < flat.procs) {
        let cycles = cells.num(RunSpec::Barrier(flat.with_tree(b)), "avg_cycles");
        if best.is_none_or(|(_, least)| cycles < least) {
            best = Some((b, cycles));
        }
    }
    let (b, _) = best.expect("at least one branching candidate");
    (b, flat.with_tree(b))
}

// ---------------------------------------------------------------------
// The paper's tables and figures
// ---------------------------------------------------------------------

const CPUS: (&str, usize) = ("CPUs", 5);

/// Table 2 and Figure 5: centralized barriers, as speedup over the
/// LL/SC baseline and as cycles per processor.
fn table2_figure5(cells: &mut Cells, p: &ArtifactProfile) -> Vec<Table> {
    let title = "Table 2. Performance of different barriers.";
    let mut t2 = Table::new("table2", title, CPUS, 60);
    for m in TABLE_MECHS {
        t2.column(m.label(), 8, 2).bar = m == Mechanism::Amo;
    }
    t2.column("LL/SC cycles", 12, 0);
    let title = "Figure 5. Cycles-per-processor of different barriers.";
    let mut f5 = Table::new("figure5", title, CPUS, 58);
    for m in Mechanism::ALL {
        f5.column(m.label(), 9, 1);
    }
    for &procs in &p.sizes {
        let run = |m| RunSpec::Barrier(p.barrier(m, procs));
        let base = cells.num(run(Mechanism::LlSc), "avg_cycles");
        let mut speedups: Vec<f64> = TABLE_MECHS
            .iter()
            .map(|&m| base / cells.num(run(m), "avg_cycles"))
            .collect();
        speedups.push(base);
        t2.rows.push((procs.into(), speedups));
        let per_proc = Mechanism::ALL
            .iter()
            .map(|&m| cells.num(run(m), "cycles_per_proc"))
            .collect();
        f5.rows.push((procs.into(), per_proc));
    }
    vec![t2, f5]
}

/// Table 3 and Figure 6: two-level combining-tree barriers at their best
/// branching, against the flat LL/SC baseline, with the flat AMO
/// barrier as the paper's last column.
fn table3_figure6(cells: &mut Cells, p: &ArtifactProfile) -> Vec<Table> {
    let title = "Table 3. Performance of tree-based barriers.";
    let mut t3 = Table::new("table3", title, CPUS, 80);
    let title = "Figure 6. Cycles-per-processor of tree-based barriers.";
    let mut f6 = Table::new("figure6", title, CPUS, 62);
    let widths = [(11, 10), (12, 10), (12, 11), (9, 9), (9, 9)];
    for (m, (w3, w6)) in Mechanism::ALL.into_iter().zip(widths) {
        t3.column(format!("{}+tree", m.label()), w3, 2).bar = m == Mechanism::Amo;
        f6.column(format!("{}+tr", m.label()), w6, 1);
    }
    t3.column("AMO", 7, 2);
    let mut note = String::from("(best branching factors: ");
    for &procs in &p.tree_sizes {
        let flat = |m| RunSpec::Barrier(p.barrier(m, procs));
        let base = cells.num(flat(Mechanism::LlSc), "avg_cycles");
        let (mut speedups, mut per_proc, mut chosen) = (Vec::new(), Vec::new(), Vec::new());
        for m in Mechanism::ALL {
            let (b, best) = best_tree(cells, p.barrier(m, procs));
            speedups.push(base / cells.num(RunSpec::Barrier(best), "avg_cycles"));
            per_proc.push(cells.num(RunSpec::Barrier(best), "cycles_per_proc"));
            chosen.push(format!("{}={b}", m.label()));
        }
        speedups.push(base / cells.num(flat(Mechanism::Amo), "avg_cycles"));
        t3.rows.push((procs.into(), speedups));
        f6.rows.push((procs.into(), per_proc));
        note += &format!("[{procs} CPUs: {}] ", chosen.join(" "));
    }
    t3.note = Some(note + ")");
    vec![t3, f6]
}

/// Table 4: ticket (`t`) and array (`a`) locks, as speedup over the
/// LL/SC ticket lock.
fn table4(cells: &mut Cells, p: &ArtifactProfile) -> Vec<Table> {
    let title = "Table 4. Speedups of different locks over the LL/SC-based ticket lock.";
    let mut t = Table::new("table4", title, CPUS, 101);
    for m in Mechanism::ALL {
        t.column(format!("{}t", m.label()), 8, 2);
        t.column(format!("{}a", m.label()), 8, 2).bar = true;
    }
    for &procs in &p.sizes {
        let mut cycles = |m, kind| cells.num(RunSpec::Lock(p.lock(m, kind, procs)), "total_cycles");
        let base = cycles(Mechanism::LlSc, LockKind::Ticket);
        let mut row = Vec::new();
        for m in Mechanism::ALL {
            row.push(base / cycles(m, LockKind::Ticket));
            row.push(base / cycles(m, LockKind::Array));
        }
        t.rows.push((procs.into(), row));
    }
    vec![t]
}

/// Figure 7: ticket-lock network traffic in bytes, normalized to LL/SC.
fn figure7(cells: &mut Cells, p: &ArtifactProfile) -> Vec<Table> {
    let title = "Figure 7. Network traffic for ticket locks (normalized to LL/SC).";
    let mut t = Table::new("figure7", title, CPUS, 54);
    for m in Mechanism::ALL {
        t.column(m.label(), 8, 2);
    }
    for &procs in &p.traffic_sizes {
        let mut bytes = |m| {
            let ticket = RunSpec::Lock(p.lock(m, LockKind::Ticket, procs));
            cells.stat(ticket, Stats::total_bytes) as f64
        };
        let base = bytes(Mechanism::LlSc);
        let row = Mechanism::ALL.iter().map(|&m| bytes(m) / base).collect();
        t.rows.push((procs.into(), row));
    }
    vec![t]
}

/// Figure 1's message census: one-way messages of one warm barrier
/// episode on four processors, LL/SC against AMO.
fn figure1(cells: &mut Cells, _: &ArtifactProfile) -> Vec<Table> {
    let title = "Figure 1 census (4 CPUs, one warm episode):";
    let mut t = Table::new("figure1", title, CPUS, 0);
    let mut row = Vec::new();
    for m in [Mechanism::LlSc, Mechanism::Amo] {
        t.column(m.label(), 8, 0);
        let two_episodes = RunSpec::Barrier(BarrierBench {
            episodes: 2,
            warmup: 1,
            max_skew: 200,
            ..BarrierBench::paper(m, 4)
        });
        // Messages of the measured (warm) episode ≈ total − cold
        // episode; report the per-episode steady-state count.
        row.push((cells.stat(two_episodes, Stats::total_msgs) / 2) as f64);
    }
    t.rows.push((4, row));
    vec![t]
}

/// Figure 1 is a sentence, not a grid.
fn figure1_text(t: &Table) -> String {
    let msgs = |label| t.value(4, label).expect("figure1 has the column");
    format!(
        "{}\n  LL/SC barrier: ~{} one-way messages\n  AMO barrier:   ~{} one-way messages\n",
        t.heading,
        msgs("LL/SC"),
        msgs("AMO")
    )
}

// ---------------------------------------------------------------------
// Extension experiments (beyond the paper's tables; see EXPERIMENTS.md)
// ---------------------------------------------------------------------

/// Extension: the MCS list-based queue lock across mechanisms,
/// normalized like Table 4.
fn ext_locks(cells: &mut Cells, p: &ArtifactProfile) -> Vec<Table> {
    let title = "Extension: MCS queue locks (speedup over the LL/SC ticket lock).";
    let mut t = Table::new("ext-locks", title, CPUS, 52);
    for m in MCS_MECHS {
        t.column(m.label(), 9, 2);
    }
    for &procs in &p.sizes {
        let mut cycles = |m, kind| cells.num(RunSpec::Lock(p.lock(m, kind, procs)), "total_cycles");
        let base = cycles(Mechanism::LlSc, LockKind::Ticket);
        let row = MCS_MECHS
            .iter()
            .map(|&m| base / cycles(m, LockKind::Mcs))
            .collect();
        t.rows.push((procs.into(), row));
    }
    vec![t]
}

/// Extension: dissemination barriers against the paper's algorithms,
/// for the baseline and AMO mechanisms, in cycles per episode.
fn ext_barriers(cells: &mut Cells, p: &ArtifactProfile) -> Vec<Table> {
    let title = "Extension: dissemination barriers vs the paper's algorithms\n\
                 (cycles/episode, speedup over centralized LL/SC; tree* = best branching).";
    let mut t = Table::new("ext-barriers", title, CPUS, 121);
    for label in [
        "LL/SC central",
        "LL/SC dissem",
        "LL/SC tree*",
        "AMO central",
        "AMO dissem",
    ] {
        t.column(label, 20, 0).bar = true;
    }
    for &procs in &p.tree_sizes {
        let (llsc, amo) = (
            p.barrier(Mechanism::LlSc, procs),
            p.barrier(Mechanism::Amo, procs),
        );
        let cycles = |cells: &mut Cells, b| cells.num(RunSpec::Barrier(b), "avg_cycles");
        let mut row = vec![
            cycles(cells, llsc),
            cycles(cells, llsc.with_dissemination()),
        ];
        let (_, tree) = best_tree(cells, llsc);
        for bench in [tree, amo, amo.with_dissemination()] {
            row.push(cycles(cells, bench));
        }
        t.rows.push((procs.into(), row));
    }
    vec![t]
}

/// ext-barriers prints two numbers per cell: the cycles, and the speedup
/// over the first column.
fn ext_barriers_text(t: &Table) -> String {
    let mut out = t.head();
    for (procs, cycles) in &t.rows {
        out += &format!("{procs:>5} |");
        for c in cycles {
            out += &format!(" {c:>11.0} ({:>5.2}x) |", cycles[0] / c);
        }
        out.push('\n');
    }
    out
}

/// Extension: can deep AMO combining trees beat the flat AMO barrier at
/// scale? (Paper Sec. 4.2.2: "part of our future work".) Cycles per
/// episode; NaN where a fan-in does not fit the machine.
fn ext_ktree(cells: &mut Cells, p: &ArtifactProfile) -> Vec<Table> {
    let title = "Extension: deep AMO combining trees vs the flat AMO barrier\n\
                 (the paper's future-work question; ratio >1 means the tree helps).";
    let mut t = Table::new("ext-ktree", title, CPUS, 78);
    t.column("flat cycles", 12, 0).bar = true;
    for b in KTREE_BRANCHINGS {
        t.column(format!("b={b}"), 12, 0);
    }
    for &procs in p.tree_sizes.iter().filter(|&&s| s >= 16) {
        let flat = p.barrier(Mechanism::Amo, procs);
        let mut row = vec![cells.num(RunSpec::Barrier(flat), "avg_cycles")];
        for b in KTREE_BRANCHINGS {
            row.push(if b < procs {
                cells.num(RunSpec::Barrier(flat.with_ktree(b)), "avg_cycles")
            } else {
                f64::NAN
            });
        }
        t.rows.push((procs.into(), row));
    }
    vec![t]
}

/// ext-ktree is ragged: each size lists the fan-ins it admits, with the
/// tree's depth and the flat/tree ratio (above 1 the deep tree helps).
fn ext_ktree_text(t: &Table) -> String {
    let mut out = format!(
        "{}\n{:>5} | {:>12} | per branching: b -> depth, cycles (ratio)\n{}\n",
        t.heading,
        "CPUs",
        "flat cycles",
        "-".repeat(t.rule)
    );
    for (procs, cycles) in &t.rows {
        let flat = cycles[0];
        out += &format!("{procs:>5} | {flat:>12.0} |");
        for (b, tree) in KTREE_BRANCHINGS.into_iter().zip(&cycles[1..]) {
            if !tree.is_nan() {
                let procs = u16::try_from(*procs).expect("row keys are processor counts");
                let depth = KTreeSpec::uniform_depth(procs, b);
                out += &format!(" b={b}: d{depth}, {tree:.0} ({:.2}x);", flat / tree);
            }
        }
        out.push('\n');
    }
    out
}

/// Extension: the synchronization tax — the share of each work+barrier
/// step of a bulk-synchronous application spent synchronizing.
fn ext_app(cells: &mut Cells, p: &ArtifactProfile) -> Vec<Table> {
    let procs = *p.sizes.last().unwrap_or(&16).min(&64);
    let title = format!(
        "Extension: synchronization tax of a bulk-synchronous app at {procs} CPUs\n\
         (fraction of each work+barrier step spent synchronizing)."
    );
    let mut t = Table::new("ext-app", title, ("work/step", 10), 57);
    for m in Mechanism::ALL {
        t.column(m.label(), 8, 1).unit = "%";
    }
    for grain in [1_000, 10_000, 100_000] {
        let row = Mechanism::ALL.iter().map(|&mech| {
            let cell = SyncTax {
                mech,
                procs,
                grain,
                steps: 8,
                warmup: 2,
            };
            cells.num(RunSpec::SyncTax(cell), "tax") * 100.0
        });
        t.rows.push((grain, row.collect()));
    }
    vec![t]
}

/// Extension: ticket-lock sensitivity to critical-section length, each
/// row normalized to its LL/SC time.
fn ext_cs(cells: &mut Cells, p: &ArtifactProfile) -> Vec<Table> {
    let procs = *p.sizes.last().unwrap_or(&16).min(&32);
    let title = format!(
        "Extension: ticket-lock sensitivity to critical-section length at {procs} CPUs\n\
         (benchmark time normalized to LL/SC per row)."
    );
    let mut t = Table::new("ext-cs", title, ("CS cycles", 9), 56);
    for m in Mechanism::ALL {
        t.column(m.label(), 8, 2).unit = "x";
    }
    for cs_cycles in [0, 250, 1_000, 5_000] {
        let mut cycles = |m| {
            let ticket = LockBench {
                cs_cycles,
                ..p.lock(m, LockKind::Ticket, procs)
            };
            cells.num(RunSpec::Lock(ticket), "total_cycles")
        };
        let base = cycles(Mechanism::LlSc);
        let row = Mechanism::ALL.iter().map(|&m| base / cycles(m)).collect();
        t.rows.push((cs_cycles, row));
    }
    vec![t]
}

/// Extension: one-way producer→consumer signal latency per mechanism.
fn ext_signal(cells: &mut Cells, p: &ArtifactProfile) -> Vec<Table> {
    let pairs = 8;
    let title = format!(
        "Extension: producer→consumer signal latency ({pairs} cross-node pairs)\n\
         (one-way cycles from the producer's release to the consumer's wake-up)."
    );
    let mut t = Table::new("ext-signal", title, ("pairs", 5), 0);
    let mut row = Vec::new();
    for mech in Mechanism::ALL {
        t.column(mech.label(), 8, 0);
        let cell = Signal {
            mech,
            pairs,
            rounds: p.rounds,
        };
        row.push(cells.num(RunSpec::Signal(cell), "mean_latency"));
    }
    t.rows.push((pairs.into(), row));
    vec![t]
}

/// ext-signal is transposed: one line per mechanism.
fn ext_signal_text(t: &Table) -> String {
    let mut out = format!("{}\n", t.heading);
    for (_, latencies) in &t.rows {
        for (c, cycles) in t.columns.iter().zip(latencies) {
            out += &format!("  {:>8}: {cycles:>7.0} cycles\n", c.label);
        }
    }
    out
}

/// Extension: dynamic loop self-scheduling — wall cycles to drain a
/// pool of tasks handed out by fetch-add on a shared index.
fn ext_selfsched(cells: &mut Cells, p: &ArtifactProfile) -> Vec<Table> {
    let procs = *p.sizes.last().unwrap_or(&16).min(&64);
    let tasks = 256;
    let title = format!(
        "Extension: dynamic loop self-scheduling ({tasks} tasks on {procs} CPUs)\n\
         (wall cycles to drain the pool; the shared index is a fetch-add)."
    );
    let mut t = Table::new("ext-selfsched", title, ("task grain", 10), 62);
    for m in Mechanism::ALL {
        t.column(m.label(), 9, 0);
    }
    for grain in [50, 500, 5_000] {
        let row = Mechanism::ALL.iter().map(|&mech| {
            let cell = SelfSched {
                mech,
                procs,
                tasks,
                grain,
            };
            cells.num(RunSpec::SelfSched(cell), "total_cycles")
        });
        t.rows.push((grain, row.collect()));
    }
    vec![t]
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

    /// The paper's flat barrier benchmark at this profile's episode counts.
    fn barrier(&self, mech: Mechanism, procs: u16) -> BarrierBench {
        BarrierBench {
            episodes: self.episodes,
            warmup: self.warmup,
            ..BarrierBench::paper(mech, procs)
        }
    }

    /// The paper's lock benchmark at this profile's round count.
    fn lock(&self, mech: Mechanism, kind: LockKind, procs: u16) -> LockBench {
        LockBench {
            rounds: self.rounds,
            ..LockBench::paper(mech, kind, procs)
        }
    }
}

/// Every artifact name [`render_artifacts`] understands, in document
/// order.
pub fn artifact_names() -> impl Iterator<Item = &'static str> {
    GENERATORS
        .iter()
        .flat_map(|(names, _)| names.iter().copied())
}

/// Reject a selection naming anything but [`artifact_names`] or `all`:
/// [`render_artifacts`] would silently render nothing for it.
pub fn check_artifact_names(names: &[String]) -> Result<(), String> {
    match names
        .iter()
        .find(|n| *n != "all" && !artifact_names().any(|a| a == n.as_str()))
    {
        None => Ok(()),
        Some(bad) => Err(format!(
            "unknown artifact {bad:?} (all, {})",
            artifact_names().collect::<Vec<_>>().join(", ")
        )),
    }
}

/// A table function: builds the tables of the artefacts that share its
/// cells, asking [`Cells`] for every number.
type TableFn = fn(&mut Cells, &ArtifactProfile) -> Vec<Table>;

/// The table functions in document order, each with the artefacts it
/// produces. One function's cells are one campaign batch.
pub(crate) const GENERATORS: [(&[&str], TableFn); 12] = [
    (&["table2", "figure5"], table2_figure5),
    (&["table3", "figure6"], table3_figure6),
    (&["table4"], table4),
    (&["figure7"], figure7),
    (&["ext-locks"], ext_locks),
    (&["ext-barriers"], ext_barriers),
    (&["ext-ktree"], ext_ktree),
    (&["ext-app"], ext_app),
    (&["ext-cs"], ext_cs),
    (&["ext-signal"], ext_signal),
    (&["ext-selfsched"], ext_selfsched),
    (&["figure1"], figure1),
];

/// Regenerate the artefacts `want` selects by name (`|_| true` for all
/// of them), in document order. `want` is asked about every name; a
/// table function runs if any of its artefacts is wanted.
pub fn tables(
    c: &mut Campaign,
    profile: &ArtifactProfile,
    want: &dyn Fn(&str) -> bool,
) -> Vec<Table> {
    let mut out = Vec::new();
    for (names, generate) in GENERATORS {
        let wanted: Vec<&str> = names.iter().copied().filter(|n| want(n)).collect();
        if !wanted.is_empty() {
            let made = evaluate(c, |cells| generate(cells, profile));
            out.extend(made.into_iter().filter(|t| wanted.contains(&t.name)));
        }
    }
    out
}

/// The paper layout of `t`: the grid, unless it is one of the four that
/// are not grids.
pub(crate) fn layout(t: &Table) -> String {
    match t.name {
        "ext-barriers" => ext_barriers_text(t),
        "ext-ktree" => ext_ktree_text(t),
        "ext-signal" => ext_signal_text(t),
        "figure1" => figure1_text(t),
        _ => t.text(),
    }
}

/// Regenerate the selected artifacts (see [`tables`]) and return the
/// rendered document — the exact bytes of the committed
/// `tables_output.txt` when run with the paper profile and every
/// artifact selected. `csv` switches every artefact to the one CSV form:
/// `CSV_HEADER`, then a line per cell.
pub fn render_artifacts(
    c: &mut Campaign,
    profile: &ArtifactProfile,
    want: &dyn Fn(&str) -> bool,
    csv: bool,
) -> String {
    let tables = tables(c, profile, want);
    if csv {
        let cells: String = tables.iter().map(Table::cell_lines).collect();
        return format!("{CSV_HEADER}{cells}");
    }
    // A section is followed by a blank line.
    tables.iter().map(|t| layout(t) + "\n").collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_types::SystemConfig;

    /// A small profile with the given overrides.
    fn small(sizes: &[u16], episodes: u32, warmup: u32, rounds: u32) -> ArtifactProfile {
        ArtifactProfile {
            sizes: sizes.to_vec(),
            tree_sizes: sizes.to_vec(),
            traffic_sizes: sizes.to_vec(),
            episodes,
            warmup,
            rounds,
        }
    }

    /// The one table `name` selects.
    fn table(c: &mut Campaign, profile: &ArtifactProfile, name: &str) -> Table {
        let mut made = tables(c, profile, &|n| n == name);
        assert_eq!(made.len(), 1, "{name}");
        made.remove(0)
    }

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
        assert_eq!(*asked.borrow(), artifact_names().collect::<Vec<_>>());
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
        let t2 = table(&mut c, &small(&[4, 8], 4, 1, 4), "table2");
        assert_eq!(t2.rows.len(), 2);
        for procs in [4, 8] {
            let amo = t2.value(procs, "AMO").unwrap();
            assert!(amo > 1.0, "AMO must beat LL/SC at {procs} procs: {amo}");
        }
        // Scaling: AMO's advantage grows with the machine.
        let amo4 = t2.value(4, "AMO").unwrap();
        let amo8 = t2.value(8, "AMO").unwrap();
        assert!(amo8 > amo4, "AMO speedup should grow: {amo4} -> {amo8}");
        // Cell accounting: 2 sizes × 5 mechanisms, no duplicates.
        assert_eq!(c.counters.requested, 10);
        assert_eq!(c.counters.unique, 10);
    }

    #[test]
    fn table4_small_shapes() {
        let mut c = Campaign::uncached();
        let t4 = table(&mut c, &small(&[4], 4, 1, 4), "table4");
        let amo = t4.value(4, "AMOt").unwrap();
        assert!(amo > 1.0, "AMO ticket lock must beat LL/SC: {amo}");
    }

    #[test]
    fn ext_generators_smoke() {
        let mut c = Campaign::uncached();
        let locks = table(&mut c, &small(&[4], 3, 1, 2), "ext-locks");
        assert_eq!(locks.columns.len(), 4);
        assert!(locks.rows[0].1.iter().all(|&s| s > 0.0));

        let barriers = table(&mut c, &small(&[8], 3, 1, 2), "ext-barriers");
        assert_eq!(barriers.columns.len(), 5);
        let cycles = |label| barriers.value(8, label).unwrap();
        assert!(
            cycles("LL/SC central") / cycles("AMO central") > 1.0,
            "AMO central beats the baseline"
        );

        let ktrees = table(&mut c, &small(&[16], 3, 1, 2), "ext-ktree");
        let flat = ktrees.value(16, "flat cycles").unwrap();
        for b in [2, 4, 8] {
            let tree = ktrees.value(16, &format!("b={b}")).unwrap();
            assert!(KTreeSpec::uniform_depth(16, b) >= 1, "b={b}");
            assert!(flat / tree > 0.0);
        }
        assert!(
            ktrees.value(16, "b=16").unwrap().is_nan(),
            "16 does not fit"
        );
    }

    #[test]
    fn renderers_cover_extensions() {
        let mut c = Campaign::uncached();
        let locks = table(&mut c, &small(&[4], 3, 1, 2), "ext-locks");
        assert!(layout(&locks).contains("MCS"));
        let barriers = table(&mut c, &small(&[8], 3, 1, 2), "ext-barriers");
        assert!(layout(&barriers).contains("dissem"));
        let ktrees = table(&mut c, &small(&[16], 3, 1, 2), "ext-ktree");
        assert!(layout(&ktrees).contains("flat"));
        // CSV is the one header and one line per cell.
        let t2 = table(&mut c, &small(&[4], 3, 1, 2), "table2");
        let csv = t2.csv();
        assert!(csv.starts_with("table,row,column,value\n"));
        assert_eq!(csv.lines().count(), 1 + 5);
        let t4 = table(&mut c, &small(&[4], 3, 1, 2), "table4");
        assert_eq!(t4.csv().lines().count(), 1 + 10);
    }

    #[test]
    fn figure7_small() {
        let mut c = Campaign::uncached();
        let f7 = table(&mut c, &small(&[8], 3, 1, 3), "figure7");
        let amo = f7.value(8, "AMO").unwrap();
        assert!(amo < 1.0, "AMO traffic must be below LL/SC: {amo}");
    }

    #[test]
    fn tree_search_matches_serial_best_tree_barrier() {
        // The per-candidate cells must pick the same branching and
        // cycles as the retained serial search.
        let base = BarrierBench {
            episodes: 3,
            warmup: 1,
            ..BarrierBench::paper(Mechanism::Atomic, 16)
        };
        let (serial_b, serial_r) = amo_workloads::runner::best_tree_barrier(base);
        let (b, cycles) = evaluate(&mut Campaign::uncached(), |cells| {
            let (b, best) = best_tree(cells, base);
            (b, cells.num(RunSpec::Barrier(best), "avg_cycles"))
        });
        assert_eq!(b, serial_b);
        assert_eq!(cycles, serial_r.timing.avg_cycles);
    }

    #[test]
    fn evaluate_runs_each_distinct_cell_once() {
        let bench = |mech| BarrierBench {
            episodes: 3,
            warmup: 1,
            ..BarrierBench::paper(mech, 4)
        };
        let amo = RunSpec::Barrier(bench(Mechanism::Amo));
        // The same machine spelled out: another value, the same cell.
        let explicit = RunSpec::Barrier(BarrierBench {
            config: Some(SystemConfig::with_procs(4)),
            ..bench(Mechanism::Amo)
        });
        let llsc = RunSpec::Barrier(bench(Mechanism::LlSc));
        let mut c = Campaign::uncached();
        let answers = evaluate(&mut c, |cells| {
            [&amo, &amo, &llsc, &amo, &explicit].map(|s| cells.num(s.clone(), "avg_cycles"))
        });
        assert!(answers.iter().all(|a| a.is_finite()), "{answers:?}");
        assert_eq!(answers[0], answers[4]);
        assert!(answers[2] > answers[0], "each answer is its own cell's");
        assert_eq!(c.counters.requested, 2);
        assert_eq!(c.counters.unique, 2);
    }

    #[test]
    fn evaluate_answers_a_question_that_depends_on_an_answer() {
        let cycles = |cells: &mut Cells, procs| {
            let bench = BarrierBench {
                episodes: 3,
                warmup: 1,
                ..BarrierBench::paper(Mechanism::Amo, procs)
            };
            cells.num(RunSpec::Barrier(bench), "avg_cycles")
        };
        let mut c = Campaign::uncached();
        let (first, second) = evaluate(&mut c, |cells| {
            let first = cycles(cells, 4);
            // Which machine comes second is not known until the first
            // answer is: while it is NaN the planner is told 16.
            let second = cycles(cells, if first > 0.0 { 8 } else { 16 });
            (first, second)
        });
        assert!(first > 0.0 && second > first, "{first} {second}");
        assert_eq!(
            c.counters.requested, 3,
            "4 and the guess 16, then 8 once 4 is known"
        );
    }

    /// The benchmark's pins (`expected.json`: 405 cells, 71 of them
    /// repeats across generators) at unit-test speed: a planning-only
    /// pass computes keys and simulates nothing.
    #[test]
    fn paper_profile_plans_the_pinned_cells_per_generator() {
        let pinned = [35, 130, 70, 10, 35, 44, 24, 15, 20, 5, 15, 2];
        let mut distinct = std::collections::HashSet::new();
        for ((names, generate), cells_pinned) in GENERATORS.iter().zip(pinned) {
            let mut cells = Cells::default();
            generate(&mut cells, &ArtifactProfile::paper());
            assert_eq!(cells.asked.len(), cells_pinned, "{names:?}");
            assert!(cells.known.is_empty());
            distinct.extend(cells.index.into_keys());
        }
        assert_eq!(pinned.iter().sum::<usize>(), 405);
        assert_eq!(distinct.len(), 334);
    }
}
