//! End-to-end campaign tests: cold/warm bit-identity through the
//! on-disk cache, corruption recovery, key invalidation on config
//! changes, the committed spec files, the golden comparison against
//! `tables_output.txt`, and the shape claims EXPERIMENTS.md makes about
//! it, each as a checked predicate.

use amo_campaign::table::Table;
use amo_campaign::{
    artifacts, ArtifactProfile, Campaign, CampaignPlan, CampaignSpec, ResultCache, RunSpec,
};
use amo_sync::Mechanism;
use amo_types::SystemConfig;
use amo_workloads::runner::BarrierBench;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("amo-campaign-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn small_profile() -> ArtifactProfile {
    ArtifactProfile {
        sizes: vec![4, 8],
        tree_sizes: vec![16],
        traffic_sizes: vec![16],
        episodes: 3,
        warmup: 1,
        rounds: 4,
    }
}

/// A cold render followed by a warm re-render must produce the same
/// bytes, with the warm pass served entirely from the cache (zero
/// simulations).
#[test]
fn warm_rerun_is_bit_identical_and_fully_cached() {
    let dir = tmpdir("warm");
    let profile = small_profile();
    let want = |n: &str| matches!(n, "table2" | "table4" | "figure1");

    let mut cold = Campaign::new(Some(ResultCache::new(&dir)));
    let cold_doc = artifacts::render_artifacts(&mut cold, &profile, &want, false);
    assert_eq!(cold.counters.cache_hits, 0);
    assert_eq!(cold.counters.cache_misses, cold.counters.unique);
    assert!(cold.counters.unique > 0);

    let mut warm = Campaign::new(Some(ResultCache::new(&dir)));
    let warm_doc = artifacts::render_artifacts(&mut warm, &profile, &want, false);
    assert_eq!(warm.counters.cache_misses, 0, "warm pass must not simulate");
    assert_eq!(warm.counters.cache_hits, warm.counters.unique);
    assert_eq!(cold_doc, warm_doc, "cached render must be bit-identical");

    // And the cache is also equivalent to not caching at all.
    let mut un = Campaign::uncached();
    let un_doc = artifacts::render_artifacts(&mut un, &profile, &want, false);
    assert_eq!(cold_doc, un_doc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupting a cached entry on disk silently degrades it to a miss:
/// the campaign recomputes the same numbers and rewrites the entry.
#[test]
fn corrupted_entry_is_recomputed_and_repaired() {
    let dir = tmpdir("corrupt");
    let spec = RunSpec::Barrier(BarrierBench {
        episodes: 3,
        warmup: 1,
        ..BarrierBench::paper(Mechanism::Amo, 4)
    });

    let mut c = Campaign::new(Some(ResultCache::new(&dir)));
    let first = c.run_ok(std::slice::from_ref(&spec));

    // Flip a payload byte in the entry file.
    let cache = ResultCache::new(&dir);
    let path = cache.entry_path(spec.key());
    let mut bytes = std::fs::read(&path).unwrap();
    let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
    bytes[nl + 20] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let mut again = Campaign::new(Some(ResultCache::new(&dir)));
    let second = again.run_ok(std::slice::from_ref(&spec));
    assert_eq!(again.counters.cache_hits, 0, "corrupt entry must miss");
    assert_eq!(again.counters.cache_misses, 1);
    assert_eq!(first[0].numbers, second[0].numbers);

    // The recompute rewrote a valid entry.
    let mut third = Campaign::new(Some(ResultCache::new(&dir)));
    third.run_ok(&[spec]);
    assert_eq!(third.counters.cache_hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Any change to the run's inputs — here a machine-configuration field
/// — changes the content key, so stale entries are never served.
#[test]
fn config_change_invalidates_the_key() {
    let dir = tmpdir("stale");
    let base = BarrierBench {
        episodes: 3,
        warmup: 1,
        ..BarrierBench::paper(Mechanism::Amo, 4)
    };
    let mut slow_cfg = SystemConfig::with_procs(4);
    slow_cfg.network.hop_latency *= 2;
    let changed = BarrierBench {
        config: Some(slow_cfg),
        ..base
    };
    assert_ne!(
        RunSpec::Barrier(base).key(),
        RunSpec::Barrier(changed).key(),
        "config override must change the content key"
    );

    let mut c = Campaign::new(Some(ResultCache::new(&dir)));
    c.run_ok(&[RunSpec::Barrier(base)]);
    let mut c2 = Campaign::new(Some(ResultCache::new(&dir)));
    c2.run_ok(&[RunSpec::Barrier(changed)]);
    assert_eq!(c2.counters.cache_hits, 0, "changed config must not hit");
    assert_eq!(c2.counters.cache_misses, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The spec files shipped in `specs/` must parse, and the error-rate
/// sweep must expand to the documented six-point grid.
#[test]
fn committed_spec_files_parse_and_expand() {
    let specs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    for name in ["paper.json", "quick.json", "error-rate-sweep.json"] {
        let doc = std::fs::read_to_string(specs.join(name)).unwrap();
        let spec = CampaignSpec::parse(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        match (name, &spec.plan) {
            ("error-rate-sweep.json", CampaignPlan::Grid(runs)) => {
                assert_eq!(runs.len(), 6, "one run per documented error rate");
                let RunSpec::Barrier(b) = &runs[0].spec else {
                    panic!("barrier sweep")
                };
                assert_eq!(b.procs, 64);
                let cfg = b.config.expect("fault plan applied");
                assert_eq!(cfg.faults.seed, 42);
                assert_eq!(cfg.faults.jitter_max, 8);
            }
            (_, CampaignPlan::Artifacts { .. }) => {}
            (n, p) => panic!("{n}: unexpected plan {p:?}"),
        }
    }
}

/// Golden test: one campaign invocation over the paper profile
/// reproduces the committed `tables_output.txt` byte-for-byte. Slow
/// (it is the full artifact set), so ignored by default; CI runs it
/// release-mode alongside the cold/warm binary diff.
#[test]
#[ignore = "full paper render; run with --release -- --ignored"]
fn paper_render_matches_committed_tables_output() {
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tables_output.txt"
    ))
    .expect("committed tables_output.txt");
    let mut c = Campaign::uncached();
    let rendered = artifacts::render_artifacts(&mut c, &ArtifactProfile::paper(), &|_| true, false);
    assert_eq!(
        rendered, committed,
        "campaign render drifted from the committed artifact"
    );
}

// ---------------------------------------------------------------------
// Shape claims: what EXPERIMENTS.md says the tables show
// ---------------------------------------------------------------------

/// The rendered artefacts, addressable by name.
struct Paper(Vec<Table>);

impl Paper {
    fn t(&self, name: &str) -> View<'_> {
        let found = self.0.iter().find(|t| t.name == name);
        View(found.unwrap_or_else(|| panic!("no artefact {name}")))
    }
}

/// One artefact, addressable by row key and column label.
struct View<'a>(&'a Table);

impl View<'_> {
    fn v(&self, key: u64, label: &str) -> f64 {
        let found = self.0.value(key, label);
        found.unwrap_or_else(|| panic!("no cell {}[{key}, {label}]", self.0.name))
    }

    /// Does `holds(key)` at every row?
    fn every(&self, holds: impl Fn(u64) -> bool) -> bool {
        self.keys().all(holds)
    }

    /// Row keys, top to bottom.
    fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.rows.iter().map(|&(key, _)| key)
    }

    /// Column `label` over the rows whose key is in `keys`, top to bottom.
    fn col(&self, label: &str, keys: impl std::ops::RangeBounds<u64>) -> Vec<f64> {
        let rows = self.keys().filter(|k| keys.contains(k));
        rows.map(|k| self.v(k, label)).collect()
    }

    /// Does `holds(column)` for every column?
    fn every_col(&self, holds: impl Fn(&str) -> bool) -> bool {
        self.0.columns.iter().all(|c| holds(&c.label))
    }
}

fn rising(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

fn falling(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] > w[1])
}

const CONVENTIONAL: [&str; 4] = ["LL/SC", "ActMsg", "Atomic", "MAO"];

/// One claim: the artefact it is about, its sentence as EXPERIMENTS.md
/// prints it, the predicate that decides it, and today's verdict. A
/// re-pinned golden that flips a predicate fails
/// `shape_claims_evaluate_to_their_recorded_verdicts` until the verdict
/// here and the sentence's "holds" / "does not hold" in EXPERIMENTS.md
/// change together
/// (`experiments_md_quotes_the_golden_and_states_every_claim`).
type Claim = (&'static str, &'static str, fn(&Paper) -> bool, bool);

const CLAIMS: &[Claim] = &[
    (
        "table2",
        "AMO beats every other mechanism at every size, and its speedup grows at every \
         step, from under 3× at 4 CPUs to over 60× at 256",
        |p| {
            let t = p.t("table2");
            let others = ["ActMsg", "Atomic", "MAO"];
            t.every(|n| others.iter().all(|m| t.v(n, "AMO") > t.v(n, m)))
                && rising(&t.col("AMO", ..))
                && (1.0..3.0).contains(&t.v(4, "AMO"))
                && t.v(256, "AMO") > 60.0
        },
        true,
    ),
    (
        "table2",
        "MAO is second at every size, its speedup growing at every step, 2–10× behind AMO",
        |p| {
            let t = p.t("table2");
            t.every(|n| {
                let mao = t.v(n, "MAO");
                mao > t.v(n, "ActMsg")
                    && mao > t.v(n, "Atomic")
                    && (2.0..10.0).contains(&(t.v(n, "AMO") / mao))
            }) && rising(&t.col("MAO", ..))
        },
        true,
    ),
    (
        "table2",
        "Atomic is a modest constant factor over LL/SC: between 1.0 and 1.4 at every size",
        |p| {
            p.t("table2")
                .col("Atomic", ..)
                .iter()
                .all(|&s| s > 1.0 && s < 1.4)
        },
        true,
    ),
    (
        "table2",
        "ActMsg sits between Atomic and MAO from 8 CPUs on",
        |p| {
            let t = p.t("table2");
            t.every(|n| {
                n < 8 || (t.v(n, "Atomic") < t.v(n, "ActMsg") && t.v(n, "ActMsg") < t.v(n, "MAO"))
            })
        },
        true,
    ),
    (
        "table2",
        "ActMsg reaches 2× or more from 64 CPUs on (paper: 2.74–2.82)",
        |p| p.t("table2").col("ActMsg", 64..).iter().all(|&s| s >= 2.0),
        false,
    ),
    (
        "figure5",
        "AMO cycles-per-processor falls at every step up in machine size",
        |p| falling(&p.t("figure5").col("AMO", ..)),
        true,
    ),
    (
        "figure5",
        "LL/SC and Atomic cycles-per-processor rise at every step from 16 CPUs on, ending \
         above their 4-CPU figure",
        |p| {
            let t = p.t("figure5");
            ["LL/SC", "Atomic"]
                .iter()
                .all(|m| rising(&t.col(m, 16..)) && t.v(256, m) > t.v(4, m))
        },
        true,
    ),
    (
        "figure5",
        "MAO cycles-per-processor falls at every step up in machine size",
        |p| falling(&p.t("figure5").col("MAO", ..)),
        true,
    ),
    (
        "table3",
        "Every tree barrier beats flat LL/SC at every size, by a factor that grows at \
         every step",
        |p| {
            let t = p.t("table3");
            t.every_col(|m| m == "AMO" || (t.v(16, m) > 1.0 && rising(&t.col(m, ..))))
        },
        true,
    ),
    (
        "table3",
        "The flat AMO barrier beats every tree barrier, AMO+tree included, at every size",
        |p| {
            let t = p.t("table3");
            t.every(|n| t.every_col(|m| m == "AMO" || t.v(n, m) < t.v(n, "AMO")))
        },
        true,
    ),
    (
        "table3",
        "The best branching factor of the LL/SC tree grows with the machine (2 at 16 CPUs, \
         16 at 256) while AMO's stays at 2",
        |p| {
            let t = p.t("table3").0;
            let note = t.note.as_deref().unwrap_or("");
            note.contains("[16 CPUs: LL/SC=2 ")
                && note.contains("[256 CPUs: LL/SC=16 ")
                && note.matches(" AMO=2]").count() == t.rows.len()
        },
        true,
    ),
    (
        "figure6",
        "Every tree barrier's cycles-per-processor falls at every step from 32 CPUs on, to \
         under half its 16-CPU figure at 256",
        |p| {
            let t = p.t("figure6");
            t.every_col(|m| falling(&t.col(m, 32..)) && t.v(256, m) < t.v(16, m) / 2.0)
        },
        true,
    ),
    (
        "table4",
        "The LL/SC array lock is slower than the LL/SC ticket lock through 16 CPUs and \
         faster from 32 on",
        |p| {
            let t = p.t("table4");
            t.every(|n| (t.v(n, "LL/SCa") > 1.0) == (n >= 32))
        },
        true,
    ),
    (
        "table4",
        "MAO locks perform like LL/SC locks: within 2% of them, ticket and array, at every \
         size",
        |p| {
            let t = p.t("table4");
            let like = |n, mao, llsc| (t.v(n, mao) / t.v(n, llsc) - 1.0).abs() < 0.02;
            t.every(|n| like(n, "MAOt", "LL/SCt") && like(n, "MAOa", "LL/SCa"))
        },
        true,
    ),
    (
        "table4",
        "The Atomic or MAO ticket lock departs from the LL/SC ticket lock by 5% or more at \
         some size (paper: 0.64–1.22)",
        |p| {
            let t = p.t("table4");
            let pinned = |n, m| (t.v(n, m) - 1.0).abs() < 0.05;
            !t.every(|n| pinned(n, "Atomict") && pinned(n, "MAOt"))
        },
        false,
    ),
    (
        "table4",
        "The ActMsg ticket lock beats the LL/SC ticket lock through 32 CPUs, by a factor \
         that grows at every step",
        |p| {
            let t = p.t("table4");
            t.v(4, "ActMsgt") > 1.0 && rising(&t.col("ActMsgt", ..=32))
        },
        true,
    ),
    (
        "table4",
        "The ActMsg ticket lock collapses below the LL/SC ticket lock under heavy \
         contention, at 64–256 CPUs (paper: 0.60 / 0.91 / 0.97)",
        |p| p.t("table4").col("ActMsgt", 64..).iter().all(|&s| s < 1.0),
        false,
    ),
    (
        "table4",
        "Both AMO locks beat every other lock at every size, the AMO ticket lock by a \
         factor that grows at every step",
        |p| {
            let t = p.t("table4");
            t.every(|n| {
                let amo = t.v(n, "AMOt").min(t.v(n, "AMOa"));
                t.every_col(|m| m.starts_with("AMO") || t.v(n, m) < amo)
            }) && rising(&t.col("AMOt", ..))
        },
        true,
    ),
    (
        "table4",
        "With AMOs the ticket and array locks perform within 6% of each other at every size",
        |p| {
            let t = p.t("table4");
            t.every(|n| (t.v(n, "AMOa") / t.v(n, "AMOt") - 1.0).abs() < 0.06)
        },
        true,
    ),
    (
        "figure7",
        "AMO ticket-lock traffic is under a tenth of LL/SC's",
        |p| p.t("figure7").col("AMO", ..).iter().all(|&t| t < 0.1),
        true,
    ),
    (
        "figure7",
        "Atomic and MAO traffic is within 2% of LL/SC's",
        |p| {
            let t = p.t("figure7");
            t.every(|n| {
                ["Atomic", "MAO"]
                    .iter()
                    .all(|m| (t.v(n, m) - 1.0).abs() < 0.02)
            })
        },
        true,
    ),
    (
        "figure7",
        "ActMsg traffic is the highest of the five (paper: ~1.8–2× LL/SC, from \
         retransmissions)",
        |p| {
            let t = p.t("figure7");
            t.every(|n| t.every_col(|m| m == "ActMsg" || t.v(n, "ActMsg") > t.v(n, m)))
        },
        false,
    ),
    (
        "figure7",
        "ActMsg's normalized traffic rises from 128 to 256 CPUs",
        |p| rising(&p.t("figure7").col("ActMsg", ..)),
        false,
    ),
    (
        "figure1",
        "The AMO barrier needs fewer than half the one-way messages of the LL/SC barrier",
        |p| p.t("figure1").v(4, "AMO") < p.t("figure1").v(4, "LL/SC") / 2.0,
        true,
    ),
    (
        "ext-locks",
        "The LL/SC MCS lock is slower than the LL/SC ticket lock through 16 CPUs and faster \
         from 32 on, like the array lock",
        |p| {
            let t = p.t("ext-locks");
            t.every(|n| (t.v(n, "LL/SC") > 1.0) == (n >= 32))
        },
        true,
    ),
    (
        "ext-locks",
        "AMO-MCS is the best MCS lock at every size, and at every size slower than the \
         plain AMO ticket lock of Table 4",
        |p| {
            let t = p.t("ext-locks");
            t.every(|n| {
                t.every_col(|m| m == "AMO" || t.v(n, m) < t.v(n, "AMO"))
                    && t.v(n, "AMO") < p.t("table4").v(n, "AMOt")
            })
        },
        true,
    ),
    (
        "ext-barriers",
        "LL/SC dissemination beats the best LL/SC combining tree at every size",
        |p| {
            let t = p.t("ext-barriers");
            t.every(|n| t.v(n, "LL/SC dissem") < t.v(n, "LL/SC tree*"))
        },
        true,
    ),
    (
        "ext-barriers",
        "The flat AMO barrier beats LL/SC dissemination by more than 4× at every size",
        |p| {
            let t = p.t("ext-barriers");
            t.every(|n| t.v(n, "LL/SC dissem") > 4.0 * t.v(n, "AMO central"))
        },
        true,
    ),
    (
        "ext-barriers",
        "AMO dissemination is slower than the flat AMO barrier at every size",
        |p| {
            let t = p.t("ext-barriers");
            t.every(|n| t.v(n, "AMO dissem") > t.v(n, "AMO central"))
        },
        true,
    ),
    (
        "ext-ktree",
        "Every deep AMO tree loses to the flat AMO barrier, and the deepest (b=2) loses \
         most, at every size",
        |p| {
            let t = p.t("ext-ktree");
            t.every(|n| {
                t.v(n, "b=2") > t.v(n, "flat cycles")
                    && ["b=4", "b=8", "b=16"].iter().all(|b| {
                        let tree = t.v(n, b);
                        tree.is_nan() || (tree > t.v(n, "flat cycles") && tree < t.v(n, "b=2"))
                    })
            })
        },
        true,
    ),
    (
        "ext-ktree",
        "The best deep tree's ratio to the flat barrier rises at every step from 32 CPUs \
         on, and stays under 0.6",
        |p| {
            let t = p.t("ext-ktree");
            let best = |n| {
                let trees = ["b=2", "b=4", "b=8", "b=16"].map(|b| t.v(n, b));
                t.v(n, "flat cycles") / trees.into_iter().fold(f64::INFINITY, f64::min)
            };
            let from_32: Vec<f64> = t.keys().filter(|&n| n >= 32).map(best).collect();
            rising(&from_32) && t.keys().all(|n| best(n) < 0.6)
        },
        true,
    ),
    (
        "ext-app",
        "At 1,000 cycles of work per step the LL/SC, ActMsg and Atomic barriers tax the \
         step by more than 95%",
        |p| {
            let t = p.t("ext-app");
            ["LL/SC", "ActMsg", "Atomic"]
                .iter()
                .all(|m| t.v(1_000, m) > 95.0)
        },
        true,
    ),
    (
        "ext-app",
        "AMO has the lowest tax at every grain, and every mechanism's tax falls as the \
         grain grows",
        |p| {
            let t = p.t("ext-app");
            t.every(|g| CONVENTIONAL.iter().all(|m| t.v(g, "AMO") < t.v(g, m)))
                && t.every_col(|m| falling(&t.col(m, ..)))
        },
        true,
    ),
    (
        "ext-cs",
        "The AMO ticket lock's speedup shrinks at every step up in critical-section length \
         and stays above 1",
        |p| {
            let amo = p.t("ext-cs").col("AMO", ..);
            falling(&amo) && amo.iter().all(|&s| s > 1.0)
        },
        true,
    ),
    (
        "ext-signal",
        "Every conventional mechanism signals with the same latency, and AMO is more than \
         3× faster",
        |p| {
            let t = p.t("ext-signal");
            CONVENTIONAL.iter().all(|m| t.v(8, m) == t.v(8, "LL/SC"))
                && t.v(8, "LL/SC") > 3.0 * t.v(8, "AMO")
        },
        true,
    ),
    (
        "ext-selfsched",
        "MAO and AMO drain the pool in identical time, more than 50× faster than LL/SC at \
         50-cycle tasks",
        |p| {
            let t = p.t("ext-selfsched");
            t.every(|g| t.v(g, "MAO") == t.v(g, "AMO")) && t.v(50, "LL/SC") > 50.0 * t.v(50, "AMO")
        },
        true,
    ),
    (
        "ext-selfsched",
        "At 5,000-cycle tasks AMO drains the pool within 25% of the 20,000-cycle optimum",
        |p| p.t("ext-selfsched").v(5_000, "AMO") < 1.25 * 20_000.0,
        true,
    ),
];

/// Every claim, evaluated over a full paper render, comes out as
/// recorded. Slow for the same reason as the golden test above.
#[test]
#[ignore = "full paper render; run with --release -- --ignored"]
fn shape_claims_evaluate_to_their_recorded_verdicts() {
    let mut c = Campaign::uncached();
    let paper = Paper(artifacts::tables(
        &mut c,
        &ArtifactProfile::paper(),
        &|_| true,
    ));
    let wrong: Vec<String> = CLAIMS
        .iter()
        .filter(|(_, _, check, holds)| check(&paper) != *holds)
        .map(|(artefact, sentence, _, holds)| {
            format!("{artefact}: recorded holds={holds}: {sentence}")
        })
        .collect();
    assert!(wrong.is_empty(), "verdicts flipped:\n{}", wrong.join("\n"));
}

/// EXPERIMENTS.md shows measurements only as verbatim blocks of the
/// golden, and states every claim with the verdict recorded here.
#[test]
fn experiments_md_quotes_the_golden_and_states_every_claim() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let read = |name: &str| std::fs::read_to_string(format!("{root}{name}")).expect(name);
    let (doc, golden) = (read("EXPERIMENTS.md"), read("tables_output.txt"));

    let measured: Vec<&str> = doc
        .split("```text\n")
        .skip(1)
        .map(|rest| rest.split("```").next().expect("split yields one piece"))
        .collect();
    assert_eq!(
        measured.len(),
        artifacts::ARTIFACT_NAMES.len(),
        "one block per artefact"
    );
    for block in measured {
        assert!(golden.contains(block), "not in tables_output.txt:\n{block}");
    }

    let flat = doc.split_whitespace().collect::<Vec<_>>().join(" ");
    for (artefact, sentence, _, holds) in CLAIMS {
        let verdict = if *holds { "holds" } else { "does not hold" };
        let stated = format!("**{sentence}** — {verdict}");
        assert!(
            flat.contains(&stated),
            "{artefact}: EXPERIMENTS.md lacks: {stated}"
        );
    }
    let bullets = flat.matches("** — holds").count() + flat.matches("** — does not hold").count();
    assert_eq!(
        bullets,
        CLAIMS.len(),
        "a claim in EXPERIMENTS.md has no predicate"
    );
}
