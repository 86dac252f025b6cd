//! Campaign scheduler: run a batch on the sweep pool, consult the
//! result cache, and reassemble results in index order.
//!
//! The contract mirrors `amo_workloads::executor::par_run`: the caller
//! hands over a slice of [`RunSpec`]s and gets a `Vec` of outcomes in
//! the same order, bit-identical whether the runs executed serially, in
//! parallel, or came out of the cache. Duplicate specs (same content
//! key) simulate once and fan their result out to every requesting
//! index. The cells to simulate go to the pool's one cursor largest
//! machine first, so a batch ends when its work does rather than
//! behind its costliest cells. Cache lookups and writes happen on the
//! scheduler thread — each entry written as its cell finishes, while
//! the others still run; only the simulations themselves run on the
//! pool.

use crate::cache::ResultCache;
use crate::run::{RunArtifacts, RunSpec};
use amo_types::Stats;
use amo_workloads::executor::{par_run, sweep_workers};
use std::cmp::Reverse;

/// Cumulative counters of one [`Campaign`]'s scheduling activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CampaignCounters {
    /// Runs requested (before dedup).
    pub requested: u64,
    /// Distinct runs after content-key dedup.
    pub unique: u64,
    /// Distinct runs served from the cache.
    pub cache_hits: u64,
    /// Distinct runs that had to simulate.
    pub cache_misses: u64,
    /// Distinct runs that ended in a (cached or fresh) error.
    pub errors: u64,
}

/// A campaign execution context: an optional result cache plus the
/// counters the cache report is built from. One `Campaign` typically
/// spans many [`run`](Campaign::run) calls — each table generator
/// schedules its own batch — and the counters accumulate across all of
/// them.
#[derive(Debug)]
pub struct Campaign {
    cache: Option<ResultCache>,
    /// Scheduling counters, accumulated across every batch.
    pub counters: CampaignCounters,
    /// Merge of every distinct successful run's machine statistics
    /// (cached and fresh alike), for the campaign-level aggregate
    /// report.
    pub aggregate: Stats,
}

impl Campaign {
    /// A campaign writing through `cache` (or uncached when `None`).
    pub fn new(cache: Option<ResultCache>) -> Self {
        Campaign {
            cache,
            counters: CampaignCounters::default(),
            aggregate: Stats::new(),
        }
    }

    /// An uncached campaign: every run simulates.
    pub fn uncached() -> Self {
        Campaign::new(None)
    }

    /// Execute one batch of runs and return their outcomes in spec
    /// order.
    pub fn run(&mut self, specs: &[RunSpec]) -> Vec<Result<RunArtifacts, String>> {
        let mut outcomes: Vec<Option<Result<RunArtifacts, String>>> = vec![None; specs.len()];
        self.run_each(specs, |i, outcome| outcomes[i] = Some(outcome));
        outcomes
            .into_iter()
            .map(|o| o.expect("every spec answered"))
            .collect()
    }

    /// Execute one batch of runs and hand each outcome to `each` with
    /// the index of the spec it answers: the cache hits as they are
    /// read, then the runs the pool simulated. A caller that keeps only
    /// what it reads of an outcome never holds the whole batch.
    pub(crate) fn run_each(
        &mut self,
        specs: &[RunSpec],
        mut each: impl FnMut(usize, Result<RunArtifacts, String>),
    ) {
        let Campaign {
            cache,
            counters,
            aggregate,
        } = self;
        counters.requested += specs.len() as u64;

        // Dedup by content key, preserving first-appearance order so
        // scheduling stays deterministic.
        let mut unique: Vec<((u64, u64), usize)> = Vec::new(); // (key, spec index)
        let mut slot_of: Vec<usize> = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let key = spec.key();
            match unique.iter().position(|&(k, _)| k == key) {
                Some(slot) => slot_of.push(slot),
                None => {
                    slot_of.push(unique.len());
                    unique.push((key, i));
                }
            }
        }
        counters.unique += unique.len() as u64;

        // Count and merge each distinct outcome once, then hand it to
        // every spec that asked for it: a copy to each but the last.
        let (mut hits, mut errors) = (0, 0);
        let mut settle = |slot: usize, outcome: Result<RunArtifacts, String>| {
            match &outcome {
                Ok(art) => aggregate.merge(&art.stats),
                Err(_) => errors += 1,
            }
            let first = unique[slot].1;
            let mut askers = (first..specs.len()).filter(|&i| slot_of[i] == slot);
            let mut at = askers.next().expect("the first asker");
            for next in askers {
                each(at, outcome.clone());
                at = next;
            }
            each(at, outcome);
        };

        // Serve what the cache has; collect the rest for the pool.
        let mut cold: Vec<usize> = Vec::new(); // slots to simulate
        for (slot, &(key, _)) in unique.iter().enumerate() {
            match cache.as_ref().and_then(|c| c.get(key)) {
                Some(outcome) => {
                    hits += 1;
                    settle(slot, outcome);
                }
                None => cold.push(slot),
            }
        }

        // Start the largest machines first (ties in slot order) from
        // the pool's one cursor, and write each cache entry as its run
        // finishes; results still come back in `cold` order.
        let mut order: Vec<usize> = (0..cold.len()).collect();
        order.sort_by_key(|&j| Reverse(specs[unique[cold[j]].1].procs()));
        let fresh = par_run(
            sweep_workers(),
            &order,
            |j| specs[unique[cold[j]].1].execute(),
            |j, outcome| {
                if let Some(cache) = cache {
                    if let Err(e) = cache.put(unique[cold[j]].0, outcome) {
                        eprintln!("campaign cache: write failed: {e}");
                    }
                }
            },
        );
        for (&slot, outcome) in cold.iter().zip(fresh) {
            settle(slot, outcome);
        }
        counters.cache_hits += hits;
        counters.cache_misses += cold.len() as u64;
        counters.errors += errors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::number;
    use amo_sync::Mechanism;
    use amo_workloads::runner::BarrierBench;

    fn spec(mech: Mechanism) -> RunSpec {
        RunSpec::Barrier(BarrierBench {
            episodes: 3,
            warmup: 1,
            ..BarrierBench::paper(mech, 4)
        })
    }

    #[test]
    fn duplicate_specs_simulate_once_and_results_keep_order() {
        let dir = std::env::temp_dir().join(format!("amo-sched-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = Campaign::new(Some(ResultCache::new(&dir)));
        let specs = [
            spec(Mechanism::Amo),
            spec(Mechanism::LlSc),
            spec(Mechanism::Amo),
        ];
        let out = c.run(&specs);
        assert_eq!(out.len(), 3);
        assert_eq!(c.counters.requested, 3);
        assert_eq!(c.counters.unique, 2, "duplicate AMO spec deduped");
        assert_eq!(c.counters.cache_misses, 2);
        let amo0 = number(&out[0].as_ref().unwrap().numbers, "avg_cycles");
        let llsc = number(&out[1].as_ref().unwrap().numbers, "avg_cycles");
        let amo2 = number(&out[2].as_ref().unwrap().numbers, "avg_cycles");
        assert_eq!(amo0, amo2, "same key, same result");
        assert!(llsc > amo0, "order preserved: slot 1 is the LL/SC run");

        // Warm re-run: all unique runs hit.
        let mut warm = Campaign::new(Some(ResultCache::new(&dir)));
        let again = warm.run(&specs);
        assert_eq!(warm.counters.cache_hits, 2);
        assert_eq!(warm.counters.cache_misses, 0);
        for (a, b) in out.iter().zip(&again) {
            assert_eq!(a.as_ref().unwrap().numbers, b.as_ref().unwrap().numbers);
        }

        // Hits and a simulated run in one batch: each outcome still
        // lands at the index that asked for it, duplicates included.
        let mixed = [
            spec(Mechanism::Atomic),
            spec(Mechanism::Amo),
            spec(Mechanism::Atomic),
            spec(Mechanism::LlSc),
        ];
        let mut warm = Campaign::new(Some(ResultCache::new(&dir)));
        let got = warm.run(&mixed);
        let counters = warm.counters;
        assert_eq!((counters.cache_hits, counters.cache_misses), (2, 1));
        let cycles = |i: usize| number(&got[i].as_ref().unwrap().numbers, "avg_cycles");
        assert_eq!((cycles(1), cycles(3)), (amo0, llsc));
        assert_eq!(cycles(0), cycles(2));
        assert!(cycles(0) != amo0 && cycles(0) != llsc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncached_campaign_counts_misses_only() {
        let mut c = Campaign::uncached();
        let out = c.run(&[spec(Mechanism::Amo)]);
        assert!(out[0].is_ok());
        assert_eq!(c.counters.cache_hits, 0);
        assert_eq!(c.counters.cache_misses, 1);
        assert_eq!(c.counters.errors, 0);
    }
}
