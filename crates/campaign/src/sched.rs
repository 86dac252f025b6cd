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
        self.counters.requested += specs.len() as u64;

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
        self.counters.unique += unique.len() as u64;

        // Serve what the cache has; collect the rest for the pool.
        let mut outcomes: Vec<Option<Result<RunArtifacts, String>>> = vec![None; unique.len()];
        let mut cold: Vec<usize> = Vec::new(); // slots to simulate
        if let Some(cache) = &self.cache {
            for (slot, &(key, _)) in unique.iter().enumerate() {
                match cache.get(key) {
                    Some(outcome) => {
                        self.counters.cache_hits += 1;
                        outcomes[slot] = Some(outcome);
                    }
                    None => cold.push(slot),
                }
            }
        } else {
            cold.extend(0..unique.len());
        }
        self.counters.cache_misses += cold.len() as u64;

        // Start the largest machines first (ties in slot order) from
        // the pool's one cursor, and write each cache entry as its run
        // finishes; results still come back in `cold` order.
        let mut order: Vec<usize> = (0..cold.len()).collect();
        order.sort_by_key(|&j| Reverse(specs[unique[cold[j]].1].procs()));
        let cache = self.cache.as_ref();
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
            outcomes[slot] = Some(outcome);
        }

        let outcomes: Vec<Result<RunArtifacts, String>> = outcomes
            .into_iter()
            .map(|o| o.expect("every slot filled"))
            .collect();
        self.counters.errors += outcomes.iter().filter(|o| o.is_err()).count() as u64;
        for outcome in outcomes.iter().flatten() {
            self.aggregate.merge(&outcome.stats);
        }

        // Fan unique outcomes back out to every requesting index. A
        // batch without duplicates (every `artifacts::evaluate` batch) is
        // already in request order: hand it over rather than copy it,
        // which would hold the batch in memory twice.
        if unique.len() == specs.len() {
            return outcomes;
        }
        slot_of.iter().map(|&slot| outcomes[slot].clone()).collect()
    }

    /// Execute a batch where every run is expected to succeed (table
    /// regeneration on a fault-free machine): unwraps each outcome with
    /// the run's own error message.
    pub fn run_ok(&mut self, specs: &[RunSpec]) -> Vec<RunArtifacts> {
        self.run(specs)
            .into_iter()
            .map(|o| o.unwrap_or_else(|e| panic!("campaign cell failed: {e}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let amo0 = out[0].as_ref().unwrap().num("avg_cycles");
        let llsc = out[1].as_ref().unwrap().num("avg_cycles");
        let amo2 = out[2].as_ref().unwrap().num("avg_cycles");
        assert_eq!(amo0, amo2, "same key, same result");
        assert!(llsc > amo0, "order preserved: slot 1 is the LL/SC run");

        // Warm re-run: all unique runs hit.
        let mut warm = Campaign::new(Some(ResultCache::new(&dir)));
        let again = warm.run(&specs);
        assert_eq!(warm.counters.cache_hits, 2);
        assert_eq!(warm.counters.cache_misses, 0);
        for (a, b) in out.iter().zip(&again) {
            assert_eq!(
                a.as_ref().unwrap().num("avg_cycles"),
                b.as_ref().unwrap().num("avg_cycles")
            );
        }
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
