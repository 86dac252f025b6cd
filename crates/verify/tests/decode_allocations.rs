//! Allocation bounds of the input readers and of the cache-key writer,
//! checked with [`amo_obs::CountingAlloc`] as this test binary's global
//! allocator. Reading `specs/paper.json` and `specs/verify-matrix.json`
//! is the whole set-up of the campaign and matrix benchmarks, and a
//! barrier cell's key is most of a warm campaign pass: the counts are
//! exact where their microseconds are noise. One test, because the
//! counters are process-wide.

use amo_campaign::{CampaignSpec, RunSpec};
use amo_obs::{alloc_counters, CountingAlloc};
use amo_sync::Mechanism;
use amo_verify::VerifyMatrix;
use amo_workloads::runner::BarrierBench;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` performs.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = alloc_counters().0;
    f();
    alloc_counters().0 - before
}

fn spec(name: &str) -> String {
    let path = format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn readers_and_the_key_writer_allocate_no_more_than_they_did() {
    let (paper, sweep) = (spec("paper.json"), spec("error-rate-sweep.json"));
    let matrix = spec("verify-matrix.json");
    let cell = RunSpec::Barrier(BarrierBench::paper(Mechanism::Amo, 64));
    // Warm whatever is built on first use.
    CampaignSpec::parse(&paper).unwrap();
    CampaignSpec::parse(&sweep).unwrap();
    VerifyMatrix::from_json(&matrix).unwrap();
    cell.key();

    let parse = allocs(|| drop(CampaignSpec::parse(&paper).unwrap()));
    let grid = allocs(|| drop(CampaignSpec::parse(&sweep).unwrap()));
    let cells = allocs(|| drop(VerifyMatrix::from_json(&matrix).unwrap()));
    let key = allocs(|| {
        std::hint::black_box(cell.key());
    });
    // The counts these readers and the writer made before they moved
    // onto one member list per description.
    for (what, n, bound) in [
        ("CampaignSpec::parse(paper.json)", parse, 13),
        ("CampaignSpec::parse(error-rate-sweep.json)", grid, 104),
        ("VerifyMatrix::from_json(verify-matrix.json)", cells, 50),
        ("RunSpec::key of a barrier cell", key, 21),
    ] {
        assert!(n <= bound, "{what}: {n} allocations, more than {bound}");
    }
}
