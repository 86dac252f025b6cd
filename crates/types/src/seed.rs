//! The one sanctioned seed-derivation scheme for simulation runs.
//!
//! Every run in a sweep must see an RNG stream that is (a) stable
//! across refactors of the sweep loop — the stream belongs to the
//! *run*, not to the order runs happen to execute in — and (b)
//! decorrelated from neighbouring runs, so "seed 1, seed 2, seed 3"
//! grids do not share low-bit structure. Both properties come from the
//! splitmix64 finalizer: [`run_seed`] folds a campaign-level base seed
//! and a run index through two rounds of it.
//!
//! All seeded components route through here: the workload runners
//! draw arrival skew and think times from a [`SplitMix`] seeded with
//! [`run_seed`], the property tests draw their [`cases`] from one, the
//! fault oracle (`amo-sim`'s `faults`) uses [`splitmix64`] as its keyed hash,
//! and the campaign engine derives per-replica seeds with
//! `run_seed(spec_seed, replica_index)`. The exact output values are
//! pinned by tests below: changing this function invalidates every
//! committed artifact (`tables_output.txt`, cache entries), so treat
//! the constants as frozen.

use crate::Cycle;
use std::io::Write;

/// SplitMix's state increment (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: a cheap, high-quality 64-bit mixer
/// (Steele, Lea & Flood's SplitMix, the `nextSeed`+`mix64` step).
/// Bijective on `u64`, so distinct inputs never collide.
#[inline]
pub const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derive the RNG seed for run `index` of a sweep rooted at `base`.
///
/// `splitmix64(base + splitmix64(index))`: the inner mix spreads the
/// (small, sequential) index across all 64 bits before it meets the
/// base, and the outer mix decorrelates related bases. Two rounds mean
/// neither a grid over `base` nor a grid over `index` produces
/// correlated streams.
#[inline]
pub const fn run_seed(base: u64, index: u64) -> u64 {
    splitmix64(base.wrapping_add(splitmix64(index)))
}

/// The one random stream: SplitMix64 from a 64-bit state. Each draw is
/// [`splitmix64`] of the state, which then advances by the golden
/// ratio. Deterministic for a given seed on every platform; quality
/// enough for arrival skew, think times and property-test inputs, not
/// for cryptography. The runs' skew and think-time streams are pinned by
/// tests below: changing this type moves every committed artifact.
#[derive(Clone, Debug)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// A stream fully determined by `seed`.
    pub const fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let x = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN);
        x
    }

    /// A draw in `0..n` (`n > 0`): `next_u64() % n`, with the modulo
    /// bias that implies (negligible for the small `n` drawn here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A draw in `range` (non-empty): `start + below(end - start)`.
    #[inline]
    pub fn range(&mut self, range: std::ops::Range<u64>) -> u64 {
        range.start + self.below(range.end - range.start)
    }
}

/// The cases of property `name` of `module` (pass `module_path!()`):
/// `count` streams, case `i` seeded
/// `stable_hash128("{module}::{name}").0 ^ (i << 32)`, so every property
/// draws its own stable cases. Iterate it with `for mut rng in cases(…)`:
/// if the loop panics, the failing case is named on stderr, and a rerun
/// replays it exactly.
pub fn cases(module: &str, name: &str, count: u32) -> Cases {
    let path = format!("{module}::{name}");
    let base = stable_hash128(path.as_bytes()).0;
    Cases {
        path,
        base,
        next: 0,
        count,
    }
}

/// The case streams of one property; see [`cases`].
#[derive(Debug)]
pub struct Cases {
    path: String,
    base: u64,
    next: u32,
    count: u32,
}

impl Iterator for Cases {
    type Item = SplitMix;

    fn next(&mut self) -> Option<SplitMix> {
        let case = self.next;
        (case < self.count).then(|| {
            self.next += 1;
            SplitMix::new(self.base ^ (u64::from(case) << 32))
        })
    }
}

/// A panic unwinding out of the loop drops the iterator mid-case: name
/// the case it last handed out. (A write error is ignored: a panic
/// here, during unwinding, would abort.)
impl Drop for Cases {
    fn drop(&mut self) {
        if std::thread::panicking() && self.next > 0 {
            let (path, case) = (&self.path, self.next - 1);
            let _ = writeln!(std::io::stderr(), "property `{path}` failed at case {case}");
        }
    }
}

/// FNV-1a offset basis (the standard 64-bit constant).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A 128-bit content hash of `bytes` as two independent FNV-1a streams,
/// the first seeded with the offset basis and the second with its
/// splitmix64 mix, carried through one pass over the bytes. Used by the
/// campaign result cache: 128 bits makes accidental key collisions
/// across a campaign grid negligible, while staying dependency-free and
/// stable across platforms and compiler versions.
pub fn stable_hash128(bytes: &[u8]) -> (u64, u64) {
    let (mut a, mut b) = (FNV_OFFSET, splitmix64(FNV_OFFSET));
    for &byte in bytes {
        a = (a ^ byte as u64).wrapping_mul(FNV_PRIME);
        b = (b ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    (a, b)
}

/// Render a 128-bit content key as 32 lowercase hex digits — the one
/// spelling of cache keys, checksums and document fingerprints.
pub fn key_hex(key: (u64, u64)) -> String {
    format!("{:016x}{:016x}", key.0, key.1)
}

/// Per-processor arrival skew for one barrier episode, without an RNG:
/// `100 + (p*37 + episode*13) % spread`. Used by chaos-style runs that
/// must stay bit-identical under any seed change.
#[inline]
pub const fn arithmetic_skew(p: u64, episode: u64, spread: Cycle) -> Cycle {
    100 + (p.wrapping_mul(37).wrapping_add(episode.wrapping_mul(13))) % spread
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 64-bit FNV-1a over `bytes`, starting from `state`: the reference
    /// each lane of [`stable_hash128`] must equal.
    fn fnv1a64(bytes: &[u8], mut state: u64) -> u64 {
        for &byte in bytes {
            state ^= byte as u64;
            state = state.wrapping_mul(FNV_PRIME);
        }
        state
    }

    /// The derivation is frozen: these literals pin the exact stream.
    /// If this test fails, every committed artifact is stale.
    #[test]
    fn splitmix64_is_pinned() {
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(0xA40_5EED), 0xFA79_1B34_F71B_3BF6);
    }

    #[test]
    fn run_seed_is_pinned() {
        assert_eq!(run_seed(0, 0), 0xA706_DD2F_4D19_7E6F);
        assert_eq!(run_seed(0xA40_5EED, 0), 0x472D_823F_78D2_6E8E);
        assert_eq!(run_seed(0xA40_5EED, 1), 0x7BFC_FA85_772C_EF50);
        assert_eq!(run_seed(0xA40_5EED, 64), 0x1A09_D772_DC34_1172);
        assert_eq!(run_seed(0x10C_5EED, 8), 0x3B04_4783_546A_D294);
        assert_eq!(run_seed(0x7_AEED, 10_000), 0xF681_E3E0_24A8_CA46);
    }

    #[test]
    fn nearby_indices_are_decorrelated() {
        // Hamming distance between seeds of adjacent runs should look
        // like independent draws (~32 differing bits), never < 16.
        for i in 0..64u64 {
            let d = (run_seed(42, i) ^ run_seed(42, i + 1)).count_ones();
            assert!(d >= 16, "index {i}: only {d} differing bits");
        }
    }

    #[test]
    fn fnv_is_pinned_and_sensitive() {
        // Classic FNV-1a test vector.
        assert_eq!(fnv1a64(b"", FNV_OFFSET), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a", FNV_OFFSET), 0xAF63_DC4C_8601_EC8C);
        let (a, b) = stable_hash128(b"campaign");
        assert_ne!(a, b, "the two streams must be independent");
        let (a2, _) = stable_hash128(b"campaigN");
        assert_ne!(a, a2);
        // Chaining equals one-shot.
        assert_eq!(
            fnv1a64(b"cd", fnv1a64(b"ab", FNV_OFFSET)),
            fnv1a64(b"abcd", FNV_OFFSET)
        );
    }

    /// Every cache key, entry checksum and document fingerprint is a
    /// `stable_hash128`: these literals pin both lanes.
    #[test]
    fn stable_hash128_is_pinned() {
        assert_eq!(
            stable_hash128(b""),
            (0xCBF2_9CE4_8422_2325, 0xC381_7C01_6BA4_FF30)
        );
        assert_eq!(
            stable_hash128(b"campaign"),
            (0x7E69_A0A2_884C_5B53, 0x935F_7610_90F7_1B1A)
        );
    }

    /// The one-pass loop equals two separate FNV-1a passes, lane by
    /// lane: at every length up to 300 of a splitmix byte stream, and on
    /// a cache payload the paper campaign writes.
    #[test]
    fn stable_hash128_equals_two_fnv_passes() {
        let two_passes = |bytes: &[u8]| {
            (
                fnv1a64(bytes, FNV_OFFSET),
                fnv1a64(bytes, splitmix64(FNV_OFFSET)),
            )
        };
        let stream: Vec<u8> = (0..=300u64).map(|i| splitmix64(i) as u8).collect();
        for len in 0..=stream.len() {
            let bytes = &stream[..len];
            assert_eq!(stable_hash128(bytes), two_passes(bytes), "length {len}");
        }
        let payload = include_str!("testdata/cache-payload.json");
        assert!(payload.starts_with(r#"{"schema":"amo-run-artifacts-v1""#));
        assert_eq!(
            stable_hash128(payload.as_bytes()),
            two_passes(payload.as_bytes())
        );
    }

    /// The runs' streams are frozen: the first draws of the barrier
    /// skew (`0..800`) and lock think-time (`0..1000`) streams at 64
    /// processors, and the first draw of one property's case 0. If this
    /// test fails, every committed artifact is stale.
    #[test]
    fn split_mix_is_pinned() {
        let draws = |seed, n| {
            let mut rng = SplitMix::new(seed);
            [(); 4].map(|()| rng.below(n))
        };
        assert_eq!(draws(run_seed(0xA40_5EED, 64), 800), [14, 576, 682, 586]);
        assert_eq!(draws(run_seed(0x10C_5EED, 64), 1000), [248, 390, 992, 540]);
        let name = b"amo_types::histogram::tests::quantile_order_holds";
        assert_eq!(
            SplitMix::new(stable_hash128(name).0).next_u64(),
            0x500f_b2db_a205_de6e
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (SplitMix::new(42), SplitMix::new(42));
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn draws_stay_in_bounds() {
        let mut rng = SplitMix::new(7);
        for _ in 0..1000 {
            assert!((10..20).contains(&rng.range(10..20)));
            assert!(rng.below(6) <= 5);
            assert_eq!(rng.range(3..4), 3);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (mut a, mut b) = (SplitMix::new(1), SplitMix::new(2));
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    /// Every case of a property gets its own stream, seeded from the
    /// property's path and the case index.
    #[test]
    fn cases_are_seeded_from_path_and_index() {
        let firsts: Vec<u64> = cases("amo_types::seed", "p", 32)
            .map(|mut rng| rng.next_u64())
            .collect();
        let base = stable_hash128(b"amo_types::seed::p").0;
        let want: Vec<u64> = (0..32u64)
            .map(|i| SplitMix::new(base ^ (i << 32)).next_u64())
            .collect();
        assert_eq!(firsts, want);
    }

    /// A panicking case fails the property: the loop does not swallow
    /// it (the iterator's drop names the case on the way out).
    #[test]
    #[should_panic(expected = "case 5 failed")]
    fn a_failing_case_fails_the_property() {
        for (i, _rng) in cases("amo_types::seed", "q", 8).enumerate() {
            assert!(i != 5, "case {i} failed");
        }
    }

    #[test]
    fn arithmetic_skew_matches_formula() {
        assert_eq!(arithmetic_skew(0, 0, 800), 100);
        assert_eq!(arithmetic_skew(3, 2, 800), 100 + 3 * 37 + 2 * 13);
        for p in 0..64 {
            for e in 0..10 {
                let s = arithmetic_skew(p, e, 800);
                assert!((100..900).contains(&s));
            }
        }
    }
}
