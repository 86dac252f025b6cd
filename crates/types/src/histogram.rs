//! Log2-bucketed latency histograms.
//!
//! The paper's claims are about *distributions* of synchronization cost —
//! tail latencies under contention, not means — so [`Stats`](crate::Stats)
//! keeps one [`LatHist`] per operation class. Buckets are powers of two:
//! constant-time recording with no configuration, and 33 buckets cover the
//! full range of plausible cycle counts. Quantiles are approximate (bucket
//! resolution) but conservatively reported: a quantile is the inclusive
//! upper bound of its bucket, clamped to the exact maximum ever recorded,
//! so `p50 <= p95 <= p99 <= max` always holds and no quantile exceeds a
//! value that actually occurred.

use crate::json::JsonWriter;
use crate::jsonv::Json;

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `b`
/// (1..=31) holds `[2^(b-1), 2^b)`, and bucket 32 holds everything from
/// `2^31` up.
pub const LAT_BUCKETS: usize = 33;

/// A log2-bucketed histogram of `u64` samples (latencies in cycles).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatHist {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (for exact means).
    pub sum: u64,
    /// Largest sample ever recorded (exact, not bucketed).
    pub max: u64,
    /// Per-bucket sample counts; see [`LAT_BUCKETS`] for the layout.
    pub buckets: [u64; LAT_BUCKETS],
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; LAT_BUCKETS],
        }
    }
}

impl LatHist {
    /// Fresh, empty histogram.
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a sample value.
    #[inline]
    pub(crate) fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(LAT_BUCKETS - 1)
        }
    }

    /// `[lo, hi)` bounds of a bucket; the last bucket's `hi` is
    /// `u64::MAX` (it is open-ended).
    pub(crate) fn bucket_bounds(b: usize) -> (u64, u64) {
        assert!(b < LAT_BUCKETS);
        if b == 0 {
            (0, 1)
        } else if b == LAT_BUCKETS - 1 {
            (1 << (b - 1), u64::MAX)
        } else {
            (1 << (b - 1), 1 << b)
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Add another histogram's samples into this one.
    pub(crate) fn merge(&mut self, other: &LatHist) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Exact mean of all samples, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate quantile (`q` in `[0, 1]`): the inclusive upper bound
    /// of the bucket containing the `ceil(q * count)`-th smallest sample,
    /// clamped to the exact recorded maximum. Returns 0 on an empty
    /// histogram.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                let (_, hi) = Self::bucket_bounds(b);
                // Inclusive upper bound of the bucket, but never report a
                // value larger than one that actually occurred.
                return hi.saturating_sub(1).min(self.max);
            }
        }
        self.max
    }

    /// Median (50th percentile).
    pub(crate) fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub(crate) fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Write this histogram as a JSON object: counters plus derived
    /// quantiles, with the bucket array trimmed at the last non-zero
    /// bucket.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.kv_u64("count", self.count);
        w.kv_u64("sum", self.sum);
        w.kv_u64("max", self.max);
        w.kv_u64("p50", self.p50());
        w.kv_u64("p95", self.p95());
        w.kv_u64("p99", self.p99());
        w.key("buckets");
        w.begin_arr();
        let last = self
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        for &n in &self.buckets[..last] {
            w.u64_val(n);
        }
        w.end_arr();
        w.end_obj();
    }

    /// Reconstruct a histogram from the object
    /// [`write_json`](Self::write_json) emits. The trimmed tail of the
    /// bucket array is zero-filled; the derived `p50`/`p95`/`p99` members
    /// are ignored (they are recomputed on demand). Exact round trip:
    /// `from_json(parse(write_json(h))) == h`.
    pub fn from_json(v: &Json) -> Result<LatHist, String> {
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histogram: missing or non-integer `{k}`"))
        };
        let mut h = LatHist {
            count: field("count")?,
            sum: field("sum")?,
            max: field("max")?,
            buckets: [0; LAT_BUCKETS],
        };
        let bs = v
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("histogram: missing `buckets` array")?;
        if bs.len() > LAT_BUCKETS {
            return Err(format!(
                "histogram: {} buckets, max {LAT_BUCKETS}",
                bs.len()
            ));
        }
        for (i, b) in bs.iter().enumerate() {
            h.buckets[i] = b
                .as_u64()
                .ok_or_else(|| format!("histogram: bucket {i} not an integer"))?;
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_powers_of_two() {
        assert_eq!(LatHist::bucket_of(0), 0);
        assert_eq!(LatHist::bucket_of(1), 1);
        assert_eq!(LatHist::bucket_of(2), 2);
        assert_eq!(LatHist::bucket_of(3), 2);
        assert_eq!(LatHist::bucket_of(4), 3);
        assert_eq!(LatHist::bucket_of(u64::MAX), LAT_BUCKETS - 1);
        for b in 1..LAT_BUCKETS - 1 {
            let (lo, hi) = LatHist::bucket_bounds(b);
            assert_eq!(LatHist::bucket_of(lo), b);
            assert_eq!(LatHist::bucket_of(hi - 1), b);
            assert_eq!(hi, lo * 2);
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let mut h = LatHist::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // p50 lands in bucket [32, 64): 63, clamped to max 100 -> 63.
        assert_eq!(h.p50(), 63);
        // p95 / p99 land in bucket [64, 128): upper bound 127 clamps to
        // the exact max, 100.
        assert_eq!(h.p95(), 100);
        assert_eq!(h.p99(), 100);
        assert_eq!(h.max, 100);
        assert_eq!(h.mean(), Some(50.5));
    }

    #[test]
    fn single_sample_quantiles_equal_the_sample() {
        let mut h = LatHist::new();
        h.record(5);
        assert_eq!(h.p50(), 5);
        assert_eq!(h.p99(), 5);
        assert_eq!(h.max, 5);
    }

    #[test]
    fn merge_conserves_counts() {
        let mut a = LatHist::new();
        let mut b = LatHist::new();
        for v in [0, 1, 7, 900, 1 << 40] {
            a.record(v);
            b.record(v * 3);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count, a.count + b.count);
        assert_eq!(m.sum, a.sum + b.sum);
        assert_eq!(m.max, a.max.max(b.max));
        assert_eq!(
            m.buckets.iter().sum::<u64>(),
            a.buckets.iter().sum::<u64>() + b.buckets.iter().sum::<u64>()
        );
    }

    use crate::seed::cases;

    /// Quantiles are monotone and never exceed the exact maximum.
    #[test]
    fn quantile_order_holds() {
        for mut rng in cases(module_path!(), "quantile_order_holds", 64) {
            let samples: Vec<u64> = (0..rng.range(1..300)).map(|_| rng.below(1 << 40)).collect();
            let mut h = LatHist::new();
            for &v in &samples {
                h.record(v);
            }
            let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
            assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
            assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
            assert!(p99 <= h.max, "p99 {p99} > max {}", h.max);
            assert_eq!(h.max, *samples.iter().max().unwrap());
        }
    }

    /// Every recorded value lands in the bucket whose power-of-two
    /// bounds contain it.
    #[test]
    fn buckets_are_exact_powers_of_two() {
        for mut rng in cases(module_path!(), "buckets_are_exact_powers_of_two", 64) {
            let v = rng.below(u64::MAX);
            let b = LatHist::bucket_of(v);
            let (lo, hi) = LatHist::bucket_bounds(b);
            assert!(lo <= v, "{v} below bucket {b} lower bound {lo}");
            assert!(
                v < hi || b == LAT_BUCKETS - 1,
                "{v} at/above bucket {b} upper bound {hi}"
            );
            if b > 1 {
                assert!(lo.is_power_of_two());
            }
            if (1..LAT_BUCKETS - 1).contains(&b) {
                assert!(hi.is_power_of_two());
            }
        }
    }

    /// Merging conserves per-bucket counts, totals, sums, and max.
    #[test]
    fn merge_conserves() {
        for mut rng in cases(module_path!(), "merge_conserves", 64) {
            let xs: Vec<u64> = (0..rng.below(200)).map(|_| rng.below(1 << 36)).collect();
            let ys: Vec<u64> = (0..rng.below(200)).map(|_| rng.below(1 << 36)).collect();
            let mut a = LatHist::new();
            let mut b = LatHist::new();
            let mut all = LatHist::new();
            for &v in &xs {
                a.record(v);
                all.record(v);
            }
            for &v in &ys {
                b.record(v);
                all.record(v);
            }
            let mut m = a.clone();
            m.merge(&b);
            assert_eq!(&m, &all, "merge differs from recording the union");
            assert_eq!(m.count, (xs.len() + ys.len()) as u64);
            assert_eq!(m.buckets.iter().sum::<u64>(), m.count);
        }
    }

    #[test]
    fn json_shape() {
        let mut h = LatHist::new();
        h.record(3);
        let mut w = JsonWriter::new();
        h.write_json(&mut w);
        assert_eq!(
            w.finish(),
            r#"{"count":1,"sum":3,"max":3,"p50":3,"p95":3,"p99":3,"buckets":[0,0,1]}"#
        );
    }

    #[test]
    fn json_round_trip_restores_trimmed_buckets() {
        let mut h = LatHist::new();
        for v in [0, 3, 900, 1 << 20] {
            h.record(v);
        }
        let mut w = JsonWriter::new();
        h.write_json(&mut w);
        let parsed = Json::parse(&w.finish()).unwrap();
        let back = LatHist::from_json(&parsed).unwrap();
        assert_eq!(back, h, "round trip must be exact, tail zero-filled");
        // An empty histogram (fully trimmed bucket array) also survives.
        let empty = LatHist::new();
        let mut w = JsonWriter::new();
        empty.write_json(&mut w);
        let back = LatHist::from_json(&Json::parse(&w.finish()).unwrap()).unwrap();
        assert_eq!(back, empty);
    }
}
