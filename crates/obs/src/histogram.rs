//! Latency histograms: an exact tally of small samples over log₂ buckets.
//!
//! A [`Histogram`] records `u64` samples (cycles, in this workspace). It
//! reports them as 65 power-of-two buckets: bucket 0 holds the value 0,
//! bucket `i` (for `i >= 1`) holds values in `[2^(i-1), 2^i - 1]`. This
//! gives a fixed-size, allocation-free structure whose quantile error is
//! bounded by 2× — plenty for latency distributions that span from a
//! 1-cycle L1 hit to a multi-hundred-cycle DRAM row miss.
//!
//! Most samples are small (a DRAM row hit takes about 10 cycles, a row miss
//! about 60), so samples below 128 go to a dense tally of one counter per
//! value instead: recording one is a single increment. The log₂ fields
//! (buckets, count, saturating sum, min, max) hold only the samples of 128
//! and above, and every reader folds the tally in. Every field is a
//! function of the sample multiset alone, so the representation is
//! canonical (equal histograms hold equal samples) and every reader returns
//! what a histogram of log₂ fields alone would.
//!
//! Quantiles are reported as the upper bound of the bucket containing the
//! requested rank, clamped to the observed maximum, so `p50 <= p90 <= p99
//! <= max` always holds and exact values are reported exactly whenever all
//! samples in the target bucket were equal.

/// Number of buckets: one for zero plus one per bit of a `u64`.
pub const BUCKETS: usize = 65;

/// Samples below this value are tallied one counter per value. They fill
/// buckets 0 to 7 exactly; 128 is the first sample of bucket 8.
const DENSE: usize = 128;

/// A fixed-size log₂ histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// `dense[v]` counts the samples equal to `v`, for `v < 128`.
    dense: [u64; DENSE],
    /// Buckets of the samples of 128 and above (0 to 7 stay empty).
    buckets: [u64; BUCKETS],
    /// How many samples of 128 and above there are.
    count: u64,
    /// Saturating sum of the samples of 128 and above.
    sum: u64,
    /// Smallest sample of 128 and above (`u64::MAX` when there is none);
    /// in a [`Histogram::delta_since`] result, the approximated minimum.
    min: u64,
    /// Largest sample of 128 and above (0 when there is none); in a
    /// [`Histogram::delta_since`] result, the approximated maximum.
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample: 0 for 0, otherwise `64 - leading_zeros`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (the largest sample it can hold).
fn bucket_top(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            dense: [0; DENSE],
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        if v < DENSE as u64 {
            self.dense[v as usize] += 1;
        } else {
            self.record_large(v, 1);
        }
    }

    /// Records `n` samples of the same value `v` in O(1). Every field is
    /// independent of the order of samples, so this equals `n` calls of
    /// [`Histogram::record`] (saturating `sum` included); `n = 0` is a
    /// no-op.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if v < DENSE as u64 {
            self.dense[v as usize] += n;
        } else if n > 0 {
            self.record_large(v, n);
        }
    }

    /// Records `n > 0` samples of a value of 128 or above.
    fn record_large(&mut self, v: u64, n: u64) {
        self.buckets[bucket_of(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The bucket counts of all samples: the tally folded into buckets 0
    /// to 7, the larger samples' own buckets above.
    fn folded_buckets(&self) -> [u64; BUCKETS] {
        let mut b = self.buckets;
        for (v, &n) in self.dense.iter().enumerate() {
            b[bucket_of(v as u64)] += n;
        }
        b
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count + self.dense.iter().sum::<u64>()
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.dense
            .iter()
            .zip(0u64..)
            .fold(self.sum, |s, (&n, v)| s.saturating_add(v.saturating_mul(n)))
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        match self.dense.iter().position(|&n| n > 0) {
            Some(v) => self.min.min(v as u64),
            None if self.count == 0 => 0,
            None => self.min,
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        match self.dense.iter().rposition(|&n| n > 0) {
            Some(v) => self.max.max(v as u64),
            None => self.max,
        }
    }

    /// Mean sample, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            count => self.sum() as f64 / count as f64,
        }
    }

    /// Quantile estimate for `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the sample of that rank, clamped to the observed max.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based; q = 0 maps to the first sample.
        let rank = ((q * count as f64).ceil() as u64).max(1);
        let (min, max) = (self.min(), self.max());
        let mut seen = 0u64;
        for (i, n) in self.folded_buckets().into_iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_top(i).min(max).max(min);
            }
        }
        max
    }

    /// Median estimate (see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (d, o) in self.dense.iter_mut().zip(other.dense.iter()) {
            *d += o;
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        // An empty `other` holds `u64::MAX` and 0 here, which change nothing.
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded since `earlier` (an older snapshot of this same
    /// histogram). min/max of the delta are approximated by the current
    /// min/max, since buckets alone cannot recover exact extrema. The sum
    /// is exact while this histogram's sum has not saturated, and a lower
    /// bound after.
    pub fn delta_since(&self, earlier: &Histogram) -> Histogram {
        let mut d = Histogram::new();
        for (v, n) in d.dense.iter_mut().enumerate() {
            *n = self.dense[v].saturating_sub(earlier.dense[v]);
        }
        for (i, n) in d.buckets.iter_mut().enumerate() {
            *n = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        d.count = self.count.saturating_sub(earlier.count);
        d.sum = self.sum.saturating_sub(earlier.sum);
        if d.count() > 0 {
            d.min = self.min();
            d.max = self.max();
        }
        d
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs, in order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> {
        self.folded_buckets()
            .into_iter()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .map(|(i, n)| (bucket_top(i), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The histogram of log₂ fields alone, before the dense tally: the
    /// reference every reader of [`Histogram`] must agree with.
    #[derive(Clone)]
    struct Log2Histogram {
        buckets: [u64; BUCKETS],
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    }

    impl Log2Histogram {
        fn new() -> Self {
            Self {
                buckets: [0; BUCKETS],
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }
        }

        fn record(&mut self, v: u64) {
            self.buckets[bucket_of(v)] += 1;
            self.count += 1;
            self.sum = self.sum.saturating_add(v);
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }

        fn record_n(&mut self, v: u64, n: u64) {
            if n == 0 {
                return;
            }
            self.buckets[bucket_of(v)] += n;
            self.count += n;
            self.sum = self.sum.saturating_add(v.saturating_mul(n));
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }

        fn min(&self) -> u64 {
            if self.count == 0 {
                0
            } else {
                self.min
            }
        }

        fn mean(&self) -> f64 {
            if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            }
        }

        fn quantile(&self, q: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let q = q.clamp(0.0, 1.0);
            let rank = ((q * self.count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (i, &n) in self.buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_top(i).min(self.max).max(self.min);
                }
            }
            self.max
        }

        fn merge(&mut self, other: &Log2Histogram) {
            for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
                *b += o;
            }
            self.count += other.count;
            self.sum = self.sum.saturating_add(other.sum);
            if other.count > 0 {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }

        fn delta_since(&self, earlier: &Log2Histogram) -> Log2Histogram {
            let mut d = Log2Histogram::new();
            for i in 0..BUCKETS {
                d.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
            }
            d.count = self.count.saturating_sub(earlier.count);
            d.sum = self.sum.saturating_sub(earlier.sum);
            if d.count > 0 {
                d.min = self.min;
                d.max = self.max;
            }
            d
        }

        fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
            self.buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (bucket_top(i), n))
                .collect()
        }
    }

    /// Checks every reader of `h` against the reference `r`. `sum` and
    /// `mean` are compared too unless `sum_bound` is given; then `h.sum()`
    /// must only not exceed it (a delta across a saturated sum).
    fn assert_agrees(h: &Histogram, r: &Log2Histogram, sum_bound: Option<u128>, at: &str) {
        assert_eq!(h.count(), r.count, "{at}: count");
        assert_eq!(h.min(), r.min(), "{at}: min");
        assert_eq!(h.max(), r.max, "{at}: max");
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), r.quantile(q), "{at}: quantile({q})");
        }
        assert_eq!(
            (h.p50(), h.p90(), h.p99()),
            (r.quantile(0.5), r.quantile(0.9), r.quantile(0.99)),
            "{at}: p50/p90/p99"
        );
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, r.nonzero_buckets(), "{at}: nonzero_buckets");
        match sum_bound {
            None => {
                assert_eq!(h.sum(), r.sum, "{at}: sum");
                assert_eq!(h.mean().to_bits(), r.mean().to_bits(), "{at}: mean");
            }
            Some(bound) => assert!(u128::from(h.sum()) <= bound, "{at}: sum over the samples'"),
        }
    }

    /// A histogram, its reference, and the unsaturated sum of its samples.
    #[derive(Clone)]
    struct Twin {
        h: Histogram,
        r: Log2Histogram,
        true_sum: u128,
    }

    impl Twin {
        fn new() -> Self {
            Self {
                h: Histogram::new(),
                r: Log2Histogram::new(),
                true_sum: 0,
            }
        }

        /// One seeded step: a `record` or a `record_n`, of a value drawn
        /// from the tally's edges, the extremes or anywhere in between.
        fn step(&mut self, x: &mut u64, wide: bool) {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let edges: &[u64] = if wide {
                &[0, 1, 127, 128, 129, 1 << 63, u64::MAX]
            } else {
                &[0, 1, 127, 128, 129]
            };
            let v = match *x % 4 {
                0 => edges[(*x >> 8) as usize % edges.len()],
                1 => (*x >> 8) % 256,
                2 if wide => *x >> (*x >> 58),
                _ => (*x >> 8) % 5000,
            };
            let n = match (*x >> 20) % 6 {
                0 => Some(0),
                1 => Some(1),
                2 => Some(1 << 40),
                _ => None,
            };
            match n {
                Some(n) => {
                    self.h.record_n(v, n);
                    self.r.record_n(v, n);
                }
                None => {
                    self.h.record(v);
                    self.r.record(v);
                }
            }
            self.true_sum += u128::from(v) * u128::from(n.unwrap_or(1));
        }

        fn exact_sum(&self) -> bool {
            self.true_sum < u128::from(u64::MAX)
        }
    }

    #[test]
    fn dense_tally_matches_a_log2_reference() {
        for wide in [false, true] {
            let (mut xa, mut xb) = (0x9E37_79B9_7F4A_7C15u64, 0xD1B5_4A32_D192_ED03u64);
            let (mut a, mut b) = (Twin::new(), Twin::new());
            let mut earlier = Twin::new();
            for i in 0..400 {
                a.step(&mut xa, wide);
                b.step(&mut xb, wide);
                let at = format!("wide={wide} step {i}");
                assert_agrees(&a.h, &a.r, None, &format!("{at} a"));
                assert_agrees(&b.h, &b.r, None, &format!("{at} b"));

                let mut merged = a.clone();
                merged.h.merge(&b.h);
                merged.r.merge(&b.r);
                assert_agrees(&merged.h, &merged.r, None, &format!("{at} merge"));

                if i % 50 == 0 {
                    earlier = a.clone();
                }
                let d = a.h.delta_since(&earlier.h);
                let dr = a.r.delta_since(&earlier.r);
                // Both delta sums are exact until `a`'s sum saturates, and
                // lower bounds of the epoch's sum after.
                let bound = (!a.exact_sum()).then_some(a.true_sum - earlier.true_sum);
                assert_agrees(&d, &dr, bound, &format!("{at} delta"));
                // Merging the delta back onto the snapshot restores every
                // sample count.
                let mut back = earlier.h.clone();
                back.merge(&d);
                assert_eq!(back.count(), a.h.count(), "{at} delta merged back");
            }
            assert!(!wide || !a.exact_sum(), "the wide stream saturates its sum");
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_top(0), 0);
        assert_eq!(bucket_top(1), 1);
        assert_eq!(bucket_top(2), 3);
        assert_eq!(bucket_top(64), u64::MAX);
    }

    #[test]
    fn identical_samples_report_exactly() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(4);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 400);
        assert_eq!(h.min(), 4);
        assert_eq!(h.max(), 4);
        assert_eq!(h.p50(), 4);
        assert_eq!(h.p90(), 4);
        assert_eq!(h.p99(), 4);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 10, 50, 200, 1000, 5000] {
            h.record(v);
        }
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
        assert!(h.p99() <= h.max());
        assert!(h.p50() >= h.min());
    }

    #[test]
    fn quantile_is_within_2x_of_exact() {
        let mut h = Histogram::new();
        let mut samples: Vec<u64> = (1..=1000u64).collect();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        let exact_p50 = samples[499];
        let est = h.p50();
        assert!(est >= exact_p50, "estimate must not undershoot its rank");
        assert!(est < exact_p50 * 2, "log2 bucket error bound is 2x");
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [3u64, 17, 99] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 256] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        for v in [0u64, 1, 7, 1 << 63, u64::MAX] {
            for n in [0u64, 1, 3] {
                // On top of a non-empty base too, so `sum` saturates for
                // the large values and min/max merge with older samples.
                for base in [&[][..], &[5u64, 1 << 62][..]] {
                    let mut one_by_one = Histogram::new();
                    let mut at_once = Histogram::new();
                    for &b in base {
                        one_by_one.record(b);
                        at_once.record(b);
                    }
                    for _ in 0..n {
                        one_by_one.record(v);
                    }
                    at_once.record_n(v, n);
                    assert_eq!(at_once, one_by_one, "v={v} n={n} base={base:?}");
                }
            }
        }
    }

    #[test]
    fn record_n_of_zero_samples_leaves_an_empty_histogram() {
        let mut h = Histogram::new();
        h.record_n(42, 0);
        h.record_n(u64::MAX, 0);
        assert_eq!(h, Histogram::new());
    }

    #[test]
    fn delta_since_isolates_an_epoch() {
        let mut h = Histogram::new();
        h.record(8);
        h.record(16);
        let snap = h.clone();
        h.record(100);
        h.record(100);
        h.record(100);
        let d = h.delta_since(&snap);
        assert_eq!(d.count(), 3);
        assert_eq!(d.sum(), 300);
        assert_eq!(d.p50(), 100); // bucket top 127, clamped to observed max
    }
}
