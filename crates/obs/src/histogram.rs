//! Log₂-bucketed latency histograms.
//!
//! A [`Histogram`] records `u64` samples (cycles, in this workspace) into 65
//! power-of-two buckets: bucket 0 holds the value 0, bucket `i` (for
//! `i >= 1`) holds values in `[2^(i-1), 2^i - 1]`. This gives a fixed-size,
//! allocation-free structure whose quantile error is bounded by 2× — plenty
//! for latency distributions that span from a 1-cycle L1 hit to a
//! multi-hundred-cycle DRAM row miss.
//!
//! Quantiles are reported as the upper bound of the bucket containing the
//! requested rank, clamped to the observed maximum, so `p50 <= p90 <= p99
//! <= max` always holds and exact values are reported exactly whenever all
//! samples in the target bucket were equal.

/// Number of buckets: one for zero plus one per bit of a `u64`.
pub const BUCKETS: usize = 65;

/// A fixed-size log₂ histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
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
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records `n` samples of the same value `v` in O(1). Every field is
    /// independent of the order of samples, so this equals `n` calls of
    /// [`Histogram::record`] (saturating `sum` included); `n = 0` is a
    /// no-op.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate for `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the sample of that rank, clamped to the observed max.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based; q = 0 maps to the first sample.
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

    /// Samples recorded since `earlier` (an older snapshot of this same
    /// histogram). min/max of the delta are approximated by the current
    /// min/max, since buckets alone cannot recover exact extrema.
    pub fn delta_since(&self, earlier: &Histogram) -> Histogram {
        let mut d = Histogram::new();
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

    /// Non-empty buckets as `(upper_bound, count)` pairs, in order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_top(i), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
