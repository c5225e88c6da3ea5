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

    /// Dumps the complete internal state as a flat word vector: the 65
    /// bucket counts followed by `count`, `sum`, raw `min`, and `max`.
    /// The inverse is [`Histogram::from_state_words`]; together they let a
    /// caller persist a histogram bit-exactly without this crate knowing
    /// anything about serialization formats.
    pub fn state_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(BUCKETS + 4);
        words.extend_from_slice(&self.buckets);
        words.extend_from_slice(&[self.count, self.sum, self.min, self.max]);
        words
    }

    /// Rebuilds a histogram from [`Histogram::state_words`] output.
    /// Returns `None` if `words` has the wrong length or describes a state
    /// no sequence of [`Histogram::record`] calls produces: `count` other
    /// than the bucket total, an empty histogram whose `sum`/`min`/`max`
    /// are not the [`Histogram::new`] values, or a non-empty one whose
    /// `min`/`max` are out of order or outside the first/last non-empty
    /// bucket, or whose `sum` is not one that `count` samples from `min`
    /// to `max` (one of each at least) can add up to.
    pub fn from_state_words(words: &[u64]) -> Option<Self> {
        if words.len() != BUCKETS + 4 {
            return None;
        }
        let mut buckets = [0u64; BUCKETS];
        buckets.copy_from_slice(&words[..BUCKETS]);
        let h = Self {
            buckets,
            count: words[BUCKETS],
            sum: words[BUCKETS + 1],
            min: words[BUCKETS + 2],
            max: words[BUCKETS + 3],
        };
        let total = buckets.iter().try_fold(0u64, |t, &n| t.checked_add(n))?;
        if total != h.count {
            return None;
        }
        let consistent = match (
            buckets.iter().position(|&n| n > 0),
            buckets.iter().rposition(|&n| n > 0),
        ) {
            (Some(first), Some(last)) => {
                h.min <= h.max
                    && bucket_of(h.min) == first
                    && bucket_of(h.max) == last
                    && (h.max.saturating_add(h.min.saturating_mul(h.count - 1))
                        ..=h.min.saturating_add(h.max.saturating_mul(h.count - 1)))
                        .contains(&h.sum)
            }
            _ => h == Self::new(),
        };
        consistent.then_some(h)
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
    fn state_words_round_trip_bit_exactly() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 40, 1000, u64::MAX] {
            h.record(v);
        }
        let words = h.state_words();
        assert_eq!(words.len(), BUCKETS + 4);
        let back = Histogram::from_state_words(&words).unwrap();
        assert_eq!(back, h);

        // An empty histogram round-trips too (raw min is the u64::MAX
        // sentinel).
        let empty = Histogram::new();
        assert_eq!(
            Histogram::from_state_words(&empty.state_words()).unwrap(),
            empty
        );

        // Wrong lengths are rejected.
        assert!(Histogram::from_state_words(&words[..BUCKETS]).is_none());
        assert!(Histogram::from_state_words(&[]).is_none());
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
        assert_eq!(h.state_words(), Histogram::new().state_words());
    }

    /// State words of a histogram holding 3, 5 and 40: buckets 2, 3 and 6.
    fn sample_words() -> Vec<u64> {
        let mut h = Histogram::new();
        for v in [3u64, 5, 40] {
            h.record(v);
        }
        h.state_words()
    }

    const COUNT: usize = BUCKETS;
    const SUM: usize = BUCKETS + 1;
    const MIN: usize = BUCKETS + 2;
    const MAX: usize = BUCKETS + 3;

    fn rejects(words: &[u64]) -> bool {
        Histogram::from_state_words(words).is_none()
    }

    #[test]
    fn from_state_words_rejects_count_other_than_bucket_total() {
        let mut w = sample_words();
        assert!(!rejects(&w));
        w[COUNT] += 1;
        assert!(rejects(&w), "count above the bucket total");
        let mut w = sample_words();
        w[6] += 1;
        assert!(rejects(&w), "a bucket not counted");
        // Bucket totals that overflow a u64 cannot match any count.
        let mut w = Histogram::new().state_words();
        w[1] = u64::MAX;
        w[2] = 2;
        w[COUNT] = 1;
        assert!(rejects(&w), "overflowing bucket total");
    }

    #[test]
    fn from_state_words_rejects_an_empty_histogram_without_sentinels() {
        for (field, value) in [(SUM, 1), (MIN, 0), (MIN, 7), (MAX, 7)] {
            let mut w = Histogram::new().state_words();
            w[field] = value;
            assert!(rejects(&w), "empty with word {field} = {value}");
        }
    }

    #[test]
    fn from_state_words_rejects_min_above_max() {
        let mut h = Histogram::new();
        h.record_n(5, 2);
        let mut w = h.state_words();
        (w[MIN], w[MAX]) = (7, 4);
        assert!(rejects(&w));
    }

    #[test]
    fn from_state_words_rejects_extrema_outside_the_outer_buckets() {
        // 3 lives in bucket 2, the first non-empty one; 2 is also there.
        let mut w = sample_words();
        w[MIN] = 2;
        assert!(!rejects(&w), "a min inside the first bucket is possible");
        w[MIN] = 4;
        assert!(rejects(&w), "min above the first non-empty bucket");
        let mut w = sample_words();
        w[MIN] = 1;
        assert!(rejects(&w), "min below the first non-empty bucket");
        // 40 lives in bucket 6 (32..=63), the last non-empty one.
        let mut w = sample_words();
        w[MAX] = 31;
        assert!(rejects(&w), "max below the last non-empty bucket");
        w[MAX] = 64;
        assert!(rejects(&w), "max above the last non-empty bucket");
    }

    #[test]
    fn from_state_words_rejects_a_sum_the_extrema_cannot_bound() {
        // Three samples from 3 to 40, one of each at least, sum to 46..=83.
        let mut w = sample_words();
        for (sum, ok) in [(46, true), (83, true), (45, false), (84, false)] {
            w[SUM] = sum;
            assert_eq!(!rejects(&w), ok, "sum {sum}");
        }
        // A saturated sum is exactly what large samples leave behind.
        let mut h = Histogram::new();
        h.record_n(u64::MAX, 3);
        assert_eq!(h.sum(), u64::MAX);
        assert!(!rejects(&h.state_words()));
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
