//! Order statistics and the verdict that compares a change with its parent.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so a spread printed here is the
//! spread an outside checker computes from the same values.

/// Whether a larger or a smaller value of a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }

    /// Whether `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => a > b,
            Better::Lower => a < b,
        }
    }

    /// How much worse `new` is than `old`, as a share of `old` (negative
    /// when `new` is better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (old - new) / old,
            Better::Lower => (new - old) / old,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by Python's exclusive method. With fewer than
/// two samples both quartiles are the single value.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no samples");
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Inter-quartile distance as a share of the median (0 for a zero median).
pub fn rel_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The highest percentile that has at least ten samples beyond it, on the
/// worse side of the metric: `(percentile, value)`, or `None` when fewer
/// than 20 samples leave no such percentile at or above the median.
pub fn tail(values: &[f64], better: Better) -> Option<(f64, f64)> {
    let mut v = sorted(values);
    let n = v.len();
    if n < 20 {
        return None;
    }
    if better == Better::Higher {
        v.reverse();
    }
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// The outcome of comparing a change (B) against its parent (A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pair wins of B over A: pairs are `(a[i], b[i])`; ties count for neither.
/// Returns `(wins, pairs)`.
pub fn pair_wins(a: &[f64], b: &[f64], better: Better) -> (usize, usize) {
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|&(&x, &y)| better.beats(y, x))
        .count();
    (wins, pairs)
}

/// Alternated pairs needed before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// The verdict for one metric on one workload, from the
/// parent's runs `a` and the change's runs `b` (one value per run):
///
/// - *improved*: at least [`MIN_PAIRS`] alternated pairs, B wins at least
///   nine tenths of them, and the medians differ by more than A's
///   inter-quartile distance;
/// - *unresolved*: either side's spread is wider than `bound`, unless every
///   run of one side reads better than every run of the other;
/// - *regressed*: B's median is worse than A's by more than `bound`;
/// - *unchanged*: otherwise.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let (wins, pairs) = pair_wins(a, b, better);
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && better.beats(mb, ma) && (mb - ma).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let all_better =
        |x: &[f64], y: &[f64]| x.iter().all(|&u| y.iter().all(|&w| better.beats(u, w)));
    let separated = all_better(a, b) || all_better(b, a);
    if (rel_iqr(a) > bound || rel_iqr(b) > bound) && !separated {
        return Verdict::Unresolved;
    }
    if better.worsening(ma, mb) > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}
