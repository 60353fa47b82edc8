//! Order statistics, the calibrated-seconds arithmetic and the stdout
//! digest. Everything here is pure, so it is what the unit tests pin down.

/// The reference duration of one calibration loop: a host time `raw` taken
/// while the loop ran in `calib` seconds is reported as
/// `raw / calib * CALIB_REF_S` "calibrated seconds".
pub const CALIB_REF_S: f64 = 0.120;

/// Two calibrations flanking one invocation that differ by more than this
/// share mark the invocation "disturbed" (it is re-run).
pub const DISTURBED_SHARE: f64 = 0.15;

/// Calibration spread (IQR / median) above which a whole result is marked
/// `"noisy": true`.
pub const NOISY_SPREAD: f64 = 0.08;

/// Median, quartiles and extremes of one metric over its reps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// First and third quartile ([`quartile_sorted`]).
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            median: median_sorted(&v)?,
            min: v[0],
            max: v[v.len() - 1],
            q1: quartile_sorted(&v, 1),
            q3: quartile_sorted(&v, 3),
            n: v.len(),
        })
    }

    /// Interquartile range over the median — "the spread" everywhere in
    /// this benchmark.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    /// A value that repeats exactly (simulated statistics, byte counts).
    #[cfg(test)]
    pub fn exact(value: f64, n: usize) -> Summary {
        Summary {
            median: value,
            min: value,
            max: value,
            q1: value,
            q3: value,
            n,
        }
    }
}

fn median_sorted(v: &[f64]) -> Option<f64> {
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median of `values` (mean of the middle pair for even counts); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(f64::NAN, |s| s.median)
}

/// Quartile `k` (1 or 3) of sorted, non-empty `v`, as Python's
/// `statistics.quantiles(v, n=4)` (exclusive method) gives it, so the spread
/// can be checked against the acceptance rule's own arithmetic. A single
/// value is its own quartiles.
fn quartile_sorted(v: &[f64], k: usize) -> f64 {
    let n = v.len();
    if n < 2 {
        return v[0];
    }
    // Position k*(n+1)/4 in 1-based ranks, clamped to the data.
    let j = (k * (n + 1) / 4).clamp(1, n - 1);
    let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
    v[j - 1] + (v[j] - v[j - 1]) * delta
}

/// [`Summary::iqr_share`] of `values`; 0 when empty.
pub fn iqr_share(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.iqr_share())
}

/// `raw` seconds expressed in calibrated seconds, given the calibration
/// loop's durations just before and just after.
pub fn calibrated(raw: f64, calib_before: f64, calib_after: f64) -> f64 {
    raw / ((calib_before + calib_after) / 2.0) * CALIB_REF_S
}

/// Whether two flanking calibrations disagree enough to distrust the
/// invocation between them.
pub fn disturbed(calib_before: f64, calib_after: f64) -> bool {
    let lo = calib_before.min(calib_after);
    (calib_before - calib_after).abs() / lo > DISTURBED_SHARE
}

/// FNV-1a, 64 bit: the digest of a `repro --json` stdout.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_and_even_counts() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        assert_eq!((s.q1, s.q3), (1.0, 3.0));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
        assert!(Summary::of(&[]).is_none());
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((iqr_share(&[16.0, 1.0, 4.0, 2.0, 8.0]) - (12.0 - 1.5) / 4.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0]), 0.0);
    }

    #[test]
    fn calibrated_seconds_scale_with_the_loop() {
        let r = CALIB_REF_S;
        // A box running the loop in exactly the reference time reports raw.
        assert!((calibrated(1.5, r, r) - 1.5).abs() < 1e-12);
        // A box twice as slow halves every reading.
        assert!((calibrated(3.0, 2.0 * r, 2.0 * r) - 1.5).abs() < 1e-12);
        // The mean of the two flanks is the divisor.
        assert!((calibrated(1.0, 0.5 * r, 1.5 * r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disturbed_is_relative_to_the_faster_flank() {
        assert!(!disturbed(0.200, 0.229));
        assert!(disturbed(0.200, 0.231));
        assert!(disturbed(0.231, 0.200));
    }

    #[test]
    fn fnv_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
