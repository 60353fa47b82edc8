//! HDR-style log-linear histogram over `u64` nanoseconds.
//!
//! The bucket layout is *fixed*: every histogram, whatever it has recorded,
//! uses the same 976-bucket grid, so merged or exported output is
//! byte-stable across worker counts and runs. Values 0–15 get one exact
//! bucket each; every larger power-of-two octave is split into 16 linear
//! sub-buckets, bounding the relative quantization error at 1/16 (6.25%).
//! A bucket never straddles a power of two, so a quantile lies in the same
//! octave as the sample it ranks: the critical-path summary reports that
//! octave's bound from the same histogram.

/// Bits of linear resolution within one octave (16 sub-buckets).
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;

/// Total buckets in the fixed layout: 16 exact values plus 16 sub-buckets
/// for each octave `[2^4, 2^64)`.
pub const BUCKETS: usize = (SUB as usize) * 61;

/// A log-linear histogram of nanosecond values with a fixed bucket layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogLinearHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        LogLinearHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogLinearHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index holding `v`.
    pub fn bucket_of(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros() as u64; // >= SUB_BITS
        let sub = (v >> (octave - SUB_BITS as u64)) & (SUB - 1);
        (SUB * (octave - SUB_BITS as u64 + 1) + sub) as usize
    }

    /// The highest value contained in bucket `b` (inverse of
    /// [`Self::bucket_of`], up to quantization). This is the value quantiles
    /// report, so quantiles never under-state.
    pub fn bucket_value(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB {
            return b;
        }
        let octave = b / SUB + SUB_BITS as u64 - 1;
        let sub = b % SUB;
        // u128 intermediate: the top bucket's exclusive upper bound is 2^64.
        ((((SUB + sub + 1) as u128) << (octave - SUB_BITS as u64)) - 1) as u64
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (nearest-rank), reported as the upper value of the
    /// bucket holding that rank; 0 when empty. Deterministic and
    /// integer-valued — the form snapshots and golden files store.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(index, count)` pairs in index order — the
    /// sparse form snapshots serialize.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            assert_eq!(LogLinearHistogram::bucket_of(v), v as usize);
            assert_eq!(LogLinearHistogram::bucket_value(v as usize), v);
        }
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev = 0;
        for v in [16u64, 17, 31, 32, 33, 1_000, 1_000_000, u64::MAX] {
            let b = LogLinearHistogram::bucket_of(v);
            assert!(b >= prev, "bucket_of({v}) went backwards");
            assert!(b < BUCKETS);
            assert!(LogLinearHistogram::bucket_value(b) >= v);
            prev = b;
        }
        // Every bucket's upper value maps back to the same bucket.
        for b in 0..BUCKETS {
            let v = LogLinearHistogram::bucket_value(b);
            assert_eq!(LogLinearHistogram::bucket_of(v), b, "bucket {b}");
        }
    }

    #[test]
    fn bucket_edges_are_exact() {
        // Octave boundaries: 2^o opens bucket 16*(o-3) and 2^o - 1 closes
        // the bucket just below it, for every octave above the linear range.
        for o in 5..64u32 {
            let v = 1u64 << o;
            let b = 16 * (o as usize - 3);
            assert_eq!(LogLinearHistogram::bucket_of(v), b, "2^{o}");
            assert_eq!(LogLinearHistogram::bucket_of(v - 1), b - 1, "2^{o} - 1");
        }
        // Sub-bucket lower edges: (16 + s) << (o - 4) starts sub-bucket s of
        // octave o exactly.
        for o in 4..64u32 {
            for s in 0..16u64 {
                let v = (16 + s) << (o - 4);
                assert_eq!(
                    LogLinearHistogram::bucket_of(v),
                    16 * (o as usize - 3) + s as usize,
                    "octave {o} sub {s}"
                );
            }
        }
        // The extremes: zero is the first bucket, u64::MAX the last, and the
        // last bucket's upper value is u64::MAX itself (quantiles saturate
        // instead of overflowing).
        assert_eq!(LogLinearHistogram::bucket_of(0), 0);
        assert_eq!(LogLinearHistogram::bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(LogLinearHistogram::bucket_value(BUCKETS - 1), u64::MAX);
        // One past any bucket's upper value lands in the next bucket: the
        // partition has no gaps and no overlaps.
        for b in 0..BUCKETS - 1 {
            let ub = LogLinearHistogram::bucket_value(b);
            assert_eq!(LogLinearHistogram::bucket_of(ub + 1), b + 1, "bucket {b}");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 12_345, 7_777_777, 123_456_789_123] {
            let ub = LogLinearHistogram::bucket_value(LogLinearHistogram::bucket_of(v));
            assert!(ub >= v);
            assert!(
                (ub - v) as f64 / v as f64 <= 1.0 / 16.0,
                "value {v} bound {ub}"
            );
        }
    }

    #[test]
    fn quantiles_and_moments() {
        let mut h = LogLinearHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [10u64, 10, 10, 10, 10, 10, 10, 10, 10, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 90 + 1_000_000);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.quantile(0.5), 10); // exact small-value bucket
        let p99 = h.quantile(0.99);
        assert!((1_000_000..=1_000_000 + 1_000_000 / 16).contains(&p99));
    }
}
