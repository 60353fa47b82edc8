//! Latency statistics: percentile samplers and per-second timelines.

use crate::{Duration, SimTime};

/// The `q`-quantile of `sorted` (ascending), nearest-rank method; zero when
/// empty.
///
/// This is the canonical f64 percentile used by every report aggregator in
/// the workspace (the [`LatencySampler`] applies the same rule to duration
/// samples).
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sort a copy of `values` and return its `q`-quantile (nearest rank).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    percentile_sorted(&sorted, q)
}

/// Median of `values` (nearest-rank, matching [`percentile`] at `q = 0.5`);
/// zero when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Collects duration samples and answers percentile queries.
///
/// Stores all samples (simulations produce at most a few hundred thousand per
/// run), sorting lazily on query.
///
/// # Example
///
/// ```
/// use beehive_sim::stats::LatencySampler;
/// use beehive_sim::Duration;
///
/// let mut s = LatencySampler::new();
/// for ms in 1..=100 {
///     s.record(Duration::from_millis(ms));
/// }
/// assert_eq!(s.percentile(0.99).as_millis(), 99); // nearest rank
/// assert_eq!(s.percentile(0.50).as_millis(), 50);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencySampler {
    samples: Vec<u64>,
    sorted: bool,
}

impl LatencySampler {
    /// An empty sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, d: Duration) {
        self.samples.push(d.as_nanos());
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), nearest-rank method.
    ///
    /// Returns [`Duration::ZERO`] when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&mut self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        self.sort();
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        Duration::from_nanos(self.samples[rank - 1])
    }

    /// Arithmetic mean, or zero when empty.
    pub fn mean(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let sum: u128 = self.samples.iter().map(|&x| x as u128).sum();
        Duration::from_nanos((sum / self.samples.len() as u128) as u64)
    }

    /// Largest sample, or zero when empty.
    pub fn max(&mut self) -> Duration {
        self.sort();
        Duration::from_nanos(self.samples.last().copied().unwrap_or(0))
    }

    /// Drain all samples, leaving the sampler empty.
    pub fn take(&mut self) -> Vec<Duration> {
        self.sorted = false;
        self.samples.drain(..).map(Duration::from_nanos).collect()
    }
}

/// A fixed-size stand-in for a [`LatencySampler`] whose readers need only
/// the count, the mean or the max: it keeps those three and no sample, and
/// answers them exactly as the sampler would on the same samples. Stores
/// whose readers take percentiles keep every sample in a sampler.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanMax {
    count: u64,
    sum: u128,
    max: u64,
}

impl MeanMax {
    /// Record one sample.
    pub fn record(&mut self, d: Duration) {
        self.count += 1;
        self.sum += u128::from(d.as_nanos());
        self.max = self.max.max(d.as_nanos());
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or zero when empty.
    pub fn mean(&self) -> Duration {
        match self.count {
            0 => Duration::ZERO,
            n => Duration::from_nanos((self.sum / u128::from(n)) as u64),
        }
    }

    /// Largest sample, or zero when empty.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max)
    }
}

crate::json_record! {
    /// One point of a per-bucket latency timeline.
    #[derive(Debug, Clone, Copy)]
    pub struct TimelinePoint {
        /// Start of the bucket, seconds since simulation start.
        pub second: u64,
        /// Number of requests completing in the bucket.
        pub count: u64,
        /// p99 latency of those requests, milliseconds.
        pub p99_ms: f64,
        /// Mean latency of those requests, milliseconds.
        pub mean_ms: f64,
    }
}

/// Buckets completed-request latencies per virtual second; produces the
/// p99-over-time series of the paper's Figure 7.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    buckets: Vec<LatencySampler>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a request that *completed* at `at` with the given latency.
    pub fn record(&mut self, at: SimTime, latency: Duration) {
        let sec = (at.as_nanos() / 1_000_000_000) as usize;
        if self.buckets.len() <= sec {
            self.buckets.resize_with(sec + 1, LatencySampler::new);
        }
        self.buckets[sec].record(latency);
    }

    /// The per-second series (empty seconds yield `count == 0`).
    pub fn points(&mut self) -> Vec<TimelinePoint> {
        self.buckets
            .iter_mut()
            .enumerate()
            .map(|(second, b)| TimelinePoint {
                second: second as u64,
                count: b.len() as u64,
                p99_ms: b.percentile(0.99).as_millis_f64(),
                mean_ms: b.mean().as_millis_f64(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = LatencySampler::new();
        for ms in [10u64, 20, 30, 40] {
            s.record(Duration::from_millis(ms));
        }
        assert_eq!(s.percentile(0.0).as_millis(), 10);
        assert_eq!(s.percentile(0.25).as_millis(), 10);
        assert_eq!(s.percentile(0.5).as_millis(), 20);
        assert_eq!(s.percentile(1.0).as_millis(), 40);
        assert_eq!(s.mean().as_millis(), 25);
        assert_eq!(s.max().as_millis(), 40);
    }

    #[test]
    fn empty_sampler_is_zero() {
        let mut s = LatencySampler::new();
        assert_eq!(s.percentile(0.99), Duration::ZERO);
        assert_eq!(s.mean(), Duration::ZERO);
        assert!(s.is_empty());
    }

    #[test]
    fn mean_max_answers_as_the_sampler_does() {
        let mut rng = crate::Rng::new(0x5EED);
        let (mut exact, mut bounded) = (LatencySampler::new(), MeanMax::default());
        assert_eq!((bounded.mean(), bounded.max()), (exact.mean(), exact.max()));
        for _ in 0..10_000 {
            let d = rng.exponential(Duration::from_millis(40));
            exact.record(d);
            bounded.record(d);
        }
        assert_eq!(bounded.len(), exact.len());
        assert!(!bounded.is_empty());
        assert_eq!(bounded.mean(), exact.mean());
        assert_eq!(bounded.max(), exact.max());
    }

    #[test]
    fn timeline_buckets_by_second() {
        let mut t = Timeline::new();
        t.record(SimTime::from_secs(0), Duration::from_millis(10));
        t.record(SimTime::from_secs(2), Duration::from_millis(30));
        t.record(SimTime::from_secs(2), Duration::from_millis(50));
        let pts = t.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].count, 1);
        assert_eq!(pts[1].count, 0);
        assert_eq!(pts[2].count, 2);
        assert!((pts[2].p99_ms - 50.0).abs() < 1e-9);
        assert!((pts[2].mean_ms - 40.0).abs() < 1e-9);
    }

    #[test]
    fn f64_percentiles_match_sampler_rule() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.25), 10.0);
        assert_eq!(percentile(&xs, 0.5), 20.0);
        assert_eq!(percentile(&xs, 1.0), 40.0);
        assert_eq!(median(&xs), 20.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        // Unsorted input sorts internally.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }
}
