//! Tests of the offloading ratio (§3.1) as [`crate::router::Router`]
//! applies it: past the engage threshold, that share of requests goes to
//! the FaaS platform, spread evenly by a deterministic accumulator.

#[cfg(test)]
mod tests {
    use beehive_sim::{Duration, SimTime};

    use crate::router::{Router, Target};
    use crate::strategy::Strategy;

    fn offloader(ratio: f64) -> Router {
        Router::new(Strategy::BeeHiveOpenWhisk, Duration::ZERO, ratio)
    }

    fn count_offloaded(ratio: f64, n: u64) -> usize {
        let mut r = offloader(ratio);
        (0..n)
            .filter(|&s| r.route(SimTime::from_secs(s), 1).target == Target::Faas)
            .count()
    }

    #[test]
    fn zero_ratio_never_offloads() {
        assert_eq!(count_offloaded(0.0, 1000), 0);
    }

    #[test]
    fn full_ratio_always_offloads() {
        assert_eq!(count_offloaded(1.0, 1000), 1000);
    }

    #[test]
    fn half_ratio_alternates_exactly() {
        let mut r = offloader(0.5);
        let pattern: Vec<bool> = (0..6)
            .map(|s| r.route(SimTime::from_secs(s), 1).target == Target::Faas)
            .collect();
        assert_eq!(pattern, vec![false, true, false, true, false, true]);
    }

    #[test]
    fn fractional_ratios_hit_expected_counts() {
        assert_eq!(count_offloaded(0.25, 1000), 250);
        assert_eq!(count_offloaded(0.75, 1000), 750);
    }

    #[test]
    fn ratio_is_clamped() {
        assert_eq!(count_offloaded(7.0, 1000), 1000);
        assert_eq!(count_offloaded(-5.0, 1000), 0);
        assert_eq!(count_offloaded(0.375, 1000), 375);
    }
}
