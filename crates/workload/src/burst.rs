//! Tests of the burst handler (§5.1) as [`crate::router::Router`] applies
//! it: once the scaled-out instance is ready — its pool exists — the
//! forward ratio sends that share of requests to pool 1.

#[cfg(test)]
mod tests {
    use beehive_scaling::ScalingKind;
    use beehive_sim::{Duration, SimTime};

    use crate::router::{Router, Target};
    use crate::strategy::Strategy;

    fn scaled(ratio: f64) -> Router {
        Router::new(
            Strategy::Scaled(ScalingKind::OnDemand),
            Duration::ZERO,
            ratio,
        )
    }

    #[test]
    fn everything_primary_before_ready() {
        let mut r = scaled(0.5);
        for s in 0..10 {
            assert_eq!(r.route(SimTime::from_secs(s), 1).target, Target::Server(0));
        }
    }

    #[test]
    fn forwards_half_once_ready() {
        let mut r = scaled(0.5);
        let t = SimTime::from_secs(61);
        let forwarded = (0..100)
            .filter(|_| r.route(t + Duration::from_millis(1), 2).target == Target::Server(1))
            .count();
        assert_eq!(forwarded, 50);
    }

    #[test]
    fn capacity_gone_reverts_to_primary() {
        let mut r = scaled(1.0);
        assert_eq!(r.route(SimTime::from_secs(1), 2).target, Target::Server(1));
        assert_eq!(r.route(SimTime::from_secs(2), 1).target, Target::Server(0));
    }
}
