//! The routing policy: pure, DES-free request placement.
//!
//! One admitted request goes to exactly one [`Target`]. The decision is a
//! function of the [`Strategy`], the number of provisioned server pools and
//! two deterministic ratio accumulators — never of the event queue, so the
//! policy is unit-testable without building a [`crate::driver::Sim`]. The
//! paper frames Semi-FaaS as a *mechanism* composed with interchangeable
//! *policies* (§3.1, §5.7); this module is the policy half of that seam,
//! and it holds both policies the evaluation uses:
//!
//! * the **offloading ratio** (§3.1): "the number of offloaded requests is
//!   determined by an offloading ratio, and BeeHive can scale in and out by
//!   setting the ratio" — §5.7's combination mode sets it to zero once the
//!   on-demand instance is up;
//! * the **burst handler** (§5.1): "once new instances become ready, the
//!   burst handler immediately forwards half of the workload to them".
//!
//! The scaled-out instance is ready exactly when its pool exists: the
//! driver adds pool 1 on `Ev::CapacityReady`, so `pools > 1` is the
//! readiness test.

use beehive_sim::{Duration, SimTime};
use beehive_telemetry as tele;

use crate::strategy::Strategy;

/// Where the router sends an admitted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Serve on the server's processor-sharing pool with this index
    /// (pool 1 is the scaled-out instance, once provisioned).
    Server(usize),
    /// Offload to the FaaS platform.
    Faas,
}

/// The outcome of consulting the offloading ratio.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OffloadChoice {
    /// `true` when this request is offloaded.
    pub offload: bool,
    /// `true` when the engage threshold had been reached (the offload
    /// accumulator is only consumed once engaged).
    pub engaged: bool,
}

/// A routing decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Where the request goes.
    pub target: Target,
    /// Set when the strategy consulted the offloading ratio — drives the
    /// `offload:decision` trace instant the driver emits.
    pub considered: Option<OffloadChoice>,
}

impl Decision {
    fn server(pool: usize) -> Decision {
        Decision {
            target: Target::Server(pool),
            considered: None,
        }
    }
}

/// A deterministic (Bresenham-style) ratio: `next` is `true` for exactly
/// `ratio` of its calls, so a ratio of 0.5 picks every other request and
/// runs stay reproducible without randomness.
#[derive(Debug)]
struct Ratio {
    ratio: f64,
    acc: f64,
}

impl Ratio {
    /// A ratio clamped to `[0, 1]`.
    fn new(ratio: f64) -> Ratio {
        Ratio {
            ratio: ratio.clamp(0.0, 1.0),
            acc: 0.0,
        }
    }

    fn next(&mut self) -> bool {
        self.acc += self.ratio;
        if self.acc >= 1.0 {
            self.acc -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Routing policy: [`Strategy`] × provisioned pools × the offload and
/// forward ratios.
///
/// Owns the per-run policy state (the two ratio accumulators); the driver
/// asks [`Router::route`] once per admitted request.
#[derive(Debug)]
pub struct Router {
    strategy: Strategy,
    engage_at: Duration,
    offload: Ratio,
    forward: Ratio,
}

impl Router {
    /// A router for `strategy`, engaging offload / forwarding at
    /// `engage_at` with the given offload (= forward) ratio.
    pub fn new(strategy: Strategy, engage_at: Duration, offload_ratio: f64) -> Router {
        Router {
            strategy,
            engage_at,
            offload: Ratio::new(offload_ratio),
            forward: Ratio::new(offload_ratio),
        }
    }

    /// Route one request arriving at `now`, with `pools` server pools
    /// currently provisioned.
    pub fn route(&mut self, now: SimTime, pools: usize) -> Decision {
        let engaged = now.saturating_since(SimTime::ZERO) >= self.engage_at;
        match self.strategy {
            Strategy::Vanilla | Strategy::BeeHiveSingle => Decision::server(0),
            Strategy::Scaled(_) => Decision::server(usize::from(self.forward(pools))),
            Strategy::BeeHiveOpenWhisk
            | Strategy::BeeHiveOpenWhiskCrossAz
            | Strategy::BeeHiveLambda => self.offload_choice(engaged),
            Strategy::Combined(_) => {
                // §5.7: Semi-FaaS bridges the provisioning gap; once the
                // on-demand instance is ready the burst handler takes over
                // and the offloading ratio is zero.
                if self.forward(pools) {
                    Decision::server(1)
                } else if pools > 1 {
                    Decision::server(0)
                } else {
                    self.offload_choice(engaged)
                }
            }
        }
    }

    /// The burst handler: `true` when this request goes to the scaled pool.
    /// The forward accumulator is consumed only once capacity is ready, and
    /// every call is traced as a `burst:route` instant.
    fn forward(&mut self, pools: usize) -> bool {
        let scaled = pools > 1 && self.forward.next();
        let route = if scaled { "scaled" } else { "primary" };
        tele::instant(
            tele::Track::Server,
            tele::EventName::BurstRoute,
            &[("route", tele::Arg::Str(route))],
        );
        scaled
    }

    /// Consult the offloading ratio. Its accumulator is consumed only once
    /// engaged (`&&` short-circuit), so pre-engage requests do not advance
    /// the Bresenham phase.
    fn offload_choice(&mut self, engaged: bool) -> Decision {
        let offload = engaged && self.offload.next();
        Decision {
            target: if offload {
                Target::Faas
            } else {
                Target::Server(0)
            },
            considered: Some(OffloadChoice { offload, engaged }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_scaling::ScalingKind;

    fn at(s: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(s)
    }

    #[test]
    fn single_server_strategies_never_leave_pool_zero() {
        for strategy in [Strategy::Vanilla, Strategy::BeeHiveSingle] {
            let mut r = Router::new(strategy, Duration::ZERO, 0.9);
            for s in 0..50 {
                let d = r.route(at(s), 1);
                assert_eq!(d.target, Target::Server(0), "{strategy:?} t={s}");
                assert_eq!(d.considered, None, "{strategy:?} never flips the coin");
            }
        }
    }

    #[test]
    fn beehive_gates_on_the_engage_threshold() {
        let mut r = Router::new(Strategy::BeeHiveOpenWhisk, Duration::from_secs(10), 1.0);
        // Before the threshold: on the server, coin recorded as not engaged,
        // and — crucially — the ratio accumulator untouched.
        for s in 0..10 {
            let d = r.route(at(s), 1);
            assert_eq!(d.target, Target::Server(0));
            assert_eq!(
                d.considered,
                Some(OffloadChoice {
                    offload: false,
                    engaged: false
                })
            );
        }
        // From the threshold on, ratio 1.0 offloads every request.
        for s in 10..20 {
            let d = r.route(at(s), 1);
            assert_eq!(d.target, Target::Faas);
            assert_eq!(
                d.considered,
                Some(OffloadChoice {
                    offload: true,
                    engaged: true
                })
            );
        }
    }

    #[test]
    fn beehive_half_ratio_alternates_exactly() {
        let mut r = Router::new(Strategy::BeeHiveLambda, Duration::ZERO, 0.5);
        let targets: Vec<Target> = (0..6).map(|s| r.route(at(s), 1).target).collect();
        assert_eq!(
            targets,
            vec![
                Target::Server(0),
                Target::Faas,
                Target::Server(0),
                Target::Faas,
                Target::Server(0),
                Target::Faas,
            ]
        );
    }

    #[test]
    fn both_ratios_hit_their_exact_counts() {
        use ScalingKind::{Fargate, OnDemand};
        use Strategy::{Combined, Scaled};
        // (strategy, ratio, pools, requests, requests sent off the primary):
        // to FaaS by the offload ratio, to pool 1 by the forward ratio. The
        // offload-only and on-demand cases are the `controller` and `burst`
        // tests.
        let rows = [
            (Scaled(Fargate), 1.0, 1, 100, 0),
            (Scaled(Fargate), 7.0, 2, 100, 100),
            (Scaled(Fargate), 0.25, 2, 100, 25),
            (Combined(OnDemand), 0.75, 1, 100, 75),
            (Combined(OnDemand), 0.75, 2, 100, 75),
        ];
        for (strategy, ratio, pools, n, off) in rows {
            let mut r = Router::new(strategy, Duration::ZERO, ratio);
            let sent = (0..n).filter(|&s| r.route(at(s), pools).target != Target::Server(0));
            assert_eq!(
                sent.count(),
                off,
                "{strategy:?} ratio {ratio} pools {pools}"
            );
        }
    }

    #[test]
    fn burst_route_is_traced_on_every_scaled_and_combined_call() {
        use beehive_telemetry as tele;
        tele::install();
        for strategy in [
            Strategy::Scaled(ScalingKind::OnDemand),
            Strategy::Combined(ScalingKind::OnDemand),
        ] {
            let mut r = Router::new(strategy, Duration::ZERO, 0.5);
            for s in 0..3 {
                r.route(at(s), 1);
            }
            for s in 3..7 {
                r.route(at(s), 2);
            }
        }
        let trace = tele::take().expect("recorder installed");
        let routes: Vec<&str> = trace
            .events
            .iter()
            .filter(|e| e.name == tele::EventName::BurstRoute)
            .map(|e| e.arg_str("route").expect("route arg"))
            .collect();
        let (before, after) = (["primary"; 3], ["primary", "scaled", "primary", "scaled"]);
        assert_eq!(routes, [&before[..], &after, &before, &after].concat());
    }

    #[test]
    fn scaled_forwards_to_pool_one_once_capacity_is_ready() {
        let mut r = Router::new(Strategy::Scaled(ScalingKind::OnDemand), Duration::ZERO, 0.5);
        // Before the instance is up everything stays on the primary.
        for s in 0..5 {
            assert_eq!(r.route(at(s), 1).target, Target::Server(0));
        }
        // Once pool 1 exists, half the requests forward to it.
        let targets: Vec<Target> = (0..4).map(|i| r.route(at(61 + i), 2).target).collect();
        assert_eq!(
            targets,
            vec![
                Target::Server(0),
                Target::Server(1),
                Target::Server(0),
                Target::Server(1),
            ]
        );
    }

    #[test]
    fn scaled_clamps_to_existing_pools() {
        // Readiness is the pool count: with one pool even ratio 1.0 stays
        // on pool 0, and the second pool takes the forwarded share at once.
        let mut r = Router::new(Strategy::Scaled(ScalingKind::Fargate), Duration::ZERO, 1.0);
        assert_eq!(r.route(at(1), 1).target, Target::Server(0));
        assert_eq!(r.route(at(2), 2).target, Target::Server(1));
    }

    #[test]
    fn combined_offloads_until_capacity_then_hands_back() {
        let mut r = Router::new(
            Strategy::Combined(ScalingKind::OnDemand),
            Duration::ZERO,
            0.5,
        );
        // Provisioning gap: the offloading ratio carries the burst.
        let targets: Vec<Target> = (0..4).map(|s| r.route(at(s), 1).target).collect();
        assert_eq!(
            targets,
            vec![
                Target::Server(0),
                Target::Faas,
                Target::Server(0),
                Target::Faas,
            ]
        );
        // Capacity ready: no decision consults the offloading ratio any
        // more — requests split between the two server pools instead.
        for i in 0..10 {
            let d = r.route(at(11 + i), 2);
            assert_eq!(d.considered, None, "offload ratio is effectively zero");
            assert!(matches!(d.target, Target::Server(0) | Target::Server(1)));
        }
    }
}
