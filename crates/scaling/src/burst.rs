//! The burst handler (§5.1): "we also assume a perfect burst handler to
//! immediately forward requests with pre-defined policies once a burst
//! happens. [...] Once new instances become ready, the burst handler
//! immediately forwards half of the workload to them."

use beehive_sim::SimTime;
use beehive_telemetry as tele;

/// Routes requests between the primary server and scaled-out capacity.
///
/// Until the extra capacity is ready every request goes to the primary; once
/// ready, `forward_fraction` of requests are forwarded (deterministically,
/// Bresenham-style).
#[derive(Clone, Debug)]
pub struct BurstHandler {
    ready_at: Option<SimTime>,
    forward_fraction: f64,
    acc: f64,
}

/// Where the burst handler routed a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// The always-on primary server.
    Primary,
    /// The scaled-out capacity (extra instance / FaaS).
    Scaled,
}

impl BurstHandler {
    /// A handler forwarding `forward_fraction` of requests once capacity is
    /// ready (the paper forwards half).
    pub fn new(forward_fraction: f64) -> Self {
        BurstHandler {
            ready_at: None,
            forward_fraction: forward_fraction.clamp(0.0, 1.0),
            acc: 0.0,
        }
    }

    /// Announce when the scaled capacity becomes ready.
    pub fn capacity_ready_at(&mut self, at: SimTime) {
        self.ready_at = Some(at);
    }

    /// Withdraw the scaled capacity (scale-in, §5.7 combination mode).
    pub fn capacity_gone(&mut self) {
        self.ready_at = None;
        self.acc = 0.0;
    }

    /// `true` once the scaled capacity serves requests at `now`.
    pub fn is_ready(&self, now: SimTime) -> bool {
        self.ready_at.is_some_and(|t| now >= t)
    }

    /// Route one request arriving at `now`.
    pub fn route(&mut self, now: SimTime) -> Route {
        let route = if self.ready_at.is_none_or(|t| now < t) {
            Route::Primary
        } else {
            self.acc += self.forward_fraction;
            if self.acc >= 1.0 {
                self.acc -= 1.0;
                Route::Scaled
            } else {
                Route::Primary
            }
        };
        if tele::enabled() {
            let name = match route {
                Route::Primary => "primary",
                Route::Scaled => "scaled",
            };
            tele::instant(
                tele::Track::Server,
                tele::EventName::BurstRoute,
                &[("route", tele::Arg::Str(name))],
            );
        }
        route
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_sim::Duration;

    #[test]
    fn everything_primary_before_ready() {
        let mut h = BurstHandler::new(0.5);
        for s in 0..10 {
            assert_eq!(h.route(SimTime::from_secs(s)), Route::Primary);
        }
    }

    #[test]
    fn forwards_half_once_ready() {
        let mut h = BurstHandler::new(0.5);
        h.capacity_ready_at(SimTime::from_secs(60));
        let t = SimTime::from_secs(61);
        let scaled = (0..100)
            .filter(|_| h.route(t + Duration::from_millis(1)) == Route::Scaled)
            .count();
        assert_eq!(scaled, 50);
    }

    #[test]
    fn capacity_gone_reverts_to_primary() {
        let mut h = BurstHandler::new(1.0);
        h.capacity_ready_at(SimTime::ZERO);
        assert_eq!(h.route(SimTime::from_secs(1)), Route::Scaled);
        h.capacity_gone();
        assert_eq!(h.route(SimTime::from_secs(2)), Route::Primary);
    }
}
