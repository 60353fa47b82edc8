//! Figure 9: per-hour cost as a function of the burst ratio (the share of
//! each hour spent in burst).
//!
//! Method: one measured burst window per strategy yields the marginal cost
//! per burst-second (FaaS bill / instance-time); the per-hour cost for a
//! burst ratio `r` is then extrapolated over `3600·r` burst seconds plus the
//! provisioning overhead of one burst episode per hour. Always-on burstable
//! capacity costs its flat hourly rate regardless of `r` (§5.4).

use std::fmt;

use beehive_apps::{AppKind, Fidelity};
use beehive_faas::Billing;
use beehive_scaling::ScalingKind;
use beehive_sim::{json_record, Duration};

use crate::driver::{ArrivalPattern, SimConfig};
use crate::engine::{Plan, Scenario};
use crate::strategy::Strategy;

use super::{base_rate, Profile};

json_record! {
    /// Cost curve of one strategy.
    #[derive(Clone, Debug)]
    pub struct Fig9Curve {
        /// Strategy label.
        pub label: &'static str,
        /// One point per sampled burst ratio.
        pub points: Vec<Fig9Point>,
    }
}

json_record! {
    /// One point of a cost curve.
    #[derive(Clone, Copy, Debug)]
    pub struct Fig9Point {
        /// Share of each hour spent in burst.
        pub burst_ratio: f64,
        /// Cost per hour at that ratio, in dollars.
        pub dollars_per_hour: f64,
    }
}

impl Fig9Curve {
    /// Cost at a given ratio (must be one of the sampled ratios).
    ///
    /// # Panics
    ///
    /// Panics if `ratio` was not sampled.
    pub fn at(&self, ratio: f64) -> f64 {
        self.points
            .iter()
            .find(|p| (p.burst_ratio - ratio).abs() < 1e-9)
            .map(|p| p.dollars_per_hour)
            .expect("sampled ratio")
    }
}

json_record! {
    /// The Figure 9 reproduction for one application.
    #[derive(Clone, Debug)]
    pub struct Fig9Report {
        /// The application.
        pub app: AppKind,
        /// Sampled burst ratios.
        pub ratios: Vec<f64>,
        /// One curve per strategy.
        pub curves: Vec<Fig9Curve>,
    }
}

impl Fig9Report {
    /// The curve with the given label.
    ///
    /// # Panics
    ///
    /// Panics if absent.
    pub fn curve(&self, label: &str) -> &Fig9Curve {
        self.curves
            .iter()
            .find(|c| c.label == label)
            .expect("curve present")
    }
}

/// Plan Figure 9 for `kind`.
pub fn fig9(kind: AppKind, profile: Profile) -> Plan<Fig9Report> {
    let ratios: Vec<f64> = if profile.quick {
        vec![0.1, 0.3, 0.67]
    } else {
        vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.67, 0.8, 1.0]
    };
    let (horizon, record_from) = if profile.quick {
        (24u64, 10u64)
    } else {
        (60, 20)
    };

    // Measure the *marginal* cost of serving the burst's offloaded load:
    // one warm steady-state run per FaaS strategy yields GB-seconds per
    // request, from which the per-burst-second bill follows analytically.
    let app = super::app(kind, Fidelity::fast());
    let rate = base_rate(&app); // the forwarded half of a 2x burst
    let measure_cfg = |strategy: Strategy| {
        let mut cfg = SimConfig::new(app.clone(), strategy);
        cfg.arrivals = ArrivalPattern::constant(rate);
        cfg.horizon = Duration::from_secs(horizon);
        cfg.record_from = Duration::from_secs(record_from);
        cfg.seed = profile.seed;
        cfg.offload_ratio = 1.0; // the scaled capacity takes the burst share
        cfg.engage_at = Duration::ZERO;
        cfg.prewarm_ready = ((rate * 0.25).ceil() as usize).clamp(1, 64);
        cfg
    };
    let scenarios = vec![
        Scenario::new(
            format!("{} BeeHiveO", kind.name()),
            measure_cfg(Strategy::BeeHiveOpenWhisk),
        ),
        Scenario::new(
            format!("{} BeeHiveL", kind.name()),
            measure_cfg(Strategy::BeeHiveLambda),
        ),
    ];
    Plan::new(scenarios, move |mut outcomes| {
        let la = outcomes.pop().expect("lambda outcome").result;
        let ow = outcomes.pop().expect("openwhisk outcome").result;
        // The tariffs are the platforms' own.
        let platform = |s: Strategy| s.platform(&app).expect("a FaaS strategy");
        // Lambda bills usage: GB-seconds + requests, normalized over the whole
        // run (offloading is engaged from t = 0).
        let Billing::PerUse {
            per_gb_second,
            per_request,
        } = platform(Strategy::BeeHiveLambda).billing
        else {
            unreachable!("Lambda bills usage");
        };
        let la_per_sec = la.faas_gb_seconds / horizon as f64 * per_gb_second
            + la.faas_requests as f64 / horizon as f64 * per_request;
        // OpenWhisk bills instance-time: concurrent busy instances x m4.large.
        let openwhisk = platform(Strategy::BeeHiveOpenWhisk);
        let Billing::PerInstanceHour { rate } = openwhisk.billing else {
            unreachable!("OpenWhisk bills instance-time");
        };
        let ow_busy_per_sec = ow.faas_gb_seconds / openwhisk.memory_gb / horizon as f64;
        let ow_concurrent = ow_busy_per_sec.ceil().max(1.0);
        let ow_per_sec = ow_concurrent * rate / 3600.0;

        let curve = |label, cost: &dyn Fn(f64) -> f64| Fig9Curve {
            label,
            points: ratios
                .iter()
                .map(|&r| Fig9Point {
                    burst_ratio: r,
                    dollars_per_hour: cost(r),
                })
                .collect(),
        };
        // Provisioning + app launch per burst episode, §2.1/§5.2.
        let scaled = |kind: ScalingKind, prov: f64| {
            move |r: f64| kind.hourly_rate() * (3600.0 * r + prov) / 3600.0
        };
        let mut curves = vec![
            curve("EC2", &scaled(ScalingKind::OnDemand, 61.0)),
            curve("Fargate", &scaled(ScalingKind::Fargate, 46.0)),
            curve("Burstable", &|_| ScalingKind::Burstable.hourly_rate()),
            curve("BeeHiveO", &|r| ow_per_sec * 3600.0 * r),
            curve("BeeHiveL", &|r| la_per_sec * 3600.0 * r),
        ];
        curves.sort_by(|a, b| a.label.cmp(b.label));
        Fig9Report {
            app: kind,
            ratios,
            curves,
        }
    })
}

impl fmt::Display for Fig9Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 9 — {} cost ($/hour) vs burst ratio",
            self.app.name()
        )?;
        write!(f, "{:<12}", "ratio")?;
        for c in &self.curves {
            write!(f, "{:>12}", c.label)?;
        }
        writeln!(f)?;
        for (i, r) in self.ratios.iter().enumerate() {
            write!(f, "{:<12.2}", r)?;
            for c in &self.curves {
                write!(f, "{:>12.4}", c.points[i].dollars_per_hour)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_crossovers_match_the_paper_shape() {
        let r = fig9(AppKind::Pybbs, Profile::quick()).run();
        let burstable = r.curve("Burstable");
        let lambda = r.curve("BeeHiveL");
        // At a 10% burst ratio, BeeHive on Lambda is several times cheaper
        // than an always-on burstable instance (§5.4: 3.47×).
        let gain = burstable.at(0.1) / lambda.at(0.1).max(1e-9);
        assert!(gain > 2.0, "r=0.1 gain {gain:.2}x");
        // At the Fig 7 operating point (67% burst), BeeHive costs more.
        assert!(
            lambda.at(0.67) + r.curve("BeeHiveO").at(0.67) > 0.0,
            "cost accrues with burst time"
        );
        // Burstable is flat.
        assert_eq!(burstable.at(0.1), burstable.at(0.67));
        // On-demand scaling is always cheaper than BeeHive (§5.4).
        let ec2 = r.curve("EC2");
        assert!(ec2.at(0.3) < r.curve("BeeHiveO").at(0.3) + burstable.at(0.3));
    }
}
