//! Figure 8: latency under various throughput settings — vanilla,
//! BeeHive-Single, BeeHiveO, BeeHiveL — including the ~9× saturation gain
//! from offloading (§5.3).

use std::fmt;

use beehive_apps::{AppKind, Fidelity};
use beehive_sim::json::{Json, ToJson};
use beehive_sim::{json_record, Duration};

use crate::driver::{ArrivalPattern, SimConfig};
use crate::engine::{Plan, Scenario};
use crate::strategy::Strategy;

use super::{vanilla_capacity, Profile};

json_record! {
    /// One measured point.
    #[derive(Clone, Copy, Debug)]
    pub struct Fig8Point {
        /// Offered load (requests/s).
        pub offered_rps: f64,
        /// Achieved throughput (requests/s, steady window).
        pub achieved_rps: f64,
        /// Mean latency (ms).
        pub mean_ms: f64,
        /// p99 latency (ms).
        pub p99_ms: f64,
    }
}

/// One strategy's curve.
#[derive(Clone, Debug)]
pub struct Fig8Curve {
    /// The strategy.
    pub strategy: Strategy,
    /// Measured points.
    pub points: Vec<Fig8Point>,
}

impl Fig8Curve {
    /// The saturated throughput: the highest offered rate the system still
    /// serves with at least 90% goodput and sub-second p99. `None` when no
    /// measured point meets the gate (the curve never reaches a usable
    /// operating point, e.g. the system is overloaded at every sampled
    /// rate) — distinct from a genuine 0 rps measurement.
    pub fn saturated_rps(&self) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.achieved_rps >= 0.9 * p.offered_rps && p.p99_ms < 1000.0)
            .map(|p| p.achieved_rps)
            .fold(None, |best: Option<f64>, rps| {
                Some(best.map_or(rps, |b| b.max(rps)))
            })
    }
}

json_record! {
    /// Figure 8 for one application.
    #[derive(Clone, Debug)]
    pub struct Fig8Report {
        /// The application.
        pub app: AppKind,
        /// Curves per strategy.
        pub curves: Vec<Fig8Curve>,
    }
}

impl Fig8Report {
    /// The curve of `strategy`.
    ///
    /// # Panics
    ///
    /// Panics if the strategy was not part of the run.
    pub fn curve(&self, strategy: Strategy) -> &Fig8Curve {
        self.curves
            .iter()
            .find(|c| c.strategy == strategy)
            .expect("strategy present")
    }
}

/// Plan the Figure 8 throughput sweep for `kind`.
pub fn fig8(kind: AppKind, profile: Profile) -> Plan<Fig8Report> {
    let app = super::app(kind, Fidelity::fast());
    let cap = vanilla_capacity(&app);
    let (horizon, record_from) = if profile.quick {
        (Duration::from_secs(16), Duration::from_secs(8))
    } else {
        (Duration::from_secs(40), Duration::from_secs(15))
    };

    let server_grid: Vec<f64> = [0.25, 0.5, 0.75, 0.9, 1.0]
        .iter()
        .map(|m| m * cap)
        .collect();
    let offload_grid: Vec<f64> = if profile.quick {
        [0.5, 2.0, 5.0].iter().map(|m| m * cap).collect()
    } else {
        [0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 9.0, 10.0]
            .iter()
            .map(|m| m * cap)
            .collect()
    };

    // Flatten the strategies × rate grid into one scenario list so every
    // point of every curve runs concurrently, then regroup per strategy.
    let mut points: Vec<(Strategy, f64)> = Vec::new();
    for strategy in Strategy::fig8_set() {
        let grid = if strategy.offloads() {
            &offload_grid
        } else {
            &server_grid
        };
        for &rate in grid {
            points.push((strategy, rate));
        }
    }
    let scenarios = points
        .iter()
        .map(|&(strategy, rate)| {
            let mut cfg = SimConfig::new(app.clone(), strategy);
            cfg.arrivals = ArrivalPattern::constant(rate);
            cfg.horizon = horizon;
            cfg.record_from = record_from;
            cfg.seed = profile.seed;
            cfg.engage_at = Duration::ZERO;
            // Offload just enough to keep the server under ~30% of its
            // capacity in full requests; the rest of the server goes to
            // dispatch and sync work, which is what caps throughput (§5.3).
            cfg.offload_ratio = if strategy.offloads() {
                (1.0 - 0.3 * cap / rate).clamp(0.0, 0.98)
            } else {
                0.0
            };
            // Measure steady state, not the cold ramp: start with enough
            // warm instances for the offloaded load (the platform would
            // have scaled there anyway).
            if strategy.offloads() {
                let expect = (rate * cfg.offload_ratio * 0.25).ceil() as usize;
                cfg.prewarm_ready = expect.clamp(1, 128);
                cfg.max_instances = 512;
            }
            Scenario::new(
                format!("{} {} rps={rate}", kind.name(), strategy.label()),
                cfg,
            )
        })
        .collect();
    let window = (horizon - record_from).as_secs_f64();
    Plan::new(scenarios, move |outcomes| {
        let mut curves: Vec<Fig8Curve> = Vec::new();
        for ((strategy, rate), mut o) in points.into_iter().zip(outcomes) {
            let point = Fig8Point {
                offered_rps: rate,
                achieved_rps: o.result.steady.len() as f64 / window,
                mean_ms: o.result.steady.mean().as_millis_f64(),
                p99_ms: o.result.steady.percentile(0.99).as_millis_f64(),
            };
            match curves.last_mut() {
                Some(c) if c.strategy == strategy => c.points.push(point),
                _ => curves.push(Fig8Curve {
                    strategy,
                    points: vec![point],
                }),
            }
        }
        Fig8Report { app: kind, curves }
    })
}

// Not a record: the derived `saturated_rps` sits among the fields.
impl ToJson for Fig8Curve {
    fn to_json(&self) -> Json {
        Json::obj([
            ("strategy".into(), self.strategy.to_json()),
            ("saturated_rps".into(), self.saturated_rps().to_json()),
            ("points".into(), self.points.to_json()),
        ])
    }
}

impl fmt::Display for Fig8Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 8 — {} latency vs throughput", self.app.name())?;
        for c in &self.curves {
            match c.saturated_rps() {
                Some(rps) => writeln!(f, "  {} (saturates ~{:.0} rps)", c.strategy.label(), rps)?,
                None => writeln!(
                    f,
                    "  {} (no point met the 90% goodput / sub-second p99 gate)",
                    c.strategy.label()
                )?,
            }
            writeln!(
                f,
                "    {:>10} {:>10} {:>10} {:>10}",
                "offered", "achieved", "mean(ms)", "p99(ms)"
            )?;
            for p in &c.points {
                writeln!(
                    f,
                    "    {:>10.0} {:>10.0} {:>10.2} {:>10.2}",
                    p.offered_rps, p.achieved_rps, p.mean_ms, p.p99_ms
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offloading_scales_throughput_beyond_vanilla() {
        let r = fig8(AppKind::Pybbs, Profile::quick()).run();
        let vanilla = r
            .curve(Strategy::Vanilla)
            .saturated_rps()
            .expect("vanilla reaches a usable operating point");
        let beehive = r
            .curve(Strategy::BeeHiveOpenWhisk)
            .saturated_rps()
            .expect("BeeHiveO reaches a usable operating point");
        assert!(vanilla > 0.0);
        assert!(
            beehive > vanilla * 3.0,
            "BeeHiveO {beehive:.0} rps should dwarf vanilla {vanilla:.0} rps"
        );
    }

    #[test]
    fn saturated_rps_is_none_when_no_point_passes_the_gate() {
        let melted = Fig8Curve {
            strategy: Strategy::Vanilla,
            points: vec![
                // Goodput collapse: achieving far less than offered.
                Fig8Point {
                    offered_rps: 100.0,
                    achieved_rps: 40.0,
                    mean_ms: 900.0,
                    p99_ms: 800.0,
                },
                // Latency melt: goodput fine but p99 over a second.
                Fig8Point {
                    offered_rps: 50.0,
                    achieved_rps: 50.0,
                    mean_ms: 1200.0,
                    p99_ms: 4000.0,
                },
            ],
        };
        assert_eq!(melted.saturated_rps(), None);
        // A genuine zero-rps point still counts as Some(0.0), not None.
        let idle = Fig8Curve {
            strategy: Strategy::Vanilla,
            points: vec![Fig8Point {
                offered_rps: 0.0,
                achieved_rps: 0.0,
                mean_ms: 0.0,
                p99_ms: 0.0,
            }],
        };
        assert_eq!(idle.saturated_rps(), Some(0.0));
    }

    #[test]
    fn single_mode_close_to_vanilla() {
        let r = fig8(AppKind::Pybbs, Profile::quick()).run();
        let vanilla = r.curve(Strategy::Vanilla);
        let single = r.curve(Strategy::BeeHiveSingle);
        // The barrier overhead costs a few percent at matching load points.
        let v = vanilla.points[1].mean_ms;
        let s = single.points[1].mean_ms;
        assert!(s >= v * 0.98, "single {s} vs vanilla {v}");
        assert!(
            s <= v * 1.35,
            "barriers should not blow latency up: {s} vs {v}"
        );
    }
}
