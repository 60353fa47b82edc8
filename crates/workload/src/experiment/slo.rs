//! Table 4 (minimal tail latency under fixed throughput) and Figure 10
//! (tail latency under various SLOs).
//!
//! Note on calibration: the paper fixes throughputs of 50/170/130 rps, but
//! its own §5.3 data puts the vanilla pybbs saturation near 68 rps — the
//! Table 4 rates exceed the baseline's capacity. We resolve the
//! inconsistency by fixing each app's throughput at 15% of *our* vanilla
//! saturation (an uncontended baseline — the paper's vanilla p99s sit at
//! service-time level), which preserves the table's point: the relative overhead of
//! BeeHiveO/BeeHiveL over vanilla at equal load (paper: +12.8% OpenWhisk,
//! +51.6% Lambda on average).

use std::fmt;

use beehive_apps::{App, AppKind, Fidelity};
use beehive_sim::json::{Json, ToJson};
use beehive_sim::{json_record, Duration};

use crate::driver::{ArrivalPattern, SimConfig};
use crate::engine::{Plan, RunOutcome, Scenario};
use crate::strategy::Strategy;

use super::{vanilla_capacity, Profile};

fn cfg_at(app: &App, strategy: Strategy, rate: f64, ratio: f64, profile: Profile) -> SimConfig {
    let (horizon, record_from) = if profile.quick {
        (Duration::from_secs(16), Duration::from_secs(8))
    } else {
        (Duration::from_secs(40), Duration::from_secs(15))
    };
    let mut cfg = SimConfig::new(app.clone(), strategy);
    cfg.arrivals = ArrivalPattern::constant(rate);
    cfg.horizon = horizon;
    cfg.record_from = record_from;
    cfg.seed = profile.seed;
    cfg.offload_ratio = ratio;
    cfg.engage_at = Duration::ZERO;
    if strategy.offloads() && ratio > 0.0 {
        cfg.prewarm_ready = ((rate * ratio * 0.25).ceil() as usize).clamp(1, 64);
    }
    cfg
}

fn p99_of(outcome: &mut RunOutcome) -> f64 {
    outcome.result.steady.percentile(0.99).as_millis_f64()
}

fn ratio_grid(profile: Profile) -> &'static [f64] {
    if profile.quick {
        &[0.5]
    } else {
        &[0.25, 0.5, 0.75, 0.9]
    }
}

json_record! {
    /// One row of Table 4.
    #[derive(Clone, Debug)]
    pub struct Table4Row {
        /// The application.
        pub app: AppKind,
        /// The fixed throughput (requests/s).
        pub rps: f64,
        /// Minimal p99 (ms) for the vanilla baseline.
        pub vanilla_ms: f64,
        /// Minimal p99 (ms) for BeeHive on OpenWhisk (over the ratio grid).
        pub beehive_o_ms: f64,
        /// Minimal p99 (ms) for BeeHive on Lambda.
        pub beehive_l_ms: f64,
    }
}

json_record! {
    /// Table 4.
    #[derive(Clone, Debug)]
    pub struct Table4Report {
        /// Rows per application.
        pub rows: Vec<Table4Row>,
    }
}

/// Plan Table 4 for the given applications.
///
/// The whole apps × (vanilla + two strategies × ratio grid) matrix is one
/// flat scenario list through the parallel engine.
pub fn table4(apps: &[AppKind], profile: Profile) -> Plan<Table4Report> {
    let grid = ratio_grid(profile);
    let per_app = 1 + 2 * grid.len();
    let mut scenarios = Vec::new();
    let mut rates = Vec::new();
    for &kind in apps {
        let app = super::app(kind, Fidelity::fast());
        let rate = 0.15 * vanilla_capacity(&app);
        rates.push(rate);
        scenarios.push(Scenario::new(
            format!("{} vanilla", kind.name()),
            cfg_at(&app, Strategy::Vanilla, rate, 0.0, profile),
        ));
        for s in [Strategy::BeeHiveOpenWhisk, Strategy::BeeHiveLambda] {
            for &r in grid {
                scenarios.push(Scenario::new(
                    format!("{} {} ratio={r}", kind.name(), s.label()),
                    cfg_at(&app, s, rate, r, profile),
                ));
            }
        }
    }
    let apps = apps.to_vec();
    Plan::new(scenarios, move |mut outcomes| {
        let rows = apps
            .into_iter()
            .zip(rates)
            .zip(outcomes.chunks_mut(per_app))
            .map(|((kind, rate), chunk)| {
                let vanilla_ms = p99_of(&mut chunk[0]);
                let mut min_over = |offset: usize| {
                    chunk[offset..offset + grid.len()]
                        .iter_mut()
                        .map(p99_of)
                        .fold(f64::INFINITY, f64::min)
                };
                let beehive_o_ms = min_over(1);
                let beehive_l_ms = min_over(1 + grid.len());
                Table4Row {
                    app: kind,
                    rps: rate,
                    vanilla_ms,
                    beehive_o_ms,
                    beehive_l_ms,
                }
            })
            .collect();
        Table4Report { rows }
    })
}

impl fmt::Display for Table4Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 4 — minimal p99 (ms) under a fixed throughput")?;
        writeln!(
            f,
            "{:<12} {:>8} {:>10} {:>10} {:>10}",
            "app", "rps", "Vanilla", "BeeHiveO", "BeeHiveL"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>8.0} {:>10.2} {:>10.2} {:>10.2}",
                r.app.name(),
                r.rps,
                r.vanilla_ms,
                r.beehive_o_ms,
                r.beehive_l_ms
            )?;
        }
        Ok(())
    }
}

/// One Figure 10 point: the p99 each system achieves when asked to meet an
/// SLO ("all scaling solutions continuously offload more requests until it
/// is satisfied").
#[derive(Clone, Debug)]
pub struct Fig10Point {
    /// The SLO requirement (ms).
    pub slo_ms: f64,
    /// Achieved p99 per strategy label.
    pub achieved_ms: Vec<(&'static str, f64)>,
}

/// Figure 10.
#[derive(Clone, Debug)]
pub struct Fig10Report {
    /// Points by SLO, strictest first.
    pub points: Vec<Fig10Point>,
}

/// Plan Figure 10 on the blog application.
pub fn fig10(profile: Profile) -> Plan<Fig10Report> {
    let app = super::app(AppKind::Blog, Fidelity::fast());
    let rate = 0.15 * vanilla_capacity(&app);
    let slos: &[f64] = if profile.quick {
        &[55.0, 95.0]
    } else {
        &[30.0, 40.0, 50.0, 60.0, 80.0, 100.0]
    };

    // Pre-compute each strategy's p99 across the ratio grid once, all
    // configurations concurrently.
    let grid = ratio_grid(profile);
    let mut scenarios = vec![Scenario::new(
        "vanilla",
        cfg_at(&app, Strategy::Vanilla, rate, 0.0, profile),
    )];
    for s in [Strategy::BeeHiveOpenWhisk, Strategy::BeeHiveLambda] {
        for &r in grid {
            scenarios.push(Scenario::new(
                format!("{} ratio={r}", s.label()),
                cfg_at(&app, s, rate, r, profile),
            ));
        }
    }
    Plan::new(scenarios, move |mut outcomes| {
        let mut p99s = outcomes.iter_mut().map(p99_of);
        let vanilla: Vec<f64> = p99s.by_ref().take(1).collect();
        let bo: Vec<f64> = p99s.by_ref().take(grid.len()).collect();
        let bl: Vec<f64> = p99s.collect();

        // For each SLO pick the least-offloading configuration that
        // satisfies it, or the best achievable if none does.
        let achieved = |cands: &[f64], slo: f64| -> f64 {
            cands
                .iter()
                .copied()
                .find(|&p| p <= slo)
                .unwrap_or_else(|| cands.iter().copied().fold(f64::INFINITY, f64::min))
        };

        let points = slos
            .iter()
            .map(|&slo| Fig10Point {
                slo_ms: slo,
                achieved_ms: vec![
                    ("Vanilla", achieved(&vanilla, slo)),
                    ("BeeHiveO", achieved(&bo, slo)),
                    ("BeeHiveL", achieved(&bl, slo)),
                ],
            })
            .collect();
        Fig10Report { points }
    })
}

impl Fig10Report {
    /// `true` if `label` meets the SLO at the given point index.
    pub fn meets(&self, idx: usize, label: &str) -> bool {
        let p = &self.points[idx];
        p.achieved_ms
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, v)| *v <= p.slo_ms)
            .unwrap_or(false)
    }
}

impl ToJson for Fig10Report {
    fn to_json(&self) -> Json {
        Json::obj([(
            "points".into(),
            Json::Arr(
                self.points
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("slo_ms".into(), Json::from(p.slo_ms)),
                            (
                                "achieved_ms".into(),
                                Json::Obj(
                                    p.achieved_ms
                                        .iter()
                                        .map(|&(l, v)| (l.to_string(), Json::from(v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

impl fmt::Display for Fig10Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 10 — blog p99 (ms) under various SLOs")?;
        write!(f, "{:<10}", "SLO(ms)")?;
        if let Some(p) = self.points.first() {
            for (l, _) in &p.achieved_ms {
                write!(f, "{:>12}", l)?;
            }
        }
        writeln!(f)?;
        for p in &self.points {
            write!(f, "{:<10.0}", p.slo_ms)?;
            for (_, v) in &p.achieved_ms {
                write!(f, "{:>12.2}", v)?;
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
    fn beehive_overhead_over_vanilla_is_bounded() {
        let t = table4(&[AppKind::Blog], Profile::quick()).run();
        let row = &t.rows[0];
        assert!(row.vanilla_ms > 0.0);
        // BeeHive adds overhead but stays the same order of magnitude
        // (paper: +12.8% OpenWhisk / +51.6% Lambda on average).
        assert!(
            row.beehive_o_ms >= row.vanilla_ms,
            "BeeHiveO {:.1} vs vanilla {:.1}",
            row.beehive_o_ms,
            row.vanilla_ms
        );
        assert!(row.beehive_o_ms <= row.vanilla_ms * 1.6);
        // Lambda pays its smaller vCPU share and longer RTTs (§5.2).
        assert!(
            row.beehive_l_ms > row.beehive_o_ms * 1.2,
            "BeeHiveL {:.1} vs BeeHiveO {:.1}",
            row.beehive_l_ms,
            row.beehive_o_ms
        );
    }

    #[test]
    fn strict_slos_favor_vanilla() {
        let r = fig10(Profile::quick()).run();
        // Loose SLOs everyone meets.
        let last = r.points.len() - 1;
        assert!(r.meets(last, "Vanilla"));
        assert!(r.meets(last, "BeeHiveO"));
        // The strictest SLO: vanilla meets it, BeeHive on Lambda cannot
        // ("BeeHive fails to meet strict SLOs as the vanilla setting").
        assert!(r.meets(0, "Vanilla"));
        assert!(!r.meets(0, "BeeHiveL"));
        assert!(!format!("{r}").is_empty());
    }
}
