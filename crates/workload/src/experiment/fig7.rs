//! Figure 7 + Table 3: tail latency under a 2× request burst, per scaling
//! strategy, with the financial cost of the scaling window.

use std::fmt;

use beehive_apps::{AppKind, Fidelity};
use beehive_sim::stats::{median, percentile_sorted, TimelinePoint};
use beehive_sim::{json_record, Duration};

use crate::driver::{ArrivalPattern, Sim, SimConfig, SimResult};
use crate::engine::{Plan, Scenario};
use crate::strategy::Strategy;

use super::{base_rate, Profile};

/// A single burst run, configurable step by step (also the quickstart entry
/// point of the facade crate).
#[derive(Clone, Debug)]
pub struct BurstExperiment {
    kind: AppKind,
    strategy: Strategy,
    horizon: Duration,
    burst_at: Duration,
    seed: u64,
    base_rps: Option<f64>,
    warm_boot: bool,
    fidelity: Fidelity,
    shadow: bool,
}

impl BurstExperiment {
    /// A burst experiment on `kind` with `strategy` (paper defaults: 180 s
    /// horizon, burst from the 60th second to the end at twice the load).
    pub fn new(kind: AppKind, strategy: Strategy) -> Self {
        BurstExperiment {
            kind,
            strategy,
            horizon: Duration::from_secs(180),
            burst_at: Duration::from_secs(60),
            seed: 42,
            base_rps: None,
            warm_boot: false,
            fidelity: Fidelity::fast(),
            shadow: true,
        }
    }

    /// Set the horizon in seconds.
    pub fn horizon_secs(mut self, s: u64) -> Self {
        self.horizon = Duration::from_secs(s);
        self
    }

    /// Set the burst start in seconds.
    pub fn burst_at_secs(mut self, s: u64) -> Self {
        self.burst_at = Duration::from_secs(s);
        self
    }

    /// Set the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the pre-burst request rate (default: near-peak).
    pub fn base_rps(mut self, rps: f64) -> Self {
        self.base_rps = Some(rps);
        self
    }

    /// Start with cached warm instances holding refined closures (the §5.2
    /// sub-second warm-boot scenario).
    pub fn warm_boot(mut self, on: bool) -> Self {
        self.warm_boot = on;
        self
    }

    /// Disable shadow execution (ablation).
    pub fn shadow(mut self, on: bool) -> Self {
        self.shadow = on;
        self
    }

    /// The strategy under test.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The [`SimConfig`] this experiment describes (the engine-facing half
    /// of [`run`](Self::run): a [`Plan`] takes configs from here as its
    /// scenarios and aggregates their results with [`report`](Self::report)).
    pub fn config(&self) -> SimConfig {
        let app = super::app(self.kind, self.fidelity);
        let rate = self.base_rps.unwrap_or_else(|| base_rate(&app));
        let mut cfg = SimConfig::new(app, self.strategy);
        cfg.arrivals = ArrivalPattern::Open {
            base_rps: rate,
            burst_mult: 2.0,
            burst_at: self.burst_at,
            burst_end: self.horizon,
        };
        cfg.horizon = self.horizon;
        cfg.engage_at = self.burst_at;
        cfg.seed = self.seed;
        cfg.record_from = self.burst_at / 2;
        cfg.shadow_enabled = self.shadow;
        if self.warm_boot {
            cfg.prewarm_ready = 16;
        }
        cfg
    }

    /// Aggregate the result of running [`config`](Self::config).
    pub fn report(&self, result: SimResult) -> BurstReport {
        BurstReport::from_result(self.strategy, self.burst_at, result)
    }

    /// Run, producing the burst report.
    pub fn run(self) -> BurstReport {
        let result = Sim::new(self.config()).run();
        self.report(result)
    }
}

json_record! {
    /// The outcome of one burst run.
    #[derive(Debug)]
    pub struct BurstReport {
        /// The strategy.
        pub strategy: Strategy,
        /// Recorded completed requests.
        pub completed: u64,
        /// p99 before the burst (ms).
        pub pre_burst_p99_ms: f64,
        /// Seconds from the burst start until the p99 re-stabilizes (§5.2's
        /// "duration to reach stable latency"); `None` = never within the
        /// horizon.
        pub stabilization_secs: Option<u64>,
        /// p99 over the last 30 seconds (ms) — the stabilized tail latency.
        pub stabilized_p99_ms: f64,
        /// Dollars spent on the scaled capacity (FaaS bill or extra instance).
        pub scaling_cost: f64,
        /// Cold boots (FaaS strategies).
        pub cold_boots: u64,
        /// Warm boots (FaaS strategies).
        pub warm_boots: u64,
        /// Shadow executions run.
        pub shadows: u64,
        /// Per-second p99 series.
        pub timeline: Vec<TimelinePoint>,
    }
}

impl BurstReport {
    fn from_result(strategy: Strategy, burst_at: Duration, mut r: SimResult) -> Self {
        let burst_sec = burst_at.as_nanos() / 1_000_000_000;
        let points = r.timeline.points();
        // Pre-burst envelope from the last third before the burst (the
        // first seconds contain the server's own JIT warmup).
        let pre_from = burst_sec * 2 / 3;
        let pre: Vec<&TimelinePoint> = points
            .iter()
            .filter(|p| p.count > 0 && p.second >= pre_from && p.second < burst_sec)
            .collect();
        let pre_burst_p99_ms = if pre.is_empty() {
            0.0
        } else {
            pre.iter().map(|p| p.p99_ms).sum::<f64>() / pre.len() as f64
        };
        let report = |stabilization_secs, stabilized_p99_ms, timeline| BurstReport {
            strategy,
            completed: r.completed,
            pre_burst_p99_ms,
            stabilization_secs,
            stabilized_p99_ms,
            scaling_cost: r.faas_cost + r.scaled_cost,
            cold_boots: r.boots.0,
            warm_boots: r.boots.1,
            shadows: r.shadows,
            timeline,
        };
        // Per-second p99s are noisy (a hundred-odd samples each); "stable"
        // means back within the envelope the pre-burst series itself
        // occupied, so the threshold tracks the observed pre-burst peak.
        // "Stable" means the p99 settled at its *new* steady level (the
        // post-burst operating point runs at twice the load, with its own
        // noise envelope), not that it returned to the pre-burst level. The
        // stabilized level comes from the final 15 recorded seconds; the
        // stabilization time is the end of the last two-consecutive-second
        // excursion above 2.5x that level. If the final level never came
        // back within 3x the pre-burst mean, the system did not stabilize
        // within the horizon.
        let recorded: Vec<&TimelinePoint> = points
            .iter()
            .filter(|p| p.count > 0 && p.second >= burst_sec)
            .collect();
        let mut tail: Vec<f64> = recorded.iter().rev().take(15).map(|p| p.p99_ms).collect();
        tail.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let tail_median = percentile_sorted(&tail, 0.5);
        let stabilization_secs = if tail.is_empty()
            || tail_median > (pre_burst_p99_ms * 3.0).max(pre_burst_p99_ms + 300.0)
        {
            None // still melted at the end of the horizon
        } else {
            // Median-of-three smoothing removes the one-to-two-second noise
            // spikes a hundred-sample p99 estimator produces at this load.
            let smoothed: Vec<(u64, f64)> = recorded
                .windows(3)
                .map(|w| {
                    (
                        w[1].second,
                        median(&[w[0].p99_ms, w[1].p99_ms, w[2].p99_ms]),
                    )
                })
                .collect();
            // The threshold separates the burst melt (which reaches the
            // post-burst maximum) from the new operating point's ordinary
            // load waves: above 2.5x the settled level AND a substantial
            // fraction of the worst excursion. If the worst excursion never
            // left the envelope ordinary waves occupied *before* the burst,
            // provisioning was effectively instant.
            let pre_peak = pre.iter().map(|p| p.p99_ms).fold(0.0, f64::max);
            let peak = smoothed.iter().map(|(_, p)| *p).fold(0.0, f64::max);
            if peak <= (tail_median * 3.0).max(pre_peak * 1.5) {
                return report(Some(0), tail_median, points.clone());
            }
            let threshold_ms = (tail_median * 2.5).max(peak * 0.6).max(1.0);
            let last_unstable = smoothed
                .iter()
                .filter(|(_, p99)| *p99 > threshold_ms)
                .map(|(s, _)| *s)
                .max();
            match last_unstable {
                Some(s) => Some(s + 1 - burst_sec),
                None => Some(0),
            }
        };
        let end_sec = r.end.as_nanos() / 1_000_000_000;
        let tail: Vec<&TimelinePoint> = points
            .iter()
            .filter(|p| p.count > 0 && p.second + 30 >= end_sec)
            .collect();
        let stabilized_p99_ms = if tail.is_empty() {
            0.0
        } else {
            tail.iter().map(|p| p.p99_ms).sum::<f64>() / tail.len() as f64
        };
        report(stabilization_secs, stabilized_p99_ms, points)
    }
}

json_record! {
    /// Figure 7 for one application: all five strategies.
    #[derive(Debug)]
    pub struct Fig7Report {
        /// The application.
        pub app: AppKind,
        /// One report per strategy.
        pub rows: Vec<BurstReport>,
        /// The warm-boot BeeHive runs (sub-second provisioning, §5.2).
        pub warm_rows: Vec<BurstReport>,
    }
}

/// Plan Figure 7 (and collect Table 3's costs) for `kind`.
///
/// All seven burst windows (five strategies plus the two warm-boot BeeHive
/// runs) are independent simulations and fan out through the parallel
/// engine.
pub fn fig7(kind: AppKind, profile: Profile) -> Plan<Fig7Report> {
    let (horizon, burst_at) = if profile.quick { (40, 12) } else { (180, 60) };
    let experiment = |strategy: Strategy, warm: bool| {
        BurstExperiment::new(kind, strategy)
            .horizon_secs(horizon)
            .burst_at_secs(burst_at)
            .seed(profile.seed)
            .warm_boot(warm)
    };
    let experiments: Vec<BurstExperiment> = Strategy::fig7_set()
        .iter()
        .map(|&s| experiment(s, false))
        .chain([
            experiment(Strategy::BeeHiveOpenWhisk, true),
            experiment(Strategy::BeeHiveLambda, true),
        ])
        .collect();
    // Labels carry the app plus a warm marker: the two warm-boot runs reuse
    // strategies already in the grid, and the artifacts key scenarios by
    // label.
    let cold_count = Strategy::fig7_set().len();
    let scenarios = experiments
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let warm = if i >= cold_count { " warm" } else { "" };
            Scenario::new(
                format!("{} {}{warm}", kind.name(), e.strategy.label()),
                e.config(),
            )
        })
        .collect();
    Plan::new(scenarios, move |outcomes| {
        let mut reports: Vec<BurstReport> = experiments
            .iter()
            .zip(outcomes)
            .map(|(e, o)| e.report(o.result))
            .collect();
        let warm_rows = reports.split_off(cold_count);
        Fig7Report {
            app: kind,
            rows: reports,
            warm_rows,
        }
    })
}

impl fmt::Display for Fig7Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7 — {} tail latency under a 2x burst",
            self.app.name()
        )?;
        writeln!(
            f,
            "{:<22} {:>12} {:>14} {:>14} {:>10}",
            "strategy", "stabilize(s)", "pre p99(ms)", "stable p99(ms)", "cost($)"
        )?;
        for r in self.rows.iter().chain(self.warm_rows.iter()) {
            let warm = if self.warm_rows.iter().any(|w| std::ptr::eq(w, r)) {
                " (warm)"
            } else {
                ""
            };
            let stab = r
                .stabilization_secs
                .map(|s| format!("{s}"))
                .unwrap_or_else(|| "never".into());
            writeln!(
                f,
                "{:<22} {:>12} {:>14.1} {:>14.1} {:>10.4}",
                format!("{}{warm}", r.strategy.label()),
                stab,
                r.pre_burst_p99_ms,
                r.stabilized_p99_ms,
                r.scaling_cost
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burstable_stays_stable_and_beehive_stabilizes() {
        let p = Profile::quick();
        let burstable = BurstExperiment::new(
            AppKind::Pybbs,
            Strategy::Scaled(beehive_scaling::ScalingKind::Burstable),
        )
        .horizon_secs(60)
        .burst_at_secs(15)
        .seed(p.seed)
        .run();
        // Always-on extra capacity: stabilizes almost immediately.
        assert!(
            burstable.stabilization_secs.unwrap_or(999) <= 3,
            "burstable stabilization {:?}",
            burstable.stabilization_secs
        );

        let beehive = BurstExperiment::new(AppKind::Pybbs, Strategy::BeeHiveOpenWhisk)
            .horizon_secs(60)
            .burst_at_secs(15)
            .seed(p.seed)
            .run();
        assert!(beehive.completed > 500);
        assert!(beehive.shadows > 0, "cold path shadows first invocations");
        let stab = beehive.stabilization_secs.expect("beehive stabilizes");
        assert!(stab <= 30, "beehive stabilization {stab}s");
    }

    #[test]
    fn warm_boot_is_subsecond_class() {
        let cold = BurstExperiment::new(AppKind::Pybbs, Strategy::BeeHiveOpenWhisk)
            .horizon_secs(60)
            .burst_at_secs(15)
            .seed(7)
            .run();
        let warm = BurstExperiment::new(AppKind::Pybbs, Strategy::BeeHiveOpenWhisk)
            .horizon_secs(60)
            .burst_at_secs(15)
            .seed(7)
            .warm_boot(true)
            .run();
        let cold_stab = cold.stabilization_secs.unwrap_or(999);
        let warm_stab = warm.stabilization_secs.unwrap_or(999);
        assert!(
            warm_stab <= cold_stab,
            "warm {warm_stab}s vs cold {cold_stab}s"
        );
        assert!(warm_stab <= 2, "warm boot should stabilize in ~a second");
        assert_eq!(warm.cold_boots, 0, "no cold boots in the warm scenario");
    }
}
