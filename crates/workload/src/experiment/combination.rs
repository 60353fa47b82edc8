//! §5.7: combining Semi-FaaS with on-demand instances — "applications can
//! scale out with BeeHive before on-demand instances are launched. When
//! instances are ready, BeeHive can set the ratio to zero to stop offloading
//! to FaaS. With this solution, applications can achieve rapid resource
//! provisioning and less performance overhead when facing bursts."

use std::fmt;

use beehive_apps::AppKind;
use beehive_scaling::ScalingKind;
use beehive_sim::json_record;

use crate::config::SimResult;
use crate::engine::{Plan, Scenario};
use crate::strategy::Strategy;

use super::fig7::{BurstExperiment, BurstReport};
use super::Profile;

json_record! {
    /// Comparison of pure strategies against the §5.7 combination.
    #[derive(Debug)]
    pub struct CombinationReport {
        /// The application.
        pub app: AppKind,
        /// Pure EC2 on-demand scaling.
        pub ec2: BurstReport,
        /// Pure BeeHive on OpenWhisk.
        pub beehive: BurstReport,
        /// BeeHive bridging the gap until the EC2 instance is ready.
        pub combined: BurstReport,
    }
}

/// Plan the §5.7 combination study (all three burst windows concurrently).
pub fn combination(kind: AppKind, profile: Profile) -> Plan<CombinationReport> {
    runs(kind, profile).map(move |runs| {
        let mut reports = runs.into_iter().map(|(e, r)| e.report(r));
        CombinationReport {
            app: kind,
            ec2: reports.next().expect("ec2 report"),
            beehive: reports.next().expect("beehive report"),
            combined: reports.next().expect("combined report"),
        }
    })
}

/// Each burst experiment with its result: EC2, BeeHive, combined.
fn runs(kind: AppKind, profile: Profile) -> Plan<Vec<(BurstExperiment, SimResult)>> {
    let (horizon, burst_at) = if profile.quick {
        (60u64, 10u64)
    } else {
        (240, 60)
    };
    let experiments: Vec<BurstExperiment> = [
        Strategy::Scaled(ScalingKind::OnDemand),
        Strategy::BeeHiveOpenWhisk,
        Strategy::Combined(ScalingKind::OnDemand),
    ]
    .into_iter()
    .map(|s| {
        BurstExperiment::new(kind, s)
            .horizon_secs(horizon)
            .burst_at_secs(burst_at)
            .seed(profile.seed)
    })
    .collect();
    let scenarios = experiments
        .iter()
        .map(|e| Scenario::new(e.strategy().label(), e.config()))
        .collect();
    Plan::new(scenarios, |outcomes| {
        experiments
            .into_iter()
            .zip(outcomes.into_iter().map(|o| o.result))
            .collect()
    })
}

impl fmt::Display for CombinationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§5.7 — combining Semi-FaaS with on-demand instances ({})",
            self.app.name()
        )?;
        writeln!(
            f,
            "{:<24} {:>14} {:>16} {:>12}",
            "strategy", "stabilize (s)", "stable p99 (ms)", "cost ($)"
        )?;
        for r in [&self.ec2, &self.beehive, &self.combined] {
            let stab = r
                .stabilization_secs
                .map(|s| format!("{s}"))
                .unwrap_or_else(|| "never".into());
            writeln!(
                f,
                "{:<24} {:>14} {:>16.1} {:>12.4}",
                r.strategy.label(),
                stab,
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
    fn combination_reacts_fast_and_costs_less_than_pure_beehive() {
        // The saturated regime pinned exactly, per scenario: completed,
        // rejected, steady p50 / p99 / max (ns). On-demand scaling holds a
        // couple of hundred requests in the server pool for most of the run,
        // so any drift in the pool's arithmetic or tie-break shows here.
        const PINS: [[u64; 5]; 3] = [
            [4076, 1654, 3_510_135_868, 3_521_398_148, 3_522_907_608],
            [6062, 0, 130_599_783, 2_632_216_563, 5_044_552_290],
            [6060, 0, 130_251_138, 2_586_678_768, 5_044_552_290],
        ];
        let mut reports = Vec::new();
        let runs = runs(AppKind::Pybbs, Profile::quick()).run();
        for ((e, mut r), pin) in runs.into_iter().zip(PINS) {
            let got = [
                r.completed,
                r.rejected,
                r.steady.percentile(0.5).as_nanos(),
                r.steady.percentile(0.99).as_nanos(),
                r.steady.max().as_nanos(),
            ];
            assert_eq!(got, pin, "{}", e.strategy().label());
            reports.push(e.report(r));
        }
        let [ec2, beehive, combined] = &reports[..] else {
            unreachable!("three scenarios")
        };
        // The combination reacts as fast as BeeHive (seconds, not the ~60+ s
        // of on-demand provisioning).
        let combined_stab = combined.stabilization_secs.expect("stabilizes");
        let beehive_stab = beehive.stabilization_secs.expect("stabilizes");
        assert!(
            combined_stab <= beehive_stab + 5,
            "combined {combined_stab}s vs beehive {beehive_stab}s"
        );
        if let Some(ec2_stab) = ec2.stabilization_secs {
            assert!(combined_stab < ec2_stab);
        }
        // And it spends less on FaaS than pure BeeHive: the functions only
        // bridge the provisioning gap. (Total includes the EC2 instance.)
        assert!(
            combined.scaling_cost < beehive.scaling_cost + 0.02,
            "combined ${:.4} vs beehive ${:.4}",
            combined.scaling_cost,
            beehive.scaling_cost
        );
    }
}
