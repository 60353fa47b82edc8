//! §5.7: combining Semi-FaaS with on-demand instances — "applications can
//! scale out with BeeHive before on-demand instances are launched. When
//! instances are ready, BeeHive can set the ratio to zero to stop offloading
//! to FaaS. With this solution, applications can achieve rapid resource
//! provisioning and less performance overhead when facing bursts."

use std::fmt;

use beehive_apps::AppKind;
use beehive_scaling::ScalingKind;
use beehive_sim::json_record;

use crate::engine::{run_all, Scenario};
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

/// Run the §5.7 combination study (all three burst windows concurrently).
pub fn combination(kind: AppKind, profile: Profile) -> CombinationReport {
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
    let outcomes = run_all(
        experiments
            .iter()
            .map(|e| Scenario::new(e.strategy().label(), e.config()))
            .collect(),
    );
    let mut reports = experiments
        .iter()
        .zip(outcomes)
        .map(|(e, o)| e.report(o.result));
    CombinationReport {
        app: kind,
        ec2: reports.next().expect("ec2 report"),
        beehive: reports.next().expect("beehive report"),
        combined: reports.next().expect("combined report"),
    }
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
        let r = combination(AppKind::Pybbs, Profile::quick());
        // The combination reacts as fast as BeeHive (seconds, not the ~60+ s
        // of on-demand provisioning).
        let combined_stab = r.combined.stabilization_secs.expect("stabilizes");
        let beehive_stab = r.beehive.stabilization_secs.expect("stabilizes");
        assert!(
            combined_stab <= beehive_stab + 5,
            "combined {combined_stab}s vs beehive {beehive_stab}s"
        );
        if let Some(ec2_stab) = r.ec2.stabilization_secs {
            assert!(combined_stab < ec2_stab);
        }
        // And it spends less on FaaS than pure BeeHive: the functions only
        // bridge the provisioning gap. (Total includes the EC2 instance.)
        assert!(
            r.combined.scaling_cost < r.beehive.scaling_cost + 0.02,
            "combined ${:.4} vs beehive ${:.4}",
            r.combined.scaling_cost,
            r.beehive.scaling_cost
        );
    }
}
