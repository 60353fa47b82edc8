//! The scaling strategies compared in the evaluation.

use beehive_apps::App;
use beehive_faas::PlatformConfig;
use beehive_scaling::ScalingKind;
use beehive_sim::json::{Json, ToJson};

/// One scaling strategy under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Unmodified runtime on an always-on server (write barriers off).
    Vanilla,
    /// BeeHive's runtime on the server with offloading never engaged —
    /// isolates the barrier overhead (Fig. 8's "BeeHive-Single").
    BeeHiveSingle,
    /// Semi-FaaS offloading to the OpenWhisk deployment ("BeeHiveO").
    BeeHiveOpenWhisk,
    /// Semi-FaaS offloading to OpenWhisk spread across availability zones
    /// (the §5.2 network-latency sensitivity configuration).
    BeeHiveOpenWhiskCrossAz,
    /// Semi-FaaS offloading to AWS Lambda ("BeeHiveL").
    BeeHiveLambda,
    /// Scale out with another instance of the given kind (EC2 on-demand,
    /// Fargate, burstable, reserved).
    Scaled(ScalingKind),
    /// §5.7's combination: offload to OpenWhisk-backed Semi-FaaS while an
    /// on-demand instance provisions, then set the offloading ratio to zero
    /// and let the instance take the burst — fast reaction *and* low cost.
    Combined(ScalingKind),
}

impl Strategy {
    /// Display label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Vanilla => "Vanilla",
            Strategy::BeeHiveSingle => "BeeHive-Single",
            Strategy::BeeHiveOpenWhisk => "BeeHiveO",
            Strategy::BeeHiveOpenWhiskCrossAz => "BeeHiveO (cross-AZ)",
            Strategy::BeeHiveLambda => "BeeHiveL",
            Strategy::Scaled(ScalingKind::OnDemand) => "EC2",
            Strategy::Scaled(ScalingKind::Fargate) => "Fargate",
            Strategy::Scaled(ScalingKind::Burstable) => "Burstable",
            Strategy::Scaled(ScalingKind::Reserved) => "Reserved",
            Strategy::Scaled(ScalingKind::Lambda) => "Lambda (raw)",
            Strategy::Combined(_) => "BeeHive+EC2 (combined)",
        }
    }

    /// `true` for the Semi-FaaS strategies.
    pub fn is_beehive(self) -> bool {
        matches!(
            self,
            Strategy::BeeHiveSingle
                | Strategy::BeeHiveOpenWhisk
                | Strategy::BeeHiveOpenWhiskCrossAz
                | Strategy::BeeHiveLambda
                | Strategy::Combined(_)
        )
    }

    /// `true` when the server runs with BeeHive's write barriers.
    pub fn barriers_on(self) -> bool {
        self.is_beehive()
    }

    /// `true` for strategies that actually offload to FaaS.
    pub fn offloads(self) -> bool {
        matches!(
            self,
            Strategy::BeeHiveOpenWhisk
                | Strategy::BeeHiveOpenWhiskCrossAz
                | Strategy::BeeHiveLambda
                | Strategy::Combined(_)
        )
    }

    /// The FaaS platform configuration, for offloading strategies.
    pub fn platform(self, app: &App) -> Option<PlatformConfig> {
        match self {
            Strategy::BeeHiveOpenWhisk | Strategy::Combined(_) => Some(PlatformConfig::openwhisk()),
            Strategy::BeeHiveOpenWhiskCrossAz => Some(PlatformConfig::openwhisk_cross_az()),
            Strategy::BeeHiveLambda => Some(PlatformConfig::lambda(app.lambda_memory_gb())),
            _ => None,
        }
    }

    /// The instance-scaling kind, for scaled (and combined) strategies.
    pub fn scaling_kind(self) -> Option<ScalingKind> {
        match self {
            Strategy::Scaled(k) | Strategy::Combined(k) => Some(k),
            _ => None,
        }
    }

    /// The strategies of Figure 7 (burst reduction).
    pub fn fig7_set() -> [Strategy; 5] {
        [
            Strategy::Scaled(ScalingKind::OnDemand),
            Strategy::Scaled(ScalingKind::Fargate),
            Strategy::Scaled(ScalingKind::Burstable),
            Strategy::BeeHiveOpenWhisk,
            Strategy::BeeHiveLambda,
        ]
    }

    /// The strategies of Figure 8 (throughput analysis).
    pub fn fig8_set() -> [Strategy; 4] {
        [
            Strategy::Vanilla,
            Strategy::BeeHiveSingle,
            Strategy::BeeHiveOpenWhisk,
            Strategy::BeeHiveLambda,
        ]
    }
}

impl ToJson for Strategy {
    fn to_json(&self) -> Json {
        self.label().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_apps::{AppKind, Fidelity};

    #[test]
    fn classification() {
        assert!(!Strategy::Vanilla.barriers_on());
        assert!(Strategy::BeeHiveSingle.barriers_on());
        assert!(!Strategy::BeeHiveSingle.offloads());
        assert!(Strategy::BeeHiveOpenWhisk.offloads());
        assert!(Strategy::Scaled(ScalingKind::OnDemand)
            .scaling_kind()
            .is_some());
    }

    #[test]
    fn platform_selection_respects_app_memory() {
        let app = App::build(AppKind::Thumbnail, Fidelity::Scaled(4096));
        let p = Strategy::BeeHiveLambda.platform(&app).unwrap();
        assert!((p.cpu - 1.2).abs() < 1e-9, "2 GB thumbnail => 1.2 vCPU");
        assert!(Strategy::Vanilla.platform(&app).is_none());
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = Strategy::fig7_set().iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }
}
