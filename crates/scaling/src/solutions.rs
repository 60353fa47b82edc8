//! The scaling solutions of Table 1 and their provisioning/cost models.

use beehive_sim::json::{Json, ToJson};
use beehive_sim::{json_record, Duration, Rng, SimTime};

/// Which scaling solution (Table 1 rows; Lambda is modelled by
/// `beehive-faas`, listed here for the comparison table).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScalingKind {
    /// Reserved EC2 instance: prepared in advance, ≥1-year commitment.
    Reserved,
    /// On-demand EC2 instance: created when needed, ~40 s provisioning plus
    /// a slow application launch.
    OnDemand,
    /// Burstable (t3) instance: always-on with usage-scaled billing.
    Burstable,
    /// AWS Fargate: container auto-scaling, ~40 s provisioning.
    Fargate,
    /// AWS Lambda (FaaS): sub-second provisioning, millisecond billing.
    Lambda,
}

impl ScalingKind {
    /// Hourly rate of one scaled instance of this kind, in dollars
    /// (us-east-1 list prices for the paper's instance types).
    pub fn hourly_rate(self) -> f64 {
        match self {
            // m4.xlarge (4 vCPU / 16 GB)
            ScalingKind::Reserved => 0.125, // ~37% below on-demand on a 1y term
            ScalingKind::OnDemand => 0.20,
            // t3.xlarge
            ScalingKind::Burstable => 0.1664,
            // 4 vCPU / 16 GB Fargate
            ScalingKind::Fargate => 0.24,
            // Billed per use; see beehive-faas.
            ScalingKind::Lambda => 0.0,
        }
    }

    /// Sample the time from a scale-out decision until the new capacity
    /// serves requests.
    ///
    /// * Reserved/burstable instances are already running (§2.1: "prepared
    ///   in advance").
    /// * On-demand: ~40 s provisioning (Table 1) plus a slow application
    ///   launch — §5.2: "on-demand instances suffer from a slower startup
    ///   and require more time to launch applications".
    /// * Fargate: ~40 s provisioning with a faster containerized app start.
    pub fn provisioning_time(self, rng: &mut Rng) -> Duration {
        match self {
            ScalingKind::Reserved | ScalingKind::Burstable => Duration::ZERO,
            ScalingKind::OnDemand => {
                rng.lognormal(Duration::from_secs(40), 0.08)
                    + rng.lognormal(Duration::from_secs(21), 0.15) // app launch
            }
            ScalingKind::Fargate => {
                rng.lognormal(Duration::from_secs(40), 0.08)
                    + rng.lognormal(Duration::from_secs(6), 0.15)
            }
            ScalingKind::Lambda => rng.lognormal(Duration::from_millis(1050), 0.15),
        }
    }

    /// Cost of using one scaled instance for `window` of scaling (the §5.4
    /// accounting: instance-time at the hourly rate; Lambda is usage-billed
    /// in `beehive-faas`).
    pub fn window_cost(self, window: Duration) -> f64 {
        self.hourly_rate() * window.as_secs_f64() / 3600.0
    }
}

impl ToJson for ScalingKind {
    fn to_json(&self) -> Json {
        Json::from(match self {
            ScalingKind::Reserved => "reserved",
            ScalingKind::OnDemand => "on_demand",
            ScalingKind::Burstable => "burstable",
            ScalingKind::Fargate => "fargate",
            ScalingKind::Lambda => "lambda",
        })
    }
}

json_record! {
    /// One row of Table 1.
    #[derive(Clone, Debug)]
    pub struct SolutionRow {
        /// Solution name.
        pub name: &'static str,
        /// Minimum running time (commitment).
        pub min_running_time: &'static str,
        /// Billing granularity.
        pub billing_granularity: &'static str,
        /// Preparation time.
        pub preparation_time: &'static str,
        /// Memory configuration granularity.
        pub config_granularity: &'static str,
        /// Whether the solution auto-scales.
        pub auto_scaling: bool,
    }
}

/// The comparison data of Table 1.
pub fn table1() -> Vec<SolutionRow> {
    vec![
        SolutionRow {
            name: "Reserved",
            min_running_time: "1 year",
            billing_granularity: "years",
            preparation_time: "-",
            config_granularity: "GB",
            auto_scaling: false,
        },
        SolutionRow {
            name: "On-demand",
            min_running_time: "1 minute",
            billing_granularity: "seconds",
            preparation_time: "~40 seconds",
            config_granularity: "GB",
            auto_scaling: false,
        },
        SolutionRow {
            name: "Burstable",
            min_running_time: "1 year",
            billing_granularity: "years",
            preparation_time: "-",
            config_granularity: "GB",
            auto_scaling: false,
        },
        SolutionRow {
            name: "Fargate",
            min_running_time: "1 minute",
            billing_granularity: "seconds",
            preparation_time: "~40 seconds",
            config_granularity: "GB",
            auto_scaling: true,
        },
        SolutionRow {
            name: "Lambda (FaaS)",
            min_running_time: "1 millisecond",
            billing_granularity: "milliseconds",
            preparation_time: "<1 second",
            config_granularity: "MB",
            auto_scaling: true,
        },
    ]
}

/// Tracks one scale-out of an instance-based solution: from the burst
/// trigger through provisioning to readiness.
#[derive(Clone, Debug)]
pub struct InstanceScaler {
    kind: ScalingKind,
    ready_at: Option<SimTime>,
    requested_at: Option<SimTime>,
}

impl InstanceScaler {
    /// A scaler for `kind` with no capacity requested yet.
    pub fn new(kind: ScalingKind) -> Self {
        InstanceScaler {
            kind,
            ready_at: None,
            requested_at: None,
        }
    }

    /// Request one extra instance at `now`; returns when it will be ready.
    /// Idempotent: repeated requests return the original readiness time.
    pub fn request(&mut self, now: SimTime, rng: &mut Rng) -> SimTime {
        if let Some(t) = self.ready_at {
            return t;
        }
        self.requested_at = Some(now);
        let ready = now + self.kind.provisioning_time(rng);
        self.ready_at = Some(ready);
        ready
    }

    /// Dollars spent on the scaled instance from the burst trigger until
    /// `until` (always-on kinds are billed for the same window for a fair
    /// §5.4 comparison).
    pub fn cost(&self, until: SimTime) -> f64 {
        let Some(start) = self.requested_at else {
            return 0.0;
        };
        self.kind.window_cost(until.saturating_since(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_shape() {
        let rows = table1();
        assert_eq!(rows.len(), 5);
        let lambda = rows.last().unwrap();
        assert_eq!(lambda.config_granularity, "MB");
        assert!(lambda.auto_scaling);
        assert!(rows[0].min_running_time.contains("year"));
        // Only FaaS and Fargate auto-scale (§2.1).
        assert_eq!(rows.iter().filter(|r| r.auto_scaling).count(), 2);
    }

    #[test]
    fn provisioning_ordering() {
        let mut rng = Rng::new(1);
        let reserved = ScalingKind::Reserved.provisioning_time(&mut rng);
        let lambda = ScalingKind::Lambda.provisioning_time(&mut rng);
        let fargate = ScalingKind::Fargate.provisioning_time(&mut rng);
        let ondemand = ScalingKind::OnDemand.provisioning_time(&mut rng);
        assert_eq!(reserved, Duration::ZERO);
        assert!(
            lambda < Duration::from_secs(3),
            "sub-second-ish: {lambda:?}"
        );
        assert!(fargate > Duration::from_secs(30));
        assert!(
            ondemand > fargate,
            "on-demand app launch is slower: {ondemand:?} vs {fargate:?}"
        );
    }

    #[test]
    fn scaler_is_idempotent() {
        let mut rng = Rng::new(2);
        let mut s = InstanceScaler::new(ScalingKind::OnDemand);
        let t0 = SimTime::from_secs(60);
        let r1 = s.request(t0, &mut rng);
        let r2 = s.request(t0 + Duration::from_secs(5), &mut rng);
        assert_eq!(r1, r2);
        assert!(r1 > t0, "on-demand provisioning takes time");
    }

    #[test]
    fn burstable_is_instant() {
        let mut rng = Rng::new(3);
        let mut s = InstanceScaler::new(ScalingKind::Burstable);
        let t0 = SimTime::from_secs(60);
        assert_eq!(s.request(t0, &mut rng), t0);
    }

    #[test]
    fn window_costs_match_table3_scale() {
        // Fig 7's burst lasts 120 s; Table 3 reports ~0.007 / 0.008 / 0.005
        // dollars for EC2 / Fargate / Burstable.
        let window = Duration::from_secs(120);
        let ec2 = ScalingKind::OnDemand.window_cost(window);
        let fargate = ScalingKind::Fargate.window_cost(window);
        let burstable = ScalingKind::Burstable.window_cost(window);
        assert!((ec2 - 0.00667).abs() < 0.001, "{ec2}");
        assert!((fargate - 0.008).abs() < 0.001, "{fargate}");
        assert!((burstable - 0.00555).abs() < 0.001, "{burstable}");
    }

    #[test]
    fn cost_accrues_from_request() {
        let mut rng = Rng::new(4);
        let mut s = InstanceScaler::new(ScalingKind::OnDemand);
        assert_eq!(s.cost(SimTime::from_secs(100)), 0.0);
        s.request(SimTime::from_secs(60), &mut rng);
        let c = s.cost(SimTime::from_secs(60 + 3600));
        assert!((c - 0.20).abs() < 1e-9);
    }
}
