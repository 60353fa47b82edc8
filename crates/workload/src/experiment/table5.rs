//! Table 5: fallback analysis on OpenWhisk — steady-state fallbacks per
//! invocation vs the fallback storm during shadow execution.

use std::fmt;

use beehive_apps::{AppKind, Fidelity};
use beehive_sim::{json_record, Duration};

use crate::driver::{ArrivalPattern, SimConfig};
use crate::engine::{Plan, Scenario};
use crate::strategy::Strategy;

use super::{base_rate, Profile};

json_record! {
    /// Per-application fallback metrics (averages per invocation).
    #[derive(Clone, Debug)]
    pub struct Table5Column {
        /// The application.
        pub app: AppKind,
        /// Steady-state fallbacks per invocation.
        pub fallbacks: f64,
        /// Steady-state fallback overhead (ms) per invocation.
        pub fallback_overhead_ms: f64,
        /// Steady-state remote code/data fetches per invocation (0 once the
        /// closure is refined).
        pub remote_fetching: f64,
        /// Objects shipped at synchronizations per invocation.
        pub synchronized_objects: f64,
        /// Fallbacks during the shadow execution.
        pub fallbacks_shadow: f64,
        /// Remote fetches during the shadow execution.
        pub remote_fetching_shadow: f64,
        /// Remote-fetch overhead during the shadow execution (ms).
        pub fetching_overhead_shadow_ms: f64,
    }
}

json_record! {
    /// Table 5.
    #[derive(Clone, Debug)]
    pub struct Table5Report {
        /// One column per application.
        pub columns: Vec<Table5Column>,
    }
}

/// Plan Table 5 for the given applications on the OpenWhisk deployment (one
/// concurrent simulation per application).
pub fn table5(apps: &[AppKind], profile: Profile) -> Plan<Table5Report> {
    let scenarios = apps
        .iter()
        .map(|&kind| {
            let app = super::app(kind, Fidelity::fast());
            let rate = base_rate(&app);
            let (horizon, record_from) = if profile.quick {
                (Duration::from_secs(20), Duration::from_secs(10))
            } else {
                (Duration::from_secs(45), Duration::from_secs(20))
            };
            let mut cfg = SimConfig::new(app, Strategy::BeeHiveOpenWhisk);
            cfg.arrivals = ArrivalPattern::constant(rate);
            cfg.horizon = horizon;
            cfg.record_from = record_from;
            cfg.seed = profile.seed;
            cfg.offload_ratio = 0.5;
            cfg.engage_at = Duration::ZERO;
            Scenario::new(kind.name(), cfg)
        })
        .collect();
    let apps = apps.to_vec();
    Plan::new(scenarios, move |outcomes| {
        let columns = apps
            .into_iter()
            .zip(outcomes)
            .map(|(kind, o)| {
                let r = o.result;
                let n = r.steady_offload_count.max(1) as f64;
                let sh = r.shadows.max(1) as f64;
                Table5Column {
                    app: kind,
                    fallbacks: r.steady_offload.total_fallbacks() as f64 / n,
                    fallback_overhead_ms: r.steady_offload.fallback_overhead.as_millis_f64() / n,
                    remote_fetching: r.steady_offload.remote_fetches() as f64 / n,
                    synchronized_objects: r.steady_offload.synchronized_objects as f64 / n,
                    fallbacks_shadow: r.shadow_stats.total_fallbacks() as f64 / sh,
                    remote_fetching_shadow: r.shadow_stats.remote_fetches() as f64 / sh,
                    fetching_overhead_shadow_ms: r.shadow_stats.fetch_overhead.as_millis_f64() / sh,
                }
            })
            .collect();
        Table5Report { columns }
    })
}

impl fmt::Display for Table5Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 5 — fallback analysis on OpenWhisk (averages)")?;
        write!(f, "{:<36}", "Metrics (Avg.)")?;
        for c in &self.columns {
            write!(f, "{:>12}", c.app.name())?;
        }
        writeln!(f)?;
        type Getter = fn(&Table5Column) -> f64;
        let rows: Vec<(&str, Getter)> = vec![
            ("Fallbacks", |c| c.fallbacks),
            ("Fallback overhead (ms)", |c| c.fallback_overhead_ms),
            ("Remote fetching", |c| c.remote_fetching),
            ("Synchronized objects", |c| c.synchronized_objects),
            ("Fallbacks (shadow)", |c| c.fallbacks_shadow),
            ("Remote fetching (shadow)", |c| c.remote_fetching_shadow),
            ("Fetching overhead (shadow) (ms)", |c| {
                c.fetching_overhead_shadow_ms
            }),
        ];
        for (name, get) in rows {
            write!(f, "{:<36}", name)?;
            for c in &self.columns {
                write!(f, "{:>12.2}", get(c))?;
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
    fn steady_state_is_sync_only_and_shadow_fetches_a_lot() {
        let t = table5(&[AppKind::Pybbs], Profile::quick()).run();
        let c = &t.columns[0];
        // Steady state: no remote fetching, only sync fallbacks remain
        // (Table 5: 0 fetches, 7 sync fallbacks for pybbs).
        assert!(
            c.remote_fetching < 0.5,
            "steady fetches {}",
            c.remote_fetching
        );
        assert!(
            c.fallbacks >= 1.0 && c.fallbacks <= 14.0,
            "steady fallbacks {}",
            c.fallbacks
        );
        assert!(c.synchronized_objects >= c.fallbacks);
        // The shadow did the heavy lifting.
        assert!(
            c.remote_fetching_shadow > 5.0,
            "shadow fetches {}",
            c.remote_fetching_shadow
        );
        assert!(c.fallbacks_shadow > c.fallbacks);
        assert!(c.fetching_overhead_shadow_ms > c.fallback_overhead_ms);
    }
}
