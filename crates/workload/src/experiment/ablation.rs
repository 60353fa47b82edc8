//! Design-choice ablations for the optimizations DESIGN.md calls out:
//! Packageable native-state packing (§3.2), proxy-based connections (§3.3),
//! and shadow execution (§3.4, measured in
//! [`breakdown::shadow_breakdown`](super::breakdown::shadow_breakdown)).

use std::fmt;

use beehive_apps::{AppKind, Fidelity};
use beehive_core::config::BeeHiveConfig;
use beehive_sim::{json_record, Duration};

use crate::driver::{ArrivalPattern, SimConfig};
use crate::engine::{Plan, Scenario};
use crate::strategy::Strategy;

use super::{base_rate, Profile};

json_record! {
    /// One ablation configuration's steady-state metrics.
    #[derive(Clone, Debug)]
    pub struct AblationRow {
        /// Configuration label.
        pub label: &'static str,
        /// Steady p99 (ms).
        pub p99_ms: f64,
        /// Native fallbacks per offloaded request.
        pub native_fallbacks: f64,
        /// Database fallbacks per offloaded request.
        pub db_fallbacks: f64,
        /// Total fallback overhead per offloaded request (ms).
        pub fallback_overhead_ms: f64,
    }
}

json_record! {
    /// The ablation study.
    #[derive(Clone, Debug)]
    pub struct AblationReport {
        /// The application.
        pub app: AppKind,
        /// Rows: full BeeHive, no packaging, no proxy.
        pub rows: Vec<AblationRow>,
    }
}

/// Plan the ablations on `kind` (BeeHiveO, steady state, half offloaded).
pub fn ablation(kind: AppKind, profile: Profile) -> Plan<AblationReport> {
    let app = super::app(kind, Fidelity::fast());
    let rate = base_rate(&app);
    let (horizon, record_from) = if profile.quick {
        (Duration::from_secs(18), Duration::from_secs(9))
    } else {
        (Duration::from_secs(40), Duration::from_secs(18))
    };
    let configure = |beehive: BeeHiveConfig| {
        let mut cfg = SimConfig::new(app.clone(), Strategy::BeeHiveOpenWhisk);
        cfg.arrivals = ArrivalPattern::constant(rate);
        cfg.horizon = horizon;
        cfg.record_from = record_from;
        cfg.seed = profile.seed;
        cfg.offload_ratio = 0.5;
        cfg.engage_at = Duration::ZERO;
        cfg.beehive = beehive;
        cfg
    };
    let labels: [&'static str; 3] = [
        "BeeHive (full)",
        "no Packageable (COMET-style)",
        "no connection proxy",
    ];
    let scenarios = labels
        .iter()
        .zip([
            BeeHiveConfig::default(),
            BeeHiveConfig::default().without_packageable(),
            BeeHiveConfig::default().without_proxy(),
        ])
        .map(|(&label, beehive)| Scenario::new(label, configure(beehive)))
        .collect();
    Plan::new(scenarios, move |outcomes| {
        let rows = labels
            .into_iter()
            .zip(outcomes)
            .map(|(label, mut o)| {
                let n = o.result.steady_offload_count.max(1) as f64;
                let steady = &o.result.steady_offload;
                AblationRow {
                    label,
                    p99_ms: o.result.steady.percentile(0.99).as_millis_f64(),
                    native_fallbacks: steady.fallbacks_native as f64 / n,
                    db_fallbacks: steady.fallbacks_db as f64 / n,
                    fallback_overhead_ms: steady.fallback_overhead.as_millis_f64() / n,
                }
            })
            .collect();
        AblationReport { app: kind, rows }
    })
}

impl fmt::Display for AblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablations — {} (steady state, per offloaded request)",
            self.app.name()
        )?;
        writeln!(
            f,
            "{:<30} {:>10} {:>12} {:>10} {:>14}",
            "configuration", "p99(ms)", "native FB", "db FB", "FB ovh(ms)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<30} {:>10.2} {:>12.2} {:>10.2} {:>14.3}",
                r.label, r.p99_ms, r.native_fallbacks, r.db_fallbacks, r.fallback_overhead_ms
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removing_optimizations_brings_fallbacks_back() {
        let r = ablation(AppKind::Pybbs, Profile::quick()).run();
        let full = &r.rows[0];
        let no_pack = &r.rows[1];
        let no_proxy = &r.rows[2];
        // Full BeeHive: native and DB fallbacks eliminated (§3.2, §3.3).
        assert!(full.native_fallbacks < 0.5, "{}", full.native_fallbacks);
        assert!(full.db_fallbacks < 0.5, "{}", full.db_fallbacks);
        // Without packaging, reflective natives fall back constantly.
        assert!(
            no_pack.native_fallbacks > 5.0,
            "no-pack native fallbacks {}",
            no_pack.native_fallbacks
        );
        // Without the proxy, every DB round falls back (82 for pybbs).
        assert!(
            no_proxy.db_fallbacks > 50.0,
            "no-proxy db fallbacks {}",
            no_proxy.db_fallbacks
        );
        // Both ablations cost latency.
        assert!(no_proxy.fallback_overhead_ms > full.fallback_overhead_ms);
        assert!(no_pack.fallback_overhead_ms > full.fallback_overhead_ms);
    }
}
