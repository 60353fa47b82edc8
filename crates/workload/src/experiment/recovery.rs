//! §4.5 failure recovery under fault injection: MTTR and tail latency as a
//! function of the instance crash rate.
//!
//! Method: one steady offloading run per crash rate, all under the
//! snapshot-enabled BeeHive configuration. Each non-zero rate arms a
//! deterministic [`FaultPlan`] — instance crashes, boot failures, dropped
//! fallback round-trips and database reconnects, each on its own
//! exponential schedule keyed by `(chaos seed, scenario label)` — and the
//! report tabulates the recovery machinery's end-to-end effect: crashes
//! seen, retries and replacement boots, mean time to recovery
//! (detection → resume on the replacement), re-executed virtual time, and
//! the p50/p99 steady-state latency the clients observe.

use std::fmt;

use beehive_apps::{AppKind, Fidelity};
use beehive_chaos::{keyed, Fault, FaultPlan, Injector};
use beehive_sim::{json_record, Duration};

use crate::driver::{ArrivalPattern, SimConfig};
use crate::engine::{Plan, Scenario};
use crate::strategy::Strategy;

use super::{base_rate, Profile};

json_record! {
    /// One crash-rate operating point.
    #[derive(Clone, Debug)]
    pub struct RecoveryRow {
        /// Scenario label (also the fault-plan key).
        pub label: String,
        /// Injected instance crashes per second.
        pub crash_rate: f64,
        /// Recorded completed requests.
        pub completed: u64,
        /// Instances killed under a request or in the warm cache.
        pub crashes: u64,
        /// Boots that failed to come up.
        pub boot_failures: u64,
        /// Retry attempts (replacement boots, re-sent round-trips, reconnects).
        pub retries: u64,
        /// Sessions restored from a snapshot on a replacement instance.
        pub recoveries: u64,
        /// Requests degraded to a fresh server session (retries exhausted).
        pub degraded: u64,
        /// Virtual time re-executed after restores (work since the last
        /// durable snapshot), in milliseconds.
        pub re_executed_ms: f64,
        /// Mean time to recovery: crash detection → resume, in milliseconds.
        pub mttr_ms: f64,
        /// Steady-state median latency, milliseconds.
        pub p50_ms: f64,
        /// Steady-state p99 latency, milliseconds.
        pub p99_ms: f64,
    }
}

json_record! {
    /// The recovery sweep for one application.
    #[derive(Clone, Debug)]
    pub struct RecoveryReport {
        /// The application.
        pub app: AppKind,
        /// One row per crash rate, in sweep order.
        pub rows: Vec<RecoveryRow>,
    }
}

impl RecoveryReport {
    /// The row for a given crash rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` was not swept.
    pub fn at(&self, rate: f64) -> &RecoveryRow {
        self.rows
            .iter()
            .find(|r| (r.crash_rate - rate).abs() < 1e-9)
            .expect("swept rate")
    }
}

fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1_000_000.0
}

/// Plan the recovery sweep for `kind`. `chaos_seed` keys every scenario's
/// fault plan (`--chaos-seed`); the workload seed comes from `profile`.
pub fn recovery(kind: AppKind, profile: Profile, chaos_seed: u64) -> Plan<RecoveryReport> {
    let rates: Vec<f64> = if profile.quick {
        vec![0.0, 0.5, 2.0]
    } else {
        vec![0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
    };
    let (horizon, record_from) = if profile.quick {
        (24u64, 8u64)
    } else {
        (60, 20)
    };

    let app = super::app(kind, Fidelity::fast());
    let rate = base_rate(&app);
    let scenarios: Vec<Scenario> = rates
        .iter()
        .map(|&crash_rate| {
            let label = format!("{} crash_rate={crash_rate}", kind.name());
            let mut cfg = SimConfig::new(app.clone(), Strategy::BeeHiveOpenWhisk);
            cfg.arrivals = ArrivalPattern::constant(rate);
            cfg.horizon = Duration::from_secs(horizon);
            cfg.record_from = Duration::from_secs(record_from);
            cfg.seed = profile.seed;
            cfg.offload_ratio = 1.0;
            cfg.engage_at = Duration::ZERO;
            cfg.prewarm_ready = ((rate * 0.25).ceil() as usize).clamp(1, 64);
            // Recovery needs durable snapshots to restore from (§4.5).
            cfg.beehive = cfg.beehive.with_recovery();
            let mut plan = FaultPlan::new(keyed(chaos_seed, &label));
            if crash_rate > 0.0 {
                let window = Duration::from_secs(horizon);
                plan.push(Injector::Rate {
                    fault: Fault::InstanceCrash { selector: 0 },
                    per_sec: crash_rate,
                    start: Duration::ZERO,
                    end: window,
                });
                plan.push(Injector::Rate {
                    fault: Fault::BootFailure,
                    per_sec: crash_rate / 4.0,
                    start: Duration::ZERO,
                    end: window,
                });
                plan.push(Injector::Rate {
                    fault: Fault::RpcDrop {
                        timeout: Duration::from_millis(5),
                    },
                    per_sec: crash_rate,
                    start: Duration::ZERO,
                    end: window,
                });
                plan.push(Injector::Rate {
                    fault: Fault::DbConnDrop {
                        reconnect: Duration::from_millis(2),
                    },
                    per_sec: crash_rate / 2.0,
                    start: Duration::ZERO,
                    end: window,
                });
            }
            cfg.faults = plan;
            Scenario::new(label, cfg)
        })
        .collect();

    Plan::new(scenarios, move |outcomes| {
        let rows = outcomes
            .into_iter()
            .zip(rates)
            .map(|(o, crash_rate)| {
                let mut r = o.result;
                let mttr_ms = if r.chaos.recovery.is_empty() {
                    0.0
                } else {
                    ms(r.chaos.recovery.mean())
                };
                RecoveryRow {
                    label: o.label,
                    crash_rate,
                    completed: r.completed,
                    crashes: r.chaos.crashes,
                    boot_failures: r.chaos.boot_failures,
                    retries: r.chaos.retries,
                    recoveries: r.chaos.recoveries(),
                    degraded: r.chaos.degraded_to_server,
                    re_executed_ms: r.chaos.re_executed_ns as f64 / 1_000_000.0,
                    mttr_ms,
                    p50_ms: ms(r.steady.percentile(0.50)),
                    p99_ms: ms(r.steady.percentile(0.99)),
                }
            })
            .collect();
        RecoveryReport { app: kind, rows }
    })
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§4.5 recovery — {} MTTR and latency vs crash rate",
            self.app.name()
        )?;
        writeln!(
            f,
            "{:<12}{:>10}{:>8}{:>8}{:>8}{:>8}{:>8}{:>14}{:>10}{:>10}{:>10}",
            "crash_rate",
            "completed",
            "crashes",
            "bootfail",
            "retries",
            "recov",
            "degr",
            "re_exec_ms",
            "mttr_ms",
            "p50_ms",
            "p99_ms"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12.2}{:>10}{:>8}{:>8}{:>8}{:>8}{:>8}{:>14.3}{:>10.3}{:>10.3}{:>10.3}",
                r.crash_rate,
                r.completed,
                r.crashes,
                r.boot_failures,
                r.retries,
                r.recoveries,
                r.degraded,
                r.re_executed_ms,
                r.mttr_ms,
                r.p50_ms,
                r.p99_ms
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_is_inert_and_crashes_recover() {
        let r = recovery(AppKind::Pybbs, Profile::quick(), 42).run();
        let clean = r.at(0.0);
        assert_eq!(
            (
                clean.crashes,
                clean.retries,
                clean.recoveries,
                clean.degraded
            ),
            (0, 0, 0, 0),
            "an empty plan must inject nothing: {clean:?}"
        );
        assert!(clean.completed > 0);
        let stormy = r.at(2.0);
        assert!(stormy.crashes > 0, "{stormy:?}");
        assert!(stormy.recoveries > 0, "{stormy:?}");
        assert!(stormy.mttr_ms > 0.0, "{stormy:?}");
        assert!(stormy.completed > 0, "{stormy:?}");
    }
}
