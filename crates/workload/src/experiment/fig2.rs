//! Figure 2: "The latency of web service (pybbs) rapidly increases with the
//! number of concurrent clients."

use std::fmt;

use beehive_apps::{AppKind, Fidelity};
use beehive_sim::{json_record, Duration};

use crate::driver::{ArrivalPattern, SimConfig};
use crate::engine::{Plan, Scenario};
use crate::strategy::Strategy;

use super::Profile;

json_record! {
    /// One point of Figure 2.
    #[derive(Clone, Copy, Debug)]
    pub struct Fig2Point {
        /// Concurrent closed-loop clients.
        pub clients: usize,
        /// Average request latency (ms).
        pub mean_ms: f64,
        /// p99 request latency (ms).
        pub p99_ms: f64,
        /// Achieved throughput (requests/s).
        pub throughput: f64,
    }
}

json_record! {
    /// The Figure 2 series.
    #[derive(Clone, Debug)]
    pub struct Fig2Report {
        /// Latency points by client count.
        pub points: Vec<Fig2Point>,
    }
}

/// Plan Figure 2: vanilla pybbs under increasing closed-loop client counts.
pub fn fig2(profile: Profile) -> Plan<Fig2Report> {
    let app = super::app(AppKind::Pybbs, Fidelity::fast());
    let counts: &[usize] = if profile.quick {
        &[1, 8, 32]
    } else {
        &[1, 2, 4, 8, 16, 24, 32, 48, 64, 96]
    };
    let horizon = if profile.quick {
        Duration::from_secs(10)
    } else {
        Duration::from_secs(25)
    };
    let record_from = horizon / 3;

    let scenarios = counts
        .iter()
        .map(|&clients| {
            let mut cfg = SimConfig::new(app.clone(), Strategy::Vanilla);
            cfg.arrivals = ArrivalPattern::Closed { clients };
            cfg.horizon = horizon;
            cfg.record_from = record_from;
            cfg.seed = profile.seed;
            Scenario::new(format!("clients={clients}"), cfg)
        })
        .collect();
    let window = (horizon - record_from).as_secs_f64();
    Plan::new(scenarios, move |outcomes| {
        let points = counts
            .iter()
            .zip(outcomes)
            .map(|(&clients, mut o)| Fig2Point {
                clients,
                mean_ms: o.result.steady.mean().as_millis_f64(),
                p99_ms: o.result.steady.percentile(0.99).as_millis_f64(),
                throughput: o.result.steady.len() as f64 / window,
            })
            .collect();
        Fig2Report { points }
    })
}

impl fmt::Display for Fig2Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 2 — pybbs latency vs concurrent clients (vanilla)"
        )?;
        writeln!(
            f,
            "{:>8} {:>12} {:>12} {:>12}",
            "clients", "mean (ms)", "p99 (ms)", "rps"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>8} {:>12.2} {:>12.2} {:>12.1}",
                p.clients, p.mean_ms, p.p99_ms, p.throughput
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_rises_with_clients() {
        let r = fig2(Profile::quick()).run();
        assert_eq!(r.points.len(), 3);
        let first = &r.points[0];
        let last = &r.points[r.points.len() - 1];
        assert!(
            last.mean_ms > first.mean_ms * 1.5,
            "mean should rise: {:.1} -> {:.1}",
            first.mean_ms,
            last.mean_ms
        );
        assert!(last.p99_ms >= last.mean_ms);
        assert!(!format!("{r}").is_empty());
    }
}
