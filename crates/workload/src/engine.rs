//! Unified parallel scenario engine.
//!
//! Every experiment in the reproduction reduces to the same shape: build a
//! grid of [`SimConfig`]s, run each one through [`Sim`], and aggregate the
//! [`SimResult`]s into a report. Each run is an independent deterministic
//! simulation on its own virtual clock, so the grid is embarrassingly
//! parallel. This module is the single fan-out point:
//!
//! * [`Scenario`] — a labelled `SimConfig`,
//! * [`Plan`] — what an experiment driver returns: the scenarios it runs
//!   and the continuation that turns their outcomes into its report, so
//!   that several experiments join into one batch ([`Plan::join`]),
//! * [`run_all`] — executes every scenario across a `std::thread::scope`
//!   worker pool (capped at available parallelism) and returns
//!   [`RunOutcome`]s **in input order**, so aggregation code is oblivious
//!   to scheduling and every report stays bit-identical to a serial run.
//!   Each outcome carries its run's whole [`SimResult`], the substrates'
//!   outputs labelled with the scenario's label,
//! * [`Collector`] — the one observability hook: an embedder hands one to
//!   [`run_collected`] to switch substrates on in every scenario, attach a
//!   [`Consumer`] to its telemetry, and take what it produced.
//!
//! Worker count can be pinned with the `BEEHIVE_WORKERS` environment
//! variable (useful for the determinism regression test, which compares
//! rendered reports at 1, 2, and 8 workers).
//!
//! # Example
//!
//! ```
//! use beehive_apps::{App, AppKind, Fidelity};
//! use beehive_sim::Duration;
//! use beehive_workload::driver::{ArrivalPattern, SimConfig};
//! use beehive_workload::engine::{run_all, Scenario};
//! use beehive_workload::Strategy;
//!
//! let app = App::build(AppKind::Thumbnail, Fidelity::Scaled(4096));
//! let scenarios: Vec<Scenario> = [4.0, 8.0]
//!     .iter()
//!     .map(|&rps| {
//!         let mut cfg = SimConfig::new(app.clone(), Strategy::Vanilla);
//!         cfg.arrivals = ArrivalPattern::constant(rps);
//!         cfg.horizon = Duration::from_secs(4);
//!         Scenario::new(format!("rps={rps}"), cfg)
//!     })
//!     .collect();
//! let outcomes = run_all(scenarios);
//! assert_eq!(outcomes.len(), 2);
//! assert_eq!(outcomes[0].label, "rps=4");
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use beehive_telemetry::summary::Consumer;

use crate::config::{SimConfig, SimResult};
use crate::driver::Sim;

/// What an embedder hands [`run_collected`] to observe every scenario of a
/// batch. Scenarios are numbered from 0 in input order — whichever worker
/// runs them, and in whatever order they finish — and both methods are
/// called on the thread that runs the scenario.
pub trait Collector: Sync {
    /// Scenario `seq`, labelled `label`, is about to run: switch on the
    /// substrates it should carry (keeping any it switched on itself), and
    /// return the consumer its telemetry should stream into, if any. A run
    /// with no consumer and no substrate keeps its recorder disarmed.
    fn open(&self, seq: usize, label: &str, cfg: &mut SimConfig) -> Option<Box<dyn Consumer>>;
    /// Scenario `seq` finished: take what it produced from `result`, whose
    /// check and timeline already carry `label`.
    fn close(&self, seq: usize, label: &str, result: &mut SimResult);
}

/// One labelled simulation to run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable label carried through to the [`RunOutcome`] (e.g.
    /// `"BeeHive/OW rps=120"`). Labels are for report bookkeeping; they do
    /// not affect the simulation.
    pub label: String,
    /// The full simulation configuration.
    pub cfg: SimConfig,
}

impl Scenario {
    /// A scenario with `label` running `cfg`.
    pub fn new(label: impl Into<String>, cfg: SimConfig) -> Self {
        Scenario {
            label: label.into(),
            cfg,
        }
    }
}

/// The result of one scenario, in the input order of [`run_all`].
#[derive(Debug)]
pub struct RunOutcome {
    /// The scenario's label.
    pub label: String,
    /// The simulation result, whatever a [`Collector`] left of it.
    pub result: SimResult,
}

/// An experiment as data: the scenarios it runs and the continuation that
/// turns their outcomes into its report. Building a plan runs nothing, so
/// the plans of several experiments [`join`](Plan::join) into one batch for
/// one engine call.
pub struct Plan<R> {
    /// The scenarios to run, in the order the report reads their outcomes.
    pub scenarios: Vec<Scenario>,
    /// Turns the outcomes, one per scenario in order, into the report.
    pub report: Box<dyn FnOnce(Vec<RunOutcome>) -> R>,
}

impl<R: 'static> Plan<R> {
    /// A plan running `scenarios`, reported by `report`.
    pub fn new(
        scenarios: Vec<Scenario>,
        report: impl FnOnce(Vec<RunOutcome>) -> R + 'static,
    ) -> Self {
        Plan {
            scenarios,
            report: Box::new(report),
        }
    }

    /// Run the scenarios ([`run_all`]) and report them.
    pub fn run(self) -> R {
        (self.report)(run_all(self.scenarios))
    }

    /// The same scenarios, their report passed through `f`.
    pub fn map<S: 'static>(self, f: impl FnOnce(R) -> S + 'static) -> Plan<S> {
        let report = self.report;
        Plan::new(self.scenarios, move |outcomes| f(report(outcomes)))
    }

    /// Every plan's scenarios, concatenated in order, reported as every
    /// plan's report in order, each handed exactly its own outcomes.
    pub fn join(plans: impl IntoIterator<Item = Plan<R>>) -> Plan<Vec<R>> {
        let mut scenarios = Vec::new();
        let mut reports = Vec::new();
        for plan in plans {
            reports.push((plan.scenarios.len(), plan.report));
            scenarios.extend(plan.scenarios);
        }
        Plan::new(scenarios, move |outcomes| {
            let mut outcomes = outcomes.into_iter();
            let mut take = |n| outcomes.by_ref().take(n).collect();
            reports
                .into_iter()
                .map(|(n, report)| report(take(n)))
                .collect()
        })
    }
}

/// Number of workers [`run_all`] uses: `BEEHIVE_WORKERS` when set, else the
/// machine's available parallelism.
///
/// An unparsable or zero `BEEHIVE_WORKERS` terminates the process with a
/// clear error: a typo'd worker count silently falling back to "all cores"
/// would invalidate the determinism experiments that pin it.
pub fn default_workers() -> usize {
    let bad = |must: &str, got: String| -> ! {
        eprintln!("error: BEEHIVE_WORKERS must be {must} (got {got})");
        std::process::exit(2)
    };
    match std::env::var("BEEHIVE_WORKERS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            Ok(_) => bad(">= 1", format!("\"{v}\"")),
            Err(_) => bad("a positive integer", format!("\"{v}\"")),
        },
        Err(std::env::VarError::NotUnicode(_)) => {
            bad("a positive integer", "non-unicode value".into())
        }
        Err(std::env::VarError::NotPresent) => {
            thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Run every scenario, fanning out over [`default_workers`] threads, and
/// return outcomes **in input order**.
///
/// Each simulation is seeded from its own `SimConfig` and runs on its own
/// virtual clock, so results are identical whatever the worker count or
/// scheduling interleaving — parallelism changes wall-clock time only.
pub fn run_all(scenarios: Vec<Scenario>) -> Vec<RunOutcome> {
    run_all_with_workers(scenarios, default_workers())
}

/// [`run_all`] with an explicit worker count, the calling thread included.
pub fn run_all_with_workers(scenarios: Vec<Scenario>, workers: usize) -> Vec<RunOutcome> {
    run_collected(scenarios, workers, None)
}

/// [`run_all_with_workers`], with every scenario handed to `collector`
/// (numbered from 0 in input order) before and after it runs.
pub fn run_collected(
    scenarios: Vec<Scenario>,
    workers: usize,
    collector: Option<&dyn Collector>,
) -> Vec<RunOutcome> {
    let workers = workers.min(scenarios.len()).max(1);
    // One cell per scenario, in input order: its config until a worker
    // claims it, its result once that worker is done.
    let (labels, cells): (Vec<_>, Vec<_>) = scenarios
        .into_iter()
        .map(|s| (s.label, Mutex::new((Some(s.cfg), None::<SimResult>))))
        .unzip();
    let next = AtomicUsize::new(0);

    // Work-stealing by atomic index: each worker claims the next unstarted
    // scenario and repeats; the claim order is irrelevant to the output.
    let claim = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(cell) = cells.get(i) else {
            break;
        };
        let lock = || cell.lock().expect("a cell is never locked across a run");
        let mut cfg = lock().0.take().expect("scenario claimed twice");
        let label = &labels[i];
        let sink = collector.and_then(|c| c.open(i, label, &mut cfg));
        let mut sim = Sim::new(cfg);
        if let Some(sink) = sink {
            sim.attach(sink);
        }
        let mut result = sim.run();
        if let Some(check) = &mut result.sentinel {
            check.label.clone_from(label);
        }
        if let Some(series) = &mut result.observatory {
            series.label.clone_from(label);
        }
        if let Some(c) = collector {
            c.close(i, label, &mut result);
        }
        lock().1 = Some(result);
    };
    // The calling thread is one of the workers, so `workers ≤ 1` spawns
    // nothing and runs the same loop inline.
    thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(claim);
        }
        claim();
    });

    labels
        .into_iter()
        .zip(cells)
        .map(|(label, cell)| RunOutcome {
            label,
            result: cell
                .into_inner()
                .expect("a cell is never locked across a run")
                .1
                .expect("worker pool exited with an unfilled slot"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ArrivalPattern;
    use crate::Strategy;
    use beehive_apps::{App, AppKind, Fidelity};
    use beehive_chaos::{Fault, FaultPlan, Injector};
    use beehive_sim::Duration;

    fn tiny_scenarios(n: usize) -> Vec<Scenario> {
        let app = App::build(AppKind::Thumbnail, Fidelity::Scaled(4096));
        (0..n)
            .map(|i| {
                let mut cfg = SimConfig::new(app.clone(), Strategy::Vanilla);
                cfg.arrivals = ArrivalPattern::constant(4.0 + i as f64);
                cfg.horizon = Duration::from_secs(3);
                cfg.seed = 7 + i as u64;
                Scenario::new(format!("s{i}"), cfg)
            })
            .collect()
    }

    #[test]
    fn outcomes_keep_input_order() {
        let outcomes = run_all_with_workers(tiny_scenarios(5), 4);
        let labels: Vec<&str> = outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["s0", "s1", "s2", "s3", "s4"]);
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = run_all_with_workers(tiny_scenarios(4), 1);
        let parallel = run_all_with_workers(tiny_scenarios(4), 3);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.result.completed, b.result.completed);
            assert_eq!(a.result.rejected, b.result.rejected);
            assert_eq!(a.result.end, b.result.end);
        }
    }

    fn chaos_scenarios(n: usize) -> Vec<Scenario> {
        let app = App::build(AppKind::Thumbnail, Fidelity::Scaled(4096));
        (0..n)
            .map(|i| {
                let mut cfg = SimConfig::new(app.clone(), Strategy::BeeHiveOpenWhisk);
                cfg.arrivals = ArrivalPattern::constant(6.0);
                cfg.horizon = Duration::from_secs(4);
                cfg.seed = 11 + i as u64;
                let mut plan = FaultPlan::new(0xC0FFEE + i as u64);
                plan.push(Injector::Rate {
                    fault: Fault::InstanceCrash { selector: 0 },
                    per_sec: 1.0,
                    start: Duration::ZERO,
                    end: Duration::from_secs(4),
                });
                cfg.faults = plan;
                Scenario::new(format!("c{i}"), cfg)
            })
            .collect()
    }

    #[test]
    fn chaos_parallel_matches_serial() {
        let serial = run_all_with_workers(chaos_scenarios(3), 1);
        let parallel = run_all_with_workers(chaos_scenarios(3), 3);
        let mut crashes = 0;
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.result.completed, b.result.completed);
            assert_eq!(a.result.end, b.result.end);
            assert_eq!(a.result.chaos.crashes, b.result.chaos.crashes);
            assert_eq!(a.result.chaos.retries, b.result.chaos.retries);
            assert_eq!(a.result.chaos.re_executed_ns, b.result.chaos.re_executed_ns);
            crashes += a.result.chaos.crashes;
        }
        assert!(crashes > 0, "the plan injected no crashes");
    }

    #[test]
    fn join_hands_each_report_exactly_its_own_outcomes() {
        let mut scenarios = tiny_scenarios(4).into_iter();
        let labels = |o: Vec<RunOutcome>| o.into_iter().map(|o| o.label).collect::<Vec<_>>();
        let plans =
            [0, 1, 0, 3, 0].map(|n| Plan::new(scenarios.by_ref().take(n).collect(), labels));
        let joined = Plan::join(plans);
        assert_eq!(joined.scenarios.len(), 4);
        let reports = (joined.report)(run_all_with_workers(joined.scenarios, 2));
        let want: [&[&str]; 5] = [&[], &["s0"], &[], &["s1", "s2", "s3"], &[]];
        assert_eq!(reports, want);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(run_all_with_workers(Vec::new(), 8).is_empty());
    }

    #[test]
    fn more_workers_than_scenarios() {
        let outcomes = run_all_with_workers(tiny_scenarios(2), 64);
        assert_eq!(outcomes.len(), 2);
    }
}
