//! Unified parallel scenario engine.
//!
//! Every experiment in the reproduction reduces to the same shape: build a
//! grid of [`SimConfig`]s, run each one through [`Sim`], and aggregate the
//! [`SimResult`]s into a report. Each run is an independent deterministic
//! simulation on its own virtual clock, so the grid is embarrassingly
//! parallel. This module is the single fan-out point:
//!
//! * [`Scenario`] — a labelled `SimConfig`,
//! * [`run_all`] — executes every scenario across a `std::thread::scope`
//!   worker pool (capped at available parallelism) and returns
//!   [`RunOutcome`]s **in input order**, so aggregation code is oblivious
//!   to scheduling and every report stays bit-identical to a serial run,
//! * [`ObsPlan`] / [`Harvest`] — the one observability path: the plan
//!   ([`set_plan`]) says which substrates every scenario carries, and
//!   [`run_all`] moves what they produced into the harvest ([`drain`]);
//!   [`set_sinks`] additionally streams every scenario's telemetry into an
//!   embedder's [`EventSink`] while it runs,
//! * [`RunReport`] — a structured title + JSON body, the machine-readable
//!   form of a report surfaced by `repro --json`.
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
use std::sync::{Arc, Mutex};
use std::thread;

use beehive_sim::json::{Json, ToJson};

pub use crate::config::ObsPlan;
use crate::config::{SimConfig, SimResult};
pub use crate::driver::EventSink;
use crate::driver::Sim;

/// Until [`set_plan`]: nothing on, a plain run.
static PLAN: Mutex<ObsPlan> = Mutex::new(ObsPlan {
    metrics: false,
    profile: false,
    sentinel: false,
    observe: false,
    observe_window: beehive_observatory::DEFAULT_WINDOW,
});

/// Set the engine-wide plan. Scenarios built *after* this call carry it, and
/// [`run_all`] harvests what their substrates produce for [`drain`].
pub fn set_plan(plan: ObsPlan) {
    *PLAN.lock().expect("no plan-lock holder panics") = plan;
}

/// The engine-wide plan (every substrate off until [`set_plan`]).
pub fn plan() -> ObsPlan {
    *PLAN.lock().expect("no plan-lock holder panics")
}

/// Opens the [`EventSink`] of one scenario, given its number and label.
pub type SinkFactory = dyn Fn(usize, &str) -> Box<dyn EventSink> + Send + Sync;

/// The factory [`set_sinks`] installed and the next scenario's number.
static SINKS: Mutex<Option<(Arc<SinkFactory>, usize)>> = Mutex::new(None);

/// Attach a sink from `open` to every scenario [`run_all`] runs from now on
/// (`None`: stop). Scenarios are numbered from 0 in submission order across
/// `run_all` calls — whichever worker runs them, and in whatever order they
/// finish — and each sink is opened, fed and finished on the thread that
/// runs its scenario.
pub fn set_sinks(open: Option<Arc<SinkFactory>>) {
    *SINKS.lock().expect("no sinks-lock holder panics") = open.map(|open| (open, 0));
}

/// What the substrates of completed runs produced, one entry per scenario
/// that carried the substrate, each labelled with its scenario label and in
/// [`run_all`] input order — independent of the worker count, so every
/// artifact rendered from a harvest is byte-identical under any
/// `BEEHIVE_WORKERS`.
#[derive(Debug, Default)]
pub struct Harvest {
    /// Metrics snapshots.
    pub metrics: Vec<beehive_metrics::ScenarioMetrics>,
    /// Call-tree profiles.
    pub profiles: Vec<(String, beehive_profiler::Profile)>,
    /// Online conformance checks.
    pub sentinel: Vec<beehive_sentinel::ScenarioCheck>,
    /// Elasticity timelines.
    pub timelines: Vec<beehive_observatory::ScenarioSeries>,
}

static HARVEST: Mutex<Option<Harvest>> = Mutex::new(None);

/// Take everything harvested since the last drain.
pub fn drain() -> Harvest {
    let mut h = HARVEST.lock().expect("no harvest-lock holder panics");
    h.take().unwrap_or_default()
}

/// Move every substrate output out of `outcomes` into the harvest.
fn harvest(outcomes: &mut [RunOutcome]) {
    let mut h = HARVEST.lock().expect("no harvest-lock holder panics");
    let h = h.get_or_insert_with(Harvest::default);
    for o in outcomes {
        let r = &mut o.result;
        if let Some(reg) = r.metrics.take() {
            h.metrics.push(reg.snapshot(&o.label));
        }
        if let Some(profile) = r.profile.take() {
            h.profiles.push((o.label.clone(), profile));
        }
        if let Some(mut check) = r.sentinel.take() {
            check.label = o.label.clone();
            h.sentinel.push(check);
        }
        if let Some(mut series) = r.observatory.take() {
            series.label = o.label.clone();
            h.timelines.push(series);
        }
    }
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
    /// The simulation result.
    pub result: SimResult,
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
    let workers = workers.min(scenarios.len()).max(1);
    // One cell per scenario, in input order: its config until a worker
    // claims it, its result once that worker is done.
    let (labels, cells): (Vec<_>, Vec<_>) = scenarios
        .into_iter()
        .map(|s| (s.label, Mutex::new((Some(s.cfg), None::<SimResult>))))
        .unzip();
    let next = AtomicUsize::new(0);
    // This batch's share of the sink numbering, taken in one step so that
    // concurrent callers cannot interleave theirs.
    let sinks = {
        let mut sinks = SINKS.lock().expect("no sinks-lock holder panics");
        sinks.as_mut().map(|(open, seq)| {
            let first = *seq;
            *seq += cells.len();
            (Arc::clone(open), first)
        })
    };

    // Work-stealing by atomic index: each worker claims the next unstarted
    // scenario and repeats; the claim order is irrelevant to the output.
    let claim = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(cell) = cells.get(i) else {
            break;
        };
        let lock = || cell.lock().expect("a cell is never locked across a run");
        let cfg = lock().0.take().expect("scenario claimed twice");
        let mut sim = Sim::new(cfg);
        if let Some((open, first)) = &sinks {
            sim.attach(open(first + i, &labels[i]));
        }
        let result = sim.run();
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

    let mut outcomes: Vec<RunOutcome> = labels
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
        .collect();
    harvest(&mut outcomes);
    outcomes
}

/// A structured experiment report: a title plus a JSON body.
///
/// Every experiment module produces one `RunReport` alongside its typed
/// report struct; `repro --json` renders these instead of the Display
/// tables. Bodies contain only simulation-derived data (never wall-clock
/// readings), so rendered reports are byte-stable across machines and
/// worker counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Report title (e.g. `"fig8"`).
    pub title: String,
    /// The report data.
    pub body: Json,
}

impl RunReport {
    /// A report titled `title` with `body`.
    pub fn new(title: impl Into<String>, body: Json) -> Self {
        RunReport {
            title: title.into(),
            body,
        }
    }

    /// Render as a single JSON object `{"title": ..., "body": ...}`.
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

impl ToJson for RunReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("title".into(), Json::from(self.title.clone())),
            ("body".into(), self.body.clone()),
        ])
    }
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
    fn empty_input_is_fine() {
        assert!(run_all_with_workers(Vec::new(), 8).is_empty());
    }

    #[test]
    fn more_workers_than_scenarios() {
        let outcomes = run_all_with_workers(tiny_scenarios(2), 64);
        assert_eq!(outcomes.len(), 2);
    }

    #[test]
    fn run_report_renders_title_and_body() {
        let r = RunReport::new("t", Json::obj([("x".into(), Json::Int(1))]));
        assert_eq!(r.render(), r#"{"title":"t","body":{"x":1}}"#);
    }
}
