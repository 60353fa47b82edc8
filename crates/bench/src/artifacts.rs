//! The one run-and-collect path behind every `repro` form that simulates.
//!
//! [`collect`] joins the plans of the selected items into one batch, runs it
//! in one engine call under one [`Collector`] and returns what each item's
//! scenarios produced, item by item and in submission order within each: what
//! their substrates left in their `SimResult`s — the conformance check, the
//! metrics snapshot, the profile and the elasticity series — next to what
//! their [`Consumer`]s folded from the telemetry as it was recorded — each
//! scenario's share of its item's Chrome document, rendered straight into
//! `DIR/<item>.trace.json`, and the request timelines, built once from the
//! driver's arrival readings, behind the critical-path summary, the latency
//! attribution and the SLO report. No trace is retained. The artifact flags
//! write what comes back (`flush` in `main.rs`); `top`, `explain`, `check`
//! and `timeline` print it.

use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use beehive_insight::{AttributionFold, AttributionReport, InsightDoc, SloFold, SloReport};
use beehive_metrics::ScenarioMetrics;
use beehive_observatory::ScenarioSeries;
use beehive_profiler::Profile;
use beehive_sentinel::ScenarioCheck;
use beehive_sim::json::Json;
use beehive_sim::Duration;
use beehive_telemetry::chrome::{ScenarioTrace, TraceFile};
use beehive_telemetry::summary::{
    Arrival, Consumer, RequestTimeline, SummaryFold, TimelineBuilder,
};
use beehive_telemetry::TraceEvent;
use beehive_workload::engine::{self, Collector, Plan};
use beehive_workload::{SimConfig, SimResult};

use crate::Output;

/// What [`collect`] is asked for: the substrates every scenario carries and
/// the families its sink folds.
#[derive(Clone, Default)]
pub struct Want {
    /// Fold every scenario's telemetry into a metrics registry.
    pub metrics: bool,
    /// Record every scenario's call-tree profile.
    pub profile: bool,
    /// Run the online conformance checker in every scenario.
    pub sentinel: bool,
    /// Reduce every scenario into an elasticity timeline of this bin width.
    pub observe: Option<Duration>,
    /// Stream the Chrome document into this directory; fold the summaries.
    pub trace: Option<PathBuf>,
    /// Fold the attribution + SLO document at this many slowest requests.
    pub insight: Option<usize>,
}

/// What an item's simulations produced.
pub struct Collected {
    /// The item's own report.
    pub out: Output,
    /// Where the Chrome document was written, when it was wanted and some
    /// scenario ran.
    pub trace: Option<PathBuf>,
    /// What each scenario left, in submission order.
    pub scenarios: Vec<Finished>,
}

impl Collected {
    /// One family of what the scenarios left, taken out of every scenario
    /// that has it, in submission order.
    pub fn take<T>(&mut self, family: impl FnMut(&mut Finished) -> Option<T>) -> Vec<T> {
        self.scenarios.iter_mut().filter_map(family).collect()
    }

    /// The attribution + SLO document.
    pub fn insight(&mut self) -> InsightDoc {
        let (attributions, slo) = self.take(|s| s.insight.take()).into_iter().unzip();
        InsightDoc { attributions, slo }
    }
}

/// What one scenario left; of each family, nothing unless it was wanted.
#[derive(Default)]
pub struct Finished {
    /// The scenario's label.
    pub label: String,
    /// Its critical-path summary ([`SummaryFold::finish`]).
    pub summary: Option<Json>,
    /// Its latency attribution and SLO evaluation.
    pub insight: Option<(AttributionReport, SloReport)>,
    /// Its conformance check.
    pub check: Option<ScenarioCheck>,
    /// Its metrics snapshot.
    pub metrics: Option<ScenarioMetrics>,
    /// Its call-tree profile.
    pub profile: Option<Profile>,
    /// Its elasticity timeline.
    pub series: Option<ScenarioSeries>,
    /// Why its share of the Chrome document was not written, if it was not.
    trace_error: Option<io::Error>,
}

impl Finished {
    /// The scenario's label and profile, when it was profiled.
    pub fn profiled(&self) -> Option<(&str, &Profile)> {
        Some((&self.label, self.profile.as_ref()?))
    }
}

/// Run the simulations of every `(name, plan)` item in one batch as `want`
/// says, and return what each item produced, in item order. A batch with no
/// scenario reaches no engine.
pub fn collect(want: Want, items: Vec<(&str, Plan<Output>)>) -> Vec<Collected> {
    let mut start = 0;
    let mut ranges = Vec::new();
    for (name, plan) in &items {
        let doc = (want.trace.as_deref())
            .map(|dir: &Path| TraceFile::new(dir.join(format!("{name}.trace.json"))));
        ranges.push((start..start + plan.scenarios.len(), doc));
        start += plan.scenarios.len();
    }
    let batch = Plan::join(items.into_iter().map(|(_, plan)| plan));
    let done = (batch.scenarios.iter())
        .map(|s| Finished {
            label: s.label.clone(),
            ..Finished::default()
        })
        .collect();
    let sinks = Sinks {
        want,
        items: ranges,
        done: Arc::new(Mutex::new(done)),
    };
    let outcomes = match batch.scenarios.len() {
        0 => Vec::new(),
        _ => engine::run_collected(batch.scenarios, engine::default_workers(), Some(&sinks)),
    };
    let outs = (batch.report)(outcomes);
    // Complete each item's Chrome document and put what its scenarios left,
    // in submission order, beside its report.
    let mut done = std::mem::take(&mut *sinks.done.lock().expect("no holder panics")).into_iter();
    let items = sinks.items.into_iter().zip(outs);
    items
        .map(|((range, trace), out)| {
            let mut scenarios: Vec<Finished> = done.by_ref().take(range.len()).collect();
            let unwritten = scenarios.iter_mut().find_map(|s| s.trace_error.take());
            let trace = trace.filter(|_| !range.is_empty()).map(|trace| {
                let written = unwritten.map_or(Ok(()), Err);
                if let Err(e) = written.and_then(|()| trace.finish(range.len())) {
                    crate::die(&format!("writing {}: {e}", trace.path().display()));
                }
                trace.path().to_path_buf()
            });
            Collected {
                out,
                trace,
                scenarios,
            }
        })
        .collect()
}

/// The collector of one batch. Each item numbers its own scenarios from 0
/// and streams them into its own Chrome document.
struct Sinks {
    want: Want,
    /// Each item's scenarios, as numbers in the batch, and its document.
    items: Vec<(Range<usize>, Option<Arc<TraceFile>>)>,
    /// What each scenario of the batch left, by its number in the batch.
    done: Arc<Mutex<Vec<Finished>>>,
}

impl Collector for Sinks {
    fn open(&self, seq: usize, label: &str, cfg: &mut SimConfig) -> Option<Box<dyn Consumer>> {
        let want = &self.want;
        cfg.metrics |= want.metrics;
        cfg.profile |= want.profile;
        cfg.sentinel |= want.sentinel;
        if let Some(window) = want.observe {
            cfg.observe = true;
            cfg.observe_window = window;
        }
        // A run that streams nothing keeps its recorder disarmed.
        if want.trace.is_none() && want.insight.is_none() {
            return None;
        }
        let (range, trace) = (self.items.iter())
            .find(|(range, _)| range.contains(&seq))
            .expect("every scenario belongs to an item");
        Some(Box::new(ScenarioSink {
            done: Arc::clone(&self.done),
            seq,
            label: label.to_string(),
            trace: trace
                .as_ref()
                .map(|doc| doc.scenario(seq - range.start, label)),
            summary: trace.as_ref().map(|_| SummaryFold::default()),
            insight: want.insight.map(|slowest| {
                let slo = SloFold::new(beehive_insight::SloPolicy::default());
                (AttributionFold::new(slowest), slo)
            }),
            timelines: TimelineBuilder::new(),
        }))
    }

    fn close(&self, seq: usize, label: &str, result: &mut SimResult) {
        let f = &mut self.done.lock().expect("no holder panics")[seq];
        f.check = result.sentinel.take();
        f.metrics = result.metrics.take().map(|reg| reg.snapshot(label));
        f.profile = result.profile.take();
        f.series = result.observatory.take();
    }
}

/// One scenario's sink: every consumer of its telemetry, fed in one pass.
struct ScenarioSink {
    done: Arc<Mutex<Vec<Finished>>>,
    seq: usize,
    label: String,
    trace: Option<io::Result<ScenarioTrace>>,
    summary: Option<SummaryFold>,
    insight: Option<(AttributionFold, SloFold)>,
    timelines: TimelineBuilder,
}

impl ScenarioSink {
    fn request(&mut self, t: &RequestTimeline) {
        if let Some(summary) = &mut self.summary {
            summary.request(t);
        }
        if let Some((attribution, slo)) = &mut self.insight {
            attribution.request(t);
            slo.request(t);
        }
    }
}

impl Consumer for ScenarioSink {
    fn event(&mut self, e: &TraceEvent, arrival: Option<Arrival>) {
        if let Some(Ok(trace)) = &mut self.trace {
            trace.event(e);
        }
        if let Some(summary) = &mut self.summary {
            summary.event(e);
        }
        if let Some((attribution, _)) = &mut self.insight {
            attribution.event(e);
        }
        if let Some(t) = self.timelines.feed(e, arrival) {
            self.request(&t);
        }
    }

    fn finish(mut self: Box<Self>) {
        for t in std::mem::take(&mut self.timelines).finish() {
            self.request(&t);
        }
        let label = &self.label;
        let written = self.trace.map(|t| t.and_then(ScenarioTrace::finish));
        let summary = self.summary.map(|s| s.finish(label));
        let insight = self
            .insight
            .map(|(a, s)| (a.finish(label), s.finish(label)));
        let f = &mut self.done.lock().expect("no holder panics")[self.seq];
        f.trace_error = written.and_then(Result::err);
        f.summary = summary;
        f.insight = insight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_apps::{App, AppKind, Fidelity};
    use beehive_chaos::{keyed, Fault, FaultPlan, Injector};
    use beehive_telemetry::chrome::chrome_trace_string;
    use beehive_telemetry::summary::{critical_path, document, replay};
    use beehive_telemetry::Trace;
    use beehive_workload::engine::{RunOutcome, Scenario};
    use beehive_workload::experiment::base_rate;
    use beehive_workload::{ArrivalPattern, Sim, Strategy};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A steady offload, a chaos run that strands requests, and a burst with
    /// shadow executions: the shapes of `table5`, `recovery` and `shadow`.
    fn shapes() -> Vec<(String, SimConfig)> {
        let app = App::build(AppKind::Pybbs, Fidelity::fast());
        let rate = base_rate(&app);
        let base = |horizon: u64| {
            let mut cfg = SimConfig::new(app.clone(), Strategy::BeeHiveOpenWhisk);
            cfg.arrivals = ArrivalPattern::constant(rate);
            cfg.horizon = Duration::from_secs(horizon);
            cfg.seed = 42;
            cfg
        };
        let steady = base(8);
        let mut chaos = base(12);
        chaos.offload_ratio = 1.0;
        chaos.prewarm_ready = 8;
        chaos.beehive = chaos.beehive.with_recovery();
        let mut plan = FaultPlan::new(keyed(42, "artifacts"));
        for (fault, per_sec) in [
            (Fault::InstanceCrash { selector: 0 }, 2.0),
            (Fault::BootFailure, 0.5),
        ] {
            plan.push(Injector::Rate {
                fault,
                per_sec,
                start: Duration::ZERO,
                end: chaos.horizon,
            });
        }
        chaos.faults = plan;
        let mut shadow = base(12);
        shadow.arrivals = ArrivalPattern::Open {
            base_rps: rate,
            burst_mult: 2.0,
            burst_at: Duration::from_secs(4),
            burst_end: shadow.horizon,
        };
        shadow.engage_at = Duration::from_secs(4);
        vec![
            ("steady".into(), steady),
            ("chaos crash_rate=2".into(), chaos),
            ("burst \"shadow\"".into(), shadow),
        ]
    }

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("beehive-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Run `shapes` as the one item `item` of a batch, as `--obs DIR` asks
    /// for its two streamed families, and report the traces they retained.
    fn collect_item(
        dir: &Path,
        shapes: Vec<(String, SimConfig)>,
    ) -> (Collected, Vec<(String, Trace)>) {
        let want = Want {
            insight: Some(beehive_metrics::EXEMPLAR_K),
            trace: Some(dir.to_path_buf()),
            ..Want::default()
        };
        let retained = Rc::new(RefCell::new(Vec::new()));
        let scenarios = shapes
            .into_iter()
            .map(|(label, cfg)| Scenario::new(label, cfg));
        let keep = Rc::clone(&retained);
        let plan = Plan::new(scenarios.collect(), move |outcomes| {
            let trace = |o: RunOutcome| Some((o.label, o.result.trace?));
            *keep.borrow_mut() = outcomes.into_iter().filter_map(trace).collect();
            no_report()
        });
        let c = collect(want, vec![("item", plan)]).remove(0);
        (c, retained.take())
    }

    fn no_report() -> Output {
        Output {
            text: String::new(),
            bodies: Vec::new(),
        }
    }

    #[test]
    fn streamed_files_equal_the_whole_trace_renderings() {
        let dir = scratch("streamed");
        // Retain as well: one run yields the stream and its reference.
        let mut shapes = shapes();
        shapes.iter_mut().for_each(|(_, cfg)| cfg.trace = true);
        let (mut c, traces) = collect_item(&dir, shapes);
        let insight = c.insight();
        let summaries = c.take(|s| Some((s.label.clone(), s.summary.take()?)));
        let path = c.trace.unwrap();

        // The shapes are what they claim to be.
        let open = |t: &Trace| {
            let mut builder = TimelineBuilder::new();
            replay(&t.events, &mut |e: &TraceEvent, arrival| {
                builder.feed(e, arrival);
            });
            builder.finish().len()
        };
        assert!(open(&traces[1].1) >= 100, "the chaos run strands requests");
        let has = |t: &Trace, name| t.events.iter().any(|e| e.name == name);
        assert!(has(&traces[0].1, "req:offload") && has(&traces[2].1, "req:shadow"));

        assert!(std::fs::read_to_string(path).unwrap() == chrome_trace_string(&traces));
        let labels = summaries.iter().map(|(label, _)| label);
        assert!(labels.eq(traces.iter().map(|(label, _)| label)));
        let summary = document(summaries.into_iter().map(|(_, s)| (s, None)));
        assert_eq!(summary, critical_path(&traces));
        let policy = beehive_insight::SloPolicy::default();
        let whole = InsightDoc::from_traces(&traces, &policy, beehive_metrics::EXEMPLAR_K);
        assert_eq!(insight, whole);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "no part file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_attached_sink_holds_one_step_of_events_not_the_run() {
        let dir = scratch("bounded");
        let (label, mut cfg) = shapes().swap_remove(0);
        cfg.trace = true;
        let retained = Sim::new(cfg.clone()).run().trace.expect("retained");

        // A batch of one scenario runs on this thread, whose recorder peak
        // is read.
        cfg.trace = false;
        let (_, traces) = collect_item(&dir, vec![(label.clone(), cfg)]);
        assert!(traces.is_empty(), "a sink alone must not keep a trace");
        // The recorder was pumped empty after every simulation step.
        let (peak, total) = (beehive_telemetry::peak_buffered(), retained.events.len());
        assert!(
            0 < peak && peak < total / 100,
            "recorder peaked at {peak} of {total} events"
        );
        let streamed = std::fs::read_to_string(dir.join("item.trace.json")).unwrap();
        assert!(streamed == chrome_trace_string(&[(label, retained)]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `check` is the collector's sentinel and `explain` the insight folds:
    /// neither collector holds more than a step of the run's events (a batch
    /// of one scenario runs on this thread, whose recorder peak is read).
    #[test]
    fn the_collectors_behind_check_and_explain_retain_no_trace() {
        let steady = || {
            let (label, cfg) = shapes().swap_remove(0);
            let plan = Plan::new(vec![Scenario::new(label, cfg)], |outcomes| {
                assert!(outcomes[0].result.trace.is_none());
                no_report()
            });
            vec![("item", plan)]
        };
        let want = |sentinel, insight| Want {
            sentinel,
            insight,
            ..Want::default()
        };
        let checked = collect(want(true, None), steady()).swap_remove(0);
        let events = checked.scenarios[0].check.as_ref().expect("checked").events as usize;
        let peak = beehive_telemetry::peak_buffered();
        assert!(0 < peak && peak < events / 100, "check: {peak} of {events}");

        let mut explained = collect(want(false, Some(3)), steady()).swap_remove(0);
        assert!(explained.scenarios[0].check.is_none());
        let peak = beehive_telemetry::peak_buffered();
        assert!(
            0 < peak && peak < events / 100,
            "explain: {peak} of {events}"
        );
        let attribution = &explained.insight().attributions[0];
        assert!(attribution.requests > 100 && attribution.slowest.len() == 3);
    }
}
