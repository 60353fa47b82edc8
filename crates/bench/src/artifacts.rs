//! The one run-and-collect path behind every `repro` form that simulates.
//!
//! [`collect`] installs the item's [`Collector`], runs its simulations and
//! returns what each scenario produced, in submission order: what its
//! substrates left in its `SimResult` — the conformance check, the metrics
//! snapshot, the profile and the elasticity series — next to what its
//! [`EventSink`] folded from the telemetry as it was recorded — its share of
//! the Chrome document, rendered straight into `DIR/<item>.trace.json`, and
//! the request timelines, built once, behind the critical-path summary, the
//! latency attribution and the SLO report. No trace is retained. The
//! artifact flags write what comes back (`flush` in `main.rs`); `top`,
//! `explain`, `check` and `timeline` print it.

use std::collections::BTreeMap;
use std::io;
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
use beehive_telemetry::summary::{RequestTimeline, SummaryFold, TimelineBuilder};
use beehive_telemetry::TraceEvent;
use beehive_workload::engine::{self, Collector, EventSink};
use beehive_workload::{SimConfig, SimResult};

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
    pub out: crate::Output,
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

/// Run the simulations of the item `name` — `run` — as `want` says.
pub fn collect(name: &str, want: Want, run: impl FnOnce() -> crate::Output) -> Collected {
    let doc = |dir: &Path| TraceFile::new(dir.join(format!("{name}.trace.json")));
    let sinks = Arc::new(Sinks {
        trace: want.trace.as_deref().map(doc),
        want,
        done: Arc::default(),
    });
    engine::set_collector(Some(Arc::clone(&sinks) as Arc<dyn Collector>));
    let out = run();
    engine::set_collector(None);
    sinks.finish(out)
}

/// What each scenario left, by scenario number.
#[derive(Default)]
struct Done(Mutex<BTreeMap<usize, Finished>>);

impl Done {
    /// Fill in what scenario `seq`, labelled `label`, left.
    fn fill(&self, seq: usize, label: &str, fill: impl FnOnce(&mut Finished)) {
        let mut done = self.0.lock().expect("no holder panics");
        fill(done.entry(seq).or_insert_with(|| Finished {
            label: label.to_string(),
            ..Finished::default()
        }));
    }
}

/// The collector of one item's scenarios.
struct Sinks {
    want: Want,
    trace: Option<Arc<TraceFile>>,
    done: Arc<Done>,
}

impl Collector for Sinks {
    fn open(&self, seq: usize, label: &str, cfg: &mut SimConfig) -> Option<Box<dyn EventSink>> {
        let want = &self.want;
        cfg.metrics |= want.metrics;
        cfg.profile |= want.profile;
        cfg.sentinel |= want.sentinel;
        if let Some(window) = want.observe {
            cfg.observe = true;
            cfg.observe_window = window;
        }
        // A run that streams nothing keeps its recorder disarmed.
        if self.trace.is_none() && want.insight.is_none() {
            return None;
        }
        let trace = self.trace.as_ref();
        Some(Box::new(ScenarioSink {
            done: Arc::clone(&self.done),
            seq,
            label: label.to_string(),
            trace: trace.map(|doc| doc.scenario(seq, label)),
            summary: trace.map(|_| SummaryFold::default()),
            insight: want.insight.map(|slowest| {
                let slo = SloFold::new(beehive_insight::SloPolicy::default());
                (AttributionFold::new(slowest), slo)
            }),
            timelines: TimelineBuilder::new(),
        }))
    }

    fn close(&self, seq: usize, label: &str, result: &mut SimResult) {
        self.done.fill(seq, label, |f| {
            f.check = result.sentinel.take();
            f.metrics = result.metrics.take().map(|reg| reg.snapshot(label));
            f.profile = result.profile.take();
            f.series = result.observatory.take();
        });
    }
}

impl Sinks {
    /// Complete the Chrome document and put what the scenarios left in
    /// submission order.
    fn finish(&self, out: crate::Output) -> Collected {
        let done = std::mem::take(&mut *self.done.0.lock().expect("no holder panics"));
        let n = done.len();
        assert!(
            done.keys().copied().eq(0..n),
            "every scenario leaves its results"
        );
        let mut scenarios: Vec<Finished> = done.into_values().collect();
        let unwritten = scenarios.iter_mut().find_map(|s| s.trace_error.take());
        let trace = self.trace.as_ref().filter(|_| n > 0).map(|trace| {
            if let Err(e) = unwritten.map_or(Ok(()), Err).and_then(|()| trace.finish(n)) {
                crate::die(&format!("writing {}: {e}", trace.path().display()));
            }
            trace.path().to_path_buf()
        });
        Collected {
            out,
            trace,
            scenarios,
        }
    }
}

/// One scenario's sink: every consumer of its telemetry, fed in one pass.
struct ScenarioSink {
    done: Arc<Done>,
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

impl EventSink for ScenarioSink {
    fn feed(&mut self, e: &TraceEvent) {
        if let Some(Ok(trace)) = &mut self.trace {
            trace.event(e);
        }
        if let Some(summary) = &mut self.summary {
            summary.event(e);
        }
        if let Some((attribution, _)) = &mut self.insight {
            attribution.event(e);
        }
        if let Some(t) = self.timelines.feed(e) {
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
        self.done.fill(self.seq, label, |f| {
            f.trace_error = written.and_then(Result::err);
            f.summary = summary;
            f.insight = insight;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_apps::{App, AppKind, Fidelity};
    use beehive_chaos::{keyed, Fault, FaultPlan, Injector};
    use beehive_telemetry::chrome::chrome_trace_string;
    use beehive_telemetry::summary::{critical_path, document, request_timelines};
    use beehive_telemetry::Trace;
    use beehive_workload::engine::{run_all_with_workers, Scenario};
    use beehive_workload::experiment::base_rate;
    use beehive_workload::{ArrivalPattern, Sim, Strategy};

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

    fn no_report() -> crate::Output {
        crate::Output {
            text: String::new(),
            bodies: Vec::new(),
        }
    }

    /// Both streamed families of an item `item`, as `--obs DIR` asks for
    /// them.
    fn sinks(dir: &Path) -> Sinks {
        Sinks {
            want: Want {
                insight: Some(beehive_metrics::EXEMPLAR_K),
                ..Want::default()
            },
            trace: Some(TraceFile::new(dir.join("item.trace.json"))),
            done: Arc::default(),
        }
    }

    /// Run scenario `seq` of `item` alone, as the engine runs it.
    fn run(item: &Sinks, seq: usize, label: &str, mut cfg: SimConfig) -> SimResult {
        let sink = item.open(seq, label, &mut cfg).expect("a streamed family");
        let mut sim = Sim::new(cfg);
        sim.attach(sink);
        let mut result = sim.run();
        item.close(seq, label, &mut result);
        result
    }

    #[test]
    fn streamed_files_equal_the_whole_trace_renderings() {
        let dir = scratch("streamed");
        let item = sinks(&dir);
        let mut traces: Vec<(String, Trace)> = Vec::new();
        for (seq, (label, mut cfg)) in shapes().into_iter().enumerate() {
            // Retain as well: one run yields the stream and its reference.
            cfg.trace = true;
            let trace = run(&item, seq, &label, cfg).trace.expect("retained");
            traces.push((label, trace));
        }
        let mut c = item.finish(no_report());
        let insight = c.insight();
        let summaries = c.take(|s| Some((s.label.clone(), s.summary.take()?)));
        let path = c.trace.unwrap();

        // The shapes are what they claim to be.
        let open = |t: &Trace| {
            request_timelines(t)
                .iter()
                .filter(|r| r.end.is_none())
                .count()
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

        cfg.trace = false;
        let item = sinks(&dir);
        let result = run(&item, 0, &label, cfg);
        assert!(result.trace.is_none(), "a sink alone must not keep a trace");
        // The recorder was pumped empty after every simulation step.
        let (peak, total) = (beehive_telemetry::peak_buffered(), retained.events.len());
        assert!(
            0 < peak && peak < total / 100,
            "recorder peaked at {peak} of {total} events"
        );
        item.finish(no_report());
        let streamed = std::fs::read_to_string(dir.join("item.trace.json")).unwrap();
        assert!(streamed == chrome_trace_string(&[(label, retained)]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `check` is the collector's sentinel and `explain` the insight folds: at
    /// one worker neither collector holds more than a step of the run's
    /// events.
    #[test]
    fn the_collectors_behind_check_and_explain_retain_no_trace() {
        let steady = || {
            let (label, cfg) = shapes().swap_remove(0);
            let outcomes = run_all_with_workers(vec![Scenario::new(label, cfg)], 1);
            assert!(outcomes[0].result.trace.is_none());
            no_report()
        };
        let want = |sentinel, insight| Want {
            sentinel,
            insight,
            ..Want::default()
        };
        let checked = collect("item", want(true, None), steady);
        let events = checked.scenarios[0].check.as_ref().expect("checked").events as usize;
        let peak = beehive_telemetry::peak_buffered();
        assert!(0 < peak && peak < events / 100, "check: {peak} of {events}");

        let mut explained = collect("item", want(false, Some(3)), steady);
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
