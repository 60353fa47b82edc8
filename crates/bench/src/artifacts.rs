//! The one run-and-collect path behind every `repro` form that simulates.
//!
//! [`collect`] runs an item's simulations under an [`ObsPlan`] with at most
//! one [`EventSink`] per scenario and returns what they produced, in
//! submission order: the engine's [`Harvest`] and what the sinks folded from
//! the telemetry as it was recorded — the Chrome document, rendered straight
//! into `DIR/<item>.trace.json`, and the request timelines, built once, behind
//! the critical-path summary, the latency attribution and the SLO report. No
//! trace is retained. The artifact flags write what comes back (`flush` in
//! `main.rs`); `top`, `explain`, `check` and `timeline` print it.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use beehive_insight::{AttributionFold, AttributionReport, InsightDoc, SloFold, SloReport};
use beehive_sim::json::Json;
use beehive_telemetry::chrome::{ScenarioTrace, TraceFile};
use beehive_telemetry::summary::{RequestTimeline, SummaryFold, TimelineBuilder};
use beehive_telemetry::TraceEvent;
use beehive_workload::engine::{self, EventSink, Harvest, ObsPlan};

/// What [`collect`] is asked for.
#[derive(Clone, Copy)]
pub struct Want<'a> {
    /// The substrates every scenario carries.
    pub plan: ObsPlan,
    /// Stream the Chrome document into this directory; fold the summaries.
    pub trace: Option<&'a Path>,
    /// Fold the attribution + SLO document at this many slowest requests.
    pub insight: Option<usize>,
}

/// What an item's simulations produced; of a streamed family, nothing unless
/// it was wanted and some scenario ran.
pub struct Collected {
    /// The item's own report.
    pub out: crate::Output,
    /// What the plan's substrates produced.
    pub harvest: Harvest,
    /// Where the Chrome document was written…
    pub trace: Option<PathBuf>,
    /// …and each scenario's label and summary ([`SummaryFold::finish`]).
    pub summaries: Vec<(String, Json)>,
    /// The attribution + SLO document.
    pub insight: InsightDoc,
}

/// Run the simulations of the item `name` — `run` — as `want` says.
pub fn collect(name: &str, want: Want, run: impl FnOnce() -> crate::Output) -> Collected {
    engine::set_plan(want.plan);
    let doc = |dir: &Path| TraceFile::new(dir.join(format!("{name}.trace.json")));
    let sinks = Arc::new(Sinks {
        trace: want.trace.map(doc),
        insight: want.insight,
        done: Mutex::default(),
    });
    // A run that streams nothing keeps its recorder disarmed.
    if sinks.trace.is_some() || sinks.insight.is_some() {
        let sinks = Arc::clone(&sinks);
        engine::set_sinks(Some(Arc::new(move |seq, label| sinks.open(seq, label))));
    }
    let out = run();
    engine::set_sinks(None);
    sinks.finish(out, engine::drain())
}

/// The sinks of one item's scenarios and what they leave.
struct Sinks {
    trace: Option<Arc<TraceFile>>,
    /// [`Want::insight`].
    insight: Option<usize>,
    /// What each finished scenario left, by scenario number.
    done: Mutex<BTreeMap<usize, Finished>>,
}

/// What one scenario leaves for [`Sinks::finish`].
struct Finished {
    label: String,
    /// Whether the scenario's share of the Chrome document was written.
    trace: io::Result<()>,
    summary: Option<Json>,
    insight: Option<(AttributionReport, SloReport)>,
}

/// One scenario's sink: every consumer of its telemetry, fed in one pass.
struct ScenarioSink {
    item: Arc<Sinks>,
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
        let finished = Finished {
            trace: self
                .trace
                .map_or(Ok(()), |t| t.and_then(ScenarioTrace::finish)),
            summary: self.summary.map(|s| s.finish(label)),
            insight: self
                .insight
                .map(|(a, s)| (a.finish(label), s.finish(label))),
            label: self.label,
        };
        let mut done = self.item.done.lock().expect("no holder panics");
        done.insert(self.seq, finished);
    }
}

impl Sinks {
    /// The sink of the item's scenario number `seq`.
    fn open(self: &Arc<Self>, seq: usize, label: &str) -> Box<dyn EventSink> {
        let trace = self.trace.as_ref();
        Box::new(ScenarioSink {
            item: Arc::clone(self),
            seq,
            label: label.to_string(),
            trace: trace.map(|doc| doc.scenario(seq, label)),
            summary: trace.map(|_| SummaryFold::default()),
            insight: self.insight.map(|slowest| {
                let slo = SloFold::new(beehive_insight::SloPolicy::default());
                (AttributionFold::new(slowest), slo)
            }),
            timelines: TimelineBuilder::new(),
        })
    }

    /// Complete the Chrome document and put what the scenarios left in
    /// submission order.
    fn finish(&self, out: crate::Output, harvest: Harvest) -> Collected {
        let done = std::mem::take(&mut *self.done.lock().expect("no holder panics"));
        let scenarios = done.len();
        assert!(
            done.keys().copied().eq(0..scenarios),
            "every scenario leaves its results"
        );
        let mut summaries = Vec::new();
        let mut insight = InsightDoc::default();
        let mut written = Ok(());
        for s in done.into_values() {
            written = written.and(s.trace);
            summaries.extend(s.summary.map(|summary| (s.label, summary)));
            if let Some((attribution, slo)) = s.insight {
                insight.attributions.push(attribution);
                insight.slo.push(slo);
            }
        }
        let trace = self.trace.as_ref().filter(|_| scenarios > 0).map(|trace| {
            if let Err(e) = written.and_then(|()| trace.finish(scenarios)) {
                crate::die(&format!("writing {}: {e}", trace.path().display()));
            }
            trace.path().to_path_buf()
        });
        Collected {
            out,
            harvest,
            trace,
            summaries,
            insight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_apps::{App, AppKind, Fidelity};
    use beehive_chaos::{keyed, Fault, FaultPlan, Injector};
    use beehive_sim::Duration;
    use beehive_telemetry::chrome::chrome_trace_string;
    use beehive_telemetry::summary::{critical_path, document, request_timelines};
    use beehive_telemetry::Trace;
    use beehive_workload::engine::{run_all_with_workers, Scenario};
    use beehive_workload::experiment::base_rate;
    use beehive_workload::{ArrivalPattern, Sim, SimConfig, Strategy};

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

    /// Both families of an item `item`, as `--obs DIR` asks for them.
    fn sinks(dir: &Path) -> Arc<Sinks> {
        Arc::new(Sinks {
            trace: Some(TraceFile::new(dir.join("item.trace.json"))),
            insight: Some(beehive_metrics::EXEMPLAR_K),
            done: Mutex::default(),
        })
    }

    #[test]
    fn streamed_files_equal_the_whole_trace_renderings() {
        let dir = scratch("streamed");
        let item = sinks(&dir);
        let mut traces: Vec<(String, Trace)> = Vec::new();
        for (seq, (label, mut cfg)) in shapes().into_iter().enumerate() {
            // Retain as well: one run yields the stream and its reference.
            cfg.trace = true;
            let mut sim = Sim::new(cfg);
            sim.attach(item.open(seq, &label));
            traces.push((label, sim.run().trace.expect("retained")));
        }
        let c = item.finish(no_report(), Harvest::default());
        let (path, summaries, insight) = (c.trace.unwrap(), c.summaries, c.insight);

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
        let mut sim = Sim::new(cfg);
        sim.attach(item.open(0, &label));
        let result = sim.run();
        assert!(result.trace.is_none(), "a sink alone must not keep a trace");
        // The recorder was pumped empty after every simulation step.
        let (peak, total) = (beehive_telemetry::peak_buffered(), retained.events.len());
        assert!(
            0 < peak && peak < total / 100,
            "recorder peaked at {peak} of {total} events"
        );
        item.finish(no_report(), Harvest::default());
        let streamed = std::fs::read_to_string(dir.join("item.trace.json")).unwrap();
        assert!(streamed == chrome_trace_string(&[(label, retained)]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `check` is the plan's sentinel and `explain` the insight folds: at one
    /// worker neither collector holds more than a step of the run's events.
    #[test]
    fn the_collectors_behind_check_and_explain_retain_no_trace() {
        let steady = || {
            // Built here, under the plan `collect` has set.
            let (label, cfg) = shapes().swap_remove(0);
            let outcomes = run_all_with_workers(vec![Scenario::new(label, cfg)], 1);
            assert!(outcomes[0].result.trace.is_none());
            no_report()
        };
        let want = |sentinel, insight| Want {
            plan: ObsPlan {
                sentinel,
                ..engine::plan()
            },
            trace: None,
            insight,
        };
        let checked = collect("item", want(true, None), steady);
        let events = checked.harvest.sentinel[0].events as usize;
        let peak = beehive_telemetry::peak_buffered();
        assert!(0 < peak && peak < events / 100, "check: {peak} of {events}");

        let explained = collect("item", want(false, Some(3)), steady);
        assert!(explained.harvest.sentinel.is_empty());
        let peak = beehive_telemetry::peak_buffered();
        assert!(
            0 < peak && peak < events / 100,
            "explain: {peak} of {events}"
        );
        let attribution = &explained.insight.attributions[0];
        assert!(attribution.requests > 100 && attribution.slowest.len() == 3);
    }
}
