//! The `--trace` and `--insight` artifact families, streamed.
//!
//! Both read the telemetry of every simulation of an item. Instead of
//! retaining it, `repro` attaches one [`EventSink`] per scenario
//! ([`Artifacts::open`], through `engine::set_sinks`) that renders the Chrome
//! document straight into `DIR/<item>.trace.json` and folds the request
//! timelines — built once — into the critical-path summary, the latency
//! attribution and the SLO report as the simulation runs. What a scenario
//! leaves behind is those three small results; [`Artifacts::flush`] puts
//! them in submission order and writes the item's files.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use beehive_insight::{AttributionFold, AttributionReport, InsightDoc, SloFold, SloReport};
use beehive_sim::json::Json;
use beehive_telemetry::chrome::{ScenarioTrace, TraceFile};
use beehive_telemetry::summary::{self, RequestTimeline, SummaryFold, TimelineBuilder};
use beehive_telemetry::TraceEvent;
use beehive_workload::engine::EventSink;

/// The streamed artifacts of one item.
pub struct Artifacts {
    /// `--trace`: the Chrome document, and where its summary goes.
    trace: Option<(Arc<TraceFile>, PathBuf)>,
    /// `--insight`: where the document goes.
    insight: Option<PathBuf>,
    /// What each finished scenario left, by scenario number.
    done: Mutex<BTreeMap<usize, Finished>>,
}

/// What one scenario leaves for [`Artifacts::flush`].
struct Finished {
    label: String,
    /// Whether the scenario's share of the Chrome document was written.
    trace: io::Result<()>,
    summary: Option<Json>,
    insight: Option<(AttributionReport, SloReport)>,
}

/// One scenario's sink: every consumer of its telemetry, fed in one pass.
struct ScenarioSink {
    item: Arc<Artifacts>,
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

impl Artifacts {
    /// The streamed artifacts of the item `name`, for whichever of the two
    /// families has a directory; `None` when neither has.
    pub fn new(name: &str, trace: Option<&Path>, insight: Option<&Path>) -> Option<Arc<Artifacts>> {
        let file = |dir: &Path, ext: &str| dir.join(format!("{name}.{ext}"));
        (trace.is_some() || insight.is_some()).then(|| {
            Arc::new(Artifacts {
                trace: trace.map(|dir| {
                    let doc = TraceFile::new(file(dir, "trace.json"));
                    (doc, file(dir, "summary.json"))
                }),
                insight: insight.map(|dir| file(dir, "insight.json")),
                done: Mutex::default(),
            })
        })
    }

    /// The sink of the item's scenario number `seq`.
    pub fn open(self: &Arc<Self>, seq: usize, label: &str) -> Box<dyn EventSink> {
        let trace = self.trace.as_ref();
        Box::new(ScenarioSink {
            item: Arc::clone(self),
            seq,
            label: label.to_string(),
            trace: trace.map(|(doc, _)| doc.scenario(seq, label)),
            summary: trace.map(|_| SummaryFold::default()),
            insight: self.insight.as_ref().map(|_| {
                let slo = SloFold::new(beehive_insight::SloPolicy::default());
                (AttributionFold::new(beehive_metrics::EXEMPLAR_K), slo)
            }),
            timelines: TimelineBuilder::new(),
        })
    }

    /// Write the item's files from what its scenarios left, each family when
    /// some scenario ran. `hottest` is the summary's per-scenario extension
    /// ([`summary::document`]).
    pub fn flush(&self, hottest: &dyn Fn(&str) -> Option<Json>) {
        let done = std::mem::take(&mut *self.done.lock().expect("no holder panics"));
        if done.is_empty() {
            return;
        }
        let scenarios = done.len();
        assert!(
            done.keys().copied().eq(0..scenarios),
            "every scenario leaves its results"
        );
        let mut summaries = Vec::new();
        let mut doc = InsightDoc {
            attributions: Vec::new(),
            slo: Vec::new(),
        };
        let mut written = Ok(());
        for s in done.into_values() {
            written = written.and(s.trace);
            summaries.extend(s.summary.map(|summary| (summary, hottest(&s.label))));
            if let Some((attribution, slo)) = s.insight {
                doc.attributions.push(attribution);
                doc.slo.push(slo);
            }
        }
        if let Some((trace, summary)) = &self.trace {
            if let Err(e) = written.and_then(|()| trace.finish(scenarios)) {
                crate::die(&format!("writing {}: {e}", trace.path().display()));
            }
            crate::write_file(summary, &summary::document(summaries).render());
            let paths = [trace.path().to_path_buf(), summary.clone()];
            crate::report_written("trace", scenarios, &paths);
        }
        if let Some(path) = &self.insight {
            crate::write_file(path, &doc.to_json().render());
            crate::report_written("insight", scenarios, std::slice::from_ref(path));
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
    use beehive_telemetry::summary::{critical_path, request_timelines};
    use beehive_telemetry::Trace;
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

    #[test]
    fn streamed_files_equal_the_whole_trace_renderings() {
        let dir = scratch("streamed");
        let item = Artifacts::new("item", Some(&dir), Some(&dir)).unwrap();
        let mut traces: Vec<(String, Trace)> = Vec::new();
        for (seq, (label, mut cfg)) in shapes().into_iter().enumerate() {
            // Retain as well: one run yields the stream and its reference.
            cfg.trace = true;
            let mut sim = Sim::new(cfg);
            sim.attach(item.open(seq, &label));
            traces.push((label, sim.run().trace.expect("retained")));
        }
        item.flush(&|_| None);

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

        let read = |ext| std::fs::read_to_string(dir.join(format!("item.{ext}"))).unwrap();
        assert!(read("trace.json") == chrome_trace_string(&traces));
        assert_eq!(read("summary.json"), critical_path(&traces).render());
        let policy = beehive_insight::SloPolicy::default();
        let insight = InsightDoc::from_traces(&traces, &policy, beehive_metrics::EXEMPLAR_K);
        assert_eq!(read("insight.json"), insight.to_json().render());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3, "no part file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_attached_sink_holds_one_step_of_events_not_the_run() {
        let dir = scratch("bounded");
        let (label, mut cfg) = shapes().swap_remove(0);
        cfg.trace = true;
        let retained = Sim::new(cfg.clone()).run().trace.expect("retained");

        cfg.trace = false;
        let item = Artifacts::new("item", Some(&dir), Some(&dir)).unwrap();
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
        item.flush(&|_| None);
        let streamed = std::fs::read_to_string(dir.join("item.trace.json")).unwrap();
        assert!(streamed == chrome_trace_string(&[(label, retained)]));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
