//! Trace determinism regression: with tracing on, the Chrome trace-event
//! export — rendered from the retained traces, or streamed to a file while
//! the scenarios run — must be byte-identical regardless of worker count
//! (same seed at 1, 2, and 8 workers), and must round-trip through the
//! strict in-tree RFC 8259 parser.

use std::sync::Arc;

use beehive_apps::AppKind;
use beehive_sim::json::Json;
use beehive_telemetry::chrome::{chrome_trace_string, ScenarioTrace, TraceFile};
use beehive_telemetry::summary::{critical_path, Arrival, Consumer};
use beehive_telemetry::{Trace, TraceEvent};
use beehive_workload::engine::{
    run_all_with_workers, run_collected, Collector, Plan, RunOutcome, Scenario,
};
use beehive_workload::experiment::fig7::BurstExperiment;
use beehive_workload::Strategy;
use beehive_workload::{SimConfig, SimResult};

/// The traces the scenarios retained (`SimConfig::trace`), labelled.
fn retained(outcomes: Vec<RunOutcome>) -> Vec<(String, Trace)> {
    let trace = |o: RunOutcome| (o.label, o.result.trace.expect("the scenario retains"));
    outcomes.into_iter().map(trace).collect()
}

/// Two traced burst experiments of `secs` virtual seconds, reported as
/// their labelled traces (in input order).
fn traced(secs: u64) -> Plan<Vec<(String, Trace)>> {
    let scenarios: Vec<Scenario> = [Strategy::BeeHiveOpenWhisk, Strategy::Vanilla]
        .into_iter()
        .map(|s| {
            let e = BurstExperiment::new(AppKind::Pybbs, s)
                .horizon_secs(secs)
                .burst_at_secs(secs / 4)
                .seed(42);
            let mut cfg = e.config();
            cfg.trace = true;
            Scenario::new(e.strategy().label(), cfg)
        })
        .collect();
    Plan::new(scenarios, retained)
}

/// [`traced`], run at the given worker count.
fn traces_at(workers: usize, secs: u64) -> Vec<(String, Trace)> {
    let plan = traced(secs);
    let outcomes = run_all_with_workers(plan.scenarios, workers);
    assert_eq!(outcomes.len(), 2);
    (plan.report)(outcomes)
}

#[test]
fn chrome_export_is_byte_identical_at_any_worker_count() {
    let serial = traces_at(1, 20);
    let doc = chrome_trace_string(&serial);
    let summary = critical_path(&serial).render();

    // The trace covers the Semi-FaaS machinery end to end.
    for needle in [
        "\"name\":\"req:offload\"",
        "\"name\":\"req:shadow\"",
        "\"name\":\"req:server\"",
        "\"name\":\"boot\"",
        "\"name\":\"closure:build\"",
        "\"name\":\"offload:decision\"",
        "\"name\":\"db:execute\"",
        "\"name\":\"instance:",
    ] {
        assert!(doc.contains(needle), "trace is missing {needle}");
    }

    for workers in [2, 8] {
        let parallel = traces_at(workers, 20);
        assert_eq!(
            serial, parallel,
            "worker count {workers} changed the recorded traces"
        );
        assert_eq!(
            doc,
            chrome_trace_string(&parallel),
            "worker count {workers} changed the Chrome export"
        );
        assert_eq!(
            summary,
            critical_path(&parallel).render(),
            "worker count {workers} changed the critical-path summary"
        );
    }

    // The export is strict RFC 8259 JSON: parse → render is the identity.
    let parsed = Json::parse(&doc).expect("chrome export must parse");
    assert_eq!(parsed.render(), doc);
    let parsed_summary = Json::parse(&summary).expect("summary must parse");
    assert_eq!(parsed_summary.render(), summary);
}

/// Streams one scenario's events into its share of a [`TraceFile`].
struct FileSink(ScenarioTrace);

impl Consumer for FileSink {
    fn event(&mut self, e: &TraceEvent, _: Option<Arrival>) {
        self.0.event(e);
    }

    fn finish(self: Box<Self>) {
        self.0.finish().expect("writing the scenario's fragment");
    }
}

/// Streams every scenario into its share of one [`TraceFile`].
struct FileCollector(Arc<TraceFile>);

impl Collector for FileCollector {
    fn open(&self, seq: usize, label: &str, _: &mut SimConfig) -> Option<Box<dyn Consumer>> {
        Some(Box::new(FileSink(
            self.0.scenario(seq, label).expect("opening"),
        )))
    }

    fn close(&self, _: usize, _: &str, _: &mut SimResult) {}
}

#[test]
fn streamed_trace_file_is_byte_identical_at_any_worker_count() {
    let dir = std::env::temp_dir().join(format!("beehive-streamed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("burst.trace.json");
    let mut reference = None;
    for workers in [1, 2, 8] {
        let file = TraceFile::new(&path);
        // Two plans joined into one batch, numbered on from the first plan's
        // scenarios into the second's; the traces retained alongside are what
        // the file must render.
        let batch = Plan::join([traced(8), traced(8)]);
        let collector = FileCollector(Arc::clone(&file));
        let outcomes = run_collected(batch.scenarios, workers, Some(&collector));
        let retained: Vec<_> = (batch.report)(outcomes).concat();
        assert_eq!(retained.len(), 4);
        file.finish(retained.len())
            .expect("completing the document");

        let streamed = std::fs::read_to_string(&path).unwrap();
        assert!(
            streamed == chrome_trace_string(&retained),
            "{workers} workers: the streamed file is not the retained traces' export"
        );
        assert!(
            *reference.get_or_insert_with(|| streamed.clone()) == streamed,
            "worker count {workers} changed the streamed file"
        );
        // Fragments that spilled to part files were folded in and removed.
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(left.len(), 1, "{workers} workers left {left:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn untraced_runs_leave_no_traces_behind() {
    let e = BurstExperiment::new(AppKind::Pybbs, Strategy::Vanilla)
        .horizon_secs(2)
        .seed(7);
    let mut cfg = e.config();
    cfg.trace = false;
    let outcomes = run_all_with_workers(vec![Scenario::new("untraced", cfg)], 1);
    assert!(outcomes[0].result.trace.is_none());
}
