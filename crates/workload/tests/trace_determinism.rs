//! Trace determinism regression: with tracing on, the Chrome trace-event
//! export must be byte-identical regardless of worker count (same seed at
//! 1, 2, and 8 workers), and must round-trip through the strict in-tree
//! RFC 8259 parser.

use beehive_apps::AppKind;
use beehive_sim::json::Json;
use beehive_telemetry::chrome::chrome_trace_string;
use beehive_telemetry::summary::critical_path;
use beehive_telemetry::Trace;
use beehive_workload::engine::{drain, run_all_with_workers, Scenario};
use beehive_workload::experiment::fig7::BurstExperiment;
use beehive_workload::Strategy;

/// Run two traced burst experiments at the given worker count and return
/// the labelled traces (in input order).
fn traces_at(workers: usize) -> Vec<(String, Trace)> {
    let scenarios: Vec<Scenario> = [Strategy::BeeHiveOpenWhisk, Strategy::Vanilla]
        .into_iter()
        .map(|s| {
            let e = BurstExperiment::new(AppKind::Pybbs, s)
                .horizon_secs(20)
                .burst_at_secs(5)
                .seed(42);
            let mut cfg = e.config();
            cfg.trace = true;
            Scenario::new(e.strategy().label(), cfg)
        })
        .collect();
    let outcomes = run_all_with_workers(scenarios, workers);
    assert_eq!(outcomes.len(), 2);
    let traces = drain().traces;
    assert_eq!(traces.len(), 2, "both scenarios must yield a trace");
    traces
}

#[test]
fn chrome_export_is_byte_identical_at_any_worker_count() {
    let serial = traces_at(1);
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
        let parallel = traces_at(workers);
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
