//! Metrics determinism regression: with metrics on, the exported snapshot
//! must be byte-identical regardless of worker count (same seed at 1, 2,
//! and 8 workers), must round-trip through the in-tree JSON parser, and —
//! for a traced run — must equal the `beehive_metrics::reduce` reduction of
//! the recorded trace. `metrics_fold.rs` holds the same equality over the
//! chaos and shadow-off paths.

use beehive_apps::AppKind;
use beehive_metrics::{reduce, MetricsSnapshot, DEFAULT_WINDOW};
use beehive_telemetry::Trace;
use beehive_workload::engine::{run_all_with_workers, Scenario};
use beehive_workload::experiment::fig7::BurstExperiment;
use beehive_workload::Strategy;

/// Run two traced+metered burst experiments at the given worker count and
/// return the snapshot plus the labelled traces (in input order).
fn snapshot_at(workers: usize) -> (MetricsSnapshot, Vec<(String, Trace)>) {
    let scenarios: Vec<Scenario> = [Strategy::BeeHiveOpenWhisk, Strategy::Vanilla]
        .into_iter()
        .map(|s| {
            let e = BurstExperiment::new(AppKind::Pybbs, s)
                .horizon_secs(20)
                .burst_at_secs(5)
                .seed(42);
            let mut cfg = e.config();
            cfg.trace = true;
            cfg.metrics = true;
            Scenario::new(e.strategy().label(), cfg)
        })
        .collect();
    let outcomes = run_all_with_workers(scenarios, workers);
    assert_eq!(outcomes.len(), 2);
    // Each result carries both exports, in input order.
    let (mut traces, mut scenarios) = (Vec::new(), Vec::new());
    for o in outcomes {
        let metrics = o.result.metrics.expect("every scenario must yield metrics");
        scenarios.push(metrics.snapshot(&o.label));
        traces.push((o.label, o.result.trace.expect("the scenario retains")));
    }
    let window = DEFAULT_WINDOW;
    (MetricsSnapshot { window, scenarios }, traces)
}

#[test]
fn metrics_are_byte_identical_and_agree_with_the_trace_reduction() {
    let (snap, traces) = snapshot_at(1);
    let doc = snap.render();

    // The snapshot covers the Semi-FaaS machinery end to end.
    let beehive = &snap.scenarios[0];
    assert!(beehive.counter("requests_completed").unwrap().total > 0);
    assert!(beehive.counter("requests_offloaded").unwrap().total > 0);
    assert!(beehive.counter("shadow_executions").unwrap().total > 0);
    assert!(beehive.counter("boots_cold").unwrap().total > 0);
    assert!(beehive.counter("fallbacks").unwrap().total > 0);
    assert!(beehive.counter("db_rounds_server").unwrap().total > 0);
    assert!(beehive.counter("db_rounds_function").unwrap().total > 0);
    assert!(beehive.gauge("server_pool").is_some());
    assert!(beehive.gauge("inflight").is_some());
    let lat = beehive.histogram("request_latency").unwrap();
    assert!(lat.count > 0 && lat.p99_ns >= lat.p50_ns);
    // Vanilla never offloads.
    let vanilla = &snap.scenarios[1];
    assert!(vanilla.counter("requests_offloaded").is_none());
    assert!(vanilla.counter("boots_cold").is_none());

    for workers in [2, 8] {
        let (parallel, _) = snapshot_at(workers);
        assert_eq!(
            doc,
            parallel.render(),
            "worker count {workers} changed the metrics export"
        );
    }

    // The export round-trips through the strict in-tree parser.
    let back = MetricsSnapshot::parse(&doc).expect("metrics export must parse");
    assert_eq!(back, snap);
    assert_eq!(back.render(), doc);

    // A post-hoc reduction of the trace produces the same snapshot as the
    // fold the driver fed online.
    let reduced = reduce(&traces, DEFAULT_WINDOW);
    assert_eq!(
        reduced, snap,
        "trace reduction diverged from the streamed metrics"
    );
}

#[test]
fn unmetered_runs_leave_no_metrics_behind() {
    let e = BurstExperiment::new(AppKind::Pybbs, Strategy::Vanilla)
        .horizon_secs(2)
        .seed(7);
    let mut cfg = e.config();
    cfg.trace = false;
    cfg.metrics = false;
    let outcomes = run_all_with_workers(vec![Scenario::new("unmetered", cfg)], 1);
    assert!(outcomes[0].result.metrics.is_none());
}
