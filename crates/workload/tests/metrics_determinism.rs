//! Metrics determinism regression: with metrics on, the exported snapshot
//! must be byte-identical regardless of worker count (same seed at 1, 2,
//! and 8 workers), must round-trip through the in-tree JSON parser, and —
//! for a traced run — must equal the `beehive_metrics::reduce` reduction of
//! the recorded trace, so traced and untraced runs report the same numbers.

use beehive_apps::AppKind;
use beehive_metrics::{reduce, MetricsSnapshot, DEFAULT_WINDOW};
use beehive_telemetry::Trace;
use beehive_workload::engine::{drain, run_all_with_workers, RunOutcome, Scenario};
use beehive_workload::experiment::fig7::BurstExperiment;
use beehive_workload::Strategy;

/// The traces the scenarios retained (`SimConfig::trace`), labelled.
fn retained(outcomes: Vec<RunOutcome>) -> Vec<(String, Trace)> {
    let trace = |o: RunOutcome| (o.label, o.result.trace.expect("the scenario retains"));
    outcomes.into_iter().map(trace).collect()
}

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
    // The engine harvests both exports out of the results, in input order.
    assert!(outcomes.iter().all(|o| o.result.metrics.is_none()));
    let (traces, scenarios) = (retained(outcomes), drain().metrics);
    assert_eq!(scenarios.len(), 2, "both scenarios must yield metrics");
    (
        MetricsSnapshot {
            window: DEFAULT_WINDOW,
            scenarios,
        },
        traces,
    )
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
    // driver's direct instrumentation (shadowing enabled ⇒ exact agreement).
    let reduced = reduce(&traces, DEFAULT_WINDOW);
    assert_eq!(reduced, snap, "trace reduction diverged from live metrics");
}

/// Shadow-*disabled* parity (the warmup ablation): the reducer documents one
/// divergence from live instrumentation — a boot-waiting request's latency is
/// charged from its arrival by the driver, while its `req:offload` span only
/// begins once the instance is up. This pins that divergence down exactly:
/// every counter, every gauge, and every histogram except `request_latency`
/// must agree; `request_latency` must keep the same completion count while
/// the live sum is strictly larger (it includes the boot wait).
#[test]
fn shadow_disabled_reduction_diverges_only_in_request_latency() {
    let e = BurstExperiment::new(AppKind::Pybbs, Strategy::BeeHiveOpenWhisk)
        .horizon_secs(20)
        .burst_at_secs(5)
        .seed(42);
    let mut cfg = e.config();
    cfg.trace = true;
    cfg.metrics = true;
    cfg.shadow_enabled = false;
    let outcomes = run_all_with_workers(vec![Scenario::new("no_shadow", cfg)], 1);
    assert_eq!(outcomes.len(), 1);
    let traces = retained(outcomes);
    let snap = MetricsSnapshot {
        window: DEFAULT_WINDOW,
        scenarios: drain().metrics,
    };
    let reduced = reduce(&traces, DEFAULT_WINDOW);

    let live = &snap.scenarios[0];
    let red = &reduced.scenarios[0];
    assert_eq!(live.label, red.label);
    assert_eq!(live.counters, red.counters, "counters must agree exactly");
    assert_eq!(live.gauges, red.gauges, "gauges must agree exactly");
    assert_eq!(
        live.histograms.iter().map(|h| &h.name).collect::<Vec<_>>(),
        red.histograms.iter().map(|h| &h.name).collect::<Vec<_>>(),
    );
    for (lh, rh) in live.histograms.iter().zip(&red.histograms) {
        if lh.name == "request_latency" {
            assert_eq!(lh.count, rh.count, "same completions either way");
            assert!(
                lh.sum_ns > rh.sum_ns,
                "live latency includes boot waits the span misses \
                 ({} !> {}); if these now agree, the reducer divergence \
                 note in reduce.rs is stale",
                lh.sum_ns,
                rh.sum_ns
            );
        } else {
            assert_eq!(lh, rh, "only request_latency may diverge");
        }
    }
    // The run actually exercised the divergent path (cold boots happened and
    // requests offloaded without a shadow to pre-warm the instance).
    assert!(live.counter("boots_cold").unwrap().total > 0);
    assert!(live.counter("requests_offloaded").unwrap().total > 0);
    assert!(live.counter("shadow_executions").is_none());
}

#[test]
fn unmetered_runs_leave_no_metrics_behind() {
    let e = BurstExperiment::new(AppKind::Pybbs, Strategy::Vanilla)
        .horizon_secs(2)
        .seed(7);
    let mut cfg = e.config();
    cfg.trace = false;
    cfg.metrics = false;
    // No drain assertion here: the determinism test shares this binary's
    // collection statics and may be mid-run on another thread.
    let outcomes = run_all_with_workers(vec![Scenario::new("unmetered", cfg)], 1);
    assert!(outcomes[0].result.metrics.is_none());
}
