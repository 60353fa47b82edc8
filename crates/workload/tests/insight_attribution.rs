//! Latency-attribution invariants over real simulated runs: every
//! per-request decomposition must sum *exactly* to the driver-measured
//! latency (residual zero, no unattributed time), the aggregate report
//! must equal the streamed `request_latency` histogram, the insight document
//! must be byte-identical across worker counts, and an injected cold-boot
//! regression must be root-caused to `boot_wait`.

use beehive_apps::AppKind;
use beehive_insight::{attribute, diagnose, Component, InsightDoc, SloPolicy};
use beehive_metrics::{compare, MetricsSnapshot, DEFAULT_WINDOW, EXEMPLAR_K};
use beehive_telemetry::Trace;
use beehive_workload::config::SimConfig;
use beehive_workload::engine::{run_all_with_workers, RunOutcome, Scenario};
use beehive_workload::experiment::fig7::BurstExperiment;
use beehive_workload::Strategy;

/// The fault-free config matrix: strategies × shadowing on/off, one
/// scenario per combination, all traced and metered.
fn matrix() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for strategy in [
        Strategy::Vanilla,
        Strategy::BeeHiveSingle,
        Strategy::BeeHiveOpenWhisk,
        Strategy::BeeHiveLambda,
    ] {
        for shadow in [true, false] {
            let e = BurstExperiment::new(AppKind::Pybbs, strategy)
                .horizon_secs(20)
                .burst_at_secs(5)
                .seed(42);
            let mut cfg = e.config();
            cfg.trace = true;
            cfg.metrics = true;
            cfg.shadow_enabled = shadow;
            let label = format!(
                "{}:{}",
                e.strategy().label(),
                if shadow { "shadow" } else { "no-shadow" }
            );
            scenarios.push(Scenario::new(label, cfg));
        }
    }
    scenarios
}

/// The traces the scenarios retained (`SimConfig::trace`), labelled, and
/// the snapshot of the metrics they streamed.
fn retained(outcomes: Vec<RunOutcome>) -> (Vec<(String, Trace)>, MetricsSnapshot) {
    let (mut traces, mut scenarios) = (Vec::new(), Vec::new());
    for o in outcomes {
        let metrics = o.result.metrics.expect("every scenario must yield metrics");
        scenarios.push(metrics.snapshot(&o.label));
        traces.push((o.label, o.result.trace.expect("the scenario retains")));
    }
    let window = DEFAULT_WINDOW;
    (traces, MetricsSnapshot { window, scenarios })
}

/// Run the matrix at a worker count, returning the labelled traces and the
/// streamed metrics snapshot.
fn run_matrix(workers: usize) -> (Vec<(String, Trace)>, MetricsSnapshot) {
    let n = matrix().len();
    let outcomes = run_all_with_workers(matrix(), workers);
    assert_eq!(outcomes.len(), n);
    retained(outcomes)
}

#[test]
fn components_sum_to_measured_latency_across_the_config_matrix() {
    let (traces, snap) = run_matrix(1);
    for ((label, trace), live) in traces.iter().zip(&snap.scenarios) {
        assert_eq!(label, &live.label);
        // k = usize::MAX keeps *every* request's decomposition, so the
        // residual invariant is checked per request, not just slowest-K.
        let report = attribute(label, trace, usize::MAX);
        assert!(report.requests > 0, "{label}: nothing attributed");
        assert_eq!(
            report.slowest.len() as u64,
            report.requests,
            "{label}: k=MAX must keep every request"
        );
        for r in &report.slowest {
            assert_eq!(
                r.residual_ns(),
                0,
                "{label}: request #{} leaks {}ns of unattributed time",
                r.rid,
                r.residual_ns()
            );
        }
        assert_eq!(report.residual_ns(), 0, "{label}: aggregate residual");

        // The attribution totals are the *same numbers* the streamed metrics
        // histogram measured — arrival to completion, boot waits included.
        let hist = live.histogram("request_latency").expect("live histogram");
        assert_eq!(report.requests, hist.count, "{label}: request count");
        assert_eq!(
            report.total_ns, hist.sum_ns,
            "{label}: attributed nanoseconds diverge from the live sum"
        );

        // Slowest-first ordering with ascending-rid tie-break.
        for w in report.slowest.windows(2) {
            assert!(
                w[0].total_ns > w[1].total_ns
                    || (w[0].total_ns == w[1].total_ns && w[0].rid < w[1].rid),
                "{label}: slowest ordering violated"
            );
        }
    }
}

#[test]
fn insight_document_is_byte_identical_across_worker_counts() {
    let (traces, _) = run_matrix(1);
    let doc = InsightDoc::from_traces(&traces, &SloPolicy::default(), EXEMPLAR_K)
        .to_json()
        .render();
    assert!(doc.contains("\"slo\""));
    for workers in [2, 8] {
        let (traces, _) = run_matrix(workers);
        let parallel = InsightDoc::from_traces(&traces, &SloPolicy::default(), EXEMPLAR_K)
            .to_json()
            .render();
        assert_eq!(
            doc, parallel,
            "worker count {workers} changed the insight export"
        );
    }
    // And the strict parser round-trips it.
    let back = InsightDoc::parse(&doc).expect("insight export must parse");
    assert_eq!(back.to_json().render(), doc);
}

/// One traced + metered steady-rate run with the given warm-up posture.
/// The load is deliberately gentle and the server generously provisioned,
/// so the *only* thing the cold posture changes is who eats a boot.
fn boot_posture(shadow: bool, prewarm_ready: usize) -> (Vec<(String, Trace)>, MetricsSnapshot) {
    let e = BurstExperiment::new(AppKind::Pybbs, Strategy::BeeHiveOpenWhisk)
        .horizon_secs(20)
        .burst_at_secs(5)
        .seed(42);
    let mut cfg: SimConfig = e.config();
    cfg.trace = true;
    cfg.metrics = true;
    cfg.shadow_enabled = shadow;
    cfg.prewarm_ready = prewarm_ready;
    cfg.arrivals = beehive_workload::config::ArrivalPattern::constant(40.0);
    cfg.engage_at = beehive_sim::Duration::ZERO;
    cfg.server_cores = 64.0;
    cfg.max_server_concurrency = 1024;
    let outcomes = run_all_with_workers(vec![Scenario::new("burst", cfg)], 1);
    assert_eq!(outcomes.len(), 1);
    retained(outcomes)
}

#[test]
fn injected_cold_start_regression_is_diagnosed() {
    // Baseline: shadowed offloading onto ready-warm instances — requests
    // never wait on a boot and always run JIT-warm. Current: same workload
    // with shadowing off and no warm pool — offloaded requests eat the
    // cold start directly. In this model the dominant cost of a cold start
    // is the un-warmed *execution* (§5.6's JVM warmup: the first
    // invocation runs interpreted on the fresh instance), corroborated by
    // a grown boot wait and a higher cold-boot count.
    let (base_traces, base_snap) = boot_posture(true, 32);
    let (cur_traces, cur_snap) = boot_posture(false, 0);

    let base_report = attribute("burst", &base_traces[0].1, EXEMPLAR_K);
    let cur_report = attribute("burst", &cur_traces[0].1, EXEMPLAR_K);
    assert_eq!(
        base_report.mean_ns(Component::BootWait),
        0,
        "warm baseline must not wait on boots"
    );
    assert!(
        cur_report.mean_ns(Component::BootWait) > 0,
        "cold posture must record boot waits"
    );

    let deltas = compare(&base_snap, &cur_snap);
    let latency_regressions: Vec<_> = deltas
        .iter()
        .filter(|d| d.regressed && beehive_insight::is_latency_metric(&d.metric))
        .collect();
    assert!(
        !latency_regressions.is_empty(),
        "the cold-start run must regress a watched latency metric"
    );
    for d in latency_regressions {
        let diag = diagnose(
            d,
            Some(&base_report),
            Some(&cur_report),
            Some(&base_snap.scenarios[0]),
            Some(&cur_snap.scenarios[0]),
            None,
        )
        .expect("both runs attributed requests");
        assert_eq!(
            diag.dominant,
            Component::FaasExec,
            "misdiagnosed {} ({})",
            d.metric,
            diag.render()
        );
        assert!(
            diag.share_pct > 50,
            "cold execution must dominate the growth ({})",
            diag.render()
        );
        let boots = diag
            .counters
            .iter()
            .find(|(name, _)| name == "boots_cold")
            .expect("boots_cold must appear in the counter deltas");
        assert!(boots.1 > 0, "cold boots must have increased");
    }
}
