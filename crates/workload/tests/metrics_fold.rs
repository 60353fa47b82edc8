//! Metrics differential: four scenarios that between them reach every metric
//! the driver reports — a shadowed burst, the same burst without shadows,
//! a §4.5 fault plan under the default retry budget, and one under a zero
//! budget with every fault kind — have their metrics snapshots folded into
//! one digest. The digest was recorded from the live registry the driver
//! kept before metrics became a fold over its telemetry, and the fold
//! reproduces it byte for byte, streamed alone or beside a retained trace
//! whose `reduce` gives the same snapshot. Its counters also agree with what
//! the driver counts itself in the `SimResult`, and every consumer of a
//! request's arrival — the fold, attribution, the SLO fold, the summary and
//! the observatory — agrees with the driver's own latencies.

use std::collections::HashSet;

use beehive_apps::AppKind;
use beehive_chaos::{keyed, Fault, FaultPlan, Injector, RetryPolicy};
use beehive_insight::{attribute, evaluate, InsightDoc, SloPolicy};
use beehive_metrics::{
    prometheus, reduce_one, MetricsSnapshot, ScenarioMetrics, DEFAULT_WINDOW, EXEMPLAR_K,
};
use beehive_observatory::{Observer, TimelineDoc};
use beehive_sim::json::ToJson;
use beehive_sim::Duration;
use beehive_telemetry::summary::{for_each_timeline, SummaryFold};
use beehive_telemetry::{EventKind, EventName, Trace, TraceEvent, Track};
use beehive_workload::driver::{Sim, SimConfig};
use beehive_workload::experiment::fig7::BurstExperiment;
use beehive_workload::Strategy;

/// FNV-1a over every rendering of the four snapshots.
const DIGEST: u64 = 0x17ab_2b30_f3f1_f0e6;

/// [`DIGEST`] with the `event_queue` gauge left out of every snapshot: how
/// the kernel keeps its pending events may move that gauge, and nothing
/// else the fold reports.
const GAUGE_FREE_DIGEST: u64 = 0x9ca3_e8f8_cca7_23ae;

/// FNV-1a over the `degrade` scenario's rendered timeline and insight
/// documents — the one pinned run whose crashed requests are rerouted to
/// the server. Recorded once every arrival consumer agreed with the driver;
/// re-recorded when an offloaded request's database round became one
/// `wait:db` `Complete`, which moved only the timeline's `events` count
/// (335,806 → 325,784).
const DEGRADE_DOCS_DIGEST: u64 = 0x1b65_9636_a3f6_ddcd;

fn burst() -> SimConfig {
    let e = BurstExperiment::new(AppKind::Pybbs, Strategy::BeeHiveOpenWhisk)
        .horizon_secs(16)
        .burst_at_secs(4)
        .seed(42);
    let mut cfg = e.config();
    cfg.metrics = true;
    cfg
}

/// The burst, offloading everything, under a plan injecting each fault at
/// its rate per second, with sync-point snapshots to recover from.
fn chaos(label: &str, faults: &[(Fault, f64)]) -> SimConfig {
    let mut cfg = burst();
    cfg.offload_ratio = 1.0;
    cfg.beehive = cfg.beehive.with_recovery();
    let mut plan = FaultPlan::new(keyed(42, label));
    for &(fault, per_sec) in faults {
        plan.push(Injector::Rate {
            fault,
            per_sec,
            start: Duration::ZERO,
            end: cfg.horizon,
        });
    }
    cfg.faults = plan;
    cfg
}

/// The labelled scenarios, in digest order.
fn scenarios() -> Vec<(&'static str, SimConfig)> {
    let shadowed = burst();
    let mut unshadowed = burst();
    unshadowed.shadow_enabled = false;
    let rpc_drop = Fault::RpcDrop {
        timeout: Duration::from_millis(5),
    };
    let db_drop = Fault::DbConnDrop {
        reconnect: Duration::from_millis(2),
    };
    let crash = Fault::InstanceCrash { selector: 0 };
    let recovery = chaos(
        "recovery",
        &[
            (crash, 2.0),
            (Fault::BootFailure, 0.5),
            (rpc_drop, 2.0),
            (db_drop, 1.0),
        ],
    );
    // No retries and no shadows: crashed requests degrade to the server,
    // and so do real requests whose boot failed.
    let mut degrade = chaos(
        "degrade",
        &[
            (crash, 3.0),
            (Fault::BootFailure, 0.25),
            (rpc_drop, 3.0),
            (
                Fault::RpcDelay {
                    delay: Duration::from_millis(3),
                },
                3.0,
            ),
            (
                Fault::NetworkDegrade {
                    factor: 2.0,
                    duration: Duration::from_millis(500),
                },
                0.5,
            ),
            (db_drop, 3.0),
        ],
    );
    degrade.shadow_enabled = false;
    degrade.faults.policy = RetryPolicy::new(Duration::from_millis(50), 0);
    vec![
        ("shadow", shadowed),
        ("no_shadow", unshadowed),
        ("recovery", recovery),
        ("degrade", degrade),
    ]
}

/// Run `cfg` and snapshot its metrics, with the trace when `trace` keeps it.
fn run(label: &str, mut cfg: SimConfig, trace: bool) -> (ScenarioMetrics, Option<Trace>) {
    cfg.trace = trace;
    let result = Sim::new(cfg).run();
    let snap = result.metrics.expect("metrics were on").snapshot(label);
    (snap, result.trace)
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The digest of `scenarios`: each one's JSON document and Prometheus
/// exposition, folded in order.
fn digest(scenarios: &[ScenarioMetrics]) -> u64 {
    scenarios.iter().fold(0xcbf2_9ce4_8422_2325, |h, s| {
        let snap = MetricsSnapshot {
            window: DEFAULT_WINDOW,
            scenarios: vec![s.clone()],
        };
        let h = fnv(h, snap.render().as_bytes());
        fnv(h, prometheus(&snap, &s.label).as_bytes())
    })
}

/// `snaps` without the `event_queue` gauge.
fn without_queue_gauge(snaps: &[ScenarioMetrics]) -> Vec<ScenarioMetrics> {
    let strip = |s: &ScenarioMetrics| {
        let mut s = s.clone();
        s.gauges.retain(|g| g.name != "event_queue");
        s
    };
    snaps.iter().map(strip).collect()
}

fn total(s: &ScenarioMetrics, counter: &str) -> u64 {
    s.counter(counter).map_or(0, |c| c.total)
}

#[test]
fn metrics_reproduce_the_recorded_digest() {
    let snaps: Vec<ScenarioMetrics> = scenarios()
        .into_iter()
        .map(|(label, cfg)| run(label, cfg, false).0)
        .collect();
    let [shadow, no_shadow, recovery, degrade] = &snaps[..] else {
        unreachable!("four scenarios")
    };
    // Every metric family is exercised somewhere.
    assert!(total(shadow, "shadow_executions") > 0);
    assert!(total(no_shadow, "boots_cold") > 0 && total(no_shadow, "requests_offloaded") > 0);
    assert_eq!(total(no_shadow, "shadow_executions"), 0);
    for counter in ["crashes", "boot_failures", "retries", "recoveries"] {
        assert!(total(recovery, counter) > 0, "recovery: no {counter}");
    }
    assert!(recovery.histogram("recovery_latency").is_some());
    for counter in ["crashes", "boot_failures", "retries", "degraded_to_server"] {
        assert!(total(degrade, counter) > 0, "degrade: no {counter}");
    }
    let gauge_free = digest(&without_queue_gauge(&snaps));
    assert_eq!(
        gauge_free, GAUGE_FREE_DIGEST,
        "gauge-free {gauge_free:#018x}"
    );
    let digest = digest(&snaps);
    assert_eq!(digest, DIGEST, "digest {digest:#018x}");
}

#[test]
fn reducing_the_retained_trace_gives_the_streamed_snapshot() {
    let mut snaps = Vec::new();
    for (label, cfg) in scenarios() {
        let (streamed, trace) = run(label, cfg, true);
        let trace = trace.expect("the scenario retains");
        let reduced = reduce_one(label, &trace, DEFAULT_WINDOW);
        assert_eq!(reduced.counters, streamed.counters, "{label}: counters");
        assert_eq!(reduced.gauges, streamed.gauges, "{label}: gauges");
        assert_eq!(
            reduced.histograms, streamed.histograms,
            "{label}: histograms"
        );
        if label == "degrade" {
            // Both degrade paths and both drop kinds fired.
            let fired = |f: fn(&TraceEvent) -> bool| trace.events.iter().any(f);
            assert!(fired(|e| e.name == EventName::RecoveryDegrade));
            assert!(fired(|e| matches!(e.track, Track::Instance(_))
                && e.name == EventName::ChaosBootFailure
                && e.arg_str("outcome") == Some("degrade")));
            assert!(fired(|e| e.name == EventName::ChaosRpcDrop));
            assert!(fired(|e| e.name == EventName::ChaosDbReconnect));
        }
        snaps.push(streamed);
    }
    // Retaining the trace changes nothing the fold sees.
    assert_eq!(digest(&snaps), DIGEST);
}

/// The fold derives from the telemetry what the driver counts as it goes
/// (`SimResult`): the two must agree on every quantity both keep.
#[test]
fn the_fold_counts_what_the_driver_counts() {
    for (label, cfg) in scenarios() {
        let r = Sim::new(cfg).run();
        let s = r.metrics.expect("metrics were on").snapshot(label);
        let c = &r.chaos;
        for (counter, driver) in [
            ("requests_completed", r.completed),
            ("requests_rejected", r.rejected),
            ("requests_offloaded", r.offloaded),
            ("crashes", c.crashes),
            ("retries", c.retries),
            ("boot_failures", c.boot_failures),
            ("degraded_to_server", c.degraded_to_server),
            ("re_executed_ns", c.re_executed_ns),
            ("recoveries", c.recoveries()),
        ] {
            assert_eq!(total(&s, counter), driver, "{label}: {counter}");
        }
        // `shadow_executions` counts shadows that finished, as the driver's
        // shadow aggregates do; `SimResult.shadows` counts those started,
        // some of which a crash or the horizon cuts short.
        let finished = total(&s, "shadow_executions");
        assert_eq!(
            finished,
            r.shadow_durations.len() as u64,
            "{label}: shadows"
        );
        assert!(
            finished <= r.shadows,
            "{label}: {finished} of {}",
            r.shadows
        );
    }
}

/// What the critical-path summary of `trace` says of its served requests:
/// how many completed, and the latencies (µs) of the slowest rows that are
/// not shadow warm-ups, slowest first.
fn summary_latencies(label: &str, trace: &Trace) -> (u64, Vec<u64>) {
    let mut fold = SummaryFold::default();
    trace.events.iter().for_each(|e| fold.event(e));
    for_each_timeline(trace, |t| fold.request(&t));
    let doc = fold.finish(label);
    let kinds = doc.get("requests").expect("a requests table");
    let count = |kind| {
        kinds
            .get(kind)
            .map_or(0, |k| k.field::<u64>("count").unwrap())
    };
    let slowest = (doc.arr_field("slowest").unwrap().iter())
        .filter(|row| row.str_field("kind") != Ok("req:shadow"))
        .map(|row| row.field::<u64>("total_us").unwrap())
        .collect();
    (count("req:server") + count("req:offload"), slowest)
}

/// The driver's exact latencies (every completion, from `record_from` zero)
/// are what every reader of a request's arrival reports: the metrics
/// `request_latency` histogram, attribution's totals, the SLO fold's count,
/// the summary's request counts and slowest requests, and the
/// observatory's served load. The observatory also offers each
/// request once: a session a `recovery:degrade` reroutes a crashed request
/// to is not a new arrival. Its series replayed from the retained trace
/// (the `Observer::feed` path, and `replay`'s own tracker) equals the one
/// the driver's pump fed online.
#[test]
fn every_arrival_reader_agrees_with_the_driver() {
    for (label, mut cfg) in scenarios() {
        cfg.observe = true;
        cfg.record_from = Duration::ZERO;
        cfg.trace = true;
        let window = cfg.observe_window;
        let mut r = Sim::new(cfg).run();
        let exact = r.steady.take();
        let count = exact.len() as u64;
        let sum: u64 = exact.iter().map(|d| d.as_nanos()).sum();

        let snap = r.metrics.take().expect("metrics were on").snapshot(label);
        let latency = snap
            .histogram("request_latency")
            .expect("requests completed");
        assert_eq!(
            (latency.count, latency.sum_ns),
            (count, sum),
            "{label}: metrics"
        );
        let traces = [(
            label.to_string(),
            r.trace.take().expect("the scenario retains"),
        )];
        let trace = &traces[0].1;
        let attribution = attribute(label, trace, EXEMPLAR_K);
        let attributed = (attribution.requests, attribution.total_ns);
        assert_eq!(attributed, (count, sum), "{label}: attribution");
        let slo = evaluate(&SloPolicy::default(), label, trace);
        assert_eq!(slo.total, count, "{label}: slo");
        let (counted, slowest) = summary_latencies(label, trace);
        assert_eq!(counted, count, "{label}: summary requests");
        let mut exact_us: Vec<u64> = exact.iter().map(|d| d.as_nanos() / 1_000).collect();
        exact_us.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(
            slowest,
            exact_us[..slowest.len()],
            "{label}: summary slowest"
        );

        let mut series = r.observatory.take().expect("observed");
        assert_eq!(series.served.iter().sum::<u64>(), count, "{label}: served");
        series.label = label.to_string();
        let replayed = TimelineDoc::from_traces(&traces, window);
        assert!(replayed.scenarios == [series.clone()], "{label}: replayed");
        let mut fed = Observer::new(window);
        trace.events.iter().for_each(|e| fed.feed(e));
        assert!(fed.finish(label.to_string()) == series, "{label}: fed");
        let rerouted: HashSet<u64> = (trace.events.iter())
            .filter(|e| e.name == EventName::RecoveryDegrade)
            .filter_map(|e| e.arg_u64("server_request"))
            .collect();
        let arrived = (trace.events.iter())
            .filter(|e| e.kind == EventKind::Begin)
            .filter(|e| matches!(e.name, EventName::ReqServer | EventName::ReqOffload))
            .filter(|e| matches!(e.track, Track::Request(rid) if !rerouted.contains(&rid)))
            .count() as u64;
        let offered = series.offered.iter().sum::<u64>();
        assert_eq!(offered, arrived + r.rejected, "{label}: offered");

        if label == "degrade" {
            assert!(!rerouted.is_empty(), "degrade: no reroute");
            let timeline = TimelineDoc::from_series(vec![series]).to_json().render();
            let policy = SloPolicy::default();
            let insight = InsightDoc::from_traces(&traces, &policy, EXEMPLAR_K);
            let h = fnv(0xcbf2_9ce4_8422_2325, timeline.as_bytes());
            let h = fnv(h, insight.to_json().render().as_bytes());
            assert_eq!(h, DEGRADE_DOCS_DIGEST, "degrade docs {h:#018x}");
        }
    }
}
