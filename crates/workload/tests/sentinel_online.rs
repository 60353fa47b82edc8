//! Online conformance checking: real simulations run clean under the
//! sentinel, with and without fault injection, and the reports they return
//! are byte-identical regardless of worker count.

use beehive_apps::{App, AppKind, Fidelity};
use beehive_chaos::{keyed, Fault, FaultPlan, Injector};
use beehive_observatory::TimelineDoc;
use beehive_sentinel::{ScenarioCheck, SentinelReport};
use beehive_sim::json::{Json, ToJson};
use beehive_sim::Duration;
use beehive_telemetry::Trace;
use beehive_workload::driver::{ArrivalPattern, Sim, SimConfig};
use beehive_workload::engine::{run_all_with_workers, RunOutcome, Scenario};
use beehive_workload::experiment::fig7::BurstExperiment;
use beehive_workload::Strategy;

/// A burst scenario plus a chaos-heavy recovery scenario, both checked
/// online, at the given worker count.
fn checks_at(workers: usize) -> Vec<ScenarioCheck> {
    let burst = {
        let e = BurstExperiment::new(AppKind::Pybbs, Strategy::BeeHiveOpenWhisk)
            .horizon_secs(20)
            .burst_at_secs(5)
            .seed(42);
        let mut cfg = e.config();
        cfg.sentinel = true;
        Scenario::new("burst", cfg)
    };
    let recovery = {
        let app = App::build(AppKind::Pybbs, Fidelity::fast());
        let mut cfg = SimConfig::new(app, Strategy::BeeHiveOpenWhisk);
        cfg.arrivals = ArrivalPattern::constant(40.0);
        cfg.horizon = Duration::from_secs(20);
        cfg.record_from = Duration::from_secs(5);
        cfg.seed = 7;
        cfg.offload_ratio = 1.0;
        cfg.prewarm_ready = 4;
        cfg.beehive = cfg.beehive.with_recovery();
        cfg.sentinel = true;
        let window = Duration::from_secs(20);
        let mut plan = FaultPlan::new(keyed(9, "sentinel-online"));
        plan.push(Injector::Rate {
            fault: Fault::InstanceCrash { selector: 0 },
            per_sec: 2.0,
            start: Duration::ZERO,
            end: window,
        });
        plan.push(Injector::Rate {
            fault: Fault::BootFailure,
            per_sec: 0.5,
            start: Duration::ZERO,
            end: window,
        });
        plan.push(Injector::Rate {
            fault: Fault::RpcDrop {
                timeout: Duration::from_millis(5),
            },
            per_sec: 2.0,
            start: Duration::ZERO,
            end: window,
        });
        cfg.faults = plan;
        Scenario::new("recovery", cfg)
    };
    let outcomes = run_all_with_workers(vec![burst, recovery], workers);
    assert_eq!(outcomes.len(), 2);
    let check = |o: RunOutcome| o.result.sentinel.expect("every scenario yields a check");
    outcomes.into_iter().map(check).collect()
}

#[test]
fn real_runs_are_clean_and_identical_at_any_worker_count() {
    let serial = checks_at(1);
    for check in &serial {
        assert!(
            check.violations.is_empty(),
            "scenario {:?} violated invariants:\n{}",
            check.label,
            check
                .violations
                .iter()
                .map(|v| format!("{v:?}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            check.warnings.is_empty(),
            "scenario {:?} has vocabulary warnings: {:?}",
            check.label,
            check.warnings
        );
        assert!(check.events > 0, "the checker must have seen events");
    }
    // The chaos scenario actually exercised the recovery protocol.
    let recovery = &serial[1];
    assert!(recovery.counters.recoveries > 0 || recovery.counters.degrades > 0);
    assert!(recovery.counters.kills > 0);

    let report = SentinelReport::from_checks(false, serial.clone());
    let doc = report.to_json().render();
    for workers in [2, 8] {
        let parallel = checks_at(workers);
        let parallel_doc = SentinelReport::from_checks(false, parallel)
            .to_json()
            .render();
        assert_eq!(
            doc, parallel_doc,
            "worker count {workers} changed the sentinel report"
        );
    }
    let parsed = Json::parse(&doc).expect("report must parse");
    assert_eq!(parsed.render(), doc);
}

/// The most events any one virtual instant of `trace` holds — an upper bound
/// on what a single simulation step emits, since a step stamps every event
/// it emits with the same time.
fn max_events_per_instant(trace: &Trace) -> usize {
    let instants = trace.events.chunk_by(|a, b| a.at == b.at);
    instants.map(<[_]>::len).max().unwrap_or(0)
}

#[test]
fn online_consumers_without_trace_free_each_step_and_match_the_replay() {
    let e = BurstExperiment::new(AppKind::Thumbnail, Strategy::BeeHiveOpenWhisk)
        .horizon_secs(10)
        .burst_at_secs(3)
        .seed(11);
    let mut cfg = e.config();
    cfg.sentinel = true;
    cfg.observe = true;

    // The reference: the same run retaining its trace, replayed offline.
    cfg.trace = true;
    let trace = Sim::new(cfg.clone()).run().trace.expect("trace");
    let mut checker = beehive_sentinel::Sentinel::new(beehive_sentinel::SentinelConfig {
        max_retries: Some(beehive_chaos::RetryPolicy::default().max_retries),
        ..Default::default()
    });
    trace.events.iter().for_each(|e| checker.feed(e));
    let check = SentinelReport::from_checks(false, vec![checker.finish("x".into())]);
    let (bound, total) = (max_events_per_instant(&trace), trace.events.len());
    let timeline = TimelineDoc::from_traces(&[("x".into(), trace)], cfg.observe_window);

    cfg.trace = false;
    let result = Sim::new(cfg).run();
    assert!(
        result.trace.is_none(),
        "online consumers alone must not keep a trace"
    );
    // This thread's recorder was pumped empty between simulation steps: it
    // never held more than one virtual instant's events, let alone the trace.
    let peak = beehive_telemetry::peak_buffered();
    assert!(
        0 < peak && peak <= bound && bound < total / 100,
        "recorder peaked at {peak} events; one instant holds at most {bound} of {total}"
    );
    // Freeing the events changed nothing either consumer saw.
    let mut online = result.sentinel.expect("checker result");
    assert!(online.violations.is_empty(), "{:?}", online.violations);
    online.label = "x".into();
    let online = SentinelReport::from_checks(false, vec![online]);
    assert_eq!(online.to_json().render(), check.to_json().render());
    let mut series = result.observatory.expect("timeline result");
    series.label = "x".into();
    let series = TimelineDoc::from_series(vec![series]);
    assert_eq!(series.to_json().render(), timeline.to_json().render());
}

#[test]
fn online_check_matches_offline_replay_of_the_same_trace() {
    let e = BurstExperiment::new(AppKind::Pybbs, Strategy::BeeHiveOpenWhisk)
        .horizon_secs(12)
        .burst_at_secs(4)
        .seed(3);
    let mut cfg = e.config();
    cfg.trace = true;
    cfg.sentinel = true;
    let result = Sim::new(cfg).run();
    let online = result.sentinel.expect("online check");
    let trace = result.trace.expect("trace");

    let mut offline = beehive_sentinel::Sentinel::new(beehive_sentinel::SentinelConfig {
        max_retries: Some(beehive_chaos::RetryPolicy::default().max_retries),
        ..Default::default()
    });
    for e in &trace.events {
        offline.feed(e);
    }
    let offline = offline.finish(String::new());
    assert_eq!(online, offline, "online and replay checks must agree");
}
