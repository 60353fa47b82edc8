//! The streaming observatory on real simulations: timelines come back from
//! serial and parallel runs byte-identically, the derived scale-up lag is
//! finite, and the online reducer agrees with an offline trace replay.

use beehive_apps::{App, AppKind, Fidelity};
use beehive_chaos::{keyed, Fault, FaultPlan, Injector};
use beehive_observatory::{ScenarioSeries, TimelineDoc};
use beehive_sim::json::ToJson;
use beehive_sim::Duration;
use beehive_workload::driver::{ArrivalPattern, Sim, SimConfig};
use beehive_workload::engine::{run_all_with_workers, RunOutcome, Scenario};
use beehive_workload::experiment::fig7::BurstExperiment;
use beehive_workload::Strategy;

/// A burst scenario plus a chaos-heavy recovery scenario, both observed
/// online, at the given worker count.
fn timelines_at(workers: usize) -> Vec<ScenarioSeries> {
    let burst = {
        let e = BurstExperiment::new(AppKind::Pybbs, Strategy::BeeHiveOpenWhisk)
            .horizon_secs(20)
            .burst_at_secs(5)
            .seed(42);
        let mut cfg = e.config();
        cfg.observe = true;
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
        cfg.observe = true;
        let window = Duration::from_secs(20);
        let mut plan = FaultPlan::new(keyed(9, "timeline-determinism"));
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
        cfg.faults = plan;
        Scenario::new("recovery", cfg)
    };
    let outcomes = run_all_with_workers(vec![burst, recovery], workers);
    assert_eq!(outcomes.len(), 2);
    let series = |o: RunOutcome| {
        o.result
            .observatory
            .expect("every scenario yields a timeline")
    };
    outcomes.into_iter().map(series).collect()
}

#[test]
fn timelines_are_identical_at_any_worker_count() {
    let serial = timelines_at(1);
    for s in &serial {
        assert!(
            s.events > 0,
            "{}: the observer must have seen events",
            s.label
        );
        assert!(s.bins() > 0, "{}: no bins sealed", s.label);
        assert!(
            !s.signals.is_empty(),
            "{}: every run has at least the run-start onset",
            s.label
        );
        for sig in &s.signals {
            assert!(
                sig.lag_ns.is_some(),
                "{}: the burst at {}ns never settled",
                s.label,
                sig.onset_ns
            );
        }
    }
    // The burst scenario's mid-run rate step was detected alongside the
    // implicit run-start onset.
    assert_eq!(serial[0].label, "burst");
    assert!(serial[0].signals.len() >= 2, "{:?}", serial[0].signals);

    let doc = TimelineDoc::from_series(serial);
    let (json, text, svg) = (doc.to_json().render(), doc.render_text(), doc.render_svg());
    for workers in [2, 8] {
        let par = TimelineDoc::from_series(timelines_at(workers));
        assert_eq!(json, par.to_json().render(), "workers {workers}: json");
        assert_eq!(text, par.render_text(), "workers {workers}: text");
        assert_eq!(svg, par.render_svg(), "workers {workers}: svg");
    }
    // The JSON artifact round-trips through the parser.
    let parsed = TimelineDoc::parse(&json).expect("timeline document parses");
    assert_eq!(parsed.to_json().render(), json);
}

#[test]
fn observe_without_trace_reduces_and_frees_the_events_step_by_step() {
    let e = BurstExperiment::new(AppKind::Thumbnail, Strategy::BeeHiveOpenWhisk)
        .horizon_secs(10)
        .burst_at_secs(3)
        .seed(11);
    let mut cfg = e.config();
    cfg.trace = false;
    cfg.observe = true;
    let result = Sim::new(cfg).run();
    assert!(
        result.trace.is_none(),
        "the observer alone must not keep a trace"
    );
    let series = result.observatory.expect("timeline result");
    assert!(series.bins() > 0);
    // The recorder on this thread handed every event to the observer and
    // freed it before the next simulation step: what it held at once is a
    // sliver of what it recorded.
    let peak = beehive_telemetry::peak_buffered() as u64;
    assert!(
        0 < peak && peak < series.events / 100,
        "recorder peaked at {peak} of {} events",
        series.events
    );
}

#[test]
fn online_reduction_matches_offline_replay_of_the_same_trace() {
    let e = BurstExperiment::new(AppKind::Pybbs, Strategy::BeeHiveOpenWhisk)
        .horizon_secs(12)
        .burst_at_secs(4)
        .seed(3);
    let mut cfg = e.config();
    cfg.trace = true;
    cfg.observe = true;
    let result = Sim::new(cfg).run();
    let mut online = result.observatory.expect("online timeline");
    online.label = "replay".to_string();
    let trace = result.trace.expect("trace");

    let offline = TimelineDoc::from_traces(
        &[("replay".to_string(), trace)],
        beehive_observatory::DEFAULT_WINDOW,
    );
    assert_eq!(
        offline.scenarios,
        vec![online],
        "streaming and replay timelines must agree"
    );
}
