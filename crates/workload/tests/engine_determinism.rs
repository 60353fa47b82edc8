//! Determinism regression: the parallel scenario engine must produce
//! byte-identical reports regardless of worker count. Same seed at 1, 2, and
//! 8 workers → the rendered report JSON matches exactly. And concurrent
//! callers of the engine each get back what their own scenarios produced.

use std::sync::Barrier;
use std::thread;

use beehive_apps::AppKind;
use beehive_sim::json::{Json, ToJson};
use beehive_workload::engine::{run_all_with_workers, Scenario};
use beehive_workload::experiment::fig7::BurstExperiment;
use beehive_workload::{Sim, SimConfig, Strategy};

/// Run two short burst experiments through the engine at the given worker
/// count and render the combined report.
fn report_at(workers: usize) -> String {
    let experiments: Vec<BurstExperiment> = [Strategy::Vanilla, Strategy::BeeHiveOpenWhisk]
        .into_iter()
        .map(|s| {
            BurstExperiment::new(AppKind::Pybbs, s)
                .horizon_secs(20)
                .burst_at_secs(5)
                .seed(42)
        })
        .collect();
    let scenarios: Vec<Scenario> = experiments
        .iter()
        .map(|e| Scenario::new(e.strategy().label(), e.config()))
        .collect();
    let outcomes = run_all_with_workers(scenarios, workers);
    let body = Json::Arr(
        experiments
            .iter()
            .zip(outcomes)
            .map(|(e, o)| e.report(o.result).to_json())
            .collect(),
    );
    let title = Json::from("determinism");
    Json::obj([("title".into(), title), ("body".into(), body)]).render()
}

#[test]
fn same_seed_is_byte_identical_at_any_worker_count() {
    let serial = report_at(1);
    assert!(serial.contains("\"title\":\"determinism\""));
    for workers in [2, 8] {
        let parallel = report_at(workers);
        assert_eq!(
            serial, parallel,
            "worker count {workers} changed the rendered report"
        );
    }
}

/// A short burst carrying every substrate whose output lands in the result.
fn observed(seed: u64) -> SimConfig {
    let e = BurstExperiment::new(AppKind::Thumbnail, Strategy::BeeHiveOpenWhisk)
        .horizon_secs(6)
        .burst_at_secs(2)
        .seed(seed);
    let mut cfg = e.config();
    cfg.sentinel = true;
    cfg.metrics = true;
    cfg.observe = true;
    cfg.profile = true;
    cfg
}

#[test]
fn concurrent_callers_each_get_their_own_outputs() {
    let both = Barrier::new(2);
    // Each caller runs its scenario alone first, for reference, then both
    // run theirs through the engine at once.
    let caller = |label: &str, seed: u64| {
        let alone = Sim::new(observed(seed)).run();
        both.wait();
        let scenario = Scenario::new(label, observed(seed));
        let mut outcomes = run_all_with_workers(vec![scenario], 1);
        let r = outcomes.pop().expect("one outcome").result;
        assert!(outcomes.is_empty());

        let check = r.sentinel.expect("the caller's check");
        assert_eq!(check.label, label);
        let mut reference = alone.sentinel.expect("a check");
        reference.label = label.to_string();
        assert_eq!(check, reference, "{label}: check");

        let series = r.observatory.expect("the caller's timeline");
        assert_eq!(series.label, label);
        assert_eq!(series.events, check.events, "{label}: timeline");

        let snapshot = r.metrics.expect("the caller's metrics").snapshot(label);
        let reference = alone.metrics.expect("metrics").snapshot(label);
        assert_eq!(snapshot, reference, "{label}: metrics");
        assert_eq!(r.profile, alone.profile, "{label}: profile");
        assert!(r.profile.is_some());
    };
    thread::scope(|s| {
        let a = s.spawn(|| caller("a", 1));
        let b = s.spawn(|| caller("b", 2));
        a.join().expect("caller a");
        b.join().expect("caller b");
    });
}
