//! Chaos injector edge cases: degenerate fault plans must not perturb the
//! simulation.
//!
//! * A rate-0 plan schedules nothing, so the run is *byte-identical* to a
//!   fault-free run — trace included.
//! * A t=0 schedule finds no instances to crash (the fleet only spawns in
//!   response to offloads) and must leave every result untouched.
//! * A schedule entirely past the simulation end injects nothing and the
//!   `ChaosStats` stay zero.

use beehive_apps::{App, AppKind, Fidelity};
use beehive_chaos::{keyed, ChaosStats, Fault, FaultPlan, Injector};
use beehive_sim::Duration;
use beehive_telemetry::{Trace, TraceEvent, Track};
use beehive_workload::driver::{ArrivalPattern, Sim, SimConfig, SimResult};
use beehive_workload::Strategy;

fn base_cfg() -> SimConfig {
    let app = App::build(AppKind::Pybbs, Fidelity::fast());
    let mut cfg = SimConfig::new(app, Strategy::BeeHiveOpenWhisk);
    cfg.arrivals = ArrivalPattern::constant(40.0);
    cfg.horizon = Duration::from_secs(10);
    cfg.record_from = Duration::from_secs(2);
    cfg.seed = 13;
    cfg.offload_ratio = 1.0;
    cfg.trace = true;
    cfg
}

fn run_with(faults: FaultPlan) -> SimResult {
    let mut cfg = base_cfg();
    cfg.faults = faults;
    Sim::new(cfg).run()
}

fn assert_zero_chaos(stats: &ChaosStats) {
    assert_eq!(stats.crashes, 0);
    assert_eq!(stats.boot_failures, 0);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.degraded_to_server, 0);
    assert_eq!(stats.re_executed_ns, 0);
    assert_eq!(stats.recoveries(), 0);
}

fn assert_same_outcome(a: &SimResult, b: &SimResult) {
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.offloaded, b.offloaded);
    assert_eq!(a.shadows, b.shadows);
    assert_eq!(a.boots, b.boots);
    assert_eq!(a.instances, b.instances);
    assert_eq!(a.end, b.end);
}

#[test]
fn rate_zero_plan_is_byte_identical_to_fault_free() {
    let clean = run_with(FaultPlan::default());

    let mut plan = FaultPlan::new(keyed(17, "rate-zero"));
    for fault in [
        Fault::InstanceCrash { selector: 0 },
        Fault::BootFailure,
        Fault::RpcDrop {
            timeout: Duration::from_millis(5),
        },
    ] {
        plan.push(Injector::Rate {
            fault,
            per_sec: 0.0,
            start: Duration::ZERO,
            end: Duration::from_secs(10),
        });
    }
    let zeroed = run_with(plan);

    // Rate 0 emits no fault events at all, so even the event-queue gauges
    // agree: the traces must match byte for byte.
    assert_eq!(
        clean.trace, zeroed.trace,
        "a rate-0 plan perturbed the recorded trace"
    );
    assert_same_outcome(&clean, &zeroed);
    assert_zero_chaos(&zeroed.chaos);
}

/// Everything but the Sim-track `event_queue` gauge, which counts pending
/// simulator events and therefore *does* see a scheduled fault sitting in
/// the queue even when the fault itself is a no-op.
fn without_queue_gauge(trace: &Trace) -> Vec<TraceEvent> {
    trace
        .events
        .iter()
        .filter(|e| !(e.track == Track::Sim && e.name == "event_queue"))
        .cloned()
        .collect()
}

#[test]
fn t0_schedule_with_no_instances_is_a_noop() {
    let clean = run_with(FaultPlan::default());

    // At t=0 the fleet is empty (no prewarm, offloads haven't spawned
    // anything yet), so a scheduled crash finds no victim and must change
    // nothing.
    let mut plan = FaultPlan::new(keyed(17, "t0"));
    plan.push(Injector::Schedule(vec![(
        Duration::ZERO,
        Fault::InstanceCrash { selector: 0 },
    )]));
    let t0 = run_with(plan);

    assert_eq!(
        without_queue_gauge(clean.trace.as_ref().unwrap()),
        without_queue_gauge(t0.trace.as_ref().unwrap()),
        "a no-op t=0 crash changed recorded behaviour"
    );
    assert_same_outcome(&clean, &t0);
    assert_zero_chaos(&t0.chaos);
}

#[test]
fn schedule_past_the_horizon_injects_nothing() {
    let clean = run_with(FaultPlan::default());

    let mut plan = FaultPlan::new(keyed(17, "late"));
    plan.push(Injector::Schedule(vec![
        (
            Duration::from_secs(11),
            Fault::InstanceCrash { selector: 3 },
        ),
        (Duration::from_secs(60), Fault::BootFailure),
    ]));
    let late = run_with(plan);

    // The fault events sit in the queue (visible to the queue gauge) but
    // the horizon cuts the loop before they fire: no chaos telemetry, no
    // stats, identical outcomes.
    let events = without_queue_gauge(late.trace.as_ref().unwrap());
    assert!(
        events.iter().all(|e| !e.name.name().starts_with("chaos:")),
        "a past-horizon schedule still emitted chaos events"
    );
    assert_eq!(
        without_queue_gauge(clean.trace.as_ref().unwrap()),
        events,
        "a past-horizon schedule changed recorded behaviour"
    );
    assert_same_outcome(&clean, &late);
    assert_zero_chaos(&late.chaos);
}
