//! The event vocabulary against real runs: every event the simulator emits
//! is legal on the track and as the kind it is emitted as, between them a
//! handful of short scenarios emit every name of the vocabulary that a run
//! can reach, and every fixed-length residence leg and database round is
//! one `Complete` unless the run stops before it ends.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use beehive_apps::{App, AppKind, Fidelity};
use beehive_chaos::{keyed, Fault, FaultPlan, Injector, RetryPolicy};
use beehive_scaling::ScalingKind;
use beehive_sim::{Duration, SimTime};
use beehive_telemetry::{self as tele, EventKind, EventName, Trace, Track};
use beehive_workload::driver::{ArrivalPattern, Sim, SimConfig};
use beehive_workload::experiment::base_rate;
use beehive_workload::experiment::fig7::BurstExperiment;
use beehive_workload::Strategy;

/// A run's trace and its horizon; `None` for a simulation that was built
/// but never run.
type Run = (Trace, Option<SimTime>);

fn traced(mut cfg: SimConfig) -> Run {
    cfg.trace = true;
    let horizon = SimTime::ZERO + cfg.horizon;
    let trace = Sim::new(cfg).run().trace.expect("trace retained");
    (trace, Some(horizon))
}

/// A burst against the combined strategy on an instance that needs no
/// provisioning: a scaled pool, burst routing, cold boots with shadow runs.
fn burst() -> Run {
    let e = BurstExperiment::new(AppKind::Pybbs, Strategy::Combined(ScalingKind::Burstable))
        .horizon_secs(14)
        .burst_at_secs(4)
        .seed(7);
    traced(e.config())
}

/// What building a simulation emits: the platform prewarms instances before
/// `run` arms its own recorder.
fn prewarm() -> Run {
    let app = App::build(AppKind::Thumbnail, Fidelity::fast());
    let mut cfg = SimConfig::new(app, Strategy::BeeHiveOpenWhisk);
    cfg.prewarm_ready = 2;
    tele::install();
    drop(Sim::new(cfg));
    (tele::take().expect("recorder armed"), None)
}

/// A fully offloaded run under every fault kind, with recovery on and no
/// retry budget, so that crashed requests degrade to the server.
fn chaos() -> Run {
    let app = App::build(AppKind::Pybbs, Fidelity::fast());
    let mut cfg = SimConfig::new(app, Strategy::BeeHiveOpenWhisk);
    cfg.arrivals = ArrivalPattern::constant(40.0);
    cfg.horizon = Duration::from_secs(12);
    cfg.seed = 7;
    cfg.offload_ratio = 1.0;
    cfg.prewarm_ready = 4;
    cfg.beehive = cfg.beehive.with_recovery();
    let mut plan = FaultPlan::new(keyed(9, "vocabulary"));
    let timeout = Duration::from_millis(5);
    for (fault, per_sec) in [
        (Fault::InstanceCrash { selector: 0 }, 6.0),
        (Fault::BootFailure, 2.0),
        (Fault::RpcDrop { timeout }, 2.0),
        (Fault::RpcDelay { delay: timeout }, 2.0),
        (
            Fault::NetworkDegrade {
                factor: 2.0,
                duration: timeout,
            },
            1.0,
        ),
        (Fault::DbConnDrop { reconnect: timeout }, 1.0),
    ] {
        let (start, end) = (Duration::ZERO, cfg.horizon);
        plan.push(Injector::Rate {
            fault,
            per_sec,
            start,
            end,
        });
    }
    plan.policy = RetryPolicy::new(timeout, 0);
    cfg.faults = plan;
    traced(cfg)
}

/// Few instances serving many cold requests of every app: function-side
/// collections and code, data and static fallbacks; without the connection
/// proxy and packageable native state, database and native ones too.
fn collections(kind: AppKind, ablated: bool) -> Run {
    let app = App::build(kind, Fidelity::Scaled(4));
    let mut cfg = SimConfig::new(app, Strategy::BeeHiveOpenWhisk);
    if ablated {
        cfg.beehive = cfg.beehive.without_proxy().without_packageable();
    }
    cfg.arrivals = ArrivalPattern::constant(3.0);
    cfg.horizon = Duration::from_secs(8);
    cfg.offload_ratio = 1.0;
    cfg.prewarm_ready = 2;
    cfg.max_instances = 2;
    cfg.max_concurrent_boots = 2;
    traced(cfg)
}

/// A vanilla server under more load than it serves: admission rejections
/// and server-side collections.
fn overload() -> Run {
    let app = App::build(AppKind::Pybbs, Fidelity::fast());
    let rate = 4.0 * base_rate(&app);
    let mut cfg = SimConfig::new(app, Strategy::Vanilla);
    cfg.arrivals = ArrivalPattern::constant(rate);
    cfg.horizon = Duration::from_secs(4);
    traced(cfg)
}

/// Names no short run reaches, and why.
const UNREACHED: [(EventName, &str); 3] = [
    (
        EventName::WaitFunctionCpuFb,
        "function CPU is never a fallback leg",
    ),
    (EventName::SyncVolatile, "no app declares a volatile field"),
    (EventName::InstanceExpire, "the keep-alive is ten minutes"),
];

/// Every run above, once per test binary.
fn runs() -> &'static [Run] {
    static RUNS: OnceLock<Vec<Run>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let mut runs = vec![burst(), prewarm(), chaos(), overload()];
        for kind in [AppKind::Thumbnail, AppKind::Pybbs, AppKind::Blog] {
            runs.push(collections(kind, false));
        }
        runs.push(collections(AppKind::Pybbs, true));
        runs
    })
}

#[test]
fn every_name_is_emitted_and_legal_where_it_is_emitted() {
    let mut seen = BTreeSet::new();
    for e in runs().iter().flat_map(|(t, _)| &t.events) {
        let (name, track, kind) = (e.name, e.track, e.kind);
        assert!(name.legal(track, kind), "{name} as {kind:?} on {track:?}");
        seen.insert(name.name());
    }
    let unreached: Vec<_> = UNREACHED.iter().map(|(name, _)| *name).collect();
    let missing: Vec<_> = EventName::ALL
        .into_iter()
        .filter(|n| !seen.contains(n.name()) && !unreached.contains(n))
        .collect();
    assert!(missing.is_empty(), "never emitted: {missing:?}");
    let reached: Vec<_> = unreached
        .iter()
        .filter(|n| seen.contains(n.name()))
        .collect();
    assert!(reached.is_empty(), "emitted after all: {reached:?}");
}

/// The residences whose end is known when the request parks: the legs the
/// lifecycle schedules itself and the database rounds the FIFO completes.
const LEGS: [EventName; 6] = [
    EventName::WaitNet,
    EventName::WaitNetFb,
    EventName::WaitFunctionCpu,
    EventName::WaitFunctionCpuFb,
    EventName::WaitServerCpuFb,
    EventName::WaitDb,
];

#[test]
fn fixed_length_legs_are_one_complete_unless_the_run_stops_first() {
    let (mut completes, mut rounds, mut cut) = (0, 0, 0);
    for (trace, horizon) in runs() {
        let events = &trace.events;
        for (i, e) in events.iter().enumerate() {
            // An offloaded request's round is its `wait:db` leg alone; a
            // `db:round` marks a server request's and says nothing more.
            if e.name == EventName::DbRound {
                assert!(e.args.is_empty(), "{e:?}");
                assert_eq!((e.track, e.kind), (Track::Db, EventKind::Instant));
            }
            if !LEGS.contains(&e.name) {
                continue;
            }
            let horizon = horizon.expect("only a run parks a request");
            assert!(matches!(e.track, Track::Request(_)), "{e:?}");
            match e.kind {
                EventKind::Complete(d) => {
                    assert!(e.name.legal(e.track, e.kind), "{e:?}");
                    assert!(e.at + d <= horizon, "a leg past the horizon: {e:?}");
                    completes += 1;
                    rounds += usize::from(e.name == EventName::WaitDb);
                }
                EventKind::Begin => {
                    // Recorded as a span only because the run stopped before
                    // the leg ended: nothing closes it, and its request does
                    // nothing after it parked.
                    let mut later = events[i + 1..].iter().filter(|l| l.track == e.track);
                    assert!(
                        later.all(|l| l.at == e.at && l.kind != EventKind::End),
                        "{} at {:?} on {:?} was not the run's last word on its track: a \
                         fixed-length leg recorded as a span",
                        e.name,
                        e.at,
                        e.track
                    );
                    cut += 1;
                }
                _ => panic!("{e:?}: a fixed-length leg is a Complete or an unclosed Begin"),
            }
        }
    }
    assert!(completes > 0, "no run recorded a fixed-length leg");
    assert!(rounds > 0, "no run recorded a database round");
    assert!(
        cut > 0,
        "no run stopped inside a leg: the horizon rule went untested"
    );
}
