//! Mutation-test harness: every invariant class must fire.
//!
//! Each test takes a minimal *legal* event stream, applies exactly one
//! targeted mutation — drop an `end`, double-apply a completion, hop the
//! lifecycle machine illegally, and so on — and asserts the sentinel names
//! the mutated invariant and pinpoints it with a non-empty K-event window
//! ending at the offender. The legal baseline itself must check clean, so
//! every failure here is attributable to the mutation alone.

use beehive_sentinel::{
    Invariant, ScenarioCheck, Sentinel, SentinelConfig, SentinelReport, Violation,
};
use beehive_sim::{Duration, SimTime};
use beehive_telemetry::{Arg, EventKind, EventName, TraceEvent, Track};

fn at(us: u64) -> SimTime {
    SimTime::ZERO + Duration::from_micros(us)
}

/// A minimal legal offload: decision, dispatch, cold boot, session with a
/// residence span and a dirty-set sync, completion, release.
fn legal_offload() -> Vec<TraceEvent> {
    vec![
        TraceEvent::new(
            at(1),
            Track::Server,
            "offload:decision",
            EventKind::Instant,
            &[("offload", Arg::Bool(true)), ("engaged", Arg::Bool(true))],
        ),
        TraceEvent::new(
            at(1),
            Track::Server,
            "offload:dispatch",
            EventKind::Instant,
            &[("outcome", Arg::Str("spawn"))],
        ),
        TraceEvent::new(
            at(1),
            Track::Instance(0),
            "instance:cold_boot",
            EventKind::Instant,
            &[("boot_us", Arg::UInt(500))],
        ),
        TraceEvent::new(
            at(1),
            Track::Instance(0),
            "boot",
            EventKind::Begin,
            &[("cold", Arg::Bool(true))],
        ),
        TraceEvent::new(at(501), Track::Instance(0), "boot", EventKind::End, &[]),
        TraceEvent::new(
            at(501),
            Track::Instance(0),
            "instance:ready",
            EventKind::Instant,
            &[],
        ),
        TraceEvent::new(
            at(501),
            Track::Request(7),
            "req:offload",
            EventKind::Begin,
            &[("instance", Arg::UInt(0)), ("warm", Arg::Bool(false))],
        ),
        TraceEvent::new(
            at(510),
            Track::Request(7),
            "wait:function_cpu",
            EventKind::Begin,
            &[],
        ),
        TraceEvent::new(
            at(540),
            Track::Request(7),
            "wait:function_cpu",
            EventKind::End,
            &[],
        ),
        TraceEvent::new(
            at(545),
            Track::Request(7),
            "sync:pull_dirty",
            EventKind::Instant,
            &[("objects", Arg::UInt(3)), ("bytes", Arg::UInt(96))],
        ),
        TraceEvent::new(
            at(550),
            Track::Request(7),
            "req:offload",
            EventKind::End,
            &[],
        ),
        TraceEvent::new(
            at(550),
            Track::Instance(0),
            "instance:release",
            EventKind::Instant,
            &[("busy_us", Arg::UInt(49))],
        ),
    ]
}

fn check_with(events: &[TraceEvent], cfg: SentinelConfig) -> ScenarioCheck {
    let mut s = Sentinel::new(cfg);
    for e in events {
        s.feed(e);
    }
    s.finish("mutated".to_string())
}

fn check(events: &[TraceEvent]) -> ScenarioCheck {
    check_with(events, SentinelConfig::default())
}

/// The mutated stream must produce at least one violation of `invariant`,
/// with a non-empty pinpointing window; returns it for further assertions.
fn must_fire(c: &ScenarioCheck, invariant: Invariant) -> Violation {
    assert!(
        !c.violations.is_empty(),
        "{}: the mutation went undetected",
        invariant.name()
    );
    let v = c
        .violations
        .iter()
        .find(|v| v.invariant == invariant)
        .unwrap_or_else(|| {
            panic!(
                "{}: expected invariant, got {:?}",
                invariant.name(),
                c.violations
            )
        });
    assert!(
        !v.window.is_empty(),
        "{}: violation carries no pinpointing window",
        invariant.name()
    );
    assert!(!v.track.is_empty());
    v.clone()
}

#[test]
fn the_baseline_is_legal() {
    let c = check(&legal_offload());
    assert_eq!(
        c.violations,
        vec![],
        "mutations must start from a clean stream"
    );
    assert!(c.warnings.is_empty());
}

#[test]
fn mutation_time_regression_fires_time_monotonic() {
    let mut events = legal_offload();
    // Rewind the clock mid-stream.
    events[8].at = SimTime::ZERO + Duration::from_micros(5);
    let v = must_fire(&check(&events), Invariant::TimeMonotonic);
    assert!(v.message.contains("backwards"), "{v:?}");
}

#[test]
fn mutation_end_without_begin_fires_span_nesting() {
    let mut events = legal_offload();
    // Drop the residence span's begin; its end now closes nothing.
    events.remove(7);
    let v = must_fire(&check(&events), Invariant::SpanNesting);
    assert!(v.message.contains("wait:function_cpu"), "{v:?}");
    assert!(v.window.last().unwrap().contains("wait:function_cpu"));
}

/// The baseline with its `wait:function_cpu` span recorded as one
/// fixed-length leg of `d` µs starting where the span began.
fn with_leg(d: u64) -> Vec<TraceEvent> {
    let mut events = legal_offload();
    let (begin, _end) = (events[7], events.remove(8));
    events[7] = TraceEvent::new(
        begin.at,
        begin.track,
        begin.name,
        EventKind::Complete(Duration::from_micros(d)),
        &[],
    );
    events
}

#[test]
fn mutation_overlapping_legs_fire_span_nesting() {
    assert_eq!(check(&with_leg(30)).violations, vec![], "a leg is legal");
    let mut events = with_leg(30);
    // A second leg starting at 520 µs, inside the first (510–540 µs): the
    // request parked on two resources at once.
    events.insert(
        8,
        TraceEvent::new(
            at(520),
            Track::Request(7),
            "wait:net",
            EventKind::Complete(Duration::from_micros(5)),
            &[],
        ),
    );
    let v = must_fire(&check(&events), Invariant::SpanNesting);
    assert!(v.message.contains("wait:net"), "{v:?}");
    assert_eq!(v.track, "req:7");
    assert!(v.window.last().unwrap().contains("wait:net"));
}

#[test]
fn mutation_session_end_inside_a_leg_fires_session_protocol() {
    // The leg runs 510–570 µs; the session ends at 550 µs, inside it.
    let v = must_fire(&check(&with_leg(60)), Invariant::SessionProtocol);
    assert!(v.message.contains("req:offload"), "{v:?}");
    assert_eq!(v.track, "req:7");
    assert!(v.window.last().unwrap().contains("req:offload"));
}

#[test]
fn mutation_dropped_session_end_fires_session_protocol() {
    let mut events = legal_offload();
    // Drop the session end: the instance is released while req:7's session
    // is still open — the hole a lost completion event leaves.
    events.retain(|e| !(e.name == "req:offload" && e.kind == EventKind::End));
    let v = must_fire(&check(&events), Invariant::SessionProtocol);
    assert!(v.message.contains("req:7"), "{v:?}");
    assert_eq!(v.track, "inst:0");
}

#[test]
fn mutation_double_applied_completion_fires_exactly_once() {
    let mut events = legal_offload();
    // Re-apply the completion: the session ends twice, the double-applied
    // write of the recovery protocol's §4.5 exactly-once guarantee.
    let end = events[10];
    assert_eq!(end.name, "req:offload");
    events.insert(11, end);
    let v = must_fire(&check(&events), Invariant::ExactlyOnce);
    assert!(v.message.contains("completed twice"), "{v:?}");
    assert_eq!(v.track, "req:7");
}

#[test]
fn mutation_dispatch_without_decision_fires_offload_conservation() {
    let mut events = legal_offload();
    events.remove(0); // drop the decision; the dispatch is now orphaned
    let v = must_fire(&check(&events), Invariant::OffloadConservation);
    assert!(v.message.contains("without an offload decision"), "{v:?}");
}

#[test]
fn mutation_undispatched_decision_fires_offload_conservation() {
    let mut events = legal_offload();
    events.remove(1); // drop the dispatch; the decision never terminates
    let v = must_fire(&check(&events), Invariant::OffloadConservation);
    assert!(v.message.contains("never dispatched"), "{v:?}");
}

#[test]
fn mutation_illegal_lifecycle_hop_fires_lifecycle_legality() {
    let mut events = legal_offload();
    // Idle → ready is not an edge of the machine (ready only follows a
    // boot): replay the ready after the release.
    events.push(TraceEvent::new(
        at(560),
        Track::Instance(0),
        "instance:ready",
        EventKind::Instant,
        &[],
    ));
    let v = must_fire(&check(&events), Invariant::LifecycleLegality);
    assert!(v.message.contains("instance:ready"), "{v:?}");
    assert!(v.message.contains("idle"), "{v:?}");
    assert!(v.window.last().unwrap().contains("instance:ready"));
}

#[test]
fn mutation_activity_on_dead_instance_fires_lifecycle_legality() {
    let mut events = legal_offload();
    events.push(TraceEvent::new(
        at(560),
        Track::Instance(0),
        "instance:kill",
        EventKind::Instant,
        &[],
    ));
    events.push(TraceEvent::new(
        at(570),
        Track::Instance(0),
        "instance:warm_start",
        EventKind::Instant,
        &[],
    ));
    let v = must_fire(&check(&events), Invariant::LifecycleLegality);
    assert!(v.message.contains("dead"), "{v:?}");
}

#[test]
fn mutation_session_on_unbooted_instance_fires_lifecycle_legality() {
    let events = vec![TraceEvent::new(
        at(10),
        Track::Request(3),
        "req:offload",
        EventKind::Begin,
        &[("instance", Arg::UInt(9)), ("warm", Arg::Bool(true))],
    )];
    let v = must_fire(&check(&events), Invariant::LifecycleLegality);
    assert!(v.message.contains("activation without boot"), "{v:?}");
}

#[test]
fn mutation_bytes_without_objects_fires_handoff_conservation() {
    let mut events = legal_offload();
    // Ship bytes for zero objects: the dirty-set accounting can't balance.
    events[9] = TraceEvent::new(
        at(545),
        Track::Request(7),
        "sync:pull_dirty",
        EventKind::Instant,
        &[("objects", Arg::UInt(0)), ("bytes", Arg::UInt(96))],
    );
    let v = must_fire(&check(&events), Invariant::HandoffConservation);
    assert!(v.message.contains("96 bytes"), "{v:?}");
}

#[test]
fn mutation_non_increasing_attempt_fires_recovery_protocol() {
    let track = Track::Request(5);
    let events = vec![
        TraceEvent::new(
            at(10),
            track,
            "recovery",
            EventKind::Begin,
            &[("attempt", Arg::UInt(2))],
        ),
        TraceEvent::new(at(20), track, "recovery", EventKind::End, &[]),
        TraceEvent::new(
            at(30),
            track,
            "recovery",
            EventKind::Begin,
            &[("attempt", Arg::UInt(2))], // must be 3
        ),
        TraceEvent::new(at(40), track, "recovery", EventKind::End, &[]),
    ];
    let v = must_fire(&check(&events), Invariant::RecoveryProtocol);
    assert!(v.message.contains("did not increase"), "{v:?}");
}

#[test]
fn mutation_premature_degrade_fires_recovery_protocol() {
    let track = Track::Request(5);
    let events = vec![
        TraceEvent::new(
            at(10),
            track,
            "recovery",
            EventKind::Begin,
            &[("attempt", Arg::UInt(1))],
        ),
        TraceEvent::new(at(20), track, "recovery", EventKind::End, &[]),
        // Degrading after attempt 1 with max_retries=3 abandons budgeted
        // retries.
        TraceEvent::new(at(30), track, "recovery:degrade", EventKind::Instant, &[]),
    ];
    let cfg = SentinelConfig {
        max_retries: Some(3),
        ..Default::default()
    };
    let v = must_fire(&check_with(&events, cfg), Invariant::RecoveryProtocol);
    assert!(v.message.contains("still budgeted"), "{v:?}");
}

#[test]
fn mutation_reexecution_outside_recovery_fires_recovery_protocol() {
    let mut events = legal_offload();
    // OffloadSession::recover's instant with no enclosing recovery span.
    events.insert(
        9,
        TraceEvent::new(
            at(542),
            Track::Request(7),
            "recovery",
            EventKind::Instant,
            &[("from", Arg::UInt(0)), ("to", Arg::UInt(1))],
        ),
    );
    let v = must_fire(&check(&events), Invariant::RecoveryProtocol);
    assert!(v.message.contains("outside a recovery span"), "{v:?}");
}

#[test]
fn mutation_unknown_event_is_a_warning_and_a_strict_violation() {
    let mut events = legal_offload();
    events.push(TraceEvent::new(
        at(560),
        Track::Request(99),
        "not:a:real:event",
        EventKind::Instant,
        &[],
    ));
    // Seen again elsewhere, it is still one finding: the first sighting.
    events.push(TraceEvent::new(
        at(570),
        Track::Sim,
        "not:a:real:event",
        EventKind::Counter(1),
        &[],
    ));
    assert_eq!(
        events[events.len() - 1].name,
        EventName::Other("not:a:real:event")
    );
    let c = check(&events);
    assert!(c.violations.is_empty());
    assert_eq!(c.warnings.len(), 1);
    assert!(c.warnings[0].contains("not:a:real:event"));

    // Escalation is the report's: the same check, read strictly.
    let strict = SentinelReport::from_checks(true, vec![c]);
    let c = &strict.scenarios[0];
    assert!(c.warnings.is_empty(), "{:?}", c.warnings);
    let v = must_fire(c, Invariant::Vocabulary);
    assert!(v.message.contains("not:a:real:event"), "{v:?}");
    assert_eq!((v.track.as_str(), v.at_ns), ("req:99", 560_000));
    assert!(v.window.last().unwrap().contains("not:a:real:event"));
}

#[test]
fn observability_instants_are_known_vocabulary() {
    // The timeline substrate's probes — burst-handler routing, scaled-pool
    // depth, and arrival-rate step onsets — must pass the strict vocabulary
    // gate without warnings.
    let mut events = legal_offload();
    events.push(TraceEvent::new(
        at(560),
        Track::Server,
        "burst:route",
        EventKind::Instant,
        &[("route", Arg::Str("primary"))],
    ));
    events.push(TraceEvent::new(
        at(561),
        Track::Sim,
        "pool:depth",
        EventKind::Instant,
        &[("pool", Arg::UInt(1)), ("depth", Arg::UInt(3))],
    ));
    events.push(TraceEvent::new(
        at(562),
        Track::Sim,
        "burst:onset",
        EventKind::Instant,
        &[("mrps_from", Arg::UInt(1000)), ("mrps_to", Arg::UInt(4000))],
    ));
    // Server and function collections, timed by the collector.
    for track in [Track::Server, Track::Instance(0)] {
        let pause = EventKind::Complete(Duration::from_micros(3));
        events.push(TraceEvent::new(at(563), track, "gc", pause, &[]));
    }
    let strict = SentinelReport::from_checks(true, vec![check(&events)]);
    let c = &strict.scenarios[0];
    assert!(c.violations.is_empty(), "{:?}", c.violations);
    assert!(c.warnings.is_empty(), "{:?}", c.warnings);
}
