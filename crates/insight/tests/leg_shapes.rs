//! A fixed-length residence leg reads the same to every consumer whether it
//! is recorded as a `Begin`/`End` pair or as one `Complete`.
//!
//! Seeded streams of interleaved requests are written twice, identical but
//! for the shape of their fixed-length legs (`wait:net`, `wait:function_cpu`
//! and the fallback legs) and database rounds, and each form is folded into
//! request timelines, their phase tables, the attribution and summary
//! documents and the metrics registry. Pooled residences, fallback spans,
//! instants, a server request's `db:round` (an instant with no arguments
//! on the database track) and legs still open when the stream stops keep
//! their shape in both forms.

use beehive_insight::AttributionFold;
use beehive_metrics::MetricsFold;
use beehive_sim::{Duration, Rng, SimTime};
use beehive_telemetry::summary::{replay, Consumer, RequestTimeline, SummaryFold, TimelineBuilder};
use beehive_telemetry::{EventKind, EventName as N, TraceEvent, Track};

/// The residences whose length is known when the request parks.
const LEGS: [N; 5] = [
    N::WaitNet,
    N::WaitNetFb,
    N::WaitFunctionCpu,
    N::WaitFunctionCpuFb,
    N::WaitServerCpuFb,
];

/// One event of a request's script, before the streams are merged: its
/// time, a tie-breaker that keeps the script's order, and the event.
type Scripted = (u64, u64, TraceEvent);

/// Both shapes of the streams being written.
#[derive(Default)]
struct Shapes {
    seq: u64,
    pairs: Vec<Scripted>,
    completes: Vec<Scripted>,
}

impl Shapes {
    fn push(&mut self, at: u64, track: Track, name: N, kind: EventKind) -> Scripted {
        self.seq += 1;
        (
            at,
            self.seq,
            TraceEvent::new(SimTime::from_nanos(at), track, name, kind, &[]),
        )
    }

    /// An event both shapes record alike.
    fn both(&mut self, at: u64, track: Track, name: N, kind: EventKind) {
        let e = self.push(at, track, name, kind);
        self.pairs.push(e);
        self.completes.push(e);
    }

    /// A fixed-length leg of `d` ns from `at`: a pair, or one `Complete`.
    fn leg(&mut self, at: u64, d: u64, track: Track, name: N) {
        let begin = self.push(at, track, name, EventKind::Begin);
        self.pairs.push(begin);
        let leg = EventKind::Complete(Duration::from_nanos(d));
        self.completes.push((
            at,
            begin.1,
            TraceEvent {
                kind: leg,
                ..begin.2
            },
        ));
        let end = self.push(at + d, track, name, EventKind::End);
        self.pairs.push(end);
    }

    /// One request's script, from `now`.
    fn request(&mut self, rng: &mut Rng, rid: u64, mut now: u64) {
        let track = Track::Request(rid);
        let session = [N::ReqOffload, N::ReqServer, N::ReqShadow][rng.gen_range(3) as usize];
        self.both(now, track, session, EventKind::Begin);
        let steps = 1 + rng.gen_range(12);
        for step in 0..steps {
            now += rng.gen_range(4_000);
            let d = rng.gen_range(90_000);
            match rng.gen_range(6) {
                0..=2 => {
                    let name = if rng.chance(0.3) {
                        N::WaitDb
                    } else {
                        LEGS[rng.gen_range(LEGS.len() as u64) as usize]
                    };
                    if step + 1 == steps && rng.chance(0.2) {
                        // The stream stops inside this leg: a span that
                        // never closes, in both shapes.
                        return self.both(now, track, name, EventKind::Begin);
                    }
                    let fallback = matches!(name, N::WaitNetFb | N::WaitServerCpuFb);
                    if fallback {
                        self.both(now, track, N::FallbackData, EventKind::Begin);
                    }
                    self.leg(now, d, track, name);
                    now += d;
                    if fallback {
                        self.both(now, track, N::FallbackData, EventKind::End);
                    }
                }
                3 => {
                    let name = [N::WaitServerCpu, N::WaitLock][rng.gen_range(2) as usize];
                    self.both(now, track, name, EventKind::Begin);
                    now += d;
                    self.both(now, track, name, EventKind::End);
                }
                4 => {
                    let name = [N::Block, N::Snapshot][rng.gen_range(2) as usize];
                    self.both(now, track, name, EventKind::Instant);
                }
                _ => {
                    let wait = EventKind::Complete(Duration::from_nanos(d / 8));
                    self.both(now, track, N::BootWait, wait);
                }
            }
        }
        if rng.chance(0.9) {
            self.both(now + rng.gen_range(3_000), track, session, EventKind::End);
        }
    }
}

/// A seeded scenario in both shapes, each merged into one stream in time
/// order, with an endpoint GC pause and a server request's database round
/// now and then, and how many such rounds there are.
fn streams(seed: u64) -> (Vec<TraceEvent>, Vec<TraceEvent>, u64) {
    let mut rng = Rng::new(seed);
    let mut shapes = Shapes::default();
    let requests = 1 + rng.gen_range(24);
    for rid in 0..requests {
        let start = rng.gen_range(400_000);
        shapes.request(&mut rng, rid, start);
        let pause = EventKind::Complete(Duration::from_nanos(rng.gen_range(5_000)));
        shapes.both(start, Track::Server, N::Gc, pause);
        let round = start + rng.gen_range(9_000);
        shapes.both(round, Track::Db, N::DbRound, EventKind::Instant);
    }
    let merged = |mut v: Vec<Scripted>| {
        v.sort_by_key(|&(at, seq, _)| (at, seq));
        v.into_iter().map(|(_, _, e)| e).collect::<Vec<_>>()
    };
    (merged(shapes.pairs), merged(shapes.completes), requests)
}

/// Everything the consumers derive from one stream.
#[derive(Debug, PartialEq)]
struct Derived {
    timelines: Vec<RequestTimeline>,
    phases: Vec<Vec<(&'static str, (u64, u64))>>,
    attribution: String,
    summary: String,
    metrics: String,
    fallbacks: u64,
    db_rounds_function: u64,
    db_rounds_server: u64,
}

fn derive(events: &[TraceEvent]) -> Derived {
    let mut builder = TimelineBuilder::new();
    let mut timelines = Vec::new();
    let (mut attribution, mut summary) = (AttributionFold::new(4), SummaryFold::default());
    let mut metrics = MetricsFold::new(Duration::from_micros(50));
    replay(events, &mut |e: &TraceEvent, arrival| {
        attribution.event(e);
        summary.event(e);
        metrics.event(e, arrival);
        timelines.extend(builder.feed(e, arrival));
    });
    timelines.extend(builder.finish());
    for t in &timelines {
        attribution.request(t);
        summary.request(t);
    }
    let metrics = metrics.finish().snapshot("legs");
    let counter = |name| metrics.counter(name).map_or(0, |c| c.total);
    Derived {
        phases: timelines
            .iter()
            .map(|t| t.phases().into_iter().collect())
            .collect(),
        attribution: attribution.finish("legs").to_json().render(),
        summary: summary.finish("legs").render(),
        fallbacks: counter("fallbacks"),
        db_rounds_function: counter("db_rounds_function"),
        db_rounds_server: counter("db_rounds_server"),
        metrics: format!("{metrics:?}"),
        timelines,
    }
}

#[test]
fn both_leg_shapes_derive_the_same_documents() {
    let (mut legs, mut fallbacks, mut rounds) = (0, 0, 0);
    for seed in 0..300 {
        let (pairs, completes, server_rounds) = streams(seed);
        legs += pairs.len() - completes.len();
        let derived = derive(&completes);
        fallbacks += derived.fallbacks;
        rounds += derived.db_rounds_function;
        // Every `db:round`, argument-free, is a server request's round.
        assert_eq!(derived.db_rounds_server, server_rounds, "seed {seed}");
        assert_eq!(derive(&pairs), derived, "seed {seed}");
    }
    assert!(legs > 1_000, "only {legs} legs changed shape");
    assert!(fallbacks > 100, "only {fallbacks} fallback legs counted");
    assert!(rounds > 300, "only {rounds} database rounds counted");
}
