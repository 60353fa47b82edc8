//! Per-request critical-path summary.
//!
//! Folds a trace down to the table the evaluation sections of the paper are
//! built from: where did each request's latency go (CPU, network, database,
//! fallbacks, synchronization), per scenario and for the slowest individual
//! requests. All durations are integer microseconds and all quantiles are
//! power-of-two bounds read from a [`LogLinearHistogram`], so the rendered
//! JSON is byte-stable — it is what `scripts/verify.sh` diffs against a
//! golden file.
//!
//! Every reader of arrivals is a [`Consumer`], handed each event with the
//! reading of the stream's one [`ArrivalTracker`]: the driver's pump runs it
//! online, [`replay`] over a retained trace. Request tracks have one reader,
//! the streaming [`TimelineBuilder`]: it hands out one [`RequestTimeline`]
//! per request — the closed span intervals, completes and instants in
//! recorded order — as soon as the request's session span closes, so its
//! state is the requests in flight. [`SummaryFold`] folds those timelines
//! (and the endpoint events) into this module's document, and
//! `beehive-insight` folds the same timelines into latency attributions and
//! SLO reports; `repro` feeds all of them from one builder while the
//! simulation runs, and [`critical_path`] / [`for_each_timeline`] drive the
//! same builder and fold over a retained [`Trace`].

use std::cmp::Reverse;
use std::collections::BTreeMap;

use beehive_sim::json::Json;
use beehive_sim::{Duration, FastMap, LogLinearHistogram, SimTime};

use crate::{EventKind, EventName, Trace, TraceEvent, Track};

/// One closed span on a request track: a `Begin`/`End` pair, or a
/// residence (`wait:*`) leg recorded as one `Complete`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanInterval {
    /// Span name, e.g. `wait:net` or `fallback:data`.
    pub name: EventName,
    /// Virtual time the span opened.
    pub begin: SimTime,
    /// Virtual time the span closed.
    pub end: SimTime,
}

impl SpanInterval {
    /// Wall (virtual) time the span covered.
    pub fn duration(&self) -> Duration {
        self.end.saturating_since(self.begin)
    }
}

/// Everything a trace recorded about one request, in recorded order.
///
/// Spans left open at the horizon are dropped (the request never finished
/// them); `End` events with no matching `Begin` are ignored, mirroring the
/// tolerance of the rendered summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestTimeline {
    /// Request id (the server-issued rid stamped on the track).
    pub rid: u64,
    /// Session kind (`req:server` / `req:offload` / `req:shadow`), when the
    /// request track carried one.
    pub kind: Option<EventName>,
    /// Virtual time the session span opened.
    pub start: SimTime,
    /// Virtual time the session span closed; `None` while in flight.
    pub end: Option<SimTime>,
    /// Virtual time the request arrived ([`ArrivalTracker`]); `None` while
    /// in flight.
    pub arrival: Option<SimTime>,
    /// A reroute carried `arrival` over from an abandoned track.
    pub carried: bool,
    /// Closed sub-spans, in close order (a residence `Complete` closes
    /// where it is recorded).
    pub spans: Vec<SpanInterval>,
    /// `Complete` events off the residences: `(name, start, duration)`.
    pub completes: Vec<(EventName, SimTime, Duration)>,
    /// `Instant` events: `(name, at)`.
    pub instants: Vec<(EventName, SimTime)>,
}

impl RequestTimeline {
    fn new(rid: u64) -> Self {
        RequestTimeline {
            rid,
            ..Self::default()
        }
    }

    /// Latency as the client sees it, from arrival to the session's end
    /// (boot waits and reroutes included); `None` while in flight.
    pub fn latency(&self) -> Option<Duration> {
        let (arrival, end) = (self.arrival?, self.end?);
        Some(end.saturating_since(arrival))
    }

    /// Phase table: `name -> (count, total nanoseconds)`. Spans and
    /// completes contribute their durations; instants count with zero time.
    pub fn phases(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut phases: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = phases.entry(s.name.name()).or_default();
            e.0 += 1;
            e.1 += s.duration().as_nanos();
        }
        for (name, _, d) in &self.completes {
            let e = phases.entry(name.name()).or_default();
            e.0 += 1;
            e.1 += d.as_nanos();
        }
        for (name, _) in &self.instants {
            phases.entry(name.name()).or_default().0 += 1;
        }
        phases
    }
}

/// The single reader of request tracks, as a streaming state machine: feed it
/// a scenario's events in emission order, each with its [`Arrival`] reading,
/// and it hands out each request's [`RequestTimeline`] when the request's
/// `req:*` session span closes.
///
/// The emitters never put an event on a request track after its session span
/// ended, so a handed-out timeline is final and the state held is one
/// timeline per request in flight.
#[derive(Default)]
pub struct TimelineBuilder {
    in_flight: FastMap<u64, InFlight>,
}

/// A request whose session span has not closed.
struct InFlight {
    timeline: RequestTimeline,
    /// Its open sub-spans: `(name, begin)`, innermost last.
    open: Vec<(EventName, SimTime)>,
}

impl TimelineBuilder {
    /// A builder with no request in flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take one event (those off the request tracks are ignored) and what the
    /// arrival rule read from it. Returns the request's timeline when `e`
    /// closes its session span.
    pub fn feed(&mut self, e: &TraceEvent, arrival: Option<Arrival>) -> Option<RequestTimeline> {
        let Track::Request(rid) = e.track else {
            return None;
        };
        if arrival == Some(Arrival::Abandoned) {
            // No session closes on this track: it is not a request.
            self.in_flight.remove(&rid);
            return None;
        }
        let InFlight { timeline: r, open } =
            self.in_flight.entry(rid).or_insert_with(|| InFlight {
                timeline: RequestTimeline::new(rid),
                open: Vec::new(),
            });
        match e.kind {
            EventKind::Begin if e.name.is_session() => {
                r.kind = Some(e.name);
                r.start = e.at;
                r.carried = arrival == Some(Arrival::Begin(e.name, true));
            }
            EventKind::End if e.name.is_session() => {
                r.end = Some(e.at);
                if let Some(Arrival::End(.., arrived, _)) = arrival {
                    r.arrival = Some(arrived);
                }
                return self.in_flight.remove(&rid).map(|r| r.timeline);
            }
            EventKind::Begin => open.push((e.name, e.at)),
            EventKind::End => {
                if let Some(pos) = open.iter().rposition(|(n, _)| *n == e.name) {
                    let (name, begin) = open.remove(pos);
                    r.spans.push(SpanInterval {
                        name,
                        begin,
                        end: e.at,
                    });
                }
            }
            // A fixed-length leg: the same residence its `Begin`/`End`
            // pair would have closed, in the same place — its request is
            // parked, so nothing else on the track closes before it ends.
            EventKind::Complete(d) if e.name.is_residence() => r.spans.push(SpanInterval {
                name: e.name,
                begin: e.at,
                end: e.at + d,
            }),
            EventKind::Complete(d) => r.completes.push((e.name, e.at, d)),
            EventKind::Instant => r.instants.push((e.name, e.at)),
            EventKind::Counter(_) => {}
        }
        None
    }

    /// The requests whose session span never closed, sorted by request id;
    /// a track a reroute abandoned is none of them.
    pub fn finish(self) -> Vec<RequestTimeline> {
        let mut open: Vec<_> = self.in_flight.into_values().map(|r| r.timeline).collect();
        open.sort_by_key(|r| r.rid);
        open
    }
}

/// The arrival rule, fed request-track events in emission order: a
/// `boot:wait` `Complete(d)` stamped at `t` means the request arrived at
/// `t − d`; a session `Begin` with no earlier arrival means it arrives
/// there; a `recovery:degrade` carries the arrival over to the server
/// session its `server_request` argument names (§4.5: the same request).
#[derive(Debug, Default)]
pub struct ArrivalTracker {
    /// Per request track whose session is open: `(arrival, carried)`.
    pending: FastMap<u64, (SimTime, bool)>,
}

/// What a session span opening or closing, or a reroute, means for its
/// request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// `Begin(kind, carried)`: a new request, or one a reroute carried here.
    Begin(EventName, bool),
    /// `End(rid, kind, arrival, end)`: a request whose arrival is known was served.
    End(u64, EventName, SimTime, SimTime),
    /// A reroute abandoned this track: its session never closes, and the
    /// request goes on under the track the `recovery:degrade` names.
    Abandoned,
}

impl ArrivalTracker {
    /// Take one event; those off the request tracks are ignored.
    pub fn feed(&mut self, e: &TraceEvent) -> Option<Arrival> {
        let Track::Request(rid) = e.track else {
            return None;
        };
        match (e.kind, e.name) {
            (EventKind::Complete(d), EventName::BootWait) => {
                let at = SimTime::from_nanos(e.at.as_nanos().saturating_sub(d.as_nanos()));
                self.pending.insert(rid, (at, false));
            }
            (EventKind::Instant, EventName::RecoveryDegrade) => {
                let arrived = self.pending.remove(&rid);
                if let (Some((at, _)), Some(next)) = (arrived, e.arg_u64("server_request")) {
                    self.pending.insert(next, (at, true));
                }
                return Some(Arrival::Abandoned);
            }
            (EventKind::Begin, kind) if kind.is_session() => {
                let &mut (_, carried) = self.pending.entry(rid).or_insert((e.at, false));
                return Some(Arrival::Begin(kind, carried));
            }
            (EventKind::End, kind) if kind.is_session() => {
                let (arrival, _) = self.pending.remove(&rid)?;
                return Some(Arrival::End(rid, kind, arrival, e.at));
            }
            _ => {}
        }
        None
    }
}

/// A reader of one run's telemetry: every event once, in emission order, with
/// what the one [`ArrivalTracker`] of the driver's pump or of [`replay`] read
/// from it. Closures `FnMut(&TraceEvent, Option<Arrival>)` are consumers.
pub trait Consumer {
    /// One event, and what the arrival rule read from it (`None` off the
    /// request tracks).
    fn event(&mut self, e: &TraceEvent, arrival: Option<Arrival>);

    /// The run ended: [`event`](Self::event) has seen its last event. A
    /// consumer whose owner takes its output by value does nothing here.
    fn finish(self: Box<Self>);
}

impl<F: FnMut(&TraceEvent, Option<Arrival>)> Consumer for F {
    fn event(&mut self, e: &TraceEvent, arrival: Option<Arrival>) {
        self(e, arrival);
    }

    fn finish(self: Box<Self>) {}
}

/// Feed a retained stream to `consumer` as the driver's pump feeds it online:
/// every event in order, with the reading of one [`ArrivalTracker`].
pub fn replay(events: &[TraceEvent], consumer: &mut impl Consumer) {
    let mut arrivals = ArrivalTracker::default();
    for e in events {
        consumer.event(e, arrivals.feed(e));
    }
}

/// Every request timeline of a retained trace: [`replay`] into one
/// [`TimelineBuilder`], the closed ones in completion order, then the
/// still-open ones by request id.
pub fn for_each_timeline(trace: &Trace, mut f: impl FnMut(RequestTimeline)) {
    let mut builder = TimelineBuilder::new();
    replay(&trace.events, &mut |e: &TraceEvent, arrival| {
        if let Some(t) = builder.feed(e, arrival) {
            f(t);
        }
    });
    builder.finish().into_iter().for_each(f);
}

#[derive(Default)]
struct PhaseAgg {
    count: u64,
    total_nanos: u64,
    hist: LogLinearHistogram,
}

impl PhaseAgg {
    fn add(&mut self, d: Duration) {
        self.count += 1;
        self.total_nanos += d.as_nanos();
        self.hist.record(d.as_nanos());
    }

    fn tick(&mut self) {
        self.count += 1;
    }
}

fn us(nanos: u64) -> Json {
    Json::Int((nanos / 1_000) as i128)
}

/// The exclusive upper bound of the power-of-two octave holding `nanos`
/// (0 and 1 share the lowest octave; `u64::MAX` for the top one).
pub(crate) fn octave_bound(nanos: u64) -> u64 {
    let octave = 63 - (nanos | 1).leading_zeros();
    if octave >= 63 {
        u64::MAX
    } else {
        2 << octave
    }
}

/// The `p50_us` / `p99_us` fields: the [`octave_bound`] of each nearest-rank
/// quantile. A log-linear bucket never straddles an octave, so the bucketed
/// quantile lands in the octave of the sample it ranks.
fn hist_quantiles(h: &LogLinearHistogram) -> Vec<(String, Json)> {
    let q = |p: f64| us(octave_bound(h.quantile(p)));
    vec![("p50_us".into(), q(0.5)), ("p99_us".into(), q(0.99))]
}

/// Summarize labelled traces into one critical-path document:
///
/// ```text
/// {"scenarios": [{"label", "requests", "phases", "endpoint_events", "slowest"}, ...]}
/// ```
///
/// * `requests` — completed request counts and latency quantiles per session
///   kind (`req:server` / `req:offload` / `req:shadow`),
/// * `phases` — request-track spans aggregated by name (where the time of
///   all requests went),
/// * `endpoint_events` — server/instance/platform/db events (GC pauses,
///   boots, proxy rounds) aggregated by name,
/// * `slowest` — the slowest completed requests with their own breakdown.
pub fn critical_path(scenarios: &[(String, Trace)]) -> Json {
    document(scenarios.iter().map(|(label, trace)| {
        let mut fold = SummaryFold::default();
        trace.events.iter().for_each(|e| fold.event(e));
        for_each_timeline(trace, |t| fold.request(&t));
        (fold.finish(label), None)
    }))
}

/// The critical-path document over per-scenario summaries
/// ([`SummaryFold::finish`]), each with its optional `"hottest"` extension:
/// `repro --profile` uses it to surface the top methods per request lane
/// next to the phase breakdown, and a summary without one renders as it is.
pub fn document(summaries: impl IntoIterator<Item = (Json, Option<Json>)>) -> Json {
    let scenarios = summaries.into_iter().map(|(mut doc, extra)| {
        if let (Json::Obj(fields), Some(extra)) = (&mut doc, extra) {
            fields.push(("hottest".into(), extra));
        }
        doc
    });
    Json::obj([("scenarios".into(), Json::Arr(scenarios.collect()))])
}

/// How many of the slowest completed requests a summary lists.
const SLOWEST: usize = 8;

/// One of the slowest completed requests: what its `slowest` row renders.
struct SlowRequest {
    /// Slowest first, ties by ascending request id.
    order: (Reverse<u64>, u64),
    kind: EventName,
    phases: BTreeMap<&'static str, (u64, u64)>,
}

/// One scenario's summary as a fold over its telemetry: every event goes to
/// [`event`](Self::event), every request timeline — completed or not — to
/// [`request`](Self::request), in any order (all aggregates commute).
#[derive(Default)]
pub struct SummaryFold {
    phases: BTreeMap<&'static str, PhaseAgg>,
    endpoint: BTreeMap<&'static str, PhaseAgg>,
    /// Open B/E spans on non-request tracks (e.g. instance boot spans).
    open_endpoint: FastMap<(Track, EventName), Vec<SimTime>>,
    /// Completed requests by session kind.
    by_kind: BTreeMap<&'static str, LogLinearHistogram>,
    /// The [`SLOWEST`] slowest completed requests, in `order`.
    slowest: Vec<SlowRequest>,
}

impl SummaryFold {
    /// Aggregate one event; those on request tracks reach the summary
    /// through their timeline instead.
    pub fn event(&mut self, e: &TraceEvent) {
        if matches!(e.track, Track::Request(_)) {
            return;
        }
        match e.kind {
            EventKind::Begin => self
                .open_endpoint
                .entry((e.track, e.name))
                .or_default()
                .push(e.at),
            EventKind::End => {
                let open = self.open_endpoint.get_mut(&(e.track, e.name));
                if let Some(began) = open.and_then(Vec::pop) {
                    let span = e.at.saturating_since(began);
                    self.endpoint.entry(e.name.name()).or_default().add(span);
                }
            }
            EventKind::Complete(d) => self.endpoint.entry(e.name.name()).or_default().add(d),
            EventKind::Instant => self.endpoint.entry(e.name.name()).or_default().tick(),
            EventKind::Counter(_) => {}
        }
    }

    /// Aggregate one request.
    pub fn request(&mut self, t: &RequestTimeline) {
        for s in &t.spans {
            self.phases
                .entry(s.name.name())
                .or_default()
                .add(s.duration());
        }
        for (name, _, d) in &t.completes {
            self.phases.entry(name.name()).or_default().add(*d);
        }
        for (name, _) in &t.instants {
            self.phases.entry(name.name()).or_default().tick();
        }
        let (Some(kind), Some(latency)) = (t.kind, t.latency()) else {
            return;
        };
        let hist = self.by_kind.entry(kind.name()).or_default();
        hist.record(latency.as_nanos());
        let order = (Reverse(latency.as_nanos()), t.rid);
        let rank = self.slowest.partition_point(|s| s.order < order);
        if rank < SLOWEST {
            let phases = t.phases();
            self.slowest.truncate(SLOWEST - 1);
            self.slowest.insert(
                rank,
                SlowRequest {
                    order,
                    kind,
                    phases,
                },
            );
        }
    }

    /// The scenario's summary object.
    pub fn finish(self, label: &str) -> Json {
        let requests = Json::Obj(
            self.by_kind
                .iter()
                .map(|(kind, hist)| {
                    let mut fields = vec![("count".into(), Json::Int(hist.count() as i128))];
                    fields.extend(hist_quantiles(hist));
                    ((*kind).to_string(), Json::Obj(fields))
                })
                .collect(),
        );

        let agg_json = |aggs: &BTreeMap<&'static str, PhaseAgg>| {
            Json::Arr(
                aggs.iter()
                    .map(|(name, a)| {
                        let mut fields = vec![
                            ("name".into(), Json::from(*name)),
                            ("count".into(), Json::Int(a.count as i128)),
                            ("total_us".into(), us(a.total_nanos)),
                        ];
                        if !a.hist.is_empty() {
                            fields.extend(hist_quantiles(&a.hist));
                        }
                        Json::Obj(fields)
                    })
                    .collect(),
            )
        };

        let slowest = Json::Arr(
            self.slowest
                .iter()
                .map(|s| {
                    let (Reverse(latency), rid) = s.order;
                    let mut phases: Vec<(&'static str, (u64, u64))> =
                        s.phases.iter().map(|(n, v)| (*n, *v)).collect();
                    phases.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
                    Json::obj([
                        ("request".into(), Json::Int(rid as i128)),
                        ("kind".into(), Json::from(s.kind.name())),
                        ("total_us".into(), us(latency)),
                        (
                            "phases".into(),
                            Json::Arr(
                                phases
                                    .iter()
                                    .map(|(n, (c, nanos))| {
                                        Json::obj([
                                            ("name".into(), Json::from(*n)),
                                            ("count".into(), Json::Int(*c as i128)),
                                            ("total_us".into(), us(*nanos)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );

        Json::obj([
            ("label".into(), Json::from(label)),
            ("requests".into(), requests),
            ("phases".into(), agg_json(&self.phases)),
            ("endpoint_events".into(), agg_json(&self.endpoint)),
            ("slowest".into(), slowest),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arg, TraceEvent};
    use std::collections::HashMap;

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + Duration::from_micros(us)
    }

    /// One timeline per request track, sorted by request id.
    fn request_timelines(trace: &Trace) -> Vec<RequestTimeline> {
        let mut timelines = Vec::new();
        for_each_timeline(trace, |t| timelines.push(t));
        timelines.sort_by_key(|r| r.rid);
        timelines
    }

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                TraceEvent::new(
                    at(0),
                    Track::Request(1),
                    "req:offload",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(at(0), Track::Request(1), "net", EventKind::Begin, &[]),
                TraceEvent::new(at(5), Track::Request(1), "net", EventKind::End, &[]),
                TraceEvent::new(
                    at(5),
                    Track::Request(1),
                    "fallback:data",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(
                    at(9),
                    Track::Request(1),
                    "fallback:data",
                    EventKind::End,
                    &[],
                ),
                TraceEvent::new(
                    at(9),
                    Track::Instance(0),
                    "gc",
                    EventKind::Complete(Duration::from_micros(2)),
                    &[],
                ),
                TraceEvent::new(
                    at(12),
                    Track::Request(1),
                    "req:offload",
                    EventKind::End,
                    &[],
                ),
                TraceEvent::new(
                    at(1),
                    Track::Request(2),
                    "req:server",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(at(3), Track::Request(2), "req:server", EventKind::End, &[]),
                // In flight at the horizon: excluded from request stats.
                TraceEvent::new(
                    at(2),
                    Track::Request(3),
                    "req:server",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(at(2), Track::Db, "db:execute", EventKind::Instant, &[]),
            ],
        }
    }

    #[test]
    fn summarizes_requests_phases_and_endpoints() {
        let doc = critical_path(&[("s".into(), sample_trace())]);
        let rendered = doc.render();
        assert!(rendered.contains("\"label\":\"s\""));
        // Two completed requests, one per kind.
        assert!(rendered.contains("\"req:offload\":{\"count\":1"));
        assert!(rendered.contains("\"req:server\":{\"count\":1"));
        // The fallback span measured 4 µs.
        assert!(
            rendered.contains("{\"name\":\"fallback:data\",\"count\":1,\"total_us\":4"),
            "{rendered}"
        );
        // Endpoint events carry the GC pause and the DB instant.
        assert!(rendered.contains("{\"name\":\"db:execute\",\"count\":1,\"total_us\":0}"));
        assert!(rendered.contains("\"name\":\"gc\",\"count\":1,\"total_us\":2"));
        // Slowest list leads with the 12 µs offload request.
        assert!(rendered.contains("\"request\":1,\"kind\":\"req:offload\",\"total_us\":12"));
    }

    #[test]
    fn deterministic_rendering() {
        let a = critical_path(&[("s".into(), sample_trace())]).render();
        let b = critical_path(&[("s".into(), sample_trace())]).render();
        assert_eq!(a, b);
    }

    #[test]
    fn round_trips_through_the_parser() {
        let s = critical_path(&[("s".into(), sample_trace())]).render();
        let parsed = Json::parse(&s).expect("summary must be valid JSON");
        assert_eq!(parsed.render(), s);
    }

    #[test]
    fn document_appends_hottest() {
        let (trace, mut summary) = (sample_trace(), SummaryFold::default());
        trace.events.iter().for_each(|e| summary.event(e));
        for_each_timeline(&trace, |t| summary.request(&t));
        let with = document([(summary.finish("s"), Some(Json::from("tables")))]).render();
        assert!(with.contains("\"hottest\":\"tables\""), "{with}");
    }

    #[test]
    fn args_do_not_affect_summaries() {
        let mut t = sample_trace();
        for e in &mut t.events {
            *e = TraceEvent::new(e.at, e.track, e.name, e.kind, &[("k", Arg::Int(1))]);
        }
        assert_eq!(
            critical_path(&[("s".into(), t)]).render(),
            critical_path(&[("s".into(), sample_trace())]).render()
        );
    }

    #[test]
    fn timelines_expose_spans_completes_and_instants() {
        let timelines = request_timelines(&sample_trace());
        assert_eq!(timelines.len(), 3, "one timeline per request track");
        assert_eq!(timelines[0].rid, 1);
        assert_eq!(timelines[0].kind, Some(EventName::ReqOffload));
        assert_eq!(timelines[0].latency(), Some(Duration::from_micros(12)));
        assert_eq!(
            timelines[0].spans,
            vec![
                SpanInterval {
                    name: EventName::Other("net"),
                    begin: at(0),
                    end: at(5)
                },
                SpanInterval {
                    name: EventName::FallbackData,
                    begin: at(5),
                    end: at(9)
                },
            ]
        );
        // Request 3 never completed: kind is known, latency is not.
        assert_eq!(timelines[2].rid, 3);
        assert_eq!(timelines[2].kind, Some(EventName::ReqServer));
        assert_eq!(timelines[2].latency(), None);
    }

    /// The whole-trace fold [`TimelineBuilder`] replaced, kept as the
    /// reference it is compared against.
    fn batch_timelines(trace: &Trace) -> Vec<RequestTimeline> {
        let mut reqs: HashMap<u64, RequestTimeline> = HashMap::new();
        let mut open: HashMap<u64, Vec<(EventName, SimTime)>> = HashMap::new();
        // No `boot:wait` or reroute in these streams: a request arrives at
        // its first session `Begin`.
        let mut arrived: HashMap<u64, SimTime> = HashMap::new();
        for e in &trace.events {
            let Track::Request(rid) = e.track else {
                continue;
            };
            let r = reqs.entry(rid).or_insert_with(|| RequestTimeline::new(rid));
            match e.kind {
                EventKind::Begin if e.name.is_session() => {
                    r.kind = Some(e.name);
                    r.start = e.at;
                    arrived.entry(rid).or_insert(e.at);
                }
                EventKind::End if e.name.is_session() => {
                    r.end = Some(e.at);
                    r.arrival = arrived.get(&rid).copied();
                }
                EventKind::Begin => open.entry(rid).or_default().push((e.name, e.at)),
                EventKind::End => {
                    let stack = open.entry(rid).or_default();
                    if let Some(pos) = stack.iter().rposition(|(n, _)| *n == e.name) {
                        let (name, begin) = stack.remove(pos);
                        let end = e.at;
                        r.spans.push(SpanInterval { name, begin, end });
                    }
                }
                EventKind::Complete(d) if e.name.is_residence() => {
                    let (name, begin) = (e.name, e.at);
                    r.spans.push(SpanInterval {
                        name,
                        begin,
                        end: begin + d,
                    });
                }
                EventKind::Complete(d) => r.completes.push((e.name, e.at, d)),
                EventKind::Instant => r.instants.push((e.name, e.at)),
                EventKind::Counter(_) => {}
            }
        }
        let mut timelines: Vec<RequestTimeline> = reqs.into_values().collect();
        timelines.sort_by_key(|r| r.rid);
        timelines
    }

    #[test]
    fn streamed_timelines_equal_the_batch_fold_on_random_interleavings() {
        const NAMES: [&str; 5] = [
            "req:offload",
            "req:server",
            "wait:net",
            "fallback:data",
            "gc",
        ];
        let mut rng = beehive_sim::Rng::new(0x71AE);
        for round in 0..200 {
            // A handful of requests in flight at a time; a request whose
            // session span closed is retired (the emitters' one guarantee),
            // everything else is fair game: unmatched and repeated `End`s,
            // sub-spans and sessions still open at the horizon, requests
            // that never begin or never end, endpoint events in between.
            let mut live: Vec<u64> = (0..4).collect();
            let mut next_rid = 4;
            let mut events = Vec::new();
            for step in 0..rng.gen_range(120) {
                let slot = rng.gen_range(live.len() as u64 + 1) as usize;
                let track = match live.get(slot) {
                    Some(&rid) => Track::Request(rid),
                    None => [Track::Server, Track::Instance(1), Track::Db][step as usize % 3],
                };
                let name = NAMES[rng.gen_range(NAMES.len() as u64) as usize];
                let kind = match rng.gen_range(6) {
                    0 | 1 => EventKind::Begin,
                    2 | 3 => EventKind::End,
                    4 => EventKind::Complete(Duration::from_micros(rng.gen_range(9))),
                    _ if step % 2 == 0 => EventKind::Instant,
                    _ => EventKind::Counter(step as i64),
                };
                if kind == EventKind::End && name.starts_with("req:") && slot < live.len() {
                    live[slot] = next_rid;
                    next_rid += 1;
                }
                events.push(TraceEvent::new(at(step), track, name, kind, &[]));
            }
            let trace = Trace { events };
            let batch = batch_timelines(&trace);
            assert_eq!(request_timelines(&trace), batch, "round {round}");
            // Handed out exactly the closed ones, each once; the rest at the end.
            let (mut builder, mut closed) = (TimelineBuilder::new(), 0);
            replay(&trace.events, &mut |e: &TraceEvent, arrival| {
                closed += usize::from(builder.feed(e, arrival).is_some());
            });
            let open = builder.finish();
            assert!(open.iter().all(|t| t.end.is_none()), "round {round}");
            assert_eq!(closed + open.len(), batch.len(), "round {round}");
        }
    }

    #[test]
    fn arrivals_follow_boot_waits_and_reroutes() {
        let ev =
            |us, rid, name, kind| TraceEvent::new(at(us), Track::Request(rid), name, kind, &[]);
        let boot_wait = |us, rid, d| ev(us, rid, "boot:wait", EventKind::Complete(at(d) - at(0)));
        let degrade = [("lost_ns", Arg::UInt(1)), ("server_request", Arg::UInt(3))];
        let events = vec![
            // A cold offload: its boot wait follows the session `Begin`.
            ev(10, 1, "req:offload", EventKind::Begin),
            boot_wait(10, 1, 4),
            // A crashed offload, rerouted to server request 3.
            ev(12, 2, "req:offload", EventKind::Begin),
            boot_wait(12, 2, 2),
            TraceEvent::new(
                at(15),
                Track::Request(2),
                "recovery:degrade",
                EventKind::Instant,
                &degrade,
            ),
            ev(15, 3, "req:server", EventKind::Begin),
            ev(16, 4, "req:server", EventKind::Begin),
            ev(18, 4, "req:server", EventKind::End),
            ev(20, 1, "req:offload", EventKind::End),
            ev(25, 3, "req:server", EventKind::End),
            // An `End` with no arrival serves nothing.
            ev(26, 5, "req:server", EventKind::End),
        ];
        let mut tracker = ArrivalTracker::default();
        let said: Vec<Arrival> = events.iter().filter_map(|e| tracker.feed(e)).collect();
        let begin = Arrival::Begin;
        let end = |rid, kind, arrival, end| Arrival::End(rid, kind, at(arrival), at(end));
        let (offload, server) = (EventName::ReqOffload, EventName::ReqServer);
        assert_eq!(
            said,
            vec![
                begin(offload, false),
                begin(offload, false),
                Arrival::Abandoned,
                begin(server, true),
                begin(server, false),
                end(4, server, 16, 18),
                end(1, offload, 6, 20),
                end(3, server, 10, 25),
            ]
        );
        assert!(tracker.pending.is_empty(), "the abandoned track left");

        let (mut builder, mut closed) = (TimelineBuilder::new(), Vec::new());
        replay(&events, &mut |e: &TraceEvent, arrival| {
            closed.extend(builder.feed(e, arrival));
        });
        let arrivals: Vec<_> = (closed.iter())
            .map(|t| (t.rid, t.arrival, t.carried))
            .collect();
        let (a6, a10, a16) = (Some(at(6)), Some(at(10)), Some(at(16)));
        let expected = [
            (4, a16, false),
            (1, a6, false),
            (3, a10, true),
            (5, None, false),
        ];
        assert_eq!(arrivals, expected);
        assert!(builder.finish().is_empty(), "the abandoned track left");
    }

    #[test]
    fn finish_hands_out_no_abandoned_track() {
        let ev =
            |us, rid, name, kind| TraceEvent::new(at(us), Track::Request(rid), name, kind, &[]);
        let degrade = [("lost_ns", Arg::UInt(1)), ("server_request", Arg::UInt(2))];
        let events = [
            ev(1, 1, "req:offload", EventKind::Begin),
            ev(2, 1, "wait:net", EventKind::Begin),
            ev(3, 1, "wait:net", EventKind::End),
            ev(4, 1, "recovery", EventKind::Begin),
            TraceEvent::new(
                at(5),
                Track::Request(1),
                "recovery:degrade",
                EventKind::Instant,
                &degrade,
            ),
            ev(5, 2, "req:server", EventKind::Begin),
            ev(6, 3, "req:server", EventKind::Begin),
            ev(7, 2, "wait:server_cpu", EventKind::Begin),
        ];
        let mut builder = TimelineBuilder::new();
        replay(&events, &mut |e: &TraceEvent, arrival| {
            assert!(builder.feed(e, arrival).is_none());
        });
        // The rerouted request and an unrelated one are still in flight;
        // the track the reroute left is not.
        let open: Vec<_> = builder
            .finish()
            .iter()
            .map(|t| (t.rid, t.carried))
            .collect();
        assert_eq!(open, [(2, true), (3, false)]);
    }

    #[test]
    fn request_with_zero_recorded_phases_summarizes_cleanly() {
        // A bare session span — no sub-spans, completes, or instants — is a
        // legal trace (e.g. a server request that never waited on anything).
        let t = Trace {
            events: vec![
                TraceEvent::new(
                    at(4),
                    Track::Request(9),
                    "req:server",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(at(7), Track::Request(9), "req:server", EventKind::End, &[]),
            ],
        };
        let timelines = request_timelines(&t);
        assert_eq!(timelines.len(), 1);
        assert!(timelines[0].phases().is_empty());
        assert_eq!(timelines[0].latency(), Some(Duration::from_micros(3)));
        let rendered = critical_path(&[("s".into(), t)]).render();
        // The request counts and appears in the slowest list with an empty
        // phase breakdown.
        assert!(
            rendered.contains("\"req:server\":{\"count\":1"),
            "{rendered}"
        );
        assert!(
            rendered.contains("\"request\":9,\"kind\":\"req:server\",\"total_us\":3,\"phases\":[]"),
            "{rendered}"
        );
    }

    #[test]
    fn slowest_k_ties_break_by_request_id_regardless_of_event_order() {
        // Twelve requests, all with identical 5 µs latencies: the slowest-8
        // list must keep the lowest request ids in ascending order, and the
        // rendering must not depend on the order request tracks appear in
        // the trace (requests land in a HashMap before the final sort).
        let mut forward = Vec::new();
        for rid in 0..12u64 {
            forward.push(TraceEvent::new(
                at(rid),
                Track::Request(rid),
                "req:server",
                EventKind::Begin,
                &[],
            ));
            forward.push(TraceEvent::new(
                at(rid + 5),
                Track::Request(rid),
                "req:server",
                EventKind::End,
                &[],
            ));
        }
        let mut backward = Vec::new();
        for rid in (0..12u64).rev() {
            backward.push(TraceEvent::new(
                at(rid),
                Track::Request(rid),
                "req:server",
                EventKind::Begin,
                &[],
            ));
            backward.push(TraceEvent::new(
                at(rid + 5),
                Track::Request(rid),
                "req:server",
                EventKind::End,
                &[],
            ));
        }
        let a = critical_path(&[("s".into(), Trace { events: forward })]).render();
        let b = critical_path(&[("s".into(), Trace { events: backward })]).render();
        assert_eq!(a, b, "interleaving must not change the slowest list");
        // Lowest ids win the tie, in ascending order.
        for rid in 0..8 {
            assert!(a.contains(&format!("\"request\":{rid},")), "{a}");
        }
        assert!(!a.contains("\"request\":8,"), "{a}");
        let r0 = a.find("\"request\":0,").unwrap();
        let r7 = a.find("\"request\":7,").unwrap();
        assert!(r0 < r7, "ties must render in ascending request id");
    }

    #[test]
    fn quantiles_are_the_octave_bound_of_the_nearest_rank_sample() {
        // The oracle sorts the samples, takes the nearest-rank sample and
        // reports the exclusive upper bound of its power-of-two octave
        // (`u64::MAX` for the top octave), in whole microseconds.
        fn oracle(xs: &[u64], q: f64) -> Json {
            let mut sorted = xs.to_vec();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let octave = 63 - (sorted[rank - 1] | 1).leading_zeros();
            let bound = if octave >= 63 { u64::MAX } else { 2 << octave };
            us(bound)
        }
        let mut rng = beehive_sim::Rng::new(0x0C7A);
        let mut cases: Vec<Vec<u64>> = vec![vec![0], vec![15, 16], vec![(1 << 63) + 5]];
        for _ in 0..200 {
            let n = 1 + rng.gen_range(40) as usize;
            // Small exact values, octave edges (2^k - 1, 2^k, 2^k + 1) and
            // log-uniform values.
            let sample = |rng: &mut beehive_sim::Rng| {
                let octave = 1u64 << rng.gen_range(58);
                match rng.gen_range(3) {
                    0 => rng.gen_range(20),
                    1 => octave + rng.gen_range(3) - 1,
                    _ => rng.gen_range(octave),
                }
            };
            cases.push((0..n).map(|_| sample(&mut rng)).collect());
        }
        for xs in cases {
            let mut fold = SummaryFold::default();
            for (rid, &x) in xs.iter().enumerate() {
                let d = Duration::from_nanos(x);
                let gc = EventKind::Complete(d);
                fold.event(&TraceEvent::new(at(0), Track::Instance(0), "gc", gc, &[]));
                fold.request(&RequestTimeline {
                    kind: Some(EventName::ReqServer),
                    end: Some(SimTime::ZERO + d),
                    arrival: Some(SimTime::ZERO),
                    ..RequestTimeline::new(rid as u64)
                });
            }
            let doc = fold.finish("s");
            let requests = doc.get("requests").and_then(|r| r.get("req:server"));
            let gc = match doc.get("endpoint_events") {
                Some(Json::Arr(rows)) => rows.first(),
                _ => None,
            };
            for row in [requests, gc] {
                let row = row.expect("one row per kind");
                for (key, q) in [("p50_us", 0.5), ("p99_us", 0.99)] {
                    assert_eq!(row.get(key), Some(&oracle(&xs, q)), "{key} of {xs:?}");
                }
            }
        }
    }
}
