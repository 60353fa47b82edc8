//! The attribution engine: every nanosecond of a request's latency, named.
//!
//! [`AttributionFold`] folds one scenario's request timelines into an
//! [`AttributionReport`] ([`attribute`] drives it over a recorded [`Trace`]):
//! each completed request's end-to-end latency decomposed into the
//! non-overlapping [`Component`]s of the Semi-FaaS execution model —
//! server/function execution, server-side assist work, cold-boot wait,
//! the fallback round trips by kind, monitor synchronization, lock wait,
//! database and network waits, and failure recovery. The decomposition is exhaustive by construction: the
//! session span is cut at every boundary of every classified sub-span, each
//! elementary segment is charged to the highest-priority span covering it
//! (uncovered segments are execution on the session's endpoint), and the
//! wait from arrival to session start is added on top. A request's
//! components therefore sum *exactly* to its measured latency —
//! [`RequestAttribution::residual_ns`] is zero, and `beehive-workload`'s
//! `metrics_fold` test asserts the totals equal the driver's latencies.
//!
//! GC pauses never land on request tracks (the VM charges them to the
//! session's CPU budget, so they surface as execution time); the report
//! carries the scenario-level pause total separately.

use beehive_sim::json::{FromJson, Json};
use beehive_sim::SimTime;
use beehive_telemetry::summary::{for_each_timeline, RequestTimeline};
use beehive_telemetry::{EventKind, EventName, Trace, TraceEvent};

/// One typed latency component. The discriminant order is the canonical
/// rendering order of every report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Component {
    /// Server-side time inside an *offloaded* session: residence (queue +
    /// service) on a server worker pool while the server computes closures
    /// or coordinates synchronization on the function's behalf
    /// (`wait:server_cpu`).
    ServerAssist,
    /// The server path end to end: uncovered time of a `req:server`
    /// session. Plain server requests deliberately do not trace their
    /// ~100s of pool parks, so this lumps pool queueing with execution.
    ServerExec,
    /// Function-side execution: the instance's vCPU-scaled CPU time
    /// (`wait:function_cpu` — a dedicated grant, never contended) plus the
    /// uncovered dispatch bookkeeping of a `req:offload` session. Grows
    /// when a cold, un-JITted instance runs the first invocation itself.
    FaasExec,
    /// Waiting for an instance to boot before the session could start
    /// (arrival → session start, the `boot:wait` complete).
    BootWait,
    /// Code-shipping fallback round trips (§3.2).
    FallbackCode,
    /// Data-object fallback round trips.
    FallbackData,
    /// Static-field fallback round trips.
    FallbackStatic,
    /// Database-proxy fallback round trips.
    FallbackDb,
    /// Native-method fallback round trips.
    FallbackNative,
    /// Monitor / volatile synchronization shipping (§3.3).
    MonitorSync,
    /// Parked on a contended server lock.
    LockWait,
    /// Database service time outside any fallback.
    DbWait,
    /// Network transfer time outside any fallback.
    NetWait,
    /// §4.5 failure recovery: crash detection through resume, or arrival
    /// to the server session a crashed request was rerouted to.
    Recovery,
}

/// Number of components (the length of [`Component::ALL`]).
pub const COMPONENTS: usize = 14;

impl Component {
    /// Every component, in canonical order.
    pub const ALL: [Component; COMPONENTS] = [
        Component::ServerAssist,
        Component::ServerExec,
        Component::FaasExec,
        Component::BootWait,
        Component::FallbackCode,
        Component::FallbackData,
        Component::FallbackStatic,
        Component::FallbackDb,
        Component::FallbackNative,
        Component::MonitorSync,
        Component::LockWait,
        Component::DbWait,
        Component::NetWait,
        Component::Recovery,
    ];

    /// Stable snake/colon name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Component::ServerAssist => "server_assist",
            Component::ServerExec => "exec:server",
            Component::FaasExec => "exec:faas",
            Component::BootWait => "boot_wait",
            Component::FallbackCode => "fallback:code",
            Component::FallbackData => "fallback:data",
            Component::FallbackStatic => "fallback:static",
            Component::FallbackDb => "fallback:db",
            Component::FallbackNative => "fallback:native",
            Component::MonitorSync => "monitor_sync",
            Component::LockWait => "lock_wait",
            Component::DbWait => "db_wait",
            Component::NetWait => "net_wait",
            Component::Recovery => "recovery",
        }
    }

    /// Inverse of [`Component::name`].
    pub(crate) fn from_name(name: &str) -> Option<Component> {
        Component::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// The classes a request-track span claims time as, `(component,
/// priority)`, ordered by priority descending, then component ascending:
/// of the classes covering an instant, the first in this order wins.
///
/// Priorities resolve nesting: an elementary segment covered by several
/// spans is charged to the highest-priority one, so e.g. the `wait:net:fb`
/// inside a `fallback:data` round trip stays part of the fallback, and
/// everything under a `recovery` span is recovery.
const CLASSES: [(Component, u8); 15] = [
    (Component::Recovery, 100),
    (Component::FallbackCode, 90),
    (Component::FallbackData, 90),
    (Component::FallbackStatic, 90),
    (Component::FallbackDb, 90),
    (Component::FallbackNative, 90),
    (Component::MonitorSync, 80),
    (Component::LockWait, 70),
    // Fallback-flagged waits outside a fallback/sync span (there are none
    // today, but the classification stays exhaustive) charge their
    // underlying resource.
    (Component::ServerAssist, 50),
    (Component::FaasExec, 50),
    (Component::NetWait, 50),
    (Component::DbWait, 40),
    (Component::NetWait, 30),
    (Component::ServerAssist, 20),
    (Component::FaasExec, 10),
];

/// Classify a request-track span name into its index in [`CLASSES`].
/// `None` means the span does not claim time (unknown names, and the
/// `req:*` session spans themselves).
fn classify(name: EventName) -> Option<u8> {
    use EventName as N;
    Some(match name {
        N::Recovery => 0,
        N::FallbackCode => 1,
        N::FallbackData => 2,
        N::FallbackStatic => 3,
        N::FallbackDb => 4,
        N::FallbackNative => 5,
        N::SyncMonitor | N::SyncVolatile => 6,
        N::WaitLock => 7,
        N::WaitServerCpuFb => 8,
        N::WaitFunctionCpuFb => 9,
        N::WaitNetFb => 10,
        N::WaitDb => 11,
        N::WaitNet => 12,
        N::WaitServerCpu => 13,
        N::WaitFunctionCpu => 14,
        _ => return None,
    })
}

/// One boundary of a classified span: when, which [`CLASSES`] entry, and
/// whether the span opens (`true`) or closes there.
type Mark = (SimTime, u8, bool);

/// One request's exhaustive latency decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestAttribution {
    /// Server-issued request id (what metric exemplars point at).
    pub rid: u64,
    /// Session kind: `"req:server"` or `"req:offload"`.
    pub kind: String,
    /// Measured latency in nanoseconds, arrival to completion: the driver's
    /// own and the `request_latency` histogram's (`beehive-workload`'s
    /// `metrics_fold` test checks both).
    pub total_ns: u64,
    /// Nanoseconds per component, indexed by [`Component::ALL`] order.
    pub components: [u64; COMPONENTS],
}

impl RequestAttribution {
    /// `total_ns` minus the component sum. Zero by construction; kept as a
    /// checked quantity so reports and tests can assert exhaustiveness.
    pub fn residual_ns(&self) -> i64 {
        self.total_ns as i64 - self.components.iter().sum::<u64>() as i64
    }

    /// `(name, nanos)` for every non-zero component, canonical order.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        Component::ALL
            .into_iter()
            .zip(self.components)
            .filter(|&(_, ns)| ns > 0)
            .map(|(c, ns)| (c.name(), ns))
            .collect()
    }
}

/// One attributed request before the fold decides whether to keep it:
/// session kind, measured latency and nanoseconds per component.
type Decomposition = (EventName, u64, [u64; COMPONENTS]);

/// Attribute one completed request timeline.
///
/// The session span `[start, end]` is cut at every boundary of every
/// classified sub-span; each elementary segment goes to the covering span
/// with the highest priority (lowest [`Component`] index on ties), or to
/// the endpoint's execution component when uncovered. Arrival → session
/// start is added on top, as recovery when a reroute carried the arrival
/// over and as boot wait otherwise: the total is the driver's latency.
///
/// One sweep: the clipped boundaries are sorted once into `marks` (a
/// buffer the caller reuses), one count per class tracks how many spans of
/// it are open, and a bit per class says whether any is. Since [`CLASSES`]
/// is in winning order, a segment's winner is the mask's lowest set bit.
fn attribute_request(t: &RequestTimeline, marks: &mut Vec<Mark>) -> Option<Decomposition> {
    let (Some(kind), Some(end), Some(arrival)) = (t.kind, t.end, t.arrival) else {
        return None;
    };
    let exec = match kind {
        EventName::ReqServer => Component::ServerExec,
        EventName::ReqOffload => Component::FaasExec,
        _ => return None,
    };
    let start = t.start;
    let mut components = [0u64; COMPONENTS];

    // Classified sub-spans, clipped to the session window.
    marks.clear();
    for s in &t.spans {
        let Some(class) = classify(s.name) else {
            continue;
        };
        let (b, e) = (s.begin.max(start), s.end.min(end));
        if b < e {
            marks.extend([(b, class, true), (e, class, false)]);
        }
    }
    // The spans come in close order, so the marks are nearly sorted: the
    // stable sort merges their runs.
    marks.sort_by_key(|&(at, _, _)| at);
    let mut open = [0u32; CLASSES.len()];
    let mut active = 0u16;
    let mut from = start;
    for &(at, class, opens) in marks.iter() {
        if at > from {
            let winner = match active {
                0 => exec,
                mask => CLASSES[mask.trailing_zeros() as usize].0,
            };
            components[winner as usize] += at.saturating_since(from).as_nanos();
            from = at;
        }
        let (n, bit) = (&mut open[class as usize], 1 << class);
        if opens {
            *n += 1;
            active |= bit;
        } else {
            *n -= 1;
            if *n == 0 {
                active &= !bit;
            }
        }
    }
    // Every span has closed by `end`: the rest is uncovered.
    components[exec as usize] += end.saturating_since(from).as_nanos();

    // Arrival → session start is disjoint from the span: additive.
    use Component as C;
    let wait = if t.carried { C::Recovery } else { C::BootWait };
    components[wait as usize] += start.saturating_since(arrival).as_nanos();
    Some((kind, end.saturating_since(arrival).as_nanos(), components))
}

/// The per-scenario attribution report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttributionReport {
    /// Scenario label (matches the metrics snapshot's scenario label).
    pub label: String,
    /// Completed requests attributed (`req:server` + `req:offload`).
    pub requests: u64,
    /// Completed shadow executions (warm-up machinery, not request latency;
    /// excluded from the component sums).
    pub shadows: u64,
    /// Sum of all attributed request latencies in nanoseconds.
    pub total_ns: u64,
    /// Summed nanoseconds per component, [`Component::ALL`] order.
    pub components: [u64; COMPONENTS],
    /// Scenario-level GC pause total (charged to execution budgets, never
    /// to the request clock — reported beside the decomposition).
    pub gc_pause_ns: u64,
    /// The slowest-K requests with their full decompositions, slowest
    /// first, ties broken by ascending request id — the same order the
    /// metrics registry keeps its `request_latency` exemplars in.
    pub slowest: Vec<RequestAttribution>,
}

impl AttributionReport {
    /// Aggregate residual: `total_ns` minus the component sum (zero).
    pub fn residual_ns(&self) -> i64 {
        self.total_ns as i64 - self.components.iter().sum::<u64>() as i64
    }

    /// Mean nanoseconds per request of one component (0 when no requests).
    pub fn mean_ns(&self, c: Component) -> u64 {
        self.components[c as usize]
            .checked_div(self.requests)
            .unwrap_or(0)
    }

    /// JSON shape (round-trips through [`AttributionReport::from_json`]):
    ///
    /// ```text
    /// {"label", "requests", "shadows", "total_ns", "gc_pause_ns",
    ///  "components": {name: ns, ...},            // all 15, canonical order
    ///  "slowest": [{"request", "kind", "total_ns",
    ///               "components": {name: ns}}]}  // non-zero only
    /// ```
    pub fn to_json(&self) -> Json {
        let comp_obj = |full: bool, components: &[u64; COMPONENTS]| {
            Json::Obj(
                Component::ALL
                    .into_iter()
                    .zip(components)
                    .filter(|&(_, ns)| full || *ns > 0)
                    .map(|(c, ns)| (c.name().to_string(), Json::Int(*ns as i128)))
                    .collect(),
            )
        };
        Json::obj([
            ("label".into(), Json::from(self.label.clone())),
            ("requests".into(), Json::Int(self.requests as i128)),
            ("shadows".into(), Json::Int(self.shadows as i128)),
            ("total_ns".into(), Json::Int(self.total_ns as i128)),
            ("gc_pause_ns".into(), Json::Int(self.gc_pause_ns as i128)),
            ("components".into(), comp_obj(true, &self.components)),
            (
                "slowest".into(),
                Json::Arr(
                    self.slowest
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("request".into(), Json::Int(r.rid as i128)),
                                ("kind".into(), Json::from(r.kind.clone())),
                                ("total_ns".into(), Json::Int(r.total_ns as i128)),
                                ("components".into(), comp_obj(false, &r.components)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Strict inverse of [`AttributionReport::to_json`].
    pub fn from_json(j: &Json) -> Result<AttributionReport, String> {
        fn components_of(j: &Json) -> Result<[u64; COMPONENTS], String> {
            let Some(Json::Obj(pairs)) = j.get("components") else {
                return Err("missing components object".into());
            };
            let mut out = [0u64; COMPONENTS];
            for (k, v) in pairs {
                let c =
                    Component::from_name(k).ok_or_else(|| format!("unknown component {k:?}"))?;
                out[c as usize] =
                    u64::from_json(v).map_err(|_| format!("invalid nanos for component {k:?}"))?;
            }
            Ok(out)
        }
        let mut slowest = Vec::new();
        for item in j.arr_field("slowest")? {
            slowest.push(RequestAttribution {
                rid: item.field("request")?,
                kind: item.field("kind")?,
                total_ns: item.field("total_ns")?,
                components: components_of(item)?,
            });
        }
        Ok(AttributionReport {
            label: j.field("label")?,
            requests: j.field("requests")?,
            shadows: j.field("shadows")?,
            total_ns: j.field("total_ns")?,
            components: components_of(j)?,
            gc_pause_ns: j.field("gc_pause_ns")?,
            slowest,
        })
    }
}

/// One scenario's [`AttributionReport`] as a fold over its telemetry: every
/// event goes to [`event`](Self::event), every request timeline to
/// [`request`](Self::request), in any order (the sums commute and the
/// slowest-K order is total).
#[derive(Default)]
pub struct AttributionFold {
    k: usize,
    requests: u64,
    shadows: u64,
    total_ns: u64,
    components: [u64; COMPONENTS],
    gc_pause_ns: u64,
    /// The `k` slowest so far, in report order.
    slowest: Vec<RequestAttribution>,
    /// Scratch for [`attribute_request`]'s boundaries.
    marks: Vec<Mark>,
}

impl AttributionFold {
    /// A fold keeping the `k` slowest decompositions as exemplars.
    pub fn new(k: usize) -> Self {
        AttributionFold {
            k,
            ..Self::default()
        }
    }

    /// Take one event: GC pauses, on whatever track, add to the
    /// scenario-level total.
    pub fn event(&mut self, e: &TraceEvent) {
        if let (EventName::Gc, EventKind::Complete(d)) = (e.name, e.kind) {
            self.gc_pause_ns += d.as_nanos();
        }
    }

    /// Attribute one request, when it completed.
    pub fn request(&mut self, t: &RequestTimeline) {
        if t.kind == Some(EventName::ReqShadow) {
            self.shadows += u64::from(t.end.is_some());
            return;
        }
        let Some((kind, total_ns, components)) = attribute_request(t, &mut self.marks) else {
            return;
        };
        self.requests += 1;
        self.total_ns += total_ns;
        for (slot, ns) in self.components.iter_mut().zip(components) {
            *slot += ns;
        }
        // Only a request that ranks among the `k` slowest is built.
        let order = |total_ns: u64, rid: u64| (std::cmp::Reverse(total_ns), rid);
        let rank = self
            .slowest
            .partition_point(|s| order(s.total_ns, s.rid) < order(total_ns, t.rid));
        if rank < self.k {
            self.slowest.truncate(self.k - 1);
            let r = RequestAttribution {
                rid: t.rid,
                kind: kind.name().to_string(),
                total_ns,
                components,
            };
            self.slowest.insert(rank, r);
        }
    }

    /// The scenario's report.
    pub fn finish(self, label: &str) -> AttributionReport {
        AttributionReport {
            label: label.to_string(),
            requests: self.requests,
            shadows: self.shadows,
            total_ns: self.total_ns,
            components: self.components,
            gc_pause_ns: self.gc_pause_ns,
            slowest: self.slowest,
        }
    }
}

/// Attribute every completed request of one labelled trace, keeping the
/// `k` slowest decompositions as exemplars.
pub fn attribute(label: &str, trace: &Trace, k: usize) -> AttributionReport {
    let mut fold = AttributionFold::new(k);
    trace.events.iter().for_each(|e| fold.event(e));
    for_each_timeline(trace, |t| fold.request(&t));
    fold.finish(label)
}

/// Attribute every labelled trace of a run, in input order.
pub fn attribute_all(traces: &[(String, Trace)], k: usize) -> Vec<AttributionReport> {
    traces
        .iter()
        .map(|(label, t)| attribute(label, t, k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_sim::Duration;
    use beehive_telemetry::{Arg, TraceEvent, Track};

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + Duration::from_micros(us)
    }

    /// An offload request: 2 µs boot wait, then [0,20] µs of session time
    /// with a function CPU grant [0,3], a fallback [5,9] whose inner net
    /// wait [6,8] must *not* double-count, and a monitor sync [12,15].
    fn offload_trace() -> Trace {
        Trace {
            events: vec![
                TraceEvent::new(
                    at(2),
                    Track::Request(7),
                    "boot:wait",
                    EventKind::Complete(Duration::from_micros(2)),
                    &[],
                ),
                TraceEvent::new(
                    at(2),
                    Track::Request(7),
                    "req:offload",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(
                    at(2),
                    Track::Request(7),
                    "wait:function_cpu",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(
                    at(5),
                    Track::Request(7),
                    "wait:function_cpu",
                    EventKind::End,
                    &[],
                ),
                TraceEvent::new(
                    at(7),
                    Track::Request(7),
                    "fallback:data",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(
                    at(8),
                    Track::Request(7),
                    "wait:net:fb",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(
                    at(10),
                    Track::Request(7),
                    "wait:net:fb",
                    EventKind::End,
                    &[],
                ),
                TraceEvent::new(
                    at(11),
                    Track::Request(7),
                    "fallback:data",
                    EventKind::End,
                    &[],
                ),
                TraceEvent::new(
                    at(14),
                    Track::Request(7),
                    "sync:monitor",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(
                    at(17),
                    Track::Request(7),
                    "sync:monitor",
                    EventKind::End,
                    &[],
                ),
                TraceEvent::new(
                    at(22),
                    Track::Request(7),
                    "req:offload",
                    EventKind::End,
                    &[],
                ),
                TraceEvent::new(
                    at(30),
                    Track::Instance(0),
                    "gc",
                    EventKind::Complete(Duration::from_micros(4)),
                    &[],
                ),
            ],
        }
    }

    #[test]
    fn components_sum_exactly_to_measured_latency() {
        let rep = attribute("s", &offload_trace(), 8);
        assert_eq!(rep.requests, 1);
        let r = &rep.slowest[0];
        assert_eq!(r.rid, 7);
        // 20 µs of session + 2 µs boot wait.
        assert_eq!(r.total_ns, 22_000);
        assert_eq!(r.residual_ns(), 0);
        assert_eq!(rep.residual_ns(), 0);
        let ns = |c: Component| r.components[c as usize];
        assert_eq!(ns(Component::BootWait), 2_000);
        // The whole [7,11] fallback including its nested net wait.
        assert_eq!(ns(Component::FallbackData), 4_000);
        assert_eq!(ns(Component::NetWait), 0);
        assert_eq!(ns(Component::MonitorSync), 3_000);
        // The [2,5] CPU grant plus uncovered session time
        // [5,7] + [11,14] + [17,22] = 13 µs of function-side execution.
        assert_eq!(ns(Component::FaasExec), 13_000);
        assert_eq!(rep.gc_pause_ns, 4_000, "GC stays scenario-level");
    }

    #[test]
    fn priority_resolves_overlap_to_the_outer_machinery() {
        // A recovery span covering a fallback: all recovery.
        let t = Trace {
            events: vec![
                TraceEvent::new(
                    at(0),
                    Track::Request(1),
                    "req:offload",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(at(2), Track::Request(1), "recovery", EventKind::Begin, &[]),
                TraceEvent::new(
                    at(3),
                    Track::Request(1),
                    "fallback:code",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(
                    at(5),
                    Track::Request(1),
                    "fallback:code",
                    EventKind::End,
                    &[],
                ),
                TraceEvent::new(at(8), Track::Request(1), "recovery", EventKind::End, &[]),
                TraceEvent::new(
                    at(10),
                    Track::Request(1),
                    "req:offload",
                    EventKind::End,
                    &[],
                ),
            ],
        };
        let rep = attribute("s", &t, 8);
        let r = &rep.slowest[0];
        assert_eq!(r.components[Component::Recovery as usize], 6_000);
        assert_eq!(r.components[Component::FallbackCode as usize], 0);
        assert_eq!(r.components[Component::FaasExec as usize], 4_000);
        assert_eq!(r.residual_ns(), 0);
    }

    #[test]
    fn a_rerouted_request_charges_arrival_to_reroute_as_recovery() {
        // Arrived at 0, booted for 2 µs, crashed at 5 and rerouted to
        // server request 2, which finishes at 9.
        let reroute = [
            ("lost_ns", Arg::UInt(3_000)),
            ("server_request", Arg::UInt(2)),
        ];
        let (crashed, server) = (Track::Request(1), Track::Request(2));
        let boot = EventKind::Complete(Duration::from_micros(2));
        let t = Trace {
            events: vec![
                TraceEvent::new(at(2), crashed, "req:offload", EventKind::Begin, &[]),
                TraceEvent::new(at(2), crashed, "boot:wait", boot, &[]),
                TraceEvent::new(
                    at(5),
                    crashed,
                    "recovery:degrade",
                    EventKind::Instant,
                    &reroute,
                ),
                TraceEvent::new(at(5), server, "req:server", EventKind::Begin, &[]),
                TraceEvent::new(at(9), server, "req:server", EventKind::End, &[]),
            ],
        };
        let rep = attribute("s", &t, 8);
        assert_eq!((rep.requests, rep.total_ns), (1, 9_000));
        let r = &rep.slowest[0];
        assert_eq!((r.rid, r.residual_ns()), (2, 0));
        assert_eq!(
            r.nonzero(),
            vec![("exec:server", 4_000), ("recovery", 5_000)]
        );
    }

    #[test]
    fn server_requests_and_shadows_are_separated() {
        let t = Trace {
            events: vec![
                TraceEvent::new(
                    at(0),
                    Track::Request(1),
                    "req:server",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(
                    at(1),
                    Track::Request(1),
                    "wait:server_cpu",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(
                    at(3),
                    Track::Request(1),
                    "wait:server_cpu",
                    EventKind::End,
                    &[],
                ),
                TraceEvent::new(at(6), Track::Request(1), "req:server", EventKind::End, &[]),
                TraceEvent::new(
                    at(0),
                    Track::Request(2),
                    "req:shadow",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(at(9), Track::Request(2), "req:shadow", EventKind::End, &[]),
                // In flight at the horizon: not attributed.
                TraceEvent::new(
                    at(4),
                    Track::Request(3),
                    "req:offload",
                    EventKind::Begin,
                    &[],
                ),
            ],
        };
        let rep = attribute("s", &t, 8);
        assert_eq!((rep.requests, rep.shadows), (1, 1));
        let r = &rep.slowest[0];
        assert_eq!(r.kind, "req:server");
        assert_eq!(r.components[Component::ServerAssist as usize], 2_000);
        assert_eq!(r.components[Component::ServerExec as usize], 4_000);
        assert_eq!(rep.total_ns, 6_000);
    }

    #[test]
    fn slowest_k_orders_by_latency_then_rid_and_report_round_trips() {
        let mut events = Vec::new();
        for rid in 0..4u64 {
            events.push(TraceEvent::new(
                at(0),
                Track::Request(rid),
                "req:server",
                EventKind::Begin,
                &[],
            ));
            events.push(TraceEvent::new(
                at(5),
                Track::Request(rid),
                "req:server",
                EventKind::End,
                &[],
            ));
        }
        events.push(TraceEvent::new(
            at(0),
            Track::Request(9),
            "req:server",
            EventKind::Begin,
            &[],
        ));
        events.push(TraceEvent::new(
            at(8),
            Track::Request(9),
            "req:server",
            EventKind::End,
            &[],
        ));
        let rep = attribute("s", &Trace { events }, 3);
        let order: Vec<u64> = rep.slowest.iter().map(|r| r.rid).collect();
        assert_eq!(order, vec![9, 0, 1]);

        let rendered = rep.to_json().render();
        let back = AttributionReport::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.to_json().render(), rendered);
    }

    /// The classification as `(component, priority)` per name, written out
    /// independently of [`CLASSES`]' order.
    fn reference_classify(name: EventName) -> Option<(Component, u8)> {
        use EventName as N;
        Some(match name {
            N::Recovery => (Component::Recovery, 100),
            N::FallbackCode => (Component::FallbackCode, 90),
            N::FallbackData => (Component::FallbackData, 90),
            N::FallbackStatic => (Component::FallbackStatic, 90),
            N::FallbackDb => (Component::FallbackDb, 90),
            N::FallbackNative => (Component::FallbackNative, 90),
            N::SyncMonitor | N::SyncVolatile => (Component::MonitorSync, 80),
            N::WaitLock => (Component::LockWait, 70),
            N::WaitServerCpuFb => (Component::ServerAssist, 50),
            N::WaitFunctionCpuFb => (Component::FaasExec, 50),
            N::WaitNetFb => (Component::NetWait, 50),
            N::WaitDb => (Component::DbWait, 40),
            N::WaitNet => (Component::NetWait, 30),
            N::WaitServerCpu => (Component::ServerAssist, 20),
            N::WaitFunctionCpu => (Component::FaasExec, 10),
            _ => return None,
        })
    }

    /// The decomposition by definition: cut the session at every boundary
    /// and test every claimed span against every elementary segment.
    fn reference(t: &RequestTimeline) -> Option<(u64, [u64; COMPONENTS])> {
        let (Some(kind), Some(end), Some(arrival)) = (t.kind, t.end, t.arrival) else {
            return None;
        };
        let exec = match kind {
            EventName::ReqServer => Component::ServerExec,
            EventName::ReqOffload => Component::FaasExec,
            _ => return None,
        };
        let start = t.start;
        let mut components = [0u64; COMPONENTS];
        let mut claimed: Vec<(SimTime, SimTime, Component, u8)> = Vec::new();
        let mut cuts: Vec<SimTime> = vec![start, end];
        for s in &t.spans {
            let Some((comp, prio)) = reference_classify(s.name) else {
                continue;
            };
            let (b, e) = (s.begin.max(start), s.end.min(end));
            if b >= e {
                continue;
            }
            claimed.push((b, e, comp, prio));
            cuts.push(b);
            cuts.push(e);
        }
        cuts.sort();
        cuts.dedup();
        for w in cuts.windows(2) {
            let (b, e) = (w[0], w[1]);
            let mut winner = exec;
            let mut best = 0u8;
            for &(cb, ce, comp, prio) in &claimed {
                if cb <= b && ce >= e && (prio > best || (prio == best && comp < winner)) {
                    winner = comp;
                    best = prio;
                }
            }
            components[winner as usize] += e.saturating_since(b).as_nanos();
        }
        // Arrival → start: recovery on a rerouted request, else boot wait.
        let before = start.saturating_since(arrival);
        let wait = [Component::BootWait, Component::Recovery][usize::from(t.carried)];
        components[wait as usize] += before.as_nanos();
        let total_ns = end.saturating_since(start).as_nanos() + before.as_nanos();
        Some((total_ns, components))
    }

    #[test]
    fn classes_are_in_winning_order_and_match_the_classification() {
        for w in CLASSES.windows(2) {
            let ((c0, p0), (c1, p1)) = (w[0], w[1]);
            assert!(p0 > p1 || (p0 == p1 && c0 < c1), "{w:?}");
        }
        for name in EventName::ALL {
            let class = classify(name).map(|c| CLASSES[c as usize]);
            assert_eq!(class, reference_classify(name), "{name}");
        }
    }

    /// Seeded request timelines against [`reference`]: every classified
    /// name and unclassified ones, nested and overlapping spans of one
    /// class, boundaries at one instant, spans clipped by the session
    /// window, empty spans and uncovered gaps, plus in-flight, shadow and
    /// kind-less requests, which attribute nothing.
    #[test]
    fn the_sweep_equals_the_reference_on_seeded_timelines() {
        use beehive_sim::Rng;
        use beehive_telemetry::summary::SpanInterval;
        let mut names: Vec<EventName> = EventName::ALL
            .into_iter()
            .filter(|&n| classify(n).is_some())
            .collect();
        assert_eq!(names.len(), 16, "every classified name");
        names.extend([
            EventName::Block,
            EventName::ReqOffload,
            EventName::Other("x"),
        ]);
        // Ticks of 10 ns on a short window, so boundaries often coincide.
        let tick = |n: u64| SimTime::ZERO + Duration::from_nanos(10 * n);
        let mut rng = Rng::new(0xA771);
        let mut fold = AttributionFold::new(usize::MAX);
        let mut expected = Vec::new();
        let (mut nested, mut same_instant, mut clipped, mut empty, mut gaps) = (0, 0, 0, 0, 0);
        for rid in 0..4_000u64 {
            let start = rng.gen_range(20) + 20;
            let end = start + rng.gen_range(60);
            let mut spans: Vec<SpanInterval> = Vec::new();
            for _ in 0..rng.gen_range(14) {
                let name = names[rng.gen_range(names.len() as u64) as usize];
                let (b, e) = match spans.last() {
                    // Inside (or sharing a boundary with) the previous span,
                    // under the same name.
                    Some(last) if rng.gen_range(4) == 0 => {
                        let (lb, le) = (last.begin.as_nanos() / 10, last.end.as_nanos() / 10);
                        let b = lb + rng.gen_range(le - lb + 1);
                        spans.push(SpanInterval {
                            name: last.name,
                            begin: tick(b),
                            end: tick(b + rng.gen_range(le - b + 1)),
                        });
                        continue;
                    }
                    _ => {
                        let b = rng.gen_range(end + 30);
                        (b, b + rng.gen_range(30))
                    }
                };
                spans.push(SpanInterval {
                    name,
                    begin: tick(b),
                    end: tick(e),
                });
            }
            // Arrival before the start (a boot wait, or a reroute when
            // `carried`), with completes that must not count.
            let (mut completes, mut arrival) = (Vec::new(), tick(start));
            if rng.gen_range(3) == 0 {
                let d = Duration::from_nanos(rng.gen_range(10 * start));
                completes.push((EventName::BootWait, tick(start), d));
                completes.push((EventName::Gc, tick(start), d));
                arrival = tick(start) - d;
            }
            let kind = match rng.gen_range(10) {
                0 => Some(EventName::ReqShadow),
                1 => None,
                2..=5 => Some(EventName::ReqServer),
                _ => Some(EventName::ReqOffload),
            };
            let t = RequestTimeline {
                rid,
                kind,
                start: tick(start),
                end: (rid % 17 != 0).then(|| tick(end)),
                arrival: (rid % 17 != 0).then_some(arrival),
                carried: rng.gen_range(4) == 0,
                spans,
                completes,
                instants: Vec::new(),
            };

            let window = (t.start, t.end.unwrap_or(t.start));
            let claims: Vec<&SpanInterval> = t
                .spans
                .iter()
                .filter(|s| classify(s.name).is_some())
                .collect();
            for (i, a) in claims.iter().enumerate() {
                empty += usize::from(a.begin == a.end);
                clipped += usize::from(a.begin < window.0 || a.end > window.1);
                for b in &claims[..i] {
                    nested += usize::from(
                        classify(a.name) == classify(b.name) && a.begin < b.end && b.begin < a.end,
                    );
                    same_instant += usize::from(
                        a.begin == b.begin
                            || a.begin == b.end
                            || a.end == b.begin
                            || a.end == b.end,
                    );
                }
            }

            let mut marks = Vec::new();
            let got = attribute_request(&t, &mut marks).map(|(_, total, c)| (total, c));
            assert_eq!(got, reference(&t), "request {rid}: {t:?}");
            if let Some((total_ns, components)) = got {
                let exec = components[Component::ServerExec as usize]
                    + components[Component::FaasExec as usize];
                gaps += usize::from(!claims.is_empty() && exec > 0);
                expected.push((rid, total_ns, components));
            }
            fold.request(&t);
        }
        assert!(
            expected.len() > 1_500,
            "{} requests attributed",
            expected.len()
        );
        for (what, n) in [
            ("nested or overlapping spans of one class", nested),
            ("boundaries at one instant", same_instant),
            ("clipped spans", clipped),
            ("empty spans", empty),
            ("uncovered gaps between claimed spans", gaps),
        ] {
            assert!(n > 100, "{what}: {n}");
        }
        // The fold keeps every request it attributed, each with the
        // reference's decomposition.
        let rep = fold.finish("seeded");
        let mut kept: Vec<_> = (rep.slowest.iter())
            .map(|r| (r.rid, r.total_ns, r.components))
            .collect();
        kept.sort_unstable_by_key(|&(rid, _, _)| rid);
        assert_eq!(kept, expected);
        assert_eq!(rep.residual_ns(), 0);
    }

    #[test]
    fn component_names_round_trip() {
        for c in Component::ALL {
            assert_eq!(Component::from_name(c.name()), Some(c));
        }
        assert_eq!(Component::from_name("nope"), None);
    }
}
