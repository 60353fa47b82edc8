//! `Trace → MetricsSnapshot` reducer.
//!
//! Replays a recorded [`beehive_telemetry`] event stream through a
//! [`Registry`], producing the same snapshot the driver's direct
//! instrumentation produces for a traced run: both paths observe the same
//! call sites at the same virtual times, so `reduce(traces) ==` the direct
//! snapshot (the `workload` determinism test asserts it). This keeps traced
//! and untraced runs comparable — a `.metrics.json` means the same thing
//! whether it came from live counters or from a post-hoc trace reduction.
//!
//! One documented divergence: with shadow execution *disabled* (the warmup
//! ablation), the driver charges a boot-waiting request's latency from its
//! arrival, while its `req:offload` span only begins once the instance is
//! up. The direct path is authoritative there; for shadow-enabled
//! configurations the two agree exactly.

use beehive_sim::{Duration, FastMap, SimTime};
use beehive_telemetry::{EventKind, EventName as N, Trace, Track};

use crate::registry::{MetricsSnapshot, Registry, ScenarioMetrics};

/// Reduce one labelled trace to its scenario metrics.
pub fn reduce_one(label: &str, trace: &Trace, window: Duration) -> ScenarioMetrics {
    let mut reg = Registry::new(window);
    // Open request spans, for latency: (track, name) → begin-time stack.
    let mut open: FastMap<(Track, N), Vec<SimTime>> = FastMap::default();
    for e in &trace.events {
        match (e.kind, e.name) {
            (EventKind::Counter(v), name) => reg.set_gauge(name.name(), e.at, v),
            (EventKind::Complete(d), N::Gc) => {
                reg.observe("gc_pause", e.at, d);
                reg.add("gc_pause_ns", e.at, d.as_nanos());
            }
            (EventKind::Instant, N::Rejected) => reg.add("requests_rejected", e.at, 1),
            (EventKind::Instant, N::DbRound) => {
                let name = match e.arg_str("origin") {
                    Some("server") => "db_rounds_server",
                    _ => "db_rounds_function",
                };
                reg.add(name, e.at, 1);
            }
            (EventKind::Instant, N::SyncPullDirty) => {
                reg.add(
                    "handoff_dirty_objects",
                    e.at,
                    e.arg_u64("objects").unwrap_or(0),
                );
                reg.add("handoff_dirty_bytes", e.at, e.arg_u64("bytes").unwrap_or(0));
            }
            (EventKind::Begin, N::Boot) => {
                let name = if e.arg_bool("cold").unwrap_or(false) {
                    "boots_cold"
                } else {
                    "boots_warm"
                };
                reg.add(name, e.at, 1);
            }
            (EventKind::Begin, name) if name.is_session() => {
                open.entry((e.track, name)).or_default().push(e.at);
            }
            (
                EventKind::Begin,
                N::WaitServerCpuFb | N::WaitFunctionCpuFb | N::WaitNetFb | N::WaitDbFb,
            ) => reg.add("fallbacks", e.at, 1),
            (EventKind::End, name @ (N::ReqServer | N::ReqOffload)) => {
                let begun = open.get_mut(&(e.track, name)).and_then(|stack| stack.pop());
                if let Some(start) = begun {
                    reg.add("requests_completed", e.at, 1);
                    // The track id is the server-issued request id the
                    // live path records as the latency exemplar.
                    let rid = match e.track {
                        Track::Request(rid) => rid,
                        _ => u64::MAX,
                    };
                    reg.observe_exemplar("request_latency", e.at, e.at - start, rid);
                    if name == N::ReqOffload {
                        reg.add("requests_offloaded", e.at, 1);
                    }
                }
            }
            (EventKind::End, N::ReqShadow) => {
                let begun = open
                    .get_mut(&(e.track, N::ReqShadow))
                    .and_then(|stack| stack.pop());
                if begun.is_some() {
                    reg.add("shadow_executions", e.at, 1);
                }
            }
            _ => {}
        }
    }
    reg.snapshot(label)
}

/// Reduce labelled traces (as drained from the engine) to a full snapshot.
pub fn reduce(traces: &[(String, Trace)], window: Duration) -> MetricsSnapshot {
    MetricsSnapshot {
        window,
        scenarios: traces
            .iter()
            .map(|(label, t)| reduce_one(label, t, window))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DEFAULT_WINDOW;
    use beehive_telemetry::{Arg, TraceEvent};

    #[test]
    fn spans_counters_and_instants_reduce() {
        let at = |us| SimTime::ZERO + Duration::from_micros(us);
        let mut events = vec![
            TraceEvent::new(at(0), Track::Sim, "event_queue", EventKind::Counter(5), &[]),
            TraceEvent::new(
                at(10),
                Track::Request(1),
                "req:server",
                EventKind::Begin,
                &[],
            ),
            TraceEvent::new(
                at(15),
                Track::Server,
                "gc",
                EventKind::Complete(Duration::from_micros(3)),
                &[],
            ),
            TraceEvent::new(at(30), Track::Request(1), "req:server", EventKind::End, &[]),
            TraceEvent::new(at(40), Track::Server, "rejected", EventKind::Instant, &[]),
            TraceEvent::new(
                at(50),
                Track::Request(2),
                "wait:net:fb",
                EventKind::Begin,
                &[],
            ),
            TraceEvent::new(
                at(55),
                Track::Request(2),
                "wait:net:fb",
                EventKind::End,
                &[],
            ),
            // An unmatched End must not count a completion.
            TraceEvent::new(
                at(60),
                Track::Request(9),
                "req:offload",
                EventKind::End,
                &[],
            ),
        ];
        let cold = [("cold", Arg::Bool(true))];
        let (instance, origin) = (Track::Instance(0), [("origin", Arg::Str("server"))]);
        events.push(TraceEvent::new(
            at(5),
            instance,
            "boot",
            EventKind::Begin,
            &cold,
        ));
        events.push(TraceEvent::new(
            at(20),
            Track::Db,
            "db:round",
            EventKind::Instant,
            &origin,
        ));

        let s = reduce_one("x", &Trace { events }, DEFAULT_WINDOW);
        assert_eq!(s.counter("requests_completed").unwrap().total, 1);
        assert_eq!(s.counter("requests_rejected").unwrap().total, 1);
        assert_eq!(s.counter("fallbacks").unwrap().total, 1);
        assert_eq!(s.counter("boots_cold").unwrap().total, 1);
        assert_eq!(s.counter("db_rounds_server").unwrap().total, 1);
        assert!(s.counter("requests_offloaded").is_none());
        assert_eq!(s.gauge("event_queue").unwrap().last, 5);
        let lat = s.histogram("request_latency").unwrap();
        assert_eq!(lat.count, 1);
        // 20 µs latency, quantized to its log-linear bucket upper bound.
        assert!((20_000..=21_250).contains(&lat.p50_ns));
        assert_eq!(s.counter("gc_pause_ns").unwrap().total, 3_000);
    }
}
