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

use std::collections::HashMap;

use beehive_sim::{Duration, SimTime};
use beehive_telemetry::{EventKind, Trace, Track};

use crate::registry::{MetricsSnapshot, Registry, ScenarioMetrics};

/// Reduce one labelled trace to its scenario metrics.
pub fn reduce_one(label: &str, trace: &Trace, window: Duration) -> ScenarioMetrics {
    let mut reg = Registry::new(window);
    // Open request spans, for latency: (track, name) → begin-time stack.
    let mut open: HashMap<(Track, &'static str), Vec<SimTime>> = HashMap::new();
    for e in &trace.events {
        match e.kind {
            EventKind::Counter(v) => reg.set_gauge(e.name, e.at, v),
            EventKind::Complete(d) => {
                if e.name == "gc" {
                    reg.observe("gc_pause", e.at, d);
                    reg.add("gc_pause_ns", e.at, d.as_nanos());
                }
            }
            EventKind::Instant => match e.name {
                "rejected" => reg.add("requests_rejected", e.at, 1),
                "db:round" => {
                    let name = match e.arg_str("origin") {
                        Some("server") => "db_rounds_server",
                        _ => "db_rounds_function",
                    };
                    reg.add(name, e.at, 1);
                }
                "sync:pull_dirty" => {
                    reg.add(
                        "handoff_dirty_objects",
                        e.at,
                        e.arg_u64("objects").unwrap_or(0),
                    );
                    reg.add("handoff_dirty_bytes", e.at, e.arg_u64("bytes").unwrap_or(0));
                }
                _ => {}
            },
            EventKind::Begin => match e.name {
                "boot" => {
                    let name = if e.arg_bool("cold").unwrap_or(false) {
                        "boots_cold"
                    } else {
                        "boots_warm"
                    };
                    reg.add(name, e.at, 1);
                }
                "req:server" | "req:offload" | "req:shadow" => {
                    open.entry((e.track, e.name)).or_default().push(e.at);
                }
                n if n.starts_with("wait:") && n.ends_with(":fb") => {
                    reg.add("fallbacks", e.at, 1);
                }
                _ => {}
            },
            EventKind::End => match e.name {
                "req:server" | "req:offload" => {
                    let begun = open
                        .get_mut(&(e.track, e.name))
                        .and_then(|stack| stack.pop());
                    if let Some(start) = begun {
                        reg.add("requests_completed", e.at, 1);
                        // The track id is the server-issued request id the
                        // live path records as the latency exemplar.
                        let rid = match e.track {
                            Track::Request(rid) => rid,
                            _ => u64::MAX,
                        };
                        reg.observe_exemplar("request_latency", e.at, e.at - start, rid);
                        if e.name == "req:offload" {
                            reg.add("requests_offloaded", e.at, 1);
                        }
                    }
                }
                "req:shadow" => {
                    let begun = open
                        .get_mut(&(e.track, e.name))
                        .and_then(|stack| stack.pop());
                    if begun.is_some() {
                        reg.add("shadow_executions", e.at, 1);
                    }
                }
                _ => {}
            },
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

    fn ev(us: u64, track: Track, name: &'static str, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::ZERO + Duration::from_micros(us),
            track,
            name,
            kind,
            args: Vec::new(),
        }
    }

    #[test]
    fn spans_counters_and_instants_reduce() {
        let mut events = vec![
            ev(0, Track::Sim, "event_queue", EventKind::Counter(5)),
            ev(10, Track::Request(1), "req:server", EventKind::Begin),
            ev(
                15,
                Track::Server,
                "gc",
                EventKind::Complete(Duration::from_micros(3)),
            ),
            ev(30, Track::Request(1), "req:server", EventKind::End),
            ev(40, Track::Server, "rejected", EventKind::Instant),
            ev(50, Track::Request(2), "wait:net:fb", EventKind::Begin),
            ev(55, Track::Request(2), "wait:net:fb", EventKind::End),
            // An unmatched End must not count a completion.
            ev(60, Track::Request(9), "req:offload", EventKind::End),
        ];
        let mut boot = ev(5, Track::Instance(0), "boot", EventKind::Begin);
        boot.args.push(("cold", Arg::Bool(true)));
        events.push(boot);
        let mut round = ev(20, Track::Db, "db:round", EventKind::Instant);
        round.args.push(("origin", Arg::Str("server")));
        events.push(round);

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
