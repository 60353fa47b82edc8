//! The metrics registry as a fold over telemetry.
//!
//! [`MetricsFold`] takes a run's [`beehive_telemetry`] events one at a time,
//! in emission order, and derives every counter, gauge and histogram the
//! workload driver reports from them. It is a [`Consumer`]: the driver feeds
//! it online, from the same per-step pump as the sentinel and the
//! observatory (`SimConfig::metrics`), and [`reduce`] [`replay`]s retained
//! traces into it. There is one path, so a traced and an untraced run of a
//! scenario write the same `.metrics.json`.

use beehive_sim::{Duration, FastMap, SimTime};
use beehive_telemetry::summary::{replay, Arrival, Consumer};
use beehive_telemetry::{EventKind, EventName as N, Trace, TraceEvent, Track};

use crate::registry::{MetricsSnapshot, Registry, ScenarioMetrics};

/// One run's metrics, folded from its telemetry: every event once, in
/// emission order ([`Consumer::event`]), then [`finish`](Self::finish).
#[derive(Debug)]
pub struct MetricsFold {
    reg: Registry,
    /// Per recovering request, when its crash was detected.
    detected: FastMap<Track, SimTime>,
}

impl MetricsFold {
    /// An empty fold bucketing its time series into `window`-sized windows.
    pub fn new(window: Duration) -> MetricsFold {
        MetricsFold {
            reg: Registry::new(window),
            detected: FastMap::default(),
        }
    }

    /// The registry the events folded into.
    pub fn finish(self) -> Registry {
        self.reg
    }
}

impl Consumer for MetricsFold {
    fn event(&mut self, e: &TraceEvent, arrival: Option<Arrival>) {
        let reg = &mut self.reg;
        if let Some(Arrival::End(rid, kind, arrival, end)) = arrival {
            if kind == N::ReqShadow {
                return reg.add("shadow_executions", end, 1);
            }
            reg.add("requests_completed", end, 1);
            reg.observe_exemplar("request_latency", end.saturating_since(arrival), rid);
            if kind == N::ReqOffload {
                reg.add("requests_offloaded", end, 1);
            }
            return;
        }
        match (e.kind, e.name) {
            (EventKind::Counter(v), name) => reg.set_gauge(name.name(), e.at, v),
            (EventKind::Complete(d), N::Gc) => {
                reg.observe("gc_pause", e.at, d);
                reg.add("gc_pause_ns", e.at, d.as_nanos());
            }
            (EventKind::Instant, N::Rejected) => reg.add("requests_rejected", e.at, 1),
            // An offloaded request's round is its database residence; a
            // `db:round` marks a server request's.
            (EventKind::Begin | EventKind::Complete(_), N::WaitDb) => {
                reg.add("db_rounds_function", e.at, 1);
            }
            (EventKind::Instant, N::DbRound) => reg.add("db_rounds_server", e.at, 1),
            (EventKind::Instant, N::SyncPullDirty) => {
                let objects = e.arg_u64("objects").unwrap_or(0);
                reg.add("handoff_dirty_objects", e.at, objects);
                reg.add("handoff_dirty_bytes", e.at, e.arg_u64("bytes").unwrap_or(0));
            }
            (EventKind::Instant, N::ChaosCrash) => reg.add("crashes", e.at, 1),
            (EventKind::Instant, N::ChaosRpcDrop | N::ChaosDbReconnect) => {
                reg.add("retries", e.at, 1);
            }
            // The kernel-track one only arms the fault.
            (EventKind::Instant, N::ChaosBootFailure) if matches!(e.track, Track::Instance(_)) => {
                reg.add("boot_failures", e.at, 1);
                match e.arg_str("outcome") {
                    Some("retry") => reg.add("retries", e.at, 1),
                    Some("degrade") => reg.add("degraded_to_server", e.at, 1),
                    _ => {}
                }
            }
            (EventKind::Instant, N::RecoveryDegrade) => {
                reg.add("re_executed_ns", e.at, e.arg_u64("lost_ns").unwrap_or(0));
                reg.add("degraded_to_server", e.at, 1);
            }
            (EventKind::Begin, N::Boot) => {
                let name = if e.arg_bool("cold").unwrap_or(false) {
                    "boots_cold"
                } else {
                    "boots_warm"
                };
                reg.add(name, e.at, 1);
            }
            (EventKind::Begin, N::Recovery) => {
                reg.add("re_executed_ns", e.at, e.arg_u64("lost_ns").unwrap_or(0));
                reg.add("retries", e.at, 1);
                self.detected.insert(e.track, e.at);
            }
            (EventKind::End, N::Recovery) => {
                if let (Some(at), Track::Request(rid)) = (self.detected.remove(&e.track), e.track) {
                    let latency = e.at.saturating_since(at);
                    reg.observe_exemplar("recovery_latency", latency, rid);
                    reg.add("recoveries", e.at, 1);
                }
            }
            (
                EventKind::Begin | EventKind::Complete(_),
                N::WaitServerCpuFb | N::WaitFunctionCpuFb | N::WaitNetFb,
            ) => reg.add("fallbacks", e.at, 1),
            _ => {}
        }
    }

    /// Boxed, the fold has no one to hand its registry to: its owner takes
    /// it with the inherent [`MetricsFold::finish`].
    fn finish(self: Box<Self>) {}
}

/// Reduce one labelled trace to its scenario metrics.
pub fn reduce_one(label: &str, trace: &Trace, window: Duration) -> ScenarioMetrics {
    let mut fold = MetricsFold::new(window);
    replay(&trace.events, &mut fold);
    fold.finish().snapshot(label)
}

/// Reduce labelled traces (as the engine's runs retain them) to a full
/// snapshot.
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
        events.push(TraceEvent::new(
            at(5),
            Track::Instance(0),
            "boot",
            EventKind::Begin,
            &cold,
        ));
        events.push(TraceEvent::new(
            at(20),
            Track::Db,
            "db:round",
            EventKind::Instant,
            &[],
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
