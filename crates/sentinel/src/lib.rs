//! beehive-sentinel — online trace-invariant conformance engine.
//!
//! The workspace already emits four observability artifacts (traces,
//! metrics, profiles, per-request attribution), but nothing validated that
//! the event stream itself obeys BeeHive's semantics — so a simulator bug
//! could silently corrupt every downstream report. This crate turns the
//! telemetry layer into a correctness oracle: a streaming [`Sentinel`]
//! consumes [`beehive_telemetry::TraceEvent`]s in virtual-time order —
//! either online during a simulation (a telemetry consumer the driver feeds
//! through [`beehive_telemetry::pump`]) or by replaying a recorded
//! [`beehive_telemetry::Trace`] — and checks typed invariants as events
//! arrive:
//!
//! * **time-monotonic** — virtual time never runs backwards across the
//!   recorded stream,
//! * **span-nesting** — every span `End` matches an open `Begin` on its
//!   track, and residences (`wait:*`) never overlap, whether open as a
//!   span or recorded as one fixed-length `Complete` leg (a request parks
//!   on one resource at a time),
//! * **session-protocol** — one session per request track, no activity
//!   after a terminal event, no session end inside the request's own
//!   leg, and an instance is never released while the session it serves
//!   is still open,
//! * **offload-conservation** — every `offload:decision` that chose to
//!   offload is terminated by exactly one `offload:dispatch` (warm reuse,
//!   new spawn, or saturated fallback to the server) at the same virtual
//!   instant,
//! * **lifecycle-legality** — per-instance state machine
//!   `Unseen → Booting → Active → {Idle, Dead}` over the platform's
//!   `instance:*` instants, chaos-aware: `Platform::kill` is legal from any
//!   live state and boot-failure retries re-enter via a fresh instance,
//!   while activations without a boot, double kills, and events on dead
//!   instances are violations (`boots_cold + boots_warm = activations` by
//!   construction of the machine),
//! * **handoff-conservation** — a dirty-set sync that ships bytes must
//!   ship objects; hand-off totals are accumulated for cross-checks,
//! * **recovery-protocol** — recovery spans never nest, attempt numbers
//!   strictly increase, `recovery:degrade` is terminal and only legal once
//!   the retry policy's budget is exhausted,
//! * **exactly-once** — a request completes at most once (a re-executed
//!   request that double-applies its effects shows up as a second session
//!   `End`),
//! * **vocabulary** — unknown event names are warnings (instrumentation
//!   drift), escalated to violations by a strict [`SentinelReport`].
//!
//! Each [`Violation`] carries the invariant name, the offending track, the
//! virtual time, and a minimal K-event window around the failure so it
//! reads like a root-caused bug report. The [`SentinelReport`] JSON is
//! deterministic and byte-identical across `BEEHIVE_WORKERS` settings;
//! `scripts/verify.sh` golden-diffs it at 1/2/8 workers.

#![warn(missing_docs)]

mod engine;

pub use engine::{Sentinel, SentinelConfig};

use beehive_sim::json::{Json, ToJson};
use beehive_sim::json_record;

/// The typed invariant classes the sentinel checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// Virtual time never decreases across the event stream.
    TimeMonotonic,
    /// Span `End`s match open `Begin`s; residence spans never overlap.
    SpanNesting,
    /// One session per track, quiet after terminal, release only after the
    /// session ends.
    SessionProtocol,
    /// Every offload decision terminates in exactly one dispatch.
    OffloadConservation,
    /// The per-instance lifecycle state machine.
    LifecycleLegality,
    /// Dirty-set syncs shipping bytes must ship objects.
    HandoffConservation,
    /// Recovery spans: non-nesting, increasing attempts, bounded degrade.
    RecoveryProtocol,
    /// A request completes at most once.
    ExactlyOnce,
    /// Event-name vocabulary drift (violation only under strict).
    Vocabulary,
}

impl Invariant {
    /// Every invariant class, in catalog order.
    pub const ALL: [Invariant; 9] = [
        Invariant::TimeMonotonic,
        Invariant::SpanNesting,
        Invariant::SessionProtocol,
        Invariant::OffloadConservation,
        Invariant::LifecycleLegality,
        Invariant::HandoffConservation,
        Invariant::RecoveryProtocol,
        Invariant::ExactlyOnce,
        Invariant::Vocabulary,
    ];

    /// The stable kebab-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::TimeMonotonic => "time-monotonic",
            Invariant::SpanNesting => "span-nesting",
            Invariant::SessionProtocol => "session-protocol",
            Invariant::OffloadConservation => "offload-conservation",
            Invariant::LifecycleLegality => "lifecycle-legality",
            Invariant::HandoffConservation => "handoff-conservation",
            Invariant::RecoveryProtocol => "recovery-protocol",
            Invariant::ExactlyOnce => "exactly-once",
            Invariant::Vocabulary => "vocabulary",
        }
    }
}

impl ToJson for Invariant {
    fn to_json(&self) -> Json {
        self.name().to_json()
    }
}

json_record! {
    /// One conformance violation: the invariant, where, when, why, and the
    /// minimal event window around the failure (oldest first, offending event
    /// last).
    #[derive(Clone, Debug, PartialEq)]
    pub struct Violation {
        /// Which invariant class fired.
        pub invariant: Invariant,
        /// The offending track, rendered (`req:7`, `inst:3`, `server`, …).
        pub track: String,
        /// Virtual time of the offending event, nanoseconds since t=0.
        pub at_ns: u64,
        /// What went wrong.
        pub message: String,
        /// The K events around the failure on the offending track, rendered.
        pub window: Vec<String>,
    }
}

json_record! {
    /// Conservation counters the sentinel accumulates while checking.
    ///
    /// `activations == boots_cold + boots_warm` holds by construction of
    /// the lifecycle machine; the hand-off totals mirror the
    /// `handoff_dirty_*` metrics so reports can be cross-checked.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct Counters {
        /// Cold boots (`instance:cold_boot`).
        pub boots_cold: u64,
        /// Warm starts (`instance:warm_start`).
        pub boots_warm: u64,
        /// Instance activations; equals `boots_cold + boots_warm`.
        pub activations: u64,
        /// Cold boots that came up (`instance:ready`).
        pub readies: u64,
        /// Busy instances returned to the warm cache (`instance:release`).
        pub releases: u64,
        /// Instances killed (`instance:kill`): chaos crashes and boot failures.
        pub kills: u64,
        /// Idle instances reclaimed by the keep-alive sweep (`instance:expire`).
        pub expires: u64,
        /// Instances pre-provisioned by the scaler (`instance:prewarm`).
        pub prewarms: u64,
        /// Offloaded sessions begun (`req:offload`).
        pub sessions_offload: u64,
        /// Shadow warm-up sessions begun (`req:shadow`).
        pub sessions_shadow: u64,
        /// Server sessions begun (`req:server`).
        pub sessions_server: u64,
        /// Sessions completed (request-span `End`s).
        pub completions: u64,
        /// Offload decisions that chose to offload.
        pub decisions_offload: u64,
        /// Offload decisions that kept the request on the server.
        pub decisions_kept: u64,
        /// Dispatches reusing a warm instance.
        pub dispatch_warm: u64,
        /// Dispatches spawning a new instance.
        pub dispatch_spawn: u64,
        /// Dispatches that fell back to the server (platform saturated).
        pub dispatch_server: u64,
        /// Requests refused by the saturated worker pool (`rejected`).
        pub rejections: u64,
        /// Recovery spans begun (`recovery` after an instance crash).
        pub recoveries: u64,
        /// Requests degraded to server execution (`recovery:degrade`).
        pub degrades: u64,
        /// Armed boot failures consumed (`chaos:boot_failure`).
        pub boot_failures: u64,
        /// Dirty-set syncs pulled from a peer (`sync:pull_dirty`).
        pub handoff_syncs: u64,
        /// Objects shipped by dirty-set syncs.
        pub handoff_objects: u64,
        /// Bytes shipped by dirty-set syncs.
        pub handoff_bytes: u64,
        /// Monitor hand-offs completed (`sync:monitor` ends).
        pub monitor_handoffs: u64,
        /// Dirty objects shipped with monitor hand-offs.
        pub monitor_dirty: u64,
    }
}

/// One scenario's conformance result.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioCheck {
    /// Scenario label (the engine's run label).
    pub label: String,
    /// Events checked.
    pub events: u64,
    /// Conservation counters.
    pub counters: Counters,
    /// Vocabulary warnings (unknown event names), first-seen order.
    pub warnings: Vec<String>,
    /// Violations, in stream order.
    pub violations: Vec<Violation>,
    /// The warnings as [`Invariant::Vocabulary`] findings, for
    /// [`SentinelReport::from_checks`] to escalate; not in the document.
    pub unknown: Vec<Violation>,
}

// Not a record: `unknown` is not in the document.
impl ToJson for ScenarioCheck {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label".into(), self.label.to_json()),
            ("events".into(), self.events.to_json()),
            ("counters".into(), self.counters.to_json()),
            ("warnings".into(), self.warnings.to_json()),
            ("violations".into(), self.violations.to_json()),
        ])
    }
}

json_record! {
    /// The on-disk / on-stdout `*.sentinel.json` document: one
    /// [`ScenarioCheck`] per scenario, in run order.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SentinelReport {
        /// Whether vocabulary warnings were escalated to violations.
        pub strict: bool,
        /// Per-scenario results.
        pub scenarios: Vec<ScenarioCheck>,
    }
}

impl SentinelReport {
    /// Assemble a report from finished checks (e.g. the `sentinel` field of
    /// each `beehive_workload::SimResult`). Under `strict` every warning
    /// becomes a `vocabulary` violation, after the stream-order ones.
    pub fn from_checks(strict: bool, mut scenarios: Vec<ScenarioCheck>) -> SentinelReport {
        for s in &mut scenarios {
            let unknown = std::mem::take(&mut s.unknown);
            if strict {
                s.warnings.clear();
                s.violations.extend(unknown);
            }
        }
        SentinelReport { strict, scenarios }
    }

    /// Total violations across scenarios.
    pub fn violations(&self) -> usize {
        self.scenarios.iter().map(|s| s.violations.len()).sum()
    }

    /// `true` when no scenario has violations.
    pub fn clean(&self) -> bool {
        self.violations() == 0
    }

    /// Human-readable summary: one line per scenario, then each violation
    /// as a root-caused block with its event window.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for s in &self.scenarios {
            let _ = writeln!(
                out,
                "{}: {} events, {} warnings, {} violations",
                s.label,
                s.events,
                s.warnings.len(),
                s.violations.len()
            );
            for w in &s.warnings {
                let _ = writeln!(out, "  warning: {w}");
            }
            for v in &s.violations {
                let _ = writeln!(
                    out,
                    "  violation [{}] on {} at {}ns: {}",
                    v.invariant.name(),
                    v.track,
                    v.at_ns,
                    v.message
                );
                for line in &v.window {
                    let _ = writeln!(out, "    | {line}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_sim::{Duration, SimTime};
    use beehive_telemetry::{EventKind, Trace, TraceEvent, Track};

    impl SentinelReport {
        /// Replay a run's labelled traces through a fresh [`Sentinel`] each:
        /// the whole-trace reference the online checks are tested against.
        fn from_traces(traces: &[(String, Trace)], cfg: &SentinelConfig) -> SentinelReport {
            let replay = |(label, trace): &(String, Trace)| {
                let mut s = Sentinel::new(cfg.clone());
                for e in &trace.events {
                    s.feed(e);
                }
                s.finish(label.clone())
            };
            SentinelReport::from_checks(false, traces.iter().map(replay).collect())
        }
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn invariant_names_round_trip() {
        // Each name picks its own invariant out of the catalog.
        for i in Invariant::ALL {
            let named = Invariant::ALL.into_iter().find(|j| j.name() == i.name());
            assert_eq!(named, Some(i));
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let trace = Trace {
            events: vec![
                TraceEvent::new(
                    at_ms(1),
                    Track::Request(3),
                    "req:server",
                    EventKind::Begin,
                    &[],
                ),
                TraceEvent::new(
                    at_ms(4),
                    Track::Request(3),
                    "req:server",
                    EventKind::End,
                    &[],
                ),
                // An End without a Begin: one violation with a window.
                TraceEvent::new(at_ms(5), Track::Request(9), "wait:db", EventKind::End, &[]),
            ],
        };
        let report =
            SentinelReport::from_traces(&[("s".to_string(), trace)], &SentinelConfig::default());
        assert_eq!(report.scenarios.len(), 1);
        assert_eq!(report.violations(), 1);
        assert!(!report.clean());
        let v = &report.scenarios[0].violations[0];
        assert_eq!(v.invariant, Invariant::SpanNesting);
        assert!(!v.window.is_empty());
        let rendered = report.to_json().render();
        let back = Json::parse(&rendered).unwrap();
        assert_eq!(back.render(), rendered);
        let scenario = &back.arr_field("scenarios").unwrap()[0];
        assert_eq!(scenario.str_field("label"), Ok("s"));
        let violation = &scenario.arr_field("violations").unwrap()[0];
        assert_eq!(violation.str_field("invariant"), Ok("span-nesting"));
        assert_eq!(violation.field("at_ns"), Ok(5_000_000u64));
        assert!(report.render_text().contains("span-nesting"));
    }
}
