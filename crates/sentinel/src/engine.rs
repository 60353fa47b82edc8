//! The streaming conformance engine: one [`Sentinel`] per scenario, fed
//! events in virtual-time order, producing a
//! [`ScenarioCheck`](crate::ScenarioCheck) at the end.
//!
//! The checker is a pile of small state machines keyed by track:
//!
//! * per request track: session phase, open-span multiset, residence-span
//!   exclusivity, recovery protocol, exactly-once completion,
//! * per instance track: the lifecycle machine over the platform's
//!   `instance:*` instants plus the driver's `boot` span pairing,
//! * the server track: the offload decision/dispatch conservation ledger.
//!
//! Chaos-awareness is baked into the transition tables rather than bolted
//! on: `instance:kill` is legal from every live state (crashes strike
//! booting, busy and idle instances alike), `chaos:boot_failure` may
//! arrive on an already-dead instance (the driver kills first, then marks
//! why), a recovery replacement may be warm (`Idle → Active`) or cold
//! (`Unseen → Booting`), and instances prewarmed before the recorder
//! installs legally first appear as `Unseen → Active` warm starts.

use std::collections::{HashMap, VecDeque};

use beehive_sim::SimTime;
use beehive_telemetry::{Arg, EventKind, TraceEvent, Track};

use crate::{Counters, Invariant, ScenarioCheck, Violation};

/// Checker configuration.
#[derive(Clone, Debug)]
pub struct SentinelConfig {
    /// The retry policy's `max_retries`, when known: bounds when
    /// `recovery:degrade` may legally fire.
    pub max_retries: Option<u32>,
    /// Window size K: how many events around a failure to report.
    pub window: usize,
}

impl Default for SentinelConfig {
    fn default() -> SentinelConfig {
        SentinelConfig {
            max_retries: None,
            window: 5,
        }
    }
}

/// Session phase of a request track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// No session span seen yet.
    Fresh,
    /// Inside the session span.
    InSession,
    /// The session span ended.
    Ended,
    /// `recovery:degrade` rerouted the request; the track is terminal.
    Degraded,
}

#[derive(Debug, Default)]
struct ReqState {
    phase: Option<Phase>,
    session: Option<&'static str>,
    instance: Option<u32>,
    /// Open-span multiset: `(name, depth)`.
    open: Vec<(&'static str, u32)>,
    /// Open residence (`wait:*`) spans; the lifecycle allows at most one.
    waits: u32,
    recovery_open: bool,
    recoveries: u64,
    last_attempt: u64,
}

impl ReqState {
    fn phase(&self) -> Phase {
        self.phase.unwrap_or(Phase::Fresh)
    }
}

/// The per-instance lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Life {
    /// Never seen: either truly new, or provisioned before the recorder.
    Unseen,
    /// Cold boot in flight.
    Booting,
    /// Acquired: serving (or reserved for) a session.
    Active,
    /// In the warm cache.
    Idle,
    /// Killed; instance ids are never reused.
    Dead,
}

impl Life {
    fn name(self) -> &'static str {
        match self {
            Life::Unseen => "unseen",
            Life::Booting => "booting",
            Life::Active => "active",
            Life::Idle => "idle",
            Life::Dead => "dead",
        }
    }
}

#[derive(Debug)]
struct InstState {
    life: Life,
    /// A driver `boot` span is open.
    boot_open: bool,
    /// The request track whose open session this instance serves.
    owner: Option<u64>,
}

impl Default for InstState {
    fn default() -> InstState {
        InstState {
            life: Life::Unseen,
            boot_open: false,
            owner: None,
        }
    }
}

/// The streaming conformance checker. Feed events in recorded order, then
/// [`Sentinel::finish`].
#[derive(Debug)]
pub struct Sentinel {
    cfg: SentinelConfig,
    events: u64,
    last_at: u64,
    counters: Counters,
    violations: Vec<Violation>,
    /// One `Vocabulary` finding per unknown event name, first-seen order,
    /// with the window at first sight.
    unknown: Vec<Violation>,
    /// Offload decisions awaiting their dispatch (0 or 1: the dispatch is
    /// emitted within the same event handler as the decision).
    pending_dispatch: u64,
    requests: HashMap<u64, ReqState>,
    instances: HashMap<u32, InstState>,
    rings: HashMap<Track, VecDeque<TraceEvent>>,
}

impl Sentinel {
    /// A fresh checker.
    pub fn new(cfg: SentinelConfig) -> Sentinel {
        Sentinel {
            cfg,
            events: 0,
            last_at: 0,
            counters: Counters::default(),
            violations: Vec::new(),
            unknown: Vec::new(),
            pending_dispatch: 0,
            requests: HashMap::new(),
            instances: HashMap::new(),
            rings: HashMap::new(),
        }
    }

    /// Check one event.
    pub fn feed(&mut self, e: &TraceEvent) {
        self.events += 1;
        let at = e.at.saturating_since(SimTime::ZERO).as_nanos();
        let ring = self.rings.entry(e.track).or_default();
        if ring.len() == self.cfg.window {
            ring.pop_front();
        }
        ring.push_back(e.clone());
        if at < self.last_at {
            self.violate(
                Invariant::TimeMonotonic,
                e.track,
                at,
                format!("virtual time ran backwards: {} < {}", at, self.last_at),
            );
        } else {
            self.last_at = at;
        }
        match e.track {
            Track::Request(rid) => self.feed_request(rid, e, at),
            Track::Instance(i) => self.feed_instance(i, e, at),
            Track::Server => self.feed_server(e, at),
            Track::Platform => self.feed_platform(e, at),
            Track::Db => self.feed_db(e, at),
            Track::Sim => self.feed_sim(e, at),
        }
    }

    /// Close out the stream and produce the scenario's result.
    pub fn finish(mut self, label: String) -> ScenarioCheck {
        if self.pending_dispatch > 0 {
            self.violate(
                Invariant::OffloadConservation,
                Track::Server,
                self.last_at,
                "offload decision was never dispatched".to_string(),
            );
        }
        // By construction of the lifecycle machine every activation is a
        // cold boot or a warm start; record the conservation total.
        self.counters.activations = self.counters.boots_cold + self.counters.boots_warm;
        ScenarioCheck {
            label,
            events: self.events,
            counters: self.counters,
            warnings: self.unknown.iter().map(|v| v.message.clone()).collect(),
            violations: self.violations,
            unknown: self.unknown,
        }
    }

    /// A finding on `track` with the window its ring holds now.
    fn finding(
        &self,
        invariant: Invariant,
        track: Track,
        at_ns: u64,
        message: String,
    ) -> Violation {
        let window = self
            .rings
            .get(&track)
            .map(|r| r.iter().map(fmt_event).collect())
            .unwrap_or_default();
        Violation {
            invariant,
            track: fmt_track(track),
            at_ns,
            message,
            window,
        }
    }

    fn violate(&mut self, invariant: Invariant, track: Track, at_ns: u64, message: String) {
        let v = self.finding(invariant, track, at_ns, message);
        self.violations.push(v);
    }

    fn warn_unknown(&mut self, e: &TraceEvent, at: u64) {
        const UNKNOWN: &str = "unknown event name: ";
        let seen = |v: &Violation| v.message.strip_prefix(UNKNOWN) == Some(e.name);
        if !self.unknown.iter().any(seen) {
            let message = format!("{UNKNOWN}{}", e.name);
            let v = self.finding(Invariant::Vocabulary, e.track, at, message);
            self.unknown.push(v);
        }
    }

    // ---- request tracks -------------------------------------------------

    fn feed_request(&mut self, rid: u64, e: &TraceEvent, at: u64) {
        if !known_request_event(e.name, e.kind) {
            self.warn_unknown(e, at);
        }
        let st = self.requests.entry(rid).or_default();
        let phase = st.phase();

        // Terminal tracks stay quiet — except that a second session End is
        // the exactly-once failure mode and deserves its own name.
        if phase == Phase::Ended || phase == Phase::Degraded {
            if e.kind == EventKind::End && Some(e.name) == st.session {
                self.violate(
                    Invariant::ExactlyOnce,
                    e.track,
                    at,
                    format!("request completed twice ({} ended again)", e.name),
                );
            } else {
                self.violate(
                    Invariant::SessionProtocol,
                    e.track,
                    at,
                    format!("activity after terminal event: {} {:?}", e.name, e.kind),
                );
            }
            return;
        }

        match e.kind {
            EventKind::Begin => self.request_begin(rid, e, at),
            EventKind::End => self.request_end(rid, e, at),
            EventKind::Instant => self.request_instant(rid, e, at),
            EventKind::Complete(_) => {} // boot:wait — vocab-checked above
            EventKind::Counter(_) => {}
        }
    }

    fn request_begin(&mut self, rid: u64, e: &TraceEvent, at: u64) {
        if e.name.starts_with("req:") {
            let st = self.requests.get_mut(&rid).expect("entry exists");
            if st.phase() != Phase::Fresh {
                self.violate(
                    Invariant::SessionProtocol,
                    e.track,
                    at,
                    format!("second session begin ({}) on one track", e.name),
                );
                return;
            }
            let st = self.requests.get_mut(&rid).expect("entry exists");
            st.phase = Some(Phase::InSession);
            st.session = Some(e.name);
            bump_open(&mut st.open, e.name);
            match e.name {
                "req:offload" => self.counters.sessions_offload += 1,
                "req:shadow" => self.counters.sessions_shadow += 1,
                _ => self.counters.sessions_server += 1,
            }
            if let Some(i) = e.arg_u64("instance") {
                self.bind_instance(rid, i as u32, e.track, at, "session began");
            }
            return;
        }
        if e.name == "recovery" {
            let st = self.requests.get_mut(&rid).expect("entry exists");
            if st.recovery_open {
                self.violate(
                    Invariant::RecoveryProtocol,
                    e.track,
                    at,
                    "recovery span begun while one is open".to_string(),
                );
                return;
            }
            let attempt = e.arg_u64("attempt").unwrap_or(0);
            let last = st.last_attempt;
            st.recovery_open = true;
            st.recoveries += 1;
            st.last_attempt = attempt;
            bump_open(&mut st.open, e.name);
            self.counters.recoveries += 1;
            if attempt <= last {
                self.violate(
                    Invariant::RecoveryProtocol,
                    e.track,
                    at,
                    format!("recovery attempt did not increase: {attempt} after {last}"),
                );
            }
            if let Some(j) = e.arg_u64("replacement") {
                // The old instance is dead; the session moves on.
                if let Some(old) = self.requests.get(&rid).and_then(|s| s.instance) {
                    if let Some(inst) = self.instances.get_mut(&old) {
                        if inst.owner == Some(rid) {
                            inst.owner = None;
                        }
                    }
                }
                self.bind_instance(rid, j as u32, e.track, at, "recovery re-bound");
            }
            return;
        }
        let st = self.requests.get_mut(&rid).expect("entry exists");
        if e.name.starts_with("wait:") {
            if st.waits > 0 {
                self.violate(
                    Invariant::SpanNesting,
                    e.track,
                    at,
                    format!("residence span {} begun while another is open", e.name),
                );
            }
            let st = self.requests.get_mut(&rid).expect("entry exists");
            st.waits += 1;
        }
        let st = self.requests.get_mut(&rid).expect("entry exists");
        bump_open(&mut st.open, e.name);
    }

    fn request_end(&mut self, rid: u64, e: &TraceEvent, at: u64) {
        let st = self.requests.get_mut(&rid).expect("entry exists");
        if !drop_open(&mut st.open, e.name) {
            self.violate(
                Invariant::SpanNesting,
                e.track,
                at,
                format!("end without begin: {}", e.name),
            );
            return;
        }
        let st = self.requests.get_mut(&rid).expect("entry exists");
        if e.name.starts_with("wait:") {
            st.waits = st.waits.saturating_sub(1);
        }
        if Some(e.name) == st.session {
            st.phase = Some(Phase::Ended);
            self.counters.completions += 1;
            if let Some(i) = self.requests.get(&rid).and_then(|s| s.instance) {
                if let Some(inst) = self.instances.get_mut(&i) {
                    if inst.owner == Some(rid) {
                        inst.owner = None;
                    }
                }
            }
            return;
        }
        match e.name {
            "recovery" => {
                st.recovery_open = false;
            }
            "sync:monitor" => {
                self.counters.monitor_handoffs += 1;
                self.counters.monitor_dirty += e.arg_u64("dirty").unwrap_or(0);
            }
            _ => {}
        }
    }

    fn request_instant(&mut self, rid: u64, e: &TraceEvent, at: u64) {
        match e.name {
            "recovery:degrade" => {
                let st = self.requests.get_mut(&rid).expect("entry exists");
                st.phase = Some(Phase::Degraded);
                let (recoveries, last) = (st.recoveries, st.last_attempt);
                if let Some(i) = st.instance {
                    if let Some(inst) = self.instances.get_mut(&i) {
                        if inst.owner == Some(rid) {
                            inst.owner = None;
                        }
                    }
                }
                self.counters.degrades += 1;
                // The degrade happens on attempt `last + 1`; with `recoveries
                // > 0` the track has seen every attempt number, so degrading
                // inside the retry budget is a policy breach. (Attempts spent
                // on pre-session boot failures are invisible here, so tracks
                // without a recovery span are not judged.)
                if let Some(max) = self.cfg.max_retries {
                    if recoveries > 0 && last < u64::from(max) {
                        self.violate(
                            Invariant::RecoveryProtocol,
                            e.track,
                            at,
                            format!(
                                "degraded on attempt {} with {} retries still budgeted",
                                last + 1,
                                u64::from(max) - last
                            ),
                        );
                    }
                }
            }
            "recovery" => {
                // `OffloadSession::recover` marks the re-execution point; it
                // only happens inside the lifecycle's recovery span.
                let st = self.requests.get_mut(&rid).expect("entry exists");
                if !st.recovery_open {
                    self.violate(
                        Invariant::RecoveryProtocol,
                        e.track,
                        at,
                        "session re-executed outside a recovery span".to_string(),
                    );
                }
            }
            "sync:pull_dirty" => self.pull_dirty(e, at),
            _ => {}
        }
    }

    fn bind_instance(&mut self, rid: u64, i: u32, track: Track, at: u64, how: &str) {
        let life = self.instances.entry(i).or_default().life;
        let legal = matches!(life, Life::Active | Life::Booting);
        if !legal {
            let msg = if life == Life::Unseen {
                format!("{how} on instance inst:{i} with no boot (activation without boot)")
            } else {
                format!("{how} on {} instance inst:{i}", life.name())
            };
            self.violate(Invariant::LifecycleLegality, track, at, msg);
        }
        let inst = self.instances.entry(i).or_default();
        if let Some(other) = inst.owner {
            if other != rid {
                self.violate(
                    Invariant::LifecycleLegality,
                    track,
                    at,
                    format!("inst:{i} already serves open session req:{other}"),
                );
            }
        }
        let inst = self.instances.entry(i).or_default();
        inst.owner = Some(rid);
        if let Some(st) = self.requests.get_mut(&rid) {
            st.instance = Some(i);
        }
    }

    // ---- instance tracks ------------------------------------------------

    fn feed_instance(&mut self, i: u32, e: &TraceEvent, at: u64) {
        if !known_instance_event(e.name, e.kind) {
            self.warn_unknown(e, at);
        }
        // Only lifecycle events drive the machine; anything else on an
        // instance track (pre-session residence probes) passes through.
        let machine = e.name == "boot" || e.name.starts_with("instance:");
        let life = self.instances.entry(i).or_default().life;
        if life == Life::Dead && machine {
            self.violate(
                Invariant::LifecycleLegality,
                e.track,
                at,
                format!("{} on dead instance (ids are never reused)", e.name),
            );
            return;
        }
        match (e.kind, e.name) {
            (EventKind::Begin, "boot") => {
                let open = self.instances.entry(i).or_default().boot_open;
                if open {
                    self.violate(
                        Invariant::SpanNesting,
                        e.track,
                        at,
                        "boot span begun while one is open".to_string(),
                    );
                }
                // A cold acquire precedes the span (Booting); a warm acquire
                // re-used from the platform precedes it too (Active).
                if !matches!(life, Life::Booting | Life::Active) {
                    self.violate(
                        Invariant::LifecycleLegality,
                        e.track,
                        at,
                        format!("boot span on {} instance (no acquire)", life.name()),
                    );
                }
                self.instances.entry(i).or_default().boot_open = true;
            }
            (EventKind::End, "boot") => {
                let open = self.instances.entry(i).or_default().boot_open;
                if !open {
                    self.violate(
                        Invariant::SpanNesting,
                        e.track,
                        at,
                        "end without begin: boot".to_string(),
                    );
                }
                self.instances.entry(i).or_default().boot_open = false;
            }
            (EventKind::Instant, "instance:cold_boot") => {
                // Ids are fresh per cold boot, so only Unseen is legal.
                self.transition(i, e, at, &[Life::Unseen], Life::Booting);
                self.counters.boots_cold += 1;
            }
            (EventKind::Instant, "instance:warm_start") => {
                // Unseen: provisioned before the recorder installed
                // (prewarm); Idle: re-acquired from the warm cache.
                self.transition(i, e, at, &[Life::Idle, Life::Unseen], Life::Active);
                self.counters.boots_warm += 1;
            }
            (EventKind::Instant, "instance:ready") => {
                self.transition(i, e, at, &[Life::Booting], Life::Active);
                self.counters.readies += 1;
            }
            (EventKind::Instant, "instance:release") => {
                self.transition(i, e, at, &[Life::Active], Life::Idle);
                self.counters.releases += 1;
                let owner = self.instances.entry(i).or_default().owner.take();
                if let Some(rid) = owner {
                    let open = self
                        .requests
                        .get(&rid)
                        .map(|s| s.phase() == Phase::InSession)
                        .unwrap_or(false);
                    if open {
                        self.violate(
                            Invariant::SessionProtocol,
                            e.track,
                            at,
                            format!("released while session req:{rid} is still open"),
                        );
                    }
                }
            }
            (EventKind::Instant, "instance:kill") => {
                // Chaos-aware: crashes strike booting, busy and idle
                // instances alike; only a second kill is illegal (the Dead
                // guard above already rejected it).
                self.instances.entry(i).or_default().life = Life::Dead;
                self.counters.kills += 1;
            }
            (EventKind::Instant, "chaos:boot_failure") => {
                // The driver kills first, then marks why — legal on Dead
                // (and `machine` excludes chaos:* so the guard passed us).
                self.counters.boot_failures += 1;
            }
            (EventKind::Instant, "sync:pull_dirty") => self.pull_dirty(e, at),
            _ => {}
        }
    }

    fn transition(&mut self, i: u32, e: &TraceEvent, at: u64, from: &[Life], to: Life) {
        let inst = self.instances.entry(i).or_default();
        if from.contains(&inst.life) {
            inst.life = to;
        } else {
            let have = inst.life.name();
            self.violate(
                Invariant::LifecycleLegality,
                e.track,
                at,
                format!("illegal transition: {} on {have} instance", e.name),
            );
            // Follow the event anyway so one bad hop doesn't cascade.
            self.instances.entry(i).or_default().life = to;
        }
    }

    fn pull_dirty(&mut self, e: &TraceEvent, at: u64) {
        let objects = e.arg_u64("objects").unwrap_or(0);
        let bytes = e.arg_u64("bytes").unwrap_or(0);
        self.counters.handoff_syncs += 1;
        self.counters.handoff_objects += objects;
        self.counters.handoff_bytes += bytes;
        if bytes > 0 && objects == 0 {
            self.violate(
                Invariant::HandoffConservation,
                e.track,
                at,
                format!("dirty-set sync shipped {bytes} bytes but zero objects"),
            );
        }
    }

    // ---- server / platform / db / sim tracks ----------------------------

    fn feed_server(&mut self, e: &TraceEvent, at: u64) {
        match (e.kind, e.name) {
            (EventKind::Instant, "offload:decision") => {
                if e.arg_bool("offload").unwrap_or(false) {
                    if self.pending_dispatch > 0 {
                        self.violate(
                            Invariant::OffloadConservation,
                            e.track,
                            at,
                            "offload decision while the previous one is undispatched".to_string(),
                        );
                    }
                    self.counters.decisions_offload += 1;
                    self.pending_dispatch = 1;
                } else {
                    self.counters.decisions_kept += 1;
                }
            }
            (EventKind::Instant, "offload:dispatch") => {
                if self.pending_dispatch == 0 {
                    self.violate(
                        Invariant::OffloadConservation,
                        e.track,
                        at,
                        "dispatch without an offload decision".to_string(),
                    );
                } else {
                    self.pending_dispatch = 0;
                }
                match e.arg_str("outcome") {
                    Some("warm") => self.counters.dispatch_warm += 1,
                    Some("spawn") => self.counters.dispatch_spawn += 1,
                    Some("server") => self.counters.dispatch_server += 1,
                    other => self.violate(
                        Invariant::OffloadConservation,
                        e.track,
                        at,
                        format!("dispatch with unknown outcome {other:?}"),
                    ),
                }
            }
            (EventKind::Instant, "rejected") => self.counters.rejections += 1,
            // Closure construction on first dispatch to a fresh instance
            // (§4.2): a server-side Complete with its compute time.
            (EventKind::Complete(_), "closure:build") => {}
            // Burst-handler routing decisions (§5.1): pure observability for
            // the timeline substrate, no conservation law attached.
            (EventKind::Instant, "burst:route") => {}
            _ => self.warn_unknown(e, at),
        }
    }

    fn feed_platform(&mut self, e: &TraceEvent, at: u64) {
        match (e.kind, e.name) {
            (EventKind::Instant, "chaos:crash") => {}
            (EventKind::Instant, "instance:expire") => {
                // The keep-alive sweep reports a count, not ids: the expired
                // instances stay Idle in the machine and are simply never
                // seen again (dead ids are not re-acquired).
                self.counters.expires += e.arg_u64("count").unwrap_or(0);
            }
            (EventKind::Instant, "instance:prewarm") => {
                self.counters.prewarms += e.arg_u64("count").unwrap_or(0);
            }
            _ => self.warn_unknown(e, at),
        }
    }

    fn feed_db(&mut self, e: &TraceEvent, at: u64) {
        match (e.kind, e.name) {
            (EventKind::Instant, "db:round" | "db:execute" | "chaos:db_reconnect") => {}
            _ => self.warn_unknown(e, at),
        }
    }

    fn feed_sim(&mut self, e: &TraceEvent, at: u64) {
        match (e.kind, e.name) {
            (
                EventKind::Counter(_),
                "event_queue" | "server_pool" | "inflight" | "idle_instances",
            ) => {}
            (
                EventKind::Instant,
                "chaos:boot_failure"
                | "chaos:arm_rpc_drop"
                | "chaos:arm_rpc_delay"
                | "chaos:net_degrade"
                | "chaos:arm_db_drop"
                | "pool:depth"
                | "burst:onset",
            ) => {}
            _ => self.warn_unknown(e, at),
        }
    }
}

// ---- vocabulary ---------------------------------------------------------

fn known_request_event(name: &str, kind: EventKind) -> bool {
    if name.starts_with("wait:") || name.starts_with("fallback:") {
        return matches!(kind, EventKind::Begin | EventKind::End);
    }
    match name {
        "req:server" | "req:offload" | "req:shadow" | "recovery" | "sync:monitor"
        | "sync:volatile" => matches!(kind, EventKind::Begin | EventKind::End | EventKind::Instant),
        "boot:wait" => matches!(kind, EventKind::Complete(_)),
        "recovery:degrade" | "sync:lock_wait" | "sync:pull_dirty" | "snapshot"
        | "closure:refine" | "block" | "chaos:rpc_drop" | "chaos:rpc_delay" => {
            matches!(kind, EventKind::Instant)
        }
        _ => false,
    }
}

fn known_instance_event(name: &str, kind: EventKind) -> bool {
    // Pre-session FaaS endpoints share the request vocabulary (residence
    // probes land on the instance track until a session exists).
    if known_request_event(name, kind) {
        return true;
    }
    match name {
        "boot" => matches!(kind, EventKind::Begin | EventKind::End),
        "instance:cold_boot"
        | "instance:warm_start"
        | "instance:ready"
        | "instance:release"
        | "instance:kill"
        | "chaos:boot_failure" => matches!(kind, EventKind::Instant),
        _ => false,
    }
}

// ---- small helpers ------------------------------------------------------

fn bump_open(open: &mut Vec<(&'static str, u32)>, name: &'static str) {
    for (n, d) in open.iter_mut() {
        if *n == name {
            *d += 1;
            return;
        }
    }
    open.push((name, 1));
}

/// Pop one open `name` span; `false` when none is open.
fn drop_open(open: &mut [(&'static str, u32)], name: &str) -> bool {
    for (n, d) in open.iter_mut() {
        if *n == name && *d > 0 {
            *d -= 1;
            return true;
        }
    }
    false
}

fn fmt_track(track: Track) -> String {
    match track {
        Track::Server => "server".to_string(),
        Track::Request(r) => format!("req:{r}"),
        Track::Instance(i) => format!("inst:{i}"),
        Track::Platform => "platform".to_string(),
        Track::Db => "db".to_string(),
        Track::Sim => "sim".to_string(),
    }
}

fn fmt_event(e: &TraceEvent) -> String {
    use std::fmt::Write;
    let at = e.at.saturating_since(SimTime::ZERO).as_nanos();
    let kind = match e.kind {
        EventKind::Begin => "begin".to_string(),
        EventKind::End => "end".to_string(),
        EventKind::Complete(d) => format!("complete({}ns)", d.as_nanos()),
        EventKind::Instant => "instant".to_string(),
        EventKind::Counter(v) => format!("counter({v})"),
    };
    let mut out = format!("t={at}ns {} {} {kind}", fmt_track(e.track), e.name);
    for (k, a) in &e.args {
        let _ = match a {
            Arg::Int(v) => write!(out, " {k}={v}"),
            Arg::UInt(v) => write!(out, " {k}={v}"),
            Arg::Float(v) => write!(out, " {k}={v}"),
            Arg::Bool(v) => write!(out, " {k}={v}"),
            Arg::Str(v) => write!(out, " {k}={v}"),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_sim::Duration;

    fn ev(us: u64, track: Track, name: &'static str, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::ZERO + Duration::from_micros(us),
            track,
            name,
            kind,
            args: vec![],
        }
    }

    fn args(mut e: TraceEvent, a: &[(&'static str, Arg)]) -> TraceEvent {
        e.args = a.to_vec();
        e
    }

    /// A minimal legal offload: decision, dispatch, cold boot, session,
    /// completion, release.
    fn legal_offload() -> Vec<TraceEvent> {
        vec![
            args(
                ev(1, Track::Server, "offload:decision", EventKind::Instant),
                &[("offload", Arg::Bool(true)), ("engaged", Arg::Bool(true))],
            ),
            args(
                ev(1, Track::Server, "offload:dispatch", EventKind::Instant),
                &[("outcome", Arg::Str("spawn"))],
            ),
            args(
                ev(
                    1,
                    Track::Instance(0),
                    "instance:cold_boot",
                    EventKind::Instant,
                ),
                &[("boot_us", Arg::UInt(500))],
            ),
            args(
                ev(1, Track::Instance(0), "boot", EventKind::Begin),
                &[("cold", Arg::Bool(true))],
            ),
            ev(501, Track::Instance(0), "boot", EventKind::End),
            ev(
                501,
                Track::Instance(0),
                "instance:ready",
                EventKind::Instant,
            ),
            args(
                ev(501, Track::Request(7), "req:offload", EventKind::Begin),
                &[("instance", Arg::UInt(0)), ("warm", Arg::Bool(false))],
            ),
            ev(
                510,
                Track::Request(7),
                "wait:function_cpu",
                EventKind::Begin,
            ),
            ev(540, Track::Request(7), "wait:function_cpu", EventKind::End),
            ev(550, Track::Request(7), "req:offload", EventKind::End),
            args(
                ev(
                    550,
                    Track::Instance(0),
                    "instance:release",
                    EventKind::Instant,
                ),
                &[("busy_us", Arg::UInt(49))],
            ),
        ]
    }

    fn check(events: Vec<TraceEvent>) -> ScenarioCheck {
        let mut s = Sentinel::new(SentinelConfig::default());
        for e in &events {
            s.feed(e);
        }
        s.finish("t".to_string())
    }

    #[test]
    fn legal_stream_is_clean() {
        let c = check(legal_offload());
        assert_eq!(c.violations, vec![], "clean run must have no violations");
        assert!(c.warnings.is_empty());
        assert_eq!(c.counters.boots_cold, 1);
        assert_eq!(c.counters.activations, 1);
        assert_eq!(c.counters.sessions_offload, 1);
        assert_eq!(c.counters.completions, 1);
        assert_eq!(c.counters.dispatch_spawn, 1);
    }

    #[test]
    fn open_spans_at_horizon_are_tolerated() {
        let mut events = legal_offload();
        events.truncate(9); // stream ends inside the wait span
        let c = check(events);
        assert_eq!(c.violations, vec![]);
    }

    #[test]
    fn windows_cap_at_k_and_end_with_the_offender() {
        let mut events = Vec::new();
        for i in 0..20u64 {
            events.push(ev(i, Track::Request(1), "wait:db", EventKind::Begin));
            events.push(ev(i, Track::Request(1), "wait:db", EventKind::End));
        }
        events.push(ev(30, Track::Request(1), "sync:monitor", EventKind::End));
        let c = check(events);
        assert_eq!(c.violations.len(), 1);
        let w = &c.violations[0].window;
        assert_eq!(w.len(), 5, "window capped at K");
        assert!(w.last().unwrap().contains("sync:monitor"), "offender last");
    }
}
