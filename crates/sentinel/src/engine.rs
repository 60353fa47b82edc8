//! The streaming conformance engine: one [`Sentinel`] per scenario, fed
//! events in virtual-time order, producing a
//! [`ScenarioCheck`](crate::ScenarioCheck) at the end.
//!
//! An event costs one state lookup: its track's state holds the K-event
//! window beside the machines that judge it —
//!
//! * per request track: session phase, open-span multiset, residence
//!   exclusivity (open spans and the end of the last `Complete` leg),
//!   recovery protocol, exactly-once completion,
//! * per instance track: the lifecycle machine over the platform's
//!   `instance:*` instants ([`LIFECYCLE`]) plus the driver's `boot` span
//!   pairing,
//! * the server track: the offload decision/dispatch conservation ledger.
//!
//! What may appear where is data as well: the vocabulary gives each event
//! name the tracks and kinds it is emitted as
//! ([`EventName::legal`](beehive_telemetry::EventName::legal)), and
//! anything else is a `vocabulary` warning.
//!
//! Chaos-awareness is baked into the transition table rather than bolted
//! on: `instance:kill` is legal from every live state (crashes strike
//! booting, busy and idle instances alike), `chaos:boot_failure` may
//! arrive on an already-dead instance (the driver kills first, then marks
//! why), a recovery replacement may be warm (`Idle → Active`) or cold
//! (`Unseen → Booting`), and instances prewarmed before the recorder
//! installs legally first appear as `Unseen → Active` warm starts.

use beehive_sim::{FastMap, SimTime};
use beehive_telemetry::{Arg, EventKind, EventName as N, TraceEvent, Track};

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

// ---- the instance lifecycle ---------------------------------------------

/// The per-instance lifecycle state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Life {
    /// Never seen: either truly new, or provisioned before the recorder.
    #[default]
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

/// One transition of the instance lifecycle: the `instance:*` instant that
/// takes it, the states it is legal in, where it leads, and the
/// conservation counter it bumps. From any other state it is a
/// `lifecycle-legality` violation, and the machine follows it anyway so
/// that one bad hop does not cascade.
struct Edge(N, &'static [Life], Life, fn(&mut Counters) -> &mut u64);

/// The instance lifecycle as data. On top of it, every `instance:*` name and
/// the `boot` span are illegal on a dead instance (ids are never reused), a
/// `boot` span needs a booting or active instance, and a release must not
/// strand the session its instance serves.
#[rustfmt::skip]
const LIFECYCLE: [Edge; 5] = {
    use Life::{Active, Booting, Dead, Idle, Unseen};
    [
        // Ids are fresh per cold boot, so only Unseen is legal.
        Edge(N::InstanceColdBoot, &[Unseen], Booting, |c| &mut c.boots_cold),
        // Unseen: provisioned before the recorder installed (prewarm);
        // Idle: re-acquired from the warm cache.
        Edge(N::InstanceWarmStart, &[Idle, Unseen], Active, |c| &mut c.boots_warm),
        Edge(N::InstanceReady, &[Booting], Active, |c| &mut c.readies),
        Edge(N::InstanceRelease, &[Active], Idle, |c| &mut c.releases),
        // Chaos-aware: crashes strike booting, busy and idle instances alike.
        Edge(N::InstanceKill, &[Unseen, Booting, Active, Idle], Dead, |c| &mut c.kills),
    ]
};

// ---- per-track state ------------------------------------------------------

/// A track's last K events: a circular buffer whose oldest event, once it
/// is full, sits at `next`.
#[derive(Debug, Default)]
struct Ring {
    events: Vec<TraceEvent>,
    next: usize,
}

impl Ring {
    fn push(&mut self, e: &TraceEvent, k: usize) {
        if self.events.len() < k {
            self.events.reserve_exact(k - self.events.len());
            self.events.push(*e);
        } else if k > 0 {
            self.events[self.next] = *e;
            self.next = if self.next + 1 == k { 0 } else { self.next + 1 };
        }
    }

    fn render(&self) -> Vec<String> {
        let (newer, older) = self.events.split_at(self.next);
        older.iter().chain(newer).map(fmt_event).collect()
    }
}

/// Session phase of a request track.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Phase {
    /// No session span seen yet.
    #[default]
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
    ring: Ring,
    phase: Phase,
    session: Option<N>,
    instance: Option<u32>,
    /// Open-span multiset: `(name, depth)`.
    open: Vec<(N, u32)>,
    /// Open residence (`wait:*`) spans; the lifecycle allows at most one.
    waits: u32,
    /// When the track's last fixed-length residence leg (a `Complete`)
    /// ends, in nanoseconds: no other residence may start, and the session
    /// may not end, before it.
    busy_until: u64,
    recovery_open: bool,
    recoveries: u64,
    last_attempt: u64,
}

#[derive(Debug, Default)]
struct InstState {
    ring: Ring,
    life: Life,
    /// A driver `boot` span is open.
    boot_open: bool,
    /// The request track whose open session this instance serves.
    owner: Option<u64>,
}

/// What one event raised, in order: all on its own track, at its own time.
type Findings = Vec<(Invariant, String)>;

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
    requests: FastMap<u64, ReqState>,
    instances: FastMap<u32, InstState>,
    /// The windows of the server, platform, database and kernel tracks.
    endpoints: [Ring; 4],
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
            requests: FastMap::default(),
            instances: FastMap::default(),
            endpoints: Default::default(),
        }
    }

    /// Check one event.
    pub fn feed(&mut self, e: &TraceEvent) {
        self.events += 1;
        let at = e.at.saturating_since(SimTime::ZERO).as_nanos();
        let mut found = Findings::new();
        if at < self.last_at {
            let message = format!("virtual time ran backwards: {} < {}", at, self.last_at);
            found.push((Invariant::TimeMonotonic, message));
        } else {
            self.last_at = at;
        }
        let (k, legal) = (self.cfg.window, e.name.legal(e.track, e.kind));
        let c = &mut self.counters;
        match e.track {
            Track::Request(rid) => {
                let st = self.requests.entry(rid).or_default();
                st.ring.push(e, k);
                let max_retries = self.cfg.max_retries;
                request(st, rid, e, &mut self.instances, c, max_retries, &mut found);
            }
            Track::Instance(i) => {
                let st = self.instances.entry(i).or_default();
                st.ring.push(e, k);
                instance(st, e, &self.requests, c, &mut found);
            }
            endpoint => {
                self.endpoints[endpoint_ring(endpoint)].push(e, k);
                if legal {
                    endpoint_event(e, c, &mut self.pending_dispatch, &mut found);
                }
            }
        }
        if !legal {
            self.warn_unknown(e, at);
        }
        for (invariant, message) in found {
            let v = self.finding(invariant, e.track, at, message);
            self.violations.push(v);
        }
    }

    /// Close out the stream and produce the scenario's result.
    pub fn finish(mut self, label: String) -> ScenarioCheck {
        if self.pending_dispatch > 0 {
            let message = "offload decision was never dispatched".to_string();
            let v = self.finding(
                Invariant::OffloadConservation,
                Track::Server,
                self.last_at,
                message,
            );
            self.violations.push(v);
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
        let ring = match track {
            Track::Request(rid) => self.requests.get(&rid).map(|s| &s.ring),
            Track::Instance(i) => self.instances.get(&i).map(|s| &s.ring),
            endpoint => Some(&self.endpoints[endpoint_ring(endpoint)]),
        };
        Violation {
            invariant,
            track: fmt_track(track),
            at_ns,
            message,
            window: ring.map(Ring::render).unwrap_or_default(),
        }
    }

    fn warn_unknown(&mut self, e: &TraceEvent, at: u64) {
        const UNKNOWN: &str = "unknown event name: ";
        let seen = |v: &Violation| v.message.strip_prefix(UNKNOWN) == Some(e.name.name());
        if !self.unknown.iter().any(seen) {
            let message = format!("{UNKNOWN}{}", e.name);
            let v = self.finding(Invariant::Vocabulary, e.track, at, message);
            self.unknown.push(v);
        }
    }
}

// ---- request tracks -------------------------------------------------------

fn request(
    st: &mut ReqState,
    rid: u64,
    e: &TraceEvent,
    instances: &mut FastMap<u32, InstState>,
    c: &mut Counters,
    max_retries: Option<u32>,
    found: &mut Findings,
) {
    use Invariant::{ExactlyOnce, RecoveryProtocol, SessionProtocol, SpanNesting};
    // Terminal tracks stay quiet — except that a second session End is the
    // exactly-once failure mode and deserves its own name.
    if matches!(st.phase, Phase::Ended | Phase::Degraded) {
        found.push(if e.kind == EventKind::End && Some(e.name) == st.session {
            let message = format!("request completed twice ({} ended again)", e.name);
            (ExactlyOnce, message)
        } else {
            let message = format!("activity after terminal event: {} {:?}", e.name, e.kind);
            (SessionProtocol, message)
        });
        return;
    }
    match (e.kind, e.name) {
        (EventKind::Begin, name) if name.is_session() => {
            if st.phase != Phase::Fresh {
                let message = format!("second session begin ({name}) on one track");
                return found.push((SessionProtocol, message));
            }
            st.phase = Phase::InSession;
            st.session = Some(name);
            bump_open(&mut st.open, name);
            *match name {
                N::ReqOffload => &mut c.sessions_offload,
                N::ReqShadow => &mut c.sessions_shadow,
                _ => &mut c.sessions_server,
            } += 1;
            if let Some(i) = e.arg_u64("instance") {
                bind(st, rid, i as u32, instances, "session began", found);
            }
        }
        (EventKind::Begin, N::Recovery) => {
            if st.recovery_open {
                let message = "recovery span begun while one is open".to_string();
                return found.push((RecoveryProtocol, message));
            }
            let attempt = e.arg_u64("attempt").unwrap_or(0);
            let last = st.last_attempt;
            st.recovery_open = true;
            st.recoveries += 1;
            st.last_attempt = attempt;
            bump_open(&mut st.open, N::Recovery);
            c.recoveries += 1;
            if attempt <= last {
                let message = format!("recovery attempt did not increase: {attempt} after {last}");
                found.push((RecoveryProtocol, message));
            }
            if let Some(j) = e.arg_u64("replacement") {
                // The old instance is dead; the session moves on.
                free_instance(st, rid, instances);
                bind(st, rid, j as u32, instances, "recovery re-bound", found);
            }
        }
        (EventKind::Begin, name) => {
            if name.is_residence() {
                residence_exclusive(st, name, e, found);
                st.waits += 1;
            }
            bump_open(&mut st.open, name);
        }
        (EventKind::Complete(d), name) if name.is_residence() => {
            residence_exclusive(st, name, e, found);
            st.busy_until = st.busy_until.max((e.at + d).as_nanos());
        }
        (EventKind::End, name) => {
            if !drop_open(&mut st.open, name) {
                return found.push((SpanNesting, format!("end without begin: {name}")));
            }
            if name.is_residence() {
                st.waits = st.waits.saturating_sub(1);
            }
            if Some(name) == st.session {
                if e.at.as_nanos() < st.busy_until {
                    let message = format!(
                        "session {name} ended inside its own residence leg (busy until {}ns)",
                        st.busy_until
                    );
                    found.push((SessionProtocol, message));
                }
                st.phase = Phase::Ended;
                c.completions += 1;
                free_instance(st, rid, instances);
            } else if name == N::Recovery {
                st.recovery_open = false;
            } else if name == N::SyncMonitor {
                c.monitor_handoffs += 1;
                c.monitor_dirty += e.arg_u64("dirty").unwrap_or(0);
            }
        }
        (EventKind::Instant, N::RecoveryDegrade) => {
            st.phase = Phase::Degraded;
            free_instance(st, rid, instances);
            c.degrades += 1;
            // The degrade happens on attempt `last + 1`; with `recoveries >
            // 0` the track has seen every attempt number, so degrading
            // inside the retry budget is a policy breach. (Attempts spent on
            // pre-session boot failures are invisible here, so tracks
            // without a recovery span are not judged.)
            let last = st.last_attempt;
            let budget = max_retries.map(u64::from);
            if let Some(max) = budget.filter(|&max| st.recoveries > 0 && last < max) {
                let message = format!(
                    "degraded on attempt {} with {} retries still budgeted",
                    last + 1,
                    max - last
                );
                found.push((RecoveryProtocol, message));
            }
        }
        // `OffloadSession::recover` marks the re-execution point; it only
        // happens inside the lifecycle's recovery span.
        (EventKind::Instant, N::Recovery) if !st.recovery_open => {
            let message = "session re-executed outside a recovery span".to_string();
            found.push((RecoveryProtocol, message));
        }
        (EventKind::Instant, N::SyncPullDirty) => pull_dirty(e, c, found),
        _ => {}
    }
}

/// A residence starting at `e`: none may be open on the track, as a span
/// or as a fixed-length leg that has not ended yet.
#[inline]
fn residence_exclusive(st: &ReqState, name: N, e: &TraceEvent, found: &mut Findings) {
    if st.waits > 0 || e.at.as_nanos() < st.busy_until {
        residence_overlap(st, name, found);
    }
}

#[cold]
fn residence_overlap(st: &ReqState, name: N, found: &mut Findings) {
    let message = if st.waits > 0 {
        format!("residence span {name} begun while another is open")
    } else {
        let until = st.busy_until;
        format!("residence span {name} begun inside a leg that ends at {until}ns")
    };
    found.push((Invariant::SpanNesting, message));
}

/// Bind request `rid`'s session to instance `i`, which must be booting or
/// active and serve no other open session.
fn bind(
    st: &mut ReqState,
    rid: u64,
    i: u32,
    instances: &mut FastMap<u32, InstState>,
    how: &str,
    found: &mut Findings,
) {
    let inst = instances.entry(i).or_default();
    if !matches!(inst.life, Life::Active | Life::Booting) {
        let message = if inst.life == Life::Unseen {
            format!("{how} on instance inst:{i} with no boot (activation without boot)")
        } else {
            format!("{how} on {} instance inst:{i}", inst.life.name())
        };
        found.push((Invariant::LifecycleLegality, message));
    }
    if let Some(other) = inst.owner.filter(|&other| other != rid) {
        let message = format!("inst:{i} already serves open session req:{other}");
        found.push((Invariant::LifecycleLegality, message));
    }
    inst.owner = Some(rid);
    st.instance = Some(i);
}

/// The session on `rid` no longer holds its instance.
fn free_instance(st: &ReqState, rid: u64, instances: &mut FastMap<u32, InstState>) {
    let inst = st.instance.and_then(|i| instances.get_mut(&i));
    if let Some(inst) = inst.filter(|inst| inst.owner == Some(rid)) {
        inst.owner = None;
    }
}

// ---- instance tracks ------------------------------------------------------

fn instance(
    st: &mut InstState,
    e: &TraceEvent,
    requests: &FastMap<u64, ReqState>,
    c: &mut Counters,
    found: &mut Findings,
) {
    use Invariant::{LifecycleLegality, SessionProtocol, SpanNesting};
    // A dead instance must see none of the names the machine judges.
    let judged = |name| {
        matches!(name, N::Boot | N::InstanceExpire | N::InstancePrewarm)
            || LIFECYCLE.iter().any(|edge| edge.0 == name)
    };
    if st.life == Life::Dead && judged(e.name) {
        let message = format!("{} on dead instance (ids are never reused)", e.name);
        return found.push((LifecycleLegality, message));
    }
    match (e.kind, e.name) {
        (EventKind::Begin, N::Boot) => {
            if st.boot_open {
                found.push((SpanNesting, "boot span begun while one is open".to_string()));
            }
            // A cold acquire precedes the span (Booting); a warm acquire
            // re-used from the platform precedes it too (Active).
            if !matches!(st.life, Life::Booting | Life::Active) {
                let message = format!("boot span on {} instance (no acquire)", st.life.name());
                found.push((LifecycleLegality, message));
            }
            st.boot_open = true;
        }
        (EventKind::End, N::Boot) => {
            if !st.boot_open {
                found.push((SpanNesting, "end without begin: boot".to_string()));
            }
            st.boot_open = false;
        }
        (EventKind::Instant, N::ChaosBootFailure) => c.boot_failures += 1,
        (EventKind::Instant, N::SyncPullDirty) => pull_dirty(e, c, found),
        (EventKind::Instant, name) => {
            let Some(Edge(_, from, to, count)) = LIFECYCLE.iter().find(|edge| edge.0 == name)
            else {
                return;
            };
            if !from.contains(&st.life) {
                let message = format!("illegal transition: {name} on {} instance", st.life.name());
                found.push((LifecycleLegality, message));
            }
            st.life = *to;
            *count(c) += 1;
            if name != N::InstanceRelease {
                return;
            }
            let owner = st.owner.take();
            let open = |rid| {
                requests
                    .get(&rid)
                    .is_some_and(|s| s.phase == Phase::InSession)
            };
            if let Some(rid) = owner.filter(|&rid| open(rid)) {
                let message = format!("released while session req:{rid} is still open");
                found.push((SessionProtocol, message));
            }
        }
        _ => {}
    }
}

fn pull_dirty(e: &TraceEvent, c: &mut Counters, found: &mut Findings) {
    let objects = e.arg_u64("objects").unwrap_or(0);
    let bytes = e.arg_u64("bytes").unwrap_or(0);
    c.handoff_syncs += 1;
    c.handoff_objects += objects;
    c.handoff_bytes += bytes;
    if bytes > 0 && objects == 0 {
        let message = format!("dirty-set sync shipped {bytes} bytes but zero objects");
        found.push((Invariant::HandoffConservation, message));
    }
}

// ---- server / platform / db / sim tracks ----------------------------------

/// A legal event on an endpoint track.
fn endpoint_event(e: &TraceEvent, c: &mut Counters, pending: &mut u64, found: &mut Findings) {
    use Invariant::OffloadConservation;
    match e.name {
        N::OffloadDecision if e.arg_bool("offload").unwrap_or(false) => {
            if *pending > 0 {
                let message = "offload decision while the previous one is undispatched";
                found.push((OffloadConservation, message.to_string()));
            }
            c.decisions_offload += 1;
            *pending = 1;
        }
        N::OffloadDecision => c.decisions_kept += 1,
        N::OffloadDispatch => {
            if *pending == 0 {
                let message = "dispatch without an offload decision".to_string();
                found.push((OffloadConservation, message));
            } else {
                *pending = 0;
            }
            match e.arg_str("outcome") {
                Some("warm") => c.dispatch_warm += 1,
                Some("spawn") => c.dispatch_spawn += 1,
                Some("server") => c.dispatch_server += 1,
                other => {
                    let message = format!("dispatch with unknown outcome {other:?}");
                    found.push((OffloadConservation, message));
                }
            }
        }
        N::Rejected => c.rejections += 1,
        // The keep-alive sweep reports a count, not ids: the expired
        // instances stay Idle in the machine and are simply never seen
        // again (dead ids are not re-acquired).
        N::InstanceExpire => c.expires += e.arg_u64("count").unwrap_or(0),
        N::InstancePrewarm => c.prewarms += e.arg_u64("count").unwrap_or(0),
        _ => {}
    }
}

// ---- small helpers --------------------------------------------------------

fn bump_open(open: &mut Vec<(N, u32)>, name: N) {
    for (n, d) in open.iter_mut() {
        if *n == name {
            *d += 1;
            return;
        }
    }
    open.push((name, 1));
}

/// Pop one open `name` span; `false` when none is open.
fn drop_open(open: &mut [(N, u32)], name: N) -> bool {
    for (n, d) in open.iter_mut() {
        if *n == name && *d > 0 {
            *d -= 1;
            return true;
        }
    }
    false
}

/// Which of [`Sentinel`]'s endpoint rings keeps `track`'s window.
fn endpoint_ring(track: Track) -> usize {
    match track {
        Track::Server => 0,
        Track::Platform => 1,
        Track::Db => 2,
        Track::Sim => 3,
        Track::Request(_) | Track::Instance(_) => unreachable!("tracks with their own state"),
    }
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
    for (k, a) in e.args.iter() {
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

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + Duration::from_micros(us)
    }

    /// A minimal legal offload: decision, dispatch, cold boot, session,
    /// completion, release.
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
            events.push(TraceEvent::new(
                at(i),
                Track::Request(1),
                "wait:db",
                EventKind::Begin,
                &[],
            ));
            events.push(TraceEvent::new(
                at(i),
                Track::Request(1),
                "wait:db",
                EventKind::End,
                &[],
            ));
        }
        events.push(TraceEvent::new(
            at(30),
            Track::Request(1),
            "sync:monitor",
            EventKind::End,
            &[],
        ));
        let c = check(events);
        assert_eq!(c.violations.len(), 1);
        let w = &c.violations[0].window;
        assert_eq!(w.len(), 5, "window capped at K");
        assert!(w.last().unwrap().contains("sync:monitor"), "offender last");
    }
}
