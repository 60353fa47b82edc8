//! Differential test over violation paths: thousands of seeded streams, each
//! a legal baseline with a few random mutations, checked and rendered, the
//! renderings folded into one digest.
//!
//! The clean goldens only ever reach the sentinel's quiet paths. Here every
//! message, window line and counter that a dropped, duplicated, reordered,
//! re-kinded, renamed, re-valued or re-timed event can provoke is rendered,
//! and the digest pins them all. It was first recorded from the string-matching
//! engine that predates the typed event vocabulary, so any rewrite of the
//! checker must reproduce that engine's reports byte for byte. It moved
//! once, when fixed-length residence legs became one `Complete`: over the
//! old generator's streams the two checkers differed only on the 16 whose
//! mutations had re-kinded a residence event into a `Complete`, which had
//! been illegal; the generator then began to emit such legs itself. It
//! moved again when the mutations learned to move an event back in time
//! (to its predecessor's timestamp), the one kind that lands an event
//! inside a leg and so reaches both checks of a leg's extent. It moved a
//! third time when an offloaded request's database round became one
//! `wait:db` `Complete`: the generator records rounds so, ends every
//! completed offloaded session right behind one, and stops some streams
//! inside a round (an open `Begin`, as a run does at its horizon), and the
//! move back in time is drawn twice as often, so that each check of a
//! leg's extent fires in dozens of streams rather than one. It moved a
//! fourth time when `wait:db:fb` left the vocabulary and `db:round` lost its
//! `origin` argument: the generator records a fallback's database round as
//! `wait:db` and a server round with no arguments, and the checker of
//! before that change renders the new generator's streams to this digest.

use beehive_sentinel::{Invariant, Sentinel, SentinelConfig, SentinelReport, Violation};
use beehive_sim::json::ToJson;
use beehive_sim::{Duration, Rng, SimTime};
use beehive_telemetry::{Arg, EventKind, EventName, TraceEvent, Track};

/// How many streams the digest covers.
const STREAMS: u64 = 2_000;

/// FNV-1a over every rendered report (see the module doc for its history).
const DIGEST: u64 = 0x4245_f064_b0f5_cbe6;

/// Every name the simulator emits, for renames.
const VOCABULARY: [&str; 57] = [
    "req:server",
    "req:offload",
    "req:shadow",
    "recovery",
    "recovery:degrade",
    "sync:monitor",
    "sync:volatile",
    "sync:lock_wait",
    "sync:pull_dirty",
    "snapshot",
    "closure:refine",
    "block",
    "boot:wait",
    "fallback:code",
    "fallback:data",
    "fallback:static",
    "fallback:db",
    "fallback:native",
    "wait:server_cpu",
    "wait:server_cpu:fb",
    "wait:function_cpu",
    "wait:function_cpu:fb",
    "wait:net",
    "wait:net:fb",
    "wait:db",
    "wait:lock",
    "chaos:rpc_drop",
    "chaos:rpc_delay",
    "boot",
    "instance:cold_boot",
    "instance:warm_start",
    "instance:ready",
    "instance:release",
    "instance:kill",
    "instance:expire",
    "instance:prewarm",
    "chaos:boot_failure",
    "chaos:crash",
    "gc",
    "offload:decision",
    "offload:dispatch",
    "rejected",
    "closure:build",
    "burst:route",
    "db:round",
    "db:execute",
    "chaos:db_reconnect",
    "event_queue",
    "server_pool",
    "inflight",
    "idle_instances",
    "pool:depth",
    "burst:onset",
    "chaos:arm_rpc_drop",
    "chaos:arm_rpc_delay",
    "chaos:net_degrade",
    "chaos:arm_db_drop",
];

/// Names outside the vocabulary, for renames.
const UNKNOWN: [&str; 2] = ["bench", "not:a:real:event"];

/// The names the instance lifecycle judges, for renames on instance tracks.
const LIFECYCLE: [&str; 8] = [
    "boot",
    "instance:cold_boot",
    "instance:warm_start",
    "instance:ready",
    "instance:release",
    "instance:kill",
    "instance:expire",
    "instance:prewarm",
];

fn event(
    at_us: u64,
    track: Track,
    name: &'static str,
    kind: EventKind,
    args: &[(&'static str, Arg)],
) -> TraceEvent {
    let at = SimTime::ZERO + Duration::from_micros(at_us);
    TraceEvent::new(at, track, name, kind, args)
}

/// `e` with its arguments replaced.
fn with_args(e: &TraceEvent, args: &[(&'static str, Arg)]) -> TraceEvent {
    TraceEvent::new(e.at, e.track, e.name, e.kind, args)
}

/// Builds one legal stream: requests served on the server, on cold and warm
/// instances, through a crash and recovery, and degraded, now and then one
/// the run stops inside, with endpoint events of every track in between.
struct Legal {
    rng: Rng,
    now: u64,
    events: Vec<TraceEvent>,
    next_rid: u64,
    next_inst: u32,
    /// Instances released to the warm cache.
    idle: Vec<u32>,
    /// The retry budget the degrade script exhausts.
    max_retries: u64,
}

impl Legal {
    fn tick(&mut self) -> u64 {
        self.now += self.rng.gen_range(40);
        self.now
    }

    fn push(&mut self, track: Track, name: &'static str, kind: EventKind) {
        self.push_args(track, name, kind, &[]);
    }

    fn push_args(
        &mut self,
        track: Track,
        name: &'static str,
        kind: EventKind,
        args: &[(&'static str, Arg)],
    ) {
        let at = self.tick();
        self.events.push(event(at, track, name, kind, args));
    }

    fn complete(&mut self, track: Track, name: &'static str, args: &[(&'static str, Arg)]) {
        let d = Duration::from_micros(self.rng.gen_range(50));
        self.push_args(track, name, EventKind::Complete(d), args);
    }

    /// A fixed-length residence leg: one `Complete`, after which nothing
    /// on `req` happens before the leg ends.
    fn leg(&mut self, req: Track, name: &'static str) {
        let d = self.rng.gen_range(50);
        self.push(req, name, EventKind::Complete(Duration::from_micros(d)));
        self.now += d;
    }

    fn noise(&mut self) {
        use EventKind::{Counter, Instant};
        let v = self.rng.gen_range(9) as i64;
        match self.rng.gen_range(16) {
            0 => self.push(Track::Sim, "event_queue", Counter(v)),
            1 => self.push(Track::Sim, "server_pool", Counter(v)),
            2 => self.push(Track::Sim, "inflight", Counter(v)),
            3 => self.push(Track::Sim, "idle_instances", Counter(v)),
            4 => self.push_args(
                Track::Sim,
                "pool:depth",
                Instant,
                &[("pool", Arg::UInt(1)), ("depth", Arg::UInt(v as u64))],
            ),
            5 => self.push_args(
                Track::Sim,
                "burst:onset",
                Instant,
                &[("mrps_from", Arg::UInt(1000)), ("mrps_to", Arg::UInt(4000))],
            ),
            6 => {
                let arm = [
                    "chaos:arm_rpc_drop",
                    "chaos:arm_rpc_delay",
                    "chaos:net_degrade",
                ];
                self.push(Track::Sim, arm[v as usize % 3], Instant);
            }
            7 => self.push(Track::Db, "db:round", Instant),
            8 => self.push_args(
                Track::Db,
                "db:execute",
                Instant,
                &[("query", Arg::UInt(v as u64)), ("rows", Arg::UInt(2))],
            ),
            9 => self.push(Track::Db, "chaos:db_reconnect", Instant),
            10 => self.push(Track::Server, "rejected", Instant),
            11 => self.push_args(
                Track::Server,
                "burst:route",
                Instant,
                &[("route", Arg::Str(["primary", "scaled"][v as usize % 2]))],
            ),
            12 => self.complete(Track::Server, "gc", &[("copied_bytes", Arg::UInt(64))]),
            13 => self.push_args(
                Track::Platform,
                "instance:prewarm",
                Instant,
                &[("count", Arg::UInt(v as u64))],
            ),
            14 => self.push_args(
                Track::Platform,
                "instance:expire",
                Instant,
                &[("count", Arg::UInt(0))],
            ),
            _ => self.push(Track::Sim, "chaos:arm_db_drop", Instant),
        }
    }

    fn maybe_noise(&mut self) {
        while self.rng.chance(0.3) {
            self.noise();
        }
    }

    fn decision(&mut self, offload: bool) {
        self.push_args(
            Track::Server,
            "offload:decision",
            EventKind::Instant,
            &[
                ("offload", Arg::Bool(offload)),
                ("engaged", Arg::Bool(true)),
            ],
        );
    }

    fn dispatch(&mut self, outcome: &'static str) {
        self.push_args(
            Track::Server,
            "offload:dispatch",
            EventKind::Instant,
            &[("outcome", Arg::Str(outcome))],
        );
    }

    /// A cold boot of a fresh instance, up to `instance:ready`.
    fn cold_boot(&mut self) -> u32 {
        use EventKind::{Begin, End, Instant};
        let i = self.next_inst;
        self.next_inst += 1;
        let inst = Track::Instance(i);
        self.push_args(
            inst,
            "instance:cold_boot",
            Instant,
            &[("boot_us", Arg::UInt(500))],
        );
        self.push_args(inst, "boot", Begin, &[("cold", Arg::Bool(true))]);
        self.maybe_noise();
        self.push(inst, "boot", End);
        self.push(inst, "instance:ready", Instant);
        i
    }

    /// The body of a session on `req`: residence spans, fallbacks and syncs.
    fn body(&mut self, req: Track, on_faas: bool) {
        use EventKind::{Begin, End, Instant};
        for _ in 0..1 + self.rng.gen_range(4) {
            match self.rng.gen_range(8) {
                0 if on_faas => self.leg(req, "wait:function_cpu"),
                0 => {
                    self.push(req, "wait:server_cpu", Begin);
                    self.push(req, "wait:server_cpu", End);
                }
                1 => self.leg(req, "wait:net"),
                2 if on_faas => self.leg(req, "wait:db"),
                2 => self.push(Track::Db, "db:round", Instant),
                3 => {
                    self.push(req, "fallback:data", Begin);
                    self.leg(req, "wait:net:fb");
                    self.push(req, "fallback:data", End);
                    self.push_args(
                        req,
                        "closure:refine",
                        Instant,
                        &[("kind", Arg::Str("object"))],
                    );
                }
                4 => {
                    self.push(req, "sync:lock_wait", Instant);
                    self.push_args(req, "sync:monitor", Begin, &[("prev_owner", Arg::Int(-1))]);
                    self.push_args(req, "sync:monitor", End, &[("dirty", Arg::UInt(2))]);
                }
                5 => {
                    let (objects, bytes) = (1 + self.rng.gen_range(4), 8 * self.rng.gen_range(9));
                    self.push_args(
                        req,
                        "sync:pull_dirty",
                        Instant,
                        &[("objects", Arg::UInt(objects)), ("bytes", Arg::UInt(bytes))],
                    );
                }
                6 => {
                    self.push(req, "sync:volatile", Begin);
                    self.push_args(req, "sync:volatile", End, &[("dirty", Arg::UInt(1))]);
                    self.push_args(req, "snapshot", Instant, &[("bytes", Arg::UInt(640))]);
                }
                7 if self.rng.chance(0.5) => {
                    self.push_args(req, "fallback:db", Begin, &[("query", Arg::UInt(3))]);
                    self.leg(req, "wait:db");
                    self.push(req, "fallback:db", End);
                }
                _ => {
                    self.push(req, "wait:lock", Begin);
                    self.push(req, "wait:lock", End);
                    self.push(req, "chaos:rpc_delay", Instant);
                }
            }
            self.maybe_noise();
        }
    }

    /// An offloaded session's last database round, its `End` right behind.
    fn last_round(&mut self, req: Track, session: &'static str) {
        self.leg(req, "wait:db");
        self.push(req, session, EventKind::End);
    }

    fn server_request(&mut self) {
        let req = Track::Request(self.next_rid);
        self.next_rid += 1;
        self.decision(false);
        self.push(req, "req:server", EventKind::Begin);
        self.body(req, false);
        self.push(req, "req:server", EventKind::End);
    }

    /// An offloaded (or shadow) session on a warm instance if one is idle,
    /// else on a cold-booted one. A `cut` one is the run's last: its final
    /// round would complete past the horizon, so its `wait:db` is a `Begin`
    /// that never closes.
    fn offload_request(&mut self, session: &'static str, cut: bool) {
        use EventKind::{Begin, Instant};
        let rid = self.next_rid;
        self.next_rid += 1;
        let req = Track::Request(rid);
        self.decision(true);
        let (i, warm) = match self.idle.pop() {
            Some(i) => {
                self.dispatch("warm");
                self.push(Track::Instance(i), "instance:warm_start", Instant);
                (i, true)
            }
            None => {
                self.dispatch("spawn");
                let i = self.cold_boot();
                let d = Duration::from_micros(500);
                self.push_args(
                    req,
                    "boot:wait",
                    EventKind::Complete(d),
                    &[("cold", Arg::Bool(true))],
                );
                (i, false)
            }
        };
        self.push_args(
            req,
            session,
            Begin,
            &[("instance", Arg::UInt(i as u64)), ("warm", Arg::Bool(warm))],
        );
        self.body(req, true);
        if cut {
            return self.push(req, "wait:db", Begin);
        }
        if self.rng.chance(0.3) {
            let gc = [
                ("copied_bytes", Arg::UInt(32)),
                ("freed_bytes", Arg::UInt(96)),
            ];
            self.complete(Track::Instance(i), "gc", &gc);
            self.push_args(
                Track::Instance(i),
                "block",
                Instant,
                &[("reason", Arg::Str("db"))],
            );
        }
        self.last_round(req, session);
        self.release(i);
    }

    fn release(&mut self, i: u32) {
        self.push_args(
            Track::Instance(i),
            "instance:release",
            EventKind::Instant,
            &[("busy_us", Arg::UInt(49))],
        );
        self.idle.push(i);
    }

    /// An offloaded session whose instance crashes; recovered onto a cold
    /// replacement, or degraded to the server once the budget is spent.
    fn crashed_request(&mut self, degrade: bool) {
        use EventKind::{Begin, End, Instant};
        let rid = self.next_rid;
        self.next_rid += 1;
        let req = Track::Request(rid);
        self.decision(true);
        self.dispatch("spawn");
        let i = self.cold_boot();
        self.push_args(
            req,
            "req:offload",
            Begin,
            &[
                ("instance", Arg::UInt(i as u64)),
                ("warm", Arg::Bool(false)),
            ],
        );
        self.body(req, true);
        let mut failed = i;
        for attempt in 1..=self.max_retries.max(1) {
            self.push_args(
                Track::Platform,
                "chaos:crash",
                Instant,
                &[("instance", Arg::UInt(failed as u64))],
            );
            self.push(Track::Instance(failed), "instance:kill", Instant);
            self.push(req, "chaos:rpc_drop", Instant);
            let j = self.cold_boot();
            self.push_args(
                req,
                "recovery",
                Begin,
                &[
                    ("attempt", Arg::UInt(attempt)),
                    ("replacement", Arg::UInt(j as u64)),
                ],
            );
            self.push_args(
                req,
                "recovery",
                Instant,
                &[
                    ("from", Arg::UInt(failed as u64)),
                    ("to", Arg::UInt(j as u64)),
                ],
            );
            self.push(req, "recovery", End);
            failed = j;
            if !degrade {
                break;
            }
        }
        if degrade {
            self.push(Track::Instance(failed), "instance:kill", Instant);
            self.push(Track::Instance(failed), "chaos:boot_failure", Instant);
            self.push(req, "recovery:degrade", Instant);
        } else {
            self.body(req, true);
            self.last_round(req, "req:offload");
            self.release(failed);
        }
    }

    fn build(seed: u64) -> (Vec<TraceEvent>, SentinelConfig) {
        let mut rng = Rng::new(seed);
        let max_retries = rng.gen_range(3);
        let cfg = SentinelConfig {
            max_retries: rng.chance(0.5).then_some(max_retries as u32),
            window: 1 + rng.gen_range(6) as usize,
        };
        let mut g = Legal {
            rng,
            now: 0,
            events: Vec::new(),
            next_rid: 1,
            next_inst: 0,
            idle: Vec::new(),
            max_retries,
        };
        for _ in 0..2 + g.rng.gen_range(4) {
            g.maybe_noise();
            match g.rng.gen_range(6) {
                0 => g.server_request(),
                1 | 2 => g.offload_request("req:offload", false),
                3 => g.offload_request("req:shadow", false),
                4 => g.crashed_request(false),
                _ => g.crashed_request(true),
            }
        }
        if g.rng.chance(0.3) {
            g.maybe_noise();
            g.offload_request("req:offload", true);
        }
        (g.events, cfg)
    }
}

fn check(events: &[TraceEvent], cfg: &SentinelConfig) -> beehive_sentinel::ScenarioCheck {
    let mut s = Sentinel::new(cfg.clone());
    for e in events {
        s.feed(e);
    }
    s.finish("differential".to_string())
}

/// One random mutation of `events` (which stays non-empty).
fn mutate(rng: &mut Rng, events: &mut Vec<TraceEvent>) {
    let n = events.len() as u64;
    let i = rng.gen_range(n) as usize;
    match rng.gen_range(8) {
        0 if n > 1 => {
            events.remove(i);
        }
        1 => {
            let e = events[i];
            events.insert(i, e);
        }
        2 if i + 1 < events.len() => events.swap(i, i + 1),
        3 => {
            events[i].kind = match rng.gen_range(5) {
                0 => EventKind::Begin,
                1 => EventKind::End,
                2 => EventKind::Instant,
                3 => EventKind::Complete(Duration::from_micros(rng.gen_range(9))),
                _ => EventKind::Counter(rng.gen_range(9) as i64),
            };
        }
        4 => {
            // Half the renames on an instance track stay among the names
            // its lifecycle machine judges.
            let pick = rng.gen_range((VOCABULARY.len() + UNKNOWN.len()) as u64) as usize;
            let name = if matches!(events[i].track, Track::Instance(_)) && rng.chance(0.5) {
                LIFECYCLE[rng.gen_range(LIFECYCLE.len() as u64) as usize]
            } else if pick < VOCABULARY.len() {
                VOCABULARY[pick]
            } else {
                UNKNOWN[pick - VOCABULARY.len()]
            };
            events[i].name = EventName::resolve(name);
        }
        // Back to its predecessor's time, which keeps the stream in time
        // order: an event that followed a fixed-length leg now lands
        // inside it. Twice as likely as the others, so that enough session
        // ends land in their last round.
        5 | 6 if i > 0 => events[i].at = events[i - 1].at,
        _ => {
            let e = &events[i];
            let mut args = e.args.to_vec();
            match args.len() {
                0 => args.push(("bytes", Arg::UInt(rng.gen_range(200)))),
                len => {
                    let k = rng.gen_range(len as u64) as usize;
                    args[k].1 = match args[k].1 {
                        Arg::UInt(v) => Arg::UInt(v ^ (1 + rng.gen_range(4))),
                        Arg::Int(v) => Arg::Int(v - 1 - rng.gen_range(3) as i64),
                        Arg::Bool(v) => Arg::Bool(!v),
                        Arg::Str(_) => {
                            Arg::Str(["warm", "spawn", "server", "odd"][rng.gen_range(4) as usize])
                        }
                        Arg::Float(v) => Arg::Float(v + 1.0),
                    };
                }
            }
            events[i] = with_args(e, &args);
        }
    }
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn mutated_streams_render_the_recorded_reports() {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut fired = 0;
    let mut seen = Vec::new();
    // Streams that fire each check of a leg's extent.
    let (mut ended_in_leg, mut begun_in_leg) = (0, 0);
    for seed in 0..STREAMS {
        let (mut events, cfg) = Legal::build(seed);
        let clean = check(&events, &cfg);
        assert!(
            clean.violations.is_empty() && clean.warnings.is_empty(),
            "seed {seed}: the baseline must be legal: {:?} {:?}",
            clean.violations,
            clean.warnings
        );
        let mut rng = Rng::new(seed ^ 0xD1FF);
        for _ in 0..1 + rng.gen_range(3) {
            mutate(&mut rng, &mut events);
        }
        let c = check(&events, &cfg);
        fired += usize::from(!c.violations.is_empty() || !c.warnings.is_empty());
        let report = SentinelReport::from_checks(seed % 2 == 1, vec![c]);
        let violations = &report.scenarios[0].violations;
        for v in violations {
            if !seen.contains(&v.invariant) {
                seen.push(v.invariant);
            }
        }
        let fires = |invariant, what| {
            let says = |v: &Violation| v.invariant == invariant && v.message.contains(what);
            usize::from(violations.iter().any(says))
        };
        ended_in_leg += fires(
            Invariant::SessionProtocol,
            "ended inside its own residence leg",
        );
        begun_in_leg += fires(Invariant::SpanNesting, "begun inside a leg");
        digest = fnv(digest, report.to_json().render().as_bytes());
        digest = fnv(digest, report.render_text().as_bytes());
    }
    // Most mutations break something, and between them they break every
    // invariant; the digest is over all of them.
    assert!(fired > STREAMS as usize / 2, "only {fired} streams fired");
    let missed: Vec<_> = Invariant::ALL
        .iter()
        .filter(|i| !seen.contains(i))
        .collect();
    assert!(missed.is_empty(), "no stream fired {missed:?}");
    // Both checks of a fixed-length leg's extent are reached, each by
    // enough streams that a small change to the generator keeps them.
    assert!(
        ended_in_leg >= 20,
        "{ended_in_leg} streams ended a session inside a leg"
    );
    assert!(
        begun_in_leg >= 20,
        "{begun_in_leg} streams began a residence inside a leg"
    );
    assert_eq!(digest, DIGEST, "digest {digest:#018x}");
}
