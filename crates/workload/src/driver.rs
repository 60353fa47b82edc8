//! The discrete-event driver: an event loop wiring four layers.
//!
//! [`Sim`] owns the virtual clock, the event queue and the RNG, and wires:
//!
//! * [`crate::router`] — the pure routing policy (strategy × provisioned
//!   pools × offload and forward ratios) deciding where each admitted
//!   request goes,
//! * [`crate::lifecycle`] — the per-request state machine consuming
//!   [`beehive_core::SessionStep`]s uniformly across all three lanes,
//! * [`crate::endpoint`] — the instance fleet,
//! * [`crate::broker`] — the contended resources (server pools, database,
//!   FaaS platform, instance scaler) and their completion-event dances.
//!
//! What remains here is the Semi-FaaS dispatch mechanism itself — warm
//! reuse, cold boots with shadowed first invocations (§3.4), saturation
//! fallback — plus completion accounting, result assembly, and the one pump
//! of the run's telemetry into its online [`Consumer`]s, which share one
//! arrival tracker.

use std::sync::Arc;

use beehive_chaos::{Fault, RetryDecision};
use beehive_core::config::NetProfile;
use beehive_core::{FunctionRuntime, OffloadSession, ServerRuntime, ServerSession};
use beehive_db::Database;
use beehive_faas::{BootKind, FaasPlatform};
use beehive_metrics::MetricsFold;
use beehive_observatory::Observer;
use beehive_proxy::Proxy;
use beehive_scaling::InstanceScaler;
use beehive_sentinel::{Sentinel, SentinelConfig};
use beehive_sim::{Duration, EventQueue, Rng, SimTime};
use beehive_telemetry as tele;
use beehive_telemetry::summary::{ArrivalTracker, Consumer};
use beehive_vm::{CostModel, Value};

pub use crate::config::{ArrivalPattern, SimConfig, SimResult};

use crate::broker::{Broker, Ev};
use crate::endpoint::Fleet;
use crate::lifecycle::{Done, Lane, Lifecycle, Request};
use crate::router::{Router, Target};

/// The simulation engine. Build with a [`SimConfig`], call [`Sim::run`].
pub struct Sim {
    cfg: SimConfig,
    now: SimTime,
    events: EventQueue<Ev>,
    rng: Rng,
    server: ServerRuntime,
    broker: Broker,
    net: NetProfile,
    fleet: Fleet,
    lifecycle: Lifecycle,
    router: Router,
    dispatch_cost: Duration,
    cost_model: CostModel,
    /// What the run has produced so far; returned whole by [`Sim::run`].
    result: SimResult,
    /// The metrics fold, when [`SimConfig::metrics`] is set.
    metrics: Option<MetricsFold>,
    /// The online conformance checker, when [`SimConfig::sentinel`] is set.
    sentinel: Option<Sentinel>,
    /// The streaming timeline reducer, when [`SimConfig::observe`] is set.
    observatory: Option<Observer>,
    /// The embedder's consumer, when one was [attached](Sim::attach).
    sink: Option<Box<dyn Consumer>>,
    /// The run's one arrival tracker, when some consumer reads arrivals.
    arrivals: Option<ArrivalTracker>,
    /// Last arrival rate seen (milli-rps), for `burst:onset` edge detection.
    last_mrps: u64,
}

impl Sim {
    /// Build the world for a configuration.
    pub fn new(mut cfg: SimConfig) -> Sim {
        // The fault plan lives with the broker's other run-scoped state; an
        // empty plan stays inert (no events, no armed faults).
        let chaos = std::mem::take(&mut cfg.faults);
        let mut rng = Rng::new(cfg.seed);
        let db = Database::new(); // seeded by App::install through the proxy
                                  // Scaled-fidelity apps execute 1/k of their tracked writes, so the
                                  // per-write barrier is scaled by k to keep BeeHive's write-barrier
                                  // overhead (the 7.14% pybbs throughput drop, §5.3) fidelity-invariant.
        let mut cost = CostModel::default();
        cost.barrier = cost.barrier * cfg.app.fidelity.factor() as u64;
        let mut server = ServerRuntime::new(
            Arc::clone(&cfg.app.program),
            cfg.beehive,
            Proxy::new(db),
            cost,
        );
        server.vm.set_barriers(cfg.strategy.barriers_on());
        cfg.app.install(&mut server);

        let platform_cfg = cfg.strategy.platform(&cfg.app);
        let net = platform_cfg
            .as_ref()
            .map(|p| NetProfile {
                function_server: p.server_latency,
                function_db: p.db_latency,
                dispatch_latency: p.invoke_overhead,
                ..cfg.beehive.net
            })
            .unwrap_or(cfg.beehive.net);
        let mut platform = platform_cfg.map(|p| FaasPlatform::new(p, rng.split()));
        let fleet = Fleet::prewarmed(
            &mut server,
            &mut platform,
            &cfg.app,
            cfg.prewarm_ready,
            net,
            cost,
        );
        let scaler = cfg.strategy.scaling_kind().map(InstanceScaler::new);
        let dispatch_cost = cfg.app.spec.cpu_budget.mul_f64(0.075);
        let router = Router::new(cfg.strategy, cfg.engage_at, cfg.offload_ratio);
        let mut broker = Broker::new(cfg.server_cores, platform, scaler);
        broker.chaos = chaos;
        let lifecycle = Lifecycle::new(SimTime::ZERO + cfg.horizon);

        Sim {
            cfg,
            now: SimTime::ZERO,
            events: EventQueue::new(),
            rng,
            server,
            broker,
            net,
            fleet,
            lifecycle,
            router,
            dispatch_cost,
            cost_model: cost,
            result: SimResult::default(),
            metrics: None,
            sentinel: None,
            observatory: None,
            sink: None,
            arrivals: None,
            last_mrps: 0,
        }
    }

    /// Stream this run's telemetry into `sink`. Arms the recorder like
    /// [`SimConfig::sentinel`] does: without [`SimConfig::trace`], each event
    /// is freed as soon as the online consumers have seen it.
    pub fn attach(&mut self, sink: Box<dyn Consumer>) {
        self.sink = Some(sink);
    }

    /// Build the consumers the configuration asks for, and the one arrival
    /// tracker when one of them reads arrivals (all but the sentinel do).
    /// Returns whether some online consumer reads the recorder at every step.
    fn arm(&mut self) -> bool {
        let cfg = &self.cfg;
        let sentinel = SentinelConfig {
            max_retries: Some(self.broker.chaos.policy.max_retries),
            ..Default::default()
        };
        self.sentinel = cfg.sentinel.then(|| Sentinel::new(sentinel));
        self.metrics = cfg.metrics.then(|| MetricsFold::new(cfg.metrics_window));
        self.observatory = cfg.observe.then(|| Observer::new(cfg.observe_window));
        let arrivals = cfg.metrics || cfg.observe || self.sink.is_some();
        self.arrivals = arrivals.then(ArrivalTracker::default);
        cfg.sentinel || arrivals
    }

    /// Run to the horizon and collect results.
    pub fn run(mut self) -> SimResult {
        let online = self.arm();
        // The recorder is armed to retain the trace, or only to feed the
        // online consumers.
        let recording = self.cfg.trace || online;
        if recording {
            // Installed here rather than in `new` so the prewarm warm-up
            // shadow (which runs outside virtual time) is not recorded. The
            // online checker, the metrics fold and the timeline reducer ride
            // the same recorder and are pumped once per simulation step;
            // without `trace` the pump frees each event once all have seen it.
            tele::install();
        }
        if self.cfg.profile {
            // Same rationale as the trace recorder: the prewarm warm-up
            // shadow must not pollute the profile.
            beehive_profiler::install();
        }
        match self.cfg.arrivals {
            ArrivalPattern::Open { .. } => {
                // Seed the `burst:onset` edge detector with the t=0 rate so
                // constant-rate runs emit no onset events at all.
                self.last_mrps =
                    (self.cfg.arrivals.rate_at(Duration::ZERO).max(1e-9) * 1000.0).round() as u64;
                self.events.schedule(SimTime::ZERO, Ev::Arrival);
            }
            ArrivalPattern::Closed { clients } => {
                for _ in 0..clients {
                    self.events.schedule(SimTime::ZERO, Ev::ClientReissue);
                }
            }
        }
        if self.broker.scaler.is_some() {
            self.events
                .schedule(SimTime::ZERO + self.cfg.engage_at, Ev::TriggerScale);
        }
        if self.broker.platform.is_some() {
            self.events
                .schedule(SimTime::ZERO + Duration::from_secs(30), Ev::Expire);
        }
        // §4.5 fault injection: expand the plan's injectors into concrete
        // fault events up front, on the plan's own RNG stream keyed by
        // `(plan seed, run seed)` — an empty plan schedules nothing and the
        // run stays byte-identical.
        let faults = self.broker.chaos.schedule(self.cfg.seed, self.cfg.horizon);
        for (at, fault) in faults {
            self.events.schedule(SimTime::ZERO + at, Ev::Fault(fault));
        }

        let horizon = SimTime::ZERO + self.cfg.horizon;
        while let Some((t, ev)) = self.events.pop() {
            if t > horizon {
                break;
            }
            self.now = t;
            if recording {
                tele::set_now(t);
            }
            self.handle(ev);
            self.lifecycle
                .wake_lock_waiters(self.now, &mut self.server, &mut self.events);
            if online {
                // The one consumer-pump site: nothing emits between the
                // last step and `finish`, so there is no tail to drain. The
                // arrival rule is applied here, once, for every consumer.
                tele::pump(self.cfg.trace, |e| {
                    let arrival = self.arrivals.as_mut().and_then(|a| a.feed(e));
                    if let Some(sentinel) = self.sentinel.as_mut() {
                        sentinel.feed(e);
                    }
                    if let Some(metrics) = self.metrics.as_mut() {
                        metrics.event(e, arrival);
                    }
                    if let Some(observer) = self.observatory.as_mut() {
                        observer.event(e, arrival);
                    }
                    if let Some(sink) = self.sink.as_mut() {
                        sink.event(e, arrival);
                    }
                });
            }
        }
        self.finish(recording)
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival => {
                if tele::enabled() {
                    let (sim, pools) = (tele::Track::Sim, self.broker.pools());
                    tele::counter(sim, tele::EventName::EventQueue, self.events.len() as i64);
                    tele::counter(sim, tele::EventName::ServerPool, pools[0].len() as i64);
                    let inflight = self.lifecycle.inflight() as i64;
                    tele::counter(sim, tele::EventName::Inflight, inflight);
                    let idle = self.fleet.idle.len() as i64;
                    tele::counter(sim, tele::EventName::IdleInstances, idle);
                    // Per-pool depth beyond the primary (a scaled pool only
                    // exists under instance-scaling strategies, so steady
                    // single-pool traces record no extra events).
                    for (i, p) in pools.iter().enumerate().skip(1) {
                        tele::instant(
                            tele::Track::Sim,
                            tele::EventName::PoolDepth,
                            &[
                                ("pool", tele::Arg::UInt(i as u64)),
                                ("depth", tele::Arg::UInt(p.len() as u64)),
                            ],
                        );
                    }
                }
                let t = self.now.saturating_since(SimTime::ZERO);
                let rate = self.cfg.arrivals.rate_at(t).max(1e-9);
                // Edge-detect arrival-rate steps for the elasticity
                // timeline: constant-rate runs never change `last_mrps`
                // (seeded with the t=0 rate) and emit nothing.
                let mrps = (rate * 1000.0).round() as u64;
                if mrps != self.last_mrps {
                    tele::instant(
                        tele::Track::Sim,
                        tele::EventName::BurstOnset,
                        &[
                            ("mrps_from", tele::Arg::UInt(self.last_mrps)),
                            ("mrps_to", tele::Arg::UInt(mrps)),
                        ],
                    );
                    self.last_mrps = mrps;
                }
                let gap = self.rng.exponential(Duration::from_secs_f64(1.0 / rate));
                self.events.schedule(self.now + gap, Ev::Arrival);
                self.admit(false);
            }
            Ev::ClientReissue => {
                self.admit(true);
            }
            Ev::Step(rid) => self.step(rid),
            Ev::ServerPool { pool } => {
                let job = self
                    .broker
                    .pool_completion(self.now, pool, &mut self.events);
                self.step(job);
            }
            Ev::DbDone { job, at } => {
                if let Some(job) = self
                    .broker
                    .db_completion(self.now, job, at, &mut self.events)
                {
                    self.step(job);
                }
            }
            Ev::Boot { req } => self.boot_ready(req),
            Ev::TriggerScale => {
                self.broker
                    .trigger_scale(self.now, &mut self.rng, &mut self.events);
            }
            Ev::CapacityReady => self.broker.capacity_ready(),
            Ev::Expire => {
                self.broker
                    .expire_idle(self.now, &mut self.fleet.idle, &mut self.events);
            }
            Ev::Fault(f) => self.inject(f),
            Ev::Recover { req } => self.recover_ready(req),
        }
    }

    /// Apply one scheduled fault: kill a victim instance outright, or arm a
    /// one-shot fault that the next matching park site consumes.
    fn inject(&mut self, fault: Fault) {
        if let Fault::InstanceCrash { selector } = fault {
            let Some(p) = self.broker.platform.as_mut() else {
                return; // no platform, nothing to crash
            };
            // Victims: instances serving an active FaaS lane, plus the warm
            // idle cache. Reserved replacements (crashed/pending lanes) are
            // busy on the platform but absent from both sets, so a fault
            // can never kill the instance a recovery is waiting for.
            let mut ids = self.lifecycle.faas_instances();
            ids.extend(self.fleet.idle.iter().copied().filter(|&i| p.is_warm(i)));
            ids.sort_unstable();
            ids.dedup();
            ids.retain(|&i| p.is_alive(i));
            if ids.is_empty() {
                return;
            }
            let victim = ids[(selector % ids.len() as u64) as usize];
            p.kill(self.now, victim);
            self.fleet.idle.retain(|&i| i != victim);
            self.fleet.funcs.remove(&victim);
            self.broker.chaos.stats.crashes += 1;
            tele::instant(
                tele::Track::Platform,
                tele::EventName::ChaosCrash,
                &[("instance", tele::Arg::UInt(victim as u64))],
            );
            return;
        }
        let name = match fault {
            Fault::InstanceCrash { .. } => unreachable!("handled above"),
            Fault::BootFailure => tele::EventName::ChaosBootFailure,
            Fault::RpcDrop { .. } => tele::EventName::ChaosArmRpcDrop,
            Fault::RpcDelay { .. } => tele::EventName::ChaosArmRpcDelay,
            Fault::NetworkDegrade { .. } => tele::EventName::ChaosNetDegrade,
            Fault::DbConnDrop { .. } => tele::EventName::ChaosArmDbDrop,
        };
        tele::instant(tele::Track::Sim, name, &[]);
        self.broker.chaos.arm(self.now, fault);
    }

    /// `Ev::Recover`: the replacement instance and the retry backoff are
    /// both ready — restore the crashed session from its last durable
    /// snapshot (§4.5) and park it on the resumed need.
    fn recover_ready(&mut self, rid: u64) {
        let Some((mut session, fid, runtime, cold, detected)) = self.lifecycle.take_crashed(rid)
        else {
            return;
        };
        self.fleet.booting = self.fleet.booting.saturating_sub(1);
        if cold {
            self.broker
                .platform
                .as_mut()
                .expect("platform exists")
                .boot_complete(self.now, fid);
        }
        let mut func = runtime
            .map(|b| *b)
            .unwrap_or_else(|| FunctionRuntime::new(fid, &self.cfg.app.program, self.cost_model));
        let step = session.recover(&mut self.server, &mut func);
        self.fleet.funcs.insert(fid, func);
        let latency = self.now.saturating_since(detected);
        self.broker.chaos.stats.recovery.record(latency);
        self.lifecycle.resume_recovered(
            rid,
            session,
            fid,
            step,
            self.now,
            &mut self.broker,
            &mut self.events,
        );
    }

    /// Advance a request until it parks or finishes; account completions.
    fn step(&mut self, rid: u64) {
        if let Some(done) = self.lifecycle.advance(
            rid,
            self.now,
            &mut self.server,
            &mut self.fleet,
            &mut self.broker,
            &mut self.events,
        ) {
            self.complete(done);
        }
    }

    /// Admit one request and route it per the strategy.
    fn admit(&mut self, closed_loop: bool) {
        let args = self.cfg.app.request_args(&mut self.rng);
        let decision = self.router.route(self.now, self.broker.pools().len());
        if let Some(c) = decision.considered {
            tele::instant(
                tele::Track::Server,
                tele::EventName::OffloadDecision,
                &[
                    ("offload", tele::Arg::Bool(c.offload)),
                    ("engaged", tele::Arg::Bool(c.engaged)),
                ],
            );
        }
        match decision.target {
            Target::Server(pool) => {
                self.start_server_request(args, pool, true, closed_loop);
            }
            Target::Faas => self.dispatch_offload(args, closed_loop),
        }
    }

    fn start_server_request(
        &mut self,
        args: Vec<Value>,
        pool: usize,
        record: bool,
        closed_loop: bool,
    ) -> u64 {
        if self.broker.pools()[pool].len() >= self.cfg.max_server_concurrency {
            // Connection refused: the worker pool is saturated.
            self.result.rejected += 1;
            tele::instant(tele::Track::Server, tele::EventName::Rejected, &[]);
            if closed_loop {
                let backoff = self.rng.exponential(Duration::from_millis(50));
                self.events.schedule(self.now + backoff, Ev::ClientReissue);
            }
            return u64::MAX;
        }
        let session = ServerSession::start(&mut self.server, self.cfg.app.root, args);
        let rid = self.lifecycle.insert(Request::new(
            self.now,
            record,
            closed_loop,
            Lane::server(session, pool),
        ));
        self.step(rid);
        rid
    }

    /// Route a request to FaaS: reuse a warm instance with an instantiated
    /// closure, or spawn a new instance (its first invocation is shadowed:
    /// the real request runs on the server, §3.4), or give up and serve on
    /// the server when the platform is saturated.
    fn dispatch_offload(&mut self, args: Vec<Value>, closed_loop: bool) {
        // 1. Warm instance with the closure already instantiated. Rotate
        // round-robin (OpenWhisk's load balancer spreads activations across
        // warm containers), which keeps monitor ownership bouncing between
        // endpoints — the source of Table 5's steady sync fallbacks.
        if let Some(&fid) = self.fleet.idle.first() {
            let platform = self
                .broker
                .platform
                .as_mut()
                .expect("offload needs a platform");
            let ok = platform.acquire_warm_specific(fid);
            if ok {
                self.fleet.idle.remove(0);
                let func = self.fleet.funcs.get_mut(&fid).expect("tracked instance");
                let session = OffloadSession::start_with_dispatch(
                    &mut self.server,
                    func,
                    self.cfg.app.root,
                    args,
                    false,
                    self.net,
                    false,
                    self.dispatch_cost,
                );
                tele::instant(
                    tele::Track::Server,
                    tele::EventName::OffloadDispatch,
                    &[("outcome", tele::Arg::Str("warm"))],
                );
                let rid = self.lifecycle.insert(Request::new(
                    self.now,
                    true,
                    closed_loop,
                    Lane::faas(session, fid),
                ));
                self.step(rid);
                return;
            }
            // The platform reclaimed it under us; drop and fall through.
            self.fleet.idle.remove(0);
        }

        // 2. Spawn a new instance and shadow its first invocation. Ramp
        // exponentially: at most double the current fleet per boot wave, so
        // a burst doesn't over-provision instances it will never reuse.
        let ramp_cap = (self.fleet.busy() * 2)
            .max(4)
            .min(self.cfg.max_concurrent_boots);
        let can_spawn = self.fleet.booting < ramp_cap
            && self.fleet.funcs.len() + self.fleet.booting < self.cfg.max_instances;
        if can_spawn {
            let platform = self
                .broker
                .platform
                .as_mut()
                .expect("offload needs a platform");
            let (fid, ready, kind) = platform.acquire(self.now);
            let cold = kind == BootKind::Cold;
            tele::begin(
                tele::Track::Instance(fid),
                tele::EventName::Boot,
                &[("cold", tele::Arg::Bool(cold))],
            );
            self.fleet.booting += 1;
            let shadow = self.cfg.shadow_enabled;
            let boot_rid = self.lifecycle.insert(Request::new(
                self.now,
                // Without shadowing, the boot-waiting request IS the real
                // request and eats the cold-start tail (the ablation).
                !shadow,
                if shadow { false } else { closed_loop },
                Lane::pending_boot(args.clone(), fid, cold),
            ));
            self.events.schedule(ready, Ev::Boot { req: boot_rid });
            tele::instant(
                tele::Track::Server,
                tele::EventName::OffloadDispatch,
                &[("outcome", tele::Arg::Str("spawn"))],
            );
            if shadow {
                // The real request runs on the server while the shadow warms
                // the new instance up.
                self.start_server_request(args, 0, true, closed_loop);
            }
            return;
        }

        // 3. Saturated: serve on the server.
        tele::instant(
            tele::Track::Server,
            tele::EventName::OffloadDispatch,
            &[("outcome", tele::Arg::Str("server"))],
        );
        self.start_server_request(args, 0, true, closed_loop);
    }

    fn boot_ready(&mut self, rid: u64) {
        let Some((args, fid, cold, arrival)) = self.lifecycle.take_pending_boot(rid) else {
            return;
        };
        self.fleet.booting = self.fleet.booting.saturating_sub(1);
        tele::end(tele::Track::Instance(fid), tele::EventName::Boot, &[]);
        if self.broker.chaos.take_boot_failure() {
            self.boot_failed(rid, args, fid, cold, arrival);
            return;
        }
        if cold {
            self.broker
                .platform
                .as_mut()
                .expect("platform exists")
                .boot_complete(self.now, fid);
        }
        let func =
            self.fleet.funcs.entry(fid).or_insert_with(|| {
                FunctionRuntime::new(fid, &self.cfg.app.program, self.cost_model)
            });
        let shadow = self.cfg.shadow_enabled;
        let session = OffloadSession::start_with_dispatch(
            &mut self.server,
            func,
            self.cfg.app.root,
            args,
            shadow,
            self.net,
            cold, // closure computation overlaps a cold boot (§5.6)
            self.dispatch_cost,
        );
        if shadow {
            self.result.shadows += 1;
        }
        // The session span begins now, after the boot — so the wait from
        // dispatch to instance-up is invisible on the request track
        // without this event. Recording it makes a request's attributed
        // components sum to the driver's arrival-to-completion latency
        // even when shadowing is off and the client eats the cold tail.
        tele::complete(
            tele::Track::Request(session.request_id()),
            tele::EventName::BootWait,
            self.now.saturating_since(arrival),
            &[("cold", tele::Arg::Bool(cold))],
        );
        self.lifecycle.attach_offload(rid, session, fid, self.now);
        self.step(rid);
    }

    /// An armed boot failure claimed this boot: the instance never comes
    /// up. Kill it and consult the retry policy — re-arm the pending boot
    /// on a fresh instance after the backoff, or (retries exhausted)
    /// degrade: shadow warm-ups are dropped, real requests reroute to a
    /// fresh server session. The failure's `outcome` says which.
    fn boot_failed(&mut self, rid: u64, args: Vec<Value>, fid: u32, cold: bool, arrival: SimTime) {
        let p = self.broker.platform.as_mut().expect("platform exists");
        p.kill(self.now, fid);
        self.fleet.idle.retain(|&i| i != fid);
        self.fleet.funcs.remove(&fid);
        self.broker.chaos.stats.boot_failures += 1;
        let attempt = self.lifecycle.bump_recovery_attempts(rid);
        // A pending boot has no session, so no writes are ever committed.
        let decision = self.broker.chaos.policy.decide(attempt, false);
        let outcome = match decision {
            RetryDecision::Retry { .. } => "retry",
            RetryDecision::Degrade if self.cfg.shadow_enabled => "drop",
            RetryDecision::Degrade => "degrade",
        };
        tele::instant(
            tele::Track::Instance(fid),
            tele::EventName::ChaosBootFailure,
            &[("outcome", tele::Arg::Str(outcome))],
        );
        match decision {
            RetryDecision::Retry { backoff } => {
                let p = self.broker.platform.as_mut().expect("platform exists");
                let (new_fid, ready, kind) = p.acquire(self.now);
                self.fleet.idle.retain(|&i| i != new_fid);
                self.fleet.booting += 1;
                self.broker.chaos.stats.retries += 1;
                let cold = kind == BootKind::Cold;
                tele::begin(
                    tele::Track::Instance(new_fid),
                    tele::EventName::Boot,
                    &[("cold", tele::Arg::Bool(cold))],
                );
                self.lifecycle.retry_boot(rid, args, new_fid, cold);
                self.events.schedule(
                    std::cmp::max(ready, self.now + backoff),
                    Ev::Boot { req: rid },
                );
            }
            // The pending boot is a shadow warm-up; the real request already
            // runs on the server. Nothing to save.
            RetryDecision::Degrade if self.cfg.shadow_enabled => self.lifecycle.drop_request(rid),
            RetryDecision::Degrade => {
                self.broker.chaos.stats.degraded_to_server += 1;
                let session = ServerSession::start(&mut self.server, self.cfg.app.root, args);
                // The new session's span opens now; its latency runs from
                // the arrival, as on the boot path.
                tele::complete(
                    tele::Track::Request(session.request_id()),
                    tele::EventName::BootWait,
                    self.now.saturating_since(arrival),
                    &[("cold", tele::Arg::Bool(cold))],
                );
                self.lifecycle.reroute_to_server(rid, session);
                self.step(rid);
            }
        }
    }

    fn complete(&mut self, done: Done) {
        let latency = self.now - done.arrival;
        self.result
            .on_complete(self.now, self.cfg.record_from, latency, done.record);
        if let Some((session, instance)) = done.faas {
            // The instance was held busy for the whole request.
            if let Some(p) = self.broker.platform.as_mut() {
                p.release(self.now, instance, latency);
                if p.is_alive(instance) {
                    self.fleet.idle.push(instance);
                }
            }
            self.result.on_faas(
                self.now,
                self.cfg.record_from,
                latency,
                done.record,
                session.is_shadow(),
                &session.stats,
            );
        }
        if done.closed_loop {
            // Closed loop: the client thinks briefly, then reissues.
            let think = self.rng.exponential(Duration::from_millis(1));
            self.events.schedule(self.now + think, Ev::ClientReissue);
        }
    }

    /// Fill the end-of-run fields of the result: bills, the fleet's GC
    /// pauses and peak heap, the mapping footprint, the substrates' outputs.
    fn finish(mut self, recording: bool) -> SimResult {
        let end = self.now;
        let r = &mut self.result;
        if let Some(p) = &self.broker.platform {
            r.boots = p.boot_stats();
            r.instances = p.instances_created();
            r.faas_cost = p.cost(end);
            r.faas_gb_seconds = p.ledger().gb_seconds();
            r.faas_requests = p.ledger().requests();
        }
        r.scaled_cost = self.broker.scaler.as_ref().map_or(0.0, |s| s.cost(end));
        for f in self.fleet.funcs.values() {
            r.function_gc_pauses
                .extend(f.vm.gc_log().iter().map(|gc| gc.pause));
            r.function_peak_heap = r.function_peak_heap.max(f.vm.heap.peak_used_bytes());
        }
        r.mapping_bytes = self.server.mapping_footprint_bytes();
        r.chaos = std::mem::take(&mut self.broker.chaos.stats);
        r.end = end;
        if self.cfg.profile {
            let program = Arc::clone(&self.cfg.app.program);
            r.profile = beehive_profiler::take().map(|raw| {
                raw.resolve(|id| {
                    let m = program.method(beehive_vm::MethodId(id));
                    format!("{}.{}", program.class(m.class).name, m.name)
                })
            });
        }
        // Disarm the recorder this run armed; a run that only fed the online
        // consumers pumped it empty and returns no trace.
        let taken = if recording { tele::take() } else { None };
        r.trace = taken.filter(|_| self.cfg.trace);
        if let Some(sink) = self.sink {
            sink.finish();
        }
        // Blank labels: the engine, which knows the scenario name, fills
        // them in; standalone `Sim::run` callers label them themselves.
        r.sentinel = self.sentinel.map(|s| s.finish(String::new()));
        r.observatory = self.observatory.map(|o| o.finish(String::new()));
        r.metrics = self.metrics.map(MetricsFold::finish);
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_apps::{App, AppKind, Fidelity};
    use tele::summary::Arrival;

    /// How many arrival trackers a run holds once `arm` built its consumers.
    fn trackers(set: fn(&mut SimConfig), sink: Option<Box<dyn Consumer>>) -> usize {
        let app = App::build(AppKind::Thumbnail, Fidelity::fast());
        let mut cfg = SimConfig::new(app, crate::Strategy::BeeHiveOpenWhisk);
        set(&mut cfg);
        let mut sim = Sim::new(cfg);
        if let Some(sink) = sink {
            sim.attach(sink);
        }
        sim.arm();
        usize::from(sim.arrivals.is_some())
    }

    #[test]
    fn the_pump_arms_one_tracker_only_when_a_consumer_reads_arrivals() {
        let reader = || Some(Box::new(|_: &tele::TraceEvent, _: Option<Arrival>| {}) as _);
        assert_eq!(trackers(|_| {}, None), 0, "nothing armed");
        assert_eq!(trackers(|c| c.sentinel = true, None), 0, "sentinel alone");
        assert_eq!(trackers(|c| c.metrics = true, None), 1, "metrics");
        assert_eq!(trackers(|c| c.observe = true, None), 1, "observe");
        assert_eq!(trackers(|_| {}, reader()), 1, "an attached sink");
        let all = |c: &mut SimConfig| (c.sentinel, c.metrics, c.observe) = (true, true, true);
        assert_eq!(trackers(all, reader()), 1, "every consumer at once");
    }
}
