//! The per-request lifecycle layer: one state machine for every lane.
//!
//! A request is born on a lane — a server pool, a FaaS instance, or a
//! pending boot — and then steps through the session protocol of
//! [`beehive_core::session`]: park on a [`Need`], pull a peer's dirty set,
//! collect the server heap, wait on a lock hand-off, finish. The
//! [`Lifecycle`] machine consumes [`SessionStep`]s uniformly for the
//! server, faas-primary and shadow lanes; lane differences (telemetry
//! track, pool index, FaaS or not) are three methods on `Lane`, so there
//! is a single instrumented call site per transition rather than a per-lane
//! match pyramid.

use std::collections::VecDeque;

use beehive_chaos::{RetryDecision, RpcFault};
use beehive_core::{
    FunctionRuntime, Need, OffloadSession, Resource, ServerRuntime, ServerSession, SessionStep,
};
use beehive_faas::BootKind;
use beehive_sim::{EventQueue, FastMap, SimTime};
use beehive_telemetry as tele;
use beehive_vm::{Execution, Value};

use crate::broker::{Broker, Ev};
use crate::endpoint::Fleet;

/// A request's execution lane. Lanes carry indices, not resources — the
/// pools and instances live in [`crate::broker::Broker`] and [`Fleet`].
#[derive(Debug)]
pub(crate) enum Lane {
    /// Running on a server pool.
    Server {
        /// The session state machine.
        session: ServerSession,
        /// Index of the processor-sharing pool serving this request.
        pool: usize,
    },
    /// Running on a FaaS instance (primary offload or shadow).
    Faas {
        /// The session state machine.
        session: OffloadSession,
        /// The function instance id.
        instance: u32,
    },
    /// Waiting for an instance boot; becomes `Faas` on `Ev::Boot`.
    PendingBoot {
        /// The request arguments, handed to the session once booted.
        args: Vec<Value>,
        /// The booting instance's id.
        instance: u32,
        /// Whether the boot is cold (closure computation overlaps it).
        cold: bool,
    },
    /// The serving instance died (§4.5); the session waits out the
    /// replacement's boot plus the retry backoff, then resumes from its
    /// last snapshot on `Ev::Recover`.
    Crashed {
        /// The crashed session, carrying the snapshot to restore from.
        session: OffloadSession,
        /// The replacement's runtime when the platform handed back a warm
        /// instance from the idle rotation — stashed here so neither
        /// dispatch nor victim selection can touch the reserved instance.
        runtime: Option<Box<FunctionRuntime>>,
        /// The replacement instance's id.
        instance: u32,
        /// Whether the replacement boot is cold.
        cold: bool,
        /// When the crash was detected (recovery latency starts here).
        detected: SimTime,
    },
}

impl Lane {
    /// A server lane on `pool`.
    pub(crate) fn server(session: ServerSession, pool: usize) -> Lane {
        Lane::Server { session, pool }
    }

    /// A FaaS lane on `instance`.
    pub(crate) fn faas(session: OffloadSession, instance: u32) -> Lane {
        Lane::Faas { session, instance }
    }

    /// A pending-boot lane on `instance`.
    pub(crate) fn pending_boot(args: Vec<Value>, instance: u32, cold: bool) -> Lane {
        Lane::PendingBoot {
            args,
            instance,
            cold,
        }
    }

    /// The telemetry track this request's events land on: its session's
    /// server-issued request id, or — while the instance is still booting
    /// and there is no session yet — the instance's own track.
    pub(crate) fn track(&self) -> tele::Track {
        match self {
            Lane::Server { session, .. } => tele::Track::Request(session.request_id()),
            Lane::Faas { session, .. } | Lane::Crashed { session, .. } => {
                tele::Track::Request(session.request_id())
            }
            Lane::PendingBoot { instance, .. } => tele::Track::Instance(*instance),
        }
    }

    /// The server pool non-fallback `ServerCpu` needs queue on. Fallbacks
    /// that queue server CPU behind the worker pool always use the primary
    /// pool.
    pub(crate) fn pool(&self) -> usize {
        match self {
            Lane::Server { pool, .. } => *pool,
            _ => 0,
        }
    }

    /// `true` on a FaaS instance lane, `false` on a server pool.
    pub(crate) fn on_faas(&self) -> bool {
        !matches!(self, Lane::Server { .. })
    }
}

/// One in-flight request.
#[derive(Debug)]
pub(crate) struct Request {
    /// Arrival time (latency = completion − arrival).
    pub(crate) arrival: SimTime,
    /// Whether the completion is recorded in the samplers.
    pub(crate) record: bool,
    /// Whether a closed-loop client reissues after completion.
    pub(crate) closed_loop: bool,
    /// Name of the resource span opened when this request parked on a
    /// [`Need`]; closed when the request resumes, so the span covers true
    /// residence (service + queueing).
    open_span: Option<tele::EventName>,
    /// The execution lane.
    pub(crate) lane: Lane,
    /// Session snapshot count last seen by the lifecycle (watermark for
    /// `progress`).
    snap_seen: u64,
    /// Virtual time of the last durable snapshot (or the session start):
    /// work after this point is lost to a crash and re-executed.
    progress: SimTime,
    /// Failed offload attempts so far (crashes and boot failures), feeding
    /// the retry/backoff policy.
    recovery_attempts: u32,
}

impl Request {
    /// A new request arriving at `now` on `lane`.
    pub(crate) fn new(arrival: SimTime, record: bool, closed_loop: bool, lane: Lane) -> Request {
        Request {
            arrival,
            record,
            closed_loop,
            open_span: None,
            lane,
            snap_seen: 0,
            progress: arrival,
            recovery_attempts: 0,
        }
    }
}

/// What became of a request whose instance died.
enum AfterCrash {
    /// Parked as [`Lane::Crashed`] awaiting `Ev::Recover`.
    Parked,
    /// A dead shadow warm-up: nothing to recover, retire the request.
    Dropped,
    /// Retries exhausted with a clean write journal: the request degraded
    /// to a fresh server session — keep stepping it.
    Degraded,
}

/// A finished request, handed back to the driver for accounting.
pub(crate) struct Done {
    /// Arrival time.
    pub arrival: SimTime,
    /// Whether to record the completion.
    pub record: bool,
    /// Whether a closed-loop client reissues.
    pub closed_loop: bool,
    /// The finished offload session and its instance, for FaaS lanes.
    pub faas: Option<(OffloadSession, u32)>,
}

/// How often each [`SessionStep`] variant was consumed — cheap evidence for
/// the lifecycle transition tests (and for debugging stuck runs).
#[derive(Clone, Copy, Debug, Default)]
pub struct TransitionTally {
    /// `Need` parks (resource waits).
    pub needs: u64,
    /// `SyncFromPeer` dirty-set pulls.
    pub syncs: u64,
    /// `ServerGc` collections.
    pub server_gcs: u64,
    /// `AwaitLock` parks.
    pub lock_waits: u64,
    /// `Finished` completions.
    pub finished: u64,
    /// `Crashed` transitions (§4.5): a lane's instance died under it.
    pub crashes: u64,
}

/// The per-request state machine over every in-flight request.
#[derive(Debug, Default)]
pub struct Lifecycle {
    /// Boxed: a request is stepped where it lives and only its pointer
    /// moves when the table grows.
    requests: FastMap<u64, Box<Request>>,
    lock_waiters: FastMap<beehive_vm::Addr, VecDeque<u64>>,
    next_req: u64,
    tally: TransitionTally,
    /// The run's last instant: a leg that would resume after it is traced
    /// as an open span, since the run stops before it closes.
    horizon: SimTime,
}

impl Lifecycle {
    /// An empty machine for a run that stops after `horizon`.
    pub(crate) fn new(horizon: SimTime) -> Lifecycle {
        Lifecycle {
            horizon,
            ..Lifecycle::default()
        }
    }

    /// Requests currently in flight (inflight gauge).
    pub(crate) fn inflight(&self) -> usize {
        self.requests.len()
    }

    /// Transition counts consumed so far.
    pub fn tally(&self) -> TransitionTally {
        self.tally
    }

    /// Admit `req`, returning its driver request id.
    pub(crate) fn insert(&mut self, req: Request) -> u64 {
        let rid = self.next_req;
        self.next_req += 1;
        self.requests.insert(rid, Box::new(req));
        rid
    }

    /// Take the boot payload of a pending-boot request (`Ev::Boot`):
    /// `(args, instance, cold, arrival)`. Returns `None` when the request is
    /// gone.
    ///
    /// # Panics
    ///
    /// The request exists but is not on a pending-boot lane.
    pub(crate) fn take_pending_boot(
        &mut self,
        rid: u64,
    ) -> Option<(Vec<Value>, u32, bool, SimTime)> {
        let req = self.requests.get_mut(&rid)?;
        let arrival = req.arrival;
        let Lane::PendingBoot {
            args,
            instance,
            cold,
        } = &mut req.lane
        else {
            panic!("boot event for a non-pending request");
        };
        Some((std::mem::take(args), *instance, *cold, arrival))
    }

    /// Switch a booted request onto its FaaS lane (`Ev::Boot`, after the
    /// session started on the fresh instance).
    pub(crate) fn attach_offload(
        &mut self,
        rid: u64,
        session: OffloadSession,
        instance: u32,
        now: SimTime,
    ) {
        let req = self.requests.get_mut(&rid).expect("still present");
        // The session starts executing now: boot queueing is not lost work.
        req.progress = now;
        req.lane = Lane::faas(session, instance);
    }

    /// The §4.5 `Crashed` transition: the instance serving `req` died while
    /// the request was parked. Dead shadows are abandoned; real requests
    /// consult the retry policy — provision a replacement and park as
    /// [`Lane::Crashed`], or (retries exhausted, write journal clean)
    /// degrade to a fresh server session.
    fn crashed(
        rid: u64,
        req: &mut Request,
        now: SimTime,
        server: &mut ServerRuntime,
        fleet: &mut Fleet,
        broker: &mut Broker,
        events: &mut EventQueue<Ev>,
    ) -> AfterCrash {
        let placeholder = Lane::pending_boot(Vec::new(), u32::MAX, false);
        let Lane::Faas { mut session, .. } = std::mem::replace(&mut req.lane, placeholder) else {
            unreachable!("crash detected on a faas lane");
        };
        if session.is_shadow() {
            // A dead warm-up leaves nothing to recover — the real request
            // (if any) already runs on the server. Release lock state and
            // drop; the instance is dead, so nothing is released to the
            // platform either.
            session.abandon(server);
            return AfterCrash::Dropped;
        }
        // Everything since the last durable snapshot is lost and will be
        // re-executed after the restore.
        let lost = now.saturating_since(req.progress).as_nanos();
        broker.chaos.stats.re_executed_ns += lost;
        req.recovery_attempts += 1;
        let attempt = req.recovery_attempts;
        match broker
            .chaos
            .policy
            .decide(attempt, session.committed_writes())
        {
            RetryDecision::Retry { backoff } => {
                let platform = broker
                    .platform
                    .as_mut()
                    .expect("faas lanes exist only with a platform");
                let (fid, ready, kind) = platform.acquire(now);
                // The platform may hand back a warm instance from the
                // fleet's idle rotation: reserve it fully — id out of the
                // rotation, runtime stashed on the lane — so neither
                // dispatch nor crash victim selection can touch it while
                // the backoff runs.
                fleet.idle.retain(|&i| i != fid);
                let runtime = fleet.funcs.remove(&fid).map(Box::new);
                fleet.booting += 1;
                broker.chaos.stats.retries += 1;
                tele::begin(
                    tele::Track::Request(session.request_id()),
                    tele::EventName::Recovery,
                    &[
                        ("attempt", tele::Arg::UInt(attempt as u64)),
                        ("replacement", tele::Arg::UInt(fid as u64)),
                        ("lost_ns", tele::Arg::UInt(lost)),
                    ],
                );
                req.lane = Lane::Crashed {
                    session,
                    runtime,
                    instance: fid,
                    cold: kind == BootKind::Cold,
                    detected: now,
                };
                events.schedule(
                    std::cmp::max(ready, now + backoff),
                    Ev::Recover { req: rid },
                );
                AfterCrash::Parked
            }
            RetryDecision::Degrade => {
                broker.chaos.stats.degraded_to_server += 1;
                // The request carries on as the server session started
                // below, under the id it will be issued.
                let next = server.peek_request_id();
                tele::instant(
                    tele::Track::Request(session.request_id()),
                    tele::EventName::RecoveryDegrade,
                    &[
                        ("lost_ns", tele::Arg::UInt(lost)),
                        ("server_request", tele::Arg::UInt(next)),
                    ],
                );
                let root = session.root();
                let args = session.args().to_vec();
                session.abandon(server);
                req.lane = Lane::server(ServerSession::start(server, root, args), 0);
                AfterCrash::Degraded
            }
        }
    }

    /// Take the crashed session of `rid` for recovery (`Ev::Recover`):
    /// `(session, replacement id, stashed runtime, cold, detected)`.
    /// Returns `None` when the request is gone.
    ///
    /// # Panics
    ///
    /// The request exists but is not on a crashed lane.
    #[allow(clippy::type_complexity)]
    pub(crate) fn take_crashed(
        &mut self,
        rid: u64,
    ) -> Option<(
        OffloadSession,
        u32,
        Option<Box<FunctionRuntime>>,
        bool,
        SimTime,
    )> {
        let req = self.requests.get_mut(&rid)?;
        let placeholder = Lane::pending_boot(Vec::new(), u32::MAX, false);
        let Lane::Crashed {
            session,
            runtime,
            instance,
            cold,
            detected,
        } = std::mem::replace(&mut req.lane, placeholder)
        else {
            panic!("recover event for a non-crashed request");
        };
        Some((session, instance, runtime, cold, detected))
    }

    /// Put a recovered session back on its FaaS lane and park it on the
    /// first resumed need (the one `OffloadSession::recover` popped).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn resume_recovered(
        &mut self,
        rid: u64,
        session: OffloadSession,
        instance: u32,
        step: SessionStep,
        now: SimTime,
        broker: &mut Broker,
        events: &mut EventQueue<Ev>,
    ) {
        let req = self
            .requests
            .get_mut(&rid)
            .expect("crashed request present");
        tele::end(
            tele::Track::Request(session.request_id()),
            tele::EventName::Recovery,
            &[],
        );
        // The restore is durable: the lost-work clock restarts here.
        req.snap_seen = session.stats.snapshots;
        req.progress = now;
        req.lane = Lane::faas(session, instance);
        let SessionStep::Need(n) = step else {
            unreachable!("recovery resumes on a queued need");
        };
        self.tally.needs += 1;
        Self::park_on_need(rid, req, n, now, self.horizon, broker, events);
    }

    /// Bump and return the failed-attempt count of `rid` (boot failures).
    pub(crate) fn bump_recovery_attempts(&mut self, rid: u64) -> u32 {
        let req = self.requests.get_mut(&rid).expect("still present");
        req.recovery_attempts += 1;
        req.recovery_attempts
    }

    /// Re-arm a pending boot whose instance failed to come up: same
    /// request, fresh replacement instance.
    pub(crate) fn retry_boot(&mut self, rid: u64, args: Vec<Value>, instance: u32, cold: bool) {
        let req = self.requests.get_mut(&rid).expect("still present");
        req.lane = Lane::pending_boot(args, instance, cold);
    }

    /// Degrade a boot-failed request to a fresh server session on pool 0.
    pub(crate) fn reroute_to_server(&mut self, rid: u64, session: ServerSession) {
        let req = self.requests.get_mut(&rid).expect("still present");
        req.lane = Lane::server(session, 0);
    }

    /// Drop a request entirely (abandoned shadow warm-ups).
    pub(crate) fn drop_request(&mut self, rid: u64) {
        self.requests.remove(&rid);
    }

    /// Instances currently serving an active FaaS lane (sorted) — the
    /// busy-victim candidates for fault injection. Reserved replacements
    /// (crashed/pending lanes) are deliberately absent.
    pub(crate) fn faas_instances(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .requests
            .values()
            .filter_map(|r| match &r.lane {
                Lane::Faas { instance, .. } => Some(*instance),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Advance request `rid` until it parks on a resource or finishes.
    /// Returns the completion for the driver to account, or `None` when the
    /// request parked (or was already gone). The request and its function
    /// instance are stepped where they live; only a finished request leaves
    /// the table.
    pub(crate) fn advance(
        &mut self,
        rid: u64,
        now: SimTime,
        server: &mut ServerRuntime,
        fleet: &mut Fleet,
        broker: &mut Broker,
        events: &mut EventQueue<Ev>,
    ) -> Option<Done> {
        let Lifecycle {
            requests,
            lock_waiters,
            tally,
            horizon,
            ..
        } = self;
        // `None`: already finished.
        let mut req: &mut Request = requests.get_mut(&rid)?;
        if let Some(name) = req.open_span.take() {
            // The request resumes: close the resource span opened when it
            // parked, so the span covers service plus queueing.
            tele::end(req.lane.track(), name, &[]);
        }
        loop {
            let step = match &mut req.lane {
                Lane::Server { session, .. } => Some(session.next(server)),
                Lane::Faas { session, instance } => fleet
                    .funcs
                    .get_mut(instance)
                    .map(|func| session.next(server, func)),
                Lane::PendingBoot { .. } | Lane::Crashed { .. } => {
                    return None; // waits for Ev::Boot / Ev::Recover
                }
            };
            let Some(step) = step else {
                // §4.5 crash detection: the wait that just completed resumed
                // into an instance the fault injector killed in the meantime
                // — the RPC timeout is the failure detector.
                tally.crashes += 1;
                match Self::crashed(rid, req, now, server, fleet, broker, events) {
                    AfterCrash::Parked => {}
                    AfterCrash::Dropped => {
                        requests.remove(&rid);
                    }
                    AfterCrash::Degraded => continue,
                }
                return None;
            };
            if let Lane::Faas { session, .. } = &req.lane {
                if session.stats.snapshots > req.snap_seen {
                    // A new durable snapshot: work before `now` would
                    // survive a crash.
                    req.snap_seen = session.stats.snapshots;
                    req.progress = now;
                }
            }
            match step {
                SessionStep::Need(n) => {
                    tally.needs += 1;
                    Self::park_on_need(rid, req, n, now, *horizon, broker, events);
                    return None;
                }
                SessionStep::SyncFromPeer { peer, monitor } => {
                    tally.syncs += 1;
                    let (objs, report) = match fleet.funcs.get_mut(&peer) {
                        Some(p) => {
                            let (objs, report) = server.pull_dirty_from(p);
                            if let Some(canonical) = monitor {
                                server.revoke_peer_monitor(p, canonical);
                            }
                            (objs, report)
                        }
                        None => (Vec::new(), Default::default()), // peer died; nothing to pull
                    };
                    tele::instant(
                        req.lane.track(),
                        tele::EventName::SyncPullDirty,
                        &[
                            ("objects", tele::Arg::UInt(objs.len() as u64)),
                            ("bytes", tele::Arg::UInt(report.bytes)),
                        ],
                    );
                    if let Lane::Faas { session, .. } = &mut req.lane {
                        session.deliver_peer_objects(objs);
                    }
                }
                SessionStep::ServerGc => {
                    tally.server_gcs += 1;
                    // Roots: every in-flight server execution, this
                    // request's included.
                    let mut execs: Vec<&mut Execution> = requests
                        .values_mut()
                        .filter_map(|r| match &mut r.lane {
                            Lane::Server { session, .. } => Some(session.execution_mut()),
                            _ => None,
                        })
                        .collect();
                    let pause = server.collect_server_heap(&mut execs);
                    req = requests.get_mut(&rid).expect("stepping request present");
                    let Lane::Server { session, .. } = &mut req.lane else {
                        unreachable!("only server sessions GC through the driver")
                    };
                    session.gc_done(pause);
                }
                SessionStep::AwaitLock { canonical } => {
                    tally.lock_waits += 1;
                    if tele::enabled() {
                        // Lock hand-off residence: opened here, closed by the
                        // `open_span` mechanism when the waiter resumes — the
                        // same shape as the resource spans of `park_on_need`,
                        // so the insight attribution sees lock wait as its
                        // own component instead of folding it into execution.
                        let name = tele::EventName::WaitLock;
                        tele::begin(req.lane.track(), name, &[]);
                        req.open_span = Some(name);
                    }
                    lock_waiters.entry(canonical).or_default().push_back(rid);
                    return None;
                }
                SessionStep::Finished(_v) => {
                    tally.finished += 1;
                    let req = *requests.remove(&rid).expect("stepping request present");
                    return Some(Done {
                        arrival: req.arrival,
                        record: req.record,
                        closed_loop: req.closed_loop,
                        faas: match req.lane {
                            Lane::Faas { session, instance } => Some((session, instance)),
                            _ => None,
                        },
                    });
                }
            }
        }
    }

    /// Park `req` on `n`: trace the residence, then hand the wait to the
    /// broker (pools, database) or the event queue (dedicated CPU, network).
    ///
    /// A wait whose end is fixed when it starts is traced as one
    /// `Complete(d)`: a leg this function schedules itself (network,
    /// function CPU, and server CPU for a fallback) resumes exactly `d`
    /// later, and a database round resumes when the FIFO, which never
    /// cancels a job, says at enqueue — nothing cuts either short, a crash
    /// is only detected on resume. A wait on a server pool ends when the
    /// pool says so: it opens a span that the resume closes. So does a
    /// fixed wait that would end after `horizon`, which the run stops
    /// before closing.
    fn park_on_need(
        rid: u64,
        req: &mut Request,
        n: Need,
        now: SimTime,
        horizon: SimTime,
        broker: &mut Broker,
        events: &mut EventQueue<Ev>,
    ) {
        let (track, pool, on_faas) = (req.lane.track(), req.lane.pool(), req.lane.on_faas());
        // When the wait ends, if that is fixed now, and the chaos event it
        // suffered with the track that records it.
        let (until, fault) = match n.resource {
            // Fallback servicing runs on the runtime's own high-priority
            // thread, not behind the request worker pool — otherwise a
            // saturated server would hold every lock hand-off hostage and
            // convoy the fleet.
            Resource::ServerCpu if n.fallback => (Some(now + n.amount), None),
            Resource::FunctionCpu => (Some(now + broker.function_cpu_duration(n.amount)), None),
            Resource::Net => {
                let mut wait = n.amount;
                let factor = broker.chaos.net_factor(now);
                if factor != 1.0 {
                    wait = wait.mul_f64(factor);
                }
                let fault = n.fallback.then(|| broker.chaos.rpc_fault()).flatten();
                let fault = fault.map(|fault| match fault {
                    RpcFault::Drop { timeout } => {
                        // The round-trip is lost: the caller times out and
                        // re-sends over the degraded leg.
                        broker.chaos.stats.retries += 1;
                        wait = wait + timeout + wait;
                        (track, tele::EventName::ChaosRpcDrop)
                    }
                    RpcFault::Delay { delay } => {
                        wait += delay;
                        (track, tele::EventName::ChaosRpcDelay)
                    }
                });
                (Some(now + wait), fault)
            }
            Resource::Db => {
                let mut demand = n.amount;
                let fault = broker.chaos.db_drop().map(|reconnect| {
                    // Connection dropped: pay the reconnect before the round
                    // is served.
                    broker.chaos.stats.retries += 1;
                    demand += reconnect;
                    (tele::Track::Db, tele::EventName::ChaosDbReconnect)
                });
                (Some(broker.db_add(now, rid, demand, events)), fault)
            }
            Resource::ServerCpu => (None, None),
        };
        // Offloaded sessions trace every wait as a residence, which counts a
        // database round too; plain server requests park on the pool ~100×
        // each, so only their fallback round trips are traced — recording
        // every one would dwarf the Semi-FaaS machinery the trace is for —
        // and their database rounds are marked on the database track.
        if (n.fallback || on_faas) && tele::enabled() {
            let name = n.span_name();
            match until {
                Some(end) if end <= horizon => tele::complete(track, name, end - now, &[]),
                _ => {
                    tele::begin(track, name, &[]);
                    req.open_span = Some(name);
                }
            }
        }
        if n.resource == Resource::Db && !on_faas {
            tele::instant(tele::Track::Db, tele::EventName::DbRound, &[]);
        }
        if let Some((track, name)) = fault {
            tele::instant(track, name, &[]);
        }
        match (n.resource, until) {
            // The broker hands the request back with the round's `DbDone`.
            (Resource::Db, _) => {}
            (_, Some(end)) => {
                events.schedule(end, Ev::Step(rid));
            }
            (_, None) => broker.pool_add(now, pool, rid, n.amount, events),
        }
    }

    /// Wake the next FIFO waiter of every lock whose hand-off just ended.
    pub(crate) fn wake_lock_waiters(
        &mut self,
        now: SimTime,
        server: &mut ServerRuntime,
        events: &mut EventQueue<Ev>,
    ) {
        for canonical in server.take_freed_locks() {
            if let Some(q) = self.lock_waiters.get_mut(&canonical) {
                if let Some(rid) = q.pop_front() {
                    // Wake at the same instant: event FIFO order guarantees
                    // the queued waiter re-attempts before any strictly
                    // later acquirer, giving FIFO lock hand-offs.
                    events.schedule(now, Ev::Step(rid));
                }
                if q.is_empty() {
                    self.lock_waiters.remove(&canonical);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_apps::{App, AppKind, Fidelity};
    use beehive_chaos::RetryPolicy;
    use beehive_core::config::BeeHiveConfig;
    use beehive_core::FunctionRuntime;
    use beehive_db::Database;
    use beehive_faas::{FaasPlatform, PlatformConfig};
    use beehive_proxy::Proxy;
    use beehive_sim::{Duration, Rng};
    use beehive_vm::CostModel;
    use std::sync::Arc;

    impl Lifecycle {
        /// Requests still parked on a lock, and the locks they wait for.
        pub(crate) fn stranded_lock_waiters(&self) -> (usize, usize) {
            (
                self.lock_waiters.values().map(|q| q.len()).sum(),
                self.lock_waiters.len(),
            )
        }
    }

    /// A minimal world around the lifecycle machine: no `Sim`, no arrival
    /// process — tests insert requests by hand and drain the event queue.
    struct World {
        app: App,
        rng: Rng,
        now: SimTime,
        server: ServerRuntime,
        fleet: Fleet,
        broker: Broker,
        events: EventQueue<Ev>,
        life: Lifecycle,
        done: Vec<Done>,
    }

    fn world(barriers: bool) -> World {
        let app = App::build(AppKind::Pybbs, Fidelity::Scaled(4096));
        let cost = CostModel::default();
        let mut server = ServerRuntime::new(
            Arc::clone(&app.program),
            BeeHiveConfig::default(),
            Proxy::new(Database::new()),
            cost,
        );
        server.vm.set_barriers(barriers);
        app.install(&mut server);
        World {
            app,
            rng: Rng::new(7),
            now: SimTime::ZERO,
            server,
            fleet: Fleet::default(),
            broker: Broker::new(4.0, None, None),
            events: EventQueue::new(),
            life: Lifecycle::new(SimTime::MAX),
            done: Vec::new(),
        }
    }

    impl World {
        fn step(&mut self, rid: u64) {
            if let Some(d) = self.life.advance(
                rid,
                self.now,
                &mut self.server,
                &mut self.fleet,
                &mut self.broker,
                &mut self.events,
            ) {
                self.done.push(d);
            }
        }

        /// Start one request on the server lane.
        fn start_server(&mut self) -> u64 {
            let args = self.app.request_args(&mut self.rng);
            let session = ServerSession::start(&mut self.server, self.app.root, args);
            let rid = self.life.insert(Request::new(
                self.now,
                true,
                false,
                Lane::server(session, 0),
            ));
            self.step(rid);
            rid
        }

        /// Start one request on FaaS instance `fid` (created on demand).
        fn start_faas(&mut self, fid: u32, shadow: bool) -> u64 {
            let mut func = self.fleet.funcs.remove(&fid).unwrap_or_else(|| {
                FunctionRuntime::new(fid, &self.app.program, CostModel::default())
            });
            let args = self.app.request_args(&mut self.rng);
            let session = OffloadSession::start(
                &mut self.server,
                &mut func,
                self.app.root,
                args,
                shadow,
                BeeHiveConfig::default().net,
                true,
            );
            self.fleet.funcs.insert(fid, func);
            let rid = self.life.insert(Request::new(
                self.now,
                true,
                false,
                Lane::faas(session, fid),
            ));
            self.step(rid);
            rid
        }

        /// The driver's `Ev::Recover` glue: restore the crashed session on
        /// its replacement and park it on the resumed need.
        fn recover(&mut self, rid: u64) {
            let Some((mut session, fid, runtime, cold, detected)) = self.life.take_crashed(rid)
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
            let mut func = runtime.map(|b| *b).unwrap_or_else(|| {
                FunctionRuntime::new(fid, &self.app.program, CostModel::default())
            });
            let step = session.recover(&mut self.server, &mut func);
            self.fleet.funcs.insert(fid, func);
            let latency = self.now.saturating_since(detected);
            self.broker.chaos.stats.recovery.record(latency);
            self.life.resume_recovered(
                rid,
                session,
                fid,
                step,
                self.now,
                &mut self.broker,
                &mut self.events,
            );
        }

        /// Fill the server's allocation space with unrooted garbage, so the
        /// next allocation blocks on `GcNeeded`.
        fn fill_alloc_space(&mut self) {
            for len in [65_536u32, 4_096, 256, 16, 1, 0] {
                while self
                    .server
                    .vm
                    .heap
                    .alloc_array(len, beehive_vm::heap::Space::Alloc)
                    .is_some()
                {}
            }
        }

        /// Run the event queue dry, advancing virtual time.
        fn run_dry(&mut self) {
            self.run_until(|_| false);
        }

        /// Run events until `stop` holds (checked after each event) or the
        /// queue is dry.
        fn run_until(&mut self, stop: impl Fn(&TransitionTally) -> bool) {
            while !stop(&self.life.tally()) {
                let Some((t, ev)) = self.events.pop() else {
                    return;
                };
                self.now = t;
                match ev {
                    Ev::Step(rid) => self.step(rid),
                    Ev::Recover { req } => self.recover(req),
                    Ev::ServerPool { pool } => {
                        let job = self
                            .broker
                            .pool_completion(self.now, pool, &mut self.events);
                        self.step(job);
                    }
                    Ev::DbDone { job, at } => {
                        if let Some(job) =
                            self.broker
                                .db_completion(self.now, job, at, &mut self.events)
                        {
                            self.step(job);
                        }
                    }
                    other => panic!("unexpected event in a lifecycle test: {other:?}"),
                }
                self.life
                    .wake_lock_waiters(self.now, &mut self.server, &mut self.events);
            }
        }
    }

    #[test]
    fn server_lane_parks_on_needs_and_finishes() {
        let mut w = world(false);
        for _ in 0..3 {
            w.start_server();
        }
        w.run_dry();
        let t = w.life.tally();
        assert_eq!(t.finished, 3);
        assert_eq!(w.done.len(), 3);
        assert!(t.needs > 3, "server requests park on CPU/DB needs: {t:?}");
        assert!(w.done.iter().all(|d| d.faas.is_none()));
        assert_eq!(w.life.inflight(), 0);
    }

    #[test]
    fn pending_boot_lane_parks_until_boot() {
        let mut w = world(true);
        let rid = w.life.insert(Request::new(
            w.now,
            true,
            false,
            Lane::pending_boot(Vec::new(), 5, true),
        ));
        w.step(rid);
        // Still parked: a pending boot consumes no steps until Ev::Boot.
        assert_eq!(w.life.inflight(), 1);
        assert_eq!(w.life.tally().needs, 0);
        let (args, fid, cold, arrival) = w.life.take_pending_boot(rid).expect("present");
        assert_eq!((args.len(), fid, cold), (0, 5, true));
        assert_eq!(arrival, SimTime::ZERO);
    }

    #[test]
    fn faas_primary_and_shadow_lanes_finish() {
        let mut w = world(true);
        w.start_faas(0, false);
        w.run_dry();
        w.start_faas(1, true);
        w.run_dry();
        let t = w.life.tally();
        assert_eq!(t.finished, 2);
        assert!(t.needs > 2, "offload sessions park on net/CPU: {t:?}");
        let shadows: Vec<bool> = w
            .done
            .iter()
            .map(|d| d.faas.as_ref().expect("faas lane").0.is_shadow())
            .collect();
        assert_eq!(shadows, vec![false, true]);
    }

    #[test]
    fn alternating_instances_pull_dirty_state_from_peers() {
        let mut w = world(true);
        // Monitor ownership bounces between the two instances: later
        // requests must sync the previous owner's dirty set (§4.2).
        for i in 0..6 {
            w.start_faas(i % 2, false);
            w.run_dry();
        }
        let t = w.life.tally();
        assert_eq!(t.finished, 6);
        assert!(t.syncs > 0, "expected SyncFromPeer hand-offs: {t:?}");
    }

    #[test]
    fn concurrent_offloads_park_on_contended_locks() {
        let mut w = world(true);
        // Many concurrent sessions racing for the same monitors: some must
        // park on AwaitLock while a hand-off is in flight.
        for i in 0..8 {
            w.start_faas(i, false);
        }
        w.run_dry();
        let t = w.life.tally();
        assert_eq!(t.finished, 8);
        assert!(t.syncs > 0, "expected SyncFromPeer hand-offs: {t:?}");
        assert!(t.lock_waits > 0, "expected AwaitLock parks: {t:?}");
        let (stranded, _) = w.life.stranded_lock_waiters();
        assert_eq!(stranded, 0, "every waiter must be woken");
    }

    #[test]
    fn allocation_pressure_triggers_server_gc() {
        let mut w = world(false);
        // Fill the allocation space with unrooted garbage: the next server
        // request's first allocation blocks on GcNeeded, surfacing
        // SessionStep::ServerGc; the collection then reclaims the filler
        // and the request completes normally.
        w.fill_alloc_space();
        w.start_server();
        w.run_dry();
        let t = w.life.tally();
        assert!(t.server_gcs > 0, "no ServerGc under a full heap: {t:?}");
        assert_eq!(t.finished, 1, "the request completes after the GC: {t:?}");
    }

    #[test]
    fn server_gc_roots_every_other_in_flight_server_request() {
        let mut w = world(false);
        // Four server requests parked mid-flight, their frames holding
        // allocation-space references …
        for _ in 0..4 {
            w.start_server();
        }
        assert_eq!(w.life.inflight(), 4);
        // … then the heap fills up and a fifth request's first allocation
        // collects it: the four parked executions are roots too, stepped
        // where they live in the table.
        w.fill_alloc_space();
        w.start_server();
        w.run_until(|t| t.server_gcs > 0);
        let t = w.life.tally();
        assert!(t.server_gcs > 0, "no ServerGc under a full heap: {t:?}");
        assert_eq!(t.finished, 0, "{t:?}");
        assert_eq!(w.life.inflight(), 5, "the collecting request stays put");
        w.run_dry();
        let t = w.life.tally();
        assert_eq!(t.finished, 5, "every rooted request completes: {t:?}");
        assert_eq!(w.life.inflight(), 0);
    }

    #[test]
    fn a_crash_detected_mid_advance_parks_the_request_where_it_is() {
        let mut w = world(true);
        w.broker.platform = Some(FaasPlatform::new(PlatformConfig::openwhisk(), Rng::new(1)));
        w.start_server();
        let rid = w.start_faas(5, false);
        w.start_server();
        w.fleet.funcs.remove(&5);
        // The victim's completed wait detects the crash.
        w.run_until(|t| t.crashes > 0);
        let t = w.life.tally();
        assert_eq!((t.crashes, t.finished), (1, 0), "{t:?}");
        assert_eq!(w.life.inflight(), 3, "a crashed lane stays in the table");
        assert!(
            w.life.faas_instances().is_empty(),
            "the reserved replacement is not a fault victim"
        );
        // Stepping it again before Ev::Recover is a no-op.
        w.step(rid);
        assert_eq!(w.life.tally().crashes, 1);
        w.run_dry();
        let t = w.life.tally();
        assert_eq!((t.crashes, t.finished), (1, 3), "{t:?}");
        assert_eq!(w.life.inflight(), 0);
    }

    #[test]
    fn degrading_keeps_stepping_the_same_request_in_the_same_call() {
        let mut w = world(true);
        w.broker.chaos.policy = RetryPolicy::new(Duration::from_millis(50), 0);
        w.start_faas(3, false);
        let needs_before = w.life.tally().needs;
        w.fleet.funcs.remove(&3);
        w.run_until(|t| t.crashes > 0);
        // One `advance`: crash detected, degraded, and the fresh server
        // session already parked on its first need.
        let t = w.life.tally();
        assert_eq!((t.crashes, t.finished), (1, 0), "{t:?}");
        assert_eq!(t.needs, needs_before + 1);
        assert_eq!(w.life.inflight(), 1);
        assert!(w.life.faas_instances().is_empty(), "now a server lane");
        w.run_dry();
        assert_eq!(w.life.tally().finished, 1);
        assert!(w.done[0].faas.is_none());
        assert_eq!(w.life.inflight(), 0);
    }

    #[test]
    fn crashed_lane_recovers_on_a_replacement_instance() {
        let mut w = world(true);
        w.broker.platform = Some(FaasPlatform::new(PlatformConfig::openwhisk(), Rng::new(1)));
        // Instance 5 is killed while its request is parked on a need; the
        // completed wait is the failure detector. The platform's fresh
        // replacement gets id 0, so the ids cannot collide.
        w.start_faas(5, false);
        w.fleet.funcs.remove(&5);
        w.run_dry();
        let t = w.life.tally();
        assert_eq!(t.crashes, 1, "{t:?}");
        assert_eq!(t.finished, 1, "{t:?}");
        assert_eq!(w.broker.chaos.stats.retries, 1);
        assert_eq!(w.broker.chaos.stats.recoveries(), 1);
        assert_eq!(w.broker.chaos.stats.degraded_to_server, 0);
        let (session, inst) = w.done[0].faas.as_ref().expect("finished on faas");
        assert_eq!(*inst, 0, "resumed on the replacement instance");
        assert_eq!(session.stats.recoveries, 1);
        assert_eq!(w.life.inflight(), 0);
    }

    #[test]
    fn exhausted_retries_degrade_clean_requests_to_the_server() {
        let mut w = world(true);
        // Zero retries: the first crash immediately consults the policy and
        // degrades (the write journal is clean right after dispatch).
        w.broker.chaos.policy = RetryPolicy::new(Duration::from_millis(50), 0);
        w.start_faas(3, false);
        w.fleet.funcs.remove(&3);
        w.run_dry();
        let t = w.life.tally();
        assert_eq!(t.crashes, 1, "{t:?}");
        assert_eq!(t.finished, 1, "{t:?}");
        assert_eq!(w.broker.chaos.stats.degraded_to_server, 1);
        assert_eq!(w.broker.chaos.stats.retries, 0);
        assert_eq!(w.broker.chaos.stats.recoveries(), 0);
        assert!(w.done[0].faas.is_none(), "finished on the server lane");
        assert_eq!(w.life.inflight(), 0);
    }

    #[test]
    fn dead_shadow_warmups_are_dropped() {
        let mut w = world(true);
        w.start_faas(0, true);
        w.fleet.funcs.remove(&0);
        w.run_dry();
        let t = w.life.tally();
        assert_eq!(t.crashes, 1, "{t:?}");
        assert_eq!(t.finished, 0, "a dead warm-up leaves nothing to finish");
        assert!(w.done.is_empty());
        assert_eq!(w.life.inflight(), 0);
    }

    #[test]
    fn residence_spans_close_on_resume() {
        // With tracing off (the default in tests) open_span stays None, but
        // fallback needs still count; this pins the Need bookkeeping that
        // the span logic rides on.
        let mut w = world(true);
        w.start_faas(0, false);
        w.run_dry();
        assert!(w.life.tally().needs > 0);
        assert_eq!(w.life.inflight(), 0);
    }
}
