//! Request sessions: the fallback protocol as driver-steppable state
//! machines.
//!
//! A session wraps one request's [`Execution`] and translates every
//! interpreter [`Block`] into (a) a sequence of *resource needs* the
//! embedding discrete-event simulation must schedule (server CPU, function
//! CPU, network legs, database service) and (b) a *fix* — the state mutation
//! that services the fallback — applied when those needs drain:
//!
//! * missing class → ship the class file, refine the closure plan (§3.1),
//! * remote reference → ship the object, clear bit 63 at the provenance
//!   (§4.1),
//! * monitor acquire → coordinate through the server, ship dirty objects,
//!   transfer ownership (§4.2, Fig. 6),
//! * database call → direct to the proxy over the packaged connection, or
//!   fall back to the server (§3.3),
//! * native fallback → execute on the server, return the result (§3.2),
//! * GC → collect and charge the pause (§4.4).
//!
//! Both session types share one step loop; each adds only its endpoint's
//! block handling and fixes. A round trip is declared once, as its list of
//! *legs*: queueing them credits their sum to its synthetic profile frame,
//! and each kind of round trip is one row naming its [`SessionStats`]
//! counters, trace span and frame (DESIGN.md §4, "A session is its round
//! trips").
//!
//! The driver loop is:
//!
//! ```text
//! loop {
//!     match session.next(&mut server, &mut func) {
//!         SessionStep::Need(n)            => schedule n, come back when done
//!         SessionStep::SyncFromPeer{peer} => pull peer's dirty, deliver, loop
//!         SessionStep::ServerGc           => collect server heap, gc_done(pause)
//!         SessionStep::Finished(v)        => request complete
//!     }
//! }
//! ```

use std::collections::VecDeque;

use beehive_db::WriteKey;
use beehive_profiler as prof;
use beehive_proxy::{ConnId, Origin};
use beehive_sim::Duration;
use beehive_telemetry::{self as tele, Arg, EventName};
use beehive_vm::interp::{Block, Execution, Outcome, Provenance};
use beehive_vm::natives::NativeState;
use beehive_vm::program::Program;
use beehive_vm::{Addr, ClassId, EndpointId, MethodId, NativeId, StaticSlot, Value, VmInstance};

use self::Resource::{Db, FunctionCpu, Net, ServerCpu};
use crate::config::NetProfile;
use crate::function::FunctionRuntime;
use crate::mapping::MappingTable;
use crate::recovery::Snapshot;
use crate::server::ServerRuntime;
use crate::stats::SessionStats;

/// Which simulated resource a need occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resource {
    /// The server's CPU pool (contended across requests).
    ServerCpu,
    /// The function instance's CPU (dedicated; the driver scales the
    /// duration by the platform's vCPU share).
    FunctionCpu,
    /// Pure network delay.
    Net,
    /// The database machine.
    Db,
}

/// One resource requirement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Need {
    /// The resource.
    pub resource: Resource,
    /// How long it is occupied.
    pub amount: Duration,
    /// `true` when the need is part of servicing a fallback (Table 5's
    /// fallback overhead).
    pub fallback: bool,
    /// `true` when the need is part of a remote code/data fetch.
    pub fetch: bool,
}

impl Need {
    /// The residence-span name of this need: one vocabulary id per
    /// (resource, fallback-flag) pair, but `wait:db` for every database
    /// round, so tracing the wait allocates nothing on the hot path.
    pub fn span_name(&self) -> EventName {
        match (self.resource, self.fallback) {
            (ServerCpu, false) => EventName::WaitServerCpu,
            (ServerCpu, true) => EventName::WaitServerCpuFb,
            (FunctionCpu, false) => EventName::WaitFunctionCpu,
            (FunctionCpu, true) => EventName::WaitFunctionCpuFb,
            (Net, false) => EventName::WaitNet,
            (Net, true) => EventName::WaitNetFb,
            // A round is the request's own work, even inside a fallback.
            (Db, _) => EventName::WaitDb,
        }
    }
}

/// What the driver must do next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionStep {
    /// Occupy a resource for a duration, then call `next` again.
    Need(Need),
    /// Pull the dirty set of function `peer` into the server
    /// ([`ServerRuntime::pull_dirty_from`]) and deliver the returned object
    /// list via [`OffloadSession::deliver_peer_objects`], then call `next`.
    /// When `monitor` is set, the hand-off takes that lock away from the
    /// peer: revoke the peer's cached ownership
    /// ([`ServerRuntime::revoke_peer_monitor`]).
    SyncFromPeer {
        /// The previous lock owner.
        peer: u32,
        /// The lock being taken away (server canonical address), if any.
        monitor: Option<Addr>,
    },
    /// Collect the server heap (roots: every live server execution), then
    /// call [`ServerSession::gc_done`] with the pause, then `next`.
    ServerGc,
    /// The lock at this server address has a hand-off in flight (the server
    /// serializes them, Fig. 6). Park the session; when
    /// [`ServerRuntime::take_freed_locks`] reports the lock freed, wake it
    /// by calling `next` again (plus a notification round trip).
    AwaitLock {
        /// The contended lock (server canonical address).
        canonical: Addr,
    },
    /// The request completed with this value. Terminal.
    Finished(Value),
}

/// One queued leg: a need, a pull of a peer's dirty set, or a server GC.
#[derive(Clone, Debug)]
enum Pending {
    Need(Need),
    Peer(u32, Option<Addr>),
    Gc,
}

/// A need leg with the given overhead flags.
fn need(resource: Resource, amount: Duration, fallback: bool, fetch: bool) -> Pending {
    Pending::Need(Need {
        resource,
        amount,
        fallback,
        fetch,
    })
}

/// A leg of the request's own work.
fn leg(resource: Resource, amount: Duration) -> Pending {
    need(resource, amount, false, false)
}

/// A leg of servicing a fallback (Table 5's fallback overhead).
fn fb(resource: Resource, amount: Duration) -> Pending {
    need(resource, amount, true, false)
}

/// A fetch from the server: the request, its handling, and the reply
/// carrying `payload` of transfer time; all fetch (and fallback) overhead.
fn fetch_legs(f_s: Duration, handle: Duration, payload: Duration) -> [Pending; 3] {
    [
        need(Net, f_s, true, true),
        need(ServerCpu, handle, true, true),
        need(Net, f_s + payload, true, true),
    ]
}

/// A [`SessionStats`] counter.
type Counter = fn(&mut SessionStats) -> &mut u64;

/// One kind of round trip: the counters it bumps, the span it opens on the
/// request's track (closed by its fix) and the synthetic profile frame its
/// legs are credited to, at the bytecode site that blocked.
#[derive(Debug)]
struct Trip {
    counters: &'static [Counter],
    span: Option<EventName>,
    frame: &'static str,
}

/// Declares the round-trip kinds, one row each: the counters they bump, the
/// span they open and the frame they credit.
macro_rules! trips {
    ($($name:ident: [$($counter:ident),*], $span:expr, $frame:literal;)*) => {
        $(const $name: Trip = Trip {
            counters: &[$(|s| &mut s.$counter),*],
            span: $span,
            frame: $frame,
        };)*
    };
}

trips! {
    CODE: [fallbacks_code], Some(EventName::FallbackCode), "[fallback:code]";
    DATA: [fallbacks_data], Some(EventName::FallbackData), "[fallback:data]";
    STATIC: [fallbacks_data], Some(EventName::FallbackStatic), "[fallback:static]";
    MONITOR: [fallbacks_sync], Some(EventName::SyncMonitor), "[sync:monitor]";
    VOLATILE: [fallbacks_sync], Some(EventName::SyncVolatile), "[sync:volatile]";
    // Database rounds: on the server, offloaded over the packaged connection
    // (§3.3), and offloaded but relayed by the server.
    DB: [db_rounds], None, "[db]";
    DB_PROXY: [db_rounds], None, "[db:proxy]";
    DB_FALLBACK: [db_rounds, fallbacks_db], Some(EventName::FallbackDb), "[db:fallback]";
    NATIVE: [fallbacks_native], Some(EventName::FallbackNative), "[fallback:native]";
    GC: [], None, "[gc]";
    RECOVERY: [recoveries], None, "[recovery]";
}

// ---------------------------------------------------------------------------
// The shared core and step loop
// ---------------------------------------------------------------------------

/// What both session types hold: the request's execution, its step queue,
/// the fix to apply once the queue drains, and the result.
#[derive(Debug)]
struct Core<F> {
    exec: Execution,
    root: MethodId,
    /// The server-issued request id (also the telemetry track).
    request: u64,
    /// The request's span on that track.
    span: EventName,
    write_seq: u32,
    queue: VecDeque<Pending>,
    fix: Option<F>,
    done: Option<Value>,
    finished: bool,
    /// Profile-tree position of the bytecode site that last blocked this
    /// request; synthetic cost frames attach here. Captured right after each
    /// run segment because other requests interleave on the thread before
    /// the fix applies.
    prof_mark: Option<prof::ProfMark>,
}

impl<F> Core<F> {
    fn new(exec: Execution, root: MethodId, request: u64, span: EventName) -> Self {
        Core {
            exec,
            root,
            request,
            span,
            write_seq: 0,
            queue: VecDeque::new(),
            fix: None,
            done: None,
            finished: false,
            prof_mark: None,
        }
    }

    /// The request's telemetry track (the driver lands resource spans on
    /// the same one through `request_id`).
    fn track(&self) -> tele::Track {
        tele::Track::Request(self.request)
    }

    /// Queue `legs`; the time their needs occupy.
    fn queue(&mut self, legs: impl IntoIterator<Item = Pending>) -> Duration {
        let mut cost = Duration::ZERO;
        for l in legs {
            if let Pending::Need(n) = &l {
                cost += n.amount;
            }
            self.queue.push_back(l);
        }
        cost
    }

    /// Make a round trip: bump `trip`'s counters, open its span with `args`,
    /// queue `legs` and credit their sum to its frame.
    fn round_trip(
        &mut self,
        stats: &mut SessionStats,
        trip: &Trip,
        args: &[(&'static str, Arg)],
        legs: impl IntoIterator<Item = Pending>,
    ) {
        for counter in trip.counters {
            *counter(stats) += 1;
        }
        if let Some(span) = trip.span {
            tele::begin(self.track(), span, args);
        }
        let cost = self.queue(legs);
        self.synth(trip.frame, cost);
    }

    /// Close `trip`'s span, once its fix applied.
    fn end(&self, trip: &Trip, args: &[(&'static str, Arg)]) {
        if let Some(span) = trip.span {
            tele::end(self.track(), span, args);
        }
    }

    /// Attach a synthetic cost frame at the site that last blocked us.
    fn synth(&self, frame: &'static str, d: Duration) {
        if let Some(m) = self.prof_mark {
            prof::synthetic(m, frame, d);
        }
    }

    /// The next queued leg as a step; a need is credited to the overheads
    /// it serves.
    fn pop(&mut self, stats: &mut SessionStats) -> Option<SessionStep> {
        Some(match self.queue.pop_front()? {
            Pending::Need(n) => {
                if n.fallback {
                    stats.fallback_overhead += n.amount;
                }
                if n.fetch {
                    stats.fetch_overhead += n.amount;
                }
                SessionStep::Need(n)
            }
            Pending::Peer(peer, monitor) => SessionStep::SyncFromPeer { peer, monitor },
            Pending::Gc => SessionStep::ServerGc,
        })
    }

    /// Run one interpreter segment on `vm`, queueing its CPU on `cpu`.
    fn run(&mut self, vm: &mut VmInstance, program: &Program, cpu: Resource) -> Outcome {
        let r = self.exec.run(vm, program);
        self.prof_mark = prof::mark();
        if !r.cpu.is_zero() {
            self.queue([leg(cpu, r.cpu)]);
        }
        r.outcome
    }

    /// Park on a lock whose hand-off is in flight, retrying `fix` on wake.
    fn park(&mut self, fix: F, canonical: Addr) -> Option<SessionStep> {
        self.fix = Some(fix);
        tele::instant(self.track(), EventName::SyncLockWait, &[]);
        Some(SessionStep::AwaitLock { canonical })
    }

    /// Refresh `snap` to this point of the request on `func`.
    fn refresh(&self, snap: &mut Snapshot, server: &ServerRuntime, func: &FunctionRuntime) {
        let empty = MappingTable::new();
        let mapping = server.mapping(func.id).unwrap_or(&empty);
        snap.refresh(&self.exec, func, self.root, self.write_seq, mapping);
    }

    /// Execute `db` for `origin` and resume with its result. A write whose
    /// effects `commit` (not a shadow's) takes the next write-journal key.
    fn db_round(&mut self, server: &mut ServerRuntime, origin: Origin, db: DbRound, commit: bool) {
        let write = server.proxy.db().query_def(db.query).kind.is_write();
        let key = (write && commit).then(|| {
            self.write_seq += 1;
            WriteKey {
                request: self.request,
                seq: self.write_seq - 1,
            }
        });
        let out = server
            .proxy
            .execute(db.conn, origin, db.query, db.arg, key)
            .expect("connection is registered with the proxy");
        self.exec.resume_with(Value::I64(out.result));
    }
}

/// A database round `query(arg)` over `conn`, executed by its fix once the
/// round trip's legs drained.
#[derive(Debug)]
struct DbRound {
    conn: ConnId,
    query: u16,
    arg: i64,
}

/// One endpoint's half of a session: its block handling and its fixes.
trait Endpoint {
    /// The state mutations that service this endpoint's blocks.
    type Fix;
    /// The function instance the session runs on (`()` on the server).
    type Instance;
    /// The shared core and the session's statistics.
    fn parts(&mut self) -> (&mut Core<Self::Fix>, &mut SessionStats);
    /// Run one interpreter segment and queue what its outcome costs; the
    /// fix to apply once that drains.
    fn segment(&mut self, server: &mut ServerRuntime, at: &mut Self::Instance)
        -> Option<Self::Fix>;
    /// Apply `fix`; a step when it needs the driver first.
    fn apply(
        &mut self,
        server: &mut ServerRuntime,
        at: &mut Self::Instance,
        fix: Self::Fix,
    ) -> Option<SessionStep>;
    /// Endpoint bookkeeping when the request completes.
    fn complete(&mut self, _server: &mut ServerRuntime) {}
}

/// The one step loop: drain the queue, apply the pending fix, finish, or
/// run one interpreter segment.
fn step<E: Endpoint>(e: &mut E, server: &mut ServerRuntime, at: &mut E::Instance) -> SessionStep {
    assert!(!e.parts().0.finished, "session already finished");
    loop {
        let (core, stats) = e.parts();
        if let Some(step) = core.pop(stats) {
            return step;
        }
        if let Some(fix) = core.fix.take() {
            if let Some(step) = e.apply(server, at, fix) {
                return step;
            }
            continue;
        }
        if let Some(v) = core.done {
            core.finished = true;
            tele::end(core.track(), core.span, &[]);
            e.complete(server);
            return SessionStep::Finished(v);
        }
        e.parts().0.fix = e.segment(server, at);
    }
}

// ---------------------------------------------------------------------------
// Server-side session
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum ServerFix {
    MonitorBegin { obj: Addr },
    Db(DbRound),
    Monitor { obj: Addr },
}

/// A request executing on the server (the non-offloaded path; also the
/// vanilla baseline).
#[derive(Debug)]
pub struct ServerSession {
    core: Core<ServerFix>,
    /// Per-request statistics.
    pub stats: SessionStats,
}

impl ServerSession {
    /// Begin a server-side request.
    pub fn start(server: &mut ServerRuntime, root: MethodId, args: Vec<Value>) -> Self {
        let request = server.next_request_id();
        let exec = Execution::call(root, args, &server.program);
        let core = Core::new(exec, root, request, EventName::ReqServer);
        tele::begin(core.track(), core.span, &[]);
        ServerSession {
            core,
            stats: SessionStats::default(),
        }
    }

    /// The wrapped execution (server GC roots).
    pub fn execution_mut(&mut self) -> &mut Execution {
        &mut self.core.exec
    }

    /// The server-issued request id (also this request's telemetry track).
    pub fn request_id(&self) -> u64 {
        self.core.request
    }

    /// Total interpreter CPU time the request consumed (excludes GC pauses
    /// and network/database waiting).
    pub fn total_cpu(&self) -> Duration {
        self.core.exec.total_cpu()
    }

    /// Deliver the GC pause after a [`SessionStep::ServerGc`].
    pub fn gc_done(&mut self, pause: Duration) {
        self.core.synth(GC.frame, pause);
        self.core.queue.push_front(leg(ServerCpu, pause));
    }

    /// Advance the session.
    ///
    /// # Panics
    ///
    /// Panics if called after [`SessionStep::Finished`] was returned, or on
    /// blocks that cannot occur on the server (missing code/data).
    pub fn next(&mut self, server: &mut ServerRuntime) -> SessionStep {
        step(self, server, &mut ())
    }
}

impl Endpoint for ServerSession {
    type Fix = ServerFix;
    type Instance = ();

    fn parts(&mut self) -> (&mut Core<ServerFix>, &mut SessionStats) {
        (&mut self.core, &mut self.stats)
    }

    fn segment(&mut self, server: &mut ServerRuntime, _: &mut ()) -> Option<ServerFix> {
        let outcome = self.core.run(&mut server.vm, &server.program, ServerCpu);
        Some(match outcome {
            Outcome::Done(v) => {
                self.core.done = Some(v);
                return None;
            }
            Outcome::Blocked(Block::Db {
                query,
                arg,
                proxy_conn_id,
                ..
            }) => {
                let conn =
                    ConnId(proxy_conn_id.expect("server connections always carry native state"));
                let svc = server.proxy.db().query_def(query).service_time();
                let net = server.config.net.server_db;
                let legs = [leg(Net, net), leg(Db, svc), leg(Net, net)];
                self.core.round_trip(&mut self.stats, &DB, &[], legs);
                ServerFix::Db(DbRound { conn, query, arg })
            }
            Outcome::Blocked(Block::GcNeeded { .. }) => {
                // The driver collects; the pause is queued by `gc_done`.
                self.core.exec.resume();
                self.core.queue([Pending::Gc]);
                return None;
            }
            Outcome::Blocked(Block::MonitorAcquire { obj }) => ServerFix::MonitorBegin { obj },
            Outcome::Blocked(other) => unreachable!("impossible server-side block: {other:?}"),
        })
    }

    fn apply(
        &mut self,
        server: &mut ServerRuntime,
        _: &mut (),
        fix: ServerFix,
    ) -> Option<SessionStep> {
        match fix {
            ServerFix::MonitorBegin { obj } => {
                // The server blocks only when a function holds the lock.
                let peer = match server.monitor_owner(obj) {
                    EndpointId::Function(f) => f,
                    EndpointId::Server => {
                        // Ownership returned while we waited: proceed.
                        server.set_monitor_owner(obj, EndpointId::Server);
                        self.core.exec.resume();
                        return None;
                    }
                };
                if !server.begin_lock_transfer(obj) {
                    return self.core.park(ServerFix::MonitorBegin { obj }, obj);
                }
                let net = server.config.net.function_server;
                let prev = [("prev_owner", Arg::UInt(peer as u64))];
                let legs = [
                    fb(Net, net),
                    Pending::Peer(peer, Some(obj)),
                    fb(ServerCpu, server.config.sync_base_cost),
                    fb(Net, net),
                ];
                self.core.round_trip(&mut self.stats, &MONITOR, &prev, legs);
                self.core.fix = Some(ServerFix::Monitor { obj });
            }
            ServerFix::Db(db) => self.core.db_round(server, Origin::Server, db, true),
            ServerFix::Monitor { obj } => {
                server.set_monitor_owner(obj, EndpointId::Server);
                server.end_lock_transfer(obj);
                self.core.end(&MONITOR, &[]);
                self.core.exec.resume();
            }
        }
        None
    }

    fn complete(&mut self, server: &mut ServerRuntime) {
        server.record_profile(self.core.root, self.core.exec.total_cpu());
    }
}

// ---------------------------------------------------------------------------
// Offloaded session
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum OffloadFix {
    /// Phase 1 of a monitor hand-off: claim the per-lock transfer slot once
    /// all preceding work drained (claiming at block time would hold the
    /// slot hostage to the holder's own queued CPU segments).
    MonitorBegin {
        obj: Addr,
        canonical: Addr,
    },
    FetchClass(ClassId),
    FetchObject {
        canonical: Addr,
        prov: Provenance,
    },
    FetchStatic(StaticSlot),
    Monitor {
        obj: Addr,
        canonical: Addr,
        prev: EndpointId,
    },
    Volatile {
        slot: StaticSlot,
        is_write: bool,
    },
    /// A database round, made as the `DB_PROXY` or `DB_FALLBACK` trip.
    Db(DbRound, &'static Trip),
    Native {
        native: NativeId,
        args: Vec<Value>,
    },
    Complete(Value),
}

/// A request offloaded to a FaaS function (§3.1), including shadow mode
/// (§3.4).
#[derive(Debug)]
pub struct OffloadSession {
    core: Core<OffloadFix>,
    args: Vec<Value>,
    /// The function instance currently executing this session.
    pub function_id: u32,
    shadow: bool,
    net: NetProfile,
    peer_objects: Vec<Addr>,
    /// Monitors acquired while shadowing, released (and returned to the
    /// server) at completion so the shadow leaves no ownership traces.
    shadow_monitors: Vec<(Addr, Addr)>,
    /// The last sync point's snapshot (§4.5): one per session, refreshed in
    /// place at every sync point; `None` until the first.
    snapshot: Option<Box<Snapshot>>,
    /// Per-request statistics.
    pub stats: SessionStats,
}

impl OffloadSession {
    /// Dispatch `root(args)` to `func`.
    ///
    /// If the instance has no closure for `root` yet, the initial closure is
    /// instantiated and its transfer queued; `overlap_boot` skips charging
    /// the server-side closure computation (it overlaps the platform cold
    /// boot, §5.6). `shadow` runs the request as a shadow execution: proxy
    /// writes suppressed, no memory side effects shipped back (§3.4).
    pub fn start(
        server: &mut ServerRuntime,
        func: &mut FunctionRuntime,
        root: MethodId,
        args: Vec<Value>,
        shadow: bool,
        net: NetProfile,
        overlap_boot: bool,
    ) -> Self {
        Self::start_with_dispatch(
            server,
            func,
            root,
            args,
            shadow,
            net,
            overlap_boot,
            Duration::ZERO,
        )
    }

    /// Like [`OffloadSession::start`], but also charges `dispatch_cost` of
    /// server CPU for accepting the user request, forwarding it and relaying
    /// the result. This per-request server work is what ultimately caps
    /// BeeHive's throughput at "the centralized server" (§5.3).
    #[allow(clippy::too_many_arguments)]
    pub fn start_with_dispatch(
        server: &mut ServerRuntime,
        func: &mut FunctionRuntime,
        root: MethodId,
        args: Vec<Value>,
        shadow: bool,
        net: NetProfile,
        overlap_boot: bool,
        dispatch_cost: Duration,
    ) -> Self {
        let request = server.next_request_id();
        // Tag the instance's lane (`faas:primary` vs `faas:shadow`) for the
        // call-tree profiler before any interpreter segment runs.
        func.vm.set_shadow(shadow);
        let warm = func.instantiated_for == Some(root);
        let exec = Execution::call(root, args.clone(), &server.program);
        let span = if shadow {
            EventName::ReqShadow
        } else {
            EventName::ReqOffload
        };
        let mut core = Core::new(exec, root, request, span);
        let mut stats = SessionStats::default();
        if !dispatch_cost.is_zero() {
            core.queue([leg(ServerCpu, dispatch_cost)]);
        }
        if !net.dispatch_latency.is_zero() {
            // The platform's per-invocation path (controller/invoker on
            // OpenWhisk, the invoke API on Lambda).
            core.queue([leg(Net, net.dispatch_latency)]);
        }
        if !warm {
            let cs = server.instantiate_closure(func, root);
            stats.closure_bytes = cs.bytes;
            stats.closure_objects = cs.objects;
            stats.closure_classes = cs.classes;
            stats.closure_compute = cs.compute;
            if !overlap_boot {
                core.queue([leg(ServerCpu, cs.compute)]);
            }
            core.queue([leg(Net, net.function_server + net.transfer(cs.bytes))]);
        } else {
            // Warm dispatch: forward the arguments only.
            core.queue([leg(Net, net.function_server + net.transfer(128))]);
        }
        if shadow {
            server.proxy.shadow_begin(func.id);
        }
        let request = [
            ("instance", Arg::UInt(func.id as u64)),
            ("warm", Arg::Bool(warm)),
        ];
        tele::begin(core.track(), core.span, &request);
        OffloadSession {
            core,
            args,
            function_id: func.id,
            shadow,
            net,
            peer_objects: Vec::new(),
            shadow_monitors: Vec::new(),
            snapshot: None,
            stats,
        }
    }

    /// `true` while this is a shadow execution.
    pub fn is_shadow(&self) -> bool {
        self.shadow
    }

    /// The server-issued request id (also this request's telemetry track).
    pub fn request_id(&self) -> u64 {
        self.core.request
    }

    /// `true` once this request has issued database write-journal keys.
    ///
    /// Gates graceful degradation after a crash (§4.5): re-running such a
    /// request on the server under a fresh request id would escape the
    /// exactly-once journal, so the driver must keep retrying instead.
    pub fn committed_writes(&self) -> bool {
        self.core.write_seq > 0
    }

    /// The request's entry method.
    pub fn root(&self) -> MethodId {
        self.core.root
    }

    /// The request's original arguments (for re-dispatch on degradation).
    pub fn args(&self) -> &[Value] {
        &self.args
    }

    /// Abandon the session after its instance died *without* recovering it
    /// (shadow warm-ups, or degradation to server execution): release any
    /// in-flight lock transfer and drop the dead instance's mapping-table
    /// entry so later acquirers don't park on it forever.
    pub fn abandon(&mut self, server: &mut ServerRuntime) {
        self.drop_in_flight(server);
        if self.shadow {
            server.proxy.shadow_end(self.function_id);
        }
        server.remove_mapping(self.function_id);
    }

    /// Forget queued legs and delivered peer objects, releasing a lock
    /// transfer the pending fix holds.
    fn drop_in_flight(&mut self, server: &mut ServerRuntime) {
        self.core.queue.clear();
        self.peer_objects.clear();
        if let Some(OffloadFix::Monitor { canonical, .. }) = self.core.fix.take() {
            server.end_lock_transfer(canonical);
        }
    }

    /// Deliver the object list returned by
    /// [`ServerRuntime::pull_dirty_from`] after a
    /// [`SessionStep::SyncFromPeer`].
    pub fn deliver_peer_objects(&mut self, objects: Vec<Addr>) {
        self.peer_objects = objects;
    }

    /// Advance the session.
    ///
    /// # Panics
    ///
    /// Panics if called after [`SessionStep::Finished`], or if `func` is not
    /// the instance this session was started (or recovered) on.
    pub fn next(&mut self, server: &mut ServerRuntime, func: &mut FunctionRuntime) -> SessionStep {
        assert_eq!(
            func.id, self.function_id,
            "session stepped on wrong instance"
        );
        step(self, server, func)
    }

    /// A fetched class, object or static is installed: close `trip`'s span,
    /// note the closure refinement and resume.
    fn refined(&mut self, trip: &Trip, kind: &'static str) {
        self.core.end(trip, &[]);
        let refine = [("kind", Arg::Str(kind))];
        tele::instant(self.core.track(), EventName::ClosureRefine, &refine);
        self.core.exec.resume();
    }

    /// A sync point shipped `dirty` objects: close `trip`'s span, resume,
    /// and with recovery on, refresh the snapshot and ship it (§4.5).
    fn synced(&mut self, trip: &Trip, dirty: u64, server: &ServerRuntime, func: &FunctionRuntime) {
        self.stats.synchronized_objects += dirty;
        self.core.end(trip, &[("dirty", Arg::UInt(dirty))]);
        self.core.exec.resume();
        if !server.config.recovery_enabled {
            return;
        }
        let core = &mut self.core;
        let snap = self
            .snapshot
            .get_or_insert_with(|| Box::new(Snapshot::empty()));
        core.refresh(snap, server, func);
        self.stats.snapshots += 1;
        // The wire cost of the snapshot: stack + referenced objects
        // ("several KBs", §4.5).
        let bytes = core.exec.stack_bytes() + 64 * func.vm.dirty_len() as u64;
        let snapshot = [("bytes", Arg::UInt(bytes))];
        tele::instant(core.track(), EventName::Snapshot, &snapshot);
        core.queue([fb(Net, self.net.function_server + self.net.transfer(bytes))]);
    }

    /// Recover after the executing instance died (§4.5): resume from the
    /// last synchronization snapshot on `replacement`, or re-dispatch from
    /// scratch when no synchronization had happened yet.
    ///
    /// The driver must have acquired `replacement` from the platform; the
    /// proxy attachments and mapping table follow the session.
    pub fn recover(
        &mut self,
        server: &mut ServerRuntime,
        replacement: &mut FunctionRuntime,
    ) -> SessionStep {
        let recovery = [
            ("from", Arg::UInt(self.function_id as u64)),
            ("to", Arg::UInt(replacement.id as u64)),
            ("snapshot", Arg::Bool(self.snapshot.is_some())),
        ];
        tele::instant(self.core.track(), EventName::Recovery, &recovery);
        self.drop_in_flight(server);
        let old_id = self.function_id;
        let f_s = self.net.function_server;
        let core = &mut self.core;
        match self.snapshot.as_deref_mut() {
            Some(snap) => {
                let bytes = snap.exec.stack_bytes();
                snap.restore_into(replacement);
                core.exec.clone_from(&snap.exec);
                core.write_seq = snap.write_seq;
                // Roll the mapping table back to the sync point alongside
                // the heap.
                server.remove_mapping(old_id);
                server.install_mapping(replacement.id, snap.mapping.clone());
                server.retarget_monitors(old_id, replacement.id);
                // Re-attach proxied connections under the new identity.
                for (&offload, _) in replacement.attached.clone().iter() {
                    if let Ok(c) = server
                        .proxy
                        .attach_function(beehive_proxy::OffloadId(offload), replacement.id)
                    {
                        replacement.attached.insert(offload, c);
                    }
                }
                // The replacement's heap is a new one, so this refresh
                // copies it whole.
                core.refresh(snap, server, replacement);
                let legs = [fb(Net, f_s + self.net.transfer(bytes))];
                core.round_trip(&mut self.stats, &RECOVERY, &[], legs);
            }
            None => {
                // Nothing was visible yet: re-dispatch the whole request.
                let cs = server.instantiate_closure(replacement, core.root);
                core.exec = Execution::call(core.root, self.args.clone(), &server.program);
                core.write_seq = 0;
                let legs = [
                    fb(ServerCpu, cs.compute),
                    fb(Net, f_s + self.net.transfer(cs.bytes)),
                ];
                core.round_trip(&mut self.stats, &RECOVERY, &[], legs);
            }
        }
        self.function_id = replacement.id;
        core.pop(&mut self.stats)
            .expect("recovery queues at least one need")
    }
}

impl Endpoint for OffloadSession {
    type Fix = OffloadFix;
    type Instance = FunctionRuntime;

    fn parts(&mut self) -> (&mut Core<OffloadFix>, &mut SessionStats) {
        (&mut self.core, &mut self.stats)
    }

    fn segment(
        &mut self,
        server: &mut ServerRuntime,
        func: &mut FunctionRuntime,
    ) -> Option<OffloadFix> {
        let outcome = self.core.run(&mut func.vm, &server.program, FunctionCpu);
        let (core, stats) = (&mut self.core, &mut self.stats);
        let f_s = self.net.function_server;
        let handle = server.config.fallback_handle_cost;
        Some(match outcome {
            Outcome::Done(v) => {
                let dirty_estimate = 256 + 64 * func.vm.dirty_len() as u64;
                core.queue([leg(Net, f_s + self.net.transfer(dirty_estimate))]);
                // `done` is only set once the Complete fix has applied
                // (shipping the dirty set / ending shadow mode).
                OffloadFix::Complete(v)
            }
            Outcome::Blocked(Block::MissingClass { class }) => {
                let bytes = self.net.transfer(server.program.class_bytes(class) as u64);
                let class_arg = [("class", Arg::UInt(class.0 as u64))];
                core.round_trip(stats, &CODE, &class_arg, fetch_legs(f_s, handle, bytes));
                OffloadFix::FetchClass(class)
            }
            Outcome::Blocked(Block::RemoteRef { addr, prov }) => {
                let legs = fetch_legs(f_s, handle, self.net.transfer(256));
                core.round_trip(stats, &DATA, &[], legs);
                OffloadFix::FetchObject {
                    canonical: addr.to_local(),
                    prov,
                }
            }
            Outcome::Blocked(Block::RemoteStatic { slot }) => {
                let legs = fetch_legs(f_s, handle, Duration::ZERO);
                core.round_trip(stats, &STATIC, &[], legs);
                OffloadFix::FetchStatic(slot)
            }
            Outcome::Blocked(Block::MonitorAcquire { obj }) => {
                let Some(canonical) = server.mapping(func.id).and_then(|m| m.server_of(obj)) else {
                    // Function-private object: grant locally, no sync.
                    func.vm.grant_monitor(obj);
                    core.exec.resume();
                    return None;
                };
                OffloadFix::MonitorBegin { obj, canonical }
            }
            Outcome::Blocked(Block::VolatileSync { slot, is_write }) => {
                let sync = server.config.sync_base_cost;
                let legs = [fb(Net, f_s), fb(ServerCpu, sync), fb(Net, f_s)];
                core.round_trip(stats, &VOLATILE, &[], legs);
                OffloadFix::Volatile { slot, is_write }
            }
            Outcome::Blocked(Block::Db {
                query,
                arg,
                proxy_conn_id,
                conn,
            }) => {
                let proxied = proxy_conn_id.filter(|_| server.config.proxy_enabled);
                let conn = match proxied {
                    Some(id) => func
                        .connection(id)
                        .expect("packaged socket was attached at closure time"),
                    // Connection not packaged (or proxy disabled): fall back
                    // through the server.
                    None => server_socket(server, func.id, conn),
                };
                let svc = server.proxy.db().query_def(query).service_time();
                let db = DbRound { conn, query, arg };
                if proxied.is_some() {
                    let f_db = self.net.function_db;
                    let legs = [leg(Net, f_db), leg(Db, svc), leg(Net, f_db)];
                    core.round_trip(stats, &DB_PROXY, &[], legs);
                    return Some(OffloadFix::Db(db, &DB_PROXY));
                }
                let s_db = self.net.server_db;
                let query_arg = [("query", Arg::UInt(query as u64))];
                let legs = [
                    fb(Net, f_s),
                    fb(ServerCpu, handle),
                    fb(Net, s_db),
                    leg(Db, svc),
                    fb(Net, s_db),
                    fb(Net, f_s),
                ];
                core.round_trip(stats, &DB_FALLBACK, &query_arg, legs);
                OffloadFix::Db(db, &DB_FALLBACK)
            }
            Outcome::Blocked(Block::NativeFallback { native, args }) => {
                let cost = server.program.native(native).cost;
                let native_arg = [("native", Arg::UInt(native.0 as u64))];
                let legs = [fb(Net, f_s), fb(ServerCpu, handle + cost), fb(Net, f_s)];
                core.round_trip(stats, &NATIVE, &native_arg, legs);
                OffloadFix::Native { native, args }
            }
            Outcome::Blocked(Block::GcNeeded { .. }) => {
                let pause = func.vm.collect(&mut [&mut core.exec], &mut []).pause;
                core.round_trip(stats, &GC, &[], [leg(FunctionCpu, pause)]);
                core.exec.resume();
                return None;
            }
        })
    }

    fn apply(
        &mut self,
        server: &mut ServerRuntime,
        func: &mut FunctionRuntime,
        fix: OffloadFix,
    ) -> Option<SessionStep> {
        match fix {
            OffloadFix::MonitorBegin { obj, canonical } => {
                if !server.begin_lock_transfer(canonical) {
                    // Hand-off in flight: park until the driver wakes us.
                    let retry = OffloadFix::MonitorBegin { obj, canonical };
                    return self.core.park(retry, canonical);
                }
                let prev = server.monitor_owner(canonical);
                let prev_arg = match prev {
                    EndpointId::Server => -1i64,
                    EndpointId::Function(f) => f as i64,
                };
                let f_s = self.net.function_server;
                let mut legs = vec![fb(Net, f_s)];
                if let EndpointId::Function(p) = prev {
                    // Another function's lock comes with its dirty set.
                    if p != func.id {
                        legs.extend([Pending::Peer(p, Some(canonical)), fb(Net, f_s)]);
                    }
                }
                legs.extend([fb(ServerCpu, server.config.sync_base_cost), fb(Net, f_s)]);
                let prev_owner = [("prev_owner", Arg::Int(prev_arg))];
                self.core
                    .round_trip(&mut self.stats, &MONITOR, &prev_owner, legs);
                self.core.fix = Some(OffloadFix::Monitor {
                    obj,
                    canonical,
                    prev,
                });
            }
            OffloadFix::FetchClass(class) => {
                server.fetch_class_for(func, class);
                server.plan_mut(self.core.root).note_class(class);
                self.refined(&CODE, "class");
            }
            OffloadFix::FetchObject { canonical, prov } => {
                server.fetch_object_for(func, canonical);
                server.plan_mut(self.core.root).note_object(canonical);
                let mapping = server.mapping(func.id);
                let local = mapping.and_then(|m| m.local_of(canonical));
                let local = Value::Ref(local.expect("object was just fetched"));
                match prov {
                    Provenance::Field { obj, slot } | Provenance::ArrayElem { obj, idx: slot } => {
                        func.vm.heap.set(obj, slot, local)
                    }
                    Provenance::Local { frame, slot } => {
                        *self.core.exec.local_mut(frame, slot) = local
                    }
                    Provenance::Static { slot } => func.vm.install_static(slot, local),
                }
                self.refined(&DATA, "object");
            }
            OffloadFix::FetchStatic(slot) => {
                server.fetch_static_for(func, slot);
                server.plan_mut(self.core.root).note_static(slot);
                self.refined(&STATIC, "static");
            }
            OffloadFix::Monitor {
                obj,
                canonical,
                prev,
            } => {
                // Bring the acquirer up to date: the lock object itself plus
                // whatever the previous owner published.
                let mut extra = vec![canonical];
                if matches!(prev, EndpointId::Function(_)) {
                    extra.extend(std::mem::take(&mut self.peer_objects));
                }
                let n = server.push_recent_writes_to(func, &extra);
                server.set_monitor_owner(canonical, EndpointId::Function(func.id));
                server.end_lock_transfer(canonical);
                func.vm.grant_monitor(obj);
                if self.shadow {
                    self.shadow_monitors.push((obj, canonical));
                }
                self.synced(&MONITOR, n, server, func);
            }
            OffloadFix::Volatile { slot, is_write } => {
                let (objs, _) = server.pull_dirty_from(func);
                // A write releases: the writes before it went with the dirty
                // set, and the value, still on the stack, follows them. A
                // shadow's write stays on the function (§3.4).
                if is_write && !self.shadow {
                    let v = self.core.exec.top_operand();
                    let v = v.expect("a volatile write's value is on the stack");
                    server.publish_static_from(func, slot, v);
                }
                server.fetch_static_for(func, slot);
                self.core.exec.grant_sync_permit();
                self.synced(&VOLATILE, objs.len() as u64, server, func);
            }
            OffloadFix::Db(db, via) => {
                let origin = Origin::Function(func.id);
                self.core.db_round(server, origin, db, !self.shadow);
                self.core.end(via, &[]);
            }
            OffloadFix::Native { native, args } => {
                let v = server.execute_native_fallback(func.id, native, &args);
                self.core.end(&NATIVE, &[]);
                self.core.exec.resume_with(v);
            }
            OffloadFix::Complete(v) => {
                if self.shadow {
                    server.proxy.shadow_end(func.id);
                    // "When the shadow execution finishes, the warm-up phase
                    // is passed" (§3.4): the instance's JIT state is hot for
                    // the real requests that follow.
                    let program = std::sync::Arc::clone(&server.program);
                    func.vm.prewarm_all_methods(&program);
                    // Shadow executions leave no memory side effects (§3.4):
                    // the dirty list is dropped rather than shipped, the
                    // shadow's local mutations of *shared* objects are rolled
                    // back from the server's values, and any monitors it
                    // acquired return to the server.
                    let dirty = func.vm.take_dirty();
                    let mapping = server.mapping(func.id);
                    let canon: Vec<Addr> = dirty
                        .iter()
                        .filter_map(|&l| mapping.and_then(|m| m.server_of(l)))
                        .collect();
                    server.push_recent_writes_to(func, &canon);
                    for (obj, canonical) in std::mem::take(&mut self.shadow_monitors) {
                        func.vm.revoke_monitor(obj);
                        // Return the lock to the server only if this shadow
                        // still holds it — it may have been handed onward to
                        // a real request already, and clobbering that record
                        // would leave the current owner's cached ownership
                        // dangling.
                        if server.monitor_owner(canonical) == EndpointId::Function(func.id) {
                            server.set_monitor_owner(canonical, EndpointId::Server);
                        }
                    }
                } else {
                    let (_, report) = server.pull_dirty_from(func);
                    self.stats.completion_dirty = report.updated;
                }
                self.core.done = Some(v);
            }
        }
        None
    }
}

/// The proxy connection behind function `func`'s copy `conn` of a socket
/// that was not packaged: the server's own socket's native state.
fn server_socket(server: &ServerRuntime, func: u32, conn: Addr) -> ConnId {
    let mapping = server.mapping(func);
    let obj = mapping
        .and_then(|m| m.server_of(conn))
        .expect("connection object is shared");
    let heap = &server.vm.heap;
    let socket = server.program.class(heap.class_of(obj)).packageable;
    let slot = socket.expect("socket class").handle_slot as u32;
    let handle = heap.get(obj, slot).as_i64().expect("handle");
    match server.vm.native_state(handle as u64) {
        Some(NativeState::Socket { proxy_conn_id }) => ConnId(*proxy_conn_id),
        other => panic!("server socket state missing: {other:?}"),
    }
}
