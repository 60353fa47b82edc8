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
use beehive_telemetry as tele;
use beehive_vm::interp::{Block, Execution, Outcome, Provenance};
use beehive_vm::natives::NativeState;
use beehive_vm::{Addr, ClassId, EndpointId, MethodId, NativeId, StaticSlot, Value};

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
    fn new(resource: Resource, amount: Duration) -> Self {
        Need {
            resource,
            amount,
            fallback: false,
            fetch: false,
        }
    }

    fn fb(mut self) -> Self {
        self.fallback = true;
        self
    }

    fn fetching(mut self) -> Self {
        self.fetch = true;
        self.fallback = true;
        self
    }

    /// The residence-span name of this need: one static string per
    /// (resource, fallback-flag) pair, so tracing the wait allocates nothing
    /// on the hot path.
    pub fn span_name(&self) -> tele::EventName {
        use tele::EventName as N;
        match (self.resource, self.fallback) {
            (Resource::ServerCpu, false) => N::WaitServerCpu,
            (Resource::ServerCpu, true) => N::WaitServerCpuFb,
            (Resource::FunctionCpu, false) => N::WaitFunctionCpu,
            (Resource::FunctionCpu, true) => N::WaitFunctionCpuFb,
            (Resource::Net, false) => N::WaitNet,
            (Resource::Net, true) => N::WaitNetFb,
            (Resource::Db, false) => N::WaitDb,
            (Resource::Db, true) => N::WaitDbFb,
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

#[derive(Clone, Debug)]
enum Pending {
    Need(Need),
    Peer(u32, Option<Addr>),
    Gc,
}

/// The telemetry track of a request (sessions emit on their server-issued
/// request id; the driver uses [`ServerSession::request_id`] /
/// [`OffloadSession::request_id`] to land resource spans on the same track).
fn treq(request: u64) -> tele::Track {
    tele::Track::Request(request)
}

// ---------------------------------------------------------------------------
// Server-side session
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum ServerFix {
    MonitorBegin {
        obj: Addr,
    },
    Db {
        conn: ConnId,
        query: u16,
        arg: i64,
        write: bool,
    },
    Monitor {
        obj: Addr,
    },
    AfterGc,
}

/// A request executing on the server (the non-offloaded path; also the
/// vanilla baseline).
#[derive(Debug)]
pub struct ServerSession {
    exec: Execution,
    root: MethodId,
    request: u64,
    write_seq: u32,
    queue: VecDeque<Pending>,
    fix: Option<ServerFix>,
    done: Option<Value>,
    finished: bool,
    /// Profile-tree position of the bytecode site that last blocked this
    /// request; synthetic cost frames (`[db]`, `[gc]`, `[sync:monitor]`)
    /// attach here. Captured right after each run segment because other
    /// requests interleave on the thread before the fix applies.
    prof_mark: Option<prof::ProfMark>,
    /// Per-request statistics.
    pub stats: SessionStats,
}

impl ServerSession {
    /// Begin a server-side request.
    pub fn start(server: &mut ServerRuntime, root: MethodId, args: Vec<Value>) -> Self {
        let request = server.next_request_id();
        server.stats.requests_local += 1;
        tele::begin(treq(request), tele::EventName::ReqServer, &[]);
        ServerSession {
            exec: Execution::call(root, args, &server.program),
            root,
            request,
            write_seq: 0,
            queue: VecDeque::new(),
            fix: None,
            done: None,
            finished: false,
            prof_mark: None,
            stats: SessionStats::default(),
        }
    }

    /// The wrapped execution (server GC roots).
    pub fn execution_mut(&mut self) -> &mut Execution {
        &mut self.exec
    }

    /// The server-issued request id (also this request's telemetry track).
    pub fn request_id(&self) -> u64 {
        self.request
    }

    /// Total interpreter CPU time the request consumed (excludes GC pauses
    /// and network/database waiting).
    pub fn total_cpu(&self) -> Duration {
        self.exec.total_cpu()
    }

    /// Deliver the GC pause after a [`SessionStep::ServerGc`].
    pub fn gc_done(&mut self, pause: Duration) {
        self.prof_synth("[gc]", pause);
        self.queue
            .push_front(Pending::Need(Need::new(Resource::ServerCpu, pause)));
    }

    /// Attach a synthetic cost frame at the site that last blocked us.
    fn prof_synth(&mut self, name: &'static str, d: Duration) {
        if let Some(m) = self.prof_mark {
            prof::synthetic(m, name, d);
        }
    }

    /// Advance the session.
    ///
    /// # Panics
    ///
    /// Panics if called after [`SessionStep::Finished`] was returned, or on
    /// blocks that cannot occur on the server (missing code/data).
    pub fn next(&mut self, server: &mut ServerRuntime) -> SessionStep {
        assert!(!self.finished, "session already finished");
        loop {
            if let Some(p) = self.queue.pop_front() {
                match p {
                    Pending::Need(n) => {
                        self.account(n);
                        return SessionStep::Need(n);
                    }
                    Pending::Peer(peer, monitor) => {
                        return SessionStep::SyncFromPeer { peer, monitor }
                    }
                    Pending::Gc => return SessionStep::ServerGc,
                }
            }
            if let Some(fix) = self.fix.take() {
                if let Some(step) = self.apply_fix(server, fix) {
                    return step;
                }
                continue;
            }
            if let Some(v) = self.done {
                self.finished = true;
                server.stats.sessions.absorb(&self.stats);
                server.record_profile(self.root, self.exec.total_cpu());
                tele::end(treq(self.request), tele::EventName::ReqServer, &[]);
                return SessionStep::Finished(v);
            }

            let r = self.exec.run(&mut server.vm, &server.program);
            self.prof_mark = prof::mark();
            if !r.cpu.is_zero() {
                self.queue
                    .push_back(Pending::Need(Need::new(Resource::ServerCpu, r.cpu)));
            }
            match r.outcome {
                Outcome::Done(v) => {
                    self.done = Some(v);
                }
                Outcome::Blocked(Block::Db {
                    query,
                    arg,
                    proxy_conn_id,
                    ..
                }) => {
                    self.stats.db_rounds += 1;
                    let conn = ConnId(
                        proxy_conn_id.expect("server connections always carry native state"),
                    );
                    let def = server.proxy.db().query_def(query);
                    let svc = def.service_time();
                    let write = def.kind.is_write();
                    let net = server.config.net.server_db;
                    self.prof_synth("[db]", net + svc + net);
                    self.queue
                        .push_back(Pending::Need(Need::new(Resource::Net, net)));
                    self.queue
                        .push_back(Pending::Need(Need::new(Resource::Db, svc)));
                    self.queue
                        .push_back(Pending::Need(Need::new(Resource::Net, net)));
                    self.fix = Some(ServerFix::Db {
                        conn,
                        query,
                        arg,
                        write,
                    });
                }
                Outcome::Blocked(Block::GcNeeded { .. }) => {
                    self.queue.push_back(Pending::Gc);
                    self.fix = Some(ServerFix::AfterGc);
                }
                Outcome::Blocked(Block::MonitorAcquire { obj }) => {
                    self.fix = Some(ServerFix::MonitorBegin { obj });
                }
                Outcome::Blocked(other) => {
                    unreachable!("impossible server-side block: {other:?}")
                }
            }
        }
    }

    fn apply_fix(&mut self, server: &mut ServerRuntime, fix: ServerFix) -> Option<SessionStep> {
        match fix {
            ServerFix::MonitorBegin { obj } => {
                // The server blocks only when a function holds the lock.
                let owner = server.monitor_owner(obj);
                let peer = match owner {
                    EndpointId::Function(f) => f,
                    EndpointId::Server => {
                        // Ownership returned while we waited: proceed.
                        server.set_monitor_owner(obj, EndpointId::Server);
                        self.exec.resume();
                        return None;
                    }
                };
                if !server.begin_lock_transfer(obj) {
                    self.fix = Some(ServerFix::MonitorBegin { obj });
                    tele::instant(treq(self.request), tele::EventName::SyncLockWait, &[]);
                    return Some(SessionStep::AwaitLock { canonical: obj });
                }
                self.stats.fallbacks_sync += 1;
                if tele::enabled() {
                    tele::begin(
                        treq(self.request),
                        tele::EventName::SyncMonitor,
                        &[("prev_owner", tele::Arg::UInt(peer as u64))],
                    );
                }
                let net = server.config.net.function_server;
                self.prof_synth("[sync:monitor]", net + server.config.sync_base_cost + net);
                self.queue
                    .push_back(Pending::Need(Need::new(Resource::Net, net).fb()));
                self.queue.push_back(Pending::Peer(peer, Some(obj)));
                self.queue.push_back(Pending::Need(
                    Need::new(Resource::ServerCpu, server.config.sync_base_cost).fb(),
                ));
                self.queue
                    .push_back(Pending::Need(Need::new(Resource::Net, net).fb()));
                self.fix = Some(ServerFix::Monitor { obj });
            }
            ServerFix::Db {
                conn,
                query,
                arg,
                write,
            } => {
                let key = if write {
                    let k = WriteKey {
                        request: self.request,
                        seq: self.write_seq,
                    };
                    self.write_seq += 1;
                    Some(k)
                } else {
                    None
                };
                let out = server
                    .proxy
                    .execute(conn, Origin::Server, query, arg, key)
                    .expect("server connection is registered");
                self.exec.resume_with(Value::I64(out.result));
            }
            ServerFix::Monitor { obj } => {
                server.set_monitor_owner(obj, EndpointId::Server);
                server.end_lock_transfer(obj);
                tele::end(treq(self.request), tele::EventName::SyncMonitor, &[]);
                self.exec.resume();
            }
            ServerFix::AfterGc => {
                self.exec.resume();
            }
        }
        None
    }

    fn account(&mut self, n: Need) {
        if n.fallback {
            self.stats.fallback_overhead += n.amount;
        }
        if n.fetch {
            self.stats.fetch_overhead += n.amount;
        }
    }
}

// ---------------------------------------------------------------------------
// Offloaded session
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum DbRoute {
    Proxy(ConnId),
    ServerFallback(ConnId),
}

#[derive(Debug)]
enum OffloadFix {
    Resume,
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
    Volatile(StaticSlot),
    Db {
        query: u16,
        arg: i64,
        write: bool,
        route: DbRoute,
    },
    Native {
        native: NativeId,
        args: Vec<Value>,
    },
    Complete,
}

/// A request offloaded to a FaaS function (§3.1), including shadow mode
/// (§3.4).
#[derive(Debug)]
pub struct OffloadSession {
    exec: Execution,
    root: MethodId,
    args: Vec<Value>,
    /// The function instance currently executing this session.
    pub function_id: u32,
    request: u64,
    write_seq: u32,
    shadow: bool,
    net: NetProfile,
    queue: VecDeque<Pending>,
    fix: Option<OffloadFix>,
    done: Option<Value>,
    pending_result: Option<Value>,
    finished: bool,
    peer_objects: Vec<Addr>,
    /// Monitors acquired while shadowing, released (and returned to the
    /// server) at completion so the shadow leaves no ownership traces.
    shadow_monitors: Vec<(Addr, Addr)>,
    /// Profile-tree position of the bytecode site that last blocked this
    /// request (see [`ServerSession`]'s field of the same name).
    prof_mark: Option<prof::ProfMark>,
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
        server.stats.requests_offloaded += 1;
        // Tag the instance's lane (`faas:primary` vs `faas:shadow`) for the
        // call-tree profiler before any interpreter segment runs.
        func.vm.set_shadow(shadow);
        let warm = func.instantiated_for == Some(root);
        let mut queue = VecDeque::new();
        let mut stats = SessionStats::default();
        if !dispatch_cost.is_zero() {
            queue.push_back(Pending::Need(Need::new(Resource::ServerCpu, dispatch_cost)));
        }
        if !net.dispatch_latency.is_zero() {
            // The platform's per-invocation path (controller/invoker on
            // OpenWhisk, the invoke API on Lambda).
            queue.push_back(Pending::Need(Need::new(
                Resource::Net,
                net.dispatch_latency,
            )));
        }
        if func.instantiated_for != Some(root) {
            let cs = server.instantiate_closure(func, root);
            stats.closure_bytes = cs.bytes;
            stats.closure_objects = cs.objects;
            stats.closure_classes = cs.classes;
            stats.closure_compute = cs.compute;
            if !overlap_boot {
                queue.push_back(Pending::Need(Need::new(Resource::ServerCpu, cs.compute)));
            }
            queue.push_back(Pending::Need(Need::new(
                Resource::Net,
                net.function_server + net.transfer(cs.bytes),
            )));
        } else {
            // Warm dispatch: forward the arguments only.
            queue.push_back(Pending::Need(Need::new(
                Resource::Net,
                net.function_server + net.transfer(128),
            )));
        }
        if shadow {
            server.proxy.shadow_begin(func.id);
            server.stats.shadows += 1;
        }
        if tele::enabled() {
            tele::begin(
                treq(request),
                if shadow {
                    tele::EventName::ReqShadow
                } else {
                    tele::EventName::ReqOffload
                },
                &[
                    ("instance", tele::Arg::UInt(func.id as u64)),
                    ("warm", tele::Arg::Bool(warm)),
                ],
            );
        }
        OffloadSession {
            exec: Execution::call(root, args.clone(), &server.program),
            root,
            args,
            function_id: func.id,
            request,
            write_seq: 0,
            shadow,
            net,
            queue,
            fix: None,
            done: None,
            pending_result: None,
            finished: false,
            peer_objects: Vec::new(),
            shadow_monitors: Vec::new(),
            prof_mark: None,
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
        self.request
    }

    /// `true` once this request has issued database write-journal keys.
    ///
    /// Gates graceful degradation after a crash (§4.5): re-running such a
    /// request on the server under a fresh request id would escape the
    /// exactly-once journal, so the driver must keep retrying instead.
    pub fn committed_writes(&self) -> bool {
        self.write_seq > 0
    }

    /// The request's entry method.
    pub fn root(&self) -> MethodId {
        self.root
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
        self.queue.clear();
        self.peer_objects.clear();
        if let Some(OffloadFix::Monitor { canonical, .. }) = self.fix.take() {
            server.end_lock_transfer(canonical);
        }
        if self.shadow {
            server.proxy.shadow_end(self.function_id);
        }
        server.remove_mapping(self.function_id);
    }

    fn span_name(&self) -> tele::EventName {
        if self.shadow {
            tele::EventName::ReqShadow
        } else {
            tele::EventName::ReqOffload
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
        assert!(!self.finished, "session already finished");
        assert_eq!(
            func.id, self.function_id,
            "session stepped on wrong instance"
        );
        loop {
            if let Some(p) = self.queue.pop_front() {
                match p {
                    Pending::Need(n) => {
                        self.account(n);
                        return SessionStep::Need(n);
                    }
                    Pending::Peer(peer, monitor) => {
                        return SessionStep::SyncFromPeer { peer, monitor }
                    }
                    Pending::Gc => unreachable!("function GC is handled inline"),
                }
            }
            if let Some(fix) = self.fix.take() {
                if let Some(step) = self.apply_fix(server, func, fix) {
                    return step;
                }
                continue;
            }
            if let Some(v) = self.done {
                self.finished = true;
                server.stats.sessions.absorb(&self.stats);
                tele::end(treq(self.request), self.span_name(), &[]);
                return SessionStep::Finished(v);
            }

            let r = self.exec.run(&mut func.vm, &server.program);
            self.prof_mark = prof::mark();
            if !r.cpu.is_zero() {
                self.queue
                    .push_back(Pending::Need(Need::new(Resource::FunctionCpu, r.cpu)));
            }
            let f_s = self.net.function_server;
            match r.outcome {
                Outcome::Done(v) => {
                    let dirty_estimate = 256 + 64 * func.vm.dirty_len() as u64;
                    self.queue.push_back(Pending::Need(Need::new(
                        Resource::Net,
                        f_s + self.net.transfer(dirty_estimate),
                    )));
                    // `done` is only set once the Complete fix has applied
                    // (shipping the dirty set / ending shadow mode).
                    self.pending_result = Some(v);
                    self.fix = Some(OffloadFix::Complete);
                }
                Outcome::Blocked(Block::MissingClass { class }) => {
                    self.stats.fallbacks_code += 1;
                    if tele::enabled() {
                        tele::begin(
                            treq(self.request),
                            tele::EventName::FallbackCode,
                            &[("class", tele::Arg::UInt(class.0 as u64))],
                        );
                    }
                    let bytes = server.program.class_bytes(class) as u64;
                    self.fallback_round_trip(server, self.net.transfer(bytes), "[fallback:code]");
                    self.fix = Some(OffloadFix::FetchClass(class));
                }
                Outcome::Blocked(Block::RemoteRef { addr, prov }) => {
                    self.stats.fallbacks_data += 1;
                    tele::begin(treq(self.request), tele::EventName::FallbackData, &[]);
                    self.fallback_round_trip(server, self.net.transfer(256), "[fallback:data]");
                    self.fix = Some(OffloadFix::FetchObject {
                        canonical: addr.to_local(),
                        prov,
                    });
                }
                Outcome::Blocked(Block::RemoteStatic { slot }) => {
                    self.stats.fallbacks_data += 1;
                    tele::begin(treq(self.request), tele::EventName::FallbackStatic, &[]);
                    self.fallback_round_trip(server, Duration::ZERO, "[fallback:static]");
                    self.fix = Some(OffloadFix::FetchStatic(slot));
                }
                Outcome::Blocked(Block::MonitorAcquire { obj }) => {
                    let canonical = server.mapping(func.id).and_then(|m| m.server_of(obj));
                    let Some(canonical) = canonical else {
                        // Function-private object: grant locally, no sync.
                        func.vm.grant_monitor(obj);
                        self.exec.resume();
                        continue;
                    };
                    self.fix = Some(OffloadFix::MonitorBegin { obj, canonical });
                }
                Outcome::Blocked(Block::VolatileSync { slot, .. }) => {
                    self.stats.fallbacks_sync += 1;
                    tele::begin(treq(self.request), tele::EventName::SyncVolatile, &[]);
                    self.prof_synth("[sync:volatile]", f_s + server.config.sync_base_cost + f_s);
                    self.queue
                        .push_back(Pending::Need(Need::new(Resource::Net, f_s).fb()));
                    self.queue.push_back(Pending::Need(
                        Need::new(Resource::ServerCpu, server.config.sync_base_cost).fb(),
                    ));
                    self.queue
                        .push_back(Pending::Need(Need::new(Resource::Net, f_s).fb()));
                    self.fix = Some(OffloadFix::Volatile(slot));
                }
                Outcome::Blocked(Block::Db {
                    query,
                    arg,
                    proxy_conn_id,
                    conn,
                }) => {
                    self.stats.db_rounds += 1;
                    let def = server.proxy.db().query_def(query);
                    let svc = def.service_time();
                    let write = def.kind.is_write();
                    let direct = server.config.proxy_enabled;
                    match proxy_conn_id.filter(|_| direct) {
                        Some(offload_id) => {
                            let conn_id = func
                                .connection(offload_id)
                                .expect("packaged socket was attached at closure time");
                            let f_db = self.net.function_db;
                            self.prof_synth("[db:proxy]", f_db + svc + f_db);
                            self.queue
                                .push_back(Pending::Need(Need::new(Resource::Net, f_db)));
                            self.queue
                                .push_back(Pending::Need(Need::new(Resource::Db, svc)));
                            self.queue
                                .push_back(Pending::Need(Need::new(Resource::Net, f_db)));
                            self.fix = Some(OffloadFix::Db {
                                query,
                                arg,
                                write,
                                route: DbRoute::Proxy(conn_id),
                            });
                        }
                        None => {
                            // Connection not packaged (or proxy disabled):
                            // fall back through the server.
                            self.stats.fallbacks_db += 1;
                            if tele::enabled() {
                                tele::begin(
                                    treq(self.request),
                                    tele::EventName::FallbackDb,
                                    &[("query", tele::Arg::UInt(query as u64))],
                                );
                            }
                            let server_conn = server
                                .mapping(func.id)
                                .and_then(|m| m.server_of(conn))
                                .expect("connection object is shared");
                            let handle = server
                                .vm
                                .heap
                                .get(
                                    server_conn,
                                    server
                                        .program
                                        .class(server.vm.heap.class_of(server_conn))
                                        .packageable
                                        .expect("socket class")
                                        .handle_slot as u32,
                                )
                                .as_i64()
                                .expect("handle");
                            let conn_id = match server.vm.native_state(handle as u64) {
                                Some(NativeState::Socket { proxy_conn_id }) => {
                                    ConnId(*proxy_conn_id)
                                }
                                other => panic!("server socket state missing: {other:?}"),
                            };
                            let s_db = self.net.server_db;
                            self.prof_synth(
                                "[db:fallback]",
                                f_s + server.config.fallback_handle_cost + s_db + svc + s_db + f_s,
                            );
                            self.queue
                                .push_back(Pending::Need(Need::new(Resource::Net, f_s).fb()));
                            self.queue.push_back(Pending::Need(
                                Need::new(Resource::ServerCpu, server.config.fallback_handle_cost)
                                    .fb(),
                            ));
                            self.queue
                                .push_back(Pending::Need(Need::new(Resource::Net, s_db).fb()));
                            self.queue
                                .push_back(Pending::Need(Need::new(Resource::Db, svc)));
                            self.queue
                                .push_back(Pending::Need(Need::new(Resource::Net, s_db).fb()));
                            self.queue
                                .push_back(Pending::Need(Need::new(Resource::Net, f_s).fb()));
                            self.fix = Some(OffloadFix::Db {
                                query,
                                arg,
                                write,
                                route: DbRoute::ServerFallback(conn_id),
                            });
                        }
                    }
                }
                Outcome::Blocked(Block::NativeFallback { native, args }) => {
                    self.stats.fallbacks_native += 1;
                    if tele::enabled() {
                        tele::begin(
                            treq(self.request),
                            tele::EventName::FallbackNative,
                            &[("native", tele::Arg::UInt(native.0 as u64))],
                        );
                    }
                    let cost = server.program.native(native).cost;
                    self.prof_synth(
                        "[fallback:native]",
                        f_s + server.config.fallback_handle_cost + cost + f_s,
                    );
                    self.queue
                        .push_back(Pending::Need(Need::new(Resource::Net, f_s).fb()));
                    self.queue.push_back(Pending::Need(
                        Need::new(
                            Resource::ServerCpu,
                            server.config.fallback_handle_cost + cost,
                        )
                        .fb(),
                    ));
                    self.queue
                        .push_back(Pending::Need(Need::new(Resource::Net, f_s).fb()));
                    self.fix = Some(OffloadFix::Native { native, args });
                }
                Outcome::Blocked(Block::GcNeeded { .. }) => {
                    let pause = func.vm.collect(&mut [&mut self.exec], &mut []).pause;
                    self.prof_synth("[gc]", pause);
                    self.queue
                        .push_back(Pending::Need(Need::new(Resource::FunctionCpu, pause)));
                    self.fix = Some(OffloadFix::Resume);
                }
            }
        }
    }

    fn fallback_round_trip(
        &mut self,
        server: &ServerRuntime,
        extra_transfer: Duration,
        synth: &'static str,
    ) {
        let f_s = self.net.function_server;
        self.prof_synth(
            synth,
            f_s + server.config.fallback_handle_cost + f_s + extra_transfer,
        );
        self.queue
            .push_back(Pending::Need(Need::new(Resource::Net, f_s).fetching()));
        self.queue.push_back(Pending::Need(
            Need::new(Resource::ServerCpu, server.config.fallback_handle_cost).fetching(),
        ));
        self.queue.push_back(Pending::Need(
            Need::new(Resource::Net, f_s + extra_transfer).fetching(),
        ));
    }

    /// Attach a synthetic cost frame at the site that last blocked us.
    fn prof_synth(&mut self, name: &'static str, d: Duration) {
        if let Some(m) = self.prof_mark {
            prof::synthetic(m, name, d);
        }
    }

    fn apply_fix(
        &mut self,
        server: &mut ServerRuntime,
        func: &mut FunctionRuntime,
        fix: OffloadFix,
    ) -> Option<SessionStep> {
        match fix {
            OffloadFix::Resume => self.exec.resume(),
            OffloadFix::MonitorBegin { obj, canonical } => {
                if !server.begin_lock_transfer(canonical) {
                    // Hand-off in flight: park until the driver wakes us.
                    self.fix = Some(OffloadFix::MonitorBegin { obj, canonical });
                    tele::instant(treq(self.request), tele::EventName::SyncLockWait, &[]);
                    return Some(SessionStep::AwaitLock { canonical });
                }
                let prev = server.monitor_owner(canonical);
                self.stats.fallbacks_sync += 1;
                if tele::enabled() {
                    let prev_arg = match prev {
                        EndpointId::Server => -1i64,
                        EndpointId::Function(f) => f as i64,
                    };
                    tele::begin(
                        treq(self.request),
                        tele::EventName::SyncMonitor,
                        &[("prev_owner", tele::Arg::Int(prev_arg))],
                    );
                }
                let f_s = self.net.function_server;
                let mut sync_cost = f_s + server.config.sync_base_cost + f_s;
                self.queue
                    .push_back(Pending::Need(Need::new(Resource::Net, f_s).fb()));
                if let EndpointId::Function(p) = prev {
                    if p != func.id {
                        sync_cost += f_s;
                        self.queue.push_back(Pending::Peer(p, Some(canonical)));
                        self.queue
                            .push_back(Pending::Need(Need::new(Resource::Net, f_s).fb()));
                    }
                }
                self.prof_synth("[sync:monitor]", sync_cost);
                self.queue.push_back(Pending::Need(
                    Need::new(Resource::ServerCpu, server.config.sync_base_cost).fb(),
                ));
                self.queue
                    .push_back(Pending::Need(Need::new(Resource::Net, f_s).fb()));
                self.fix = Some(OffloadFix::Monitor {
                    obj,
                    canonical,
                    prev,
                });
            }
            OffloadFix::FetchClass(class) => {
                server.fetch_class_for(func, class);
                server.plan_mut(self.root).note_class(class);
                if tele::enabled() {
                    tele::end(treq(self.request), tele::EventName::FallbackCode, &[]);
                    tele::instant(
                        treq(self.request),
                        tele::EventName::ClosureRefine,
                        &[("kind", tele::Arg::Str("class"))],
                    );
                }
                self.exec.resume();
            }
            OffloadFix::FetchObject { canonical, prov } => {
                server.fetch_object_for(func, canonical);
                server.plan_mut(self.root).note_object(canonical);
                let local = server
                    .mapping(func.id)
                    .and_then(|m| m.local_of(canonical))
                    .expect("object was just fetched");
                match prov {
                    Provenance::Field { obj, slot } => {
                        func.vm.heap.set(obj, slot, Value::Ref(local));
                    }
                    Provenance::ArrayElem { obj, idx } => {
                        func.vm.heap.set(obj, idx, Value::Ref(local));
                    }
                    Provenance::Local { frame, slot } => {
                        *self.exec.local_mut(frame, slot) = Value::Ref(local);
                    }
                    Provenance::Static { slot } => {
                        func.vm.install_static(slot, Value::Ref(local));
                    }
                }
                if tele::enabled() {
                    tele::end(treq(self.request), tele::EventName::FallbackData, &[]);
                    tele::instant(
                        treq(self.request),
                        tele::EventName::ClosureRefine,
                        &[("kind", tele::Arg::Str("object"))],
                    );
                }
                self.exec.resume();
            }
            OffloadFix::FetchStatic(slot) => {
                server.fetch_static_for(func, slot);
                server.plan_mut(self.root).note_static(slot);
                if tele::enabled() {
                    tele::end(treq(self.request), tele::EventName::FallbackStatic, &[]);
                    tele::instant(
                        treq(self.request),
                        tele::EventName::ClosureRefine,
                        &[("kind", tele::Arg::Str("static"))],
                    );
                }
                self.exec.resume();
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
                self.stats.synchronized_objects += n;
                if tele::enabled() {
                    // The monitor hand-off is complete; `dirty` is the size
                    // of the synchronized dirty set shipped with the lock.
                    tele::end(
                        treq(self.request),
                        tele::EventName::SyncMonitor,
                        &[("dirty", tele::Arg::UInt(n))],
                    );
                }
                server.set_monitor_owner(canonical, EndpointId::Function(func.id));
                server.end_lock_transfer(canonical);
                func.vm.grant_monitor(obj);
                if self.shadow {
                    self.shadow_monitors.push((obj, canonical));
                }
                self.exec.resume();
                self.maybe_snapshot(server, func);
            }
            OffloadFix::Volatile(slot) => {
                let (objs, _) = server.pull_dirty_from(func);
                self.stats.synchronized_objects += objs.len() as u64;
                if tele::enabled() {
                    tele::end(
                        treq(self.request),
                        tele::EventName::SyncVolatile,
                        &[("dirty", tele::Arg::UInt(objs.len() as u64))],
                    );
                }
                server.fetch_static_for(func, slot);
                self.exec.grant_sync_permit();
                self.exec.resume();
                self.maybe_snapshot(server, func);
            }
            OffloadFix::Db {
                query,
                arg,
                write,
                route,
            } => {
                let key = if write && !self.shadow {
                    let k = WriteKey {
                        request: self.request,
                        seq: self.write_seq,
                    };
                    self.write_seq += 1;
                    Some(k)
                } else {
                    None
                };
                let fell_back = matches!(route, DbRoute::ServerFallback(_));
                let conn = match route {
                    DbRoute::Proxy(c) | DbRoute::ServerFallback(c) => c,
                };
                let out = server
                    .proxy
                    .execute(conn, Origin::Function(func.id), query, arg, key)
                    .expect("connection is registered with the proxy");
                if fell_back && tele::enabled() {
                    tele::end(treq(self.request), tele::EventName::FallbackDb, &[]);
                }
                self.exec.resume_with(Value::I64(out.result));
            }
            OffloadFix::Native { native, args } => {
                let v = server.execute_native_fallback(func.id, native, &args);
                tele::end(treq(self.request), tele::EventName::FallbackNative, &[]);
                self.exec.resume_with(v);
            }
            OffloadFix::Complete => {
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
                    let canon: Vec<Addr> = {
                        let mapping = server.mapping(func.id);
                        dirty
                            .iter()
                            .filter_map(|&l| mapping.and_then(|m| m.server_of(l)))
                            .collect()
                    };
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
                self.done = self.pending_result.take();
                assert!(self.done.is_some(), "completion without a result");
            }
        }
        None
    }

    fn maybe_snapshot(&mut self, server: &ServerRuntime, func: &FunctionRuntime) {
        if !server.config.recovery_enabled {
            return;
        }
        self.snapshot
            .get_or_insert_with(|| Box::new(Snapshot::empty()))
            .refresh(
                &self.exec,
                func,
                self.root,
                self.write_seq,
                server.mapping(func.id).unwrap_or(&MappingTable::new()),
            );
        self.stats.snapshots += 1;
        // The wire cost of the snapshot: stack + referenced objects
        // ("several KBs", §4.5).
        let bytes = self.exec.stack_bytes() + 64 * func.vm.dirty_len() as u64;
        tele::instant(
            treq(self.request),
            tele::EventName::Snapshot,
            &[("bytes", tele::Arg::UInt(bytes))],
        );
        self.queue.push_back(Pending::Need(
            Need::new(
                Resource::Net,
                self.net.function_server + self.net.transfer(bytes),
            )
            .fb(),
        ));
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
        self.stats.recoveries += 1;
        if tele::enabled() {
            tele::instant(
                treq(self.request),
                tele::EventName::Recovery,
                &[
                    ("from", tele::Arg::UInt(self.function_id as u64)),
                    ("to", tele::Arg::UInt(replacement.id as u64)),
                    ("snapshot", tele::Arg::Bool(self.snapshot.is_some())),
                ],
            );
        }
        self.queue.clear();
        self.peer_objects.clear();
        if let Some(OffloadFix::Monitor { canonical, .. }) = self.fix.take() {
            server.end_lock_transfer(canonical);
        }
        self.fix = None;
        let old_id = self.function_id;
        let f_s = self.net.function_server;
        match self.snapshot.as_deref_mut() {
            Some(snap) => {
                let bytes = snap.exec.stack_bytes();
                snap.restore_into(replacement);
                self.exec.clone_from(&snap.exec);
                self.write_seq = snap.write_seq;
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
                snap.refresh(
                    &self.exec,
                    replacement,
                    self.root,
                    self.write_seq,
                    server
                        .mapping(replacement.id)
                        .unwrap_or(&MappingTable::new()),
                );
                self.prof_synth("[recovery]", f_s + self.net.transfer(bytes));
                self.queue.push_back(Pending::Need(
                    Need::new(Resource::Net, f_s + self.net.transfer(bytes)).fb(),
                ));
            }
            None => {
                // Nothing was visible yet: re-dispatch the whole request.
                let cs = server.instantiate_closure(replacement, self.root);
                self.exec = Execution::call(self.root, self.args.clone(), &server.program);
                self.write_seq = 0;
                self.prof_synth("[recovery]", cs.compute + f_s + self.net.transfer(cs.bytes));
                self.queue.push_back(Pending::Need(
                    Need::new(Resource::ServerCpu, cs.compute).fb(),
                ));
                self.queue.push_back(Pending::Need(
                    Need::new(Resource::Net, f_s + self.net.transfer(cs.bytes)).fb(),
                ));
            }
        }
        self.function_id = replacement.id;
        SessionStep::Need(match self.queue.pop_front() {
            Some(Pending::Need(n)) => {
                self.account(n);
                n
            }
            _ => unreachable!("recovery queues at least one need"),
        })
    }

    fn account(&mut self, n: Need) {
        if n.fallback {
            self.stats.fallback_overhead += n.amount;
        }
        if n.fetch {
            self.stats.fetch_overhead += n.amount;
        }
    }
}
