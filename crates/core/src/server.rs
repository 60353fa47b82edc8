//! The server-side BeeHive runtime: the long-running monolith plus all the
//! bookkeeping that coordinates its FaaS functions.

use std::collections::HashSet;
use std::sync::Arc;

use beehive_proxy::{ConnId, Proxy};
use beehive_sim::{FastMap, FastSet};
use beehive_telemetry as tele;
use beehive_vm::class::{PackKind, PackSpec};
use beehive_vm::heap::Space;
use beehive_vm::natives::{NativeEffect, NativeState};
use beehive_vm::profiler::Profiler;
use beehive_vm::program::Program;
use beehive_vm::{Addr, ClassId, CostModel, EndpointId, MethodId, NativeId, Value, VmInstance};

use crate::closure::{ClosurePlan, ClosureStats};
use crate::config::BeeHiveConfig;
use crate::function::FunctionRuntime;
use crate::mapping::MappingTable;
use crate::objgraph::{
    apply_dirty_to_server, copy_to_function, refresh_mapped_objects, translate_value_to_function,
    ApplyReport,
};

/// The server endpoint: program, VM, profiler, proxy, closure plans, mapping
/// tables and monitor ownership.
#[derive(Debug)]
pub struct ServerRuntime {
    /// The application program (shared with every function).
    pub program: Arc<Program>,
    /// The server VM instance.
    pub vm: VmInstance,
    /// The candidate-method profiler (§4.3).
    pub profiler: Profiler,
    /// The connection proxy fronting the database (§3.3).
    pub proxy: Proxy,
    /// Configuration and feature toggles.
    pub config: BeeHiveConfig,
    plans: FastMap<MethodId, ClosurePlan>,
    mappings: FastMap<u32, MappingTable>,
    monitor_owner: FastMap<Addr, EndpointId>,
    locks_in_transfer: FastSet<Addr>,
    freed_locks: Vec<Addr>,
    next_request: u64,
}

impl ServerRuntime {
    /// A server runtime for `program`, fronting `proxy`'s database.
    pub fn new(
        program: Arc<Program>,
        config: BeeHiveConfig,
        proxy: Proxy,
        cost: CostModel,
    ) -> Self {
        ServerRuntime {
            vm: VmInstance::server(&program, cost),
            program,
            profiler: Profiler::new(),
            proxy,
            config,
            plans: FastMap::default(),
            mappings: FastMap::default(),
            monitor_owner: FastMap::default(),
            locks_in_transfer: FastSet::default(),
            freed_locks: Vec::new(),
            next_request: 1,
        }
    }

    /// Create a database connection object of the (packageable, socket-kind)
    /// class `sock_class`: allocates the object in stable space, opens the
    /// proxied connection and installs the native state.
    ///
    /// # Panics
    ///
    /// Panics if `sock_class` is not declared packageable with
    /// [`PackKind::Socket`].
    pub fn create_connection(&mut self, sock_class: ClassId) -> Addr {
        let spec = self
            .program
            .class(sock_class)
            .packageable
            .expect("connection class must be packageable");
        assert_eq!(
            spec.kind,
            PackKind::Socket,
            "connection class must be a socket"
        );
        let fields = self.program.class(sock_class).field_count as u32;
        let obj = self
            .vm
            .heap
            .alloc_object(sock_class, fields, Space::Closure)
            .expect("closure space is unbounded");
        let conn = self.proxy.connect_server();
        let handle = self.vm.register_native_state(NativeState::Socket {
            proxy_conn_id: conn.0,
        });
        self.vm
            .heap
            .set(obj, spec.handle_slot as u32, Value::I64(handle as i64));
        obj
    }

    /// Fresh request identifier (write-key namespace).
    pub fn next_request_id(&mut self) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        id
    }

    /// The identifier [`next_request_id`](Self::next_request_id) hands out
    /// next.
    pub fn peek_request_id(&self) -> u64 {
        self.next_request
    }

    /// The closure plan for `root` (created minimal on first use).
    pub fn plan_mut(&mut self, root: MethodId) -> &mut ClosurePlan {
        let class = self.program.method(root).class;
        self.plans
            .entry(root)
            .or_insert_with(|| ClosurePlan::minimal(root, class))
    }

    /// Read-only view of a plan, if it exists.
    pub fn plan(&self, root: MethodId) -> Option<&ClosurePlan> {
        self.plans.get(&root)
    }

    /// Read-only view of function `id`'s mapping table.
    pub fn mapping(&self, id: u32) -> Option<&MappingTable> {
        self.mappings.get(&id)
    }

    /// Remove a dead instance's mapping table.
    pub fn remove_mapping(&mut self, id: u32) {
        self.mappings.remove(&id);
    }

    /// Install a mapping table for an instance (failure recovery restores
    /// the sync-point table, §4.5).
    pub fn install_mapping(&mut self, id: u32, mapping: MappingTable) {
        self.mappings.insert(id, mapping);
    }

    /// Retarget monitor ownership from a dead instance to its replacement
    /// (failure recovery, §4.5).
    pub fn retarget_monitors(&mut self, from: u32, to: u32) {
        for owner in self.monitor_owner.values_mut() {
            if *owner == EndpointId::Function(from) {
                *owner = EndpointId::Function(to);
            }
        }
    }

    /// Current owner of the monitor of the server object `canonical`.
    pub fn monitor_owner(&self, canonical: Addr) -> EndpointId {
        self.monitor_owner
            .get(&canonical)
            .copied()
            .unwrap_or(EndpointId::Server)
    }

    /// Try to start a monitor hand-off for the lock at `canonical`. The
    /// server serializes hand-offs per lock (Fig. 6: the previous owner
    /// participates in the transfer synchronously), so a second acquirer
    /// must wait until the in-flight transfer completes. Returns `false`
    /// when a transfer is already in progress.
    pub fn begin_lock_transfer(&mut self, canonical: Addr) -> bool {
        self.locks_in_transfer.insert(canonical)
    }

    /// Complete a monitor hand-off started with
    /// [`ServerRuntime::begin_lock_transfer`]. The lock is recorded as
    /// freed so the embedding driver can wake a queued waiter
    /// ([`ServerRuntime::take_freed_locks`]).
    pub fn end_lock_transfer(&mut self, canonical: Addr) {
        if self.locks_in_transfer.remove(&canonical) {
            self.freed_locks.push(canonical);
        }
    }

    /// Locks whose hand-offs completed since the last call (drain to wake
    /// sessions parked on [`SessionStep::AwaitLock`]).
    ///
    /// [`SessionStep::AwaitLock`]: crate::session::SessionStep::AwaitLock
    pub fn take_freed_locks(&mut self) -> Vec<Addr> {
        std::mem::take(&mut self.freed_locks)
    }

    /// Collect the server heap with `roots` (every live server execution,
    /// [`SessionStep::ServerGc`]'s contract) and return the pause, which the
    /// triggering session is charged via
    /// [`crate::session::ServerSession::gc_done`].
    ///
    /// [`SessionStep::ServerGc`]: crate::session::SessionStep::ServerGc
    pub fn collect_server_heap(
        &mut self,
        roots: &mut [&mut beehive_vm::Execution],
    ) -> beehive_vm::Duration {
        self.vm.collect(roots, &mut []).pause
    }

    /// Revoke `peer`'s cached ownership of the lock at server address
    /// `canonical` (the lock is being handed to another endpoint; the
    /// peer must synchronize again before re-entering, §4.2).
    pub fn revoke_peer_monitor(&self, peer: &mut FunctionRuntime, canonical: Addr) {
        if let Some(local) = self.mapping(peer.id).and_then(|m| m.local_of(canonical)) {
            peer.vm.revoke_monitor(local);
        }
    }

    /// Record a monitor hand-off.
    pub fn set_monitor_owner(&mut self, canonical: Addr, owner: EndpointId) {
        match owner {
            EndpointId::Server => {
                self.monitor_owner.remove(&canonical);
                self.vm.grant_monitor(canonical);
            }
            EndpointId::Function(_) => {
                self.monitor_owner.insert(canonical, owner);
                self.vm.revoke_monitor(canonical);
            }
        }
    }

    /// Instantiate the initial closure of `root` on `func` (first dispatch
    /// to a fresh instance): ships planned classes, copies planned objects
    /// (packing native state of packageable classes), installs planned
    /// statics, and builds the mapping table.
    pub fn instantiate_closure(
        &mut self,
        func: &mut FunctionRuntime,
        root: MethodId,
    ) -> ClosureStats {
        let class = self.program.method(root).class;
        let ServerRuntime {
            program,
            vm,
            proxy,
            config,
            plans,
            mappings,
            ..
        } = self;
        let program = Arc::clone(program);
        let plan = plans
            .entry(root)
            .or_insert_with(|| ClosurePlan::minimal(root, class))
            .clone();
        let mapping = mappings.entry(func.id).or_default();

        let mut bytes = 0u64;
        let mut classes = 0u64;
        for &c in &plan.classes {
            if !func.vm.is_loaded(c) {
                func.vm.load_class(c);
                bytes += program.class_bytes(c) as u64;
                classes += 1;
            }
        }

        let include: HashSet<Addr> = plan.objects.iter().copied().collect();
        let pack_ok = config.packageable_enabled;
        let proxy_ok = config.proxy_enabled;
        let func_id = func.id;
        let attached = &mut func.attached;
        let report = copy_to_function(
            vm,
            &mut func.vm,
            mapping,
            &program,
            &include,
            &mut |kind, state, fvm| {
                pack_native_state(
                    kind, state, fvm, proxy, attached, func_id, pack_ok, proxy_ok,
                )
            },
        );

        for &slot in &plan.statics {
            let v = vm.static_value(slot);
            func.vm
                .install_static(slot, translate_value_to_function(v, mapping));
            bytes += 8;
        }

        func.instantiated_for = Some(root);

        let compute = config.closure_base_cost
            + config.closure_per_object_cost * report.objects
            + config.closure_per_class_cost * classes.max(1);
        tele::complete(
            tele::Track::Server,
            tele::EventName::ClosureBuild,
            compute,
            &[
                ("instance", tele::Arg::UInt(func_id as u64)),
                ("objects", tele::Arg::UInt(report.objects)),
                ("classes", tele::Arg::UInt(classes)),
                ("bytes", tele::Arg::UInt(bytes + report.bytes)),
            ],
        );
        ClosureStats {
            objects: report.objects,
            classes,
            bytes: bytes + report.bytes,
            compute,
        }
    }

    /// Ship one server object to `func` (a data fallback, §4.1). Returns the
    /// transferred byte count.
    ///
    /// # Panics
    ///
    /// Panics if `canonical` is remote-marked.
    pub fn fetch_object_for(&mut self, func: &mut FunctionRuntime, canonical: Addr) -> u64 {
        assert!(!canonical.is_remote(), "fetch by canonical address");
        let ServerRuntime {
            program,
            vm,
            proxy,
            config,
            mappings,
            ..
        } = self;
        let program = Arc::clone(program);
        let mapping = mappings.entry(func.id).or_default();
        let include: HashSet<Addr> = [canonical].into_iter().collect();
        let pack_ok = config.packageable_enabled;
        let proxy_ok = config.proxy_enabled;
        let func_id = func.id;
        let attached = &mut func.attached;
        let report = copy_to_function(
            vm,
            &mut func.vm,
            mapping,
            &program,
            &include,
            &mut |kind, state, fvm| {
                pack_native_state(
                    kind, state, fvm, proxy, attached, func_id, pack_ok, proxy_ok,
                )
            },
        );
        report.bytes
    }

    /// Ship the code of `class` to `func` (a missing-code fallback). Returns
    /// the class-file size.
    pub fn fetch_class_for(&mut self, func: &mut FunctionRuntime, class: ClassId) -> u64 {
        func.vm.load_class(class);
        self.program.class_bytes(class) as u64
    }

    /// Install the current value of a static on `func` (a data fallback).
    /// Returns the transferred byte count.
    pub fn fetch_static_for(
        &mut self,
        func: &mut FunctionRuntime,
        slot: beehive_vm::StaticSlot,
    ) -> u64 {
        let v = self.vm.static_value(slot);
        let mapping = self.mappings.entry(func.id).or_default();
        let tv = translate_value_to_function(v, mapping);
        func.vm.install_static(slot, tv);
        8
    }

    /// Publish a volatile write `func` makes: install its value `v` in the
    /// server's static. An object `func` created escapes to the server, with
    /// everything it reaches, as escaped objects do at completion.
    pub(crate) fn publish_static_from(
        &mut self,
        func: &FunctionRuntime,
        slot: beehive_vm::StaticSlot,
        v: Value,
    ) {
        let ServerRuntime {
            program,
            vm,
            mappings,
            ..
        } = self;
        let mapping = mappings.entry(func.id).or_default();
        let v = match v {
            Value::Ref(a) if a.is_remote() => Value::Ref(a.to_local()),
            Value::Ref(local) => {
                if mapping.server_of(local).is_none() {
                    apply_dirty_to_server(&func.vm, vm, mapping, program, &[local]);
                }
                Value::Ref(mapping.server_of(local).expect("escaped above"))
            }
            other => other,
        };
        vm.set_static(slot, v);
    }

    /// Pull `func`'s dirty objects into the server (a synchronization,
    /// §4.2). Returns the canonical addresses of the updated objects and the
    /// apply report.
    pub fn pull_dirty_from(&mut self, func: &mut FunctionRuntime) -> (Vec<Addr>, ApplyReport) {
        let dirty = func.vm.take_dirty();
        let ServerRuntime {
            program,
            vm,
            mappings,
            ..
        } = self;
        let program = Arc::clone(program);
        let mapping = mappings.entry(func.id).or_default();
        let report = apply_dirty_to_server(&func.vm, vm, mapping, &program, &dirty);
        let canonical = dirty.iter().filter_map(|&l| mapping.server_of(l)).collect();
        (canonical, report)
    }

    /// Refresh `func`'s view of recently written server objects plus
    /// `extra` (the lock object at a hand-off). Returns how many objects
    /// were refreshed (the "synchronized objects" of Table 5).
    pub fn push_recent_writes_to(&mut self, func: &mut FunctionRuntime, extra: &[Addr]) -> u64 {
        const MAX_SYNC_OBJECTS: usize = 256;
        let ServerRuntime {
            program,
            vm,
            mappings,
            ..
        } = self;
        let program = Arc::clone(program);
        let mapping = mappings.entry(func.id).or_default();
        let mut objs: Vec<Addr> = extra.to_vec();
        objs.extend(vm.dirty_peek().iter().take(MAX_SYNC_OBJECTS).copied());
        objs.sort_unstable();
        objs.dedup();
        refresh_mapped_objects(vm, &mut func.vm, mapping, &program, &objs)
    }

    /// Execute a fallen-back native on behalf of function `func_id`,
    /// translating its function-local arguments (§3.2's fallback path —
    /// only taken for non-offloadable natives or under the no-packaging
    /// ablation).
    ///
    /// # Panics
    ///
    /// Panics if a reference argument has no server counterpart.
    pub fn execute_native_fallback(
        &mut self,
        func_id: u32,
        native: NativeId,
        args: &[Value],
    ) -> Value {
        let def = self.program.native(native);
        match def.effect {
            NativeEffect::ReflectInvoke => {
                let local = args[0].as_ref().expect("ReflectInvoke takes an object");
                let mapping = self.mappings.entry(func_id).or_default();
                let server_obj = mapping
                    .server_of(local)
                    .expect("fallback argument must be a shared object");
                let class = self.vm.heap.class_of(server_obj);
                let spec: PackSpec = self
                    .program
                    .class(class)
                    .packageable
                    .expect("reflective object class has a pack spec");
                let handle = self
                    .vm
                    .heap
                    .get(server_obj, spec.handle_slot as u32)
                    .as_i64()
                    .expect("handle field");
                match self.vm.native_state(handle as u64) {
                    Some(NativeState::MethodMeta { method }) => Value::I64(method.0 as i64),
                    _ => Value::I64(0),
                }
            }
            NativeEffect::SocketIo => Value::Null,
            NativeEffect::FileAccess => Value::I64(0),
            NativeEffect::PushToken(t) => Value::I64(t),
            NativeEffect::Nop | NativeEffect::ArrayCopy => Value::Null,
        }
    }

    /// Record a completed candidate invocation in the profiler.
    pub fn record_profile(&mut self, root: MethodId, elapsed: beehive_sim::Duration) {
        if self.program.method(root).is_candidate() {
            self.profiler.record(root, elapsed);
        }
    }

    /// Total server-side memory devoted to mapping tables (§5.6 reports
    /// hundreds of KBs per function).
    pub fn mapping_footprint_bytes(&self) -> u64 {
        self.mappings
            .values()
            .map(MappingTable::footprint_bytes)
            .sum()
    }
}

/// Marshal/unmarshal one native state across endpoints (the `packageable`
/// interface of §3.2). Returns the new function-side handle, or `None` when
/// packing is disabled (the COMET-style ablation) so the raw handle is
/// copied and later invocations fall back.
#[allow(clippy::too_many_arguments)]
fn pack_native_state(
    kind: PackKind,
    state: Option<NativeState>,
    func_vm: &mut VmInstance,
    proxy: &mut Proxy,
    attached: &mut FastMap<u64, ConnId>,
    func_id: u32,
    packageable_enabled: bool,
    proxy_enabled: bool,
) -> Option<i64> {
    if !packageable_enabled {
        return None;
    }
    match (kind, state) {
        (PackKind::MethodMeta, Some(NativeState::MethodMeta { method })) => {
            let h = func_vm.register_native_state(NativeState::MethodMeta { method });
            Some(h as i64)
        }
        (PackKind::Socket, Some(NativeState::Socket { proxy_conn_id })) => {
            if !proxy_enabled {
                return None;
            }
            let conn = ConnId(proxy_conn_id);
            let offload = proxy.prepare(conn).ok()?;
            let conn2 = proxy.attach_function(offload, func_id).ok()?;
            attached.insert(offload.0, conn2);
            let h = func_vm.register_native_state(NativeState::Socket {
                proxy_conn_id: offload.0,
            });
            Some(h as i64)
        }
        // Dangling or mismatched server state: copy raw (will fall back).
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_db::Database;
    use beehive_vm::program::ProgramBuilder;
    use beehive_vm::Op;

    fn world() -> (ServerRuntime, FunctionRuntime, MethodId, ClassId, ClassId) {
        let mut pb = ProgramBuilder::new();
        let app = pb.user_class("App", 2, None);
        let sock = pb.jdk_class("SocketImpl", 1);
        pb.make_packageable(
            sock,
            PackSpec {
                handle_slot: 0,
                kind: PackKind::Socket,
                marshalled_bytes: 64,
            },
        );
        let root = pb.method_annotated(app, "handle", 0, 0, vec![Op::Return], Some("@Post"));
        let program = Arc::new(pb.finish());
        let server = ServerRuntime::new(
            Arc::clone(&program),
            BeeHiveConfig::default(),
            Proxy::new(Database::new()),
            CostModel::default(),
        );
        let func = FunctionRuntime::new(0, &program, CostModel::default());
        (server, func, root, app, sock)
    }

    #[test]
    fn create_connection_installs_socket_state() {
        let (mut server, _, _, _, sock) = world();
        let conn = server.create_connection(sock);
        let handle = server.vm.heap.get(conn, 0).as_i64().unwrap() as u64;
        assert!(matches!(
            server.vm.native_state(handle),
            Some(NativeState::Socket { .. })
        ));
    }

    #[test]
    fn minimal_closure_ships_root_class_only() {
        let (mut server, mut func, root, app, _) = world();
        let stats = server.instantiate_closure(&mut func, root);
        assert_eq!(stats.classes, 1);
        assert_eq!(stats.objects, 0);
        assert!(func.vm.is_loaded(app));
        assert_eq!(func.instantiated_for, Some(root));
        assert!(stats.compute > beehive_sim::Duration::ZERO);
    }

    #[test]
    fn refined_plan_ships_objects_and_packs_sockets() {
        let (mut server, mut func, root, app, sock) = world();
        let conn = server.create_connection(sock);
        let shared = server.vm.heap.alloc_object(app, 2, Space::Closure).unwrap();
        server.vm.heap.set(shared, 0, Value::I64(5));
        server.plan_mut(root).note_object(conn);
        server.plan_mut(root).note_object(shared);
        server.plan_mut(root).note_class(sock);

        let stats = server.instantiate_closure(&mut func, root);
        assert_eq!(stats.objects, 2);
        assert_eq!(func.attached.len(), 1, "socket attached through the proxy");
        let mapping = server.mapping(func.id).unwrap();
        let local_conn = mapping.local_of(conn).unwrap();
        let h = func.vm.heap.get(local_conn, 0).as_i64().unwrap() as u64;
        assert!(matches!(
            func.vm.native_state(h),
            Some(NativeState::Socket { .. })
        ));
    }

    #[test]
    fn packaging_disabled_copies_dangling_handles() {
        let (mut server, mut func, root, _, sock) = world();
        server.config = server.config.without_packageable();
        let conn = server.create_connection(sock);
        server.plan_mut(root).note_object(conn);
        server.instantiate_closure(&mut func, root);
        let mapping = server.mapping(func.id).unwrap();
        let local_conn = mapping.local_of(conn).unwrap();
        let h = func.vm.heap.get(local_conn, 0).as_i64().unwrap() as u64;
        assert_eq!(func.vm.native_state(h), None, "handle dangles on purpose");
        assert!(func.attached.is_empty());
    }

    #[test]
    fn fetch_object_maps_and_transfers() {
        let (mut server, mut func, root, app, _) = world();
        server.instantiate_closure(&mut func, root);
        let obj = server.vm.heap.alloc_object(app, 2, Space::Closure).unwrap();
        server.vm.heap.set(obj, 1, Value::I64(11));
        let bytes = server.fetch_object_for(&mut func, obj);
        assert!(bytes >= 24);
        let local = server.mapping(func.id).unwrap().local_of(obj).unwrap();
        assert_eq!(func.vm.heap.get(local, 1), Value::I64(11));
    }

    #[test]
    fn monitor_ownership_round_trip() {
        let (mut server, _, _, app, _) = world();
        let obj = server.vm.heap.alloc_object(app, 2, Space::Closure).unwrap();
        assert_eq!(server.monitor_owner(obj), EndpointId::Server);
        server.set_monitor_owner(obj, EndpointId::Function(2));
        assert_eq!(server.monitor_owner(obj), EndpointId::Function(2));
        assert!(!server.vm.owns_monitor(obj), "server must sync to re-enter");
        server.set_monitor_owner(obj, EndpointId::Server);
        assert_eq!(server.monitor_owner(obj), EndpointId::Server);
        assert!(server.vm.owns_monitor(obj));
    }

    #[test]
    fn pull_dirty_updates_server_state() {
        let (mut server, mut func, root, app, _) = world();
        let shared = server.vm.heap.alloc_object(app, 2, Space::Closure).unwrap();
        server.plan_mut(root).note_object(shared);
        server.instantiate_closure(&mut func, root);
        let local = server.mapping(func.id).unwrap().local_of(shared).unwrap();
        func.vm.heap.set(local, 0, Value::I64(77));
        func.vm.note_write(local);
        let (canonical, report) = server.pull_dirty_from(&mut func);
        assert_eq!(canonical, vec![shared]);
        assert_eq!(report.updated, 1);
        assert_eq!(server.vm.heap.get(shared, 0), Value::I64(77));
    }

    #[test]
    fn push_recent_writes_refreshes_function_view() {
        let (mut server, mut func, root, app, _) = world();
        let shared = server.vm.heap.alloc_object(app, 2, Space::Closure).unwrap();
        server.plan_mut(root).note_object(shared);
        server.instantiate_closure(&mut func, root);
        server.vm.heap.set(shared, 0, Value::I64(123));
        let n = server.push_recent_writes_to(&mut func, &[shared]);
        assert_eq!(n, 1);
        let local = server.mapping(func.id).unwrap().local_of(shared).unwrap();
        assert_eq!(func.vm.heap.get(local, 0), Value::I64(123));
    }

    #[test]
    fn request_ids_are_unique() {
        let (mut server, ..) = world();
        let a = server.next_request_id();
        let b = server.next_request_id();
        assert_ne!(a, b);
    }
}
