//! Per-endpoint VM instances.
//!
//! A [`VmInstance`] is one endpoint's runtime state: heap, statics, loaded
//! classes, native-state table, monitor-ownership cache, dirty-object list
//! and counters. The server has one long-lived instance with every class
//! loaded; each FaaS function gets a fresh instance that starts empty and is
//! populated from the initial closure, growing through fallbacks.

use beehive_sim::{Duration, FastMap, FastSet};
use beehive_telemetry as tele;

use crate::heap::{GcCosts, GcStats, Heap, Space};
use crate::ids::{ClassId, MethodId};
use crate::interp::Execution;
use crate::natives::{NativeCounters, NativeState};
use crate::program::Program;
use crate::value::{Addr, Value};

/// Which side of the Semi-FaaS split this instance runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EndpointKind {
    /// The long-running monolith server. Remote-reference checks are compiled
    /// out (§4.1: "the check instructions are only added on the FaaS side").
    Server,
    /// A FaaS function instance: remote-reference checks on, classes loaded
    /// on demand, warmup from cold.
    Function,
}

/// Per-op virtual-time costs, with interpreter/JIT warmup.
///
/// A method's first `warm_threshold` invocations on an instance run at
/// `cold_multiplier`× cost, modelling interpretation before JIT compilation —
/// the JVM warmup that shadow execution hides (§3.4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Cost of a simple op (const, arithmetic, load/store, branch).
    pub simple_op: Duration,
    /// Cost of a call/return.
    pub call_op: Duration,
    /// Cost of an allocation.
    pub alloc_op: Duration,
    /// Cost of a field/array access.
    pub field_op: Duration,
    /// Cost of an uncontended monitor operation.
    pub monitor_op: Duration,
    /// Extra cost per tracked write when write barriers are enabled
    /// (BeeHive's dirty-object instrumentation; causes the paper's 7.14%
    /// pybbs throughput drop, §5.3).
    pub barrier: Duration,
    /// Invocations before a method is considered JIT-compiled.
    pub warm_threshold: u64,
    /// Cost multiplier while cold.
    pub cold_multiplier: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            simple_op: Duration::from_nanos(2),
            call_op: Duration::from_nanos(20),
            alloc_op: Duration::from_nanos(25),
            field_op: Duration::from_nanos(4),
            monitor_op: Duration::from_nanos(30),
            barrier: Duration::from_nanos(25),
            warm_threshold: 10,
            cold_multiplier: 8,
        }
    }
}

/// Aggregate activity counters of an instance.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VmCounters {
    /// Bytecode instructions executed, not dispatches: a fused loop head
    /// ([`Op::LoopTest`], [`Op::LoopNext`]) counts every instruction it
    /// covers, so this keeps the unit of Table 2 and of the benchmark's
    /// interpreter ops/s.
    ///
    /// [`Op::LoopTest`]: crate::op::Op::LoopTest
    /// [`Op::LoopNext`]: crate::op::Op::LoopNext
    pub ops: u64,
    /// Objects allocated.
    pub allocs: u64,
    /// Native invocations by category.
    pub natives: NativeCounters,
    /// Monitor acquisitions.
    pub monitor_enters: u64,
    /// Database round trips issued.
    pub db_calls: u64,
    /// Tracked (barrier-instrumented) writes.
    pub tracked_writes: u64,
}

impl VmCounters {
    /// Reset to zero, returning the previous values.
    pub fn take(&mut self) -> VmCounters {
        std::mem::take(self)
    }
}

/// Which classes' code an instance has: one bit per class of the program,
/// so an instance and each of its sync images carry an eighth of a byte per
/// class. Bits past the last class stay clear, so sets compare by value.
#[derive(Clone, Debug, PartialEq)]
struct ClassSet {
    words: Vec<u64>,
    /// The program's class count.
    len: usize,
}

impl ClassSet {
    /// `len` classes, all or none of them in the set.
    fn new(len: usize, all: bool) -> ClassSet {
        let mut words = vec![if all { u64::MAX } else { 0 }; len.div_ceil(64)];
        let unused = 64 * words.len() - len;
        if let Some(last) = words.last_mut() {
            *last >>= unused;
        }
        ClassSet { words, len }
    }

    /// The word and the bit of `class`.
    fn bit(&self, class: ClassId) -> (usize, u64) {
        let i = class.index();
        assert!(
            i < self.len,
            "class {i} is out of range: the program has {} classes",
            self.len
        );
        (i / 64, 1 << (i % 64))
    }

    fn contains(&self, class: ClassId) -> bool {
        let (word, bit) = self.bit(class);
        self.words[word] & bit != 0
    }

    /// Add `class`; `true` when it was not in the set yet.
    fn insert(&mut self, class: ClassId) -> bool {
        let (word, bit) = self.bit(class);
        let added = self.words[word] & bit == 0;
        self.words[word] |= bit;
        added
    }
}

/// One endpoint's runtime state. Instances compare by value (see
/// [`Heap`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VmInstance {
    kind: EndpointKind,
    /// The heap.
    pub heap: Heap,
    statics: Vec<Value>,
    statics_fetched: Vec<bool>,
    loaded: ClassSet,
    /// Classes loaded after construction, in load order. Classes are never
    /// unloaded, so this is how [`VmInstance::sync_image`] finds the new
    /// members of `loaded` without scanning all of them.
    load_log: Vec<ClassId>,
    native_states: FastMap<u64, NativeState>,
    next_handle: u64,
    owned_monitors: FastSet<Addr>,
    foreign_monitors: FastSet<Addr>,
    dirty: Vec<Addr>,
    /// Activity counters.
    pub counters: VmCounters,
    /// Cost model.
    pub cost: CostModel,
    /// Invocation count per method, indexed by [`MethodId`].
    invocations: Vec<u64>,
    /// Where `New` allocates (requests allocate in the allocation space;
    /// application init may switch to the closure space for long-lived shared
    /// state).
    pub alloc_target: Space,
    gc_log: Vec<GcStats>,
    barriers: bool,
    trace_id: Option<u32>,
    shadow: bool,
}

/// Default allocation-space capacity for a server instance.
pub const SERVER_ALLOC_BYTES: u64 = 64 << 20;
/// Default allocation-space capacity for a function instance (per-function
/// heaps are small: the paper reports 3–29 MB total footprints, §5.6).
pub const FUNCTION_ALLOC_BYTES: u64 = 8 << 20;

impl VmInstance {
    /// A server instance: all classes loaded, statics initialized to null,
    /// remote-reference checks off.
    pub fn server(program: &Program, cost: CostModel) -> Self {
        Self::new(
            EndpointKind::Server,
            program,
            cost,
            SERVER_ALLOC_BYTES,
            true,
        )
    }

    /// A fresh function instance: nothing loaded, statics unfetched.
    pub fn function(program: &Program, cost: CostModel) -> Self {
        Self::new(
            EndpointKind::Function,
            program,
            cost,
            FUNCTION_ALLOC_BYTES,
            false,
        )
    }

    fn new(
        kind: EndpointKind,
        program: &Program,
        cost: CostModel,
        alloc_bytes: u64,
        loaded: bool,
    ) -> Self {
        VmInstance {
            kind,
            heap: Heap::new(alloc_bytes, GcCosts::default()),
            statics: vec![Value::Null; program.static_count()],
            statics_fetched: vec![kind == EndpointKind::Server; program.static_count()],
            loaded: ClassSet::new(program.class_count(), loaded),
            load_log: Vec::new(),
            native_states: FastMap::default(),
            next_handle: 1,
            owned_monitors: FastSet::default(),
            foreign_monitors: FastSet::default(),
            dirty: Vec::new(),
            counters: VmCounters::default(),
            cost,
            invocations: vec![0; program.method_count()],
            alloc_target: Space::Alloc,
            gc_log: Vec::new(),
            barriers: kind == EndpointKind::Function,
            trace_id: None,
            shadow: false,
        }
    }

    /// The endpoint kind.
    pub fn kind(&self) -> EndpointKind {
        self.kind
    }

    /// Tag a function instance with its platform id so trace events land on
    /// that instance's timeline (servers ignore this).
    pub fn set_trace_id(&mut self, id: u32) {
        self.trace_id = Some(id);
    }

    /// The telemetry track this instance's events belong to.
    pub fn trace_track(&self) -> tele::Track {
        match self.kind {
            EndpointKind::Server => tele::Track::Server,
            EndpointKind::Function => tele::Track::Instance(self.trace_id.unwrap_or(u32::MAX)),
        }
    }

    /// Mark whether the instance is currently running a shadow execution
    /// (§3.4). Session start sets this; the profiler keys its lane on it.
    pub fn set_shadow(&mut self, shadow: bool) {
        self.shadow = shadow;
    }

    /// The profiler lane this instance's execution belongs to.
    pub fn profile_lane(&self) -> &'static str {
        match (self.kind, self.shadow) {
            (EndpointKind::Server, _) => "server",
            (EndpointKind::Function, false) => "faas:primary",
            (EndpointKind::Function, true) => "faas:shadow",
        }
    }

    /// The FaaS instance id for the profiler's per-instance totals (`None`
    /// on the server).
    pub fn profile_instance(&self) -> Option<u32> {
        match self.kind {
            EndpointKind::Server => None,
            EndpointKind::Function => self.trace_id,
        }
    }

    /// Enable/disable write barriers (dirty-object tracking). BeeHive servers
    /// run with barriers on; the vanilla baseline runs with them off.
    pub fn set_barriers(&mut self, on: bool) {
        self.barriers = on;
    }

    // ----- classes ------------------------------------------------------

    /// `true` when the class's code is available on this endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not a class of the instance's program.
    pub fn is_loaded(&self, class: ClassId) -> bool {
        self.loaded.contains(class)
    }

    /// Mark a class's code available (after a missing-code fetch).
    ///
    /// # Panics
    ///
    /// Panics if `class` is not a class of the instance's program.
    pub fn load_class(&mut self, class: ClassId) {
        if self.loaded.insert(class) {
            self.load_log.push(class);
        }
    }

    // ----- statics ------------------------------------------------------

    /// Read a static slot (no fetch check; the interpreter does that).
    pub fn static_value(&self, slot: crate::ids::StaticSlot) -> Value {
        self.statics[slot.index()]
    }

    /// Write a static slot.
    pub fn set_static(&mut self, slot: crate::ids::StaticSlot, v: Value) {
        self.statics[slot.index()] = v;
    }

    /// `true` when the slot's value is present on this endpoint.
    pub fn static_fetched(&self, slot: crate::ids::StaticSlot) -> bool {
        self.statics_fetched[slot.index()]
    }

    /// Install a fetched static value.
    pub fn install_static(&mut self, slot: crate::ids::StaticSlot, v: Value) {
        self.statics[slot.index()] = v;
        self.statics_fetched[slot.index()] = true;
    }

    // ----- native state --------------------------------------------------

    /// Register off-heap state, returning its handle (stored in an object
    /// field named by the class's [`PackSpec`](crate::class::PackSpec)).
    pub fn register_native_state(&mut self, state: NativeState) -> u64 {
        let h = self.next_handle;
        self.next_handle += 1;
        self.native_states.insert(h, state);
        h
    }

    /// Look up native state by handle.
    pub fn native_state(&self, handle: u64) -> Option<&NativeState> {
        self.native_states.get(&handle)
    }

    // ----- monitors -------------------------------------------------------

    /// `true` when this endpoint may enter the monitor without a sync
    /// fallback.
    pub fn owns_monitor(&self, obj: Addr) -> bool {
        match self.kind {
            EndpointKind::Server => !self.foreign_monitors.contains(&obj),
            EndpointKind::Function => self.owned_monitors.contains(&obj),
        }
    }

    /// Grant monitor ownership to this endpoint (after a sync).
    pub fn grant_monitor(&mut self, obj: Addr) {
        match self.kind {
            EndpointKind::Server => {
                self.foreign_monitors.remove(&obj);
            }
            EndpointKind::Function => {
                self.owned_monitors.insert(obj);
            }
        }
    }

    /// Revoke ownership (another endpoint acquired the lock). For the server,
    /// `obj` is recorded as foreign-held so the next server acquire syncs.
    pub fn revoke_monitor(&mut self, obj: Addr) {
        match self.kind {
            EndpointKind::Server => {
                self.foreign_monitors.insert(obj);
            }
            EndpointKind::Function => {
                self.owned_monitors.remove(&obj);
            }
        }
    }

    // ----- dirty tracking -------------------------------------------------

    /// Record a write to `addr` (the write barrier). Closure-space objects
    /// join the dirty list shipped at the next synchronization (§4.2).
    pub fn note_write(&mut self, addr: Addr) -> Duration {
        if !self.barriers {
            return Duration::ZERO;
        }
        self.counters.tracked_writes += 1;
        if self.heap.space_of(addr) == Space::Closure && self.heap.mark_dirty(addr) {
            self.dirty.push(addr);
        }
        self.cost.barrier
    }

    /// Drain the dirty-object list (at a synchronization point), clearing
    /// the marks.
    pub fn take_dirty(&mut self) -> Vec<Addr> {
        let dirty = std::mem::take(&mut self.dirty);
        for &a in &dirty {
            self.heap.clear_dirty(a);
        }
        dirty
    }

    /// Number of objects currently dirty.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// The current dirty list without clearing it (used when the server
    /// hands a lock to a function and must refresh the receiver's view of
    /// recently written shared objects without forgetting them for other
    /// endpoints).
    pub fn dirty_peek(&self) -> &[Addr] {
        &self.dirty
    }

    // ----- warmup ---------------------------------------------------------

    /// Mark every method JIT-compiled on this instance (models an instance
    /// that served earlier traffic — the platform warm cache of §5.2).
    ///
    /// # Panics
    ///
    /// Panics if `program` has a method this instance's program lacks.
    pub fn prewarm_all_methods(&mut self, program: &Program) {
        let warm = self.cost.warm_threshold + 1;
        for m in 0..program.method_count() {
            *self.invocation_count(MethodId(m as u32)) = warm;
        }
    }

    /// Record an invocation of `method`; returns `true` when the method is
    /// still cold (pre-JIT) on this instance.
    ///
    /// # Panics
    ///
    /// Panics if `method` is not a method of this instance's program.
    pub fn note_invocation(&mut self, method: MethodId) -> bool {
        let warm_threshold = self.cost.warm_threshold;
        let count = self.invocation_count(method);
        *count += 1;
        *count <= warm_threshold
    }

    /// A method id outside the program is a bug in the caller: name it
    /// instead of growing the table.
    fn invocation_count(&mut self, method: MethodId) -> &mut u64 {
        let methods = self.invocations.len();
        self.invocations
            .get_mut(method.index())
            .unwrap_or_else(|| panic!("{method:?} is outside the program ({methods} methods)"))
    }

    // ----- GC ---------------------------------------------------------------

    /// Collect the allocation space. `executions` are all executions whose
    /// frames root objects on this instance; statics and the dirty list are
    /// rooted automatically, and embedders may pass extra root slots (e.g.
    /// the server's mapping tables) via `extra_roots`.
    pub fn collect(
        &mut self,
        executions: &mut [&mut Execution],
        extra_roots: &mut [&mut Value],
    ) -> GcStats {
        let statics = &mut self.statics;
        let dirty = &mut self.dirty;
        let stats = self.heap.collect(&mut |visit| {
            for v in statics.iter_mut() {
                visit(v);
            }
            for exec in executions.iter_mut() {
                exec.visit_roots(visit);
            }
            for v in extra_roots.iter_mut() {
                visit(v);
            }
            // Dirty-list entries are closure-space objects (never moved),
            // but visit them anyway for robustness.
            for a in dirty.iter_mut() {
                let mut v = Value::Ref(*a);
                visit(&mut v);
                *a = v.as_ref().expect("dirty entry must stay a reference");
            }
        });
        self.gc_log.push(stats);
        tele::complete(
            self.trace_track(),
            tele::EventName::Gc,
            stats.pause,
            &[
                ("copied_bytes", tele::Arg::UInt(stats.live_bytes)),
                ("copied_objects", tele::Arg::UInt(stats.copied_objects)),
                ("cards_scanned", tele::Arg::UInt(stats.cards_scanned)),
                ("freed_bytes", tele::Arg::UInt(stats.freed_bytes)),
            ],
        );
        stats
    }

    /// All collections so far.
    pub fn gc_log(&self) -> &[GcStats] {
        &self.gc_log
    }

    // ----- sync images ------------------------------------------------------

    /// Bring `image` up to date with this instance, in place, so that it
    /// equals `self.clone()` — the recovery snapshot of §4.5, refreshed at
    /// every synchronization point. Returns `true` when that went by
    /// difference: `image` last mirrored this instance, so its heap copies
    /// only what changed since ([`Heap::sync_image`]) and the loaded-class
    /// set and GC log, which only grow, copy just their new entries.
    /// Everything else is small and copied with `clone_from`. An image must
    /// be written by nothing but this method.
    pub fn sync_image(&self, image: &mut VmInstance) -> bool {
        let VmInstance {
            kind,
            heap,
            statics,
            statics_fetched,
            loaded,
            load_log,
            native_states,
            next_handle,
            owned_monitors,
            foreign_monitors,
            dirty,
            counters,
            cost,
            invocations,
            alloc_target,
            gc_log,
            barriers,
            trace_id,
            shadow,
        } = self;
        let by_difference = heap.sync_image(&mut image.heap);
        if by_difference {
            let new = &load_log[image.load_log.len()..];
            for &class in new {
                image.loaded.insert(class);
            }
            image.load_log.extend_from_slice(new);
            image
                .gc_log
                .extend_from_slice(&gc_log[image.gc_log.len()..]);
        } else {
            image.loaded.clone_from(loaded);
            image.load_log.clone_from(load_log);
            image.gc_log.clone_from(gc_log);
        }
        image.kind = *kind;
        image.statics.clone_from(statics);
        image.statics_fetched.clone_from(statics_fetched);
        image.native_states.clone_from(native_states);
        image.next_handle = *next_handle;
        image.owned_monitors.clone_from(owned_monitors);
        image.foreign_monitors.clone_from(foreign_monitors);
        image.dirty.clone_from(dirty);
        image.counters = *counters;
        image.cost = *cost;
        image.invocations.clone_from(invocations);
        image.alloc_target = *alloc_target;
        image.barriers = *barriers;
        image.trace_id = *trace_id;
        image.shadow = *shadow;
        by_difference
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    impl VmInstance {
        /// `true` on FaaS instances, where every reference load checks bit 63.
        fn checks_remote_refs(&self) -> bool {
            self.kind == EndpointKind::Function
        }
    }

    fn tiny_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("A", 2, None);
        pb.method(c, "m", 0, 0, vec![crate::op::Op::Return]);
        pb.static_slot("S");
        pb.finish()
    }

    #[test]
    fn server_has_everything_loaded() {
        let p = tiny_program();
        let vm = VmInstance::server(&p, CostModel::default());
        assert!(vm.is_loaded(crate::ids::ClassId(0)));
        assert!(vm.static_fetched(crate::ids::StaticSlot(0)));
        assert!(!vm.checks_remote_refs());
    }

    #[test]
    fn function_starts_empty() {
        let p = tiny_program();
        let mut vm = VmInstance::function(&p, CostModel::default());
        assert!(!vm.is_loaded(crate::ids::ClassId(0)));
        assert!(!vm.static_fetched(crate::ids::StaticSlot(0)));
        assert!(vm.checks_remote_refs());
        vm.load_class(crate::ids::ClassId(0));
        assert!(vm.is_loaded(crate::ids::ClassId(0)));
    }

    /// A program of `classes` classes and nothing else.
    fn classes_program(classes: u32) -> Program {
        let mut pb = ProgramBuilder::new();
        for c in 0..classes {
            pb.user_class(&format!("C{c}"), 1, None);
        }
        pb.finish()
    }

    #[test]
    fn the_loaded_set_spans_words_and_ends_at_the_last_class() {
        let p = classes_program(130);
        let server = VmInstance::server(&p, CostModel::default());
        let mut func = VmInstance::function(&p, CostModel::default());
        for c in [0, 63, 64, 127, 128, 129] {
            assert!(server.is_loaded(ClassId(c)) && !func.is_loaded(ClassId(c)));
        }
        for c in (0..130).rev() {
            func.load_class(ClassId(c));
            func.load_class(ClassId(c));
        }
        // Loaded once each, in load order, and then equal to the server's.
        assert_eq!(func.load_log.len(), 130);
        assert_eq!(func.load_log[0], ClassId(129));
        assert_eq!(func.loaded, server.loaded);
    }

    #[test]
    #[should_panic(expected = "class 70 is out of range: the program has 70 classes")]
    fn is_loaded_panics_past_the_last_class() {
        let p = classes_program(70);
        VmInstance::server(&p, CostModel::default()).is_loaded(ClassId(70));
    }

    #[test]
    #[should_panic(expected = "class 70 is out of range: the program has 70 classes")]
    fn load_class_panics_past_the_last_class() {
        let p = classes_program(70);
        VmInstance::function(&p, CostModel::default()).load_class(ClassId(70));
    }

    #[test]
    fn sync_image_copies_new_classes_by_difference() {
        let p = classes_program(200);
        let mut func = VmInstance::function(&p, CostModel::default());
        let mut image = VmInstance::function(&Program::default(), CostModel::default());
        func.load_class(ClassId(3));
        assert!(
            !func.sync_image(&mut image),
            "the first image is a full copy"
        );
        assert_eq!(image, func);
        for c in [150, 3, 64, 199] {
            func.load_class(ClassId(c));
        }
        assert!(func.sync_image(&mut image), "a refresh goes by difference");
        assert_eq!(image, func.clone());
        assert!(image.is_loaded(ClassId(199)) && !image.is_loaded(ClassId(198)));
        // Pointed at another instance, the image is copied whole again.
        let other = VmInstance::server(&p, CostModel::default());
        assert!(!other.sync_image(&mut image));
        assert_eq!(image, other);
    }

    #[test]
    fn native_state_round_trip() {
        let p = tiny_program();
        let mut vm = VmInstance::server(&p, CostModel::default());
        let h = vm.register_native_state(NativeState::Socket { proxy_conn_id: 9 });
        assert_eq!(
            vm.native_state(h),
            Some(&NativeState::Socket { proxy_conn_id: 9 })
        );
        assert_eq!(vm.native_state(h + 1), None);
    }

    #[test]
    fn monitor_ownership_semantics() {
        let p = tiny_program();
        let mut server = VmInstance::server(&p, CostModel::default());
        let mut func = VmInstance::function(&p, CostModel::default());
        let obj = Addr(crate::heap::CLOSURE_BASE);
        // Server owns everything by default; functions own nothing.
        assert!(server.owns_monitor(obj));
        assert!(!func.owns_monitor(obj));
        // Hand off to the function.
        server.revoke_monitor(obj);
        func.grant_monitor(obj);
        assert!(!server.owns_monitor(obj));
        assert!(func.owns_monitor(obj));
        // And back.
        func.revoke_monitor(obj);
        server.grant_monitor(obj);
        assert!(server.owns_monitor(obj));
        assert!(!func.owns_monitor(obj));
    }

    #[test]
    fn dirty_tracking_dedups_and_charges_barrier() {
        let p = tiny_program();
        let mut vm = VmInstance::function(&p, CostModel::default());
        let obj = vm
            .heap
            .alloc_object(crate::ids::ClassId(0), 2, Space::Closure)
            .unwrap();
        let c1 = vm.note_write(obj);
        assert!(!c1.is_zero());
        vm.note_write(obj);
        assert_eq!(vm.dirty_len(), 1, "dirty list deduplicates");
        let d = vm.take_dirty();
        assert_eq!(d, vec![obj]);
        assert_eq!(vm.dirty_len(), 0);
        // After the sync the object can become dirty again.
        vm.note_write(obj);
        assert_eq!(vm.dirty_len(), 1);
    }

    #[test]
    fn barriers_off_is_free() {
        let p = tiny_program();
        let mut vm = VmInstance::server(&p, CostModel::default());
        vm.set_barriers(false);
        let obj = vm
            .heap
            .alloc_object(crate::ids::ClassId(0), 2, Space::Closure)
            .unwrap();
        assert_eq!(vm.note_write(obj), Duration::ZERO);
        assert_eq!(vm.dirty_len(), 0);
        assert_eq!(vm.counters.tracked_writes, 0);
    }

    #[test]
    fn warmup_threshold() {
        let p = tiny_program();
        let mut vm = VmInstance::server(&p, CostModel::default());
        let m = MethodId(0);
        for _ in 0..vm.cost.warm_threshold {
            assert!(vm.note_invocation(m), "still cold");
        }
        assert!(!vm.note_invocation(m), "warm now");
    }

    #[test]
    fn collect_roots_statics() {
        let p = tiny_program();
        let mut vm = VmInstance::server(&p, CostModel::default());
        let obj = vm
            .heap
            .alloc_object(crate::ids::ClassId(0), 2, Space::Alloc)
            .unwrap();
        vm.heap.set(obj, 0, Value::I64(11));
        vm.set_static(crate::ids::StaticSlot(0), Value::Ref(obj));
        let stats = vm.collect(&mut [], &mut []);
        assert_eq!(stats.copied_objects, 1);
        let moved = vm.static_value(crate::ids::StaticSlot(0)).as_ref().unwrap();
        assert_eq!(vm.heap.get(moved, 0), Value::I64(11));
    }
}
