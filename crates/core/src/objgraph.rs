//! Object-graph copies between endpoints (§4.1).
//!
//! Two directions:
//!
//! * [`copy_to_function`] — offloading: copy a set of server objects into a
//!   function's closure space; references to objects outside the set are
//!   written with bit 63 set (remote references), and packageable classes
//!   get their native state marshalled through a caller-supplied hook.
//! * [`apply_dirty_to_server`] — synchronization: write a function's dirty
//!   objects back through the mapping table; objects the function created
//!   that escaped into shared state are copied into the server's stable
//!   space and added to the mapping.

use std::collections::{HashSet, VecDeque};

use beehive_sim::FastSet;
use beehive_vm::class::PackKind;
use beehive_vm::heap::Space;
use beehive_vm::program::Program;
use beehive_vm::{Addr, Value, VmInstance};

use crate::mapping::MappingTable;

/// Hook invoked for every packageable native encountered during a copy:
/// given the kind and the server-side native state, it marshals (or refuses
/// to marshal) the state into the function VM, returning the function-side
/// native id.
pub type PackageHook<'a> = dyn FnMut(PackKind, Option<beehive_vm::natives::NativeState>, &mut VmInstance) -> Option<i64>
    + 'a;

/// Outcome of a copy into a function.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CopyReport {
    /// Objects copied.
    pub objects: u64,
    /// Bytes transferred (object payloads + marshalled native state).
    pub bytes: u64,
    /// Native states packed (packageable marshal calls).
    pub natives_packed: u64,
}

/// Outcome of shipping dirty objects back to the server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// Mapped objects whose fields were updated on the server.
    pub updated: u64,
    /// Newly escaped function objects copied into server stable space.
    pub escaped: u64,
    /// Bytes shipped.
    pub bytes: u64,
}

/// Copy the `include` set of server objects (reachable roots of the closure,
/// or a single fetched object) into `func`'s closure space.
///
/// * Already-mapped objects are reused, not duplicated.
/// * References to server objects outside `include` become remote references
///   (bit 63 + server canonical address).
/// * For packageable classes, `on_packageable(kind, state, func)` is invoked
///   with the resolved server-side native state to marshal/unmarshal it; it
///   returns the new handle value on the function (or `None` to copy the
///   stale handle raw, which reproduces the no-packaging ablation).
///
/// # Panics
///
/// Panics if a root is remote-marked or not a valid server object.
pub fn copy_to_function(
    server: &VmInstance,
    func: &mut VmInstance,
    mapping: &mut MappingTable,
    program: &Program,
    include: &HashSet<Addr>,
    on_packageable: &mut PackageHook,
) -> CopyReport {
    let mut report = CopyReport::default();

    // Pass 1: allocate every included object (BFS from the include set
    // itself; inclusion is decided by the set, not reachability).
    let mut order: Vec<Addr> = Vec::new();
    let mut queue: VecDeque<Addr> = {
        let mut sorted: Vec<Addr> = include.iter().copied().collect();
        sorted.sort_unstable(); // deterministic layout
        sorted.into()
    };
    let mut seen: FastSet<Addr> = FastSet::default();
    while let Some(server_addr) = queue.pop_front() {
        assert!(
            !server_addr.is_remote(),
            "include set must hold canonical addresses"
        );
        if !seen.insert(server_addr) {
            continue;
        }
        if mapping.local_of(server_addr).is_some() {
            continue; // already offloaded earlier
        }
        let len = server.heap.len_of(server_addr);
        let local = if server.heap.is_array(server_addr) {
            func.heap
                .alloc_array(len, Space::Closure)
                .expect("closure space is unbounded")
        } else {
            let class = server.heap.class_of(server_addr);
            if !func.is_loaded(class) {
                // Object arrival implies its class becomes known (§3.1: the
                // closure contains code and data).
                func.load_class(class);
                report.bytes += program.class_bytes(class) as u64;
            }
            func.heap
                .alloc_object(class, len, Space::Closure)
                .expect("closure space is unbounded")
        };
        mapping.insert(server_addr, local);
        order.push(server_addr);
        report.objects += 1;
        report.bytes += (1 + len as u64) * 8;
    }

    // Pass 2: fill fields, translating references.
    for server_addr in order {
        let local = mapping.local_of(server_addr).expect("just mapped");
        let len = server.heap.len_of(server_addr);
        let pack_spec = if server.heap.is_array(server_addr) {
            None
        } else {
            program.class(server.heap.class_of(server_addr)).packageable
        };
        for slot in 0..len {
            let v = server.heap.get(server_addr, slot);
            // Packageable handle slot: marshal native state instead of the
            // raw handle.
            if let Some(spec) = pack_spec {
                if spec.handle_slot as u32 == slot {
                    if let Value::I64(server_handle) = v {
                        let state = server.native_state(server_handle as u64).cloned();
                        if let Some(new_handle) = on_packageable(spec.kind, state, func) {
                            func.heap.set(local, slot, Value::I64(new_handle));
                            report.natives_packed += 1;
                            report.bytes += spec.marshalled_bytes as u64;
                            continue;
                        }
                    }
                }
            }
            let tv = match v {
                Value::Null | Value::I64(_) => v,
                Value::Ref(a) => {
                    assert!(!a.is_remote(), "server heap holds no remote refs");
                    match mapping.local_of(a) {
                        Some(l) => Value::Ref(l),
                        None => Value::Ref(a.to_remote()),
                    }
                }
            };
            func.heap.set(local, slot, tv);
        }
    }
    report
}

/// Translate a single server value for installation on a function (statics,
/// returned arguments): mapped references become local, unmapped ones become
/// remote references.
pub fn translate_value_to_function(v: Value, mapping: &MappingTable) -> Value {
    match v {
        Value::Ref(a) if !a.is_remote() => match mapping.local_of(a) {
            Some(l) => Value::Ref(l),
            None => Value::Ref(a.to_remote()),
        },
        other => other,
    }
}

/// Ship a function's dirty objects back to the server (at a synchronization
/// point or on completion, §4.2).
///
/// Field values are translated local→server; function-created objects that
/// escaped into shared fields are copied into the server's stable (closure)
/// space and added to the mapping. Packageable handle slots are skipped —
/// native handles are endpoint-local.
///
/// # Panics
///
/// Panics if a dirty object is not in the mapping (dirty objects are always
/// closure-space objects, which are mapped by construction).
pub fn apply_dirty_to_server(
    func: &VmInstance,
    server: &mut VmInstance,
    mapping: &mut MappingTable,
    program: &Program,
    dirty: &[Addr],
) -> ApplyReport {
    let mut report = ApplyReport::default();

    // Discover escaped objects first: function-local, allocation- or
    // closure-space objects reachable from dirty fields that have no server
    // counterpart yet.
    let mut escape_order: Vec<Addr> = Vec::new();
    let mut queue: VecDeque<Addr> = dirty.iter().copied().collect();
    let mut seen: FastSet<Addr> = FastSet::default();
    while let Some(local) = queue.pop_front() {
        if !seen.insert(local) {
            continue;
        }
        if mapping.server_of(local).is_none() {
            // Escaped object: allocate a server-side twin in stable space.
            let len = func.heap.len_of(local);
            let server_addr = if func.heap.is_array(local) {
                server
                    .heap
                    .alloc_array(len, Space::Closure)
                    .expect("closure space is unbounded")
            } else {
                server
                    .heap
                    .alloc_object(func.heap.class_of(local), len, Space::Closure)
                    .expect("closure space is unbounded")
            };
            mapping.insert(server_addr, local);
            escape_order.push(local);
            report.escaped += 1;
        }
        // Scan fields for further local references.
        for slot in 0..func.heap.len_of(local) {
            if let Value::Ref(a) = func.heap.get(local, slot) {
                if !a.is_remote() {
                    queue.push_back(a);
                }
            }
        }
    }

    // Write back: dirty objects update their mapped twins; escaped objects
    // fill their fresh twins.
    let mut write_back = |local: Addr, report: &mut ApplyReport| {
        let server_addr = mapping.server_of(local).expect("mapped by now");
        let len = func.heap.len_of(local);
        let pack_spec = if func.heap.is_array(local) {
            None
        } else {
            program.class(func.heap.class_of(local)).packageable
        };
        for slot in 0..len {
            if let Some(spec) = pack_spec {
                if spec.handle_slot as u32 == slot {
                    continue; // native handles never travel raw
                }
            }
            let v = func.heap.get(local, slot);
            let tv = match v {
                Value::Null | Value::I64(_) => v,
                Value::Ref(a) if a.is_remote() => Value::Ref(a.to_local()),
                Value::Ref(a) => Value::Ref(
                    mapping
                        .server_of(a)
                        .expect("reachable locals were escaped or mapped"),
                ),
            };
            server.heap.set(server_addr, slot, tv);
        }
        report.bytes += (1 + len as u64) * 8;
    };

    for &local in dirty {
        write_back(local, &mut report);
        report.updated += 1;
    }
    for &local in &escape_order {
        if !dirty.contains(&local) {
            write_back(local, &mut report);
        }
    }
    report
}

/// Translate the set of server objects updated by one endpoint into another
/// endpoint's address space, updating any objects the target has mapped
/// (used for function→function synchronization through the server, Fig. 6).
///
/// Only objects the target already holds are refreshed; everything else
/// stays remote and will be fetched on demand.
pub fn refresh_mapped_objects(
    server: &VmInstance,
    target: &mut VmInstance,
    mapping: &MappingTable,
    program: &Program,
    server_objects: &[Addr],
) -> u64 {
    let mut refreshed = 0;
    for &server_addr in server_objects {
        let Some(local) = mapping.local_of(server_addr) else {
            continue;
        };
        let len = server.heap.len_of(server_addr);
        let pack_spec = if server.heap.is_array(server_addr) {
            None
        } else {
            program.class(server.heap.class_of(server_addr)).packageable
        };
        for slot in 0..len {
            if let Some(spec) = pack_spec {
                if spec.handle_slot as u32 == slot {
                    continue;
                }
            }
            let v = server.heap.get(server_addr, slot);
            let tv = translate_value_to_function(v, mapping);
            target.heap.set(local, slot, tv);
        }
        refreshed += 1;
    }
    refreshed
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_vm::class::PackSpec;
    use beehive_vm::natives::NativeState;
    use beehive_vm::program::ProgramBuilder;
    use beehive_vm::{ClassId, CostModel};

    struct World {
        program: Program,
        server: VmInstance,
        func: VmInstance,
        node: ClassId,
        sock: ClassId,
    }

    fn world() -> World {
        let mut pb = ProgramBuilder::new();
        let node = pb.user_class("Node", 3, None);
        let sock = pb.jdk_class("SocketImpl", 2);
        pb.make_packageable(
            sock,
            PackSpec {
                handle_slot: 0,
                kind: PackKind::Socket,
                marshalled_bytes: 64,
            },
        );
        pb.method(node, "noop", 0, 0, vec![beehive_vm::Op::Return]);
        let program = pb.finish();
        let server = VmInstance::server(&program, CostModel::default());
        let func = VmInstance::function(&program, CostModel::default());
        World {
            program,
            server,
            func,
            node,
            sock,
        }
    }

    fn alloc_node(w: &mut World, space: Space) -> Addr {
        w.server.heap.alloc_object(w.node, 3, space).unwrap()
    }

    #[test]
    fn copy_marks_excluded_refs_remote() {
        let mut w = world();
        let a = alloc_node(&mut w, Space::Closure);
        let b = alloc_node(&mut w, Space::Closure);
        let c = alloc_node(&mut w, Space::Closure);
        w.server.heap.set(a, 0, Value::Ref(b));
        w.server.heap.set(a, 1, Value::Ref(c));
        w.server.heap.set(b, 0, Value::I64(5));

        let include: HashSet<Addr> = [a, b].into_iter().collect();
        let mut mapping = MappingTable::new();
        let report = copy_to_function(
            &w.server,
            &mut w.func,
            &mut mapping,
            &w.program,
            &include,
            &mut |_, _, _| None,
        );
        assert_eq!(report.objects, 2);
        let la = mapping.local_of(a).unwrap();
        let lb = mapping.local_of(b).unwrap();
        // a.f0 -> local b
        assert_eq!(w.func.heap.get(la, 0), Value::Ref(lb));
        // a.f1 -> remote c
        assert_eq!(w.func.heap.get(la, 1), Value::Ref(c.to_remote()));
        // b payload copied
        assert_eq!(w.func.heap.get(lb, 0), Value::I64(5));
        // class got "loaded" on the function
        assert!(w.func.is_loaded(w.node));
    }

    #[test]
    fn copy_is_idempotent_for_mapped_objects() {
        let mut w = world();
        let a = alloc_node(&mut w, Space::Closure);
        let include: HashSet<Addr> = [a].into_iter().collect();
        let mut mapping = MappingTable::new();
        let r1 = copy_to_function(
            &w.server,
            &mut w.func,
            &mut mapping,
            &w.program,
            &include,
            &mut |_, _, _| None,
        );
        let r2 = copy_to_function(
            &w.server,
            &mut w.func,
            &mut mapping,
            &w.program,
            &include,
            &mut |_, _, _| None,
        );
        assert_eq!(r1.objects, 1);
        assert_eq!(r2.objects, 0, "second copy reuses the mapping");
    }

    #[test]
    fn packageable_socket_is_marshalled() {
        let mut w = world();
        let conn = w
            .server
            .heap
            .alloc_object(w.sock, 2, Space::Closure)
            .unwrap();
        let server_handle = w
            .server
            .register_native_state(NativeState::Socket { proxy_conn_id: 1 });
        w.server.heap.set(conn, 0, Value::I64(server_handle as i64));

        let include: HashSet<Addr> = [conn].into_iter().collect();
        let mut mapping = MappingTable::new();
        let mut packed = Vec::new();
        let report = copy_to_function(
            &w.server,
            &mut w.func,
            &mut mapping,
            &w.program,
            &include,
            &mut |kind, state, func| {
                packed.push((kind, state));
                // Pretend the proxy prepared offload id 77.
                Some(func.register_native_state(NativeState::Socket { proxy_conn_id: 77 }) as i64)
            },
        );
        assert_eq!(report.natives_packed, 1);
        assert_eq!(
            packed,
            vec![(
                PackKind::Socket,
                Some(NativeState::Socket { proxy_conn_id: 1 })
            )]
        );
        let _ = server_handle;
        let local = mapping.local_of(conn).unwrap();
        let new_handle = w.func.heap.get(local, 0).as_i64().unwrap() as u64;
        assert_eq!(
            w.func.native_state(new_handle),
            Some(&NativeState::Socket { proxy_conn_id: 77 })
        );
    }

    #[test]
    fn dirty_objects_write_back_through_mapping() {
        let mut w = world();
        let a = alloc_node(&mut w, Space::Closure);
        w.server.heap.set(a, 0, Value::I64(1));
        let include: HashSet<Addr> = [a].into_iter().collect();
        let mut mapping = MappingTable::new();
        copy_to_function(
            &w.server,
            &mut w.func,
            &mut mapping,
            &w.program,
            &include,
            &mut |_, _, _| None,
        );
        let la = mapping.local_of(a).unwrap();
        // The function mutates its copy.
        w.func.heap.set(la, 0, Value::I64(42));
        let report = apply_dirty_to_server(&w.func, &mut w.server, &mut mapping, &w.program, &[la]);
        assert_eq!(report.updated, 1);
        assert_eq!(w.server.heap.get(a, 0), Value::I64(42));
    }

    #[test]
    fn escaped_function_objects_are_materialized_on_server() {
        let mut w = world();
        let shared = alloc_node(&mut w, Space::Closure);
        let include: HashSet<Addr> = [shared].into_iter().collect();
        let mut mapping = MappingTable::new();
        copy_to_function(
            &w.server,
            &mut w.func,
            &mut mapping,
            &w.program,
            &include,
            &mut |_, _, _| None,
        );
        let lshared = mapping.local_of(shared).unwrap();

        // The function creates a new object and links it into shared state.
        let fresh = w.func.heap.alloc_object(w.node, 3, Space::Alloc).unwrap();
        w.func.heap.set(fresh, 0, Value::I64(99));
        w.func.heap.set(lshared, 1, Value::Ref(fresh));

        let report =
            apply_dirty_to_server(&w.func, &mut w.server, &mut mapping, &w.program, &[lshared]);
        assert_eq!(report.escaped, 1);
        let server_fresh = w.server.heap.get(shared, 1).as_ref().unwrap();
        assert!(!server_fresh.is_remote());
        assert_eq!(w.server.heap.get(server_fresh, 0), Value::I64(99));
        assert_eq!(mapping.server_of(fresh), Some(server_fresh));
    }

    #[test]
    fn remote_refs_written_back_become_canonical() {
        let mut w = world();
        let a = alloc_node(&mut w, Space::Closure);
        let other = alloc_node(&mut w, Space::Closure); // never offloaded
        let include: HashSet<Addr> = [a].into_iter().collect();
        let mut mapping = MappingTable::new();
        copy_to_function(
            &w.server,
            &mut w.func,
            &mut mapping,
            &w.program,
            &include,
            &mut |_, _, _| None,
        );
        let la = mapping.local_of(a).unwrap();
        // The function stores a remote ref (it never fetched `other`).
        w.func.heap.set(la, 2, Value::Ref(other.to_remote()));
        apply_dirty_to_server(&w.func, &mut w.server, &mut mapping, &w.program, &[la]);
        assert_eq!(w.server.heap.get(a, 2), Value::Ref(other));
    }

    #[test]
    fn translate_value_helper() {
        let mut w = world();
        let a = alloc_node(&mut w, Space::Closure);
        let mut mapping = MappingTable::new();
        assert_eq!(
            translate_value_to_function(Value::Ref(a), &mapping),
            Value::Ref(a.to_remote())
        );
        let include: HashSet<Addr> = [a].into_iter().collect();
        copy_to_function(
            &w.server,
            &mut w.func,
            &mut mapping,
            &w.program,
            &include,
            &mut |_, _, _| None,
        );
        let la = mapping.local_of(a).unwrap();
        assert_eq!(
            translate_value_to_function(Value::Ref(a), &mapping),
            Value::Ref(la)
        );
        assert_eq!(
            translate_value_to_function(Value::I64(7), &mapping),
            Value::I64(7)
        );
    }

    #[test]
    fn refresh_updates_only_mapped_objects() {
        let mut w = world();
        let a = alloc_node(&mut w, Space::Closure);
        let b = alloc_node(&mut w, Space::Closure);
        w.server.heap.set(a, 0, Value::I64(1));
        let include: HashSet<Addr> = [a].into_iter().collect();
        let mut mapping = MappingTable::new();
        copy_to_function(
            &w.server,
            &mut w.func,
            &mut mapping,
            &w.program,
            &include,
            &mut |_, _, _| None,
        );
        // Server-side state moves on.
        w.server.heap.set(a, 0, Value::I64(2));
        w.server.heap.set(b, 0, Value::I64(3));
        let n = refresh_mapped_objects(&w.server, &mut w.func, &mapping, &w.program, &[a, b]);
        assert_eq!(n, 1, "only `a` is mapped");
        let la = mapping.local_of(a).unwrap();
        assert_eq!(w.func.heap.get(la, 0), Value::I64(2));
    }
}
