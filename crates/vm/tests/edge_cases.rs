//! Edge-case tests for the interpreter: volatile statics (JMM sync points),
//! arithmetic corner cases, operand restoration across retries, and API
//! misuse panics.

use beehive_vm::program::ProgramBuilder;
use beehive_vm::{Asm, Block, CostModel, Execution, Op, Outcome, Value, VmInstance};

#[test]
fn volatile_statics_are_plain_accesses_on_the_server() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    let s = pb.static_slot("FLAG");
    let mut a = Asm::new();
    a.const_i(5).put_static_volatile(s);
    a.get_static_volatile(s).const_i(1).add().return_val();
    let m = pb.method(c, "m", 0, 0, a.finish());
    let p = pb.finish();
    let mut vm = VmInstance::server(&p, CostModel::default());
    let mut e = Execution::call(m, vec![], &p);
    let r = e.run(&mut vm, &p);
    assert!(matches!(r.outcome, Outcome::Done(Value::I64(6))));
}

#[test]
fn volatile_statics_synchronize_on_functions() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    let s = pb.static_slot("FLAG");
    let mut a = Asm::new();
    a.get_static_volatile(s).const_i(1).add().return_val();
    let m = pb.method(c, "m", 0, 0, a.finish());
    let p = pb.finish();

    let mut vm = VmInstance::function(&p, CostModel::default());
    vm.load_class(c);
    let mut e = Execution::call(m, vec![], &p);
    // First: the volatile access is a synchronization point.
    let r = e.run(&mut vm, &p);
    assert_eq!(
        r.outcome,
        Outcome::Blocked(Block::VolatileSync {
            slot: s,
            is_write: false
        })
    );
    // The embedder performs the sync, installs the value, grants the
    // one-shot permit and resumes.
    vm.install_static(s, Value::I64(41));
    e.grant_sync_permit();
    e.resume();
    let r = e.run(&mut vm, &p);
    assert!(matches!(r.outcome, Outcome::Done(Value::I64(42))));
}

#[test]
fn every_volatile_access_is_its_own_sync_point() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    let s = pb.static_slot("FLAG");
    let mut a = Asm::new();
    a.get_static_volatile(s).pop();
    a.get_static_volatile(s).return_val();
    let m = pb.method(c, "m", 0, 0, a.finish());
    let p = pb.finish();
    let mut vm = VmInstance::function(&p, CostModel::default());
    vm.load_class(c);
    vm.install_static(s, Value::I64(9));
    let mut e = Execution::call(m, vec![], &p);
    let mut syncs = 0;
    loop {
        match e.run(&mut vm, &p).outcome {
            Outcome::Blocked(Block::VolatileSync { .. }) => {
                syncs += 1;
                e.grant_sync_permit();
                e.resume();
            }
            Outcome::Done(v) => {
                assert_eq!(v, Value::I64(9));
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(syncs, 2, "the permit is one-shot");
}

#[test]
fn division_and_remainder_by_zero_yield_zero() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    let mut a = Asm::new();
    a.const_i(7).const_i(0).div();
    a.const_i(7).const_i(0).rem();
    a.add().return_val();
    let m = pb.method(c, "m", 0, 0, a.finish());
    let p = pb.finish();
    let mut vm = VmInstance::server(&p, CostModel::default());
    let mut e = Execution::call(m, vec![], &p);
    assert!(matches!(
        e.run(&mut vm, &p).outcome,
        Outcome::Done(Value::I64(0))
    ));
}

#[test]
fn cmp_eq_works_on_references_and_null() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 1, None);
    // new o; (o == o) + (o == null) + (null == null) => 1 + 0 + 1 = 2
    let mut a = Asm::new();
    a.new_obj(c).store(0);
    a.load(0).load(0).cmp_eq();
    a.load(0).const_null().cmp_eq().add();
    a.const_null().const_null().cmp_eq().add().return_val();
    let m = pb.method(c, "m", 0, 1, a.finish());
    let p = pb.finish();
    let mut vm = VmInstance::server(&p, CostModel::default());
    let mut e = Execution::call(m, vec![], &p);
    assert!(matches!(
        e.run(&mut vm, &p).outcome,
        Outcome::Done(Value::I64(2))
    ));
}

#[test]
fn negative_stub_selectors_wrap() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    let mut t0 = Asm::new();
    t0.const_i(10).return_val();
    let m0 = pb.method(c, "t0", 0, 0, t0.finish());
    let mut t1 = Asm::new();
    t1.const_i(20).return_val();
    let m1 = pb.method(c, "t1", 0, 0, t1.finish());
    let stub = pb.stub("s", vec![m0, m1]);
    let mut a = Asm::new();
    a.const_i(-3).call_stub(stub).return_val(); // |-3| % 2 = 1 -> t1
    let m = pb.method(c, "m", 0, 0, a.finish());
    let p = pb.finish();
    let mut vm = VmInstance::server(&p, CostModel::default());
    let mut e = Execution::call(m, vec![], &p);
    assert!(matches!(
        e.run(&mut vm, &p).outcome,
        Outcome::Done(Value::I64(20))
    ));
}

#[test]
fn deep_recursion_uses_explicit_frames() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    // f(n) = n == 0 ? 0 : f(n - 1) + 1, assembled with a self-call.
    let mut a = Asm::new();
    a.load(0);
    let base = a.jump_if_zero_fwd();
    a.load(0).const_i(1).sub();
    a.call(beehive_vm::MethodId(0)); // self (first method gets id 0)
    a.const_i(1).add().return_val();
    a.bind(base);
    a.const_i(0).return_val();
    let m = pb.method(c, "f", 1, 0, a.finish());
    assert_eq!(m, beehive_vm::MethodId(0));
    let p = pb.finish();
    let mut vm = VmInstance::server(&p, CostModel::default());
    // 20k frames would overflow a host stack if the interpreter recursed.
    let mut e = Execution::call(m, vec![Value::I64(20_000)], &p);
    assert!(matches!(
        e.run(&mut vm, &p).outcome,
        Outcome::Done(Value::I64(20_000))
    ));
}

#[test]
#[should_panic(expected = "not retry-blocked")]
fn resume_without_block_panics() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    let mut a = Asm::new();
    a.const_i(1).return_val();
    let m = pb.method(c, "m", 0, 0, a.finish());
    let p = pb.finish();
    let mut e = Execution::call(m, vec![], &p);
    e.resume();
}

#[test]
#[should_panic(expected = "blocked; resume first")]
fn run_while_blocked_panics() {
    let mut pb = ProgramBuilder::new();
    let root = pb.user_class("Root", 0, None);
    let dep = pb.framework_class("Dep", 0);
    let mut d = Asm::new();
    d.const_i(1).return_val();
    let dm = pb.method(dep, "d", 0, 0, d.finish());
    let mut a = Asm::new();
    a.call(dm).return_val();
    let m = pb.method(root, "m", 0, 0, a.finish());
    let p = pb.finish();
    let mut vm = VmInstance::function(&p, CostModel::default());
    vm.load_class(root);
    let mut e = Execution::call(m, vec![], &p);
    assert!(matches!(e.run(&mut vm, &p).outcome, Outcome::Blocked(_)));
    let _ = e.run(&mut vm, &p); // must panic: still blocked
}

#[test]
fn arraycopy_clamps_out_of_range_requests() {
    use beehive_sim::Duration;
    use beehive_vm::natives::{NativeCategory, NativeEffect};
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    let copy = pb.native(
        "System.arraycopy",
        NativeCategory::PureOnHeap,
        Duration::from_nanos(50),
        NativeEffect::ArrayCopy,
    );
    let mut a = Asm::new();
    a.const_i(4).new_array().store(0);
    a.const_i(2).new_array().store(1);
    a.load(0).const_i(2).const_i(7).arr_store(); // src[2] = 7
    a.load(0).const_i(3).const_i(99).arr_store(); // src[3] = 99
                                                  // Ask for 10 elements from src[2] into dst[1]: only 1 fits (dst len 2).
    a.load(0)
        .const_i(2)
        .load(1)
        .const_i(1)
        .const_i(10)
        .native(copy)
        .pop();
    a.load(1).const_i(1).arr_load().return_val();
    let m = pb.method(c, "m", 0, 2, a.finish());
    let p = pb.finish();
    let mut vm = VmInstance::server(&p, CostModel::default());
    let mut e = Execution::call(m, vec![], &p);
    // Exactly src[2] was copied into dst[1]; src[3] stayed out of range and
    // nothing wrote past dst's bounds (no panic).
    assert!(matches!(
        e.run(&mut vm, &p).outcome,
        Outcome::Done(Value::I64(7))
    ));
}

#[test]
fn work_op_charges_exactly_its_nanos_when_warm() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    let mut a = Asm::new();
    a.work(100_000).const_i(0).return_val();
    let m = pb.method(c, "m", 0, 0, a.finish());
    let p = pb.finish();
    let mut vm = VmInstance::server(&p, CostModel::default());
    // Warm the method first.
    for _ in 0..=vm.cost.warm_threshold {
        let mut e = Execution::call(m, vec![], &p);
        e.run(&mut vm, &p);
    }
    let mut e = Execution::call(m, vec![], &p);
    let r = e.run(&mut vm, &p);
    let cpu = r.cpu.as_nanos();
    // 100us of Work plus a handful of op costs.
    assert!((100_000..100_200).contains(&cpu), "cpu {cpu}");
}

#[test]
fn op_return_pushes_null_to_caller() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    let callee = pb.method(c, "void_fn", 0, 0, vec![Op::Return]);
    let mut a = Asm::new();
    a.call(callee).const_null().cmp_eq().return_val();
    let m = pb.method(c, "m", 0, 0, a.finish());
    let p = pb.finish();
    let mut vm = VmInstance::server(&p, CostModel::default());
    let mut e = Execution::call(m, vec![], &p);
    assert!(matches!(
        e.run(&mut vm, &p).outcome,
        Outcome::Done(Value::I64(1))
    ));
}

// ----- frame-resident dispatch loop: frame entry / exit edges ---------------

use beehive_vm::heap::Space;
use beehive_vm::natives::{NativeCategory, NativeEffect};
use beehive_vm::{Addr, Duration, Provenance};

#[test]
fn a_block_on_the_first_op_of_a_callee_retries_inside_the_callee() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    let s = pb.static_slot("CONFIG");
    let mut callee = Asm::new();
    callee.get_static(s).load(0).add().return_val();
    let f = pb.method(c, "f", 1, 0, callee.finish());
    let mut a = Asm::new();
    a.const_i(100).const_i(5).call(f).add().return_val();
    let m = pb.method(c, "m", 0, 0, a.finish());
    let p = pb.finish();
    let mut vm = VmInstance::function(&p, CostModel::default());
    vm.load_class(c);
    let mut e = Execution::call(m, vec![], &p);
    let r = e.run(&mut vm, &p);
    assert_eq!(r.outcome, Outcome::Blocked(Block::RemoteStatic { slot: s }));
    // The frame was entered and stopped on its first instruction; the
    // caller already points past the call.
    assert_eq!(e.depth(), 2);
    assert_eq!((e.frames()[1].method(), e.frames()[1].pc()), (f, 0));
    assert_eq!(e.frames()[0].pc(), 3);
    let ops_before = vm.counters.ops;
    vm.install_static(s, Value::I64(30));
    e.resume();
    let r = e.run(&mut vm, &p);
    assert_eq!(r.outcome, Outcome::Done(Value::I64(135)));
    // The retried op is counted (and charged) again: get_static, load, add,
    // return_val in the callee, then add, return_val in the caller.
    assert_eq!(vm.counters.ops - ops_before, 6);
}

#[test]
fn call_stub_to_an_unloaded_class_retries_with_the_selector_intact() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    let dep = pb.framework_class("Interceptor", 0);
    let mut t0 = Asm::new();
    t0.const_i(10).return_val();
    let m0 = pb.method(c, "t0", 0, 0, t0.finish());
    let mut t1 = Asm::new();
    t1.const_i(20).return_val();
    let m1 = pb.method(dep, "t1", 0, 0, t1.finish());
    let stub = pb.stub("MethodInterceptor", vec![m0, m1]);
    let mut a = Asm::new();
    a.const_i(7).const_i(1).call_stub(stub).add().return_val();
    let m = pb.method(c, "m", 0, 0, a.finish());
    let p = pb.finish();
    let mut vm = VmInstance::function(&p, CostModel::default());
    vm.load_class(c);
    let mut e = Execution::call(m, vec![], &p);
    let r = e.run(&mut vm, &p);
    assert_eq!(
        r.outcome,
        Outcome::Blocked(Block::MissingClass { class: dep })
    );
    // Both operands (7 and the selector) are still on the stack, and the pc
    // is still on the stub call.
    assert_eq!(e.stack_bytes(), (2 + 2) * 8);
    assert_eq!(e.frames()[0].pc(), 2);
    vm.load_class(dep);
    e.resume();
    let r = e.run(&mut vm, &p);
    assert_eq!(r.outcome, Outcome::Done(Value::I64(27)), "selector 1 -> t1");
}

#[test]
fn gc_needed_restores_the_new_array_length_operand() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    // Two arrays that each need more than half the function heap: the second
    // allocation must collect the first (garbage) before it fits.
    let len = (beehive_vm::instance::FUNCTION_ALLOC_BYTES / 8 / 2 + 1024) as i64;
    let mut a = Asm::new();
    a.const_i(len).new_array().pop();
    a.const_i(len).new_array().arr_len().return_val();
    let m = pb.method(c, "m", 0, 0, a.finish());
    let p = pb.finish();
    let mut vm = VmInstance::function(&p, CostModel::default());
    vm.load_class(c);
    let mut e = Execution::call(m, vec![], &p);
    let r = e.run(&mut vm, &p);
    assert_eq!(
        r.outcome,
        Outcome::Blocked(Block::GcNeeded { slots: len as u32 })
    );
    assert_eq!(
        e.stack_bytes(),
        (1 + 2) * 8,
        "the length is back on the stack"
    );
    vm.collect(&mut [&mut e], &mut []);
    e.resume();
    let r = e.run(&mut vm, &p);
    assert_eq!(r.outcome, Outcome::Done(Value::I64(len)));
}

#[test]
fn methods_turn_warm_on_exactly_the_invocation_after_the_threshold() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    let mut callee = Asm::new();
    callee.work(1000).const_i(0).return_val();
    let f = pb.method(c, "f", 0, 0, callee.finish());
    let mut a = Asm::new();
    a.call(f).return_val();
    let m = pb.method(c, "m", 0, 0, a.finish());
    let p = pb.finish();
    let mut vm = VmInstance::server(&p, CostModel::default());
    let cost = vm.cost;
    // call + return_val in the root; work + const + return_val in the callee.
    let warm = cost.call_op * 3 + cost.simple_op + Duration::from_nanos(1000);
    let cold = warm * cost.cold_multiplier as u64;
    for invocation in 1..=cost.warm_threshold + 3 {
        let mut e = Execution::call(m, vec![], &p);
        let r = e.run(&mut vm, &p);
        let want = if invocation <= cost.warm_threshold {
            cold
        } else {
            warm
        };
        assert_eq!(r.cpu, want, "invocation {invocation}");
    }
}

/// root(a0) → f1(x) → f2(y, z), each frame holding operands across its call;
/// f2 stops on a native fallback. Returns (program, root, [f1, f2]).
fn three_deep() -> (
    beehive_vm::program::Program,
    beehive_vm::MethodId,
    [beehive_vm::MethodId; 2],
    beehive_vm::ClassId,
) {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("Node", 1, None);
    let file_read = pb.native(
        "FileInputStream.read0",
        NativeCategory::NonOffloadable,
        Duration::from_nanos(100),
        NativeEffect::FileAccess,
    );
    // f2(y, z): r = read(); l = r; return l.f0 + y + z      (2 params, 1 local)
    let mut a2 = Asm::new();
    a2.native(file_read).store(2);
    a2.load(2)
        .get_field(0)
        .load(0)
        .add()
        .load(1)
        .add()
        .return_val();
    let f2 = pb.method(c, "f2", 2, 1, a2.finish());
    // f1(x): l1 = x + 1; return 30 + (40 + f2(x, l1))       (1 param, 2 locals)
    let mut a1 = Asm::new();
    a1.load(0).const_i(1).add().store(1);
    a1.const_i(30).const_i(40).load(0).load(1).call(f2);
    a1.add().add().return_val();
    let f1 = pb.method(c, "f1", 1, 2, a1.finish());
    // root(a0): l1 = 9; return 7 + f1(a0) + l1                (1 param, 1 local)
    let mut a0 = Asm::new();
    a0.const_i(9).store(1);
    a0.const_i(7)
        .load(0)
        .call(f1)
        .add()
        .load(1)
        .add()
        .return_val();
    let root = pb.method(c, "root", 1, 1, a0.finish());
    (pb.finish(), root, [f1, f2], c)
}

fn roots(e: &mut Execution) -> Vec<Value> {
    let mut seen = Vec::new();
    e.visit_roots(&mut |v| seen.push(*v));
    seen
}

#[test]
fn three_deep_frames_keep_their_windows_roots_and_wire_size() {
    let (p, root, [f1, f2], c) = three_deep();
    let mut vm = VmInstance::function(&p, CostModel::default());
    vm.load_class(c);
    let mut e = Execution::call(root, vec![Value::I64(5)], &p);
    let r = e.run(&mut vm, &p);
    assert!(matches!(
        r.outcome,
        Outcome::Blocked(Block::NativeFallback { .. })
    ));
    assert_eq!(e.depth(), 3);
    let methods: Vec<_> = e.frames().iter().map(|f| f.method()).collect();
    assert_eq!(methods, vec![root, f1, f2]);
    // Every local and operand of every frame, outermost first: root's
    // locals [5, 9] + operand [7]; f1's locals [5, 6, null] + operands
    // [30, 40]; f2's locals [5, 6, null] and no operands.
    let i = Value::I64;
    assert_eq!(
        roots(&mut e),
        vec![
            i(5),
            i(9),
            i(7),
            i(5),
            i(6),
            Value::Null,
            i(30),
            i(40),
            i(5),
            i(6),
            Value::Null
        ]
    );
    // The pre-campaign formula: Σ (locals + operands + 2) × 8 per frame.
    let old_formula = ((2 + 1 + 2) + (3 + 2 + 2) + (3 + 2)) * 8;
    assert_eq!(e.stack_bytes(), old_formula);
    // A snapshot clone is independent of the live execution.
    let snapshot = e.clone();

    // The fallback's result is a remote reference: storing it is free, the
    // load that follows must name frame 2 (not the top of some other stack).
    let obj = vm.heap.alloc_object(c, 1, Space::Closure).unwrap();
    vm.heap.set(obj, 0, i(1000));
    let remote = Addr(beehive_vm::heap::CLOSURE_BASE + 0x4000).to_remote();
    e.resume_with(Value::Ref(remote));
    let r = e.run(&mut vm, &p);
    assert_eq!(
        r.outcome,
        Outcome::Blocked(Block::RemoteRef {
            addr: remote,
            prov: Provenance::Local { frame: 2, slot: 2 }
        })
    );
    assert_eq!(roots(&mut e)[10], Value::Ref(remote));
    assert_eq!(*e.local_mut(2, 2), Value::Ref(remote));
    assert_eq!(*e.local_mut(1, 1), i(6));
    assert_eq!(*e.local_mut(0, 1), i(9));
    *e.local_mut(2, 2) = Value::Ref(obj);
    e.resume();
    let r = e.run(&mut vm, &p);
    // f2 = 1000 + 5 + 6; f1 = 30 + (40 + 1011); root = 7 + 1081 + 9.
    assert_eq!(r.outcome, Outcome::Done(i(1097)));
    assert_eq!(e.depth(), 0);
    assert!(roots(&mut e).is_empty());
    assert_eq!(e.stack_bytes(), 0);

    // The snapshot still sits at the fallback with all three frames.
    let mut e = snapshot;
    assert_eq!(e.depth(), 3);
    assert_eq!(e.stack_bytes(), old_formula);
    e.resume_with(Value::Ref(obj));
    let r = e.run(&mut vm, &p);
    assert_eq!(r.outcome, Outcome::Done(i(1097)));
}

#[test]
#[should_panic(expected = "index out of bounds: the len is 3")]
fn local_mut_cannot_reach_into_the_operand_window() {
    let (p, root, _, c) = three_deep();
    let mut vm = VmInstance::function(&p, CostModel::default());
    vm.load_class(c);
    let mut e = Execution::call(root, vec![Value::I64(5)], &p);
    e.run(&mut vm, &p);
    // f1 has three local slots; slot 3 is its first operand (30).
    e.local_mut(1, 3);
}

#[test]
#[should_panic(expected = "operand stack underflow")]
fn a_callee_cannot_pop_its_callers_operands() {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("A", 0, None);
    // The callee pops with nothing pushed; the caller's 7 sits right below.
    let bad = pb.method(c, "bad", 0, 0, vec![Op::Pop, Op::Return]);
    let mut a = Asm::new();
    a.const_i(7).call(bad).return_val();
    let m = pb.method(c, "m", 0, 0, a.finish());
    let p = pb.finish();
    let mut vm = VmInstance::server(&p, CostModel::default());
    Execution::call(m, vec![], &p).run(&mut vm, &p);
}

#[test]
#[should_panic(expected = "method#7 is outside the program (3 methods)")]
fn an_invocation_of_an_unknown_method_id_names_it() {
    let (p, ..) = three_deep();
    let mut vm = VmInstance::server(&p, CostModel::default());
    vm.note_invocation(beehive_vm::MethodId(7));
}
