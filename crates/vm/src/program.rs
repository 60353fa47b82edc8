//! Whole-program containers and the builder the applications use.

use std::collections::HashMap;

use beehive_sim::Duration;

use crate::class::{ClassDef, MethodBody, MethodDef, Origin, PackSpec, StubDef};
use crate::ids::{ClassId, MethodId, NativeId, StaticSlot, StubId};
use crate::natives::{NativeCategory, NativeDef, NativeEffect};
use crate::op::Op;

/// A static variable declaration.
#[derive(Clone, Debug)]
pub struct StaticDef {
    /// Diagnostic name.
    pub name: String,
    /// Whether reads/writes are volatile by default (unused; volatility is
    /// per-op).
    pub volatile: bool,
}

/// An immutable, fully linked program: classes, methods, natives, stubs,
/// statics. Shared (by reference) between the server VM and every function
/// VM; *availability* of code on an endpoint is tracked per-instance, and
/// transfer costs are charged from the recorded sizes.
#[derive(Debug, Default)]
pub struct Program {
    pub(crate) classes: Vec<ClassDef>,
    pub(crate) methods: Vec<MethodDef>,
    pub(crate) natives: Vec<NativeDef>,
    pub(crate) stubs: Vec<StubDef>,
    pub(crate) statics: Vec<StaticDef>,
    name_to_method: HashMap<String, MethodId>,
}

impl Program {
    /// The class definition for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn class(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.index()]
    }

    /// The method definition for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn method(&self, id: MethodId) -> &MethodDef {
        &self.methods[id.index()]
    }

    /// The native descriptor for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn native(&self, id: NativeId) -> &NativeDef {
        &self.natives[id.index()]
    }

    /// The stub definition for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn stub(&self, id: StubId) -> &StubDef {
        &self.stubs[id.index()]
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of methods.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of static slots.
    pub fn static_count(&self) -> usize {
        self.statics.len()
    }

    /// Look up a method by the `Class.method` name given at build time.
    pub fn method_by_name(&self, name: &str) -> Option<MethodId> {
        self.name_to_method.get(name).copied()
    }

    /// All methods carrying a framework annotation — the *offloading
    /// candidates* of §4.3.
    pub fn candidates(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.methods
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_candidate())
            .map(|(i, _)| MethodId(i as u32))
    }

    /// Total class-file bytes of `class` including its methods' code (used
    /// for missing-code fallback transfer sizes).
    pub fn class_bytes(&self, class: ClassId) -> u32 {
        self.class(class).bytes
            + self
                .methods
                .iter()
                .filter(|m| m.class == class)
                .map(|m| m.code_bytes())
                .sum::<u32>()
    }
}

/// Incrementally builds a [`Program`].
///
/// # Example
///
/// ```
/// use beehive_vm::program::ProgramBuilder;
/// use beehive_vm::{Asm, Op};
///
/// let mut pb = ProgramBuilder::new();
/// let c = pb.user_class("App", 2, None);
/// let m = pb.method(c, "handle", 1, 0, vec![Op::Load(0), Op::ReturnVal]);
/// let program = pb.finish();
/// assert_eq!(program.method_by_name("App.handle"), Some(m));
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a class with an arbitrary origin.
    pub fn class(&mut self, name: &str, origin: Origin, field_count: u16) -> ClassId {
        let id = ClassId(self.program.classes.len() as u32);
        self.program.classes.push(ClassDef {
            name: name.to_string(),
            origin,
            field_count,
            packageable: None,
            bytes: 256 + field_count as u32 * 16,
        });
        id
    }

    /// Add a user class, optionally annotated.
    pub fn user_class(
        &mut self,
        name: &str,
        field_count: u16,
        annotation: Option<&str>,
    ) -> ClassId {
        self.class(
            name,
            Origin::User {
                annotation: annotation.map(str::to_string),
            },
            field_count,
        )
    }

    /// Add a framework class.
    pub fn framework_class(&mut self, name: &str, field_count: u16) -> ClassId {
        self.class(name, Origin::Framework, field_count)
    }

    /// Add a dynamically generated class.
    pub fn generated_class(&mut self, name: &str, field_count: u16) -> ClassId {
        self.class(name, Origin::Generated, field_count)
    }

    /// Add a JDK class.
    pub fn jdk_class(&mut self, name: &str, field_count: u16) -> ClassId {
        self.class(name, Origin::Jdk, field_count)
    }

    /// Mark `class` packageable (§3.2).
    ///
    /// # Panics
    ///
    /// Panics if the class id is out of range.
    pub fn make_packageable(&mut self, class: ClassId, spec: PackSpec) {
        self.program.classes[class.index()].packageable = Some(spec);
    }

    /// Add a bytecode method; the lookup name is `Class.method`.
    ///
    /// # Panics
    ///
    /// Panics if the `Class.method` name is already taken.
    pub fn method(
        &mut self,
        class: ClassId,
        name: &str,
        params: u8,
        locals: u8,
        code: Vec<Op>,
    ) -> MethodId {
        self.method_annotated(class, name, params, locals, code, None)
    }

    /// Add an annotated bytecode method (an offloading candidate).
    ///
    /// # Panics
    ///
    /// Panics if the `Class.method` name is already taken.
    pub fn method_annotated(
        &mut self,
        class: ClassId,
        name: &str,
        params: u8,
        locals: u8,
        code: Vec<Op>,
        annotation: Option<&str>,
    ) -> MethodId {
        let id = MethodId(self.program.methods.len() as u32);
        let full = format!("{}.{}", self.program.classes[class.index()].name, name);
        let prev = self.program.name_to_method.insert(full.clone(), id);
        assert!(prev.is_none(), "duplicate method name {full}");
        self.program.methods.push(MethodDef {
            name: name.to_string(),
            class,
            params,
            locals,
            body: MethodBody::Bytecode(code),
            annotation: annotation.map(str::to_string),
        });
        id
    }

    /// Register a native method descriptor.
    pub fn native(
        &mut self,
        name: &str,
        category: NativeCategory,
        cost: Duration,
        effect: NativeEffect,
    ) -> NativeId {
        let id = NativeId(self.program.natives.len() as u32);
        self.program.natives.push(NativeDef {
            name: name.to_string(),
            category,
            cost,
            effect,
        });
        id
    }

    /// Register an interceptor stub with its possible targets.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn stub(&mut self, name: &str, targets: Vec<MethodId>) -> StubId {
        assert!(!targets.is_empty(), "stub {name} needs at least one target");
        let id = StubId(self.program.stubs.len() as u32);
        self.program.stubs.push(StubDef {
            name: name.to_string(),
            targets,
        });
        id
    }

    /// Declare a static variable slot.
    pub fn static_slot(&mut self, name: &str) -> StaticSlot {
        let id = StaticSlot(self.program.statics.len() as u32);
        self.program.statics.push(StaticDef {
            name: name.to_string(),
            volatile: false,
        });
        id
    }

    /// Finish, producing the immutable program. The first op of every
    /// loop-control sequence becomes its fused head ([`Op::LoopTest`],
    /// [`Op::LoopNext`]) in place; the ops it covers stay behind it, so
    /// code length, pcs, jump targets and [`MethodDef::code_bytes`] are
    /// those of the code as given.
    pub fn finish(mut self) -> Program {
        for method in &mut self.program.methods {
            if let MethodBody::Bytecode(code) = &mut method.body {
                fuse_loop_heads(code);
            }
        }
        self.program
    }

    /// Finish without fusing: the reference the fused program must agree
    /// with.
    #[cfg(test)]
    pub(crate) fn finish_unfused(self) -> Program {
        self.program
    }
}

/// Rewrite the first op of each loop-control sequence into its fused head:
/// `Load(c); JumpIfZero(exit)` into [`Op::LoopTest`] and
/// `Load(c); ConstI(1); Sub; Store(c); Jump(top)` into [`Op::LoopNext`].
/// The ops a head covers stay behind it, so code length, pcs, jump targets
/// and [`MethodDef::code_bytes`] do not change, and a jump into the middle
/// of a sequence runs the original instructions.
fn fuse_loop_heads(code: &mut [Op]) {
    for pc in 0..code.len() {
        code[pc] = match code[pc..] {
            [Op::Load(ctr), Op::ConstI(1), Op::Sub, Op::Store(c), Op::Jump(top), ..]
                if c == ctr =>
            {
                Op::LoopNext { ctr, top }
            }
            [Op::Load(ctr), Op::JumpIfZero(exit), ..] => Op::LoopTest { ctr, exit },
            _ => continue,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::CLOSURE_BASE;
    use crate::instance::{CostModel, VmInstance};
    use crate::interp::{Block, Execution, Outcome, Provenance};
    use crate::value::{Addr, Value};

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut pb = ProgramBuilder::new();
        let c0 = pb.user_class("A", 1, None);
        let c1 = pb.framework_class("B", 2);
        assert_eq!(c0, ClassId(0));
        assert_eq!(c1, ClassId(1));
        let m0 = pb.method(c0, "x", 0, 0, vec![Op::Return]);
        let m1 = pb.method(c1, "y", 0, 0, vec![Op::Return]);
        assert_eq!(m0, MethodId(0));
        assert_eq!(m1, MethodId(1));
        let p = pb.finish();
        assert_eq!(p.class_count(), 2);
        assert_eq!(p.method_count(), 2);
    }

    #[test]
    fn candidates_filter_annotated_methods() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("App", 0, None);
        pb.method(c, "helper", 0, 0, vec![Op::Return]);
        let hot = pb.method_annotated(c, "comment", 0, 0, vec![Op::Return], Some("@PostMapping"));
        let p = pb.finish();
        let cands: Vec<_> = p.candidates().collect();
        assert_eq!(cands, vec![hot]);
    }

    #[test]
    fn class_bytes_include_method_code() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("App", 0, None);
        pb.method(c, "m", 0, 0, vec![Op::ConstI(1); 100]);
        let p = pb.finish();
        assert_eq!(p.class_bytes(ClassId(0)), 256 + 400);
    }

    #[test]
    #[should_panic(expected = "duplicate method name")]
    fn duplicate_method_names_panic() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("App", 0, None);
        pb.method(c, "m", 0, 0, vec![Op::Return]);
        pb.method(c, "m", 0, 0, vec![Op::Return]);
    }

    #[test]
    fn method_lookup_by_name() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("App", 0, None);
        let m = pb.method(c, "m", 0, 0, vec![Op::Return]);
        let p = pb.finish();
        assert_eq!(p.method_by_name("App.m"), Some(m));
        assert_eq!(p.method_by_name("App.zzz"), None);
    }

    // ----- loop-head fusion: the fused program against the program as written

    /// The counter's slot in every hand-built method below.
    const CTR: u8 = 0;

    /// A reference to an object that still lives on the server.
    fn remote() -> Value {
        Value::Ref(Addr(CLOSURE_BASE + 0x100).to_remote())
    }

    /// What one execution did: its value, its CPU, the ops it counted and
    /// every block, with the pc it left the blocked frame on.
    #[derive(Debug, PartialEq)]
    struct Run {
        value: Value,
        cpu: Duration,
        ops: u64,
        blocks: Vec<(Block, usize)>,
    }

    /// Run `m` to completion. The embedder answers a remote local with the
    /// integer 2, and a missing class by loading it and planting a remote
    /// reference in the root frame's counter.
    fn drive(p: &Program, m: MethodId, mut vm: VmInstance, args: Vec<Value>) -> Run {
        let mut e = Execution::call(m, args, p);
        let mut blocks = Vec::new();
        loop {
            let outcome = e.run(&mut vm, p).outcome;
            let b = match outcome {
                Outcome::Done(value) => {
                    return Run {
                        value,
                        cpu: e.total_cpu(),
                        ops: vm.counters.ops,
                        blocks,
                    };
                }
                Outcome::Blocked(b) => b,
            };
            match b {
                Block::RemoteRef {
                    prov: Provenance::Local { frame, slot },
                    ..
                } => *e.local_mut(frame, slot) = Value::I64(2),
                Block::MissingClass { class } => {
                    vm.load_class(class);
                    *e.local_mut(0, CTR) = remote();
                }
                other => panic!("unexpected block {other:?}"),
            }
            blocks.push((b, e.frames().last().unwrap().pc()));
            e.resume();
        }
    }

    /// Build one program twice, fused and as written, run its method on a
    /// fresh instance of each, and check both runs agree. Returns the run
    /// and the fused code of the method.
    fn agree(
        build: impl Fn(&mut ProgramBuilder) -> MethodId,
        vm: impl Fn(&Program) -> VmInstance,
        args: Vec<Value>,
    ) -> (Run, Vec<Op>) {
        let built = |fuse: bool| {
            let mut pb = ProgramBuilder::new();
            let m = build(&mut pb);
            let p = if fuse {
                pb.finish()
            } else {
                pb.finish_unfused()
            };
            let run = drive(&p, m, vm(&p), args.clone());
            let code = match &p.method(m).body {
                MethodBody::Bytecode(code) => code.clone(),
                MethodBody::Native(_) => unreachable!(),
            };
            (run, code, p.method(m).code_bytes())
        };
        let (fused, code, fused_bytes) = built(true);
        let (reference, unfused_code, bytes) = built(false);
        assert_eq!(fused, reference);
        assert_eq!(code.len(), unfused_code.len());
        assert_eq!(fused_bytes, bytes);
        (fused, code)
    }

    fn warm_server(p: &Program) -> VmInstance {
        let mut vm = VmInstance::server(p, CostModel::default());
        vm.prewarm_all_methods(p);
        vm
    }

    /// `for (c = 3, acc = 0; c != 0; c--) acc += 10; return acc` with the
    /// idiom as the method's last five ops: 0–4 set up and enter at the
    /// test, 5–6 are the exit, 7–8 the test, 9–12 the body, 13–17 the step.
    fn trailing_loop(pb: &mut ProgramBuilder) -> MethodId {
        let c = pb.user_class("App", 0, None);
        #[rustfmt::skip]
        let code = vec![
            Op::ConstI(3), Op::Store(CTR), Op::ConstI(0), Op::Store(1), Op::Jump(7),
            Op::Load(1), Op::ReturnVal,
            Op::Load(CTR), Op::JumpIfZero(5),
            Op::Load(1), Op::ConstI(10), Op::Add, Op::Store(1),
            Op::Load(CTR), Op::ConstI(1), Op::Sub, Op::Store(CTR), Op::Jump(7),
        ];
        pb.method(c, "m", 0, 2, code)
    }

    #[test]
    fn fusion_rewrites_heads_in_place() {
        let (run, code) = agree(trailing_loop, warm_server, vec![]);
        assert_eq!(run.value, Value::I64(30));
        assert_eq!(code[7], Op::LoopTest { ctr: CTR, exit: 5 });
        assert_eq!(code[13], Op::LoopNext { ctr: CTR, top: 7 });
        // Everything else, the ops each head covers included, is as written.
        assert_eq!(code[8], Op::JumpIfZero(5));
        assert_eq!(
            code[14..],
            [Op::ConstI(1), Op::Sub, Op::Store(CTR), Op::Jump(7)]
        );
        // 5 ops of set-up, 4 tests (2 each), 3 bodies (4 each), 3 steps
        // (5 each) and the 2-op exit.
        assert_eq!(run.ops, 5 + 4 * 2 + 3 * 4 + 3 * 5 + 2);
    }

    #[test]
    fn fused_heads_charge_cold_frames_at_the_cold_multiplier() {
        let cold = |p: &Program| VmInstance::server(p, CostModel::default());
        let (cold_run, _) = agree(trailing_loop, cold, vec![]);
        let (warm_run, _) = agree(trailing_loop, warm_server, vec![]);
        let mult = CostModel::default().cold_multiplier as u64;
        assert_eq!(cold_run.cpu, warm_run.cpu * mult);
    }

    #[test]
    fn a_jump_behind_a_fused_head_runs_the_covered_op_alone() {
        // 0–1 push a flag and jump to the JumpIfZero behind the head at 2;
        // the counter (0) would take the other branch.
        for (flag, expect) in [(1, 7), (0, 9)] {
            let build = |pb: &mut ProgramBuilder| {
                let c = pb.user_class("App", 0, None);
                #[rustfmt::skip]
                let code = vec![
                    Op::ConstI(flag), Op::Jump(3),
                    Op::Load(CTR), Op::JumpIfZero(6),
                    Op::ConstI(7), Op::ReturnVal,
                    Op::ConstI(9), Op::ReturnVal,
                ];
                pb.method(c, "m", 1, 0, code)
            };
            let (run, code) = agree(build, warm_server, vec![Value::I64(0)]);
            assert_eq!(code[2], Op::LoopTest { ctr: CTR, exit: 6 });
            assert_eq!(run.value, Value::I64(expect));
            assert_eq!(run.ops, 5);
        }
    }

    #[test]
    fn a_remote_counter_blocks_on_each_fused_head_and_resumes() {
        // The counter arrives remote and blocks the test; the call in the
        // body misses its class, and the embedder then leaves a remote
        // counter for the step to block on.
        let build = |pb: &mut ProgramBuilder| {
            let c = pb.user_class("App", 0, None);
            let dep = pb.framework_class("Dep", 0);
            let callee = pb.method(dep, "f", 0, 0, vec![Op::Return]);
            #[rustfmt::skip]
            let code = vec![
                Op::Load(CTR), Op::JumpIfZero(8),
                Op::Call(callee),
                Op::Load(CTR), Op::ConstI(1), Op::Sub, Op::Store(CTR), Op::Jump(0),
                Op::ConstI(5), Op::ReturnVal,
            ];
            pb.method(c, "m", 1, 0, code)
        };
        let function = |p: &Program| {
            let mut vm = VmInstance::function(p, CostModel::default());
            vm.load_class(ClassId(0));
            vm.prewarm_all_methods(p);
            vm
        };
        let (run, code) = agree(build, function, vec![remote()]);
        assert_eq!(code[0], Op::LoopTest { ctr: CTR, exit: 8 });
        assert_eq!(code[3], Op::LoopNext { ctr: CTR, top: 0 });
        let at: Vec<_> = run.blocks.iter().map(|(b, pc)| (b.reason(), *pc)).collect();
        assert_eq!(
            at,
            [("remote_ref", 0), ("missing_class", 2), ("remote_ref", 3)]
        );
        for (b, _) in [&run.blocks[0], &run.blocks[2]] {
            assert!(matches!(
                b,
                Block::RemoteRef {
                    prov: Provenance::Local {
                        frame: 0,
                        slot: CTR
                    },
                    ..
                }
            ));
        }
        assert_eq!(run.value, Value::I64(5));
    }

    #[test]
    fn a_step_into_another_local_is_not_fused() {
        // The test reads local 1; the body counts local 0 down and the step
        // writes local 0 - 1 into local 1: `Store(d)` with d != c.
        let build = |pb: &mut ProgramBuilder| {
            let c = pb.user_class("App", 0, None);
            #[rustfmt::skip]
            let code = vec![
                Op::Load(1), Op::JumpIfZero(11),
                Op::Load(0), Op::ConstI(1), Op::Sub, Op::Store(0),
                Op::Load(0), Op::ConstI(1), Op::Sub, Op::Store(1), Op::Jump(0),
                Op::Load(0), Op::ReturnVal,
            ];
            pb.method(c, "m", 2, 0, code)
        };
        let (run, code) = agree(build, warm_server, vec![Value::I64(3), Value::I64(1)]);
        assert_eq!(code[0], Op::LoopTest { ctr: 1, exit: 11 });
        assert_eq!(code[6], Op::Load(0));
        assert!(!code.iter().any(|op| matches!(op, Op::LoopNext { .. })));
        assert_eq!(run.value, Value::I64(1));
    }

    /// `while (c != 0) c--; return 0` over the argument: 0–1 the test, 2–6
    /// the step, 7–8 the exit.
    fn countdown_on_arg(pb: &mut ProgramBuilder) -> MethodId {
        let c = pb.user_class("App", 0, None);
        #[rustfmt::skip]
        let code = vec![
            Op::Load(CTR), Op::JumpIfZero(7),
            Op::Load(CTR), Op::ConstI(1), Op::Sub, Op::Store(CTR), Op::Jump(0),
            Op::ConstI(0), Op::ReturnVal,
        ];
        pb.method(c, "m", 1, 0, code)
    }

    #[test]
    fn a_null_counter_exits_the_test_and_fails_the_step_alike() {
        let (run, _) = agree(countdown_on_arg, warm_server, vec![Value::Null]);
        assert_eq!(run.value, Value::I64(0));
        assert_eq!(run.ops, 2 + 2);

        // Entered at the step, a null counter fails the subtraction the
        // same way in both programs.
        let panics = |fuse: bool| {
            let mut pb = ProgramBuilder::new();
            let c = pb.user_class("App", 0, None);
            #[rustfmt::skip]
            let code = vec![
                Op::Jump(1),
                Op::Load(CTR), Op::ConstI(1), Op::Sub, Op::Store(CTR), Op::Jump(0),
            ];
            let m = pb.method(c, "m", 1, 0, code);
            let p = if fuse {
                pb.finish()
            } else {
                pb.finish_unfused()
            };
            let mut e = Execution::call(m, vec![Value::Null], &p);
            let mut vm = warm_server(&p);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                e.run(&mut vm, &p);
            }))
            .expect_err("a null counter cannot be decremented");
            err.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| err.downcast_ref::<String>().cloned())
        };
        assert_eq!(panics(true), panics(false));
        assert!(panics(true).unwrap().contains("expected integer operand"));
    }

    #[test]
    fn a_truncated_idiom_at_the_end_of_a_method_is_left_alone() {
        let mut code = vec![Op::Load(CTR), Op::ConstI(1), Op::Sub, Op::Store(CTR)];
        fuse_loop_heads(&mut code);
        assert_eq!(
            code,
            [Op::Load(CTR), Op::ConstI(1), Op::Sub, Op::Store(CTR)]
        );
        let mut code = vec![Op::Load(CTR)];
        fuse_loop_heads(&mut code);
        assert_eq!(code, [Op::Load(CTR)]);
    }
}
