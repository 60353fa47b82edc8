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

    /// Finish, producing the immutable program.
    pub fn finish(self) -> Program {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
