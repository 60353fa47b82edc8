//! A tiny bytecode assembler with label patching, used by tests and the
//! evaluation applications.

use crate::ids::{ClassId, MethodId, NativeId, StaticSlot, StubId};
use crate::op::Op;

/// A forward-jump label returned by the `*_fwd` methods; resolve it with
/// [`Asm::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "bind the label or the jump stays dangling"]
pub struct Label(usize);

/// Builds a method body instruction by instruction.
///
/// # Example
///
/// ```
/// use beehive_vm::Asm;
///
/// let mut a = Asm::new();
/// // return arg0 < 10 ? 1 : 0
/// a.load(0).const_i(10).cmp_lt().return_val();
/// let code = a.finish();
/// assert_eq!(code.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Asm {
    ops: Vec<Op>,
    open_labels: usize,
}

impl Asm {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current instruction index (use with [`Asm::jump_back`]).
    pub fn here(&self) -> usize {
        self.ops.len()
    }

    fn push(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Push a constant.
    pub fn const_i(&mut self, x: i64) -> &mut Self {
        self.push(Op::ConstI(x))
    }

    /// Push null.
    pub fn const_null(&mut self) -> &mut Self {
        self.push(Op::ConstNull)
    }

    /// Push local `slot`.
    pub fn load(&mut self, slot: u8) -> &mut Self {
        self.push(Op::Load(slot))
    }

    /// Pop into local `slot`.
    pub fn store(&mut self, slot: u8) -> &mut Self {
        self.push(Op::Store(slot))
    }

    /// Discard top of stack.
    pub fn pop(&mut self) -> &mut Self {
        self.push(Op::Pop)
    }

    /// Addition.
    pub fn add(&mut self) -> &mut Self {
        self.push(Op::Add)
    }

    /// Subtraction.
    pub fn sub(&mut self) -> &mut Self {
        self.push(Op::Sub)
    }

    /// Multiplication.
    pub fn mul(&mut self) -> &mut Self {
        self.push(Op::Mul)
    }

    /// Division.
    pub fn div(&mut self) -> &mut Self {
        self.push(Op::Div)
    }

    /// Remainder.
    pub fn rem(&mut self) -> &mut Self {
        self.push(Op::Rem)
    }

    /// Less-than comparison.
    pub fn cmp_lt(&mut self) -> &mut Self {
        self.push(Op::CmpLt)
    }

    /// Equality comparison.
    pub fn cmp_eq(&mut self) -> &mut Self {
        self.push(Op::CmpEq)
    }

    /// Backward jump to an index previously captured with [`Asm::here`].
    ///
    /// # Panics
    ///
    /// Panics if `target` is in the future (use a forward label instead).
    pub fn jump_back(&mut self, target: usize) -> &mut Self {
        assert!(target <= self.ops.len(), "jump_back into the future");
        self.push(Op::Jump(target as u32))
    }

    /// Forward unconditional jump; bind the label later.
    pub fn jump_fwd(&mut self) -> Label {
        let l = Label(self.ops.len());
        self.ops.push(Op::Jump(u32::MAX));
        self.open_labels += 1;
        l
    }

    /// Forward jump-if-zero; bind the label later.
    pub fn jump_if_zero_fwd(&mut self) -> Label {
        let l = Label(self.ops.len());
        self.ops.push(Op::JumpIfZero(u32::MAX));
        self.open_labels += 1;
        l
    }

    /// Resolve a forward label to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        let target = self.ops.len() as u32;
        let patched = match &mut self.ops[label.0] {
            Op::Jump(t) | Op::JumpIfZero(t) if *t == u32::MAX => {
                *t = target;
                true
            }
            _ => false,
        };
        assert!(patched, "label {label:?} already bound or not a jump");
        self.open_labels -= 1;
        self
    }

    /// Direct call.
    pub fn call(&mut self, m: MethodId) -> &mut Self {
        self.push(Op::Call(m))
    }

    /// Stub (interceptor) call; selector must be on the stack.
    pub fn call_stub(&mut self, s: StubId) -> &mut Self {
        self.push(Op::CallStub(s))
    }

    /// Value return.
    pub fn return_val(&mut self) -> &mut Self {
        self.push(Op::ReturnVal)
    }

    /// Allocate an object.
    pub fn new_obj(&mut self, c: ClassId) -> &mut Self {
        self.push(Op::New(c))
    }

    /// Allocate an array (length on stack).
    pub fn new_array(&mut self) -> &mut Self {
        self.push(Op::NewArray)
    }

    /// Read a field.
    pub fn get_field(&mut self, slot: u16) -> &mut Self {
        self.push(Op::GetField(slot))
    }

    /// Write a field.
    pub fn put_field(&mut self, slot: u16) -> &mut Self {
        self.push(Op::PutField(slot))
    }

    /// Array element load.
    pub fn arr_load(&mut self) -> &mut Self {
        self.push(Op::ArrLoad)
    }

    /// Array element store.
    pub fn arr_store(&mut self) -> &mut Self {
        self.push(Op::ArrStore)
    }

    /// Array length.
    pub fn arr_len(&mut self) -> &mut Self {
        self.push(Op::ArrLen)
    }

    /// Static read.
    pub fn get_static(&mut self, s: StaticSlot) -> &mut Self {
        self.push(Op::GetStatic(s))
    }

    /// Volatile static read (synchronization point).
    pub fn get_static_volatile(&mut self, s: StaticSlot) -> &mut Self {
        self.push(Op::GetStaticVolatile(s))
    }

    /// Volatile static write (synchronization point).
    pub fn put_static_volatile(&mut self, s: StaticSlot) -> &mut Self {
        self.push(Op::PutStaticVolatile(s))
    }

    /// Monitor acquire (object on stack).
    pub fn monitor_enter(&mut self) -> &mut Self {
        self.push(Op::MonitorEnter)
    }

    /// Monitor release (object on stack).
    pub fn monitor_exit(&mut self) -> &mut Self {
        self.push(Op::MonitorExit)
    }

    /// Native invocation.
    pub fn native(&mut self, n: NativeId) -> &mut Self {
        self.push(Op::NativeCall(n))
    }

    /// Pure CPU work of `nanos` nanoseconds.
    pub fn work(&mut self, nanos: u32) -> &mut Self {
        self.push(Op::Work(nanos))
    }

    /// Database round trip (connection in local `conn`, argument on stack).
    pub fn db_call(&mut self, conn: u8, query: u16) -> &mut Self {
        self.push(Op::DbCall { conn, query })
    }

    /// Emit `body` `n` times (loop unrolling for bulk native invocations).
    pub fn repeat(&mut self, n: usize, body: impl Fn(&mut Asm)) -> &mut Self {
        for _ in 0..n {
            body(self);
        }
        self
    }

    /// Finish, returning the instruction vector.
    ///
    /// # Panics
    ///
    /// Panics if any forward label is still unbound.
    pub fn finish(self) -> Vec<Op> {
        assert_eq!(self.open_labels, 0, "unbound forward labels remain");
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_labels_patch() {
        let mut a = Asm::new();
        a.const_i(0);
        let l = a.jump_if_zero_fwd();
        a.const_i(111);
        a.bind(l);
        a.const_i(222).return_val();
        let code = a.finish();
        assert_eq!(code[1], Op::JumpIfZero(3));
    }

    #[test]
    #[should_panic(expected = "unbound forward labels")]
    fn unbound_label_panics() {
        let mut a = Asm::new();
        let _l = a.jump_fwd();
        a.finish();
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let mut a = Asm::new();
        let l = a.jump_fwd();
        a.bind(l);
        a.bind(l);
    }

    #[test]
    fn repeat_emits_n_copies() {
        let mut a = Asm::new();
        a.repeat(3, |a| {
            a.const_i(1).pop();
        });
        assert_eq!(a.finish().len(), 6);
    }

    #[test]
    fn here_tracks_position() {
        let mut a = Asm::new();
        assert_eq!(a.here(), 0);
        a.const_i(1);
        assert_eq!(a.here(), 1);
    }
}
