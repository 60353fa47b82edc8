//! The bytecode instruction set.

use crate::ids::{ClassId, MethodId, NativeId, StaticSlot, StubId};

/// One bytecode instruction of the stack machine.
///
/// Calling convention: arguments are pushed left to right; `Call` pops the
/// callee's declared parameter count into its locals (slot 0 = first
/// argument). `ReturnVal` pops the top of stack into the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Push a constant integer.
    ConstI(i64),
    /// Push null.
    ConstNull,
    /// Push local slot `n`.
    Load(u8),
    /// Pop into local slot `n`.
    Store(u8),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,

    /// Integer addition (pops b, a; pushes a + b, wrapping).
    Add,
    /// Integer subtraction (pops b, a; pushes a - b, wrapping).
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Integer division.
    ///
    /// Division by zero yields 0 (the apps never rely on trapping).
    Div,
    /// Integer remainder (0 for zero divisor).
    Rem,
    /// Pops b, a; pushes 1 if a < b else 0.
    CmpLt,
    /// Pops b, a; pushes 1 if the values are equal (integers or identical
    /// references) else 0.
    CmpEq,

    /// Unconditional jump to absolute instruction index.
    Jump(u32),
    /// Pop; jump if zero/null.
    JumpIfZero(u32),
    /// Pop; jump if non-zero / non-null.
    JumpIfNonZero(u32),

    /// Direct call.
    Call(MethodId),
    /// Dynamic-dispatch through an interceptor stub: pops a selector integer,
    /// picks `targets[selector % targets.len()]`. Models framework stubs like
    /// `MethodInterceptor` with tens of possible call targets (§2.2).
    CallStub(StubId),
    /// Return with no value (pushes null in the caller if a value is
    /// expected).
    Return,
    /// Pop the top of stack and return it.
    ReturnVal,

    /// Allocate an instance of a class; pushes the reference. Fields start
    /// null.
    New(ClassId),
    /// Pop a length; allocate an array of that many slots; pushes the
    /// reference.
    NewArray,
    /// Pop object ref; push field `slot`.
    GetField(u16),
    /// Pop value, object ref; store into field `slot`.
    PutField(u16),
    /// Pop index, array ref; push element.
    ArrLoad,
    /// Pop value, index, array ref; store element.
    ArrStore,
    /// Pop array ref; push its length.
    ArrLen,

    /// Push static slot. On FaaS, unfetched statics are remote references and
    /// trigger a data fallback.
    GetStatic(StaticSlot),
    /// Pop into static slot.
    PutStatic(StaticSlot),
    /// Volatile read of a static slot: a JMM synchronization point (§4.2).
    GetStaticVolatile(StaticSlot),
    /// Volatile write of a static slot: a JMM synchronization point (§4.2).
    PutStaticVolatile(StaticSlot),

    /// Pop object ref; acquire its monitor (JMM acquire).
    MonitorEnter,
    /// Pop object ref; release its monitor (JMM release).
    MonitorExit,

    /// Invoke a native method. Operand arity is defined by the native's
    /// descriptor; see [`natives`](crate::natives).
    NativeCall(NativeId),

    /// Charge `n` nanoseconds of pure CPU work (models computation whose
    /// details don't matter, e.g. image resampling inner loops).
    Work(u32),

    /// Issue a database round trip over the connection object in local slot
    /// `conn`. Pops an argument integer, pushes the query result. `query`
    /// selects the statement. Blocks the execution with [`Block::Db`]
    /// (offloaded executions reach the database through the connection
    /// proxy — §3.3 — or fall back if the connection was not packaged).
    ///
    /// [`Block::Db`]: crate::interp::Block::Db
    DbCall {
        /// Local slot holding the connection object.
        conn: u8,
        /// Prepared-statement selector.
        query: u16,
    },

    /// Fused loop test: the head of `Load(ctr); JumpIfZero(exit)`.
    ///
    /// Written only by [`ProgramBuilder::finish`] over the first op of that
    /// sequence; [`Asm`] never emits it. The covered `JumpIfZero` stays
    /// behind the head, so code length, pcs and jump targets are those of
    /// the unfused code, and a jump to the `JumpIfZero` runs it alone. The
    /// head runs as its two instructions would, one after the other.
    ///
    /// [`ProgramBuilder::finish`]: crate::program::ProgramBuilder::finish
    /// [`Asm`]: crate::Asm
    LoopTest {
        /// The counter's local slot.
        ctr: u8,
        /// The loop's exit (the `JumpIfZero` target).
        exit: u32,
    },
    /// Fused loop step: the head of
    /// `Load(ctr); ConstI(1); Sub; Store(ctr); Jump(top)`.
    ///
    /// Written only by [`ProgramBuilder::finish`] in place of the `Load`;
    /// [`Asm`] never emits it. The four covered ops stay behind the head,
    /// as for [`Op::LoopTest`].
    ///
    /// [`ProgramBuilder::finish`]: crate::program::ProgramBuilder::finish
    /// [`Asm`]: crate::Asm
    LoopNext {
        /// The counter's local slot.
        ctr: u8,
        /// The loop's top (the `Jump` target).
        top: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_small() {
        // The dispatch loop reads one op by value out of the frame's code
        // slice per iteration; two words keep that a single 16-byte load and
        // the slice dense in cache. The fused loop heads fit too.
        assert!(std::mem::size_of::<Op>() <= 16);
    }

    #[test]
    fn ops_compare() {
        assert_eq!(Op::ConstI(3), Op::ConstI(3));
        assert_ne!(Op::ConstI(3), Op::ConstI(4));
        assert_ne!(Op::Add, Op::Sub);
    }
}
