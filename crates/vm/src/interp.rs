//! The resumable bytecode interpreter.
//!
//! An [`Execution`] owns its frames explicitly (no host-stack recursion), so
//! the dispatch loop can stop at any instruction and hand control back to the
//! embedder with a [`Block`] describing what it needs: a remote object, a
//! missing class, a monitor hand-off, a database round trip, a native
//! fallback, or a GC. The embedder (the BeeHive runtime in `beehive-core`)
//! services the block — possibly after simulated network time — and resumes.
//!
//! [`Execution::run`] is one loop nest. The outer loop runs once per *frame
//! entry* (start of a run segment, bytecode call, return into the caller)
//! and resolves the method's code slice, the frame's window into the
//! execution's one value stack (`locals | operands` per frame, outermost
//! first — a call turns the arguments on top of the caller's operands into
//! the callee's first locals in place) and the per-op charges, multiplied by
//! the cold factor if the frame was entered before its method turned warm.
//! The inner loop dispatches ops on those locals until a bytecode call, a
//! return or a block leaves the frame; natives run inline. Exact per
//! instruction all the same: the virtual-time charge, `VmCounters::ops` and
//! the runaway guard (counted in a local, flushed when the run ends), and
//! every operand-underflow, bounds, remote-bit, class-loaded and
//! static-fetched check.
//!
//! The loop-control heads [`Op::LoopTest`] and [`Op::LoopNext`], which
//! [`ProgramBuilder::finish`](crate::program::ProgramBuilder::finish) writes
//! over the first op of a counted loop's test and step sequences, run the
//! two or five instructions they cover in one dispatch: the charge is
//! pre-summed and the op count and runaway guard advance by every covered
//! instruction. Only their leading `Load` can block, and then it blocks
//! exactly as a plain `Load` does, on the head.
//!
//! Blocks come in two resumption styles:
//!
//! * **retry** blocks ([`Block::RemoteRef`], [`Block::RemoteStatic`],
//!   [`Block::MissingClass`], [`Block::MonitorAcquire`],
//!   [`Block::VolatileSync`], [`Block::GcNeeded`]) leave the program counter
//!   on the faulting instruction with operands restored; the embedder repairs
//!   the instance state (fetches the object, loads the class, grants the
//!   monitor, collects) and calls [`Execution::resume`]; the instruction
//!   re-executes and now succeeds.
//! * **value** blocks ([`Block::Db`], [`Block::NativeFallback`]) consumed
//!   their operands; the embedder computes the result (a query response, the
//!   server-side native result) and delivers it with
//!   [`Execution::resume_with`].

use beehive_sim::Duration;

use crate::class::{MethodBody, PackKind};
use crate::ids::{ClassId, MethodId, NativeId, StaticSlot};
use crate::instance::{EndpointKind, VmInstance};
use crate::natives::{NativeCategory, NativeEffect, NativeState};
use crate::op::Op;
use crate::program::Program;
use crate::value::{Addr, Value};

/// Where a remote reference was loaded from, so the embedder can overwrite it
/// with the fetched local address ("resets the bit to avoid repeated
/// fallbacks", §4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Field `slot` of the object at `obj`.
    Field {
        /// The holding object.
        obj: Addr,
        /// The field slot.
        slot: u32,
    },
    /// Element `idx` of the array at `obj`.
    ArrayElem {
        /// The holding array.
        obj: Addr,
        /// The element index.
        idx: u32,
    },
    /// Local variable `slot` of frame `frame` (0 = outermost).
    Local {
        /// Frame index.
        frame: usize,
        /// Local slot.
        slot: u8,
    },
    /// Static slot.
    Static {
        /// The static slot.
        slot: StaticSlot,
    },
}

/// Why an execution stopped before completing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Block {
    /// A reference load found bit 63 set: the object lives on the server (at
    /// `addr.to_local()`) and must be fetched (data fallback, §4.1).
    RemoteRef {
        /// The remote-marked address (canonical address on the owner).
        addr: Addr,
        /// Where the reference was loaded from.
        prov: Provenance,
    },
    /// A static variable has not been fetched to this endpoint yet.
    RemoteStatic {
        /// The slot.
        slot: StaticSlot,
    },
    /// Code for `class` is not loaded on this endpoint (code fallback).
    MissingClass {
        /// The missing class.
        class: ClassId,
    },
    /// The monitor of `obj` is owned by another endpoint; a JMM
    /// synchronization through the server is required (§4.2).
    MonitorAcquire {
        /// The lock object (local address).
        obj: Addr,
    },
    /// A volatile static access: always a synchronization point on FaaS.
    VolatileSync {
        /// The slot.
        slot: StaticSlot,
        /// `true` for a volatile write.
        is_write: bool,
    },
    /// A database round trip on a connection.
    Db {
        /// The connection object (local address) the round trip uses.
        conn: Addr,
        /// Statement selector.
        query: u16,
        /// Statement argument.
        arg: i64,
        /// `Some(id)`: the connection was packaged with proxy connection `id`
        /// and the request goes directly to the proxy (§3.3). `None`: the
        /// connection's native state is absent here — fall back to the
        /// server, which performs the round trip.
        proxy_conn_id: Option<u64>,
    },
    /// A native invocation that cannot run on this endpoint; the server
    /// executes it and returns the result.
    NativeFallback {
        /// The native method.
        native: NativeId,
        /// Its popped arguments.
        args: Vec<Value>,
    },
    /// The allocation space is full; collect, then resume.
    GcNeeded {
        /// Slots of the failed allocation (diagnostics).
        slots: u32,
    },
}

impl Block {
    /// `true` when the block is resumed with [`Execution::resume`] (retry)
    /// rather than [`Execution::resume_with`].
    pub fn is_retry(&self) -> bool {
        !matches!(self, Block::Db { .. } | Block::NativeFallback { .. })
    }

    /// Stable short name of the block reason (trace-event vocabulary).
    pub fn reason(&self) -> &'static str {
        match self {
            Block::RemoteRef { .. } => "remote_ref",
            Block::RemoteStatic { .. } => "remote_static",
            Block::MissingClass { .. } => "missing_class",
            Block::MonitorAcquire { .. } => "monitor",
            Block::VolatileSync { .. } => "volatile",
            Block::Db { .. } => "db",
            Block::NativeFallback { .. } => "native",
            Block::GcNeeded { .. } => "gc",
        }
    }
}

/// How an interpreter run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The root method returned.
    Done(Value),
    /// The execution blocked; service the block and resume.
    Blocked(Block),
}

/// An interpreter run's outcome plus the CPU time it charged.
#[derive(Clone, Debug)]
pub struct StepResult {
    /// Why the run stopped.
    pub outcome: Outcome,
    /// Virtual CPU time consumed by this run segment.
    pub cpu: Duration,
}

/// One call frame: a window into its execution's value stack. Locals live
/// at `base..stack_base`, the frame's operands from `stack_base` up to the
/// next frame's `base` (or the top of the stack for the executing frame).
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    method: MethodId,
    pc: usize,
    base: usize,
    stack_base: usize,
    cold: bool,
}

impl Frame {
    /// The executing method.
    pub fn method(&self) -> MethodId {
        self.method
    }

    /// The current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pending {
    /// Blocked on a retry-style block.
    Retry,
    /// Blocked on a value-style block.
    Value,
}

/// A resumable execution of one root-method invocation. The default is an
/// empty placeholder (no frames) to [`Clone::clone_from`] a real one into.
#[derive(Debug, Default)]
pub struct Execution {
    frames: Vec<Frame>,
    /// Locals and operands of every frame, outermost first: a call turns the
    /// arguments on top of the caller's operands into the callee's first
    /// locals in place, so calls allocate nothing.
    values: Vec<Value>,
    pending: Option<Pending>,
    pending_push: Option<Value>,
    sync_permit: bool,
    root_warm_checked: bool,
    total_cpu: Duration,
}

impl Clone for Execution {
    fn clone(&self) -> Self {
        let mut copy = Execution::default();
        copy.clone_from(self);
        copy
    }

    /// Copies into this execution's buffers rather than fresh ones (a
    /// recovery snapshot refreshes its copy at every sync point).
    fn clone_from(&mut self, source: &Self) {
        let Execution {
            frames,
            values,
            pending,
            pending_push,
            sync_permit,
            root_warm_checked,
            total_cpu,
        } = source;
        self.frames.clone_from(frames);
        self.values.clone_from(values);
        self.pending = *pending;
        self.pending_push = *pending_push;
        self.sync_permit = *sync_permit;
        self.root_warm_checked = *root_warm_checked;
        self.total_cpu = *total_cpu;
    }
}

/// Hard cap on ops per [`Execution::run`] call; exceeding it aborts the
/// process (it indicates a runaway loop in application bytecode).
const MAX_OPS_PER_RUN: u64 = 500_000_000;

/// The executing frame's view of the value stack. Every access is checked
/// against the frame's own window, so malformed bytecode panics instead of
/// reaching into its caller's slots.
struct Window<'a> {
    values: &'a mut Vec<Value>,
    base: usize,
    floor: usize,
}

impl Window<'_> {
    #[inline]
    fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    #[inline]
    fn pop(&mut self) -> Value {
        match self.values.pop() {
            Some(v) if self.values.len() >= self.floor => v,
            _ => panic!("operand stack underflow"),
        }
    }

    #[inline]
    fn pop_i64(&mut self) -> i64 {
        self.pop().as_i64().expect("expected integer operand")
    }

    #[inline]
    fn pop_ref(&mut self) -> Addr {
        match self.pop() {
            Value::Ref(a) => a,
            other => panic!("expected reference operand, got {other:?}"),
        }
    }

    /// The top operand, if the frame has one.
    #[inline]
    fn top(&self) -> Option<Value> {
        self.values[self.floor..].last().copied()
    }

    /// Where the top `n` operands start, if the frame has that many.
    fn top_n(&self, n: usize) -> Option<usize> {
        let at = self.values.len().checked_sub(n)?;
        (at >= self.floor).then_some(at)
    }

    /// Pop the top `n` operands, in push order.
    fn pop_args(&mut self, n: usize) -> Vec<Value> {
        let at = self.top_n(n).expect("operand stack underflow");
        self.values.split_off(at)
    }

    /// The frame's local slots.
    #[inline]
    fn locals(&mut self) -> &mut [Value] {
        &mut self.values[self.base..self.floor]
    }
}

/// Why the dispatch loop left the executing frame.
enum Exit {
    /// A bytecode call: push a frame for the method and enter it.
    Call(MethodId),
    /// The frame returned this value.
    Return(Value),
    /// The execution blocked.
    Block(Block),
}

impl Execution {
    /// Begin an invocation of `method` with `args`.
    ///
    /// # Panics
    ///
    /// Panics if the argument count does not match the method's parameters or
    /// the method is native.
    pub fn call(method: MethodId, args: Vec<Value>, program: &Program) -> Self {
        let def = program.method(method);
        assert_eq!(
            args.len(),
            def.params as usize,
            "{}: expected {} args, got {}",
            def.name,
            def.params,
            args.len()
        );
        assert!(
            matches!(def.body, MethodBody::Bytecode(_)),
            "cannot root an execution at a native method"
        );
        let mut values = args;
        values.resize(def.frame_slots(), Value::Null);
        Execution {
            frames: vec![Frame {
                method,
                pc: 0,
                base: 0,
                stack_base: values.len(),
                cold: false,
            }],
            values,
            pending: None,
            pending_push: None,
            sync_permit: false,
            root_warm_checked: false,
            total_cpu: Duration::ZERO,
        }
    }

    /// Resume after a retry-style block has been serviced.
    ///
    /// # Panics
    ///
    /// Panics if the execution is not blocked on a retry-style block.
    pub fn resume(&mut self) {
        assert_eq!(self.pending, Some(Pending::Retry), "not retry-blocked");
        self.pending = None;
    }

    /// Resume after a value-style block, delivering the result.
    ///
    /// # Panics
    ///
    /// Panics if the execution is not blocked on a value-style block.
    pub fn resume_with(&mut self, value: Value) {
        assert_eq!(self.pending, Some(Pending::Value), "not value-blocked");
        self.pending = None;
        self.pending_push = Some(value);
    }

    /// Arm the one-shot permit that lets the next volatile access proceed
    /// (set by the embedder after performing the synchronization).
    pub fn grant_sync_permit(&mut self) {
        self.sync_permit = true;
    }

    /// The executing frame's top operand, if it has one: while blocked on a
    /// volatile write, the value about to be written.
    pub fn top_operand(&self) -> Option<Value> {
        let frame = self.frames.last()?;
        self.values[frame.stack_base..].last().copied()
    }

    /// Current frame depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The frames, outermost first.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Total CPU time charged across all run segments.
    pub fn total_cpu(&self) -> Duration {
        self.total_cpu
    }

    /// Approximate wire size of the stack (for failure-recovery snapshots,
    /// §4.5: "the size of the Java stack and related objects are usually
    /// restricted — several KBs"): every local and operand plus two header
    /// words per frame.
    pub fn stack_bytes(&self) -> u64 {
        (self.values.len() + 2 * self.frames.len()) as u64 * 8
    }

    /// Mutable access to a local slot (for remote-reference fix-ups).
    ///
    /// # Panics
    ///
    /// Panics if the frame or slot is out of range.
    pub fn local_mut(&mut self, frame: usize, slot: u8) -> &mut Value {
        let f = &self.frames[frame];
        &mut self.values[f.base..f.stack_base][slot as usize]
    }

    /// Visit every root slot (locals and operand stacks) for GC.
    pub fn visit_roots(&mut self, visit: &mut dyn FnMut(&mut Value)) {
        for v in &mut self.values {
            visit(v);
        }
    }

    /// Run until completion or the next block.
    ///
    /// # Panics
    ///
    /// Panics if the execution is still blocked (call [`Execution::resume`] /
    /// [`Execution::resume_with`] first), or on malformed bytecode.
    pub fn run(&mut self, vm: &mut VmInstance, program: &Program) -> StepResult {
        assert!(self.pending.is_none(), "execution is blocked; resume first");
        let mut cpu = Duration::ZERO;

        // One thread-local probe per run instead of one per call and return.
        let profiling = beehive_profiler::enabled();
        if profiling {
            // Rebuild the profiler's path from the live frames: executions
            // from different requests interleave on this thread across run
            // segments. The first segment counts the root invocation.
            beehive_profiler::begin_segment(
                vm.profile_lane(),
                vm.profile_instance(),
                self.frames.iter().map(|f| f.method.0),
                !self.root_warm_checked,
            );
        }
        if let Some(v) = self.pending_push.take() {
            self.values.push(v);
        }
        if !self.root_warm_checked {
            self.root_warm_checked = true;
            let root = self.frames[0].method;
            self.frames[0].cold = vm.note_invocation(root);
        }

        // Constant for the whole run; the per-frame charges below are
        // re-derived on every frame entry.
        let cost = vm.cost;
        let on_function = vm.kind() == EndpointKind::Function;
        // Counted in a register and flushed once below: exact per
        // instruction (a fused loop head adds the ones it covers), like the
        // runaway guard that reads it.
        let mut ops = 0u64;

        let outcome = loop {
            // Frame entry: resolve the code slice, the (cold-multiplied)
            // charges and the stack window once; the dispatch loop below
            // runs on them until a call, return or block leaves the frame.
            let depth = self.frames.len();
            let frame = self.frames.last_mut().expect("no frames");
            let method = program.method(frame.method);
            let code: &[Op] = match &method.body {
                MethodBody::Bytecode(code) => code,
                MethodBody::Native(_) => unreachable!("native frames are never pushed"),
            };
            let mult = if frame.cold {
                cost.cold_multiplier as u64
            } else {
                1
            };
            let simple = cost.simple_op * mult;
            let loop_test = simple * 2;
            let loop_next = simple * 5;
            let call = cost.call_op * mult;
            let alloc = cost.alloc_op * mult;
            let field = cost.field_op * mult;
            let monitor = cost.monitor_op * mult;
            let mut w = Window {
                values: &mut self.values,
                base: frame.base,
                floor: frame.stack_base,
            };
            let mut pc = frame.pc;

            // A reference load on a function endpoint blocks on bit 63.
            macro_rules! remote {
                ($v:expr) => {
                    match $v {
                        Value::Ref(a) if on_function && a.is_remote() => Some(a),
                        _ => None,
                    }
                };
            }
            // Read local `slot` for a `Load` or a fused loop head. A remote
            // reference on a function endpoint blocks here, charged and
            // counted as the one `Load`, with the pc left on the instruction.
            macro_rules! load_local {
                ($slot:expr) => {{
                    let slot = $slot;
                    let v = w.locals()[slot as usize];
                    if let Some(addr) = remote!(v) {
                        cpu += simple;
                        break Exit::Block(Block::RemoteRef {
                            addr,
                            prov: Provenance::Local {
                                frame: depth - 1,
                                slot,
                            },
                        });
                    }
                    v
                }};
            }
            // Invoke `target`: natives run inline, bytecode leaves the frame.
            macro_rules! invoke {
                ($target:expr) => {{
                    let target = $target;
                    let def = program.method(target);
                    if !vm.is_loaded(def.class) {
                        break Exit::Block(Block::MissingClass { class: def.class });
                    }
                    // The caller resumes after the call.
                    pc += 1;
                    match def.body {
                        MethodBody::Native(native) => {
                            if let Some(b) = run_native(&mut w, vm, program, native, mult, &mut cpu)
                            {
                                break Exit::Block(b);
                            }
                        }
                        MethodBody::Bytecode(_) => break Exit::Call(target),
                    }
                }};
            }

            let exit = loop {
                ops += 1;
                assert!(
                    ops < MAX_OPS_PER_RUN,
                    "runaway execution: {} ops without completing",
                    MAX_OPS_PER_RUN
                );
                let op = *code
                    .get(pc)
                    .unwrap_or_else(|| panic!("pc {pc} out of range in {}", method.name));
                match op {
                    Op::ConstI(x) => {
                        cpu += simple;
                        w.push(Value::I64(x));
                        pc += 1;
                    }
                    Op::ConstNull => {
                        cpu += simple;
                        w.push(Value::Null);
                        pc += 1;
                    }
                    Op::Load(slot) => {
                        let v = load_local!(slot);
                        cpu += simple;
                        w.push(v);
                        pc += 1;
                    }
                    Op::Store(slot) => {
                        cpu += simple;
                        w.locals()[slot as usize] = w.pop();
                        pc += 1;
                    }
                    Op::Dup => {
                        cpu += simple;
                        let v = w.top().expect("stack underflow");
                        w.push(v);
                        pc += 1;
                    }
                    Op::Pop => {
                        cpu += simple;
                        w.pop();
                        pc += 1;
                    }
                    Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Rem | Op::CmpLt => {
                        cpu += simple;
                        let b = w.pop_i64();
                        let a = w.pop_i64();
                        let r = match op {
                            Op::Add => a.wrapping_add(b),
                            Op::Sub => a.wrapping_sub(b),
                            Op::Mul => a.wrapping_mul(b),
                            Op::Div => {
                                if b == 0 {
                                    0
                                } else {
                                    a.wrapping_div(b)
                                }
                            }
                            Op::Rem => {
                                if b == 0 {
                                    0
                                } else {
                                    a.wrapping_rem(b)
                                }
                            }
                            Op::CmpLt => (a < b) as i64,
                            _ => unreachable!(),
                        };
                        w.push(Value::I64(r));
                        pc += 1;
                    }
                    Op::CmpEq => {
                        cpu += simple;
                        let b = w.pop();
                        let a = w.pop();
                        w.push(Value::I64((a == b) as i64));
                        pc += 1;
                    }
                    Op::Jump(target) => {
                        cpu += simple;
                        pc = target as usize;
                    }
                    Op::JumpIfZero(target) => {
                        cpu += simple;
                        let zero = matches!(w.pop(), Value::Null | Value::I64(0));
                        pc = if zero { target as usize } else { pc + 1 };
                    }
                    Op::JumpIfNonZero(target) => {
                        cpu += simple;
                        let zero = matches!(w.pop(), Value::Null | Value::I64(0));
                        pc = if zero { pc + 1 } else { target as usize };
                    }
                    Op::LoopTest { ctr, exit } => {
                        // Load(ctr); JumpIfZero(exit)
                        let v = load_local!(ctr);
                        cpu += loop_test;
                        ops += 1;
                        let zero = matches!(v, Value::Null | Value::I64(0));
                        pc = if zero { exit as usize } else { pc + 2 };
                    }
                    Op::LoopNext { ctr, top } => {
                        // Load(ctr); ConstI(1); Sub; Store(ctr); Jump(top)
                        let n = load_local!(ctr).as_i64().expect("expected integer operand");
                        w.locals()[ctr as usize] = Value::I64(n.wrapping_sub(1));
                        cpu += loop_next;
                        ops += 4;
                        pc = top as usize;
                    }
                    Op::Call(target) => {
                        cpu += call;
                        invoke!(target);
                    }
                    Op::CallStub(stub) => {
                        cpu += call + simple;
                        // Resolve the target *before* consuming the selector
                        // so a missing-code block can retry the instruction
                        // intact.
                        let sel = w
                            .top()
                            .and_then(Value::as_i64)
                            .expect("stub selector must be an integer");
                        let targets = &program.stub(stub).targets;
                        let target = targets[sel.unsigned_abs() as usize % targets.len()];
                        let class = program.method(target).class;
                        if !vm.is_loaded(class) {
                            break Exit::Block(Block::MissingClass { class });
                        }
                        w.pop();
                        invoke!(target);
                    }
                    Op::Return => {
                        cpu += call;
                        break Exit::Return(Value::Null);
                    }
                    Op::ReturnVal => {
                        cpu += call;
                        break Exit::Return(w.pop());
                    }
                    Op::New(class) => {
                        cpu += alloc;
                        if !vm.is_loaded(class) {
                            break Exit::Block(Block::MissingClass { class });
                        }
                        let slots = program.class(class).field_count as u32;
                        match vm.heap.alloc_object(class, slots, vm.alloc_target) {
                            Some(addr) => {
                                vm.counters.allocs += 1;
                                w.push(Value::Ref(addr));
                                pc += 1;
                            }
                            None => break Exit::Block(Block::GcNeeded { slots }),
                        }
                    }
                    Op::NewArray => {
                        cpu += alloc;
                        let len = w.pop_i64();
                        assert!(len >= 0, "negative array length {len}");
                        match vm.heap.alloc_array(len as u32, vm.alloc_target) {
                            Some(addr) => {
                                vm.counters.allocs += 1;
                                w.push(Value::Ref(addr));
                                pc += 1;
                            }
                            None => {
                                w.push(Value::I64(len)); // restore operand
                                break Exit::Block(Block::GcNeeded { slots: len as u32 });
                            }
                        }
                    }
                    Op::GetField(slot) => {
                        cpu += field;
                        let obj = w.pop_ref();
                        let v = vm.heap.get(obj, slot as u32);
                        if let Some(addr) = remote!(v) {
                            w.push(Value::Ref(obj)); // restore operand
                            break Exit::Block(Block::RemoteRef {
                                addr,
                                prov: Provenance::Field {
                                    obj,
                                    slot: slot as u32,
                                },
                            });
                        }
                        w.push(v);
                        pc += 1;
                    }
                    Op::PutField(slot) => {
                        cpu += field;
                        let v = w.pop();
                        let obj = w.pop_ref();
                        vm.heap.set(obj, slot as u32, v);
                        cpu += vm.note_write(obj);
                        pc += 1;
                    }
                    Op::ArrLoad => {
                        cpu += field;
                        let idx = w.pop_i64();
                        let arr = w.pop_ref();
                        let v = vm.heap.get(arr, idx as u32);
                        if let Some(addr) = remote!(v) {
                            w.push(Value::Ref(arr));
                            w.push(Value::I64(idx));
                            break Exit::Block(Block::RemoteRef {
                                addr,
                                prov: Provenance::ArrayElem {
                                    obj: arr,
                                    idx: idx as u32,
                                },
                            });
                        }
                        w.push(v);
                        pc += 1;
                    }
                    Op::ArrStore => {
                        cpu += field;
                        let v = w.pop();
                        let idx = w.pop_i64();
                        let arr = w.pop_ref();
                        vm.heap.set(arr, idx as u32, v);
                        cpu += vm.note_write(arr);
                        pc += 1;
                    }
                    Op::ArrLen => {
                        cpu += simple;
                        let arr = w.pop_ref();
                        w.push(Value::I64(vm.heap.len_of(arr) as i64));
                        pc += 1;
                    }
                    Op::GetStatic(slot) => {
                        cpu += field;
                        if !vm.static_fetched(slot) {
                            break Exit::Block(Block::RemoteStatic { slot });
                        }
                        let v = vm.static_value(slot);
                        if let Some(addr) = remote!(v) {
                            break Exit::Block(Block::RemoteRef {
                                addr,
                                prov: Provenance::Static { slot },
                            });
                        }
                        w.push(v);
                        pc += 1;
                    }
                    Op::PutStatic(slot) => {
                        cpu += field;
                        if !vm.static_fetched(slot) {
                            break Exit::Block(Block::RemoteStatic { slot });
                        }
                        let v = w.pop();
                        vm.set_static(slot, v);
                        pc += 1;
                    }
                    Op::GetStaticVolatile(slot) | Op::PutStaticVolatile(slot) => {
                        cpu += monitor;
                        let is_write = matches!(op, Op::PutStaticVolatile(_));
                        if on_function && !self.sync_permit {
                            break Exit::Block(Block::VolatileSync { slot, is_write });
                        }
                        self.sync_permit = false;
                        if !vm.static_fetched(slot) {
                            break Exit::Block(Block::RemoteStatic { slot });
                        }
                        if is_write {
                            let v = w.pop();
                            vm.set_static(slot, v);
                        } else {
                            w.push(vm.static_value(slot));
                        }
                        pc += 1;
                    }
                    Op::MonitorEnter => {
                        cpu += monitor;
                        let obj = w.pop_ref();
                        vm.counters.monitor_enters += 1;
                        if !vm.owns_monitor(obj) {
                            w.push(Value::Ref(obj)); // restore operand
                            break Exit::Block(Block::MonitorAcquire { obj });
                        }
                        pc += 1;
                    }
                    Op::MonitorExit => {
                        cpu += monitor;
                        let _obj = w.pop_ref();
                        pc += 1;
                    }
                    Op::NativeCall(native) => {
                        // Value-style blocks resume after the instruction
                        // (their result is pushed on resume).
                        pc += 1;
                        if let Some(b) = run_native(&mut w, vm, program, native, mult, &mut cpu) {
                            break Exit::Block(b);
                        }
                    }
                    Op::Work(nanos) => {
                        cpu += Duration::from_nanos(nanos as u64) * mult;
                        pc += 1;
                    }
                    Op::DbCall { conn, query } => {
                        cpu += call;
                        let conn_obj = match w.locals()[conn as usize] {
                            Value::Ref(a) if on_function && a.is_remote() => {
                                break Exit::Block(Block::RemoteRef {
                                    addr: a,
                                    prov: Provenance::Local {
                                        frame: depth - 1,
                                        slot: conn,
                                    },
                                });
                            }
                            Value::Ref(a) => a,
                            other => panic!("DbCall connection local holds {other:?}"),
                        };
                        let arg = w.pop_i64();
                        let class = vm.heap.class_of(conn_obj);
                        let spec = program.class(class).packageable.unwrap_or_else(|| {
                            panic!("connection class {class:?} is not packageable")
                        });
                        assert_eq!(spec.kind, PackKind::Socket, "DbCall on non-socket class");
                        let handle = vm.heap.get(conn_obj, spec.handle_slot as u32);
                        let proxy_conn_id = match handle {
                            Value::I64(h) => match vm.native_state(h as u64) {
                                Some(NativeState::Socket { proxy_conn_id }) => Some(*proxy_conn_id),
                                _ => None,
                            },
                            _ => None,
                        };
                        vm.counters.db_calls += 1;
                        // One DB round trip = write + two reads on the socket
                        // (request, response header, response body): matches
                        // the ~3 network natives per round of Table 2.
                        vm.counters.natives.bump(NativeCategory::Network);
                        vm.counters.natives.bump(NativeCategory::Network);
                        vm.counters.natives.bump(NativeCategory::Network);
                        pc += 1;
                        break Exit::Block(Block::Db {
                            conn: conn_obj,
                            query,
                            arg,
                            proxy_conn_id,
                        });
                    }
                }
            };
            frame.pc = pc;

            match exit {
                Exit::Call(target) => {
                    let def = program.method(target);
                    let cold = vm.note_invocation(target);
                    // The arguments on top of the caller's operands become
                    // the callee's first locals where they are.
                    let base = w.top_n(def.params as usize).unwrap_or_else(|| {
                        panic!(
                            "stack underflow calling {} ({} params)",
                            def.name, def.params
                        )
                    });
                    let stack_base = base + def.frame_slots();
                    self.values.resize(stack_base, Value::Null);
                    self.frames.push(Frame {
                        method: target,
                        pc: 0,
                        base,
                        stack_base,
                        cold,
                    });
                    if profiling {
                        beehive_profiler::push(target.0, cpu);
                    }
                }
                Exit::Return(value) => {
                    if profiling {
                        beehive_profiler::pop(cpu);
                    }
                    let base = frame.base;
                    self.frames.pop();
                    self.values.truncate(base);
                    if self.frames.is_empty() {
                        break Outcome::Done(value);
                    }
                    self.values.push(value);
                }
                Exit::Block(b) => {
                    // Function-side only: a server VM blocks on DB/GC as part
                    // of ordinary execution, but a function VM blocking is
                    // the start of a Semi-FaaS fallback round trip.
                    if on_function && beehive_telemetry::enabled() {
                        beehive_telemetry::instant(
                            vm.trace_track(),
                            beehive_telemetry::EventName::Block,
                            &[("reason", beehive_telemetry::Arg::Str(b.reason()))],
                        );
                    }
                    self.pending = Some(if b.is_retry() {
                        Pending::Retry
                    } else {
                        Pending::Value
                    });
                    break Outcome::Blocked(b);
                }
            }
        };
        vm.counters.ops += ops;
        self.total_cpu += cpu;
        if profiling {
            beehive_profiler::end_segment(cpu);
        }
        StepResult { outcome, cpu }
    }
}

/// Execute a native on the executing frame's operands, charging its cost at
/// the frame's warmth (`mult`). Returns the value-style block when the
/// native must fall back to the server; the caller has already advanced the
/// pc (the fallback's result is pushed on resume).
fn run_native(
    w: &mut Window<'_>,
    vm: &mut VmInstance,
    program: &Program,
    native: NativeId,
    mult: u64,
    cpu: &mut Duration,
) -> Option<Block> {
    let def = program.native(native);
    *cpu += def.cost * mult;
    vm.counters.natives.bump(def.category);

    let is_function = vm.kind() == EndpointKind::Function;

    // Non-offloadable natives always fall back from FaaS.
    if is_function && def.category == NativeCategory::NonOffloadable {
        let args = w.pop_args(def.effect.arity());
        return Some(Block::NativeFallback { native, args });
    }

    match def.effect {
        NativeEffect::Nop => {
            for _ in 0..def.effect.arity() {
                w.pop();
            }
            w.push(Value::Null);
        }
        NativeEffect::PushToken(t) => w.push(Value::I64(t)),
        NativeEffect::ArrayCopy => {
            let len = w.pop().as_i64().expect("len");
            let dst_pos = w.pop().as_i64().expect("dstPos");
            let dst = w.pop().as_ref().expect("dst");
            let src_pos = w.pop().as_i64().expect("srcPos");
            let src = w.pop().as_ref().expect("src");
            let src_len = vm.heap.len_of(src) as i64;
            let dst_len = vm.heap.len_of(dst) as i64;
            let n = len.min(src_len - src_pos).min(dst_len - dst_pos).max(0);
            vm.heap
                .copy_slots(src, src_pos as u32, dst, dst_pos as u32, n as u32);
            *cpu += vm.note_write(dst);
            w.push(Value::Null);
        }
        NativeEffect::ReflectInvoke => {
            let obj = match w.top() {
                Some(Value::Ref(a)) => a,
                other => panic!("ReflectInvoke expects an object, got {other:?}"),
            };
            let class = vm.heap.class_of(obj);
            let spec = program.class(class).packageable;
            let resolved = spec.and_then(|s| {
                vm.heap
                    .get(obj, s.handle_slot as u32)
                    .as_i64()
                    .and_then(|h| vm.native_state(h as u64))
                    .cloned()
            });
            let arg = w.pop();
            match resolved {
                Some(NativeState::MethodMeta { method }) => w.push(Value::I64(method.0 as i64)),
                Some(_) => w.push(Value::I64(0)),
                None => {
                    // Hidden state absent on this endpoint: fall back.
                    return Some(Block::NativeFallback {
                        native,
                        args: vec![arg],
                    });
                }
            }
        }
        NativeEffect::SocketIo => {
            let obj = match w.top() {
                Some(Value::Ref(a)) => a,
                other => panic!("SocketIo expects a connection object, got {other:?}"),
            };
            let class = vm.heap.class_of(obj);
            let present = program.class(class).packageable.is_some_and(|s| {
                vm.heap
                    .get(obj, s.handle_slot as u32)
                    .as_i64()
                    .is_some_and(|h| vm.native_state(h as u64).is_some())
            });
            let arg = w.pop();
            if present || !is_function {
                w.push(Value::Null);
            } else {
                return Some(Block::NativeFallback {
                    native,
                    args: vec![arg],
                });
            }
        }
        NativeEffect::FileAccess => {
            if is_function {
                return Some(Block::NativeFallback {
                    native,
                    args: Vec::new(),
                });
            }
            w.push(Value::I64(0));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::class::PackSpec;
    use crate::heap::Space;
    use crate::instance::CostModel;
    use crate::program::ProgramBuilder;

    fn run_to_done(
        exec: &mut Execution,
        vm: &mut VmInstance,
        program: &Program,
    ) -> (Value, Duration) {
        let r = exec.run(vm, program);
        match r.outcome {
            Outcome::Done(v) => (v, r.cpu),
            Outcome::Blocked(b) => panic!("unexpected block: {b:?}"),
        }
    }

    #[test]
    fn arithmetic_program() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("A", 0, None);
        let mut a = Asm::new();
        // (10 + 5) * 3 - 1 = 44
        a.const_i(10)
            .const_i(5)
            .add()
            .const_i(3)
            .mul()
            .const_i(1)
            .sub()
            .return_val();
        let m = pb.method(c, "calc", 0, 0, a.finish());
        let p = pb.finish();
        let mut vm = VmInstance::server(&p, CostModel::default());
        let mut e = Execution::call(m, vec![], &p);
        let (v, cpu) = run_to_done(&mut e, &mut vm, &p);
        assert_eq!(v, Value::I64(44));
        assert!(cpu > Duration::ZERO);
    }

    #[test]
    fn locals_and_branches_compute_loops() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("A", 0, None);
        // sum = 0; for i in 0..n { sum += i } ; return sum
        let mut a = Asm::new();
        a.const_i(0).store(1); // sum
        a.const_i(0).store(2); // i
        let top = a.here();
        a.load(2).load(0).cmp_lt();
        let exit = a.jump_if_zero_fwd();
        a.load(1).load(2).add().store(1);
        a.load(2).const_i(1).add().store(2);
        a.jump_back(top);
        a.bind(exit);
        a.load(1).return_val();
        let m = pb.method(c, "sum", 1, 2, a.finish());
        let p = pb.finish();
        let mut vm = VmInstance::server(&p, CostModel::default());
        let mut e = Execution::call(m, vec![Value::I64(10)], &p);
        let (v, _) = run_to_done(&mut e, &mut vm, &p);
        assert_eq!(v, Value::I64(45));
    }

    #[test]
    fn nested_calls_and_returns() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("A", 0, None);
        let mut inner = Asm::new();
        inner.load(0).load(0).mul().return_val();
        let sq = pb.method(c, "sq", 1, 0, inner.finish());
        let mut outer = Asm::new();
        outer
            .const_i(6)
            .call(sq)
            .const_i(4)
            .call(sq)
            .add()
            .return_val();
        let m = pb.method(c, "m", 0, 0, outer.finish());
        let p = pb.finish();
        let mut vm = VmInstance::server(&p, CostModel::default());
        let mut e = Execution::call(m, vec![], &p);
        let (v, _) = run_to_done(&mut e, &mut vm, &p);
        assert_eq!(v, Value::I64(52));
    }

    #[test]
    fn objects_fields_and_arrays() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("Box", 2, None);
        let mut a = Asm::new();
        // b = new Box; b.f0 = 7; arr = new[3]; arr[2] = b.f0 + 1; return arr[2] + arr.len
        a.new_obj(c).store(0);
        a.load(0).const_i(7).put_field(0);
        a.const_i(3).new_array().store(1);
        a.load(1)
            .const_i(2)
            .load(0)
            .get_field(0)
            .const_i(1)
            .add()
            .arr_store();
        a.load(1).const_i(2).arr_load();
        a.load(1).arr_len().add().return_val();
        let m = pb.method(c, "m", 0, 2, a.finish());
        let p = pb.finish();
        let mut vm = VmInstance::server(&p, CostModel::default());
        let mut e = Execution::call(m, vec![], &p);
        let (v, _) = run_to_done(&mut e, &mut vm, &p);
        assert_eq!(v, Value::I64(11));
    }

    #[test]
    fn stub_dispatch_selects_by_selector() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("A", 0, None);
        let mut m1 = Asm::new();
        m1.const_i(100).return_val();
        let t1 = pb.method(c, "t1", 0, 0, m1.finish());
        let mut m2 = Asm::new();
        m2.const_i(200).return_val();
        let t2 = pb.method(c, "t2", 0, 0, m2.finish());
        let stub = pb.stub("MethodInterceptor", vec![t1, t2]);
        let mut a = Asm::new();
        a.const_i(1)
            .call_stub(stub)
            .const_i(0)
            .call_stub(stub)
            .add()
            .return_val();
        let m = pb.method(c, "m", 0, 0, a.finish());
        let p = pb.finish();
        let mut vm = VmInstance::server(&p, CostModel::default());
        let mut e = Execution::call(m, vec![], &p);
        let (v, _) = run_to_done(&mut e, &mut vm, &p);
        assert_eq!(v, Value::I64(300));
    }

    #[test]
    fn missing_class_blocks_and_resumes_on_function() {
        let mut pb = ProgramBuilder::new();
        let c_root = pb.user_class("Root", 0, None);
        let c_dep = pb.framework_class("Dep", 0);
        let mut dep = Asm::new();
        dep.const_i(5).return_val();
        let dep_m = pb.method(c_dep, "five", 0, 0, dep.finish());
        let mut a = Asm::new();
        a.call(dep_m).return_val();
        let m = pb.method(c_root, "m", 0, 0, a.finish());
        let p = pb.finish();
        let mut vm = VmInstance::function(&p, CostModel::default());
        vm.load_class(c_root);
        let mut e = Execution::call(m, vec![], &p);
        let r = e.run(&mut vm, &p);
        assert_eq!(
            r.outcome,
            Outcome::Blocked(Block::MissingClass { class: c_dep })
        );
        vm.load_class(c_dep);
        e.resume();
        let (v, _) = run_to_done(&mut e, &mut vm, &p);
        assert_eq!(v, Value::I64(5));
    }

    #[test]
    fn remote_field_blocks_with_provenance_and_resumes_after_fixup() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("Node", 1, None);
        let mut a = Asm::new();
        // return arg.f0.f0
        a.load(0).get_field(0).get_field(0).return_val();
        let m = pb.method(c, "m", 1, 0, a.finish());
        let p = pb.finish();
        let mut vm = VmInstance::function(&p, CostModel::default());
        vm.load_class(c);

        // Closure: local object `a` whose field holds a remote ref (as the
        // server's closure construction would leave it, §4.1).
        let local = vm.heap.alloc_object(c, 1, Space::Alloc).unwrap();
        let remote_canonical = Addr(crate::heap::CLOSURE_BASE + 0x100);
        vm.heap
            .set(local, 0, Value::Ref(remote_canonical.to_remote()));

        let mut e = Execution::call(m, vec![Value::Ref(local)], &p);
        let r = e.run(&mut vm, &p);
        let (addr, prov) = match r.outcome {
            Outcome::Blocked(Block::RemoteRef { addr, prov }) => (addr, prov),
            other => panic!("expected RemoteRef, got {other:?}"),
        };
        assert!(addr.is_remote());
        assert_eq!(addr.to_local(), remote_canonical);
        assert_eq!(
            prov,
            Provenance::Field {
                obj: local,
                slot: 0
            }
        );

        // "Server" ships the object; embedder copies it locally and clears
        // the remote bit in the provenance slot.
        let fetched = vm.heap.alloc_object(c, 1, Space::Closure).unwrap();
        vm.heap.set(fetched, 0, Value::I64(77));
        vm.heap.set(local, 0, Value::Ref(fetched));
        e.resume();
        let (v, _) = run_to_done(&mut e, &mut vm, &p);
        assert_eq!(v, Value::I64(77));
    }

    #[test]
    fn server_never_checks_remote_bits() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("Node", 1, None);
        let mut a = Asm::new();
        a.load(0).get_field(0).return_val();
        let m = pb.method(c, "m", 1, 0, a.finish());
        let p = pb.finish();
        let mut vm = VmInstance::server(&p, CostModel::default());
        let obj = vm.heap.alloc_object(c, 1, Space::Alloc).unwrap();
        vm.heap.set(obj, 0, Value::I64(3));
        let mut e = Execution::call(m, vec![Value::Ref(obj)], &p);
        let (v, _) = run_to_done(&mut e, &mut vm, &p);
        assert_eq!(v, Value::I64(3));
    }

    #[test]
    fn monitor_acquire_blocks_until_granted() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("Shared", 1, None);
        let mut a = Asm::new();
        // synchronized(arg) { arg.f0 += 1 } ; return arg.f0
        a.load(0).monitor_enter();
        a.load(0).load(0).get_field(0).const_i(1).add().put_field(0);
        a.load(0).monitor_exit();
        a.load(0).get_field(0).return_val();
        let m = pb.method(c, "inc", 1, 0, a.finish());
        let p = pb.finish();
        let mut vm = VmInstance::function(&p, CostModel::default());
        vm.load_class(c);
        let obj = vm.heap.alloc_object(c, 1, Space::Closure).unwrap();
        vm.heap.set(obj, 0, Value::I64(10));
        let mut e = Execution::call(m, vec![Value::Ref(obj)], &p);
        let r = e.run(&mut vm, &p);
        assert_eq!(r.outcome, Outcome::Blocked(Block::MonitorAcquire { obj }));
        vm.grant_monitor(obj);
        e.resume();
        let (v, _) = run_to_done(&mut e, &mut vm, &p);
        assert_eq!(v, Value::I64(11));
        // The object was written under the lock: it is on the dirty list.
        assert_eq!(vm.take_dirty(), vec![obj]);
    }

    #[test]
    fn db_call_via_packaged_connection() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("Handler", 0, None);
        let sock = pb.jdk_class("SocketImpl", 1);
        pb.make_packageable(
            sock,
            PackSpec {
                handle_slot: 0,
                kind: PackKind::Socket,
                marshalled_bytes: 64,
            },
        );
        let mut a = Asm::new();
        // conn in local 0; issue query 7 with arg 42, return result + 1
        a.const_i(42).db_call(0, 7).const_i(1).add().return_val();
        let m = pb.method(c, "q", 1, 0, a.finish());
        let p = pb.finish();

        let mut vm = VmInstance::function(&p, CostModel::default());
        vm.load_class(c);
        vm.load_class(sock);
        let conn = vm.heap.alloc_object(sock, 1, Space::Closure).unwrap();
        let handle = vm.register_native_state(NativeState::Socket { proxy_conn_id: 123 });
        vm.heap.set(conn, 0, Value::I64(handle as i64));

        let mut e = Execution::call(m, vec![Value::Ref(conn)], &p);
        let r = e.run(&mut vm, &p);
        assert_eq!(
            r.outcome,
            Outcome::Blocked(Block::Db {
                conn,
                query: 7,
                arg: 42,
                proxy_conn_id: Some(123)
            })
        );
        assert_eq!(vm.counters.db_calls, 1);
        assert_eq!(vm.counters.natives.network, 3);
        e.resume_with(Value::I64(1000));
        let (v, _) = run_to_done(&mut e, &mut vm, &p);
        assert_eq!(v, Value::I64(1001));
    }

    #[test]
    fn db_call_without_packaged_state_requests_fallback() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("Handler", 0, None);
        let sock = pb.jdk_class("SocketImpl", 1);
        pb.make_packageable(
            sock,
            PackSpec {
                handle_slot: 0,
                kind: PackKind::Socket,
                marshalled_bytes: 64,
            },
        );
        let mut a = Asm::new();
        a.const_i(1).db_call(0, 2).return_val();
        let m = pb.method(c, "q", 1, 0, a.finish());
        let p = pb.finish();

        let mut vm = VmInstance::function(&p, CostModel::default());
        vm.load_class(c);
        vm.load_class(sock);
        let conn = vm.heap.alloc_object(sock, 1, Space::Closure).unwrap();
        // Handle value copied from the server, but no native state here.
        vm.heap.set(conn, 0, Value::I64(555));

        let mut e = Execution::call(m, vec![Value::Ref(conn)], &p);
        let r = e.run(&mut vm, &p);
        assert_eq!(
            r.outcome,
            Outcome::Blocked(Block::Db {
                conn,
                query: 2,
                arg: 1,
                proxy_conn_id: None
            })
        );
    }

    #[test]
    fn gc_needed_block_allows_collection_and_retry() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("Obj", 4, None);
        let mut a = Asm::new();
        // allocate `n` objects in a loop, keeping none
        a.const_i(0).store(1);
        let top = a.here();
        a.load(1).load(0).cmp_lt();
        let exit = a.jump_if_zero_fwd();
        a.new_obj(c).pop();
        a.load(1).const_i(1).add().store(1);
        a.jump_back(top);
        a.bind(exit);
        a.const_i(1).return_val();
        let m = pb.method(c, "churn", 1, 1, a.finish());
        let p = pb.finish();

        let mut vm = VmInstance::function(&p, CostModel::default());
        vm.load_class(c);
        // Shrink the heap drastically by exhausting it first.
        let mut e = Execution::call(m, vec![Value::I64(300_000)], &p);
        let mut gcs = 0;
        loop {
            let r = e.run(&mut vm, &p);
            match r.outcome {
                Outcome::Done(v) => {
                    assert_eq!(v, Value::I64(1));
                    break;
                }
                Outcome::Blocked(Block::GcNeeded { .. }) => {
                    gcs += 1;
                    vm.collect(&mut [&mut e], &mut []);
                    e.resume();
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(gcs >= 1, "the loop must have triggered at least one GC");
        assert_eq!(vm.gc_log().len(), gcs);
    }

    #[test]
    fn natives_run_or_fall_back_by_category() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("A", 0, None);
        let arraycopy = pb.native(
            "System.arraycopy",
            NativeCategory::PureOnHeap,
            Duration::from_nanos(50),
            NativeEffect::ArrayCopy,
        );
        let current_thread = pb.native(
            "Thread.currentThread",
            NativeCategory::Stateless,
            Duration::from_nanos(10),
            NativeEffect::PushToken(1),
        );
        let file_read = pb.native(
            "FileInputStream.read0",
            NativeCategory::NonOffloadable,
            Duration::from_micros(2),
            NativeEffect::FileAccess,
        );
        let mut a = Asm::new();
        // copy arr1[0..2] into arr2[1..3]; read file; return arr2[2] + token
        a.const_i(4).new_array().store(0);
        a.const_i(4).new_array().store(1);
        a.load(0).const_i(0).const_i(21).arr_store();
        a.load(0).const_i(1).const_i(2).arr_store();
        a.load(0)
            .const_i(0)
            .load(1)
            .const_i(1)
            .const_i(2)
            .native(arraycopy)
            .pop();
        a.native(file_read).pop();
        a.load(1).const_i(2).arr_load();
        a.native(current_thread).add().return_val();
        let m = pb.method(c, "m", 0, 2, a.finish());
        let p = pb.finish();

        // On the server: runs straight through.
        let mut vm = VmInstance::server(&p, CostModel::default());
        let mut e = Execution::call(m, vec![], &p);
        let (v, _) = run_to_done(&mut e, &mut vm, &p);
        assert_eq!(v, Value::I64(3)); // arr2[2] = 2, token = 1
        assert_eq!(vm.counters.natives.pure_on_heap, 1);
        assert_eq!(vm.counters.natives.stateless, 1);
        assert_eq!(vm.counters.natives.non_offloadable, 1);

        // On a function: the file access falls back.
        let mut vmf = VmInstance::function(&p, CostModel::default());
        vmf.load_class(c);
        let mut ef = Execution::call(m, vec![], &p);
        let r = ef.run(&mut vmf, &p);
        match r.outcome {
            Outcome::Blocked(Block::NativeFallback { native, .. }) => {
                assert_eq!(native, file_read);
            }
            other => panic!("expected NativeFallback, got {other:?}"),
        }
        ef.resume_with(Value::I64(0));
        let (v, _) = run_to_done(&mut ef, &mut vmf, &p);
        assert_eq!(v, Value::I64(3));
    }

    #[test]
    fn reflect_invoke_uses_packaged_metadata() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("A", 0, None);
        let method_class = pb.jdk_class("java.lang.reflect.Method", 1);
        pb.make_packageable(
            method_class,
            PackSpec {
                handle_slot: 0,
                kind: PackKind::MethodMeta,
                marshalled_bytes: 48,
            },
        );
        let invoke0 = pb.native(
            "MethodAccessor.invoke0",
            NativeCategory::HiddenState,
            Duration::from_nanos(200),
            NativeEffect::ReflectInvoke,
        );
        let mut a = Asm::new();
        a.load(0).native(invoke0).return_val();
        let m = pb.method(c, "m", 1, 0, a.finish());
        let p = pb.finish();

        // Function with packaged state: runs locally.
        let mut vm = VmInstance::function(&p, CostModel::default());
        vm.load_class(c);
        vm.load_class(method_class);
        let mobj = vm
            .heap
            .alloc_object(method_class, 1, Space::Closure)
            .unwrap();
        let h = vm.register_native_state(NativeState::MethodMeta {
            method: MethodId(9),
        });
        vm.heap.set(mobj, 0, Value::I64(h as i64));
        let mut e = Execution::call(m, vec![Value::Ref(mobj)], &p);
        let (v, _) = run_to_done(&mut e, &mut vm, &p);
        assert_eq!(v, Value::I64(9));
        assert_eq!(vm.counters.natives.hidden_state, 1);

        // Function without packaged state: falls back.
        let mut vm2 = VmInstance::function(&p, CostModel::default());
        vm2.load_class(c);
        vm2.load_class(method_class);
        let mobj2 = vm2
            .heap
            .alloc_object(method_class, 1, Space::Closure)
            .unwrap();
        vm2.heap.set(mobj2, 0, Value::I64(42)); // dangling handle
        let mut e2 = Execution::call(m, vec![Value::Ref(mobj2)], &p);
        let r = e2.run(&mut vm2, &p);
        assert!(matches!(
            r.outcome,
            Outcome::Blocked(Block::NativeFallback { .. })
        ));
    }

    #[test]
    fn warmup_makes_cold_runs_slower() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("A", 0, None);
        let mut a = Asm::new();
        a.work(1000).const_i(0).return_val();
        let m = pb.method(c, "m", 0, 0, a.finish());
        let p = pb.finish();
        let mut vm = VmInstance::server(&p, CostModel::default());
        let mut cold_cpu = Duration::ZERO;
        let mut warm_cpu = Duration::ZERO;
        for i in 0..vm.cost.warm_threshold + 5 {
            let mut e = Execution::call(m, vec![], &p);
            let r = e.run(&mut vm, &p);
            if i == 0 {
                cold_cpu = r.cpu;
            }
            warm_cpu = r.cpu;
        }
        assert!(
            cold_cpu > warm_cpu * 2,
            "cold {cold_cpu:?} should dwarf warm {warm_cpu:?}"
        );
    }

    #[test]
    fn total_cpu_accumulates_across_segments() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("A", 0, None);
        let dep = pb.framework_class("Dep", 0);
        let mut depm = Asm::new();
        depm.work(500).const_i(1).return_val();
        let dm = pb.method(dep, "d", 0, 0, depm.finish());
        let mut a = Asm::new();
        a.work(500).call(dm).return_val();
        let m = pb.method(c, "m", 0, 0, a.finish());
        let p = pb.finish();
        let mut vm = VmInstance::function(&p, CostModel::default());
        vm.load_class(c);
        let mut e = Execution::call(m, vec![], &p);
        let r1 = e.run(&mut vm, &p);
        assert!(matches!(r1.outcome, Outcome::Blocked(_)));
        vm.load_class(dep);
        e.resume();
        let r2 = e.run(&mut vm, &p);
        assert!(matches!(r2.outcome, Outcome::Done(_)));
        assert_eq!(e.total_cpu(), r1.cpu + r2.cpu);
    }

    #[test]
    fn stack_bytes_reflect_depth() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("A", 0, None);
        let mut a = Asm::new();
        a.const_i(1).return_val();
        let m = pb.method(c, "m", 2, 3, a.finish());
        let p = pb.finish();
        let e = Execution::call(m, vec![Value::I64(1), Value::I64(2)], &p);
        assert_eq!(e.stack_bytes(), (5 + 2) * 8);
    }
}
