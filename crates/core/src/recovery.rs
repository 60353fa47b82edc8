//! Failure recovery (§4.5).
//!
//! "When a synchronization operation is triggered, BeeHive asks for the
//! function instance to send its execution stack, all objects referenced by
//! the stack, and updated shared objects back to the server. [...] If an
//! invocation to FaaS fails, BeeHive sends the latest stack information
//! together with the closure so that the FaaS function can resume its
//! execution from the last synchronization point."
//!
//! Mechanically, a [`Snapshot`] captures the execution's frames plus the
//! instance state needed to reconstruct the function on a replacement
//! instance. We snapshot the whole (small) instance image while charging
//! only the paper's wire cost (stack + referenced objects, a few KBs); the
//! observable semantics are the paper's: execution resumes from the last
//! synchronization point, and the database write journal keeps re-executed
//! writes exactly-once.

use beehive_proxy::ConnId;
use beehive_sim::FastMap;
use beehive_vm::{Execution, MethodId, VmInstance};

use crate::function::FunctionRuntime;
use crate::mapping::MappingTable;

/// A sync-point snapshot of one offloaded execution.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The execution (frames, locals, operand stacks) at the sync point.
    pub exec: Execution,
    vm: VmInstance,
    attached: FastMap<u64, ConnId>,
    instantiated_for: Option<MethodId>,
    /// The write sequence counter at the sync point (re-executed writes
    /// reuse their keys, so the database journal deduplicates them).
    pub write_seq: u32,
    /// The server-side mapping table at the sync point: entries created
    /// after the snapshot reference closure-space addresses the restored
    /// heap does not have, so the mapping must roll back with the heap.
    pub mapping: MappingTable,
}

impl Snapshot {
    /// Capture the state of `func` running `exec`, with the server-side
    /// mapping table as of the sync point.
    pub fn capture(
        exec: &Execution,
        func: &FunctionRuntime,
        root: MethodId,
        write_seq: u32,
        mapping: MappingTable,
    ) -> Self {
        Snapshot {
            exec: exec.clone(),
            vm: func.vm.clone(),
            attached: func.attached.clone(),
            instantiated_for: Some(root),
            write_seq,
            mapping,
        }
    }

    /// Restore the captured instance state onto a replacement instance (its
    /// id is preserved; heap, loaded classes, native state, monitor cache
    /// and connection attachments are replaced by the snapshot's).
    pub fn restore_into(&self, replacement: &mut FunctionRuntime) {
        replacement.vm = self.vm.clone();
        replacement.attached = self.attached.clone();
        replacement.instantiated_for = self.instantiated_for;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_vm::program::ProgramBuilder;
    use beehive_vm::{Asm, CostModel, Value};

    #[test]
    fn snapshot_round_trip() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("A", 1, None);
        let mut a = Asm::new();
        a.load(0).const_i(1).add().return_val();
        let m = pb.method(c, "m", 1, 0, a.finish());
        let p = pb.finish();

        let mut func = FunctionRuntime::new(1, &p, CostModel::default());
        func.vm.load_class(c);
        let exec = Execution::call(m, vec![Value::I64(41)], &p);
        let snap = Snapshot::capture(&exec, &func, m, 3, MappingTable::new());
        assert_eq!(snap.write_seq, 3);

        let mut replacement = FunctionRuntime::new(2, &p, CostModel::default());
        assert!(!replacement.vm.is_loaded(c));
        snap.restore_into(&mut replacement);
        assert!(replacement.vm.is_loaded(c), "loaded classes restored");
        assert_eq!(replacement.instantiated_for, Some(m));
        assert_eq!(replacement.id, 2, "identity stays with the instance");

        // The restored execution runs to completion on the replacement.
        let mut exec2 = snap.exec.clone();
        let r = exec2.run(&mut replacement.vm, &p);
        assert!(matches!(
            r.outcome,
            beehive_vm::Outcome::Done(Value::I64(42))
        ));
    }
}
