//! Failure recovery (§4.5).
//!
//! "When a synchronization operation is triggered, BeeHive asks for the
//! function instance to send its execution stack, all objects referenced by
//! the stack, and updated shared objects back to the server. [...] If an
//! invocation to FaaS fails, BeeHive sends the latest stack information
//! together with the closure so that the FaaS function can resume its
//! execution from the last synchronization point."
//!
//! Mechanically, a [`Snapshot`] holds the execution's frames plus an image
//! of the instance state needed to reconstruct the function on a
//! replacement instance. A session keeps one snapshot and refreshes it in
//! place at every sync point; the image is kept up to date by difference —
//! the heap pages written since the previous sync point, what each heap
//! space appended, newly loaded classes — much as the paper ships only the
//! stack and the updated objects. The wire cost charged is the paper's
//! (stack + referenced objects, a few KBs); the observable semantics are
//! the paper's too: execution resumes from the last synchronization point,
//! and the database write journal keeps re-executed writes exactly-once.

use beehive_proxy::ConnId;
use beehive_sim::FastMap;
use beehive_vm::program::Program;
use beehive_vm::{CostModel, Execution, MethodId, VmInstance};

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
    /// A snapshot of nothing, for [`Snapshot::refresh`] to fill: its first
    /// refresh copies the whole instance.
    pub(crate) fn empty() -> Self {
        Snapshot {
            exec: Execution::default(),
            vm: VmInstance::function(&Program::default(), CostModel::default()),
            attached: FastMap::default(),
            instantiated_for: None,
            write_seq: 0,
            mapping: MappingTable::new(),
        }
    }

    /// Capture the state of `func` running `exec`, with the server-side
    /// mapping table as of the sync point: the refresh of an empty snapshot.
    pub fn capture(
        exec: &Execution,
        func: &FunctionRuntime,
        root: MethodId,
        write_seq: u32,
        mapping: MappingTable,
    ) -> Self {
        let mut snap = Snapshot::empty();
        // The table is ours to keep: moved in rather than copied.
        snap.refresh(exec, func, root, write_seq, &MappingTable::new());
        snap.mapping = mapping;
        snap
    }

    /// Move this snapshot to the sync point `func` running `exec` has
    /// reached, in place: the instance image copies only what `func`
    /// changed since the previous refresh (see [`VmInstance::sync_image`]),
    /// and everything else reuses this snapshot's buffers.
    pub(crate) fn refresh(
        &mut self,
        exec: &Execution,
        func: &FunctionRuntime,
        root: MethodId,
        write_seq: u32,
        mapping: &MappingTable,
    ) {
        self.exec.clone_from(exec);
        func.vm.sync_image(&mut self.vm);
        self.attached.clone_from(&func.attached);
        self.instantiated_for = Some(root);
        self.write_seq = write_seq;
        self.mapping.clone_from(mapping);
    }

    /// Restore the captured instance state onto a replacement instance:
    /// heap, loaded classes, native state, monitor cache and connection
    /// attachments are replaced by the snapshot's, while the replacement
    /// keeps its identity — its id, and with it the trace track and
    /// profiler credit of whatever it runs next.
    pub fn restore_into(&self, replacement: &mut FunctionRuntime) {
        replacement.vm.clone_from(&self.vm);
        replacement.vm.set_trace_id(replacement.id);
        replacement.attached.clone_from(&self.attached);
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
        assert_eq!(
            replacement.vm.trace_track(),
            beehive_telemetry::Track::Instance(2),
            "the replacement's events land on its own track"
        );

        // The restored execution runs to completion on the replacement.
        let mut exec2 = snap.exec.clone();
        let r = exec2.run(&mut replacement.vm, &p);
        assert!(matches!(
            r.outcome,
            beehive_vm::Outcome::Done(Value::I64(42))
        ));
    }
}
