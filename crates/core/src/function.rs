//! The function-side runtime of one FaaS instance.

use beehive_proxy::ConnId;
use beehive_sim::FastMap;
use beehive_vm::program::Program;
use beehive_vm::{CostModel, MethodId, VmInstance};

/// Runtime state living inside one FaaS instance: a fresh VM plus the
/// attachment table of proxied connections.
///
/// An instance is reused across requests while the platform keeps it warm;
/// the instantiated closure (classes, objects, native state) persists, which
/// is why steady-state requests see almost no fallbacks (Table 5).
#[derive(Clone, Debug)]
pub struct FunctionRuntime {
    /// Stable id of this function instance (also its proxy identity).
    pub id: u32,
    /// The instance's VM.
    pub vm: VmInstance,
    /// Which root method's closure is instantiated here, if any.
    pub instantiated_for: Option<MethodId>,
    /// Proxy connections attached via prepared offload IDs:
    /// offload-id → underlying logical connection.
    pub attached: FastMap<u64, ConnId>,
}

impl FunctionRuntime {
    /// A fresh instance (as produced by a cold boot of the Semi-FaaS
    /// template: "only contains BeeHive's JVM for the function to connect
    /// with the server", §5.1).
    pub fn new(id: u32, program: &Program, cost: CostModel) -> Self {
        let mut vm = VmInstance::function(program, cost);
        vm.set_trace_id(id);
        FunctionRuntime {
            id,
            vm,
            instantiated_for: None,
            attached: FastMap::default(),
        }
    }

    /// The logical connection behind a prepared offload id, if attached.
    pub fn connection(&self, offload_id: u64) -> Option<ConnId> {
        self.attached.get(&offload_id).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_vm::program::ProgramBuilder;

    #[test]
    fn fresh_instance_is_empty() {
        let mut pb = ProgramBuilder::new();
        let c = pb.user_class("A", 0, None);
        pb.method(c, "m", 0, 0, vec![beehive_vm::Op::Return]);
        let p = pb.finish();
        let f = FunctionRuntime::new(3, &p, CostModel::default());
        assert_eq!(f.id, 3);
        assert_eq!(f.instantiated_for, None);
        assert!(!f.vm.is_loaded(c));
        assert_eq!(f.connection(1), None);
    }
}
