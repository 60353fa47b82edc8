//! Closure plans: what goes into the initial closure of a root method, and
//! how fallbacks refine it (§3.1, §4.3).
//!
//! The initial closure is "code (Java bytecode) and data likely to be used
//! according to dynamic profiling". BeeHive's key property is that the plan
//! need not be complete: execution on FaaS falls back for anything missing,
//! and every fallback *refines* the plan so the next dispatch includes it —
//! "the fallback mechanism continuously completes the closure" (§3.1). This
//! is exactly the Table 5 dynamic: ~1.5k fetches during the first (shadow)
//! execution, single digits afterwards.

use std::collections::BTreeSet;

use beehive_sim::Duration;
use beehive_vm::{Addr, ClassId, MethodId, StaticSlot};

/// The (refinable) recipe for building a root method's initial closure.
#[derive(Clone, Debug)]
pub struct ClosurePlan {
    /// The root method.
    pub root: MethodId,
    /// Classes whose code ships with the closure.
    pub classes: BTreeSet<ClassId>,
    /// Server objects (canonical addresses) copied into the closure.
    pub objects: BTreeSet<Addr>,
    /// Statics pre-installed on the function.
    pub statics: BTreeSet<StaticSlot>,
}

impl ClosurePlan {
    /// A minimal plan: just the root method's class. Everything else arrives
    /// through fallbacks and refinement.
    pub fn minimal(root: MethodId, root_class: ClassId) -> Self {
        let mut classes = BTreeSet::new();
        classes.insert(root_class);
        ClosurePlan {
            root,
            classes,
            objects: BTreeSet::new(),
            statics: BTreeSet::new(),
        }
    }

    /// Refine with a class fetched by a missing-code fallback.
    pub fn note_class(&mut self, class: ClassId) {
        self.classes.insert(class);
    }

    /// Refine with an object fetched by a data fallback.
    ///
    /// # Panics
    ///
    /// Panics on a remote-marked address (plans hold canonical addresses).
    pub fn note_object(&mut self, server_addr: Addr) {
        assert!(!server_addr.is_remote(), "plans hold canonical addresses");
        self.objects.insert(server_addr);
    }

    /// Refine with a static fetched by a data fallback.
    pub fn note_static(&mut self, slot: StaticSlot) {
        self.statics.insert(slot);
    }

    /// Rough size of the plan (for diagnostics).
    pub fn len(&self) -> usize {
        self.classes.len() + self.objects.len() + self.statics.len()
    }

    /// `true` when the plan holds nothing at all (not even a root class).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Outcome of instantiating a closure on a fresh function instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClosureStats {
    /// Objects copied.
    pub objects: u64,
    /// Classes shipped.
    pub classes: u64,
    /// Total transfer size (classes + objects + marshalled native state).
    pub bytes: u64,
    /// Server CPU time to compute the closure (§5.6: ~134 ms on average,
    /// overlappable with the cold boot).
    pub compute: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ClosurePlan {
        /// `true` when only the root class is planned.
        fn is_minimal(&self) -> bool {
            self.classes.len() <= 1 && self.objects.is_empty() && self.statics.is_empty()
        }
    }

    #[test]
    fn minimal_plan() {
        let p = ClosurePlan::minimal(MethodId(3), ClassId(7));
        assert!(p.is_minimal());
        assert_eq!(p.len(), 1);
        assert!(p.classes.contains(&ClassId(7)));
    }

    #[test]
    fn refinement_grows_the_plan() {
        let mut p = ClosurePlan::minimal(MethodId(0), ClassId(0));
        p.note_class(ClassId(1));
        p.note_class(ClassId(1)); // dedup
        p.note_object(Addr(0x1000_0000_0000));
        p.note_static(StaticSlot(2));
        assert!(!p.is_minimal());
        assert_eq!(p.len(), 4);
    }

    #[test]
    #[should_panic(expected = "canonical")]
    fn remote_addresses_rejected() {
        let mut p = ClosurePlan::minimal(MethodId(0), ClassId(0));
        p.note_object(Addr(0x1000_0000_0000).to_remote());
    }
}
