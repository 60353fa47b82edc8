//! Sync-image property (the §4.5 recovery snapshot): however an instance is
//! mutated between refreshes, the image [`VmInstance::sync_image`] keeps
//! equals a fresh clone at every sync point — by difference while it
//! mirrors the same instance, by a full copy once it is pointed at another.

use beehive_sim::Rng;
use beehive_vm::heap::Space;
use beehive_vm::natives::NativeState;
use beehive_vm::program::{Program, ProgramBuilder};
use beehive_vm::{Addr, ClassId, CostModel, MethodId, Op, StaticSlot, Value, VmInstance};

const CLASSES: u32 = 24;
const METHODS: u32 = 8;
const STATICS: u32 = 6;

fn program() -> Program {
    let mut pb = ProgramBuilder::new();
    for c in 0..CLASSES {
        let class = pb.user_class(&format!("C{c}"), 3, None);
        if c < METHODS {
            pb.method(class, "m", 0, 0, vec![Op::Return]);
        }
    }
    for s in 0..STATICS {
        pb.static_slot(&format!("S{s}"));
    }
    pb.finish()
}

/// An image that mirrors nothing yet.
fn blank_image() -> VmInstance {
    VmInstance::function(&Program::default(), CostModel::default())
}

/// A function instance under seeded random mutation. `objects` roots every
/// object it still tracks, so collections keep them (and relocate them).
struct Subject {
    vm: VmInstance,
    objects: Vec<Value>,
    rng: Rng,
}

impl Subject {
    fn new(program: &Program, seed: u64) -> Self {
        Subject {
            vm: VmInstance::function(program, CostModel::default()),
            objects: Vec::new(),
            rng: Rng::new(seed),
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.gen_range(n)
    }

    fn pick(&mut self) -> Option<Addr> {
        if self.objects.is_empty() {
            return None;
        }
        let i = self.below(self.objects.len() as u64) as usize;
        self.objects[i].as_ref()
    }

    fn value(&mut self) -> Value {
        match self.below(3) {
            0 => Value::Null,
            1 => Value::I64(self.rng.next_u32() as i64 - (1 << 31)),
            _ => self.pick().map_or(Value::Null, Value::Ref),
        }
    }

    fn collect(&mut self) {
        // Drop about a third of the roots first, so collections free
        // something.
        let keep: Vec<bool> = self.objects.iter().map(|_| self.rng.chance(0.7)).collect();
        let mut keep = keep.into_iter();
        self.objects.retain(|_| keep.next().unwrap_or(true));
        let mut roots: Vec<&mut Value> = self.objects.iter_mut().collect();
        self.vm.collect(&mut [], &mut roots);
    }

    fn alloc(&mut self) {
        let space = if self.rng.chance(0.3) {
            Space::Closure
        } else {
            Space::Alloc
        };
        // Up to ~1.5 pages, so objects straddle page boundaries.
        let slots = 1 + self.below(96) as u32;
        let class = ClassId(self.below(CLASSES as u64) as u32);
        let heap = &mut self.vm.heap;
        let addr = if self.rng.chance(0.5) {
            heap.alloc_array(slots, space)
        } else {
            heap.alloc_object(class, slots, space)
        };
        self.objects
            .push(Value::Ref(addr.expect("the test never fills the space")));
    }

    fn step(&mut self) {
        let Some(obj) = self.pick() else {
            return self.alloc();
        };
        let len = self.vm.heap.len_of(obj);
        match self.below(13) {
            0..=2 => self.alloc(),
            3 | 4 => {
                let slot = self.below(len as u64) as u32;
                let v = self.value();
                self.vm.heap.set(obj, slot, v);
                self.vm.note_write(obj);
            }
            5 => {
                // Overlapping within one object as often as across two.
                let dst = if self.rng.chance(0.5) {
                    obj
                } else {
                    self.pick().unwrap_or(obj)
                };
                let dst_len = self.vm.heap.len_of(dst);
                let n = self.below(len.min(dst_len) as u64 + 1) as u32;
                let src_pos = self.below((len - n) as u64 + 1) as u32;
                let dst_pos = self.below((dst_len - n) as u64 + 1) as u32;
                self.vm.heap.copy_slots(obj, src_pos, dst, dst_pos, n);
            }
            6 => match self.below(3) {
                0 => {
                    self.vm.heap.mark_dirty(obj);
                }
                1 => self.vm.heap.clear_dirty(obj),
                _ => {
                    self.vm.take_dirty();
                }
            },
            7 => self.collect(),
            8 => {
                let class = ClassId(self.below(CLASSES as u64) as u32);
                self.vm.load_class(class);
            }
            9 => {
                let slot = StaticSlot(self.below(STATICS as u64) as u32);
                let v = self.value();
                if self.rng.chance(0.5) {
                    self.vm.install_static(slot, v);
                } else {
                    self.vm.set_static(slot, v);
                }
            }
            10 => match self.below(3) {
                0 => self.vm.grant_monitor(obj),
                1 => self.vm.revoke_monitor(obj),
                _ => {
                    let state = NativeState::Socket {
                        proxy_conn_id: self.rng.next_u64(),
                    };
                    self.vm.register_native_state(state);
                }
            },
            11 => {
                let method = MethodId(self.below(METHODS as u64) as u32);
                self.vm.note_invocation(method);
            }
            _ => {
                let shadow = self.rng.chance(0.5);
                self.vm.counters.ops += 1;
                self.vm.set_shadow(shadow);
            }
        }
    }
}

#[test]
fn an_image_synced_at_random_points_equals_a_fresh_clone() {
    let program = program();
    for seed in 0..12 {
        let mut s = Subject::new(&program, seed);
        let mut image = blank_image();
        let (mut syncs, mut by_difference) = (0, 0);
        for _ in 0..600 {
            s.step();
            if s.rng.chance(0.1) {
                by_difference += s.vm.sync_image(&mut image) as u32;
                syncs += 1;
                assert_eq!(image, s.vm.clone(), "seed {seed}, sync {syncs}");
            }
        }
        assert!(syncs > 10, "seed {seed}: only {syncs} syncs");
        assert_eq!(
            by_difference,
            syncs - 1,
            "seed {seed}: every sync after the first goes by difference"
        );
        assert!(
            s.vm.gc_log().len() >= 2,
            "seed {seed}: the run covers two semispace flips"
        );
    }
}

#[test]
fn an_image_pointed_at_another_instance_is_copied_whole() {
    let program = program();
    let mut a = Subject::new(&program, 1);
    let mut b = Subject::new(&program, 2);
    for _ in 0..200 {
        a.step();
        b.step();
    }
    let mut image = blank_image();
    assert!(
        !a.vm.sync_image(&mut image),
        "the first sync copies everything"
    );
    for _ in 0..50 {
        a.step();
    }
    assert!(a.vm.sync_image(&mut image));
    assert_eq!(image, a.vm.clone());

    assert!(
        !b.vm.sync_image(&mut image),
        "an image of `a` is no image of `b`"
    );
    assert_eq!(image, b.vm.clone());

    // A clone is a new instance, even while it still equals the original...
    let twin = b.vm.clone();
    assert!(!twin.sync_image(&mut image));
    assert_eq!(image, twin);
    // ...and an image's clone mirrors nothing.
    let mut copy = image.clone();
    assert!(!twin.sync_image(&mut copy));
    assert_eq!(copy, twin);
    // The same at the heap level.
    let mut heap_image = a.vm.heap.clone();
    assert!(!a.vm.heap.sync_image(&mut heap_image));
    assert!(a.vm.heap.sync_image(&mut heap_image));
    assert!(!b.vm.heap.sync_image(&mut heap_image));
    assert_eq!(heap_image, b.vm.heap);
}
