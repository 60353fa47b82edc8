//! Randomized property tests on the core data structures and invariants:
//! value encoding, heap/GC reachability preservation, object graph copies
//! with remote marking, processor-sharing work conservation, percentile
//! monotonicity and offload-ratio exactness.
//!
//! Cases are generated with the workspace's own seeded [`Rng`] (fixed seeds,
//! so every run exercises the same inputs — failures reproduce exactly),
//! replacing the external `proptest` dependency.

use std::collections::HashSet;

use beehive::core::mapping::MappingTable;
use beehive::core::objgraph::{apply_dirty_to_server, copy_to_function};
use beehive::sim::pool::PsPool;
use beehive::sim::stats::LatencySampler;
use beehive::sim::{Duration, Rng, SimTime};
use beehive::vm::heap::Space;
use beehive::vm::program::ProgramBuilder;
use beehive::vm::{Addr, ClassId, CostModel, Value, VmInstance};
use beehive::workload::router::{Router, Target};
use beehive::workload::Strategy;

const CASES: usize = 64;

/// A random graph description: `edges[i]` lists, for object `i`, which other
/// objects its fields point at (by index).
fn random_graph(rng: &mut Rng) -> Vec<Vec<usize>> {
    let nodes = 1 + rng.gen_range(23) as usize;
    (0..nodes)
        .map(|_| {
            let degree = rng.gen_range(4) as usize;
            (0..degree).map(|_| rng.gen_range(24) as usize).collect()
        })
        .collect()
}

fn random_mask(rng: &mut Rng, len: usize) -> Vec<bool> {
    (0..len).map(|_| rng.chance(0.5)).collect()
}

// ---------------------------------------------------------------------------
// Value encoding
// ---------------------------------------------------------------------------

#[test]
fn value_encoding_round_trips() {
    let mut rng = Rng::new(0xE4C0);
    for case in 0..1000 {
        // Cover the payload boundaries, zero, and a spread of random values.
        let x = match case {
            0 => -(1i64 << 62),
            1 => (1i64 << 62) - 2,
            2 => 0,
            _ => (rng.next_u64() as i64) >> 2,
        };
        let v = Value::I64(x);
        assert_eq!(Value::decode(v.encode()), v, "payload {x}");
    }
}

#[test]
fn ref_encoding_round_trips() {
    let mut rng = Rng::new(0x5EF);
    for _ in 0..1000 {
        let offset = 1 + rng.gen_range(999_999);
        let remote = rng.chance(0.5);
        let addr = Addr(0x1000_0000_0000 + offset * 8);
        let addr = if remote { addr.to_remote() } else { addr };
        let v = Value::Ref(addr);
        assert_eq!(Value::decode(v.encode()), v);
        assert_eq!(addr.is_remote(), remote);
        assert!(!addr.to_local().is_remote());
    }
}

// ---------------------------------------------------------------------------
// Heap + GC: random object graphs survive collection intact
// ---------------------------------------------------------------------------

fn tiny_vm() -> (VmInstance, ClassId) {
    let mut pb = ProgramBuilder::new();
    let c = pb.user_class("Node", 4, None);
    pb.method(c, "noop", 0, 0, vec![beehive::vm::Op::Return]);
    let p = pb.finish();
    (VmInstance::function(&p, CostModel::default()), c)
}

#[test]
fn gc_preserves_reachable_graphs() {
    let mut master = Rng::new(0x6C_6C);
    for case in 0..CASES {
        let mut rng = master.split();
        let edges = random_graph(&mut rng);
        let keep_mask = random_mask(&mut rng, 24);

        let (mut vm, class) = tiny_vm();
        let n = edges.len();
        // Allocate nodes; field 0 holds the node's id, fields 1..4 its edges.
        let addrs: Vec<Addr> = (0..n)
            .map(|i| {
                let a = vm.heap.alloc_object(class, 4, Space::Alloc).unwrap();
                vm.heap.set(a, 0, Value::I64(i as i64));
                a
            })
            .collect();
        for (i, out) in edges.iter().enumerate() {
            for (slot, &target) in out.iter().enumerate().take(3) {
                vm.heap
                    .set(addrs[i], (slot + 1) as u32, Value::Ref(addrs[target % n]));
            }
        }
        // Roots: a random subset.
        let mut roots: Vec<Value> = addrs
            .iter()
            .enumerate()
            .filter(|(i, _)| keep_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, &a)| Value::Ref(a))
            .collect();
        // Garbage to reclaim.
        for _ in 0..50 {
            vm.heap.alloc_object(class, 4, Space::Alloc).unwrap();
        }

        let before = vm.heap.used_alloc_bytes();
        vm.heap
            .collect(&mut |visit| roots.iter_mut().for_each(&mut *visit));
        assert!(vm.heap.used_alloc_bytes() <= before, "case {case}");

        // Every root's transitive graph must be intact: ids and edge shape.
        let mut stack: Vec<(Addr, usize)> = Vec::new();
        for (root_idx, v) in roots.iter().enumerate() {
            let a = v.as_ref().unwrap();
            let orig: Vec<usize> = addrs
                .iter()
                .enumerate()
                .filter(|(i, _)| keep_mask.get(*i).copied().unwrap_or(false))
                .map(|(i, _)| i)
                .collect();
            stack.push((a, orig[root_idx]));
        }
        let mut seen = HashSet::new();
        while let Some((a, i)) = stack.pop() {
            if !seen.insert(a) {
                continue;
            }
            assert_eq!(
                vm.heap.get(a, 0),
                Value::I64(i as i64),
                "case {case}: node id preserved"
            );
            for slot in 0..3usize {
                let expect = edges[i].get(slot).map(|&t| t % edges.len());
                match (vm.heap.get(a, (slot + 1) as u32), expect) {
                    (Value::Ref(next), Some(t)) => stack.push((next, t)),
                    (Value::Null, None) => {}
                    (got, want) => panic!("case {case}: slot mismatch: {got:?} vs {want:?}"),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Object-graph copy: remote marking + dirty write-back round trip
// ---------------------------------------------------------------------------

#[test]
fn copy_and_writeback_round_trip() {
    let mut master = Rng::new(0xC0_57);
    for case in 0..CASES {
        let mut rng = master.split();
        let edges = random_graph(&mut rng);
        let include_mask = random_mask(&mut rng, 24);
        let new_values: Vec<i64> = (0..24).map(|_| rng.gen_range(1_000_000) as i64).collect();

        let mut pb = ProgramBuilder::new();
        let class = pb.user_class("Node", 4, None);
        pb.method(class, "noop", 0, 0, vec![beehive::vm::Op::Return]);
        let program = pb.finish();
        let mut server = VmInstance::server(&program, CostModel::default());
        let mut func = VmInstance::function(&program, CostModel::default());

        let n = edges.len();
        let addrs: Vec<Addr> = (0..n)
            .map(|i| {
                let a = server.heap.alloc_object(class, 4, Space::Closure).unwrap();
                server.heap.set(a, 0, Value::I64(i as i64));
                a
            })
            .collect();
        for (i, out) in edges.iter().enumerate() {
            for (slot, &t) in out.iter().enumerate().take(3) {
                server
                    .heap
                    .set(addrs[i], (slot + 1) as u32, Value::Ref(addrs[t % n]));
            }
        }

        let include: HashSet<Addr> = addrs
            .iter()
            .enumerate()
            .filter(|(i, _)| include_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, &a)| a)
            .collect();
        let mut mapping = MappingTable::new();
        let report = copy_to_function(
            &server,
            &mut func,
            &mut mapping,
            &program,
            &include,
            &mut |_, _, _| None,
        );
        assert_eq!(report.objects, include.len() as u64, "case {case}");
        assert_eq!(mapping.len(), include.len());

        // Invariant: copied fields either point at copied objects (local) or
        // carry the remote mark with the exact canonical address.
        for (i, &a) in addrs.iter().enumerate() {
            let Some(local) = mapping.local_of(a) else {
                continue;
            };
            assert_eq!(func.heap.get(local, 0), Value::I64(i as i64));
            for slot in 0..3usize {
                if let Value::Ref(r) = func.heap.get(local, (slot + 1) as u32) {
                    let target = addrs[edges[i][slot] % n];
                    if include.contains(&target) {
                        assert_eq!(r, mapping.local_of(target).unwrap());
                    } else {
                        assert!(r.is_remote(), "case {case}");
                        assert_eq!(r.to_local(), target);
                    }
                }
            }
        }

        // Mutate every copied object on the function, ship dirty back, and
        // check the server sees exactly the new values.
        let mut dirty = Vec::new();
        for (i, &a) in addrs.iter().enumerate() {
            if let Some(local) = mapping.local_of(a) {
                func.heap.set(local, 0, Value::I64(new_values[i]));
                func.note_write(local);
                dirty.push(local);
            }
        }
        let dirty_list = func.take_dirty();
        assert_eq!(dirty_list.len(), dirty.len());
        apply_dirty_to_server(&func, &mut server, &mut mapping, &program, &dirty_list);
        for (i, &a) in addrs.iter().enumerate() {
            let expect = if mapping.local_of(a).is_some() {
                new_values[i]
            } else {
                i as i64
            };
            assert_eq!(server.heap.get(a, 0), Value::I64(expect), "case {case}");
        }
    }
}

// ---------------------------------------------------------------------------
// Processor sharing: work conservation and completion correctness
// ---------------------------------------------------------------------------

#[test]
fn ps_pool_conserves_work() {
    let mut master = Rng::new(0x90_01);
    for case in 0..CASES {
        let mut rng = master.split();
        let jobs: Vec<(u64, u64)> = (0..1 + rng.gen_range(19) as usize)
            .map(|_| (1 + rng.gen_range(49_999), rng.gen_range(100_000)))
            .collect();
        let capacity = 1 + rng.gen_range(7) as usize;

        let mut pool = PsPool::new(capacity as f64);
        let mut last = SimTime::ZERO;
        let mut completed = HashSet::new();
        let mut arrival = SimTime::ZERO;
        for (id, (work, at)) in jobs.iter().enumerate() {
            // Arrival times must be non-decreasing for the fluid model, and
            // the event loop always hands the pool completions due before a
            // later arrival first — mirror that ordering here.
            arrival = arrival.max(SimTime::from_nanos(*at));
            while let Some((t, done)) = pool.next_completion() {
                if t > arrival {
                    break;
                }
                assert!(t >= last, "case {case}: completions move forward");
                last = t;
                pool.remove(t, done);
                assert!(
                    completed.insert(done),
                    "case {case}: each job completes once"
                );
            }
            pool.add(arrival, id as u64, Duration::from_micros(*work));
        }
        // Drain the rest; completions must be non-decreasing in time.
        while let Some((t, id)) = pool.next_completion() {
            assert!(t >= last, "case {case}: completions move forward");
            last = t;
            pool.remove(t, id);
            assert!(completed.insert(id), "case {case}: each job completes once");
        }
        assert_eq!(completed.len(), jobs.len());
        // Work conservation: total busy time equals total submitted work
        // (within rounding).
        let total: u64 = jobs.iter().map(|(w, _)| w * 1_000).sum();
        let busy = pool.busy_core_nanos();
        assert!(
            (busy - total as f64).abs() < jobs.len() as f64 * 10.0,
            "case {case}: busy {busy} vs submitted {total}"
        );
    }
}

// ---------------------------------------------------------------------------
// Statistics and routing
// ---------------------------------------------------------------------------

#[test]
fn percentiles_are_monotone() {
    let mut master = Rng::new(0x9E_2C);
    for case in 0..CASES {
        let mut rng = master.split();
        let mut xs: Vec<u64> = (0..1 + rng.gen_range(199) as usize)
            .map(|_| rng.gen_range(10_000_000))
            .collect();
        let mut s = LatencySampler::new();
        for &x in &xs {
            s.record(Duration::from_nanos(x));
        }
        let p50 = s.percentile(0.5);
        let p90 = s.percentile(0.9);
        let p99 = s.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99, "case {case}");
        xs.sort_unstable();
        assert_eq!(s.percentile(1.0).as_nanos(), *xs.last().unwrap());
        assert!(s.mean().as_nanos() <= *xs.last().unwrap());
        assert!(s.mean().as_nanos() >= *xs.first().unwrap());
    }
}

#[test]
fn controller_offloads_exact_share() {
    let mut master = Rng::new(0x0F_F1);
    for case in 0..CASES {
        let mut rng = master.split();
        let ratio = rng.next_f64();
        let n = 100 + rng.gen_range(1900) as usize;
        let mut r = Router::new(Strategy::BeeHiveOpenWhisk, Duration::ZERO, ratio);
        let offloaded = (0..n)
            .filter(|_| r.route(SimTime::ZERO, 1).target == Target::Faas)
            .count();
        let expected = (ratio * n as f64).floor();
        assert!(
            (offloaded as f64 - expected).abs() <= 1.0,
            "case {case}: ratio {ratio}: {offloaded} of {n}"
        );
    }
}

#[test]
fn rng_exponential_is_positive_and_seeded() {
    let mut master = Rng::new(0xD15);
    for _ in 0..CASES {
        let seed = master.next_u64();
        let mean_us = 1 + master.gen_range(99_999);
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..50 {
            let d = a.exponential(Duration::from_micros(mean_us));
            assert_eq!(d, b.exponential(Duration::from_micros(mean_us)));
        }
    }
}
