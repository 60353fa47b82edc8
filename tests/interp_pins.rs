//! Per-request pins of the interpreter and session hot path.
//!
//! For each application × {server-only, offloaded from a fresh instance,
//! offloaded warm} one request is executed and everything the goldens only
//! see through aggregates is compared against constants recorded from the
//! commit *before* the host-time campaign (ISSUE 23): the return value, the
//! interpreter CPU charged, the instance's activity counters, the sequence
//! of interpreter blocks and the resource needs the session queued. Any
//! restructuring of the dispatch loop, the value stack, the heap accessors
//! or the step-path maps must leave every line byte-identical.

use std::fmt::Write as _;
use std::sync::Arc;

use beehive::apps::{App, AppKind, Fidelity};
use beehive::core::config::BeeHiveConfig;
use beehive::core::{FunctionRuntime, OffloadSession, Resource, ServerRuntime, SessionStep};
use beehive::db::{Database, WriteKey};
use beehive::proxy::{ConnId, Origin, Proxy};
use beehive::sim::Duration;
use beehive::telemetry as tele;
use beehive::vm::instance::VmCounters;
use beehive::vm::interp::{Block, Execution, Outcome};
use beehive::vm::{CostModel, EndpointId, Value};

fn runtime_for(app: &App, config: BeeHiveConfig) -> ServerRuntime {
    let mut server = ServerRuntime::new(
        Arc::clone(&app.program),
        config,
        Proxy::new(Database::new()),
        CostModel::default(),
    );
    app.install(&mut server);
    server
}

/// Run-length encode a sequence of names: `a a b` → `a*2 b`.
fn rle(names: &[&'static str]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < names.len() {
        let n = names[i..].iter().take_while(|&&x| x == names[i]).count();
        if !out.is_empty() {
            out.push(' ');
        }
        if n == 1 {
            out.push_str(names[i]);
        } else {
            write!(out, "{}*{n}", names[i]).unwrap();
        }
        i += n;
    }
    out
}

fn counters(c: VmCounters) -> String {
    format!(
        "ops={} allocs={} monitor_enters={} db_calls={} tracked_writes={} natives={}/{}/{}/{}/{}",
        c.ops,
        c.allocs,
        c.monitor_enters,
        c.db_calls,
        c.tracked_writes,
        c.natives.pure_on_heap,
        c.natives.hidden_state,
        c.natives.network,
        c.natives.stateless,
        c.natives.non_offloadable,
    )
}

/// One request on the server, stepping the raw [`Execution`] so every block
/// is visible.
fn server_only(app: &App) -> String {
    let mut server = runtime_for(app, BeeHiveConfig::default());
    server.vm.counters.take();
    let program = Arc::clone(&app.program);
    let mut exec = Execution::call(app.root, vec![Value::I64(3)], &program);
    let mut reasons = Vec::new();
    let mut write_seq = 0;
    let value = loop {
        match exec.run(&mut server.vm, &program).outcome {
            Outcome::Done(v) => break v,
            Outcome::Blocked(b) => {
                reasons.push(b.reason());
                match b {
                    Block::Db {
                        query,
                        arg,
                        proxy_conn_id,
                        ..
                    } => {
                        let conn = ConnId(proxy_conn_id.expect("server socket state"));
                        let key = server.proxy.db().query_def(query).kind.is_write().then(|| {
                            write_seq += 1;
                            WriteKey {
                                request: 1,
                                seq: write_seq - 1,
                            }
                        });
                        let out = server
                            .proxy
                            .execute(conn, Origin::Server, query, arg, key)
                            .expect("registered connection");
                        exec.resume_with(Value::I64(out.result));
                    }
                    Block::GcNeeded { .. } => {
                        server.vm.collect(&mut [&mut exec], &mut []);
                        exec.resume();
                    }
                    Block::MonitorAcquire { obj } => {
                        server.set_monitor_owner(obj, EndpointId::Server);
                        exec.resume();
                    }
                    other => panic!("impossible server-side block: {other:?}"),
                }
            }
        }
    };
    format!(
        "value={value:?} total_cpu={} {} blocks=[{}]",
        exec.total_cpu().as_nanos(),
        counters(server.vm.counters),
        rle(&reasons),
    )
}

/// One offloaded request on `func`, with the function VM's blocks harvested
/// from its `block` trace instants and the queued needs summed per resource.
fn offloaded(server: &mut ServerRuntime, func: &mut FunctionRuntime, app: &App) -> String {
    func.vm.counters.take();
    tele::install();
    let net = server.config.net;
    let mut s = OffloadSession::start(
        server,
        func,
        app.root,
        vec![Value::I64(3)],
        false,
        net,
        false,
    );
    let mut needs = [Duration::ZERO; 4];
    let mut steps = 0u32;
    let value = loop {
        match s.next(server, func) {
            SessionStep::Need(n) => {
                steps += 1;
                let i = match n.resource {
                    Resource::ServerCpu => 0,
                    Resource::FunctionCpu => 1,
                    Resource::Net => 2,
                    Resource::Db => 3,
                };
                needs[i] += n.amount;
            }
            SessionStep::Finished(v) => break v,
            other => panic!("a lone offload session has no peers: {other:?}"),
        }
    };
    let trace = tele::take().expect("recorder armed");
    let reasons: Vec<&'static str> = trace
        .events
        .iter()
        .filter(|e| e.name == "block")
        .map(|e| e.arg_str("reason").expect("block reason"))
        .collect();
    // Snapshot wire bytes are `Execution::stack_bytes()` plus the dirty set.
    let snapshots: Vec<String> = trace
        .events
        .iter()
        .filter(|e| e.name == "snapshot")
        .map(|e| e.arg_u64("bytes").expect("snapshot bytes").to_string())
        .collect();
    format!(
        "value={value:?} {} blocks=[{}] steps={steps} server_cpu={} function_cpu={} net={} db={} \
         fallbacks={} snapshots=[{}]",
        counters(func.vm.counters),
        rle(&reasons),
        needs[0].as_nanos(),
        needs[1].as_nanos(),
        needs[2].as_nanos(),
        needs[3].as_nanos(),
        s.stats.total_fallbacks(),
        snapshots.join(" "),
    )
}

fn pins() -> Vec<String> {
    let mut lines = Vec::new();
    for kind in AppKind::all() {
        let app = App::build(kind, Fidelity::Scaled(4096));
        lines.push(format!("{} server: {}", kind.name(), server_only(&app)));
        let mut server = runtime_for(&app, BeeHiveConfig::default());
        let mut func = FunctionRuntime::new(0, &app.program, CostModel::default());
        let fresh = offloaded(&mut server, &mut func, &app);
        lines.push(format!("{} fresh: {fresh}", kind.name()));
        let warm = offloaded(&mut server, &mut func, &app);
        lines.push(format!("{} warm: {warm}", kind.name()));
        // With §4.5 recovery on, every synchronization ships a snapshot.
        let mut server = runtime_for(&app, BeeHiveConfig::default().with_recovery());
        let mut func = FunctionRuntime::new(0, &app.program, CostModel::default());
        let recovery = offloaded(&mut server, &mut func, &app);
        lines.push(format!("{} fresh+recovery: {recovery}", kind.name()));
    }
    lines
}

/// Recorded from commit 897f2d8 (the parent of the host-time campaign).
#[rustfmt::skip]
const PINS: &[&str] = &[
    "thumbnail server: value=64 total_cpu=336000000 ops=545 allocs=10 monitor_enters=1 db_calls=0 tracked_writes=0 natives=19/24/0/0/0 blocks=[]",
    "thumbnail fresh: value=64 ops=576 allocs=10 monitor_enters=2 db_calls=0 tracked_writes=24 natives=19/24/0/0/0 blocks=[missing_class remote_static remote_ref missing_class*12 remote_static remote_ref remote_static remote_ref missing_class remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref monitor] steps=128 server_cpu=2910000 function_cpu=336003824 net=7740992 db=0 fallbacks=31 snapshots=[]",
    "thumbnail warm: value=64 ops=545 allocs=10 monitor_enters=1 db_calls=0 tracked_writes=24 natives=19/24/0/0/0 blocks=[] steps=3 server_cpu=0 function_cpu=336000600 net=245632 db=0 fallbacks=0 snapshots=[]",
    "thumbnail fresh+recovery: value=64 ops=576 allocs=10 monitor_enters=2 db_calls=0 tracked_writes=24 natives=19/24/0/0/0 blocks=[missing_class remote_static remote_ref missing_class*12 remote_static remote_ref remote_static remote_ref missing_class remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref monitor] steps=129 server_cpu=2910000 function_cpu=336003824 net=7867072 db=0 fallbacks=31 snapshots=[760]",
    "pybbs server: value=10756 total_cpu=439999992 ops=2777 allocs=29 monitor_enters=7 db_calls=82 tracked_writes=0 natives=55/40/248/0/0 blocks=[db*82]",
    "pybbs fresh: value=10756 ops=2850 allocs=29 monitor_enters=14 db_calls=82 tracked_writes=81 natives=55/40/248/0/0 blocks=[missing_class remote_static remote_ref missing_class*20 remote_static remote_ref remote_static remote_ref missing_class remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref monitor remote_static remote_ref monitor remote_static remote_ref monitor remote_static remote_ref monitor remote_static remote_ref monitor remote_static remote_ref monitor remote_static remote_ref monitor db*82] steps=624 server_cpu=4050000 function_cpu=440008985 net=37561504 db=4950000 fallbacks=73 snapshots=[]",
    "pybbs warm: value=10756 ops=2777 allocs=29 monitor_enters=7 db_calls=82 tracked_writes=81 natives=55/40/248/0/0 blocks=[db*82] steps=331 server_cpu=0 function_cpu=440002017 net=19932800 db=4950000 fallbacks=0 snapshots=[]",
    "pybbs fresh+recovery: value=10756 ops=2850 allocs=29 monitor_enters=14 db_calls=82 tracked_writes=81 natives=55/40/248/0/0 blocks=[missing_class remote_static remote_ref missing_class*20 remote_static remote_ref remote_static remote_ref missing_class remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref monitor remote_static remote_ref monitor remote_static remote_ref monitor remote_static remote_ref monitor remote_static remote_ref monitor remote_static remote_ref monitor remote_static remote_ref monitor db*82] steps=631 server_cpu=4050000 function_cpu=440008985 net=38497824 db=4950000 fallbacks=73 snapshots=[1528 1592 1656 1720 1784 1848 1912]",
    "blog server: value=435691 total_cpu=287999992 ops=947 allocs=23 monitor_enters=3 db_calls=13 tracked_writes=0 natives=15/32/40/0/0 blocks=[db*13]",
    "blog fresh: value=435691 ops=996 allocs=23 monitor_enters=6 db_calls=13 tracked_writes=41 natives=15/32/40/0/0 blocks=[missing_class remote_static remote_ref missing_class*16 remote_static remote_ref remote_static remote_ref missing_class remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref monitor remote_static remote_ref monitor remote_static remote_ref monitor db*13] steps=252 server_cpu=3390000 function_cpu=288005809 net=15208992 db=6280000 fallbacks=49 snapshots=[]",
    "blog warm: value=435691 ops=947 allocs=23 monitor_enters=3 db_calls=13 tracked_writes=41 natives=15/32/40/0/0 blocks=[db*13] steps=55 server_cpu=0 function_cpu=288001017 net=3368704 db=6280000 fallbacks=0 snapshots=[]",
    "blog fresh+recovery: value=435691 ops=996 allocs=23 monitor_enters=6 db_calls=13 tracked_writes=41 natives=15/32/40/0/0 blocks=[missing_class remote_static remote_ref missing_class*16 remote_static remote_ref remote_static remote_ref missing_class remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref remote_static remote_ref monitor remote_static remote_ref monitor remote_static remote_ref monitor db*13] steps=255 server_cpu=3390000 function_cpu=288005809 net=15597984 db=6280000 fallbacks=49 snapshots=[1144 1208 1272]",
];

#[test]
fn per_request_behaviour_is_pinned() {
    let got = pins();
    assert_eq!(got.len(), PINS.len());
    for (g, want) in got.iter().zip(PINS) {
        assert_eq!(g, want);
    }
}
