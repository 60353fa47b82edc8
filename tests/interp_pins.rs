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
//!
//! A second table, `PROTOCOL`, pins the session protocol per request: the
//! digest of every step in order, the fallback and fetch overhead the
//! session credited, and the total charged to each synthetic profile frame.
//! It adds crash-and-recover rows and the two pybbs ablations that fall back
//! for database rounds and natives.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use beehive::apps::{App, AppKind, Fidelity};
use beehive::core::config::BeeHiveConfig;
use beehive::core::{
    FunctionRuntime, OffloadSession, Resource, ServerRuntime, ServerSession, SessionStats,
    SessionStep,
};
use beehive::db::{Database, WriteKey};
use beehive::profiler as prof;
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

// ---- The session protocol table ----
//
// Where `PINS` sums the needs per resource, this table pins the session
// protocol itself: every step in order (by digest), the fallback and fetch
// overhead the session credited itself, and what each synthetic profile
// frame (`[db]`, `[fallback:code]`, `[sync:monitor]`, …) was charged.

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A running digest of a session's step sequence.
struct Steps {
    count: u32,
    digest: u64,
}

impl Steps {
    fn new() -> Self {
        Steps {
            count: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn push(&mut self, step: &SessionStep) {
        let line = match step {
            SessionStep::Need(n) => format!(
                "need {:?} {} {} {}",
                n.resource,
                n.amount.as_nanos(),
                n.fallback,
                n.fetch
            ),
            SessionStep::SyncFromPeer { peer, monitor } => format!("peer {peer} {monitor:?}"),
            SessionStep::ServerGc => "gc".to_string(),
            SessionStep::AwaitLock { canonical } => format!("await {canonical:?}"),
            SessionStep::Finished(v) => format!("finished {v:?}"),
        };
        self.count += 1;
        self.digest = fnv1a(self.digest, line.as_bytes());
        self.digest = fnv1a(self.digest, b"\n");
    }
}

/// Total self time per synthetic frame, from the folded export of the
/// profile recorded since [`prof::install`].
fn synthetic_frames() -> String {
    let raw = prof::take().expect("profiler installed");
    let folded = raw.resolve(|m| m.to_string()).folded();
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for (frames, ns) in prof::parse_folded(&folded).expect("own export parses") {
        let leaf = frames.last().expect("non-empty stack");
        if leaf.starts_with('[') {
            *totals.entry(leaf.clone()).or_default() += ns;
        }
    }
    let parts: Vec<String> = totals.iter().map(|(f, ns)| format!("{f}={ns}")).collect();
    parts.join(" ")
}

fn protocol_row(steps: &Steps, stats: &SessionStats) -> String {
    format!(
        "steps={} digest={:016x} fallback_overhead={} fetch_overhead={} frames=[{}]",
        steps.count,
        steps.digest,
        stats.fallback_overhead.as_nanos(),
        stats.fetch_overhead.as_nanos(),
        synthetic_frames(),
    )
}

/// One request through a [`ServerSession`], the driver collecting on demand.
fn server_protocol(app: &App) -> String {
    let mut server = runtime_for(app, BeeHiveConfig::default());
    prof::install();
    let mut s = ServerSession::start(&mut server, app.root, vec![Value::I64(3)]);
    let mut steps = Steps::new();
    loop {
        let step = s.next(&mut server);
        steps.push(&step);
        match step {
            SessionStep::Need(_) => {}
            SessionStep::ServerGc => {
                let pause = server.vm.collect(&mut [s.execution_mut()], &mut []).pause;
                s.gc_done(pause);
            }
            SessionStep::Finished(_) => break,
            other => panic!("a lone server session has no peers: {other:?}"),
        }
    }
    protocol_row(&steps, &s.stats)
}

/// One offloaded request on `func`. With `crash_after` set, the instance
/// dies at the first need once that many snapshots were taken and the
/// session recovers onto a new instance.
fn offload_protocol(
    server: &mut ServerRuntime,
    func: &mut FunctionRuntime,
    app: &App,
    crash_after: Option<u64>,
) -> String {
    prof::install();
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
    let mut steps = Steps::new();
    let mut replacement: Option<FunctionRuntime> = None;
    loop {
        let f = replacement.as_mut().unwrap_or(&mut *func);
        let mut step = s.next(server, f);
        if matches!(step, SessionStep::Need(_))
            && replacement.is_none()
            && crash_after.is_some_and(|k| s.stats.snapshots >= k)
        {
            steps.push(&step);
            let r = replacement.insert(FunctionRuntime::new(
                func.id + 1,
                &app.program,
                CostModel::default(),
            ));
            step = s.recover(server, r);
        }
        steps.push(&step);
        match step {
            SessionStep::Need(_) => {}
            SessionStep::Finished(_) => break,
            other => panic!("a lone offload session has no peers: {other:?}"),
        }
    }
    protocol_row(&steps, &s.stats)
}

fn protocol() -> Vec<String> {
    let mut lines = Vec::new();
    for kind in AppKind::all() {
        let app = App::build(kind, Fidelity::Scaled(4096));
        let name = kind.name();
        lines.push(format!("{name} server: {}", server_protocol(&app)));
        let mut server = runtime_for(&app, BeeHiveConfig::default());
        let mut func = FunctionRuntime::new(0, &app.program, CostModel::default());
        let fresh = offload_protocol(&mut server, &mut func, &app, None);
        lines.push(format!("{name} fresh: {fresh}"));
        let warm = offload_protocol(&mut server, &mut func, &app, None);
        lines.push(format!("{name} warm: {warm}"));
        let recovery = BeeHiveConfig::default().with_recovery();
        let mut server = runtime_for(&app, recovery);
        let mut func = FunctionRuntime::new(0, &app.program, CostModel::default());
        let row = offload_protocol(&mut server, &mut func, &app, None);
        lines.push(format!("{name} fresh+recovery: {row}"));
        // Killed before any sync point (re-dispatch) and after the first one
        // (resume from the snapshot).
        for k in [0, 1] {
            let mut server = runtime_for(&app, recovery);
            let mut func = FunctionRuntime::new(0, &app.program, CostModel::default());
            let row = offload_protocol(&mut server, &mut func, &app, Some(k));
            lines.push(format!("{name} fresh+crash@{k}: {row}"));
        }
    }
    // The two ablations that reach `[db:fallback]` and `[fallback:native]`.
    let pybbs = App::build(AppKind::Pybbs, Fidelity::Scaled(4096));
    for (label, config) in [
        ("no-proxy", BeeHiveConfig::default().without_proxy()),
        (
            "no-packageable",
            BeeHiveConfig::default().without_packageable(),
        ),
    ] {
        let mut server = runtime_for(&pybbs, config);
        let mut func = FunctionRuntime::new(0, &pybbs.program, CostModel::default());
        let fresh = offload_protocol(&mut server, &mut func, &pybbs, None);
        lines.push(format!("pybbs {label} fresh: {fresh}"));
        let warm = offload_protocol(&mut server, &mut func, &pybbs, None);
        lines.push(format!("pybbs {label} warm: {warm}"));
    }
    lines
}

/// Recorded from commit 83b6ac5, before the two sessions shared a step loop.
#[rustfmt::skip]
const PROTOCOL: &[&str] = &[
    "thumbnail server: steps=2 digest=599667296efb37e2 fallback_overhead=0 fetch_overhead=0 frames=[]",
    "thumbnail fresh: steps=129 digest=f5529dc04983c8b4 fallback_overhead=8284208 fetch_overhead=8004208 frames=[[fallback:code]=3747824 [fallback:data]=2136384 [fallback:static]=2120000 [sync:monitor]=280000]",
    "thumbnail warm: steps=4 digest=ba110adea9dda746 fallback_overhead=0 fetch_overhead=0 frames=[]",
    "thumbnail fresh+recovery: steps=130 digest=2c4e971b4d57eff1 fallback_overhead=8410288 fetch_overhead=8004208 frames=[[fallback:code]=3747824 [fallback:data]=2136384 [fallback:static]=2120000 [sync:monitor]=280000]",
    "thumbnail fresh+crash@0: steps=131 digest=254b9fc5d691b731 fallback_overhead=10652464 fetch_overhead=8004208 frames=[[fallback:code]=3747824 [fallback:data]=2136384 [fallback:static]=2120000 [sync:monitor]=280000]",
    "thumbnail fresh+crash@1: steps=131 digest=29321a27171b4563 fallback_overhead=8534320 fetch_overhead=8004208 frames=[[fallback:code]=3747824 [fallback:data]=2136384 [fallback:static]=2120000 [recovery]=124032 [sync:monitor]=280000]",
    "pybbs server: steps=330 digest=bfee2413ba4d07dd fallback_overhead=0 fetch_overhead=0 frames=[[db]=21350000]",
    "pybbs fresh: steps=625 digest=4a2c87aab88a1a7e fallback_overhead=19557552 fetch_overhead=17597552 frames=[[db:proxy]=24630000 [fallback:code]=5892496 [fallback:data]=5875056 [fallback:static]=5830000 [sync:monitor]=1960000]",
    "pybbs warm: steps=332 digest=712b6f82382951fc fallback_overhead=0 fetch_overhead=0 frames=[[db:proxy]=24630000]",
    "pybbs fresh+recovery: steps=632 digest=78c116a1fbeb810b fallback_overhead=20493872 fetch_overhead=17597552 frames=[[db:proxy]=24630000 [fallback:code]=5892496 [fallback:data]=5875056 [fallback:static]=5830000 [sync:monitor]=1960000]",
    "pybbs fresh+crash@0: steps=633 digest=b889a80da0f23c4b fallback_overhead=22736048 fetch_overhead=17597552 frames=[[db:proxy]=24630000 [fallback:code]=5892496 [fallback:data]=5875056 [fallback:static]=5830000 [sync:monitor]=1960000]",
    "pybbs fresh+crash@1: steps=633 digest=64e44e9f5bc94090 fallback_overhead=20619952 fetch_overhead=17597552 frames=[[db:proxy]=24630000 [fallback:code]=5892496 [fallback:data]=5875056 [fallback:static]=5830000 [recovery]=126080 [sync:monitor]=1960000]",
    "blog server: steps=54 digest=6b1e5fdddb22efbe fallback_overhead=0 fetch_overhead=0 frames=[[db]=8880000]",
    "blog fresh: steps=253 digest=8839884b9dd041d8 fallback_overhead=13109136 fetch_overhead=12269136 frames=[[db:proxy]=9400000 [fallback:code]=4820464 [fallback:data]=3738672 [fallback:static]=3710000 [sync:monitor]=840000]",
    "blog warm: steps=56 digest=b7a511c7c006dc8c fallback_overhead=0 fetch_overhead=0 frames=[[db:proxy]=9400000]",
    "blog fresh+recovery: steps=256 digest=95ef3b90e8a11290 fallback_overhead=13498128 fetch_overhead=12269136 frames=[[db:proxy]=9400000 [fallback:code]=4820464 [fallback:data]=3738672 [fallback:static]=3710000 [sync:monitor]=840000]",
    "blog fresh+crash@0: steps=257 digest=556e6ba5189de9d0 fallback_overhead=15740304 fetch_overhead=12269136 frames=[[db:proxy]=9400000 [fallback:code]=4820464 [fallback:data]=3738672 [fallback:static]=3710000 [sync:monitor]=840000]",
    "blog fresh+crash@1: steps=257 digest=4bb9bc187630e253 fallback_overhead=13623184 fetch_overhead=12269136 frames=[[db:proxy]=9400000 [fallback:code]=4820464 [fallback:data]=3738672 [fallback:static]=3710000 [recovery]=125056 [sync:monitor]=840000]",
    "pybbs no-proxy fresh: steps=871 digest=28522c0de15cef28 fallback_overhead=57687552 fetch_overhead=17597552 frames=[[db:fallback]=43080000 [fallback:code]=5892496 [fallback:data]=5875056 [fallback:static]=5830000 [sync:monitor]=1960000]",
    "pybbs no-proxy warm: steps=578 digest=ced8abdb21cb5d0e fallback_overhead=38130000 fetch_overhead=0 frames=[[db:fallback]=43080000]",
    "pybbs no-packageable fresh: steps=1039 digest=19a53eadb884cd16 fallback_overhead=68825552 fetch_overhead=17597552 frames=[[db:fallback]=43080000 [fallback:code]=5892496 [fallback:data]=5875056 [fallback:native]=11138000 [fallback:static]=5830000 [sync:monitor]=1960000]",
    "pybbs no-packageable warm: steps=746 digest=d493a51fd9812d98 fallback_overhead=49268000 fetch_overhead=0 frames=[[db:fallback]=43080000 [fallback:native]=11138000]",
];

#[test]
fn session_protocol_is_pinned() {
    let got = protocol();
    assert_eq!(got.len(), PROTOCOL.len());
    for (g, want) in got.iter().zip(PROTOCOL) {
        assert_eq!(g, want);
    }
}
