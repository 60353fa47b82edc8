//! Exactly-once recovery property (§4.5): wherever the serving instance
//! dies, the recovered run must end with the same result and the same
//! database state as an uninterrupted run — the write journal deduplicates
//! every re-executed effect, and the snapshot restore loses no committed
//! work. A seeded matrix of crash points (early, mid-write-phase, late, and
//! after many sync points) pins this end to end through the public session
//! API, and every restore is checked against a full clone of the instance
//! taken at the sync point it resumes from.

use std::collections::HashMap;
use std::sync::Arc;

use beehive::apps::{App, AppKind, Fidelity};
use beehive::core::config::BeeHiveConfig;
use beehive::core::{
    FunctionRuntime, OffloadSession, Resource, ServerRuntime, ServerSession, SessionStep,
};
use beehive::db::Database;
use beehive::proxy::Proxy;
use beehive::vm::{CostModel, Value, VmInstance};

/// What a run leaves behind: the request's result, the applied write count,
/// and a content digest of every table.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: String,
    writes: u64,
    tables: Vec<(u16, usize, i64)>,
}

fn table_digest(db: &Database) -> Vec<(u16, usize, i64)> {
    (0u16..16)
        .map(|t| {
            let len = db.table_len(t);
            let mut acc = 0i64;
            // Seeded rows are keyed 0..n and journal writes append past
            // them, so a scan a little beyond `len` covers every row.
            for key in 0..(len as i64 + 8) {
                if let Some(v) = db.row(t, key) {
                    acc = acc.wrapping_mul(1_000_003).wrapping_add(key ^ v);
                }
            }
            (t, len, acc)
        })
        .collect()
}

/// Where the serving instance dies.
#[derive(Clone, Copy, Debug)]
enum Crash {
    /// Right after this many database rounds.
    AfterDbRound(u32),
    /// Right after this many sync points (counted across requests).
    AfterSyncPoints(u64),
}

/// The requests one run offloads, in order, to one instance. A pybbs request
/// has 7 sync points (one per synchronized block), so crash points after
/// more sync points than that fall in a later request.
const REQUESTS: [i64; 3] = [7, 8, 9];

/// Serve `arg` on the server, taking back every lock a function holds — so
/// the next offloaded request synchronizes for each of them again.
fn serve_on_server(
    server: &mut ServerRuntime,
    app: &App,
    funcs: &mut HashMap<u32, FunctionRuntime>,
    arg: i64,
) -> Value {
    let mut s = ServerSession::start(server, app.root, vec![Value::I64(arg)]);
    loop {
        match s.next(server) {
            SessionStep::Need(_) => {}
            SessionStep::SyncFromPeer { peer, monitor } => {
                let p = funcs.get_mut(&peer).expect("peer exists");
                server.pull_dirty_from(p);
                if let Some(canonical) = monitor {
                    server.revoke_peer_monitor(p, canonical);
                }
            }
            SessionStep::ServerGc => {
                let pause = server.vm.collect(&mut [s.execution_mut()], &mut []).pause;
                s.gc_done(pause);
            }
            SessionStep::AwaitLock { .. } => unreachable!("one request at a time"),
            SessionStep::Finished(v) => return v,
        }
    }
}

/// Drive pybbs requests through the offload session protocol, one after
/// another on the same instance, with a server-side request in between;
/// when `crash` is set, kill the instance there and recover on a
/// replacement, which serves the rest.
fn run(crash: Option<Crash>) -> Outcome {
    let app = App::build(AppKind::Pybbs, Fidelity::Scaled(2048));
    let mut server = ServerRuntime::new(
        Arc::clone(&app.program),
        BeeHiveConfig::default().with_recovery(),
        Proxy::new(Database::new()),
        CostModel::default(),
    );
    app.install(&mut server);
    let mut funcs: HashMap<u32, FunctionRuntime> = HashMap::new();
    funcs.insert(
        0,
        FunctionRuntime::new(0, &app.program, CostModel::default()),
    );
    let net = server.config.net;

    let (mut db_rounds, mut sync_points, mut recoveries) = (0u32, 0u64, 0u64);
    let mut crashed = false;
    let mut results = Vec::new();
    for (i, arg) in REQUESTS.into_iter().enumerate() {
        if i > 0 {
            let v = serve_on_server(&mut server, &app, &mut funcs, 100 + arg);
            results.push(format!("{v:?}"));
        }
        let serving = if crashed { 1 } else { 0 };
        let mut session = OffloadSession::start(
            &mut server,
            funcs.get_mut(&serving).unwrap(),
            app.root,
            vec![Value::I64(arg)],
            false,
            net,
            false,
        );
        // A full clone of the instance at this session's latest sync point:
        // a sync point's snapshot need is the step `next` returns right
        // after taking it.
        let mut at_sync_point: Option<VmInstance> = None;
        let result = loop {
            let id = session.function_id;
            let mut f = funcs.remove(&id).expect("instance exists");
            let synced = session.stats.snapshots;
            let step = session.next(&mut server, &mut f);
            if session.stats.snapshots > synced {
                sync_points += session.stats.snapshots - synced;
                at_sync_point = Some(f.vm.clone());
            }
            funcs.insert(id, f);
            match step {
                SessionStep::Need(n) => {
                    let db = n.resource == Resource::Db;
                    db_rounds += db as u32;
                    let due = match crash {
                        Some(Crash::AfterDbRound(r)) => db && db_rounds == r,
                        Some(Crash::AfterSyncPoints(s)) => sync_points >= s,
                        None => false,
                    };
                    if crashed || !due {
                        continue;
                    }
                    crashed = true;
                    // The container vanishes mid-request; restore from the
                    // last snapshot on a fresh replacement.
                    funcs.remove(&session.function_id);
                    let mut replacement =
                        FunctionRuntime::new(1, &app.program, CostModel::default());
                    let step = session.recover(&mut server, &mut replacement);
                    // The restore equals restoring a full clone taken at that
                    // sync point, under the replacement's identity.
                    if let Some(mut expected) = at_sync_point.take() {
                        expected.set_trace_id(replacement.id);
                        assert!(
                            replacement.vm == expected,
                            "{crash:?}: the restored instance differs from a \
                             full clone taken at the sync point"
                        );
                    }
                    funcs.insert(1, replacement);
                    match step {
                        SessionStep::Need(_) => {}
                        SessionStep::Finished(v) => break v,
                        other => panic!("unexpected recovery step: {other:?}"),
                    }
                }
                SessionStep::SyncFromPeer { .. }
                | SessionStep::ServerGc
                | SessionStep::AwaitLock { .. } => {
                    panic!("one request at a time: no peers hold the locks")
                }
                SessionStep::Finished(v) => break v,
            }
        };
        recoveries += session.stats.recoveries;
        results.push(format!("{result:?}"));
    }
    if let Some(c) = crash {
        assert!(crashed, "the run finished before {c:?}");
        assert_eq!(recoveries, 1);
    }
    let (_, writes, _) = server.proxy.db().stats();
    Outcome {
        result: results.join(" "),
        writes,
        tables: table_digest(server.proxy.db()),
    }
}

#[test]
fn recovery_is_exactly_once_at_every_crash_point() {
    let baseline = run(None);
    assert!(baseline.writes >= 1, "pybbs commits at least one write");
    // Early, mid write phase, and late crash points of the first request;
    // pybbs at this fidelity issues ~82 db rounds per request, after its
    // sync points.
    let by_round = [1, 5, 10, 20, 40, 60, 80].map(Crash::AfterDbRound);
    // Between and right after the sync points of the second and third
    // requests — 10 to 21 sync points into the run, the session's image
    // refreshed by difference up to six times.
    let by_syncs = [10, 14, 17, 21].map(Crash::AfterSyncPoints);
    for crash in by_round.into_iter().chain(by_syncs) {
        let recovered = run(Some(crash));
        assert_eq!(
            recovered, baseline,
            "{crash:?}: result, write count or table contents diverged from \
             the uninterrupted run"
        );
    }
}
