//! The application assembler: turns an [`AppSpec`] into a runnable
//! [`Program`] plus the installation routine that seeds the database and the
//! server's shared state.

use std::sync::Arc;

use beehive_core::config::BeeHiveConfig;
use beehive_core::{ServerRuntime, ServerSession, SessionStep};
use beehive_db::{Database, QueryDef, QueryKind};
use beehive_proxy::Proxy;
use beehive_sim::{Duration, Rng};
use beehive_vm::class::{PackKind, PackSpec};
use beehive_vm::heap::Space;
use beehive_vm::natives::NativeState;
use beehive_vm::program::{Program, ProgramBuilder};
use beehive_vm::{Asm, ClassId, CostModel, MethodId, StaticSlot, Value};

use crate::framework::build_chain;
use crate::natives::NativeSet;
use crate::spec::{AppKind, AppSpec, Fidelity};

/// Prepared-query id of the point read (fixed install order).
pub const Q_READ: u16 = 0;
/// Prepared-query id of the insert.
pub const Q_INSERT: u16 = 1;
/// Prepared-query id of the scan.
pub const Q_SCAN: u16 = 2;

/// Rows seeded into the content table.
pub const TOPIC_ROWS: i64 = 1000;

#[derive(Clone, Debug)]
struct Layout {
    sock_class: ClassId,
    meta_class: ClassId,
    config_class: ClassId,
    lock_class: ClassId,
    stat_class: ClassId,
    conn_static: StaticSlot,
    meta_static: StaticSlot,
    config_static: StaticSlot,
    lock_statics: Vec<StaticSlot>,
    stat_statics: Vec<StaticSlot>,
}

/// A built evaluation application.
#[derive(Clone, Debug)]
pub struct App {
    /// Which application.
    pub kind: AppKind,
    /// Its build parameters.
    pub spec: AppSpec,
    /// The fidelity it was built at.
    pub fidelity: Fidelity,
    /// The compiled program.
    pub program: Arc<Program>,
    /// The annotated root handler (the offloading candidate).
    pub root: MethodId,
    layout: Layout,
    pad: Duration,
}

impl App {
    /// Build `kind` at `fidelity`, calibrating the padding work so a warm
    /// request consumes the spec's CPU budget.
    pub fn build(kind: AppKind, fidelity: Fidelity) -> App {
        let spec = AppSpec::of(kind);
        // Pass 1: no pad, measure a warm request.
        let probe = assemble(&spec, fidelity, Duration::ZERO);
        let measured = measure_warm_cpu(&probe);
        let pad = spec.cpu_budget.saturating_sub(measured);
        // Pass 2: final program with the pad in place.
        let mut app = assemble(&spec, fidelity, pad);
        app.pad = pad;
        app
    }

    /// Install the application's persistent state into a server runtime:
    /// seeds the database, opens the pooled connection, and allocates the
    /// shared objects (reflection metadata, config, locks, hot statistics)
    /// in stable space.
    ///
    /// # Panics
    ///
    /// Panics if called twice on the same runtime (queries would be
    /// re-prepared under different ids).
    pub fn install(&self, server: &mut ServerRuntime) {
        let spec = &self.spec;
        let db = server.proxy.db_mut();
        assert_eq!(db.stats().0, 0, "install on a fresh runtime only");
        db.seed(0, TOPIC_ROWS, |k| k * 3);
        let q_read = db.prepare(QueryDef {
            name: "SELECT ... WHERE id = ?".into(),
            kind: QueryKind::PointRead { table: 0 },
            base_cost: Duration::from_micros(55),
            per_row: Duration::from_micros(5),
        });
        let q_insert = db.prepare(QueryDef {
            name: "INSERT INTO comment ...".into(),
            kind: QueryKind::Insert { table: 1 },
            base_cost: Duration::from_micros(85),
            per_row: Duration::from_micros(5),
        });
        let q_scan = db.prepare(QueryDef {
            name: "SELECT ... ORDER BY created".into(),
            kind: QueryKind::Scan {
                table: 0,
                rows: spec.scan_rows.max(1),
            },
            base_cost: Duration::from_micros(80),
            per_row: Duration::from_micros(3),
        });
        assert_eq!((q_read, q_insert, q_scan), (Q_READ, Q_INSERT, Q_SCAN));

        let l = &self.layout;
        let conn = server.create_connection(l.sock_class);
        server.vm.set_static(l.conn_static, Value::Ref(conn));

        let mobj = server
            .vm
            .heap
            .alloc_object(l.meta_class, 1, Space::Closure)
            .expect("stable space");
        let handle = server
            .vm
            .register_native_state(NativeState::MethodMeta { method: self.root });
        server.vm.heap.set(mobj, 0, Value::I64(handle as i64));
        server.vm.set_static(l.meta_static, Value::Ref(mobj));

        let cfg = server
            .vm
            .heap
            .alloc_object(l.config_class, 2, Space::Closure)
            .expect("stable space");
        server.vm.heap.set(cfg, 0, Value::I64(64));
        server.vm.set_static(l.config_static, Value::Ref(cfg));

        for &slot in &l.lock_statics {
            let lock = server
                .vm
                .heap
                .alloc_object(l.lock_class, 1, Space::Closure)
                .expect("stable space");
            server.vm.heap.set(lock, 0, Value::I64(0));
            server.vm.set_static(slot, Value::Ref(lock));
        }
        for &slot in &l.stat_statics {
            let stat = server
                .vm
                .heap
                .alloc_object(l.stat_class, 2, Space::Closure)
                .expect("stable space");
            server.vm.heap.set(stat, 0, Value::I64(0));
            server.vm.heap.set(stat, 1, Value::I64(0));
            server.vm.set_static(slot, Value::Ref(stat));
        }
    }

    /// Arguments for one request (a random topic id).
    pub fn request_args(&self, rng: &mut Rng) -> Vec<Value> {
        vec![Value::I64(rng.gen_range(TOPIC_ROWS as u64) as i64)]
    }

    /// Lambda memory for this app (§5.1: 2 GB for thumbnail, 1 GB others).
    pub fn lambda_memory_gb(&self) -> f64 {
        self.spec.lambda_memory_gb
    }

    /// The calibrated padding work per request.
    pub fn pad(&self) -> Duration {
        self.pad
    }
}

/// Emit `count` iterations of `body` using `ctr` as a countdown local.
fn emit_loop(a: &mut Asm, count: u64, ctr: u8, body: impl Fn(&mut Asm)) {
    if count == 0 {
        return;
    }
    a.const_i(count as i64).store(ctr);
    let top = a.here();
    a.load(ctr);
    let exit = a.jump_if_zero_fwd();
    body(a);
    a.load(ctr).const_i(1).sub().store(ctr);
    a.jump_back(top);
    a.bind(exit);
}

fn assemble(spec: &AppSpec, fidelity: Fidelity, pad: Duration) -> App {
    let k = fidelity.factor() as u64;
    let mut pb = ProgramBuilder::new();
    let natives = NativeSet::register(&mut pb);

    // Core classes.
    let controller = pb.user_class(
        &format!("{}Controller", spec.kind.name()),
        0,
        Some("@RestController"),
    );
    let service = pb.user_class(&format!("{}Service", spec.kind.name()), 0, None);
    let sock_class = pb.jdk_class("java.net.SocketImpl", 1);
    pb.make_packageable(
        sock_class,
        PackSpec {
            handle_slot: 0,
            kind: PackKind::Socket,
            marshalled_bytes: 64,
        },
    );
    let meta_class = pb.jdk_class("java.lang.reflect.Method", 1);
    pb.make_packageable(
        meta_class,
        PackSpec {
            handle_slot: 0,
            kind: PackKind::MethodMeta,
            marshalled_bytes: 48,
        },
    );
    let config_class = pb.user_class("AppConfig", 2, None);
    let lock_class = pb.user_class("SharedLock", 1, None);
    let stat_class = pb.user_class("HotStat", 2, None);
    let churn_class = pb.framework_class("RequestScopedBean", spec.churn_fields);

    // Statics.
    let conn_static = pb.static_slot("CONNECTION_POOL");
    let meta_static = pb.static_slot("HANDLER_METHOD");
    let config_static = pb.static_slot("APP_CONFIG");
    let lock_statics: Vec<StaticSlot> = (0..spec.locks)
        .map(|i| pb.static_slot(&format!("LOCK_{i}")))
        .collect();
    let stat_statics: Vec<StaticSlot> = (0..spec.hot_stats)
        .map(|i| pb.static_slot(&format!("STAT_{i}")))
        .collect();

    // Native-loop iteration counts at this fidelity (exact at k = 1).
    let pure_copy = (spec.pure_natives * 2 / 3) / k;
    let pure_hash = spec.pure_natives / k - pure_copy.min(spec.pure_natives / k);
    let chain_hidden = crate::framework::chain_hidden_natives(spec.chain_depth);
    let hidden_body = (spec.hidden_natives / k).saturating_sub(chain_hidden);
    let others_thread = (spec.other_natives * 3 / 5) / k;
    let others_nano = (spec.other_natives / k).saturating_sub(others_thread);
    let churn = spec.churn_objects as u64 / k;
    let live_window = (spec.live_window as u64 / k).min(churn).max(1) as i64;
    let per_work = (pad.as_nanos() / 2).min(u32::MAX as u64) as u32;

    // The business-logic body.
    // Locals: 0 arg, 1 ctr, 2 arr1, 3 arr2, 4 method-obj, 5 conn, 6 acc,
    // 7 tmp.
    let mut a = Asm::new();
    a.const_i(16).new_array().store(2);
    a.const_i(16).new_array().store(3);
    a.get_static(meta_static).store(4);
    a.get_static(conn_static).store(5);
    a.get_static(config_static).get_field(0).store(6); // acc seeded from config
    a.work(per_work);
    // Pure on-heap natives.
    emit_loop(&mut a, pure_copy, 1, |a| {
        a.load(2)
            .const_i(0)
            .load(3)
            .const_i(4)
            .const_i(8)
            .native(natives.arraycopy)
            .pop();
    });
    emit_loop(&mut a, pure_hash, 1, |a| {
        a.native(natives.string_hash).pop();
    });
    // Hidden-state natives (reflection).
    emit_loop(&mut a, hidden_body, 1, |a| {
        a.load(4).native(natives.invoke0).pop();
    });
    // Stateless natives.
    emit_loop(&mut a, others_thread, 1, |a| {
        a.native(natives.current_thread).pop();
    });
    emit_loop(&mut a, others_nano, 1, |a| {
        a.native(natives.nano_time).pop();
    });
    // Young-generation churn with a rolling live window: the most recent
    // `live_window` request-scoped objects stay reachable through an array
    // in local 8, so every collection has a real live set to copy.
    if churn > 0 {
        a.const_i(live_window).new_array().store(8);
        emit_loop(&mut a, churn, 1, |a| {
            a.load(8)
                .load(1)
                .const_i(live_window)
                .rem()
                .new_obj(churn_class)
                .arr_store();
        });
    }
    // Direct socket natives (keep-alives etc., Table 2).
    for _ in 0..spec.direct_socket_natives {
        a.load(5).native(natives.socket_write).pop();
    }
    // Hot-statistics writes (unsynchronized shared state: "most shared
    // objects can only be exclusively accessed", §5.6).
    for &slot in &stat_statics {
        a.get_static(slot).store(7);
        a.load(7).load(7).get_field(0).const_i(1).add().put_field(0);
    }
    // Synchronized sections, one per shared lock (Table 5 sync fallbacks).
    for &slot in &lock_statics {
        a.get_static(slot).store(7);
        a.load(7).monitor_enter();
        a.load(7).load(7).get_field(0).const_i(1).add().put_field(0);
        a.load(7).monitor_exit();
    }
    // Database interaction.
    emit_loop(&mut a, spec.db_reads as u64, 1, |a| {
        a.load(0)
            .load(1)
            .add()
            .const_i(TOPIC_ROWS)
            .rem()
            .db_call(5, Q_READ)
            .load(6)
            .add()
            .store(6);
    });
    emit_loop(&mut a, spec.db_scans as u64, 1, |a| {
        a.load(0).db_call(5, Q_SCAN).load(6).add().store(6);
    });
    for _ in 0..spec.db_inserts {
        a.load(6).db_call(5, Q_INSERT).pop();
    }
    a.work(per_work);
    a.load(6).return_val();
    let body = pb.method(service, "handle", 1, 8, a.finish());

    // The framework chain on top of the body, then the annotated root.
    let entry = build_chain(
        &mut pb,
        &natives,
        meta_static,
        spec.chain_depth,
        spec.stub_impls,
        body,
    );
    let mut r = Asm::new();
    r.load(0).call(entry).return_val();
    let annotation = match spec.kind {
        AppKind::Thumbnail => "@PostMapping(\"/thumbnail\")",
        AppKind::Pybbs => "@PostMapping(\"/comment\")",
        AppKind::Blog => "@GetMapping(\"/archive\")",
    };
    let root = pb.method_annotated(controller, "handle", 1, 0, r.finish(), Some(annotation));

    // Filler classes to reach the application's real code-base size (these
    // are never executed, but they are what rules out static slicing and
    // direct upload, §2.2).
    let chain_generated = spec.chain_depth + spec.stub_impls.saturating_sub(1);
    for i in 0..spec.generated_classes.saturating_sub(chain_generated) {
        pb.generated_class(&format!("$Generated{i}"), 1);
    }
    let built_so_far = 8 + chain_generated + spec.generated_classes.saturating_sub(chain_generated);
    for i in 0..spec.classes_total.saturating_sub(built_so_far) {
        pb.framework_class(&format!("framework.pkg.Class{i}"), 2);
    }

    let program = Arc::new(pb.finish());
    App {
        kind: spec.kind,
        spec: spec.clone(),
        fidelity,
        program,
        root,
        layout: Layout {
            sock_class,
            meta_class,
            config_class,
            lock_class,
            stat_class,
            conn_static,
            meta_static,
            config_static,
            lock_statics,
            stat_statics,
        },
        pad,
    }
}

/// Run warm-up requests on a scratch vanilla server and measure the CPU of a
/// warm request (the calibration target excludes BeeHive's barriers).
fn measure_warm_cpu(app: &App) -> Duration {
    let mut server = ServerRuntime::new(
        Arc::clone(&app.program),
        BeeHiveConfig::default(),
        Proxy::new(Database::new()),
        CostModel::default(),
    );
    server.vm.set_barriers(false);
    app.install(&mut server);
    let warm = server.vm.cost.warm_threshold;
    let mut last = Duration::ZERO;
    for i in 0..=warm {
        let mut s = ServerSession::start(&mut server, app.root, vec![Value::I64(i as i64 % 7)]);
        loop {
            match s.next(&mut server) {
                SessionStep::Need(_) => {}
                SessionStep::ServerGc => {
                    let pause = server.vm.collect(&mut [s.execution_mut()], &mut []).pause;
                    s.gc_done(pause);
                }
                SessionStep::SyncFromPeer { .. } => {
                    unreachable!("no functions during calibration")
                }
                SessionStep::AwaitLock { .. } => {
                    unreachable!("no concurrent lock hand-offs in this driver")
                }
                SessionStep::Finished(_) => break,
            }
        }
        last = s.total_cpu();
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_core::SessionStats;

    fn drive_once(
        app: &App,
        server: &mut ServerRuntime,
        arg: i64,
    ) -> (Value, Duration, SessionStats) {
        let mut s = ServerSession::start(server, app.root, vec![Value::I64(arg)]);
        let mut total = Duration::ZERO;
        loop {
            match s.next(server) {
                SessionStep::Need(n) => total += n.amount,
                SessionStep::ServerGc => {
                    let pause = server.vm.collect(&mut [s.execution_mut()], &mut []).pause;
                    s.gc_done(pause);
                }
                SessionStep::SyncFromPeer { .. } => unreachable!(),
                SessionStep::AwaitLock { .. } => {
                    unreachable!("no concurrent lock hand-offs in this driver")
                }
                SessionStep::Finished(v) => return (v, total, s.stats),
            }
        }
    }

    #[test]
    fn scaled_apps_hit_their_cpu_budget() {
        for kind in AppKind::all() {
            let app = App::build(kind, Fidelity::Scaled(1024));
            let mut server = ServerRuntime::new(
                Arc::clone(&app.program),
                BeeHiveConfig::default(),
                Proxy::new(Database::new()),
                CostModel::default(),
            );
            server.vm.set_barriers(false);
            app.install(&mut server);
            // Warm up, then measure.
            let mut cpu = Duration::ZERO;
            for i in 0..=server.vm.cost.warm_threshold {
                let mut s = ServerSession::start(&mut server, app.root, vec![Value::I64(i as i64)]);
                loop {
                    match s.next(&mut server) {
                        SessionStep::Need(_) => {}
                        SessionStep::ServerGc => {
                            let pause = server.vm.collect(&mut [s.execution_mut()], &mut []).pause;
                            s.gc_done(pause);
                        }
                        SessionStep::SyncFromPeer { .. } => unreachable!(),
                        SessionStep::AwaitLock { .. } => {
                            unreachable!("no concurrent lock hand-offs in this driver")
                        }
                        SessionStep::Finished(_) => break,
                    }
                }
                cpu = s.total_cpu();
            }
            let budget = app.spec.cpu_budget;
            let lo = budget.mul_f64(0.9);
            let hi = budget.mul_f64(1.1);
            assert!(
                cpu >= lo && cpu <= hi,
                "{}: warm cpu {cpu:?} vs budget {budget:?}",
                kind.name()
            );
        }
    }

    #[test]
    fn pybbs_scaled_request_completes_with_db_effects() {
        let app = App::build(AppKind::Pybbs, Fidelity::Scaled(2048));
        let mut server = ServerRuntime::new(
            Arc::clone(&app.program),
            BeeHiveConfig::default(),
            Proxy::new(Database::new()),
            CostModel::default(),
        );
        app.install(&mut server);
        let (v, latency, stats) = drive_once(&app, &mut server, 5);
        assert!(matches!(v, Value::I64(_)));
        // The comment was inserted.
        assert_eq!(server.proxy.db().table_len(1), 1);
        // Latency = CPU + db waits, so above the budget.
        assert!(latency > app.spec.cpu_budget);
        assert_eq!(stats.db_rounds, app.spec.db_rounds() as u64);
    }

    #[test]
    fn class_counts_match_the_paper() {
        let app = App::build(AppKind::Pybbs, Fidelity::Scaled(4096));
        assert_eq!(app.program.class_count(), 24_692);
        let generated = (0..app.program.class_count() as u32)
            .filter(|&c| {
                matches!(
                    app.program.class(beehive_vm::ClassId(c)).origin,
                    beehive_vm::class::Origin::Generated
                )
            })
            .count();
        assert_eq!(generated, 287);
    }

    #[test]
    fn request_args_stay_in_range() {
        let app = App::build(AppKind::Blog, Fidelity::Scaled(4096));
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            let args = app.request_args(&mut rng);
            let v = args[0].as_i64().unwrap();
            assert!((0..TOPIC_ROWS).contains(&v));
        }
    }

    #[test]
    fn thumbnail_has_no_db_interaction() {
        let app = App::build(AppKind::Thumbnail, Fidelity::Scaled(2048));
        let mut server = ServerRuntime::new(
            Arc::clone(&app.program),
            BeeHiveConfig::default(),
            Proxy::new(Database::new()),
            CostModel::default(),
        );
        app.install(&mut server);
        let (_, _, stats) = drive_once(&app, &mut server, 3);
        assert_eq!(stats.db_rounds, 0);
        assert_eq!(app.lambda_memory_gb(), 2.0);
    }
}
