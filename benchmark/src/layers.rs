//! The layer pass (`--layers`, and `--trace 1` of the driver contract): a
//! separate, traced run that links the workspace crates and times calls
//! into their public functions from outside. Layer = crate.
//!
//! Three parts: micro-probes (one span per batch), four in-process scenario
//! shapes built through the same public API `repro` uses (one span per call
//! into a layer), and CLI-level ratios that restate the two observability
//! workloads against their plain twins. README.md lists every workspace
//! function called here — the probed-API list.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use beehive_apps::{App, AppKind, Fidelity};
use beehive_chaos::{Fault, FaultPlan, Injector};
use beehive_core::config::BeeHiveConfig;
use beehive_core::mapping::MappingTable;
use beehive_core::recovery::Snapshot;
use beehive_core::{FunctionRuntime, OffloadSession, ServerRuntime, ServerSession, SessionStep};
use beehive_db::{Database, QueryDef, QueryKind};
use beehive_faas::{FaasPlatform, PlatformConfig};
use beehive_metrics::{LogLinearHistogram, MetricsSnapshot};
use beehive_observatory::{Observer, TimelineDoc};
use beehive_proxy::{Origin, Proxy};
use beehive_sentinel::{Sentinel, SentinelConfig};
use beehive_sim::json::Json;
use beehive_sim::pool::PsPool;
use beehive_sim::{Duration, EventQueue, Rng, SimTime};
use beehive_telemetry as tele;
use beehive_vm::heap::Space;
use beehive_vm::{ClassId, CostModel, Execution, Value, VmInstance};
use beehive_workload::engine::{run_all_with_workers, Scenario};
use beehive_workload::experiment::base_rate;
use beehive_workload::{ArrivalPattern, Sim, SimConfig, SimResult, Strategy};

use crate::e2e::{self, Ctx, Plan, Reps};
use crate::result::LayerMetric;
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{self, Workload};

/// How much work the pass may spend.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// `--smoke`: minimal iterations, every code path once.
    Smoke,
    /// `--trace 1` of the driver contract: sized to one benchmark run. The
    /// run's workload is invoked once (set-up pass plus output checks) so
    /// the driver's records carry its simulated statistics.
    Contract(&'static Workload),
    /// `--layers`: full iterations plus the per-item CLI ledger.
    Full,
}

/// The scenario shapes run in-process, one per end-to-end mechanism.
pub const SHAPES: [&str; 4] = ["steady", "burst", "server", "crash"];

const APPS: [AppKind; 3] = [AppKind::Thumbnail, AppKind::Pybbs, AppKind::Blog];

/// What the pass produced.
pub struct LayerPass {
    pub metrics: Vec<LayerMetric>,
    pub spans: Spans,
    /// Checks made (simulations finished, models agreed, children exited 0).
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl LayerPass {
    pub fn report_failures(&self) {
        for f in &self.failures {
            println!("  FAILED {f}");
        }
    }

    /// `layers.json`: the metrics plus every span with its self time.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "metrics".to_string(),
                Json::Arr(self.metrics.iter().map(LayerMetric::to_json).collect()),
            ),
            ("spans".to_string(), self.spans.to_json()),
        ])
    }
}

struct Pass<'c> {
    ctx: &'c mut Ctx,
    budget: Budget,
    out: LayerPass,
}

/// Run the layer pass.
pub fn run(ctx: &mut Ctx, budget: Budget) -> Result<LayerPass, String> {
    let mut p = Pass {
        ctx,
        budget,
        out: LayerPass {
            metrics: Vec::new(),
            spans: Spans::new(),
            attempted: 0,
            failures: Vec::new(),
        },
    };
    p.run_all()?;
    Ok(p.out)
}

// ----- harness ------------------------------------------------------------

impl Pass<'_> {
    fn emit(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.out.metrics.push(LayerMetric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        });
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.out.attempted += 1;
        if !ok {
            self.out.failures.push(what.to_string());
        }
    }

    /// Iterations for a probe sized `iters` at full budget.
    fn iters(&self, iters: u64) -> u64 {
        match self.budget {
            Budget::Smoke => (iters / 64).max(1),
            Budget::Contract(_) | Budget::Full => iters,
        }
    }

    /// Batches per micro-probe / repetitions per timed simulation.
    fn batches(&self) -> usize {
        match self.budget {
            Budget::Smoke => 1,
            Budget::Contract(_) => 3,
            Budget::Full => 5,
        }
    }

    /// Time `iters` calls of `f` per batch, one span per batch, fresh
    /// untimed `setup` state per batch; median seconds per call.
    fn probe<S>(
        &mut self,
        name: &str,
        iters: u64,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(&mut S),
    ) -> f64 {
        let iters = self.iters(iters);
        let per_call: Vec<f64> = (0..self.batches())
            .map(|_| {
                let mut state = setup();
                let ((), secs) = self.out.spans.span(&format!("probe.{name}"), || {
                    for _ in 0..iters {
                        f(&mut state);
                    }
                });
                secs / iters as f64
            })
            .collect();
        stats::median(&per_call)
    }

    /// [`Pass::probe`] for probes with no per-batch state, reported in ns.
    fn probe_ns(&mut self, name: &str, iters: u64, mut f: impl FnMut()) {
        let s = self.probe(name, iters, || (), |()| f());
        self.emit(name, s * 1e9, "ns");
    }

    /// [`Pass::probe`] for probes with no per-batch state, reported in µs.
    fn probe_us(&mut self, name: &str, iters: u64, mut f: impl FnMut()) {
        let s = self.probe(name, iters, || (), |()| f());
        self.emit(name, s * 1e6, "us");
    }
}

// ----- request drivers (the loops `repro`'s lifecycle layer runs) ------------

fn fresh_server(app: &App) -> ServerRuntime {
    let mut server = ServerRuntime::new(
        Arc::clone(&app.program),
        BeeHiveConfig::default(),
        Proxy::new(Database::new()),
        CostModel::default(),
    );
    app.install(&mut server);
    server
}

fn drive_server(server: &mut ServerRuntime, session: &mut ServerSession) -> Value {
    loop {
        match session.next(server) {
            SessionStep::Need(_) => {}
            SessionStep::ServerGc => {
                let pause = server
                    .vm
                    .collect(&mut [session.execution_mut()], &mut [])
                    .pause;
                session.gc_done(pause);
            }
            SessionStep::SyncFromPeer { .. } | SessionStep::AwaitLock { .. } => {
                unreachable!("a lone server session has no peers")
            }
            SessionStep::Finished(v) => return v,
        }
    }
}

type Funcs = HashMap<u32, FunctionRuntime>;

fn drive_offload(
    server: &mut ServerRuntime,
    session: &mut OffloadSession,
    funcs: &mut Funcs,
) -> Value {
    loop {
        let id = session.function_id;
        let mut f = funcs.remove(&id).expect("session's instance exists");
        let step = session.next(server, &mut f);
        funcs.insert(id, f);
        match step {
            SessionStep::Need(_) => {}
            SessionStep::SyncFromPeer { peer, monitor } => {
                let p = funcs.get_mut(&peer).expect("peer instance exists");
                let objs = server.pull_dirty_from(p).0;
                if let Some(c) = monitor {
                    server.revoke_peer_monitor(p, c);
                }
                session.deliver_peer_objects(objs);
            }
            SessionStep::ServerGc | SessionStep::AwaitLock { .. } => {
                unreachable!("sequential offload sessions never wait on the server")
            }
            SessionStep::Finished(v) => return v,
        }
    }
}

/// One offloaded request on instance `id`, start to finish.
fn offload_once(
    server: &mut ServerRuntime,
    funcs: &mut Funcs,
    app: &App,
    id: u32,
    arg: i64,
) -> Value {
    let net = server.config.net;
    let mut s = {
        let f = funcs.get_mut(&id).expect("instance exists");
        OffloadSession::start(
            server,
            f,
            app.root,
            vec![Value::I64(arg)],
            false,
            net,
            false,
        )
    };
    drive_offload(server, &mut s, funcs)
}

/// A server plus `n` instances warmed by one request each.
fn warm_fleet(app: &App, n: u32) -> (ServerRuntime, Funcs) {
    let mut server = fresh_server(app);
    let mut funcs = Funcs::new();
    for id in 0..n {
        funcs.insert(
            id,
            FunctionRuntime::new(id, &app.program, CostModel::default()),
        );
        offload_once(&mut server, &mut funcs, app, id, 1);
    }
    (server, funcs)
}

// ----- scenario shapes ------------------------------------------------------

/// The [`SimConfig`] of one shape, built the way the matching `repro`
/// experiment builds its own (fig9 / fig7 / fig2 / recovery).
fn shape_config(shape: &str, app: &App, seed: u64, horizon_s: u64) -> SimConfig {
    let horizon = Duration::from_secs(horizon_s);
    let rate = base_rate(app);
    let steady = |app: &App| {
        let mut cfg = SimConfig::new(app.clone(), Strategy::BeeHiveOpenWhisk);
        cfg.arrivals = ArrivalPattern::constant(rate);
        cfg.offload_ratio = 1.0;
        cfg.engage_at = Duration::ZERO;
        cfg.prewarm_ready = ((rate * 0.25).ceil() as usize).clamp(1, 64);
        cfg
    };
    let mut cfg = match shape {
        "steady" => steady(app),
        "burst" => {
            let burst_at = horizon / 3;
            let mut cfg = SimConfig::new(app.clone(), Strategy::BeeHiveOpenWhisk);
            cfg.arrivals = ArrivalPattern::Open {
                base_rps: rate,
                burst_mult: 2.0,
                burst_at,
                burst_end: horizon,
            };
            cfg.engage_at = burst_at;
            cfg
        }
        "server" => {
            let mut cfg = SimConfig::new(app.clone(), Strategy::Vanilla);
            cfg.arrivals = ArrivalPattern::Closed { clients: 32 };
            cfg
        }
        "crash" => {
            let mut cfg = steady(app);
            cfg.beehive = cfg.beehive.with_recovery();
            cfg.faults = crash_plan(seed, horizon);
            cfg
        }
        other => unreachable!("unknown shape {other}"),
    };
    cfg.horizon = horizon;
    cfg.record_from = horizon / 3;
    cfg.seed = seed;
    cfg
}

/// The rate-based fault plan of `repro recovery` at 2 crashes/s.
fn crash_plan(seed: u64, window: Duration) -> FaultPlan {
    let mut plan = FaultPlan::new(beehive_chaos::keyed(seed, "benchmark crash"));
    let rate = |fault, per_sec| Injector::Rate {
        fault,
        per_sec,
        start: Duration::ZERO,
        end: window,
    };
    plan.push(rate(Fault::InstanceCrash { selector: 0 }, 2.0));
    plan.push(rate(Fault::BootFailure, 0.5));
    plan.push(rate(
        Fault::RpcDrop {
            timeout: Duration::from_millis(5),
        },
        2.0,
    ));
    plan.push(rate(
        Fault::DbConnDrop {
            reconnect: Duration::from_millis(2),
        },
        1.0,
    ));
    plan
}

/// One simulation: `Sim::new` and `Sim::run`, each in its own span.
struct SimTiming {
    new_s: f64,
    run_s: f64,
    result: SimResult,
}

fn run_sim(spans: &mut Spans, cfg: SimConfig) -> SimTiming {
    let (sim, new_s) = spans.span("workload.sim_new", || Sim::new(cfg));
    let (result, run_s) = spans.span("workload.sim_run", || sim.run());
    SimTiming {
        new_s,
        run_s,
        result,
    }
}

impl Pass<'_> {
    fn horizon_s(&self) -> u64 {
        match self.budget {
            Budget::Smoke => 3,
            Budget::Contract(_) | Budget::Full => 12,
        }
    }

    /// Run `cfg` [`Pass::batches`] times; the median-`run_s` timing.
    fn run_median(&mut self, cfg: &SimConfig) -> SimTiming {
        let mut runs: Vec<SimTiming> = (0..self.batches())
            .map(|_| run_sim(&mut self.out.spans, cfg.clone()))
            .collect();
        runs.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
        runs.swap_remove(runs.len() / 2)
    }

    /// `cfg` with one more substrate on, against the plain run. Each batch
    /// times a plain run and a run with the substrate back to back and keeps
    /// their ratio, so a slow minute of the box cancels; the median ratio is
    /// reported. Returns the last run with the substrate on.
    fn overhead_x(
        &mut self,
        name: &str,
        cfg: &SimConfig,
        on: impl Fn(&mut SimConfig),
    ) -> SimTiming {
        let mut with = cfg.clone();
        on(&mut with);
        let mut ratios = Vec::new();
        let mut last = None;
        for _ in 0..self.batches() {
            let plain = run_sim(&mut self.out.spans, cfg.clone());
            let t = run_sim(&mut self.out.spans, with.clone());
            ratios.push(t.run_s / plain.run_s);
            self.check(
                &format!("{name}: same completed count as the plain run"),
                t.result.completed == plain.result.completed,
            );
            last = Some(t);
        }
        self.emit(name, stats::median(&ratios), "x");
        last.expect("at least one batch")
    }

    /// One shape: build the app, run plain and traced, report; the steady
    /// shape also feeds every trace consumer and substrate.
    fn shape(&mut self, shape: &str) {
        self.out.spans.set_shape(shape);
        let seed = self.ctx.seed;
        let horizon_s = self.horizon_s();
        let (app, _) = self.out.spans.span("apps.build", || {
            App::build(AppKind::Pybbs, Fidelity::fast())
        });
        let cfg = shape_config(shape, &app, seed, horizon_s);

        let plain = self.run_median(&cfg);
        self.emit(
            format!("workload.sim_new_ms.{shape}"),
            plain.new_s * 1e3,
            "ms",
        );
        self.emit(
            format!("workload.sim_run_ms.{shape}"),
            plain.run_s * 1e3,
            "ms",
        );
        self.emit(
            format!("workload.sim_req_per_s.{shape}"),
            plain.result.completed as f64 / plain.run_s,
            "1/s",
        );
        self.check(
            &format!("shape {shape}: requests completed"),
            plain.result.completed > 0,
        );

        let mut traced =
            self.overhead_x(&format!("telemetry.record_overhead_x.{shape}"), &cfg, |c| {
                c.trace = true
            });
        let trace = traced.result.trace.take().unwrap_or_default();
        self.emit(
            format!("telemetry.trace_events.{shape}"),
            trace.events.len() as f64,
            "count",
        );
        self.check(
            &format!("shape {shape}: trace recorded"),
            !trace.events.is_empty(),
        );

        if shape == "steady" {
            self.steady_consumers(shape, trace);
            self.steady_substrates(&cfg);
        }
    }

    /// Every consumer of a recorded trace, one span each.
    fn steady_consumers(&mut self, label: &str, trace: tele::Trace) {
        let events = trace.events.len().max(1) as f64;
        let window = Duration::from_secs(1);

        let (check, s) = self.out.spans.span("sentinel.replay", || {
            let mut sentinel = Sentinel::new(SentinelConfig::default());
            for e in &trace.events {
                sentinel.feed(e);
            }
            sentinel.finish(label.to_string())
        });
        self.emit("sentinel.feed_ns_per_event", s * 1e9 / events, "ns");
        self.check(
            "sentinel: steady trace has no violations",
            check.violations.is_empty(),
        );

        let (series, s) = self.out.spans.span("observatory.feed", || {
            let mut observer = Observer::new(window);
            for e in &trace.events {
                observer.feed(e);
            }
            observer.finish(label.to_string())
        });
        self.emit("observatory.feed_ns_per_event", s * 1e9 / events, "ns");
        let doc = TimelineDoc::from_series(vec![series]);
        let (svg, s) = self
            .out
            .spans
            .span("observatory.render_svg", || doc.render_svg());
        self.emit("observatory.svg_render_us", s * 1e6, "us");
        self.check("observatory: svg rendered", svg.starts_with("<svg"));

        let traces = vec![(label.to_string(), trace)];
        let (reports, s) = self.out.spans.span("insight.attribute_all", || {
            beehive_insight::attribute_all(&traces, beehive_metrics::EXEMPLAR_K)
        });
        self.emit("insight.attribute_ns_per_event", s * 1e9 / events, "ns");
        self.check("insight: one report per scenario", reports.len() == 1);

        let (snap, s) = self.out.spans.span("metrics.reduce", || {
            beehive_metrics::reduce(&traces, beehive_metrics::DEFAULT_WINDOW)
        });
        self.emit("metrics.reduce_ns_per_event", s * 1e9 / events, "ns");
        black_box(snap);

        let (summary, s) = self.out.spans.span("telemetry.critical_path", || {
            tele::summary::critical_path(&traces)
        });
        self.emit("telemetry.summary_ns_per_event", s * 1e9 / events, "ns");
        black_box(summary);

        let (text, s) = self.out.spans.span("telemetry.chrome_trace_string", || {
            tele::chrome::chrome_trace_string(&traces)
        });
        self.emit(
            "telemetry.chrome_export_ns_per_event",
            s * 1e9 / events,
            "ns",
        );
        self.emit(
            "telemetry.bytes_per_event",
            text.len() as f64 / events,
            "count",
        );
        self.check(
            "telemetry: chrome document",
            text.starts_with("{\"traceEvents\":["),
        );

        // The JSON tree itself, over that same (large) document.
        let mb = text.len() as f64 / 1e6;
        let (tree, s) = self.out.spans.span("sim.json_parse", || Json::parse(&text));
        self.emit("sim.json_parse_mb_per_s", mb / s, "MB/s");
        match tree {
            Ok(tree) => {
                let (again, s) = self.out.spans.span("sim.json_render", || tree.render());
                self.emit(
                    "sim.json_render_mb_per_s",
                    again.len() as f64 / 1e6 / s,
                    "MB/s",
                );
                self.check("sim.json: parse → render is the identity", again == text);
            }
            Err(e) => {
                self.emit("sim.json_render_mb_per_s", 0.0, "MB/s");
                self.check(&format!("sim.json: chrome document parses ({e})"), false);
            }
        }
    }

    /// Each live substrate switched on alone, against the plain steady run.
    fn steady_substrates(&mut self, cfg: &SimConfig) {
        let mut t = self.overhead_x("metrics.live_overhead_x", cfg, |c| c.metrics = true);
        if let Some(reg) = t.result.metrics.take() {
            let snap = MetricsSnapshot {
                window: cfg.metrics_window,
                scenarios: vec![reg.snapshot("steady")],
            };
            let (text, s) = self
                .out
                .spans
                .span("metrics.snapshot_render", || snap.render());
            self.emit("metrics.snapshot_render_us", s * 1e6, "us");
            self.check("metrics: snapshot rendered", text.starts_with('{'));
        } else {
            self.emit("metrics.snapshot_render_us", 0.0, "us");
            self.check("metrics: live registry returned", false);
        }

        let mut t = self.overhead_x("profiler.live_overhead_x", cfg, |c| c.profile = true);
        if let Some(profile) = t.result.profile.take() {
            let (folded, s) = self.out.spans.span("profiler.folded", || profile.folded());
            self.emit("profiler.folded_export_us", s * 1e6, "us");
            self.check("profiler: folded stacks", !folded.is_empty());
        } else {
            self.emit("profiler.folded_export_us", 0.0, "us");
            self.check("profiler: profile returned", false);
        }

        let t = self.overhead_x("sentinel.online_overhead_x", cfg, |c| c.sentinel = true);
        self.check(
            "sentinel: online run is clean",
            t.result.sentinel.is_some_and(|c| c.violations.is_empty()),
        );
        let t = self.overhead_x("observatory.online_overhead_x", cfg, |c| c.observe = true);
        self.check(
            "observatory: online series returned",
            t.result.observatory.is_some(),
        );

        // The same simulation with no span taken around it, paired with a
        // spanned run: what the pass's own tracing costs.
        let ratios: Vec<f64> = (0..self.batches())
            .map(|_| {
                let spanned = run_sim(&mut self.out.spans, cfg.clone());
                let sim = Sim::new(cfg.clone());
                let t0 = Instant::now();
                black_box(sim.run());
                spanned.run_s / t0.elapsed().as_secs_f64()
            })
            .collect();
        self.emit("bench.tracing_overhead_x", stats::median(&ratios), "x");
    }

    /// `run_all_with_workers` over an 8-scenario sweep: 1 worker against
    /// min(nproc, 4).
    fn engine_scaling(&mut self) {
        self.out.spans.set_shape("engine");
        let app = App::build(AppKind::Pybbs, Fidelity::fast());
        let horizon_s = self.horizon_s().min(6);
        let seed = self.ctx.seed;
        let scenarios: Vec<Scenario> = (0..8u64)
            .map(|i| {
                Scenario::new(
                    format!("sweep {i}"),
                    shape_config("server", &app, seed + i, horizon_s),
                )
            })
            .collect();
        let workers = crate::nproc().min(4);
        let batches = self.batches();
        let mut time = |w: usize| {
            let s = scenarios.clone();
            let (outcomes, secs) = self.out.spans.span(&format!("workload.run_all.{w}"), || {
                run_all_with_workers(s, w)
            });
            black_box(outcomes);
            secs
        };
        // Serial and pooled sweeps back to back, ratio per pair. One core:
        // the pool cannot show a speed-up; report the identity.
        let ratios: Vec<f64> = (0..batches)
            .map(|_| {
                if workers > 1 {
                    time(1) / time(workers)
                } else {
                    1.0
                }
            })
            .collect();
        let speedup = stats::median(&ratios);
        self.emit("workload.engine_speedup", speedup, "x");
        self.emit("workload.engine_efficiency", speedup / workers as f64, "x");
    }
}

// ----- micro-probes ----------------------------------------------------------

impl Pass<'_> {
    fn probe_sim(&mut self) {
        for (pending, name) in [
            (1usize << 10, "sim.queue_sched_pop_1k_ns"),
            (1 << 16, "sim.queue_sched_pop_64k_ns"),
        ] {
            let mut rng = Rng::new(self.ctx.seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..pending {
                q.schedule(SimTime::from_nanos(rng.gen_range(1_000_000)), i as u64);
            }
            let s = self.probe(
                name,
                200_000,
                || (),
                |()| {
                    let (t, e) = q.pop().expect("queue stays at its pending count");
                    q.schedule(t + Duration::from_nanos(1 + rng.gen_range(1_000_000)), e);
                },
            );
            self.emit(name, s * 1e9, "ns");
        }

        // A 4-core pool holding 32 jobs: retire the next one, admit another.
        let mut pool = PsPool::new(4.0);
        let mut rng = Rng::new(self.ctx.seed);
        let mut next_id = 0u64;
        let mut now = SimTime::ZERO;
        for _ in 0..32 {
            pool.add(
                now,
                next_id,
                Duration::from_micros(100 + rng.gen_range(900)),
            );
            next_id += 1;
        }
        self.probe_ns("sim.pspool_add_complete_ns", 100_000, || {
            let (t, done) = pool.next_completion().expect("pool is never empty");
            now = t;
            pool.remove(now, done);
            pool.add(
                now,
                next_id,
                Duration::from_micros(100 + rng.gen_range(900)),
            );
            next_id += 1;
        });
    }

    fn probe_apps_vm_core(&mut self) {
        for kind in APPS {
            let name = kind.name();
            let s = self.probe(
                &format!("apps.build_ms.{name}"),
                2,
                || (),
                |()| {
                    black_box(App::build(kind, Fidelity::fast()));
                },
            );
            self.emit(format!("apps.build_ms.{name}"), s * 1e3, "ms");

            let app = App::build(kind, Fidelity::fast());
            let mut server = fresh_server(&app);
            let mut arg = 0i64;
            let ops_before = server.vm.counters.ops;
            let t0 = Instant::now();
            let probe_name = format!("vm.server_req_us.{name}");
            let s = self.probe(
                &probe_name,
                300,
                || (),
                |()| {
                    arg = (arg + 1) % 997;
                    let mut session =
                        ServerSession::start(&mut server, app.root, vec![Value::I64(arg)]);
                    black_box(drive_server(&mut server, &mut session));
                },
            );
            self.emit(probe_name, s * 1e6, "us");
            if kind == AppKind::Pybbs {
                let ops = (server.vm.counters.ops - ops_before) as f64;
                self.emit(
                    "vm.interp_ops_per_s",
                    ops / t0.elapsed().as_secs_f64(),
                    "1/s",
                );
            }

            let (mut server, mut funcs) = warm_fleet(&app, 1);
            let mut arg = 0i64;
            let probe_name = format!("core.offload_req_us.{name}");
            let s = self.probe(
                &probe_name,
                300,
                || (),
                |()| {
                    arg = (arg + 1) % 997;
                    black_box(offload_once(&mut server, &mut funcs, &app, 0, arg));
                },
            );
            self.emit(probe_name, s * 1e6, "us");
        }
    }

    fn probe_heap(&mut self) {
        let app = App::build(AppKind::Pybbs, Fidelity::fast());
        let program = Arc::clone(&app.program);
        let churn = (0..program.class_count() as u32)
            .map(ClassId)
            .find(|&c| program.class(c).name == "RequestScopedBean")
            .expect("pybbs has a request-scoped bean class");
        // ~2 MB of young objects per fill.
        const FILL: u64 = 20_000;
        let fill = |vm: &mut VmInstance| {
            for _ in 0..FILL {
                if vm.heap.alloc_object(churn, 9, Space::Alloc).is_none() {
                    break;
                }
            }
        };

        // Allocation alone: one fill of a fresh heap per batch.
        let s = self.probe(
            "vm.alloc_ns",
            FILL,
            || VmInstance::function(&program, CostModel::default()),
            |vm| {
                black_box(vm.heap.alloc_object(churn, 9, Space::Alloc));
            },
        );
        self.emit("vm.alloc_ns", s * 1e9, "ns");

        // Collection with nothing live. (RefCell: the untimed refill and the
        // timed collection both need the heap; its check is noise next to a
        // collection.)
        let vm = RefCell::new(VmInstance::function(&program, CostModel::default()));
        let s = self.probe(
            "vm.gc_collect_us",
            1,
            || fill(&mut vm.borrow_mut()),
            |()| {
                black_box(vm.borrow_mut().collect(&mut [], &mut []));
            },
        );
        self.emit("vm.gc_collect_us", s * 1e6, "us");

        // Collection while a server request is parked mid-flight: its frames
        // root live objects that must be traced and copied.
        let mut server = fresh_server(&app);
        let mut session = ServerSession::start(&mut server, app.root, vec![Value::I64(1)]);
        let parked = matches!(session.next(&mut server), SessionStep::Need(_));
        self.check("vm.gc_collect_live_us: request parked mid-flight", parked);
        let server = RefCell::new(server);
        let s = self.probe(
            "vm.gc_collect_live_us",
            1,
            || fill(&mut server.borrow_mut().vm),
            |()| {
                let roots = &mut [session.execution_mut()];
                black_box(server.borrow_mut().vm.collect(roots, &mut []));
            },
        );
        self.emit("vm.gc_collect_live_us", s * 1e6, "us");
        let mut server = server.into_inner();
        drive_server(&mut server, &mut session);
    }

    fn probe_core(&mut self) {
        let app = App::build(AppKind::Pybbs, Fidelity::fast());

        // Closure build for a fresh instance, plan already refined by one
        // shadowed warm-up request.
        let mut server = fresh_server(&app);
        let mut funcs = Funcs::new();
        funcs.insert(
            0,
            FunctionRuntime::new(0, &app.program, CostModel::default()),
        );
        let net = server.config.net;
        let mut warm = OffloadSession::start(
            &mut server,
            funcs.get_mut(&0).expect("just inserted"),
            app.root,
            vec![Value::I64(1)],
            true,
            net,
            false,
        );
        drive_offload(&mut server, &mut warm, &mut funcs);
        let mut next_id = 10u32;
        let mut bytes = 0u64;
        self.probe_us("core.closure_instantiate_us", 20, || {
            let mut f = FunctionRuntime::new(next_id, &app.program, CostModel::default());
            next_id += 1;
            bytes = server.instantiate_closure(&mut f, app.root).bytes;
            server.remove_mapping(f.id);
        });
        self.emit("core.closure_bytes", bytes as f64, "count");

        // Snapshot capture / restore of a warmed instance (§4.5).
        let (server, funcs) = warm_fleet(&app, 1);
        let func = &funcs[&0];
        let exec = Execution::call(app.root, vec![Value::I64(1)], &app.program);
        let mapping = server.mapping(0).cloned().unwrap_or_else(MappingTable::new);
        let mut snap = Snapshot::capture(&exec, func, app.root, 0, mapping.clone());
        self.probe_us("core.snapshot_capture_us", 50, || {
            snap = Snapshot::capture(&exec, func, app.root, 0, mapping.clone());
        });
        let mut replacement = FunctionRuntime::new(1, &app.program, CostModel::default());
        self.probe_us("core.snapshot_restore_us", 50, || {
            snap.restore_into(&mut replacement);
        });
        self.check(
            "core.snapshot: restored instance holds the closure",
            replacement.instantiated_for == Some(app.root),
        );

        // Monitor hand-off: alternate two warm instances so the lock (and
        // its dirty objects) moves on every request.
        let app = App::build(AppKind::Thumbnail, Fidelity::fast());
        let (mut server, mut funcs) = warm_fleet(&app, 2);
        let mut which = 0u32;
        self.probe_us("core.sync_handoff_us", 200, || {
            which ^= 1;
            black_box(offload_once(&mut server, &mut funcs, &app, which, 2));
        });
    }

    fn probe_db_proxy(&mut self) {
        let read = QueryDef {
            name: "SELECT ... WHERE id = ?".into(),
            kind: QueryKind::PointRead { table: 0 },
            base_cost: Duration::from_micros(55),
            per_row: Duration::from_micros(5),
        };
        let mut db = Database::new();
        db.seed(0, 4096, |k| k * 3);
        let q = db.prepare(read.clone());
        let mut key = 0i64;
        self.probe_ns("db.round_ns", 200_000, || {
            key = (key + 1) % 4096;
            black_box(db.execute(q, key, None, false));
        });

        let mut proxy = Proxy::new(Database::new());
        proxy.db_mut().seed(0, 4096, |k| k * 3);
        let q = proxy.db_mut().prepare(read);
        let conn = proxy.connect_server();
        self.probe_ns("proxy.round_ns", 200_000, || {
            key = (key + 1) % 4096;
            black_box(proxy.execute(conn, Origin::Server, q, key, None))
                .expect("connection is open");
        });
    }

    fn probe_faas_chaos(&mut self) {
        let seed = self.ctx.seed;
        let busy = Duration::from_millis(5);
        // Warm path: one cached instance, acquired and released.
        let mut platform = FaasPlatform::new(PlatformConfig::openwhisk(), Rng::new(seed));
        let mut now = SimTime::ZERO;
        let (id, ready, _) = platform.acquire(now);
        platform.boot_complete(ready, id);
        platform.release(ready, id, busy);
        now = ready;
        self.probe_ns("faas.warm_dispatch_ns", 200_000, || {
            let (id, at, _) = platform.acquire(now);
            now = at + busy;
            platform.release(now, id, busy);
        });

        // Cold path: spawn → ready → release → expire. Dead instances stay
        // in the platform's table, so every batch starts from a fresh one.
        let keep_alive = PlatformConfig::openwhisk().keep_alive;
        let s = self.probe(
            "faas.boot_cycle_ns",
            256,
            || {
                (
                    FaasPlatform::new(PlatformConfig::openwhisk(), Rng::new(seed)),
                    SimTime::ZERO,
                )
            },
            |(platform, now)| {
                let (id, ready, _) = platform.acquire(*now);
                platform.boot_complete(ready, id);
                platform.release(ready + busy, id, busy);
                *now = ready + busy + keep_alive;
                black_box(platform.expire_idle(*now));
            },
        );
        self.emit("faas.boot_cycle_ns", s * 1e9, "ns");

        let window = Duration::from_secs(24);
        let plan = crash_plan(seed, window);
        self.probe_us("chaos.plan_expand_us", 200, || {
            black_box(plan.schedule(seed, window));
        });
    }

    fn probe_recorders(&mut self) {
        // No recorder armed: what every plain run pays per probe site.
        self.probe_ns("telemetry.emit_disabled_ns", 2_000_000, || {
            tele::instant(
                tele::Track::Request(7),
                "bench",
                &[("value", tele::Arg::UInt(black_box(42)))],
            );
        });
        // Recorder armed; the buffer is dropped between batches.
        let s = self.probe(
            "telemetry.emit_recording_ns",
            200_000,
            tele::install,
            |()| {
                tele::instant(
                    tele::Track::Request(7),
                    "bench",
                    &[("value", tele::Arg::UInt(black_box(42)))],
                );
            },
        );
        black_box(tele::take());
        self.emit("telemetry.emit_recording_ns", s * 1e9, "ns");

        let mut hist = LogLinearHistogram::new();
        let mut v = 1u64;
        self.probe_ns("metrics.hist_record_ns", 2_000_000, || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record(v >> 34);
        });
        black_box(hist.count());

        // One frame pushed and popped inside an open segment.
        let s = self.probe(
            "profiler.push_pop_ns",
            200_000,
            || {
                beehive_profiler::install();
                beehive_profiler::begin_segment("server", None, std::iter::empty(), true);
            },
            |()| {
                beehive_profiler::push(black_box(3), Duration::from_nanos(10));
                beehive_profiler::pop(Duration::from_nanos(20));
            },
        );
        black_box(beehive_profiler::take());
        self.emit("profiler.push_pop_ns", s * 1e9, "ns");

        // An empty span of this pass's own recorder (a scratch one, so the
        // written trace does not carry a hundred thousand of them).
        let mut scratch = Spans::new();
        let n = self.iters(100_000);
        let t0 = Instant::now();
        for _ in 0..n {
            scratch.span("empty", || ());
        }
        self.emit(
            "bench.span_overhead_ns",
            t0.elapsed().as_secs_f64() * 1e9 / n as f64,
            "ns",
        );
    }
}

// ----- CLI-level rows ---------------------------------------------------------

impl Pass<'_> {
    /// Where the pass's `repro` children write their artifacts.
    fn art_dir(&self) -> std::path::PathBuf {
        self.ctx.work.join("layers-art")
    }

    /// Median calibrated seconds of `args`, over the budget's repetitions.
    fn cli_seconds(&mut self, wl: &Workload, args: &[String]) -> Result<f64, String> {
        let reps = match self.budget {
            Budget::Full => 3,
            Budget::Smoke | Budget::Contract(_) => 1,
        };
        let dir = self.art_dir();
        let mut secs = Vec::new();
        for _ in 0..reps {
            let span = self.out.spans.open(&format!("bench.repro {}", args[0]));
            let r = e2e::time_once(self.ctx, wl, args, &dir);
            self.out.spans.close(span);
            secs.push(r?);
            self.out.attempted += 1;
        }
        Ok(stats::median(&secs))
    }

    /// The two observability workloads against their plain twins.
    fn cli_overheads(&mut self) -> Result<(), String> {
        self.out.spans.set_shape("cli");
        let seed = self.ctx.seed;
        for (wl_name, metric) in [
            ("obs_full", "bench.obs_overhead_x"),
            ("obs_online", "bench.sentinel_overhead_x"),
        ] {
            let wl = workloads::by_name(wl_name).expect("defined");
            let with = self.cli_seconds(wl, &wl.args(seed, &self.art_dir(), None))?;
            let plain = self.cli_seconds(wl, &wl.plain_args(seed))?;
            self.emit(metric, with / plain, "x");
        }
        Ok(())
    }

    /// One calibrated `repro <item> --quick` per item of `repro list`.
    fn cli_items(&mut self) -> Result<(), String> {
        let wl = &workloads::WORKLOADS[0];
        std::fs::create_dir_all(&self.ctx.work)
            .map_err(|e| format!("{}: {e}", self.ctx.work.display()))?;
        let listing = crate::child::run(
            &self.ctx.repro,
            &["list".into()],
            1,
            &self.ctx.work.join("list.stderr"),
        )
        .map_err(|e| format!("repro list: {e}"))?;
        let text = String::from_utf8_lossy(&listing.stdout).into_owned();
        let items: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.starts_with("Runnable items"))
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .filter_map(|l| l.split_whitespace().next())
            .filter(|&item| item != "all")
            .collect();
        self.check("repro list names items", !items.is_empty());
        let seed = self.ctx.seed.to_string();
        for item in items {
            let args: Vec<String> = [item, "--quick", "--json", "--seed", &seed]
                .into_iter()
                .map(String::from)
                .collect();
            let s = self.cli_seconds(wl, &args)?;
            self.emit(format!("bench.item_s.{item}"), s, "s");
        }
        Ok(())
    }

    /// The contract run's workload, once, for its simulated statistics.
    fn model(&mut self, wl: &Workload) -> Result<(), String> {
        let plan = Plan {
            setups: 1,
            reps: Reps::Count(0),
            output_checks: true,
        };
        let r = e2e::run(self.ctx, &[wl], plan)?.remove(0);
        self.emit("model.sim_requests", r.sim_requests as f64, "count");
        self.emit("model.sim_p99_ms", r.sim_p99_ms, "ms");
        self.out.attempted += r.attempted;
        self.out
            .failures
            .extend(r.failures.into_iter().map(|f| format!("{}: {f}", wl.name)));
        Ok(())
    }
}

// ----- the pass ------------------------------------------------------------------

impl Pass<'_> {
    fn run_all(&mut self) -> Result<(), String> {
        let root = self.out.spans.open("layers");
        self.probe_sim();
        self.probe_apps_vm_core();
        self.probe_heap();
        self.probe_core();
        self.probe_db_proxy();
        self.probe_faas_chaos();
        self.probe_recorders();
        for shape in SHAPES {
            let span = self.out.spans.open(&format!("shape.{shape}"));
            self.shape(shape);
            self.out.spans.close(span);
        }
        let span = self.out.spans.open("shape.engine");
        self.engine_scaling();
        self.out.spans.close(span);
        self.cli_overheads()?;
        match self.budget {
            Budget::Full => self.cli_items()?,
            Budget::Contract(wl) => self.model(wl)?,
            Budget::Smoke => {}
        }
        let secs = self.out.spans.close(root);
        self.emit("bench.layer_pass_s", secs, "s");
        Ok(())
    }
}
