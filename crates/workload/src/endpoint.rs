//! The execution-endpoint layer: the places a request runs on, and how they
//! are instrumented.
//!
//! A request executes either on one of the server's processor-sharing pools
//! or on a FaaS instance; the lifecycle layer's `Lane` records which. This
//! module owns the fleet of function instances ([`Fleet`]) and the metrics
//! façade ([`Obs`]), the single instrumented boundary all
//! counter/gauge/histogram touches go through.

use beehive_apps::App;
use beehive_core::config::NetProfile;
use beehive_core::{FunctionRuntime, OffloadSession, ServerRuntime, SessionStep};
use beehive_faas::FaasPlatform;
use beehive_sim::{Duration, FastMap, SimTime};
use beehive_vm::{CostModel, Value};

/// The FaaS instance fleet: live runtimes, the idle (warm, closure-ready)
/// rotation, the count of in-flight boots, and the per-instance GC-log
/// watermark behind `Fleet::note_gcs`.
#[derive(Debug)]
pub struct Fleet {
    /// Live function runtimes by instance id.
    pub(crate) funcs: FastMap<u32, FunctionRuntime>,
    /// Idle warm instances, in round-robin rotation order (OpenWhisk's load
    /// balancer spreads activations across warm containers).
    pub(crate) idle: Vec<u32>,
    /// Instances currently booting.
    pub(crate) booting: usize,
    /// GC-log entries per instance already folded into the metrics
    /// registry; seeded at construction so pre-virtual-time collections
    /// (prewarm warm-up) are excluded, matching what a trace of the run
    /// records.
    gc_seen: FastMap<u32, usize>,
}

impl Fleet {
    /// A fleet seeded with prewarmed instances (all idle).
    pub(crate) fn new(funcs: FastMap<u32, FunctionRuntime>, idle: Vec<u32>) -> Fleet {
        let gc_seen = funcs
            .iter()
            .map(|(&id, f)| (id, f.vm.gc_log().len()))
            .collect();
        Fleet {
            funcs,
            idle,
            booting: 0,
            gc_seen,
        }
    }

    /// Build a fleet of `ready` idle instances that look like they served
    /// earlier bursts (the §5.2 warm-boot case): one zero-time warm-up
    /// shadow refines the server's closure plan as earlier traffic would
    /// have (§3.4), then every instance gets the closure instantiated and
    /// its JITs pre-warmed. With no platform or `ready == 0` the fleet
    /// starts empty.
    pub(crate) fn prewarmed(
        server: &mut ServerRuntime,
        platform: &mut Option<FaasPlatform>,
        app: &App,
        ready: usize,
        net: NetProfile,
        cost: CostModel,
    ) -> Fleet {
        let mut funcs = FastMap::default();
        let mut idle: Vec<u32> = Vec::new();
        if ready > 0 {
            if let Some(p) = platform.as_mut() {
                // History: one zero-time shadow refines the closure plan, as
                // earlier bursts would have (§3.4).
                let mut scratch = FunctionRuntime::new(1_000_000, &app.program, cost);
                let mut warmup = OffloadSession::start(
                    server,
                    &mut scratch,
                    app.root,
                    vec![Value::I64(0)],
                    true,
                    net,
                    true,
                );
                loop {
                    match warmup.next(server, &mut scratch) {
                        SessionStep::Need(_) => {}
                        SessionStep::Finished(_) => break,
                        SessionStep::SyncFromPeer { .. }
                        | SessionStep::ServerGc
                        | SessionStep::AwaitLock { .. } => {
                            unreachable!("warmup shadow has no peers")
                        }
                    }
                }
                server.remove_mapping(1_000_000);
                let first = p.instances_created() as u32;
                p.prewarm(SimTime::ZERO, ready);
                for id in first..first + ready as u32 {
                    let mut f = FunctionRuntime::new(id, &app.program, cost);
                    server.instantiate_closure(&mut f, app.root);
                    f.vm.prewarm_all_methods(&app.program);
                    funcs.insert(id, f);
                    idle.push(id);
                }
            }
        }
        Fleet::new(funcs, idle)
    }

    /// Instances currently serving a request.
    pub(crate) fn busy(&self) -> usize {
        self.funcs.len().saturating_sub(self.idle.len())
    }

    /// Fold GC pauses `fid` accrued since the last note into the metrics
    /// registry. The function VM emits its own `gc` trace events as it
    /// collects mid-session; the driver only sees the log afterwards, at the
    /// same virtual instant (pauses are charged to the session's budget, not
    /// the clock).
    pub(crate) fn note_gcs(&mut self, fid: u32, now: SimTime, obs: &mut Obs) {
        if !obs.enabled() {
            return;
        }
        let Some(f) = self.funcs.get(&fid) else {
            return;
        };
        let log = f.vm.gc_log();
        let seen = self.gc_seen.entry(fid).or_insert(0);
        for gc in &log[*seen..] {
            obs.gc_pause(now, gc.pause);
        }
        *seen = log.len();
    }
}

/// Metrics façade: every counter, gauge and histogram the driver layers
/// record goes through here. All operations are no-ops until
/// `Obs::install` creates the registry, so runs without `--metrics` pay
/// nothing.
#[derive(Debug, Default)]
pub struct Obs {
    registry: Option<beehive_metrics::Registry>,
}

impl Obs {
    /// A disabled façade (the default for runs without metrics).
    pub(crate) fn off() -> Obs {
        Obs { registry: None }
    }

    /// Create the live registry with the given time-series window.
    pub(crate) fn install(&mut self, window: Duration) {
        self.registry = Some(beehive_metrics::Registry::new(window));
    }

    /// `true` when a registry is live.
    pub(crate) fn enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Take the registry out (end of run).
    pub(crate) fn into_registry(self) -> Option<beehive_metrics::Registry> {
        self.registry
    }

    /// Add `delta` to the counter `name`.
    pub(crate) fn add(&mut self, now: SimTime, name: &'static str, delta: u64) {
        if let Some(m) = self.registry.as_mut() {
            m.add(name, now, delta);
        }
    }

    /// Set the gauge `name` to `value`.
    pub(crate) fn gauge(&mut self, now: SimTime, name: &'static str, value: i64) {
        if let Some(m) = self.registry.as_mut() {
            m.set_gauge(name, now, value);
        }
    }

    /// Record `d` in the histogram `name`.
    pub(crate) fn observe(&mut self, now: SimTime, name: &'static str, d: Duration) {
        if let Some(m) = self.registry.as_mut() {
            m.observe(name, now, d);
        }
    }

    /// Record `d` in the histogram `name`, remembering `request` as a
    /// slowest-K exemplar.
    pub(crate) fn observe_exemplar(
        &mut self,
        now: SimTime,
        name: &'static str,
        d: Duration,
        request: u64,
    ) {
        if let Some(m) = self.registry.as_mut() {
            m.observe_exemplar(name, now, d, request);
        }
    }

    /// Record one GC pause: the `gc_pause` histogram plus the cumulative
    /// `gc_pause_ns` counter, the pair every GC site emits.
    pub(crate) fn gc_pause(&mut self, now: SimTime, pause: Duration) {
        self.observe(now, "gc_pause", pause);
        self.add(now, "gc_pause_ns", pause.as_nanos());
    }

    /// Record one completed §4.5 recovery: the detection-to-resume latency
    /// histogram plus the cumulative recovery counter, the pair the
    /// recovery site emits. The recovered request's id is kept as an
    /// exemplar.
    pub(crate) fn recovery(&mut self, now: SimTime, latency: Duration, request: u64) {
        self.observe_exemplar(now, "recovery_latency", latency, request);
        self.add(now, "recoveries", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::Lane;
    use beehive_apps::{AppKind, Fidelity};
    use beehive_core::config::BeeHiveConfig;
    use beehive_core::ServerSession;
    use beehive_db::Database;
    use beehive_proxy::Proxy;
    use beehive_telemetry::Track;
    use std::sync::Arc;

    #[test]
    fn endpoints_expose_their_lane_identity() {
        let app = App::build(AppKind::Thumbnail, Fidelity::Scaled(4096));
        let cost = CostModel::default();
        let mut server = ServerRuntime::new(
            Arc::clone(&app.program),
            BeeHiveConfig::default(),
            Proxy::new(Database::new()),
            cost,
        );
        app.install(&mut server);
        let args = vec![Value::I64(0)];

        let session = ServerSession::start(&mut server, app.root, args.clone());
        let request = session.request_id();
        let s = Lane::server(session, 1);
        assert_eq!(s.track(), Track::Request(request));
        assert_eq!(s.pool(), 1);
        assert!(!s.on_faas());

        let booting = Lane::pending_boot(args.clone(), 3, true);
        assert_eq!(booting.track(), Track::Instance(3));
        let mut func = FunctionRuntime::new(3, &app.program, cost);
        let net = BeeHiveConfig::default().net;
        let session =
            OffloadSession::start(&mut server, &mut func, app.root, args, false, net, true);
        let request = session.request_id();
        let running = Lane::faas(session, 3);
        assert_eq!(running.track(), Track::Request(request));
        assert_eq!(running.pool(), 0);
        assert!(running.on_faas());
    }

    #[test]
    fn obs_is_a_no_op_until_installed() {
        let mut obs = Obs::off();
        assert!(!obs.enabled());
        obs.add(SimTime::ZERO, "requests_completed", 1);
        assert!(obs.into_registry().is_none());

        let mut obs = Obs::off();
        obs.install(beehive_metrics::DEFAULT_WINDOW);
        assert!(obs.enabled());
        obs.add(SimTime::ZERO, "requests_completed", 1);
        assert!(obs.into_registry().is_some());
    }
}
