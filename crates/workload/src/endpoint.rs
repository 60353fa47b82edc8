//! The execution-endpoint layer: the places a request runs on.
//!
//! A request executes either on one of the server's processor-sharing pools
//! or on a FaaS instance; the lifecycle layer's `Lane` records which. This
//! module owns the fleet of function instances ([`Fleet`]). Nothing here is
//! instrumented for metrics: the registry is folded from the telemetry the
//! endpoints emit (`beehive_metrics::MetricsFold`).

use beehive_apps::App;
use beehive_core::config::NetProfile;
use beehive_core::{FunctionRuntime, OffloadSession, ServerRuntime, SessionStep};
use beehive_faas::FaasPlatform;
use beehive_sim::{FastMap, SimTime};
use beehive_vm::{CostModel, Value};

/// The FaaS instance fleet: live runtimes, the idle (warm, closure-ready)
/// rotation, and the count of in-flight boots.
#[derive(Debug, Default)]
pub struct Fleet {
    /// Live function runtimes by instance id.
    pub(crate) funcs: FastMap<u32, FunctionRuntime>,
    /// Idle warm instances, in round-robin rotation order (OpenWhisk's load
    /// balancer spreads activations across warm containers).
    pub(crate) idle: Vec<u32>,
    /// Instances currently booting.
    pub(crate) booting: usize,
}

impl Fleet {
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
        Fleet {
            funcs,
            idle,
            booting: 0,
        }
    }

    /// Instances currently serving a request.
    pub(crate) fn busy(&self) -> usize {
        self.funcs.len().saturating_sub(self.idle.len())
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
}
