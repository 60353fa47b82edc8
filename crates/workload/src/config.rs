//! Experiment configuration ([`SimConfig`]) and results ([`SimResult`]).
//!
//! Everything a run consumes and everything it produces lives here, so the
//! four driver layers ([`crate::router`], [`crate::lifecycle`],
//! [`crate::endpoint`], [`crate::broker`]) and the event loop
//! ([`crate::driver::Sim`]) share one vocabulary.

use beehive_apps::App;
use beehive_chaos::{ChaosStats, FaultPlan};
use beehive_core::config::BeeHiveConfig;
use beehive_core::SessionStats;
use beehive_sim::stats::{LatencySampler, MeanMax, Timeline};
use beehive_sim::{Duration, SimTime};
use beehive_telemetry as tele;

use crate::strategy::Strategy;

/// How clients generate requests.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalPattern {
    /// Open loop (Poisson): `base_rps` before the burst, `base_rps *
    /// burst_mult` between `burst_at` and `burst_end`.
    Open {
        /// Baseline request rate.
        base_rps: f64,
        /// Multiplier during the burst (1.0 = no burst).
        burst_mult: f64,
        /// Burst start.
        burst_at: Duration,
        /// Burst end (use the horizon for "until the end", §5.2).
        burst_end: Duration,
    },
    /// Closed loop: `clients` concurrent clients, each reissuing immediately
    /// after its previous request completes (Figure 2).
    Closed {
        /// Number of concurrent clients.
        clients: usize,
    },
}

impl ArrivalPattern {
    /// A constant open-loop rate.
    pub fn constant(rps: f64) -> Self {
        ArrivalPattern::Open {
            base_rps: rps,
            burst_mult: 1.0,
            burst_at: Duration::ZERO,
            burst_end: Duration::ZERO,
        }
    }

    /// The open-loop arrival rate at `t` (virtual time since the simulation
    /// start).
    ///
    /// # Panics
    ///
    /// Closed-loop patterns have no rate.
    pub fn rate_at(&self, t: Duration) -> f64 {
        match *self {
            ArrivalPattern::Open {
                base_rps,
                burst_mult,
                burst_at,
                burst_end,
            } => {
                if t >= burst_at && t < burst_end {
                    base_rps * burst_mult
                } else {
                    base_rps
                }
            }
            ArrivalPattern::Closed { .. } => unreachable!("closed loop has no rate"),
        }
    }
}

/// Full experiment configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The application under test.
    pub app: App,
    /// The scaling strategy.
    pub strategy: Strategy,
    /// Client behaviour.
    pub arrivals: ArrivalPattern,
    /// Virtual-time horizon.
    pub horizon: Duration,
    /// RNG seed (every run with the same config + seed is identical).
    pub seed: u64,
    /// Fraction of requests offloaded / forwarded once scaling engages.
    pub offload_ratio: f64,
    /// When offloading / scale-out engages (typically the burst start; zero
    /// for steady-state experiments).
    pub engage_at: Duration,
    /// vCPUs of the (primary) server — `m4.xlarge` has 4.
    pub server_cores: f64,
    /// Warm instances cached at t=0 *with* the closure instantiated, plans
    /// refined and JITs warm — instances that served earlier bursts (the
    /// §5.2 warm-boot case with sub-second provisioning).
    pub prewarm_ready: usize,
    /// Hard cap on FaaS instances.
    pub max_instances: usize,
    /// Cap on concurrently booting instances.
    pub max_concurrent_boots: usize,
    /// Completions before this time are excluded from the steady-state
    /// sampler.
    pub record_from: Duration,
    /// Maximum concurrent requests the server accepts (its worker pool +
    /// accept queue); arrivals beyond it are refused. Real servlet
    /// containers cap workers near 200 — without the cap, a saturated
    /// processor-sharing pool finishes nothing at all and the whole
    /// deployment wedges.
    pub max_server_concurrency: usize,
    /// BeeHive runtime configuration (ablations toggle features here).
    pub beehive: BeeHiveConfig,
    /// Shadow the first invocation on every new instance (§3.4). Disabling
    /// this is the warmup-hiding ablation: first invocations run for real on
    /// the cold instance and the client waits out the long tail.
    pub shadow_enabled: bool,
    /// Retain the virtual-time trace of this run ([`SimResult::trace`]).
    /// Off unless an embedder sets it: `repro` streams every artifact from
    /// the recorder ([`crate::driver::Sim::attach`]) and retains nothing.
    pub trace: bool,
    /// Fold this run's telemetry into a metrics registry
    /// ([`SimResult::metrics`]). Rides the recorder like the sentinel; costs
    /// nothing when off. Like the observability fields below, an embedder
    /// may also switch it on for every scenario of a batch
    /// ([`crate::engine::Collector::open`]).
    pub metrics: bool,
    /// Time-series window of the metrics registry (virtual time).
    pub metrics_window: Duration,
    /// Record a per-lane call-tree profile of this run
    /// ([`SimResult::profile`]).
    pub profile: bool,
    /// Run the online conformance checker alongside this run
    /// ([`SimResult::sentinel`]). Arms the telemetry recorder even when
    /// [`SimConfig::trace`] is off; each event is then freed as soon as the
    /// online consumers have seen it.
    pub sentinel: bool,
    /// Fold this run's telemetry into a fixed-width elasticity timeline
    /// ([`SimResult::observatory`]). Rides the recorder exactly like the
    /// sentinel.
    pub observe: bool,
    /// Bin width of the elasticity timeline (virtual time).
    pub observe_window: Duration,
    /// Deterministic fault plan (§4.5 failure injection). The default plan
    /// is empty and the run is byte-identical to one without the chaos
    /// machinery; see [`beehive_chaos`] for injectors and the retry policy.
    pub faults: FaultPlan,
}

impl SimConfig {
    /// A configuration with paper-style defaults.
    pub fn new(app: App, strategy: Strategy) -> Self {
        SimConfig {
            app,
            strategy,
            arrivals: ArrivalPattern::constant(50.0),
            horizon: Duration::from_secs(60),
            seed: 1,
            offload_ratio: 0.5,
            engage_at: Duration::ZERO,
            server_cores: 4.0,
            prewarm_ready: 0,
            max_instances: 256,
            max_concurrent_boots: 48,
            record_from: Duration::from_secs(10),
            max_server_concurrency: 256,
            beehive: BeeHiveConfig::default(),
            shadow_enabled: true,
            trace: false,
            metrics: false,
            metrics_window: beehive_metrics::DEFAULT_WINDOW,
            profile: false,
            sentinel: false,
            observe: false,
            observe_window: beehive_observatory::DEFAULT_WINDOW,
            faults: FaultPlan::default(),
        }
    }
}

/// What one run produced. The driver accumulates into it as the run goes
/// and fills the end-of-run fields when it stops. Stores read only through a
/// count, mean or max are fixed-size [`MeanMax`]es; `timeline`, `steady` and
/// `function_gc_pauses` keep every sample because their readers take
/// percentiles.
#[derive(Debug, Default)]
pub struct SimResult {
    /// Per-second latency timeline (Figure 7).
    pub timeline: Timeline,
    /// Latencies of requests completing after `record_from`.
    pub steady: LatencySampler,
    /// Recorded completed requests.
    pub completed: u64,
    /// Requests refused because the server's worker pool was full.
    pub rejected: u64,
    /// Completed offloaded (non-shadow) requests.
    pub offloaded: u64,
    /// Shadow executions run.
    pub shadows: u64,
    /// Cold boots / warm starts on the FaaS platform.
    pub boots: (u64, u64),
    /// FaaS instances created.
    pub instances: usize,
    /// Dollars billed by the FaaS platform.
    pub faas_cost: f64,
    /// GB-seconds of function execution billed (per-use platforms).
    pub faas_gb_seconds: f64,
    /// Function invocations billed.
    pub faas_requests: u64,
    /// Dollars billed for the scaled instance (instance strategies).
    pub scaled_cost: f64,
    /// Aggregate session stats of steady-state offloaded requests.
    pub steady_offload: SessionStats,
    /// Number of steady-state offloaded requests behind `steady_offload`.
    pub steady_offload_count: u64,
    /// Aggregate session stats of shadow executions.
    pub shadow_stats: SessionStats,
    /// End-to-end durations of shadow executions (arrival → completion,
    /// including the boot they hide).
    pub shadow_durations: MeanMax,
    /// Latencies of recorded offloaded requests only (exposes the cold-start
    /// tail when shadowing is disabled).
    pub offload_latencies: MeanMax,
    /// Function-side GC pauses across all instances.
    pub function_gc_pauses: Vec<Duration>,
    /// Peak heap bytes over all function instances.
    pub function_peak_heap: u64,
    /// Server-side mapping-table footprint at the end.
    pub mapping_bytes: u64,
    /// Fault-injection and recovery accounting (all zero when
    /// [`SimConfig::faults`] was empty).
    pub chaos: ChaosStats,
    /// The virtual end time.
    pub end: SimTime,
    /// The recorded trace, when [`SimConfig::trace`] was set.
    pub trace: Option<tele::Trace>,
    /// The metrics registry folded from this run's telemetry, when
    /// [`SimConfig::metrics`] was set. Snapshot with
    /// [`beehive_metrics::Registry::snapshot`].
    pub metrics: Option<beehive_metrics::Registry>,
    /// The resolved call-tree profile, when [`SimConfig::profile`] was set.
    pub profile: Option<beehive_profiler::Profile>,
    /// The conformance-check result, when [`SimConfig::sentinel`] was set.
    /// [`crate::engine::run_all`] labels it with the scenario's label.
    pub sentinel: Option<beehive_sentinel::ScenarioCheck>,
    /// The reduced elasticity timeline, when [`SimConfig::observe`] was
    /// set. [`crate::engine::run_all`] labels it with the scenario's label.
    pub observatory: Option<beehive_observatory::ScenarioSeries>,
}

impl SimResult {
    /// Record a finished request: the steady-state sampler, the timeline,
    /// and the completion count (recorded requests only).
    pub(crate) fn on_complete(
        &mut self,
        now: SimTime,
        record_from: Duration,
        latency: Duration,
        record: bool,
    ) {
        if record {
            self.completed += 1;
            self.timeline.record(now, latency);
            if now.saturating_since(SimTime::ZERO) >= record_from {
                self.steady.record(latency);
            }
        }
    }

    /// Fold a finished FaaS session into the shadow or offload aggregates.
    pub(crate) fn on_faas(
        &mut self,
        now: SimTime,
        record_from: Duration,
        latency: Duration,
        record: bool,
        is_shadow: bool,
        stats: &SessionStats,
    ) {
        if is_shadow {
            self.shadow_stats.absorb(stats);
            self.shadow_durations.record(latency);
        } else {
            self.offloaded += 1;
            if record {
                self.offload_latencies.record(latency);
            }
            if now.saturating_since(SimTime::ZERO) >= record_from {
                self.steady_offload.absorb(stats);
                self.steady_offload_count += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_at_follows_the_burst_window() {
        let p = ArrivalPattern::Open {
            base_rps: 50.0,
            burst_mult: 2.0,
            burst_at: Duration::from_secs(20),
            burst_end: Duration::from_secs(40),
        };
        assert_eq!(p.rate_at(Duration::from_secs(0)), 50.0);
        assert_eq!(p.rate_at(Duration::from_secs(19)), 50.0);
        assert_eq!(p.rate_at(Duration::from_secs(20)), 100.0);
        assert_eq!(p.rate_at(Duration::from_secs(39)), 100.0);
        assert_eq!(p.rate_at(Duration::from_secs(40)), 50.0);
    }

    #[test]
    fn constant_has_no_burst() {
        let p = ArrivalPattern::constant(30.0);
        assert_eq!(p.rate_at(Duration::ZERO), 30.0);
        assert_eq!(p.rate_at(Duration::from_secs(3600)), 30.0);
    }
}
