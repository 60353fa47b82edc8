//! Instance lifecycle: provisioning (cold boot), warm cache, expiry.

use beehive_sim::{Duration, Rng, SimTime};
use beehive_telemetry as tele;

use crate::billing::{Billing, CostLedger};

/// Identifier of a platform instance.
pub type InstanceId = u32;

/// Whether an instance acquisition hit the warm cache or provisioned fresh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BootKind {
    /// A new instance was provisioned: container + runtime launch (§3.4).
    Cold,
    /// A cached instance was reused; ready immediately.
    Warm,
}

/// Static description of a FaaS platform deployment.
#[derive(Clone, Debug)]
pub struct PlatformConfig {
    /// Display name.
    pub name: &'static str,
    /// Median time to provision an instance and launch the Semi-FaaS
    /// template's JVM in it (cold boot, ~1 s in §5.6).
    pub cold_boot_median: Duration,
    /// Log-normal shape of cold-boot jitter.
    pub cold_boot_sigma: f64,
    /// vCPU share of one instance (1.0 = one full 2.5 GHz core).
    pub cpu: f64,
    /// Instance memory in GB (billing input).
    pub memory_gb: f64,
    /// One-way network latency between a function instance and the server.
    pub server_latency: Duration,
    /// One-way network latency between a function instance and the database
    /// proxy.
    pub db_latency: Duration,
    /// Per-invocation platform overhead: OpenWhisk's controller/invoker
    /// activation path is several milliseconds; Lambda's invoke API is
    /// faster.
    pub invoke_overhead: Duration,
    /// How long an idle instance stays cached before the platform reclaims
    /// it.
    pub keep_alive: Duration,
    /// The billing model.
    pub billing: Billing,
}

impl PlatformConfig {
    /// The paper's OpenWhisk deployment: `m4.large` workers (2 vCPU, 8 GB;
    /// one request at a time), sub-millisecond intra-AZ latency, billed as
    /// EC2 on-demand instance-time (§5.4 "we assume the price of each
    /// instance is equal to EC2 on-demand ones").
    pub fn openwhisk() -> Self {
        PlatformConfig {
            name: "OpenWhisk",
            cold_boot_median: Duration::from_millis(950),
            cold_boot_sigma: 0.10,
            cpu: 1.0,
            memory_gb: 8.0,
            server_latency: Duration::from_micros(120),
            db_latency: Duration::from_micros(120),
            invoke_overhead: Duration::from_millis(5),
            keep_alive: Duration::from_secs(600),
            // m4.large on-demand: $0.10/h.
            billing: Billing::PerInstanceHour { rate: 0.10 },
        }
    }

    /// The paper's OpenWhisk deployment spread across AWS availability
    /// zones — the sensitivity configuration of §5.2 where the overhead
    /// rises to 23.2% due to network latency.
    pub fn openwhisk_cross_az() -> Self {
        PlatformConfig {
            name: "OpenWhisk (cross-AZ)",
            server_latency: Duration::from_micros(600),
            db_latency: Duration::from_micros(600),
            ..Self::openwhisk()
        }
    }

    /// AWS Lambda with `memory_gb` of memory: CPU scales with memory
    /// (0.6 vCPU/GB as measured in §5.1), higher latency to EC2 even inside
    /// one VPC, per-GB-second billing.
    ///
    /// # Panics
    ///
    /// Panics if `memory_gb` is not positive.
    pub fn lambda(memory_gb: f64) -> Self {
        assert!(memory_gb > 0.0, "memory must be positive");
        PlatformConfig {
            name: "Lambda",
            cold_boot_median: Duration::from_millis(1050),
            cold_boot_sigma: 0.15,
            cpu: 0.6 * memory_gb,
            memory_gb,
            server_latency: Duration::from_micros(450),
            db_latency: Duration::from_micros(450),
            invoke_overhead: Duration::from_millis(2),
            keep_alive: Duration::from_secs(600),
            billing: Billing::PerUse {
                per_gb_second: 0.0000166667,
                per_request: 0.0000002,
            },
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InstanceState {
    /// Provisioning; becomes warm at the stored time.
    Booting(SimTime),
    /// Idle and cached since the stored time.
    Warm(SimTime),
    /// Executing a request.
    Busy,
    /// Reclaimed.
    Dead,
}

#[derive(Clone, Debug)]
struct Instance {
    state: InstanceState,
    created_at: SimTime,
    retired_at: Option<SimTime>,
}

/// A FaaS platform: provisions instances with cold boots, caches warm ones,
/// reclaims idle ones, and accounts cost.
#[derive(Debug)]
pub struct FaasPlatform {
    config: PlatformConfig,
    instances: Vec<Instance>,
    rng: Rng,
    ledger: CostLedger,
    cold_boots: u64,
    warm_starts: u64,
}

impl FaasPlatform {
    /// A platform with the given configuration and RNG seed (cold-boot
    /// jitter).
    pub fn new(config: PlatformConfig, rng: Rng) -> Self {
        FaasPlatform {
            config,
            instances: Vec::new(),
            rng,
            ledger: CostLedger::new(),
            cold_boots: 0,
            warm_starts: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Acquire an instance for a request at `now`. Returns the instance, the
    /// time it becomes ready to execute, and whether this was a cold or warm
    /// start. The instance is `Busy` from the ready time until
    /// [`FaasPlatform::release`].
    pub fn acquire(&mut self, now: SimTime) -> (InstanceId, SimTime, BootKind) {
        // Prefer the most recently used warm instance (LIFO keeps the cache
        // small and matches platform schedulers).
        let warm = self
            .instances
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i.state, InstanceState::Warm(_)))
            .max_by_key(|(idx, i)| match i.state {
                InstanceState::Warm(since) => (since, *idx),
                _ => unreachable!(),
            });
        if let Some((idx, _)) = warm {
            self.instances[idx].state = InstanceState::Busy;
            self.warm_starts += 1;
            tele::instant(
                tele::Track::Instance(idx as u32),
                tele::EventName::InstanceWarmStart,
                &[],
            );
            return (idx as InstanceId, now, BootKind::Warm);
        }
        let boot = self
            .rng
            .lognormal(self.config.cold_boot_median, self.config.cold_boot_sigma);
        let ready = now + boot;
        let id = self.instances.len() as InstanceId;
        self.instances.push(Instance {
            state: InstanceState::Booting(ready),
            created_at: now,
            retired_at: None,
        });
        self.cold_boots += 1;
        tele::instant(
            tele::Track::Instance(id),
            tele::EventName::InstanceColdBoot,
            &[("boot_us", tele::Arg::UInt(boot.as_nanos() / 1000))],
        );
        (id, ready, BootKind::Cold)
    }

    /// Acquire a *specific* warm instance (the embedding driver tracks
    /// which warm instances already hold an instantiated closure and prefers
    /// them). Returns `false` if the instance is not warm.
    pub fn acquire_warm_specific(&mut self, id: InstanceId) -> bool {
        let inst = &mut self.instances[id as usize];
        if matches!(inst.state, InstanceState::Warm(_)) {
            inst.state = InstanceState::Busy;
            self.warm_starts += 1;
            tele::instant(
                tele::Track::Instance(id),
                tele::EventName::InstanceWarmStart,
                &[],
            );
            true
        } else {
            false
        }
    }

    /// Mark a booting instance as busy once its ready time arrives.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not booting or `now` precedes its ready
    /// time.
    pub fn boot_complete(&mut self, now: SimTime, id: InstanceId) {
        let inst = &mut self.instances[id as usize];
        match inst.state {
            InstanceState::Booting(ready) => {
                assert!(now >= ready, "boot_complete before ready time");
                inst.state = InstanceState::Busy;
                tele::instant(
                    tele::Track::Instance(id),
                    tele::EventName::InstanceReady,
                    &[],
                );
            }
            ref s => panic!("boot_complete on instance in state {s:?}"),
        }
    }

    /// Release a busy instance back to the warm cache, recording `busy_time`
    /// of execution for billing.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not busy.
    pub fn release(&mut self, now: SimTime, id: InstanceId, busy_time: Duration) {
        let inst = &mut self.instances[id as usize];
        assert_eq!(
            inst.state,
            InstanceState::Busy,
            "release of non-busy instance"
        );
        inst.state = InstanceState::Warm(now);
        tele::instant(
            tele::Track::Instance(id),
            tele::EventName::InstanceRelease,
            &[("busy_us", tele::Arg::UInt(busy_time.as_nanos() / 1000))],
        );
        self.ledger.record_use(busy_time, self.config.memory_gb, 1);
    }

    /// Reclaim warm instances idle longer than the keep-alive; returns how
    /// many were reclaimed.
    pub fn expire_idle(&mut self, now: SimTime) -> usize {
        let mut n = 0;
        for inst in &mut self.instances {
            if let InstanceState::Warm(since) = inst.state {
                if now.saturating_since(since) >= self.config.keep_alive {
                    inst.state = InstanceState::Dead;
                    inst.retired_at = Some(now);
                    n += 1;
                }
            }
        }
        if n > 0 {
            tele::instant(
                tele::Track::Platform,
                tele::EventName::InstanceExpire,
                &[("count", tele::Arg::UInt(n as u64))],
            );
        }
        n
    }

    /// Forcibly kill an instance (failure injection, §4.5).
    ///
    /// Driven by `beehive-chaos` fault plans: the workload driver expands a
    /// plan's `InstanceCrash` faults into kills here, then recovers the
    /// victim's request on a replacement instance from its last
    /// synchronization snapshot. See the `beehive-chaos` crate for the
    /// injector vocabulary and the retry/backoff policy.
    pub fn kill(&mut self, now: SimTime, id: InstanceId) {
        let inst = &mut self.instances[id as usize];
        inst.state = InstanceState::Dead;
        inst.retired_at = Some(now);
        tele::instant(
            tele::Track::Instance(id),
            tele::EventName::InstanceKill,
            &[],
        );
    }

    /// `true` if the instance is alive (booting, warm or busy).
    pub fn is_alive(&self, id: InstanceId) -> bool {
        !matches!(self.instances[id as usize].state, InstanceState::Dead)
    }

    /// `true` if the instance is warm (cached, idle) — i.e. eligible for
    /// fault injection as an idle-cache victim without disturbing a boot or
    /// a reserved replacement.
    pub fn is_warm(&self, id: InstanceId) -> bool {
        matches!(self.instances[id as usize].state, InstanceState::Warm(_))
    }

    /// Number of instances ever created.
    pub fn instances_created(&self) -> usize {
        self.instances.len()
    }

    /// Cold and warm start counts so far.
    pub fn boot_stats(&self) -> (u64, u64) {
        (self.cold_boots, self.warm_starts)
    }

    /// Pre-provision `n` warm instances at `now` (used to model platform
    /// caches that already hold instances, the "warm boot" case of §5.2).
    pub fn prewarm(&mut self, now: SimTime, n: usize) {
        if n > 0 {
            tele::instant(
                tele::Track::Platform,
                tele::EventName::InstancePrewarm,
                &[("count", tele::Arg::UInt(n as u64))],
            );
        }
        for _ in 0..n {
            self.instances.push(Instance {
                state: InstanceState::Warm(now),
                created_at: now,
                retired_at: None,
            });
        }
    }

    /// The usage ledger (GB-seconds and request counts billed so far).
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Total dollars billed up to `now`.
    pub fn cost(&self, now: SimTime) -> f64 {
        match self.config.billing {
            Billing::PerUse { .. } => self.ledger.cost(&self.config.billing),
            Billing::PerInstanceHour { rate } => {
                // Instance-time billing: every instance is billed from
                // creation until retirement (or `now`).
                let mut hours = 0.0;
                for inst in &self.instances {
                    let end = inst.retired_at.unwrap_or(now);
                    hours += end.saturating_since(inst.created_at).as_secs_f64() / 3600.0;
                }
                hours * rate
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaasPlatform {
        /// Number of currently warm (cached, idle) instances.
        fn warm_count(&self) -> usize {
            self.instances
                .iter()
                .filter(|i| matches!(i.state, InstanceState::Warm(_)))
                .count()
        }
    }

    fn platform() -> FaasPlatform {
        FaasPlatform::new(PlatformConfig::openwhisk(), Rng::new(1))
    }

    #[test]
    fn first_acquire_is_cold() {
        let mut p = platform();
        let (id, ready, kind) = p.acquire(SimTime::ZERO);
        assert_eq!(kind, BootKind::Cold);
        assert!(ready > SimTime::ZERO);
        // Cold boot should be around the configured median.
        let ms = (ready - SimTime::ZERO).as_millis();
        assert!((500..2500).contains(&ms), "cold boot {ms}ms");
        p.boot_complete(ready, id);
        assert_eq!(p.boot_stats(), (1, 0));
    }

    #[test]
    fn released_instance_is_reused_warm() {
        let mut p = platform();
        let (id, ready, _) = p.acquire(SimTime::ZERO);
        p.boot_complete(ready, id);
        let done = ready + Duration::from_millis(50);
        p.release(done, id, Duration::from_millis(50));
        assert_eq!(p.warm_count(), 1);
        let (id2, ready2, kind2) = p.acquire(done + Duration::from_millis(1));
        assert_eq!(id2, id);
        assert_eq!(kind2, BootKind::Warm);
        assert_eq!(ready2, done + Duration::from_millis(1));
        assert_eq!(p.boot_stats(), (1, 1));
    }

    #[test]
    fn parallel_requests_get_distinct_instances() {
        let mut p = platform();
        let (a, _, _) = p.acquire(SimTime::ZERO);
        let (b, _, _) = p.acquire(SimTime::ZERO);
        assert_ne!(a, b);
        assert_eq!(p.instances_created(), 2);
    }

    #[test]
    fn keep_alive_expiry() {
        let mut p = platform();
        let (id, ready, _) = p.acquire(SimTime::ZERO);
        p.boot_complete(ready, id);
        p.release(ready, id, Duration::from_millis(10));
        assert_eq!(p.expire_idle(ready + Duration::from_secs(1)), 0);
        let late = ready + p.config().keep_alive + Duration::from_secs(1);
        assert_eq!(p.expire_idle(late), 1);
        assert!(!p.is_alive(id));
        // Next acquire is cold again.
        let (_, _, kind) = p.acquire(late);
        assert_eq!(kind, BootKind::Cold);
    }

    #[test]
    fn prewarm_gives_instant_instances() {
        let mut p = platform();
        p.prewarm(SimTime::ZERO, 2);
        let (_, ready, kind) = p.acquire(SimTime::from_secs(1));
        assert_eq!(kind, BootKind::Warm);
        assert_eq!(ready, SimTime::from_secs(1));
    }

    #[test]
    fn kill_removes_instance() {
        let mut p = platform();
        let (id, ready, _) = p.acquire(SimTime::ZERO);
        p.boot_complete(ready, id);
        p.kill(ready, id);
        assert!(!p.is_alive(id));
    }

    #[test]
    fn lambda_cpu_scales_with_memory() {
        let one = PlatformConfig::lambda(1.0);
        let two = PlatformConfig::lambda(2.0);
        assert!((one.cpu - 0.6).abs() < 1e-9);
        assert!((two.cpu - 1.2).abs() < 1e-9);
        assert!(one.server_latency > PlatformConfig::openwhisk().server_latency);
    }

    #[test]
    fn openwhisk_cost_is_instance_time() {
        let mut p = platform();
        let (id, ready, _) = p.acquire(SimTime::ZERO);
        p.boot_complete(ready, id);
        let one_hour = SimTime::from_secs(3600);
        let cost = p.cost(one_hour);
        // One m4.large for ~1h at $0.10/h.
        assert!((cost - 0.10).abs() < 0.01, "cost {cost}");
    }

    #[test]
    fn lambda_cost_is_usage_based() {
        let mut p = FaasPlatform::new(PlatformConfig::lambda(1.0), Rng::new(2));
        let (id, ready, _) = p.acquire(SimTime::ZERO);
        p.boot_complete(ready, id);
        // 100 requests x 100ms on 1GB = 10 GB-s.
        for _ in 0..100 {
            p.instances[id as usize].state = InstanceState::Busy;
            p.release(ready, id, Duration::from_millis(100));
        }
        let cost = p.cost(SimTime::from_secs(3600));
        let expected = 10.0 * 0.0000166667 + 100.0 * 0.0000002;
        assert!((cost - expected).abs() < 1e-9, "cost {cost} vs {expected}");
        // Idle time costs nothing on Lambda.
    }

    #[test]
    fn cross_az_has_higher_latency() {
        assert!(
            PlatformConfig::openwhisk_cross_az().server_latency
                > PlatformConfig::openwhisk().server_latency
        );
    }
}
