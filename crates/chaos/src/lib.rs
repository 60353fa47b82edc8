//! # beehive-chaos — deterministic, virtual-time fault injection
//!
//! The paper's failure-recovery story (§4.5) only matters under failures, so
//! this crate supplies them: a seeded **fault plan** that a workload run
//! expands into typed fault events on the virtual clock, plus the bounded
//! retry/backoff policy the driver consults when an offloaded request loses
//! its instance.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** A plan is expanded by [`FaultPlan::schedule`] with its
//!    own PCG stream keyed on `(plan seed, run seed)` — it never draws from
//!    the simulation's generator, so a run with an *empty* plan is
//!    byte-identical to one built before this crate existed, and a run with a
//!    non-empty plan is byte-identical at any `BEEHIVE_WORKERS` (each
//!    simulation is single-threaded and self-seeded).
//! 2. **Typed faults.** [`Fault`] enumerates the vocabulary: instance
//!    crashes, boot failures, dropped/delayed fallback RPCs, network-degrade
//!    windows and database connection drops. Injectors produce them either
//!    from an explicit timetable ([`Injector::Schedule`]) or from a Poisson
//!    rate over a window ([`Injector::Rate`]).
//! 3. **No DES in the loop.** The retry policy ([`RetryPolicy::decide`]) is a
//!    pure function of the attempt number and the request's write journal
//!    state, unit-testable without building a simulation.
//!
//! The workload driver wires the plan through its event loop (`Ev::Fault`),
//! kills instances via `FaasPlatform::kill`, and resumes crashed requests
//! from their last `beehive_core::recovery::Snapshot` on a replacement
//! instance; see `beehive-workload` for the integration and the
//! `repro recovery` experiment for the MTTR/latency-vs-crash-rate sweep.

#![warn(missing_docs)]
#![deny(dead_code)]

use std::collections::VecDeque;

use beehive_sim::stats::MeanMax;
use beehive_sim::{Duration, Rng, SimTime};

/// One typed fault, delivered at a point in virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Kill one running or warm-idle FaaS instance. The `selector` picks the
    /// victim among the currently eligible instances (`selector % eligible`),
    /// so a rate injector crashes a deterministic but varied sample.
    InstanceCrash {
        /// Deterministic victim selector (reduced modulo the eligible set).
        selector: u64,
    },
    /// The next instance boot fails: the container never comes up and the
    /// platform reclaims it.
    BootFailure,
    /// The next fallback RPC round-trip is lost; the caller re-sends after
    /// `timeout` of virtual time.
    RpcDrop {
        /// Detection timeout before the caller re-sends.
        timeout: Duration,
    },
    /// The next fallback RPC round-trip is delayed by `delay`.
    RpcDelay {
        /// Extra one-way latency added to the round-trip.
        delay: Duration,
    },
    /// All network legs are slowed by `factor` for `duration` of virtual
    /// time from the moment the fault fires.
    NetworkDegrade {
        /// Multiplier applied to network demands (`> 1.0` slows).
        factor: f64,
        /// Window length.
        duration: Duration,
    },
    /// The next database round loses its connection and pays `reconnect`
    /// before being re-sent.
    DbConnDrop {
        /// Reconnect penalty added to the round.
        reconnect: Duration,
    },
}

/// An armed RPC fault, consumed by the next fallback round-trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpcFault {
    /// The round-trip is lost; re-sent after `timeout`.
    Drop {
        /// Detection timeout before the re-send.
        timeout: Duration,
    },
    /// The round-trip is delayed by `delay`.
    Delay {
        /// Extra latency.
        delay: Duration,
    },
}

/// A deterministic fault source.
#[derive(Clone, Debug)]
pub enum Injector {
    /// An explicit timetable: each fault fires at its offset from the start
    /// of the run.
    Schedule(Vec<(Duration, Fault)>),
    /// A Poisson process emitting copies of `fault` at `per_sec` over
    /// `[start, end)`. `InstanceCrash` selectors are re-drawn per event so
    /// successive crashes hit varied victims.
    Rate {
        /// The fault template to emit.
        fault: Fault,
        /// Mean emission rate (events per virtual second).
        per_sec: f64,
        /// Window start (offset from the start of the run).
        start: Duration,
        /// Window end (exclusive).
        end: Duration,
    },
}

/// What the driver should do with a failed offload attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryDecision {
    /// Provision a replacement instance and resume from the last snapshot
    /// after `backoff` of virtual time.
    Retry {
        /// Exponential backoff before the resume.
        backoff: Duration,
    },
    /// Retries are exhausted and the request has issued no database write
    /// keys: degrade gracefully by re-running it on the server.
    Degrade,
}

/// Bounded retry with exponential backoff for failed offload invocations.
///
/// Pure policy, mirroring the router: no event queue in the loop. A request
/// that has already issued write-journal keys is *never* degraded — re-running
/// it under a fresh request id would defeat the exactly-once journal — so it
/// keeps retrying at the capped backoff instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff before the first retry; doubles per subsequent attempt.
    pub base_backoff: Duration,
    /// Attempts allowed before degrading to server execution.
    pub max_retries: u32,
}

/// Backoff doubling stops here: `base << 10` caps the wait at ~1024× base.
const BACKOFF_CAP_EXP: u32 = 10;

impl RetryPolicy {
    /// A policy retrying `max_retries` times starting at `base_backoff`.
    pub fn new(base_backoff: Duration, max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            base_backoff,
            max_retries,
        }
    }

    /// Decide attempt number `attempt` (1-based) for a request that has
    /// issued `committed_writes` database write keys so far.
    pub fn decide(&self, attempt: u32, committed_writes: bool) -> RetryDecision {
        if attempt > self.max_retries && !committed_writes {
            return RetryDecision::Degrade;
        }
        let exp = attempt.saturating_sub(1).min(BACKOFF_CAP_EXP);
        RetryDecision::Retry {
            backoff: self.base_backoff * (1u64 << exp),
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::new(Duration::from_millis(50), 3)
    }
}

/// Counters and samples the chaos machinery accumulates during a run.
#[derive(Clone, Debug, Default)]
pub struct ChaosStats {
    /// Instances killed by injected faults.
    pub crashes: u64,
    /// Boots that failed before the instance came up.
    pub boot_failures: u64,
    /// Retries: replacement provisions, RPC re-sends, DB reconnects.
    pub retries: u64,
    /// Requests degraded to server execution after exhausting retries.
    pub degraded_to_server: u64,
    /// Virtual time of work lost to crashes and re-executed after recovery.
    pub re_executed_ns: u64,
    /// Detection-to-resume latency of each completed recovery (MTTR).
    pub recovery: MeanMax,
}

impl ChaosStats {
    /// Completed §4.5 recoveries (crash → snapshot restore → resume).
    pub fn recoveries(&self) -> u64 {
        self.recovery.len() as u64
    }
}

/// A seeded fault plan: injectors, retry policy, and the armed one-shot
/// faults a run consumes as it executes.
///
/// The default plan is empty and inert — `SimConfig` carries one by value and
/// existing scenarios are byte-identical with it in place.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Plan seed, mixed with the run seed when expanding injectors.
    pub seed: u64,
    /// The fault sources.
    pub injectors: Vec<Injector>,
    /// Retry/backoff policy for failed offload invocations.
    pub policy: RetryPolicy,
    /// Counters accumulated while the plan executes.
    pub stats: ChaosStats,
    /// Armed RPC faults, consumed FIFO by fallback round-trips.
    armed_rpc: VecDeque<RpcFault>,
    /// Armed DB reconnect penalties, consumed FIFO by database rounds.
    armed_db: VecDeque<Duration>,
    /// Armed boot failures, consumed by instance boot completions.
    armed_boot: u32,
    /// Active network-degrade windows: `(from, to, factor)`.
    net: Vec<(SimTime, SimTime, f64)>,
}

impl FaultPlan {
    /// An empty plan under `seed` (injectors added via [`FaultPlan::push`]).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Add an injector.
    pub fn push(&mut self, injector: Injector) {
        self.injectors.push(injector);
    }

    /// `true` when the plan can never produce a fault.
    pub fn is_empty(&self) -> bool {
        self.injectors.is_empty()
    }

    /// Expand the injectors into a time-sorted fault timetable for one run.
    ///
    /// The expansion draws from a dedicated PCG stream keyed on
    /// `(self.seed, run_seed)`; the simulation's own generator is untouched,
    /// which is what keeps empty-plan runs byte-identical to pre-chaos ones.
    pub fn schedule(&self, run_seed: u64, horizon: Duration) -> Vec<(Duration, Fault)> {
        let mut rng = Rng::new(mix(self.seed, run_seed));
        let mut out: Vec<(Duration, Fault)> = Vec::new();
        for injector in &self.injectors {
            match injector {
                Injector::Schedule(entries) => {
                    for &(at, fault) in entries {
                        if at < horizon {
                            out.push((at, fault));
                        }
                    }
                }
                Injector::Rate {
                    fault,
                    per_sec,
                    start,
                    end,
                } => {
                    if *per_sec <= 0.0 {
                        continue;
                    }
                    let mean = Duration::from_secs_f64(1.0 / per_sec);
                    let stop = (*end).min(horizon);
                    let mut t = *start;
                    loop {
                        t += rng.exponential(mean);
                        if t >= stop {
                            break;
                        }
                        out.push((t, freshen(*fault, &mut rng)));
                    }
                }
            }
        }
        out.sort_by_key(|&(at, _)| at);
        out
    }

    /// Arm a non-crash fault at `now` (instance crashes are applied by the
    /// driver directly, since victim selection needs the fleet).
    pub fn arm(&mut self, now: SimTime, fault: Fault) {
        match fault {
            Fault::InstanceCrash { .. } => {}
            Fault::BootFailure => self.armed_boot += 1,
            Fault::RpcDrop { timeout } => self.armed_rpc.push_back(RpcFault::Drop { timeout }),
            Fault::RpcDelay { delay } => self.armed_rpc.push_back(RpcFault::Delay { delay }),
            Fault::NetworkDegrade { factor, duration } => {
                self.net.push((now, now + duration, factor));
            }
            Fault::DbConnDrop { reconnect } => self.armed_db.push_back(reconnect),
        }
    }

    /// Consume the next armed RPC fault, if any.
    pub fn rpc_fault(&mut self) -> Option<RpcFault> {
        self.armed_rpc.pop_front()
    }

    /// Consume the next armed DB connection drop, if any.
    pub fn db_drop(&mut self) -> Option<Duration> {
        self.armed_db.pop_front()
    }

    /// Consume one armed boot failure; `true` when the boot should fail.
    pub fn take_boot_failure(&mut self) -> bool {
        if self.armed_boot > 0 {
            self.armed_boot -= 1;
            true
        } else {
            false
        }
    }

    /// The network slowdown factor in effect at `now` (`1.0` when no degrade
    /// window is active; overlapping windows take the worst factor).
    pub fn net_factor(&self, now: SimTime) -> f64 {
        self.net
            .iter()
            .filter(|&&(from, to, _)| from <= now && now < to)
            .map(|&(_, _, f)| f)
            .fold(1.0, f64::max)
    }
}

/// Re-draw the randomized fields of a rate-injected fault template.
fn freshen(fault: Fault, rng: &mut Rng) -> Fault {
    match fault {
        Fault::InstanceCrash { .. } => Fault::InstanceCrash {
            selector: rng.next_u64(),
        },
        other => other,
    }
}

/// Mix the plan seed with the run seed (splitmix64-style finalizer).
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(31).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Key a plan seed on a scenario label, so each scenario in a sweep gets its
/// own independent fault stream from one user-facing `--chaos-seed`
/// (FNV-1a over the label, folded into the seed).
pub fn keyed(seed: u64, scenario: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x0100_0000_01b3);
    for b in scenario.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    // Satellite: table-driven retry/backoff tests, no DES in the loop
    // (mirroring the router's test style).
    #[test]
    fn backoff_doubles_per_attempt_and_caps() {
        let p = RetryPolicy::new(ms(50), 8);
        let cases: Vec<(u32, Duration)> = vec![
            (1, ms(50)),
            (2, ms(100)),
            (3, ms(200)),
            (4, ms(400)),
            (5, ms(800)),
        ];
        for (attempt, want) in cases {
            assert_eq!(
                p.decide(attempt, false),
                RetryDecision::Retry { backoff: want },
                "attempt {attempt}"
            );
        }
        // The doubling saturates at base << 10 no matter the attempt count.
        let p = RetryPolicy::new(ms(1), u32::MAX);
        assert_eq!(
            p.decide(10_000, false),
            RetryDecision::Retry { backoff: ms(1024) }
        );
    }

    #[test]
    fn retry_cap_degrades_clean_requests_only() {
        let p = RetryPolicy::new(ms(50), 3);
        let cases: Vec<(u32, bool, RetryDecision)> = vec![
            // Under the cap: retry regardless of journal state.
            (3, false, RetryDecision::Retry { backoff: ms(200) }),
            (3, true, RetryDecision::Retry { backoff: ms(200) }),
            // Over the cap, no writes issued: degrade to the server.
            (4, false, RetryDecision::Degrade),
            (9, false, RetryDecision::Degrade),
            // Over the cap with writes issued: degradation would re-run the
            // request under a fresh id and defeat the exactly-once journal,
            // so the policy persists at the capped backoff.
            (4, true, RetryDecision::Retry { backoff: ms(400) }),
            (
                20,
                true,
                RetryDecision::Retry {
                    backoff: ms(51_200),
                },
            ),
        ];
        for (attempt, committed, want) in cases {
            assert_eq!(
                p.decide(attempt, committed),
                want,
                "attempt {attempt} committed {committed}"
            );
        }
    }

    #[test]
    fn schedule_is_deterministic_and_keyed() {
        let mut plan = FaultPlan::new(7);
        plan.push(Injector::Rate {
            fault: Fault::InstanceCrash { selector: 0 },
            per_sec: 2.0,
            start: Duration::ZERO,
            end: Duration::from_secs(60),
        });
        let a = plan.schedule(42, Duration::from_secs(60));
        let b = plan.schedule(42, Duration::from_secs(60));
        assert!(!a.is_empty());
        assert_eq!(a, b, "same (plan seed, run seed) → identical timetable");
        let c = plan.schedule(43, Duration::from_secs(60));
        assert_ne!(a, c, "a different run seed reshuffles the stream");
        // Selectors are re-drawn per event, so crashes hit varied victims.
        let selectors: Vec<u64> = a
            .iter()
            .map(|&(_, f)| match f {
                Fault::InstanceCrash { selector } => selector,
                _ => unreachable!(),
            })
            .collect();
        assert!(selectors.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn schedule_clips_to_horizon_and_window() {
        let mut plan = FaultPlan::new(1);
        plan.push(Injector::Schedule(vec![
            (ms(10), Fault::BootFailure),
            (ms(500), Fault::BootFailure),
        ]));
        plan.push(Injector::Rate {
            fault: Fault::DbConnDrop { reconnect: ms(5) },
            per_sec: 100.0,
            start: ms(20),
            end: ms(40),
        });
        let out = plan.schedule(42, ms(100));
        assert!(out.iter().all(|&(at, _)| at < ms(100)));
        assert!(out
            .iter()
            .filter(|&&(_, f)| matches!(f, Fault::DbConnDrop { .. }))
            .all(|&(at, _)| at >= ms(20) && at < ms(40)));
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0), "time-sorted");
        // The ms(500) entry is beyond the horizon.
        assert_eq!(
            out.iter()
                .filter(|&&(_, f)| f == Fault::BootFailure)
                .count(),
            1
        );
    }

    #[test]
    fn armed_faults_consume_fifo() {
        let mut plan = FaultPlan::default();
        let t0 = SimTime::ZERO;
        plan.arm(t0, Fault::RpcDrop { timeout: ms(30) });
        plan.arm(t0, Fault::RpcDelay { delay: ms(5) });
        assert_eq!(plan.rpc_fault(), Some(RpcFault::Drop { timeout: ms(30) }));
        assert_eq!(plan.rpc_fault(), Some(RpcFault::Delay { delay: ms(5) }));
        assert_eq!(plan.rpc_fault(), None);

        plan.arm(t0, Fault::DbConnDrop { reconnect: ms(8) });
        assert_eq!(plan.db_drop(), Some(ms(8)));
        assert_eq!(plan.db_drop(), None);

        assert!(!plan.take_boot_failure());
        plan.arm(t0, Fault::BootFailure);
        plan.arm(t0, Fault::BootFailure);
        assert!(plan.take_boot_failure());
        assert!(plan.take_boot_failure());
        assert!(!plan.take_boot_failure());
    }

    #[test]
    fn net_factor_tracks_windows() {
        let mut plan = FaultPlan::default();
        let t = |v| SimTime::ZERO + ms(v);
        assert_eq!(plan.net_factor(t(0)), 1.0);
        plan.arm(
            t(10),
            Fault::NetworkDegrade {
                factor: 3.0,
                duration: ms(20),
            },
        );
        plan.arm(
            t(15),
            Fault::NetworkDegrade {
                factor: 2.0,
                duration: ms(30),
            },
        );
        assert_eq!(plan.net_factor(t(5)), 1.0);
        assert_eq!(plan.net_factor(t(10)), 3.0);
        assert_eq!(plan.net_factor(t(16)), 3.0, "overlap takes the worst");
        assert_eq!(plan.net_factor(t(35)), 2.0);
        assert_eq!(plan.net_factor(t(50)), 1.0, "windows are half-open");
    }

    #[test]
    fn keyed_separates_scenarios() {
        assert_eq!(keyed(42, "a"), keyed(42, "a"));
        assert_ne!(keyed(42, "a"), keyed(42, "b"));
        assert_ne!(keyed(42, "a"), keyed(43, "a"));
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(plan.schedule(42, Duration::from_secs(60)).is_empty());
    }
}
