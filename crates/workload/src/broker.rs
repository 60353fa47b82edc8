//! The resource-broker layer: contended resources and their completion
//! events.
//!
//! The broker owns the server's processor-sharing pools, the database FIFO
//! pool, the FaaS platform and the instance scaler, and keeps the queue
//! free of stale completion events:
//!
//! * each server pool holds one armed `Ev::ServerPool`, rescheduled to the
//!   new head's completion on every mutation and cancelled when the pool
//!   empties, so the event that pops is always due;
//! * the database FIFO gets a `DbDone` for its head job unless one for that
//!   job is already pending. Each job's completion time is fixed, so its
//!   first event is the one to act on; `Broker::db_completion` still
//!   rejects an event whose job lost a same-instant tie to a lower id, and
//!   the winner's completion arms the next one.

use beehive_chaos::{Fault, FaultPlan};
use beehive_faas::FaasPlatform;
use beehive_scaling::InstanceScaler;
use beehive_sim::pool::{FifoPool, PsPool};
use beehive_sim::{Duration, EventId, EventQueue, Rng, SimTime};

/// Events of the driver's queue.
#[derive(Debug)]
pub(crate) enum Ev {
    /// An open-loop client arrives.
    Arrival,
    /// A closed-loop client reissues.
    ClientReissue,
    /// Re-step a parked request.
    Step(u64),
    /// A server pool's head job completes.
    ServerPool {
        /// The pool index.
        pool: usize,
    },
    /// A database job may have completed.
    DbDone {
        /// The request id of the job.
        job: u64,
        /// Its completion time when the event was scheduled.
        at: SimTime,
    },
    /// A FaaS instance boot finished for this pending request.
    Boot {
        /// The pending-boot request id.
        req: u64,
    },
    /// The instance scaler engages (provision an instance).
    TriggerScale,
    /// The provisioned instance is ready to serve.
    CapacityReady,
    /// Periodic FaaS idle-instance expiry sweep.
    Expire,
    /// An injected fault fires (§4.5 failure injection).
    Fault(Fault),
    /// A crashed request's replacement instance is ready: resume it from
    /// its last snapshot.
    Recover {
        /// The crashed request id.
        req: u64,
    },
}

/// Owns every contended resource and the scheduling dances around them.
#[derive(Debug)]
pub struct Broker {
    /// Server processor-sharing pools: pool 0 is the always-on primary,
    /// pool 1 (when present) the scaled-out instance.
    pools: Vec<PsPool>,
    /// Per pool: its pending `Ev::ServerPool`, while it holds jobs.
    armed: Vec<Option<EventId>>,
    /// The database machine (m4.10xlarge: 40 parallel workers).
    db_pool: FifoPool,
    /// Jobs of `db_pool` with a `DbDone` pending (at most one each).
    db_pending: Vec<u64>,
    /// The FaaS platform, for offloading strategies.
    pub(crate) platform: Option<FaasPlatform>,
    /// The instance scaler, for scaled (and combined) strategies.
    pub(crate) scaler: Option<InstanceScaler>,
    /// The run's fault plan: armed one-shot faults, retry policy and the
    /// chaos counters. Empty (inert) unless the config carries injectors.
    pub(crate) chaos: FaultPlan,
    server_cores: f64,
}

impl Broker {
    /// A broker with one primary pool of `server_cores` vCPUs.
    pub(crate) fn new(
        server_cores: f64,
        platform: Option<FaasPlatform>,
        scaler: Option<InstanceScaler>,
    ) -> Broker {
        Broker {
            pools: vec![PsPool::new(server_cores)],
            armed: vec![None],
            db_pool: FifoPool::new(40), // the m4.10xlarge database machine
            db_pending: Vec::new(),
            platform,
            scaler,
            chaos: FaultPlan::default(),
            server_cores,
        }
    }

    /// The server pools, primary first.
    pub(crate) fn pools(&self) -> &[PsPool] {
        &self.pools
    }

    /// Submit `work` for request `rid` to server pool `pool`.
    pub(crate) fn pool_add(
        &mut self,
        now: SimTime,
        pool: usize,
        rid: u64,
        work: Duration,
        events: &mut EventQueue<Ev>,
    ) {
        self.pools[pool].add(now, rid, work);
        self.arm_pool(pool, events);
    }

    /// Handle `Ev::ServerPool`: complete the pool's head job, returning its
    /// request id to re-step.
    pub(crate) fn pool_completion(
        &mut self,
        now: SimTime,
        pool: usize,
        events: &mut EventQueue<Ev>,
    ) -> u64 {
        self.armed[pool] = None; // it just popped
        let (t, job) = self.pools[pool]
            .next_completion()
            .expect("an armed pool holds a job");
        debug_assert_eq!(t, now, "the armed event tracks the head's completion");
        self.pools[pool].remove(now, job);
        self.arm_pool(pool, events);
        job
    }

    /// Point pool `pool`'s one completion event at its head's completion,
    /// or withdraw it when the pool is empty.
    fn arm_pool(&mut self, pool: usize, events: &mut EventQueue<Ev>) {
        match (self.pools[pool].next_completion(), self.armed[pool]) {
            (Some((t, _)), Some(id)) => events.reschedule(id, t),
            (Some((t, _)), None) => {
                self.armed[pool] = Some(events.schedule(t, Ev::ServerPool { pool }));
            }
            (None, Some(id)) => {
                events.cancel(id);
                self.armed[pool] = None;
            }
            (None, None) => {}
        }
    }

    /// Submit a database round of `work` for request `rid`, returning the
    /// instant its `DbDone` will hand `rid` back: the FIFO never cancels a
    /// job, so that instant is fixed now.
    pub(crate) fn db_add(
        &mut self,
        now: SimTime,
        rid: u64,
        work: Duration,
        events: &mut EventQueue<Ev>,
    ) -> SimTime {
        let done = self.db_pool.add(now, rid, work);
        self.arm_db(events);
        done
    }

    /// Handle `Ev::DbDone`: complete the job if it is still the head and
    /// due, returning its request id to re-step.
    pub(crate) fn db_completion(
        &mut self,
        now: SimTime,
        job: u64,
        at: SimTime,
        events: &mut EventQueue<Ev>,
    ) -> Option<u64> {
        let pending = self.db_pending.iter().position(|&j| j == job);
        self.db_pending
            .swap_remove(pending.expect("a DbDone pops for a pending job"));
        if self.db_pool.next_completion() != Some((at, job)) || at > now {
            return None; // lost a same-instant tie to a lower id
        }
        self.db_pool.complete(now, job);
        self.arm_db(events);
        Some(job)
    }

    /// Schedule a `DbDone` for the database head, unless it has one.
    fn arm_db(&mut self, events: &mut EventQueue<Ev>) {
        if let Some((t, job)) = self.db_pool.next_completion() {
            if !self.db_pending.contains(&job) {
                self.db_pending.push(job);
                events.schedule(t, Ev::DbDone { job, at: t });
            }
        }
    }

    /// Handle `Ev::TriggerScale`: ask the scaler for an instance and
    /// schedule its readiness.
    pub(crate) fn trigger_scale(
        &mut self,
        now: SimTime,
        rng: &mut Rng,
        events: &mut EventQueue<Ev>,
    ) {
        let Some(scaler) = self.scaler.as_mut() else {
            return;
        };
        let ready = scaler.request(now, rng);
        events.schedule(ready, Ev::CapacityReady);
    }

    /// Handle `Ev::CapacityReady`: bring the scaled-out pool online.
    pub(crate) fn capacity_ready(&mut self) {
        if self.pools.len() == 1 {
            self.pools.push(PsPool::new(self.server_cores));
            self.armed.push(None);
        }
    }

    /// Handle `Ev::Expire`: expire idle FaaS instances and drop dead ones
    /// from the idle rotation. The sweep reschedules itself only while a
    /// platform exists — vanilla/scaled runs never enter the chain at all.
    pub(crate) fn expire_idle(
        &mut self,
        now: SimTime,
        idle: &mut Vec<u32>,
        events: &mut EventQueue<Ev>,
    ) {
        let Some(p) = self.platform.as_mut() else {
            return;
        };
        p.expire_idle(now);
        idle.retain(|&id| p.is_alive(id));
        events.schedule(now + Duration::from_secs(30), Ev::Expire);
    }

    /// Duration of a `FunctionCpu` need scaled by the platform's vCPU
    /// share (a 0.5-vCPU function runs CPU work at half speed).
    pub(crate) fn function_cpu_duration(&self, amount: Duration) -> Duration {
        let cpu = self
            .platform
            .as_ref()
            .map(|p| p.config().cpu)
            .unwrap_or(1.0);
        amount.mul_f64(1.0 / cpu)
    }
}
