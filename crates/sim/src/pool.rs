//! CPU resource models.
//!
//! Two queueing disciplines cover every machine in the reproduction:
//!
//! * [`PsPool`] — egalitarian **processor sharing** over `capacity` cores.
//!   Multi-threaded web servers time-slice requests across a thread pool, and
//!   PS is the standard fluid model for that: with `n` jobs active each
//!   receives `min(1, capacity / n)` of a core. This produces the convex
//!   latency-vs-load curves of the paper's Figure 2.
//! * [`FifoPool`] — `k` servers, FIFO queue; used for the database machine
//!   where queries are short and run to completion.
//!
//! Both pools are *passive*: they never schedule events themselves. Drivers
//! ask for [`PsPool::next_completion`] after every mutation and move the
//! pool's one completion event there (see
//! [`EventQueue::reschedule`](crate::EventQueue::reschedule)).
//!
//! A [`PsPool`] keeps its *head*: the first job, in submission order, with
//! the least remaining work. Every mutation re-establishes it in the same
//! single pass that applies elapsed service, so `next_completion` reads it in
//! O(1). Each job's remaining work is reduced by its own
//! `(remaining - served).max(0.0)` per advance: completion times come from
//! that arithmetic, and an accumulated virtual clock would round differently.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{Duration, SimTime};

/// Caller-assigned identifier of a job inside a pool.
pub type JobId = u64;

/// Egalitarian processor-sharing pool (fluid model).
///
/// # Example
///
/// ```
/// use beehive_sim::pool::PsPool;
/// use beehive_sim::{Duration, SimTime};
///
/// let mut pool = PsPool::new(1.0); // one core
/// let t0 = SimTime::ZERO;
/// pool.add(t0, 1, Duration::from_millis(10));
/// pool.add(t0, 2, Duration::from_millis(10));
/// // Two equal jobs share the core: both finish at 20ms.
/// let (t, job) = pool.next_completion().unwrap();
/// assert_eq!(t.as_millis(), 20);
/// assert_eq!(job, 1); // FIFO tie-break
/// ```
#[derive(Debug, Clone)]
pub struct PsPool {
    capacity: f64,
    /// Jobs in service, in submission order: pools hold a handful to a few
    /// hundred jobs and every mutation already touches all of them, so a
    /// dense scan beats hashing — and position is the FIFO tie-break.
    jobs: Vec<Job>,
    /// Position of the head in `jobs`; meaningless while the pool is empty.
    head: usize,
    last_update: SimTime,
    busy_core_time: f64,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    id: JobId,
    /// Remaining CPU work in nanoseconds-of-one-core.
    remaining: f64,
}

impl PsPool {
    /// A pool with `capacity` cores (fractional capacities model throttled
    /// FaaS instances, e.g. Lambda's 0.6 vCPU at 1 GB).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive and finite.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "pool capacity must be positive: {capacity}"
        );
        PsPool {
            capacity,
            jobs: Vec::new(),
            head: 0,
            last_update: SimTime::ZERO,
            busy_core_time: 0.0,
        }
    }

    /// Per-job service rate (fraction of one core) with the current load.
    fn rate(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            (self.capacity / self.jobs.len() as f64).min(1.0)
        }
    }

    /// Number of jobs currently in service.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when the pool is idle.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total core-nanoseconds consumed so far (for utilization/cost
    /// accounting).
    pub fn busy_core_nanos(&self) -> f64 {
        self.busy_core_time
    }

    /// Apply elapsed service up to `now` and, in the same pass, find job
    /// `id` and make the head the first least-loaded job *other than* `id`
    /// (left unchanged when `id` is the only job). Returns `id`'s position.
    ///
    /// Service is the same for every job, so it never reorders them — but
    /// rounding and the clamp at zero can tie them, which moves the
    /// submission-order head; hence the head is found again on every pass.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than the previous update.
    fn advance_to(&mut self, now: SimTime, id: JobId) -> Option<usize> {
        let elapsed = (now - self.last_update).as_nanos() as f64;
        self.last_update = now;
        // Zero when nothing elapsed, and then subtracting it changes nothing.
        let served = elapsed * self.rate();
        self.busy_core_time += served * self.jobs.len() as f64;
        let mut at = None;
        let mut least = f64::INFINITY;
        for (i, job) in self.jobs.iter_mut().enumerate() {
            job.remaining = (job.remaining - served).max(0.0);
            if job.id == id {
                at = Some(i);
            } else if job.remaining < least {
                least = job.remaining;
                self.head = i;
            }
        }
        at
    }

    /// Submit a job needing `work` nanoseconds of one core.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already in the pool or `now` precedes the last
    /// mutation.
    pub fn add(&mut self, now: SimTime, id: JobId, work: Duration) {
        let dup = self.advance_to(now, id);
        assert!(dup.is_none(), "job {id} already in pool");
        let remaining = work.as_nanos() as f64;
        // Behind every earlier job, so it leads only on strictly less work.
        if self.jobs.is_empty() || remaining < self.jobs[self.head].remaining {
            self.head = self.jobs.len();
        }
        self.jobs.push(Job { id, remaining });
    }

    /// Remove a job (completed or cancelled), returning how much CPU work it
    /// still had left.
    ///
    /// # Panics
    ///
    /// Panics if the job is not in the pool.
    pub fn remove(&mut self, now: SimTime, id: JobId) -> Duration {
        let at = self.advance_to(now, id).expect("job not in pool");
        // Order-preserving: the jobs behind keep their FIFO rank.
        let job = self.jobs.remove(at);
        if self.head > at {
            self.head -= 1;
        }
        Duration::from_nanos(job.remaining.max(0.0).round() as u64)
    }

    /// The earliest `(completion_time, job)` under the current load, assuming
    /// no further arrivals. Ties break FIFO by insertion order.
    pub fn next_completion(&self) -> Option<(SimTime, JobId)> {
        let job = self.jobs.get(self.head)?;
        let rate = self.rate();
        debug_assert!(rate > 0.0);
        let dt = (job.remaining / rate).ceil() as u64;
        Some((self.last_update + Duration::from_nanos(dt), job.id))
    }
}

/// `k`-server FIFO queue: jobs run to completion on a dedicated server,
/// excess arrivals wait in order.
#[derive(Debug, Clone)]
pub struct FifoPool {
    servers: usize,
    /// Jobs currently in service: (id, completion time).
    running: Vec<(JobId, SimTime)>,
    /// Waiting jobs in arrival order: (id, service demand).
    queue: std::collections::VecDeque<(JobId, Duration)>,
    /// While jobs wait: when each server finishes the last job handed to
    /// it, earliest on top, so the next arrival takes the top one. With
    /// none waiting, the running jobs' completions are those times.
    free_at: BinaryHeap<Reverse<SimTime>>,
    busy_core_time: f64,
}

impl FifoPool {
    /// A pool with `servers` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "FifoPool needs at least one server");
        FifoPool {
            servers,
            running: Vec::new(),
            queue: std::collections::VecDeque::new(),
            free_at: BinaryHeap::with_capacity(servers),
            busy_core_time: 0.0,
        }
    }

    /// Submit a job; it starts immediately if a server is free. Returns the
    /// instant it completes, provided every job is completed at its
    /// [`next_completion`](Self::next_completion) (what the broker does):
    /// no job leaves early, so a FIFO job's completion is fixed when it
    /// arrives — it starts when the earliest server frees up.
    pub fn add(&mut self, now: SimTime, id: JobId, work: Duration) -> SimTime {
        self.busy_core_time += work.as_nanos() as f64;
        if self.running.len() < self.servers {
            self.running.push((id, now + work));
            return now + work;
        }
        if self.queue.is_empty() {
            self.free_at.clear();
            self.free_at
                .extend(self.running.iter().map(|&(_, t)| Reverse(t)));
        }
        self.queue.push_back((id, work));
        // Every server is busy, so the earliest frees up at `now` or later.
        let mut earliest = self.free_at.peek_mut().expect("every server is busy");
        earliest.0 += work;
        earliest.0
    }

    /// The earliest `(completion_time, job)` among running jobs.
    pub fn next_completion(&self) -> Option<(SimTime, JobId)> {
        self.running
            .iter()
            .min_by_key(|(id, t)| (*t, *id))
            .map(|(id, t)| (*t, *id))
    }

    /// Mark `id` complete at `now`, promoting the next queued job.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not running.
    pub fn complete(&mut self, now: SimTime, id: JobId) {
        let idx = self
            .running
            .iter()
            .position(|(j, _)| *j == id)
            .expect("completing job that is not running");
        self.running.swap_remove(idx);
        if let Some((next, work)) = self.queue.pop_front() {
            self.running.push((next, now + work));
        }
    }

    /// Jobs in service plus jobs waiting.
    pub fn len(&self) -> usize {
        self.running.len() + self.queue.len()
    }

    /// `true` when nothing is running or queued.
    pub fn is_empty(&self) -> bool {
        self.running.is_empty() && self.queue.is_empty()
    }

    /// Total core-nanoseconds ever submitted (for utilization accounting).
    pub fn busy_core_nanos(&self) -> f64 {
        self.busy_core_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_runs_at_full_speed() {
        let mut pool = PsPool::new(4.0);
        pool.add(SimTime::ZERO, 1, Duration::from_millis(8));
        let (t, id) = pool.next_completion().unwrap();
        assert_eq!(id, 1);
        assert_eq!(t.as_millis(), 8); // one job never exceeds one core
    }

    #[test]
    fn sharing_slows_jobs_down() {
        let mut pool = PsPool::new(1.0);
        pool.add(SimTime::ZERO, 1, Duration::from_millis(10));
        pool.add(SimTime::ZERO, 2, Duration::from_millis(10));
        let (t, _) = pool.next_completion().unwrap();
        assert_eq!(t.as_millis(), 20);
    }

    #[test]
    fn capacity_bounds_parallelism() {
        // 2 cores, 4 equal jobs => each runs at 0.5 core.
        let mut pool = PsPool::new(2.0);
        for id in 0..4 {
            pool.add(SimTime::ZERO, id, Duration::from_millis(10));
        }
        let (t, _) = pool.next_completion().unwrap();
        assert_eq!(t.as_millis(), 20);
    }

    #[test]
    fn later_arrival_delays_completion() {
        let mut pool = PsPool::new(1.0);
        pool.add(SimTime::ZERO, 1, Duration::from_millis(10));
        // After 5ms, job 1 has 5ms left. Job 2 arrives; both at half speed.
        pool.add(
            SimTime::ZERO + Duration::from_millis(5),
            2,
            Duration::from_millis(3),
        );
        let (t, id) = pool.next_completion().unwrap();
        // Job 2 (3ms left) finishes first: 5ms + 3/0.5 = 11ms.
        assert_eq!(id, 2);
        assert_eq!(t.as_millis(), 11);
        pool.remove(t, 2);
        let (t1, id1) = pool.next_completion().unwrap();
        assert_eq!(id1, 1);
        // Job 1: 5ms left at t=5, served 3ms during the shared 6ms window,
        // so 2ms remain at full speed once alone => finishes at 13ms.
        assert_eq!(t1.as_millis(), 13);
    }

    #[test]
    fn fractional_capacity() {
        let mut pool = PsPool::new(0.5);
        pool.add(SimTime::ZERO, 1, Duration::from_millis(10));
        let (t, _) = pool.next_completion().unwrap();
        assert_eq!(t.as_millis(), 20);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut pool = PsPool::new(4.0);
        pool.add(SimTime::ZERO, 1, Duration::from_millis(10));
        let (t, _) = pool.next_completion().unwrap();
        pool.remove(t, 1);
        let busy_ms = pool.busy_core_nanos() / 1e6;
        assert!((busy_ms - 10.0).abs() < 1e-6, "busy {busy_ms}ms");
    }

    #[test]
    #[should_panic(expected = "already in pool")]
    fn duplicate_job_panics() {
        let mut pool = PsPool::new(1.0);
        pool.add(SimTime::ZERO, 1, Duration::from_millis(1));
        pool.add(SimTime::ZERO, 1, Duration::from_millis(1));
    }

    /// The map-based pool this one replaced, arithmetic and tie-break
    /// verbatim: the reference the dense pool must match bit for bit.
    struct MapPool {
        capacity: f64,
        jobs: std::collections::HashMap<JobId, (f64, u64)>,
        last_update: SimTime,
        epoch: u64,
        busy_core_time: f64,
    }

    impl MapPool {
        fn new(capacity: f64) -> Self {
            MapPool {
                capacity,
                jobs: Default::default(),
                last_update: SimTime::ZERO,
                epoch: 0,
                busy_core_time: 0.0,
            }
        }

        fn rate(&self) -> f64 {
            (self.capacity / self.jobs.len() as f64).min(1.0)
        }

        fn advance_to(&mut self, now: SimTime) {
            let elapsed = (now - self.last_update).as_nanos() as f64;
            self.last_update = now;
            if elapsed == 0.0 || self.jobs.is_empty() {
                return;
            }
            let served = elapsed * self.rate();
            self.busy_core_time += served * self.jobs.len() as f64;
            for (remaining, _) in self.jobs.values_mut() {
                *remaining = (*remaining - served).max(0.0);
            }
        }

        fn add(&mut self, now: SimTime, id: JobId, work: Duration) {
            self.advance_to(now);
            self.jobs.insert(id, (work.as_nanos() as f64, self.epoch));
            self.epoch += 1;
        }

        fn remove(&mut self, now: SimTime, id: JobId) -> Duration {
            self.advance_to(now);
            let (remaining, _) = self.jobs.remove(&id).expect("job not in pool");
            self.epoch += 1;
            Duration::from_nanos(remaining.max(0.0).round() as u64)
        }

        fn next_completion(&self) -> Option<(SimTime, JobId)> {
            let (id, (remaining, _)) = self
                .jobs
                .iter()
                .min_by(|(_, a), (_, b)| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)))?;
            let dt = (remaining / self.rate()).ceil() as u64;
            Some((self.last_update + Duration::from_nanos(dt), *id))
        }
    }

    #[test]
    fn dense_pool_matches_the_map_based_model_bit_for_bit() {
        for seed in 0..1000u64 {
            let mut rng = crate::Rng::new(seed);
            let capacity = [0.5, 1.0, 4.0, 16.0][rng.gen_range(4) as usize];
            let mut pool = PsPool::new(capacity);
            let mut model = MapPool::new(capacity);
            let mut now = SimTime::ZERO;
            let mut live: Vec<JobId> = Vec::new();
            for step in 0..60u64 {
                match rng.gen_range(4) {
                    // Complete the head job (what the broker does).
                    0 | 1 if !live.is_empty() => {
                        let (t, id) = pool.next_completion().expect("non-empty");
                        assert_eq!(model.next_completion(), Some((t, id)), "seed {seed}");
                        now = t;
                        assert_eq!(pool.remove(now, id), model.remove(now, id));
                        live.retain(|&j| j != id);
                    }
                    // Cancel an arbitrary job a little later.
                    2 if !live.is_empty() => {
                        let id = live.swap_remove(rng.gen_range(live.len() as u64) as usize);
                        now += Duration::from_nanos(rng.gen_range(50_000));
                        assert_eq!(pool.remove(now, id), model.remove(now, id));
                    }
                    // Submit; equal demands at one instant exercise the
                    // FIFO tie-break.
                    _ => {
                        now += Duration::from_nanos(rng.gen_range(3) * 40_000);
                        let work = Duration::from_micros(100 * (1 + rng.gen_range(4)));
                        pool.add(now, step, work);
                        model.add(now, step, work);
                        live.push(step);
                    }
                }
                assert_eq!(pool.next_completion(), model.next_completion());
                assert_eq!(
                    pool.busy_core_nanos().to_bits(),
                    model.busy_core_time.to_bits(),
                    "seed {seed} step {step}"
                );
            }
        }
    }

    /// The same check in the regime a burst drives the server into: 150–300
    /// jobs on 4 or 16 cores, mutations at one instant, cancellations behind
    /// the head, and ties that only rounding makes — jobs clamped to zero
    /// after a long gap, and huge demands whose service rounds away.
    #[test]
    fn saturated_pool_matches_the_map_based_model_bit_for_bit() {
        for seed in 0..200u64 {
            let mut rng = crate::Rng::new(seed);
            let capacity = [4.0, 16.0][rng.gen_range(2) as usize];
            let target = 150 + rng.gen_range(151) as usize;
            let mut pool = PsPool::new(capacity);
            let mut model = MapPool::new(capacity);
            let mut now = SimTime::ZERO;
            let mut live: Vec<JobId> = Vec::new();
            for step in 0..4 * target as u64 {
                let full = live.len() >= target;
                match rng.gen_range(8) {
                    // Complete the head, as the broker does.
                    0..=2 if full => {
                        let (t, id) = pool.next_completion().expect("non-empty");
                        assert_eq!(model.next_completion(), Some((t, id)), "seed {seed}");
                        now = t;
                        assert_eq!(pool.remove(now, id), model.remove(now, id));
                        live.retain(|&j| j != id);
                    }
                    // Cancel a job behind the head, now or a little later.
                    3 if full => {
                        let (_, head) = pool.next_completion().expect("non-empty");
                        let mut at = rng.gen_range(live.len() as u64) as usize;
                        if live[at] == head {
                            at = (at + 1) % live.len();
                        }
                        let id = live.swap_remove(at);
                        now += Duration::from_nanos(rng.gen_range(2) * rng.gen_range(5_000));
                        assert_eq!(pool.remove(now, id), model.remove(now, id));
                    }
                    _ => {
                        now += Duration::from_nanos(match rng.gen_range(16) {
                            0..=7 => 0,
                            8..=13 => 1 + rng.gen_range(5_000),
                            // Long enough to drain short jobs to zero.
                            _ => 20_000_000,
                        });
                        let work = if rng.gen_range(16) == 0 {
                            Duration::from_nanos(1 << 50)
                        } else {
                            Duration::from_micros(100 * (1 + rng.gen_range(4)))
                        };
                        pool.add(now, step, work);
                        model.add(now, step, work);
                        live.push(step);
                    }
                }
                assert_eq!(pool.len(), live.len());
                assert_eq!(
                    pool.next_completion(),
                    model.next_completion(),
                    "seed {seed}"
                );
                assert_eq!(
                    pool.busy_core_nanos().to_bits(),
                    model.busy_core_time.to_bits(),
                    "seed {seed} step {step}"
                );
            }
        }
    }

    /// `FifoPool` with its running jobs scanned on every query: the
    /// reference an indexed head must match.
    struct ScanFifo {
        servers: usize,
        running: Vec<(JobId, SimTime)>,
        queue: std::collections::VecDeque<(JobId, Duration)>,
    }

    impl ScanFifo {
        fn add(&mut self, now: SimTime, id: JobId, work: Duration) {
            if self.running.len() < self.servers {
                self.running.push((id, now + work));
            } else {
                self.queue.push_back((id, work));
            }
        }

        fn next_completion(&self) -> Option<(SimTime, JobId)> {
            self.running
                .iter()
                .min_by_key(|(id, t)| (*t, *id))
                .map(|(id, t)| (*t, *id))
        }

        fn complete(&mut self, now: SimTime, id: JobId) {
            let idx = self.running.iter().position(|(j, _)| *j == id).unwrap();
            self.running.swap_remove(idx);
            if let Some((next, work)) = self.queue.pop_front() {
                self.running.push((next, now + work));
            }
        }
    }

    #[test]
    fn fifo_pool_matches_the_scanning_model() {
        for seed in 0..300u64 {
            let mut rng = crate::Rng::new(seed);
            let servers = [1, 4, 40][rng.gen_range(3) as usize];
            let mut pool = FifoPool::new(servers);
            let mut model = ScanFifo {
                servers,
                running: Vec::new(),
                queue: Default::default(),
            };
            let mut now = SimTime::ZERO;
            for step in 0..300u64 {
                match rng.gen_range(4) {
                    // Complete the head at its time, as the broker does.
                    0 if !pool.is_empty() => {
                        let (t, id) = pool.next_completion().expect("non-empty");
                        now = t;
                        pool.complete(now, id);
                        model.complete(now, id);
                    }
                    // Complete any running job early.
                    1 if !pool.is_empty() => {
                        let (id, _) =
                            model.running[rng.gen_range(model.running.len() as u64) as usize];
                        pool.complete(now, id);
                        model.complete(now, id);
                    }
                    // Submit; equal demands at one instant tie on time.
                    _ => {
                        now += Duration::from_nanos(rng.gen_range(2) * rng.gen_range(40_000));
                        let work = Duration::from_micros(50 * (1 + rng.gen_range(4)));
                        pool.add(now, step, work);
                        model.add(now, step, work);
                    }
                }
                assert_eq!(
                    pool.next_completion(),
                    model.next_completion(),
                    "seed {seed}"
                );
                assert_eq!(pool.len(), model.running.len() + model.queue.len());
            }
        }
    }

    /// Complete every job due before `until` (all of them for `None`) as
    /// the broker does, at its `next_completion`, checking each against the
    /// instant `add` returned for it. One due at `until` itself may go
    /// either side of the arrival there.
    fn complete_due(
        pool: &mut FifoPool,
        promised: &mut std::collections::HashMap<JobId, SimTime>,
        rng: &mut crate::Rng,
        until: Option<SimTime>,
    ) {
        while let Some((t, id)) = pool.next_completion() {
            if until.is_some_and(|at| t > at || (t == at && rng.chance(0.5))) {
                return;
            }
            pool.complete(t, id);
            assert_eq!(promised.remove(&id), Some(t), "job {id}");
        }
    }

    #[test]
    fn fifo_add_returns_the_instant_its_job_completes() {
        let mut queued = 0;
        for seed in 0..1000u64 {
            for servers in [1, 4, 40] {
                let mut rng = crate::Rng::new(seed);
                let mut pool = FifoPool::new(servers);
                let mut promised = std::collections::HashMap::new();
                let mut now = SimTime::ZERO;
                for id in 0..300u64 {
                    // Mostly at one instant, so arrivals and equal
                    // completions tie; now and then a gap long enough to
                    // drain the pool.
                    let scale = servers as u64 * 50;
                    now += Duration::from_micros(match rng.gen_range(16) {
                        0..=11 => 0,
                        12..=14 => rng.gen_range(scale),
                        _ => 8 * scale,
                    });
                    complete_due(&mut pool, &mut promised, &mut rng, Some(now));
                    let work = Duration::from_micros(scale * (1 + rng.gen_range(4)));
                    promised.insert(id, pool.add(now, id, work));
                    queued += usize::from(pool.len() > servers);
                }
                complete_due(&mut pool, &mut promised, &mut rng, None);
                assert!(promised.is_empty() && pool.is_empty(), "seed {seed}");
            }
        }
        assert!(
            queued > 100_000,
            "only {queued} arrivals found the pool full"
        );
    }

    #[test]
    fn fifo_queues_beyond_servers() {
        let mut pool = FifoPool::new(1);
        pool.add(SimTime::ZERO, 1, Duration::from_millis(5));
        pool.add(SimTime::ZERO, 2, Duration::from_millis(5));
        let (t1, id1) = pool.next_completion().unwrap();
        assert_eq!((t1.as_millis(), id1), (5, 1));
        pool.complete(t1, 1);
        let (t2, id2) = pool.next_completion().unwrap();
        assert_eq!((t2.as_millis(), id2), (10, 2));
        pool.complete(t2, 2);
        assert!(pool.is_empty());
    }

    #[test]
    fn fifo_parallel_servers() {
        let mut pool = FifoPool::new(2);
        pool.add(SimTime::ZERO, 1, Duration::from_millis(5));
        pool.add(SimTime::ZERO, 2, Duration::from_millis(3));
        let (t, id) = pool.next_completion().unwrap();
        assert_eq!((t.as_millis(), id), (3, 2));
    }
}
