//! SLO evaluation on virtual time: error budgets and multi-window burn
//! rates.
//!
//! [`SloFold`] collects a scenario's completed requests as their timelines
//! close ([`evaluate`] drives it over a recorded trace; latency measured
//! arrival → completion, exactly like the driver's `request_latency`
//! histogram) against an [`SloPolicy`]: a latency threshold, an objective
//! (the fraction of requests that must meet it), and a set of trailing
//! windows. The report carries total/good/bad counts, the consumed error
//! budget, and — per window — the *maximum* burn rate any window-sized
//! slice of the run reached, the multi-window alerting signal of classic
//! SRE practice transplanted onto the simulation's virtual clock. All
//! rates are integer basis points, so rendered reports stay byte-stable.

use beehive_sim::json::Json;
use beehive_sim::{Duration, SimTime};
use beehive_telemetry::summary::{for_each_timeline, RequestTimeline};
use beehive_telemetry::{EventName, Trace};

/// One service-level objective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloPolicy {
    /// A request is *good* when its latency is at or under this threshold.
    pub threshold: Duration,
    /// Required good fraction, in basis points (9_900 = 99.00%). Must be
    /// below 10_000 so the error budget is non-empty.
    pub objective_bp: u32,
    /// Trailing windows to compute maximum burn rates over.
    pub windows: Vec<Duration>,
}

impl Default for SloPolicy {
    /// 500 ms p99-style objective (99% of requests under 500 ms) with
    /// 1 s / 5 s / 30 s burn windows — sized for the paper's burst
    /// scenarios, whose quick horizons are tens of seconds.
    fn default() -> SloPolicy {
        SloPolicy {
            threshold: Duration::from_millis(500),
            objective_bp: 9_900,
            windows: vec![
                Duration::from_secs(1),
                Duration::from_secs(5),
                Duration::from_secs(30),
            ],
        }
    }
}

/// Burn rate cap: rates render as `min(rate, 1000.0)`× budget, expressed
/// in basis points of the budget-burn ratio (10_000 bp = burning exactly
/// the budget). Keeps a scenario with a zero-width budget from rendering
/// astronomically.
pub const BURN_CAP_BP: u64 = 10_000_000;

/// The evaluation outcome for one scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloReport {
    /// Scenario label.
    pub label: String,
    /// The policy's threshold in nanoseconds.
    pub threshold_ns: u64,
    /// The policy's objective in basis points.
    pub objective_bp: u32,
    /// Completed requests evaluated.
    pub total: u64,
    /// Requests at or under the threshold.
    pub good: u64,
    /// Requests over the threshold.
    pub bad: u64,
    /// Consumed error budget in basis points of the allowed bad count
    /// (10_000 = the whole budget is gone), capped at [`BURN_CAP_BP`].
    pub budget_consumed_bp: u64,
    /// `(window_ns, max_burn_bp)` per policy window: the worst
    /// window-sized slice's bad fraction over the budget fraction, in
    /// basis points, capped at [`BURN_CAP_BP`].
    pub burn: Vec<(u64, u64)>,
}

impl SloReport {
    /// `true` when the whole-run good fraction meets the objective.
    pub fn met(&self) -> bool {
        // good/total >= objective  ⇔  good * 10_000 >= objective * total,
        // kept in integers (vacuously met with no traffic).
        self.good as u128 * 10_000 >= self.objective_bp as u128 * self.total as u128
    }

    /// JSON shape (round-trips through [`SloReport::from_json`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label".into(), Json::from(self.label.clone())),
            ("threshold_ns".into(), Json::Int(self.threshold_ns as i128)),
            ("objective_bp".into(), Json::Int(self.objective_bp as i128)),
            ("total".into(), Json::Int(self.total as i128)),
            ("good".into(), Json::Int(self.good as i128)),
            ("bad".into(), Json::Int(self.bad as i128)),
            ("met".into(), Json::from(self.met())),
            (
                "budget_consumed_bp".into(),
                Json::Int(self.budget_consumed_bp as i128),
            ),
            (
                "burn".into(),
                Json::Arr(
                    self.burn
                        .iter()
                        .map(|(w, b)| {
                            Json::obj([
                                ("window_ns".into(), Json::Int(*w as i128)),
                                ("max_burn_bp".into(), Json::Int(*b as i128)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Strict inverse of [`SloReport::to_json`] (the derived `met` field is
    /// recomputed, not trusted).
    pub fn from_json(j: &Json) -> Result<SloReport, String> {
        let mut burn = Vec::new();
        for item in j.arr_field("burn")? {
            burn.push((item.field("window_ns")?, item.field("max_burn_bp")?));
        }
        Ok(SloReport {
            label: j.field("label")?,
            threshold_ns: j.field("threshold_ns")?,
            objective_bp: j.field("objective_bp")?,
            total: j.field("total")?,
            good: j.field("good")?,
            bad: j.field("bad")?,
            budget_consumed_bp: j.field("budget_consumed_bp")?,
            burn,
        })
    }
}

/// `bad/total` over the budget fraction `1 - objective`, in basis points,
/// capped. Integer arithmetic throughout: burn_bp =
/// `bad * 10_000² / (total * (10_000 - objective_bp))`.
fn burn_bp(bad: u64, total: u64, objective_bp: u32) -> u64 {
    if total == 0 {
        return 0;
    }
    let budget = 10_000u128.saturating_sub(objective_bp as u128);
    if budget == 0 {
        return if bad > 0 { BURN_CAP_BP } else { 0 };
    }
    let bp = (bad as u128 * 10_000 * 10_000) / (total as u128 * budget);
    (bp as u64).min(BURN_CAP_BP)
}

/// One scenario's [`SloReport`] as a fold over its request timelines, in any
/// order: all it keeps is each completed request's completion time and
/// latency.
pub struct SloFold {
    policy: SloPolicy,
    /// `(completion time, latency_ns)` per completed request.
    done: Vec<(SimTime, u64)>,
}

impl SloFold {
    /// A fold evaluating against `policy`.
    pub fn new(policy: SloPolicy) -> Self {
        let done = Vec::new();
        SloFold { policy, done }
    }

    /// Take one request, when it is a completed `req:server` / `req:offload`
    /// session. Its latency runs from [`RequestTimeline::arrival`], so it is
    /// the driver's: `beehive-workload`'s `metrics_fold` test checks `total`
    /// against the driver's samples and the `request_latency` histogram.
    pub fn request(&mut self, t: &RequestTimeline) {
        let (Some(kind), Some(end), Some(arrival)) = (t.kind, t.end, t.arrival) else {
            return;
        };
        if !matches!(kind, EventName::ReqServer | EventName::ReqOffload) {
            return;
        }
        let latency = end.saturating_since(arrival).as_nanos();
        self.done.push((end, latency));
    }

    /// The scenario's report.
    pub fn finish(self, label: &str) -> SloReport {
        let SloFold { policy, mut done } = self;
        done.sort();

        let threshold_ns = policy.threshold.as_nanos();
        let total = done.len() as u64;
        let bad = done.iter().filter(|&&(_, ns)| ns > threshold_ns).count() as u64;
        let good = total - bad;

        // Whole-run budget: allowed bad = total * (1 - objective); consumed =
        // bad / allowed, in basis points.
        let budget_consumed_bp = burn_bp(bad, total, policy.objective_bp);

        // Per window, the maximum burn over every trailing window ending at a
        // completion instant (two pointers over the sorted completions).
        let burn = policy
            .windows
            .iter()
            .map(|w| {
                let w_ns = w.as_nanos();
                let mut lo = 0usize;
                let mut bad_w = 0u64;
                let mut max_bp = 0u64;
                for hi in 0..done.len() {
                    if done[hi].1 > threshold_ns {
                        bad_w += 1;
                    }
                    // Trailing window (end - w, end]: evict completions at or
                    // before the window's left edge.
                    let left = done[hi].0.saturating_since(SimTime::ZERO).as_nanos();
                    while done[lo].0.saturating_since(SimTime::ZERO).as_nanos() + w_ns <= left {
                        if done[lo].1 > threshold_ns {
                            bad_w -= 1;
                        }
                        lo += 1;
                    }
                    let in_window = (hi - lo + 1) as u64;
                    max_bp = max_bp.max(burn_bp(bad_w, in_window, policy.objective_bp));
                }
                (w_ns, max_bp)
            })
            .collect();

        SloReport {
            label: label.to_string(),
            threshold_ns,
            objective_bp: policy.objective_bp,
            total,
            good,
            bad,
            budget_consumed_bp,
            burn,
        }
    }
}

/// Evaluate one labelled trace against a policy.
pub fn evaluate(policy: &SloPolicy, label: &str, trace: &Trace) -> SloReport {
    let mut fold = SloFold::new(policy.clone());
    for_each_timeline(trace, |t| fold.request(&t));
    fold.finish(label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_telemetry::{EventKind, TraceEvent, Track};

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    /// `n` requests completing 1 s apart; the first `slow` of them take
    /// 600 ms (over the default 500 ms threshold), the rest 100 ms.
    fn trace(n: u64, slow: u64) -> Trace {
        let mut events = Vec::new();
        for rid in 0..n {
            let latency = if rid < slow { 600 } else { 100 };
            let end = (rid + 1) * 1_000;
            events.push(TraceEvent::new(
                at_ms(end - latency),
                Track::Request(rid),
                "req:server",
                EventKind::Begin,
                &[],
            ));
            events.push(TraceEvent::new(
                at_ms(end),
                Track::Request(rid),
                "req:server",
                EventKind::End,
                &[],
            ));
        }
        Trace { events }
    }

    #[test]
    fn counts_budget_and_met_flag() {
        let policy = SloPolicy::default();
        // 100 requests, 1 slow: exactly at the 99% objective.
        let r = evaluate(&policy, "s", &trace(100, 1));
        assert_eq!((r.total, r.good, r.bad), (100, 99, 1));
        assert!(r.met());
        // Budget is 1% of 100 = 1 request; one bad request consumed it all.
        assert_eq!(r.budget_consumed_bp, 10_000);
        // 3 slow: objective missed, budget 3× overspent.
        let r = evaluate(&policy, "s", &trace(100, 3));
        assert!(!r.met());
        assert_eq!(r.budget_consumed_bp, 30_000);
        // No traffic: vacuously met, nothing burned.
        let r = evaluate(&policy, "s", &trace(0, 0));
        assert!(r.met());
        assert_eq!(r.budget_consumed_bp, 0);
    }

    #[test]
    fn boot_wait_counts_toward_the_slo_latency() {
        // 400 ms session + 200 ms boot wait: over the 500 ms threshold.
        let mut events = vec![
            TraceEvent::new(
                at_ms(200),
                Track::Request(1),
                "req:offload",
                EventKind::Begin,
                &[],
            ),
            TraceEvent::new(
                at_ms(600),
                Track::Request(1),
                "req:offload",
                EventKind::End,
                &[],
            ),
        ];
        events.insert(
            1,
            TraceEvent::new(
                at_ms(200),
                Track::Request(1),
                "boot:wait",
                EventKind::Complete(Duration::from_millis(200)),
                &[],
            ),
        );
        let r = evaluate(&SloPolicy::default(), "s", &Trace { events });
        assert_eq!((r.total, r.bad), (1, 1));
    }

    #[test]
    fn short_windows_catch_bursts_the_full_run_hides() {
        let policy = SloPolicy {
            threshold: Duration::from_millis(500),
            objective_bp: 9_000, // 90%: budget fraction 10%
            windows: vec![Duration::from_secs(2), Duration::from_secs(3600)],
        };
        // 100 requests; the 2 slow ones complete back to back, so a 2 s
        // window sees 2 bad of 2 (burn 100%/10% = 10× = 100_000 bp) while
        // the hour window peaks right after the burst at 2 bad of 52
        // (3.846%/10% ≈ 0.38× = 3_846 bp).
        let mut events = Vec::new();
        for rid in 0..100u64 {
            let latency = if rid == 50 || rid == 51 { 600 } else { 100 };
            let end = (rid + 1) * 1_000;
            events.push(TraceEvent::new(
                at_ms(end - latency),
                Track::Request(rid),
                "req:server",
                EventKind::Begin,
                &[],
            ));
            events.push(TraceEvent::new(
                at_ms(end),
                Track::Request(rid),
                "req:server",
                EventKind::End,
                &[],
            ));
        }
        let r = evaluate(&policy, "s", &Trace { events });
        assert_eq!(r.burn[0].1, 100_000, "short window: {:?}", r.burn);
        assert_eq!(r.burn[1].1, 3_846, "long window: {:?}", r.burn);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = evaluate(&SloPolicy::default(), "s", &trace(20, 2));
        let rendered = r.to_json().render();
        let back = SloReport::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json().render(), rendered);
    }
}
