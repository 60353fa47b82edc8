//! Cross-run regression comparison of metrics snapshots.
//!
//! `repro diff BASELINE CURRENT` feeds two parsed [`MetricsSnapshot`]s
//! through [`compare`]: every watched metric (the [`WATCHED`] table) is
//! diffed per scenario, and a delta beyond the metric's declared tolerance
//! marks the run regressed. `scripts/verify.sh` runs this against the
//! checked-in golden baseline, turning the perf claims of the paper
//! reproduction into a gate instead of a graph someone has to eyeball.

use crate::registry::{MetricsSnapshot, ScenarioMetrics};

/// One watched metric: a name, the statistic compared, and the tolerated
/// relative increase (0.0 = any increase regresses).
#[derive(Clone, Copy, Debug)]
pub struct Watched {
    /// Metric name in the snapshot.
    pub metric: &'static str,
    /// `"total"` for counters, a quantile field for histograms.
    pub stat: &'static str,
    /// Tolerated relative increase over baseline (e.g. `0.10` = +10%).
    pub tolerance: f64,
}

/// The watched-metric table: request latency quantiles may grow 10%,
/// fallback and cold-boot counts not at all, total GC pause 10%. Chaos
/// runs additionally hold their fault counts exactly (the plans are
/// deterministic) and their recovery latency / re-executed time to 10%;
/// fault-free runs never record those metrics, so the entries bind
/// nothing there.
pub const WATCHED: [Watched; 10] = [
    Watched {
        metric: "request_latency",
        stat: "p50_ns",
        tolerance: 0.10,
    },
    Watched {
        metric: "request_latency",
        stat: "p99_ns",
        tolerance: 0.10,
    },
    Watched {
        metric: "fallbacks",
        stat: "total",
        tolerance: 0.0,
    },
    Watched {
        metric: "boots_cold",
        stat: "total",
        tolerance: 0.0,
    },
    Watched {
        metric: "gc_pause_ns",
        stat: "total",
        tolerance: 0.10,
    },
    Watched {
        metric: "crashes",
        stat: "total",
        tolerance: 0.0,
    },
    Watched {
        metric: "retries",
        stat: "total",
        tolerance: 0.0,
    },
    Watched {
        metric: "degraded_to_server",
        stat: "total",
        tolerance: 0.0,
    },
    Watched {
        metric: "recovery_latency",
        stat: "p99_ns",
        tolerance: 0.10,
    },
    Watched {
        metric: "re_executed_ns",
        stat: "total",
        tolerance: 0.10,
    },
];

/// One per-scenario, per-metric comparison outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    /// Scenario label.
    pub scenario: String,
    /// `metric.stat`, e.g. `"request_latency.p99_ns"`.
    pub metric: String,
    /// Baseline value (`None` when the baseline lacks the metric).
    pub baseline: Option<u64>,
    /// Current value (`None` when the current run lacks the metric).
    pub current: Option<u64>,
    /// Tolerated relative increase.
    pub tolerance: f64,
    /// `true` when the current value exceeds baseline × (1 + tolerance), or
    /// the metric/scenario disappeared.
    pub regressed: bool,
    /// `true` when the current value cleared the tolerance band *downward*:
    /// below baseline × (1 − tolerance), or simply below baseline for
    /// zero-tolerance metrics. Informational only — improvements never
    /// change the exit code, they just tell the reader a delta is a win
    /// rather than noise inside the band.
    pub improved: bool,
}

impl Delta {
    /// Relative change, `current / baseline - 1` (0 for 0→0).
    pub fn relative(&self) -> f64 {
        match (self.baseline, self.current) {
            (Some(0), Some(0)) => 0.0,
            (Some(0), Some(_)) => f64::INFINITY,
            (Some(b), Some(c)) => c as f64 / b as f64 - 1.0,
            _ => f64::NAN,
        }
    }
}

fn stat_of(s: &ScenarioMetrics, w: &Watched) -> Option<u64> {
    if w.stat == "total" {
        return s.counter(w.metric).map(|c| c.total);
    }
    let h = s.histogram(w.metric)?;
    match w.stat {
        "p50_ns" => Some(h.p50_ns),
        "p90_ns" => Some(h.p90_ns),
        "p99_ns" => Some(h.p99_ns),
        "max_ns" => Some(h.max_ns),
        "count" => Some(h.count),
        "sum_ns" => Some(h.sum_ns),
        _ => None,
    }
}

/// Diff every watched metric of `current` against `baseline`, scenario by
/// scenario (matched by label). A scenario present in the baseline but
/// missing from the current run yields one regressed delta; scenarios only
/// in the current run are ignored (new coverage is not a regression).
pub fn compare(baseline: &MetricsSnapshot, current: &MetricsSnapshot) -> Vec<Delta> {
    let mut out = Vec::new();
    for base in &baseline.scenarios {
        let Some(cur) = current.scenarios.iter().find(|s| s.label == base.label) else {
            out.push(Delta {
                scenario: base.label.clone(),
                metric: "(scenario)".to_string(),
                baseline: None,
                current: None,
                tolerance: 0.0,
                regressed: true,
                improved: false,
            });
            continue;
        };
        for w in &WATCHED {
            let b = stat_of(base, w);
            let c = stat_of(cur, w);
            let regressed = match (b, c) {
                (None, _) => false, // baseline never recorded it: nothing to hold
                (Some(_), None) => true,
                (Some(b), Some(c)) => c as f64 > b as f64 * (1.0 + w.tolerance),
            };
            // The mirror image of the regression rule: strictly below the
            // lower edge of the tolerance band (strictly below baseline for
            // zero-tolerance metrics, where the band has no width).
            let improved = match (b, c) {
                (Some(b), Some(c)) => (c as f64) < b as f64 * (1.0 - w.tolerance),
                _ => false,
            };
            if b.is_none() && c.is_none() {
                continue;
            }
            out.push(Delta {
                scenario: base.label.clone(),
                metric: format!("{}.{}", w.metric, w.stat),
                baseline: b,
                current: c,
                tolerance: w.tolerance,
                regressed,
                improved,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Registry, DEFAULT_WINDOW};
    use beehive_sim::{Duration, SimTime};

    fn snap(p99_ms: u64, fallbacks: u64) -> MetricsSnapshot {
        let mut r = Registry::new(DEFAULT_WINDOW);
        let at = SimTime::ZERO + Duration::from_millis(1);
        for _ in 0..90 {
            r.observe("request_latency", at, Duration::from_millis(1));
        }
        for _ in 0..10 {
            r.observe("request_latency", at, Duration::from_millis(p99_ms));
        }
        if fallbacks > 0 {
            r.add("fallbacks", at, fallbacks);
        }
        MetricsSnapshot {
            window: DEFAULT_WINDOW,
            scenarios: vec![r.snapshot("s")],
        }
    }

    #[test]
    fn identical_snapshots_do_not_regress() {
        let a = snap(50, 2);
        let deltas = compare(&a, &a.clone());
        assert!(!deltas.is_empty());
        assert!(deltas.iter().all(|d| !d.regressed), "{deltas:?}");
    }

    #[test]
    fn perturbed_p99_regresses_and_names_the_metric() {
        let deltas = compare(&snap(50, 2), &snap(100, 2));
        let bad: Vec<&Delta> = deltas.iter().filter(|d| d.regressed).collect();
        assert!(!bad.is_empty());
        assert!(bad.iter().any(|d| d.metric == "request_latency.p99_ns"));
    }

    #[test]
    fn zero_tolerance_counters_hold_exactly() {
        let deltas = compare(&snap(50, 2), &snap(50, 3));
        assert!(deltas
            .iter()
            .any(|d| d.metric == "fallbacks.total" && d.regressed));
        // Within 10% latency tolerance nothing else fires.
        assert!(deltas
            .iter()
            .all(|d| d.regressed == (d.metric == "fallbacks.total")));
    }

    #[test]
    fn exactly_at_tolerance_passes_and_one_past_it_regresses() {
        fn gc(total_ns: u64) -> MetricsSnapshot {
            let mut r = Registry::new(DEFAULT_WINDOW);
            r.add("gc_pause_ns", SimTime::ZERO, total_ns);
            MetricsSnapshot {
                window: DEFAULT_WINDOW,
                scenarios: vec![r.snapshot("s")],
            }
        }
        let base = gc(1_000_000);
        // gc_pause_ns tolerates +10%: exactly baseline × 1.1 is *within*
        // tolerance (the rule is strictly-greater-than)…
        let at = compare(&base, &gc(1_100_000));
        let d = at.iter().find(|d| d.metric == "gc_pause_ns.total").unwrap();
        assert!(!d.regressed, "exactly +10% must pass: {d:?}");
        // …and the smallest representable step past it regresses.
        let over = compare(&base, &gc(1_100_001));
        let d = over
            .iter()
            .find(|d| d.metric == "gc_pause_ns.total")
            .unwrap();
        assert!(d.regressed, "one nanosecond past +10% must fail: {d:?}");
        // Zero tolerance: equal holds, the smallest increase regresses.
        let deltas = compare(&snap(50, 2), &snap(50, 2));
        let d = deltas
            .iter()
            .find(|d| d.metric == "fallbacks.total")
            .unwrap();
        assert!(!d.regressed);
    }

    #[test]
    fn metric_missing_from_current_is_reported_by_name() {
        // Baseline recorded fallbacks; the current run lacks the counter
        // entirely. The delta must name the metric and regress.
        let deltas = compare(&snap(50, 2), &snap(50, 0));
        let d = deltas
            .iter()
            .find(|d| d.metric == "fallbacks.total")
            .expect("the vanished metric is reported by name");
        assert_eq!(d.baseline, Some(2));
        assert_eq!(d.current, None);
        assert!(d.regressed);
        // The converse direction is not a regression: a metric the baseline
        // never recorded imposes no bound on the current run.
        let deltas = compare(&snap(50, 0), &snap(50, 2));
        assert!(deltas
            .iter()
            .all(|d| d.metric != "fallbacks.total" || !d.regressed));
    }

    #[test]
    fn improvements_are_flagged_without_regressing() {
        // p99 halves: well below baseline × 0.9, so the delta is an
        // improvement — and still not a regression.
        let deltas = compare(&snap(100, 2), &snap(50, 2));
        let d = deltas
            .iter()
            .find(|d| d.metric == "request_latency.p99_ns")
            .unwrap();
        assert!(d.improved && !d.regressed, "{d:?}");
        // A zero-tolerance counter improves on any strict decrease…
        let d = deltas.iter().find(|d| d.metric == "fallbacks.total");
        assert!(d.is_none() || !d.unwrap().improved);
        let deltas = compare(&snap(50, 3), &snap(50, 2));
        let d = deltas
            .iter()
            .find(|d| d.metric == "fallbacks.total")
            .unwrap();
        assert!(d.improved && !d.regressed, "{d:?}");
        // …and an unchanged run improves nothing.
        let a = snap(50, 2);
        let deltas = compare(&a, &a.clone());
        assert!(deltas.iter().all(|d| !d.improved), "{deltas:?}");
        // Inside the tolerance band (−10% exactly is *not* strictly below
        // the lower edge) a shrink is neither regression nor improvement.
        fn gc(total_ns: u64) -> MetricsSnapshot {
            let mut r = Registry::new(DEFAULT_WINDOW);
            r.add("gc_pause_ns", SimTime::ZERO, total_ns);
            MetricsSnapshot {
                window: DEFAULT_WINDOW,
                scenarios: vec![r.snapshot("s")],
            }
        }
        let deltas = compare(&gc(1_000_000), &gc(900_000));
        let d = deltas
            .iter()
            .find(|d| d.metric == "gc_pause_ns.total")
            .unwrap();
        assert!(!d.improved && !d.regressed, "{d:?}");
        let deltas = compare(&gc(1_000_000), &gc(899_999));
        let d = deltas
            .iter()
            .find(|d| d.metric == "gc_pause_ns.total")
            .unwrap();
        assert!(d.improved, "{d:?}");
    }

    #[test]
    fn missing_scenario_is_a_regression() {
        let mut cur = snap(50, 2);
        cur.scenarios[0].label = "renamed".to_string();
        let deltas = compare(&snap(50, 2), &cur);
        assert!(deltas
            .iter()
            .any(|d| d.metric == "(scenario)" && d.regressed));
    }
}
