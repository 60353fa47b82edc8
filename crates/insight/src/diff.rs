//! Regression root-cause diagnosis: turn a watched-metric delta into a
//! named cause.
//!
//! `repro diff BASELINE CURRENT` compares two artifact directories with the
//! ordinary watched-metric gate, then calls [`diagnose`] for every
//! regressed *latency* metric: the dominant attribution-component growth
//! between the two runs' [`AttributionReport`]s, the watched counters that
//! moved with it, and (when folded profiles are available) the profiler
//! frame whose self time grew the most. The output reads like
//! `p99 +12.3% — 83% of component growth from boot_wait (+1.2ms/req);
//! boots_cold +9; hottest growth [fallback:data] (+456µs)`.

use std::collections::BTreeMap;

use beehive_metrics::{Delta, ScenarioMetrics};

use crate::attribution::{AttributionReport, Component};

/// Counters worth naming next to a latency regression, in report order.
const DIAGNOSTIC_COUNTERS: [&str; 9] = [
    "boots_cold",
    "boots_warm",
    "fallbacks",
    "crashes",
    "retries",
    "degraded_to_server",
    "recoveries",
    "requests_offloaded",
    "gc_pause_ns",
];

/// The diagnosis attached to one regressed latency delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnosis {
    /// Scenario label.
    pub scenario: String,
    /// The regressed metric, e.g. `"request_latency.p99_ns"`.
    pub metric: String,
    /// Component with the largest per-request mean growth.
    pub dominant: Component,
    /// Its per-request mean growth in nanoseconds.
    pub dominant_delta_ns: i64,
    /// Its share of all positive per-request component growth, in percent
    /// (0–100).
    pub share_pct: u8,
    /// Watched counters that changed, `(name, current − baseline)`.
    pub counters: Vec<(String, i64)>,
    /// Profiler frame with the largest self-time growth, when folded
    /// profiles were available: `(frame, nanos grown)`.
    pub hottest_frame: Option<(String, u64)>,
}

impl Diagnosis {
    /// The one-line human rendering `repro diff` prints.
    pub fn render(&self) -> String {
        let mut out = if self.dominant_delta_ns > 0 {
            format!(
                "{}% of component growth from {} ({:+}us/req)",
                self.share_pct,
                self.dominant.name(),
                self.dominant_delta_ns / 1_000,
            )
        } else {
            // A quantile regressed while no per-request mean component grew:
            // the tail redistributed without the average moving.
            "no mean component growth (tail-only shift)".to_string()
        };
        for (name, delta) in &self.counters {
            out.push_str(&format!("; {name} {delta:+}"));
        }
        if let Some((frame, grown)) = &self.hottest_frame {
            out.push_str(&format!("; hottest growth {frame} (+{}us)", grown / 1_000));
        }
        out
    }
}

/// Per-request mean of every component, in nanoseconds. Wide enough that
/// deltas, their sum and the share arithmetic cannot overflow.
fn means(r: &AttributionReport) -> [i128; crate::attribution::COMPONENTS] {
    let mut out = [0i128; crate::attribution::COMPONENTS];
    for c in Component::ALL {
        out[c as usize] = r.mean_ns(c).into();
    }
    out
}

/// `v` clamped into `i64`.
fn saturate(v: i128) -> i64 {
    v.clamp(i64::MIN.into(), i64::MAX.into()) as i64
}

/// Diagnose one regressed latency delta from the two runs' attribution
/// reports (matched by scenario label), metrics, and optional folded
/// profiles. `None` when either side lacks an attribution report for the
/// scenario or attributed no requests.
pub fn diagnose(
    delta: &Delta,
    base: Option<&AttributionReport>,
    cur: Option<&AttributionReport>,
    base_metrics: Option<&ScenarioMetrics>,
    cur_metrics: Option<&ScenarioMetrics>,
    folded: Option<(&str, &str)>,
) -> Option<Diagnosis> {
    let (base, cur) = (base?, cur?);
    if base.requests == 0 || cur.requests == 0 {
        return None;
    }
    let (bm, cm) = (means(base), means(cur));
    // Dominant growth: largest positive per-request mean delta; canonical
    // component order breaks ties.
    let mut dominant = Component::ServerAssist;
    let mut dominant_delta = i128::MIN;
    let mut positive_sum = 0i128;
    for c in Component::ALL {
        let d = cm[c as usize] - bm[c as usize];
        if d > 0 {
            positive_sum += d;
        }
        if d > dominant_delta {
            dominant = c;
            dominant_delta = d;
        }
    }
    let share_pct = if positive_sum > 0 && dominant_delta > 0 {
        ((dominant_delta * 100 + positive_sum / 2) / positive_sum).clamp(0, 100) as u8
    } else {
        0
    };

    let counters = match (base_metrics, cur_metrics) {
        (Some(b), Some(c)) => counter_deltas(b, c),
        _ => Vec::new(),
    };

    let hottest_frame = folded.and_then(|(b, c)| hottest_frame_growth(b, c, &delta.scenario));

    Some(Diagnosis {
        scenario: delta.scenario.clone(),
        metric: delta.metric.clone(),
        dominant,
        dominant_delta_ns: saturate(dominant_delta),
        share_pct,
        counters,
        hottest_frame,
    })
}

/// Changed diagnostic counters, `(name, current − baseline)`, fixed order.
pub(crate) fn counter_deltas(base: &ScenarioMetrics, cur: &ScenarioMetrics) -> Vec<(String, i64)> {
    DIAGNOSTIC_COUNTERS
        .iter()
        .filter_map(|&name| {
            let b = i128::from(base.counter(name).map_or(0, |c| c.total));
            let c = i128::from(cur.counter(name).map_or(0, |c| c.total));
            (b != c).then(|| (name.to_string(), saturate(c - b)))
        })
        .collect()
}

/// Leaf-frame self time per scenario from a `repro --profile` folded file:
/// lines are `label;frame;...;leaf count`, label sanitized the way the
/// bench writer does (spaces and `;` become `_`).
fn leaf_self_times(folded: &str, label: &str) -> Option<BTreeMap<String, u64>> {
    let sanitized: String = label
        .chars()
        .map(|c| if c == ' ' || c == ';' { '_' } else { c })
        .collect();
    let stacks = beehive_profiler::parse_folded(folded).ok()?;
    let mut out = BTreeMap::new();
    for (frames, count) in stacks {
        if frames.first().map(String::as_str) != Some(sanitized.as_str()) {
            continue;
        }
        let Some(leaf) = frames.last() else { continue };
        let total = out.entry(leaf.clone()).or_insert(0u64);
        *total = total.saturating_add(count);
    }
    Some(out)
}

/// The frame whose self time grew the most between two folded profiles,
/// restricted to `label`'s stacks. `None` when nothing grew or either
/// profile is missing/unparseable. Ties break on the lexicographically
/// smaller frame so the answer is deterministic.
pub(crate) fn hottest_frame_growth(
    base_folded: &str,
    cur_folded: &str,
    label: &str,
) -> Option<(String, u64)> {
    let base = leaf_self_times(base_folded, label)?;
    let cur = leaf_self_times(cur_folded, label)?;
    let mut best: Option<(String, u64)> = None;
    for (frame, &ns) in &cur {
        let grown = ns.saturating_sub(base.get(frame).copied().unwrap_or(0));
        if grown == 0 {
            continue;
        }
        let better = match &best {
            None => true,
            Some((bf, bg)) => grown > *bg || (grown == *bg && frame < bf),
        };
        if better {
            best = Some((frame.clone(), grown));
        }
    }
    best
}

/// `true` when a watched-metric delta is a latency quantile worth
/// diagnosing (as opposed to an exact-count gate).
pub fn is_latency_metric(metric: &str) -> bool {
    metric.ends_with(".p50_ns") || metric.ends_with(".p99_ns") || metric.ends_with(".max_ns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::COMPONENTS;
    use beehive_metrics::registry::Registry;
    use beehive_metrics::DEFAULT_WINDOW;
    use beehive_sim::SimTime;

    fn report(requests: u64, fill: &[(Component, u64)]) -> AttributionReport {
        let mut components = [0u64; COMPONENTS];
        let mut total = 0;
        for &(c, ns) in fill {
            components[c as usize] = ns;
            total += ns;
        }
        AttributionReport {
            label: "s".into(),
            requests,
            shadows: 0,
            total_ns: total,
            components,
            gc_pause_ns: 0,
            slowest: vec![],
        }
    }

    fn delta() -> Delta {
        Delta {
            scenario: "s".into(),
            metric: "request_latency.p99_ns".into(),
            baseline: Some(100),
            current: Some(200),
            tolerance: 0.10,
            regressed: true,
            improved: false,
        }
    }

    #[test]
    fn names_the_dominant_component_and_its_share() {
        // Per request: boot_wait grows 0 → 5µs, exec grows 1µs; boot wait
        // explains 5/6 ≈ 83% of the growth.
        let base = report(10, &[(Component::FaasExec, 10_000 * 10)]);
        let cur = report(
            10,
            &[
                (Component::FaasExec, 11_000 * 10),
                (Component::BootWait, 5_000 * 10),
            ],
        );
        let d = diagnose(&delta(), Some(&base), Some(&cur), None, None, None).unwrap();
        assert_eq!(d.dominant, Component::BootWait);
        assert_eq!(d.dominant_delta_ns, 5_000);
        assert_eq!(d.share_pct, 83);
        assert!(d
            .render()
            .contains("83% of component growth from boot_wait"));
        assert!(d.render().contains("+5us/req"));
    }

    #[test]
    fn counter_deltas_name_what_moved() {
        let mut b = Registry::new(DEFAULT_WINDOW);
        b.add("boots_cold", SimTime::ZERO, 1);
        b.add("fallbacks", SimTime::ZERO, 7);
        let mut c = Registry::new(DEFAULT_WINDOW);
        c.add("boots_cold", SimTime::ZERO, 10);
        c.add("fallbacks", SimTime::ZERO, 7);
        let deltas = counter_deltas(&b.snapshot("s"), &c.snapshot("s"));
        assert_eq!(deltas, vec![("boots_cold".to_string(), 9)]);
    }

    #[test]
    fn huge_component_growth_keeps_its_share_and_its_name() {
        let base = report(1, &[(Component::FaasExec, 10_000)]);
        // 5e17 ns: the share's `delta * 100` no longer fits an i64.
        let cur = report(
            1,
            &[
                (Component::FaasExec, 10_000),
                (Component::BootWait, 500_000_000_000_000_000),
            ],
        );
        let d = diagnose(&delta(), Some(&base), Some(&cur), None, None, None).unwrap();
        assert_eq!((d.dominant, d.share_pct), (Component::BootWait, 100));
        assert!(d
            .render()
            .starts_with("100% of component growth from boot_wait"));
        // 1.8e19 ns: the mean itself no longer fits an i64.
        let cur = report(
            1,
            &[
                (Component::FaasExec, 10_000),
                (Component::BootWait, 18_000_000_000_000_000_000),
            ],
        );
        let d = diagnose(&delta(), Some(&base), Some(&cur), None, None, None).unwrap();
        assert_eq!((d.dominant, d.share_pct), (Component::BootWait, 100));
        assert_eq!(d.dominant_delta_ns, i64::MAX);
    }

    #[test]
    fn counter_deltas_saturate_instead_of_wrapping() {
        let b = Registry::new(DEFAULT_WINDOW);
        let mut c = Registry::new(DEFAULT_WINDOW);
        c.add("boots_cold", SimTime::ZERO, u64::MAX);
        let (b, c) = (b.snapshot("s"), c.snapshot("s"));
        assert_eq!(
            counter_deltas(&b, &c),
            vec![("boots_cold".to_string(), i64::MAX)]
        );
        assert_eq!(
            counter_deltas(&c, &b),
            vec![("boots_cold".to_string(), -i64::MAX - 1)]
        );
    }

    #[test]
    fn leaf_self_times_saturate() {
        let folded = "s;lane;f 18446744073709551615\ns;lane;g;f 18446744073709551615\n";
        let times = leaf_self_times(folded, "s").unwrap();
        assert_eq!(times["f"], u64::MAX);
    }

    #[test]
    fn hottest_frame_growth_is_per_label_and_deterministic() {
        let base = "s;lane;[fallback:data] 100\ns;lane;work 500\nother;lane;work 9000\n";
        let cur = "s;lane;[fallback:data] 700\ns;lane;work 600\nother;lane;work 9000\n";
        let (frame, grown) = hottest_frame_growth(base, cur, "s").unwrap();
        assert_eq!(frame, "[fallback:data]");
        assert_eq!(grown, 600);
        // The other label's stacks never contaminate; no growth → None.
        assert_eq!(hottest_frame_growth(cur, cur, "s"), None);
        // Labels with spaces are matched through the writer's sanitization.
        let spaced_base = "a_b;lane;f 10\n";
        let spaced_cur = "a_b;lane;f 30\n";
        assert_eq!(
            hottest_frame_growth(spaced_base, spaced_cur, "a b"),
            Some(("f".to_string(), 20))
        );
    }

    #[test]
    fn degenerate_inputs_yield_no_diagnosis() {
        let empty = report(0, &[]);
        let full = report(5, &[(Component::ServerExec, 5_000)]);
        assert!(diagnose(&delta(), Some(&empty), Some(&full), None, None, None).is_none());
        assert!(diagnose(&delta(), None, Some(&full), None, None, None).is_none());
        // A diff where nothing grew per request (a pure tail shift) says so
        // instead of pretending a zero-delta component is the cause.
        let d = diagnose(&delta(), Some(&full), Some(&full), None, None, None).unwrap();
        assert_eq!(d.share_pct, 0);
        assert!(d.render().contains("tail-only shift"));
    }

    #[test]
    fn latency_metric_filter() {
        assert!(is_latency_metric("request_latency.p99_ns"));
        assert!(is_latency_metric("recovery_latency.p99_ns"));
        assert!(!is_latency_metric("fallbacks.total"));
    }
}
