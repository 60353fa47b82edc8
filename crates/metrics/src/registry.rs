//! The deterministic metric registry and its snapshot document.
//!
//! A [`Registry`] belongs to one simulation: the metrics fold
//! ([`crate::MetricsFold`]) feeds it counters, gauges and histogram
//! observations stamped with the virtual clock, and
//! [`Registry::snapshot`] freezes it into a [`ScenarioMetrics`] — plain
//! owned data that renders through `beehive_sim::json` and parses back with
//! [`MetricsSnapshot::parse`]. Metric names iterate in `BTreeMap` order
//! and window indices in ascending order, so rendering is byte-stable for a
//! fixed seed at any worker count.

use std::collections::BTreeMap;

use beehive_sim::json::{FromJson, Json, ToJson};
use beehive_sim::{json_record, Duration, SimTime};

use crate::hist::LogLinearHistogram;

/// The default time-series window: one second of virtual time.
pub const DEFAULT_WINDOW: Duration = Duration::from_secs(1);

/// How many slowest-observation exemplars a histogram keeps.
pub const EXEMPLAR_K: usize = 5;

#[derive(Debug, Default)]
struct CounterState {
    total: u64,
    windows: BTreeMap<u64, u64>,
}

#[derive(Debug, Default)]
struct GaugeState {
    last: i64,
    windows: BTreeMap<u64, i64>,
}

/// A per-simulation metric registry on the virtual clock.
#[derive(Debug)]
pub struct Registry {
    window: Duration,
    counters: BTreeMap<&'static str, CounterState>,
    gauges: BTreeMap<&'static str, GaugeState>,
    hists: BTreeMap<&'static str, LogLinearHistogram>,
    /// Slowest-K `(nanos, request id)` exemplars per histogram, kept sorted
    /// by duration descending, ties by ascending id — a total order, so the
    /// list is identical however completions interleave.
    exemplars: BTreeMap<&'static str, Vec<(u64, u64)>>,
}

impl Registry {
    /// A registry bucketing its time series into `window`-sized windows.
    ///
    /// # Panics
    ///
    /// Panics on a zero window.
    pub fn new(window: Duration) -> Registry {
        assert!(!window.is_zero(), "metrics window must be non-zero");
        Registry {
            window,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            exemplars: BTreeMap::new(),
        }
    }

    /// The window size.
    pub fn window(&self) -> Duration {
        self.window
    }

    fn widx(&self, at: SimTime) -> u64 {
        at.as_nanos() / self.window.as_nanos()
    }

    /// Add `delta` to counter `name` at virtual time `at`.
    pub fn add(&mut self, name: &'static str, at: SimTime, delta: u64) {
        let w = self.widx(at);
        let c = self.counters.entry(name).or_default();
        c.total += delta;
        *c.windows.entry(w).or_insert(0) += delta;
    }

    /// Set gauge `name` to `value` at virtual time `at` (the window keeps the
    /// last sample it saw).
    pub(crate) fn set_gauge(&mut self, name: &'static str, at: SimTime, value: i64) {
        let w = self.widx(at);
        let g = self.gauges.entry(name).or_default();
        g.last = value;
        g.windows.insert(w, value);
    }

    /// Record duration `d` into histogram `name` (timestamped observations;
    /// histograms aggregate over the whole run, not per window).
    pub fn observe(&mut self, name: &'static str, _at: SimTime, d: Duration) {
        self.hists.entry(name).or_default().record(d.as_nanos());
    }

    /// [`Registry::observe`] plus exemplar capture: `request` competes for
    /// the histogram's slowest-[`EXEMPLAR_K`] list, so an alarming quantile
    /// can be traced back to concrete request ids.
    pub(crate) fn observe_exemplar(&mut self, name: &'static str, d: Duration, request: u64) {
        self.hists.entry(name).or_default().record(d.as_nanos());
        let ex = self.exemplars.entry(name).or_default();
        ex.push((d.as_nanos(), request));
        ex.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ex.truncate(EXEMPLAR_K);
    }

    /// Freeze into the snapshot form under scenario `label`.
    pub fn snapshot(&self, label: &str) -> ScenarioMetrics {
        ScenarioMetrics {
            label: label.to_string(),
            counters: self
                .counters
                .iter()
                .map(|(&name, c)| CounterSeries {
                    name: name.to_string(),
                    total: c.total,
                    windows: c.windows.iter().map(|(&w, &v)| (w, v)).collect(),
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(&name, g)| GaugeSeries {
                    name: name.to_string(),
                    last: g.last,
                    windows: g.windows.iter().map(|(&w, &v)| (w, v)).collect(),
                })
                .collect(),
            histograms: self
                .hists
                .iter()
                .map(|(&name, h)| {
                    HistogramSummary::of(
                        name,
                        h,
                        self.exemplars.get(name).cloned().unwrap_or_default(),
                    )
                })
                .collect(),
        }
    }
}

json_record! {
    parse
    /// One counter's total plus its per-window sums.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct CounterSeries {
        /// Metric name.
        pub name: String,
        /// Sum over the whole run.
        pub total: u64,
        /// `(window index, sum within that window)`, ascending, empty windows
        /// omitted.
        pub windows: Vec<(u64, u64)>,
    }
}

json_record! {
    parse
    /// One gauge's final value plus the last sample of each window.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct GaugeSeries {
        /// Metric name.
        pub name: String,
        /// The last sample of the run.
        pub last: i64,
        /// `(window index, last sample in that window)`, ascending.
        pub windows: Vec<(u64, i64)>,
    }
}

/// One histogram's moments, quantiles and sparse buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations, nanoseconds.
    pub sum_ns: u64,
    /// Largest observation, nanoseconds.
    pub max_ns: u64,
    /// Median (bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile (bucket upper bound), nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile (bucket upper bound), nanoseconds.
    pub p99_ns: u64,
    /// Sparse `(bucket index, count)` pairs in the fixed log-linear layout.
    pub buckets: Vec<(u64, u64)>,
    /// Slowest-K `(nanos, request id)` exemplars, duration descending (ties
    /// by ascending id). Empty for histograms observed without ids; omitted
    /// from the JSON form when empty, so pre-exemplar documents still parse.
    pub exemplars: Vec<(u64, u64)>,
}

impl HistogramSummary {
    fn of(name: &str, h: &LogLinearHistogram, exemplars: Vec<(u64, u64)>) -> HistogramSummary {
        HistogramSummary {
            name: name.to_string(),
            count: h.count(),
            sum_ns: h.sum(),
            max_ns: h.max(),
            p50_ns: h.quantile(0.50),
            p90_ns: h.quantile(0.90),
            p99_ns: h.quantile(0.99),
            buckets: h.nonzero_buckets(),
            exemplars,
        }
    }
}

json_record! {
    parse
    /// Every metric of one scenario (one simulation run).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ScenarioMetrics {
        /// The scenario label (same label the engine attaches to traces).
        pub label: String,
        /// Counters, in name order.
        pub counters: Vec<CounterSeries>,
        /// Gauges, in name order.
        pub gauges: Vec<GaugeSeries>,
        /// Histograms, in name order.
        pub histograms: Vec<HistogramSummary>,
    }
}

impl ScenarioMetrics {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<&CounterSeries> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSeries> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// The exported metrics document: one entry per scenario, all sharing one
/// window size. This is what `repro --metrics DIR` writes per experiment as
/// `<item>.metrics.json`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Window size shared by every time series.
    pub window: Duration,
    /// Per-scenario metrics, in engine input order.
    pub scenarios: Vec<ScenarioMetrics>,
}

// Not records: a histogram omits `exemplars` when it has none (so
// pre-exemplar documents still parse, and the round trip stays exact), and
// the snapshot's `window` is a `Duration` rendered as `window_ns`.
impl ToJson for HistogramSummary {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".into(), self.name.to_json()),
            ("count".into(), self.count.to_json()),
            ("sum_ns".into(), self.sum_ns.to_json()),
            ("max_ns".into(), self.max_ns.to_json()),
            ("p50_ns".into(), self.p50_ns.to_json()),
            ("p90_ns".into(), self.p90_ns.to_json()),
            ("p99_ns".into(), self.p99_ns.to_json()),
            ("buckets".into(), self.buckets.to_json()),
        ];
        if !self.exemplars.is_empty() {
            fields.push(("exemplars".into(), self.exemplars.to_json()));
        }
        Json::Obj(fields)
    }
}

impl FromJson for HistogramSummary {
    fn from_json(j: &Json) -> Result<HistogramSummary, String> {
        Ok(HistogramSummary {
            name: j.field("name")?,
            count: j.field("count")?,
            sum_ns: j.field("sum_ns")?,
            max_ns: j.field("max_ns")?,
            p50_ns: j.field("p50_ns")?,
            p90_ns: j.field("p90_ns")?,
            p99_ns: j.field("p99_ns")?,
            buckets: j.field("buckets")?,
            exemplars: match j.get("exemplars") {
                Some(_) => j.field("exemplars")?,
                None => Vec::new(),
            },
        })
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("window_ns".into(), self.window.as_nanos().to_json()),
            ("scenarios".into(), self.scenarios.to_json()),
        ])
    }
}

impl FromJson for MetricsSnapshot {
    /// The inverse of `to_json().render()` up to exact equality (the
    /// determinism test asserts the round trip).
    fn from_json(j: &Json) -> Result<MetricsSnapshot, String> {
        Ok(MetricsSnapshot {
            window: Duration::from_nanos(j.field("window_ns")?),
            scenarios: j.field("scenarios")?,
        })
    }
}

impl MetricsSnapshot {
    /// Parse a rendered document (text → [`Json::parse`] → [`FromJson`]).
    pub fn parse(text: &str) -> Result<MetricsSnapshot, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&j)
    }

    /// Render the document (`to_json().render()`).
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn counters_window_and_total() {
        let mut r = Registry::new(Duration::from_secs(1));
        r.add("reqs", t(100), 1);
        r.add("reqs", t(900), 2);
        r.add("reqs", t(2_500), 1);
        let s = r.snapshot("x");
        let c = s.counter("reqs").unwrap();
        assert_eq!(c.total, 4);
        assert_eq!(c.windows, vec![(0, 3), (2, 1)]);
    }

    #[test]
    fn gauges_keep_last_sample_per_window() {
        let mut r = Registry::new(Duration::from_secs(1));
        r.set_gauge("load", t(100), 5);
        r.set_gauge("load", t(800), 9);
        r.set_gauge("load", t(1_200), 2);
        let s = r.snapshot("x");
        let g = s.gauge("load").unwrap();
        assert_eq!(g.last, 2);
        assert_eq!(g.windows, vec![(0, 9), (1, 2)]);
    }

    #[test]
    fn snapshot_orders_metrics_by_name() {
        let mut r = Registry::new(DEFAULT_WINDOW);
        r.add("zeta", t(0), 1);
        r.add("alpha", t(0), 1);
        let s = r.snapshot("x");
        let names: Vec<&str> = s.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut r = Registry::new(DEFAULT_WINDOW);
        r.add("boots_cold", t(10), 2);
        r.set_gauge("pool", t(20), -3);
        r.observe("lat", t(30), Duration::from_millis(7));
        r.observe("lat", t(40), Duration::from_micros(9));
        let snap = MetricsSnapshot {
            window: DEFAULT_WINDOW,
            scenarios: vec![r.snapshot("BeeHive/OW"), r.snapshot("Vanilla")],
        };
        let text = snap.render();
        let back = MetricsSnapshot::parse(&text).expect("parses");
        assert_eq!(back, snap);
        assert_eq!(back.render(), text);

        // Seeded scenarios: any number of series, any magnitude, histograms
        // with and without exemplars.
        let mut rng = beehive_sim::Rng::new(0x3E7);
        let scenario = |rng: &mut beehive_sim::Rng| {
            let mut n = |max| 0..rng.gen_range(max);
            let (counters, gauges, histograms) = (n(4), n(4), n(4));
            let pairs = |rng: &mut beehive_sim::Rng| -> Vec<(u64, u64)> {
                (0..rng.gen_range(6))
                    .map(|_| (rng.next_u64(), rng.next_u64() >> rng.gen_range(64)))
                    .collect()
            };
            ScenarioMetrics {
                label: format!("s{}", rng.next_u64()),
                counters: counters
                    .map(|i| CounterSeries {
                        name: format!("c{i}"),
                        total: rng.next_u64(),
                        windows: pairs(rng),
                    })
                    .collect(),
                gauges: gauges
                    .map(|i| GaugeSeries {
                        name: format!("g{i}"),
                        last: rng.next_u64() as i64,
                        windows: pairs(rng).into_iter().map(|(w, v)| (w, v as i64)).collect(),
                    })
                    .collect(),
                histograms: histograms
                    .map(|i| HistogramSummary {
                        name: format!("h{i}"),
                        count: rng.next_u64(),
                        sum_ns: rng.next_u64(),
                        max_ns: rng.next_u64(),
                        p50_ns: rng.next_u64(),
                        p90_ns: rng.next_u64(),
                        p99_ns: rng.next_u64(),
                        buckets: pairs(rng),
                        exemplars: pairs(rng),
                    })
                    .collect(),
            }
        };
        for _ in 0..50 {
            let snap = MetricsSnapshot {
                window: Duration::from_nanos(rng.next_u64()),
                scenarios: (0..rng.gen_range(3)).map(|_| scenario(&mut rng)).collect(),
            };
            let text = snap.render();
            let back = MetricsSnapshot::parse(&text).expect("parses");
            assert_eq!(back, snap);
            assert_eq!(back.render(), text);
        }
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(MetricsSnapshot::parse("{}").is_err());
        assert!(MetricsSnapshot::parse(r#"{"window_ns":0,"scenarios":0}"#).is_err());
        assert!(MetricsSnapshot::parse(
            r#"{"window_ns":1,"scenarios":[{"label":"x","counters":[{"name":"c"}],"gauges":[],"histograms":[]}]}"#
        )
        .is_err());
    }
}
