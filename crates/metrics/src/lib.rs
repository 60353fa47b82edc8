//! # beehive-metrics — virtual-time time-series metrics
//!
//! A zero-dependency metrics substrate for the reproduction: counters,
//! gauges and HDR-style log-linear histograms sampled on the simulation's
//! *virtual* clock, bucketed into windowed time series (default 1 s of
//! virtual time). Everything is deterministic by construction — fixed
//! histogram bucket layout, name-sorted snapshots, integer nanoseconds —
//! so exported metrics are byte-identical for a fixed seed at any
//! `BEEHIVE_WORKERS`.
//!
//! One producer fills a [`Registry`]: [`MetricsFold`] folds a run's
//! [`beehive_telemetry`] events into it. The workload driver feeds the fold
//! online from its one consumer pump (`SimConfig::metrics`), and
//! [`reduce()`] runs the same fold over retained traces, so a traced run and
//! an untraced run of the same scenario produce the same `.metrics.json`.
//!
//! Exports: [`MetricsSnapshot`] renders through the in-tree
//! `beehive_sim::json` (and parses back via [`MetricsSnapshot::parse`]),
//! and [`prometheus`] writes the Prometheus text exposition format.
//! [`mod@compare`] diffs two snapshots over the [`WATCHED`] metric table —
//! P50/P99 request latency, fallback count, cold-boot count, total GC
//! pause — which `repro diff` and `scripts/verify.sh` use as a
//! cross-run perf regression gate.
//!
//! # Example
//!
//! ```
//! use beehive_metrics::{MetricsSnapshot, Registry, DEFAULT_WINDOW};
//! use beehive_sim::{Duration, SimTime};
//!
//! let mut reg = Registry::new(DEFAULT_WINDOW);
//! let at = SimTime::ZERO + Duration::from_millis(250);
//! reg.add("requests_completed", at, 1);
//! reg.observe("request_latency", at, Duration::from_millis(12));
//! let snap = MetricsSnapshot { window: DEFAULT_WINDOW, scenarios: vec![reg.snapshot("demo")] };
//! let text = snap.render();
//! assert_eq!(MetricsSnapshot::parse(&text).unwrap(), snap);
//! ```

#![warn(missing_docs)]

pub mod compare;
pub mod prom;
pub mod reduce;
pub mod registry;

pub use beehive_sim::hist;
pub use compare::{compare, Delta, Watched, WATCHED};
pub use hist::LogLinearHistogram;
pub use prom::prometheus;
pub use reduce::{reduce, reduce_one, MetricsFold};
pub use registry::{
    CounterSeries, GaugeSeries, HistogramSummary, MetricsSnapshot, Registry, ScenarioMetrics,
    DEFAULT_WINDOW, EXEMPLAR_K,
};
