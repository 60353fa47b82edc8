//! beehive-insight — latency attribution, SLO evaluation, and regression
//! root-cause diagnosis for the BeeHive reproduction.
//!
//! Three layers, all consuming artifacts the rest of the workspace already
//! produces, with zero external dependencies:
//!
//! * [`attribution`] — folds a recorded [`beehive_telemetry::Trace`] into
//!   per-request latency decompositions whose typed components sum
//!   *exactly* to the measured latency (queue wait, execution, boot wait,
//!   fallback round trips by kind, monitor sync, lock wait, DB/net waits,
//!   recovery), plus slowest-K exemplar breakdowns per scenario,
//! * [`slo`] — evaluates completed requests against a latency objective on
//!   virtual time: error-budget accounting and maximum multi-window burn
//!   rates, all in integer basis points,
//! * [`diff`] — explains a regressed watched-metric delta: the dominant
//!   component growth, the counters that moved, and the hottest grown
//!   profiler frame.
//!
//! The `repro explain` and `repro diff` subcommands are thin CLI shells
//! over this crate; everything here is deterministic, so their outputs are
//! byte-identical across worker counts and golden-diffed by
//! `scripts/verify.sh`.

#![warn(missing_docs)]

pub mod attribution;
pub mod diff;
pub mod slo;

pub use attribution::{
    attribute, attribute_all, AttributionFold, AttributionReport, Component, RequestAttribution,
};
pub use diff::{diagnose, is_latency_metric, Diagnosis};
pub use slo::{evaluate, SloFold, SloPolicy, SloReport};

use beehive_sim::json::Json;

/// The on-disk `*.insight.json` document: one attribution report and one
/// SLO report per scenario of an item, in run order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InsightDoc {
    /// Per-scenario latency attributions.
    pub attributions: Vec<AttributionReport>,
    /// Per-scenario SLO evaluations (same scenario order).
    pub slo: Vec<SloReport>,
}

impl InsightDoc {
    /// Build the document from a run's labelled traces.
    pub fn from_traces(
        traces: &[(String, beehive_telemetry::Trace)],
        policy: &SloPolicy,
        k: usize,
    ) -> InsightDoc {
        InsightDoc {
            attributions: attribute_all(traces, k),
            slo: (traces.iter())
                .map(|(label, t)| evaluate(policy, label, t))
                .collect(),
        }
    }

    /// Find a scenario's attribution report by label.
    pub fn attribution(&self, label: &str) -> Option<&AttributionReport> {
        self.attributions.iter().find(|r| r.label == label)
    }

    /// Render to the `*.insight.json` shape:
    /// `{"scenarios": [...], "slo": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "scenarios".into(),
                Json::Arr(self.attributions.iter().map(|r| r.to_json()).collect()),
            ),
            (
                "slo".into(),
                Json::Arr(self.slo.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }

    /// Strict inverse of [`InsightDoc::to_json`].
    pub fn parse(text: &str) -> Result<InsightDoc, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        let scenarios = j.arr_field("scenarios")?.iter();
        let slo = j.arr_field("slo")?.iter();
        Ok(InsightDoc {
            attributions: scenarios
                .map(AttributionReport::from_json)
                .collect::<Result<_, _>>()?,
            slo: slo.map(SloReport::from_json).collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_sim::{Duration, SimTime};
    use beehive_telemetry::{EventKind, Trace, TraceEvent, Track};

    #[test]
    fn doc_round_trips_through_json() {
        let mut events = Vec::new();
        for rid in 0..3u64 {
            events.push(TraceEvent::new(
                SimTime::ZERO + Duration::from_millis(rid),
                Track::Request(rid),
                "req:server",
                EventKind::Begin,
                &[],
            ));
            events.push(TraceEvent::new(
                SimTime::ZERO + Duration::from_millis(rid + 2),
                Track::Request(rid),
                "req:server",
                EventKind::End,
                &[],
            ));
        }
        let traces = vec![("s".to_string(), Trace { events })];
        let doc = InsightDoc::from_traces(&traces, &SloPolicy::default(), 5);
        assert_eq!(doc.attributions.len(), 1);
        assert_eq!(doc.attribution("s").unwrap().requests, 3);
        assert!(doc.attribution("nope").is_none());
        let rendered = doc.to_json().render();
        let back = InsightDoc::parse(&rendered).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.to_json().render(), rendered);
    }
}
