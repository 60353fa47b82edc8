//! §5.6 breakdown analyses: memory consumption & GC on function instances,
//! and the shadow-execution duration breakdown.

use std::fmt;

use beehive_apps::{AppKind, Fidelity};
use beehive_sim::stats::LatencySampler;
use beehive_sim::{json_record, Duration};

use crate::driver::{ArrivalPattern, SimConfig};
use crate::engine::{Plan, Scenario};
use crate::strategy::Strategy;

use super::Profile;

json_record! {
    /// GC and memory metrics of one application's function instances (§5.6).
    #[derive(Clone, Debug)]
    pub struct GcStatsRow {
        /// The application.
        pub app: AppKind,
        /// Median GC pause on function instances (ms).
        pub median_pause_ms: f64,
        /// Number of collections observed.
        pub collections: usize,
        /// Peak per-function heap footprint (MB).
        pub peak_heap_mb: f64,
        /// Server-side mapping-table footprint (KB).
        pub mapping_kb: f64,
    }
}

json_record! {
    /// The §5.6 GC study.
    #[derive(Clone, Debug)]
    pub struct GcStatsReport {
        /// One row per application.
        pub rows: Vec<GcStatsRow>,
    }
}

/// Measure function-side GC behaviour with real allocation churn: a short
/// fully-offloaded run per application, concentrated on two instances so
/// each serves enough requests to collect. Full profile runs at full
/// fidelity (the exact per-request churn); quick mode scales it by 4.
pub fn gc_stats(apps: &[AppKind], profile: Profile) -> Plan<GcStatsReport> {
    let scenarios = apps
        .iter()
        .map(|&kind| {
            let fidelity = if profile.quick {
                Fidelity::Scaled(4)
            } else {
                Fidelity::Full
            };
            let app = super::app(kind, fidelity);
            let mut cfg = SimConfig::new(app, Strategy::BeeHiveOpenWhisk);
            cfg.arrivals = ArrivalPattern::constant(if profile.quick { 3.0 } else { 4.0 });
            cfg.horizon = Duration::from_secs(if profile.quick { 8 } else { 12 });
            cfg.record_from = Duration::ZERO;
            cfg.offload_ratio = 1.0;
            cfg.engage_at = Duration::ZERO;
            cfg.seed = profile.seed;
            cfg.prewarm_ready = 2;
            cfg.max_instances = 2;
            cfg.max_concurrent_boots = 2;
            Scenario::new(kind.name(), cfg)
        })
        .collect();
    let apps = apps.to_vec();
    Plan::new(scenarios, move |outcomes| {
        let rows = apps
            .into_iter()
            .zip(outcomes)
            .map(|(kind, o)| {
                let r = o.result;
                let mut pauses = LatencySampler::new();
                for p in &r.function_gc_pauses {
                    pauses.record(*p);
                }
                GcStatsRow {
                    app: kind,
                    median_pause_ms: pauses.percentile(0.5).as_millis_f64(),
                    collections: r.function_gc_pauses.len(),
                    peak_heap_mb: r.function_peak_heap as f64 / (1 << 20) as f64,
                    mapping_kb: r.mapping_bytes as f64 / 1024.0,
                }
            })
            .collect();
        GcStatsReport { rows }
    })
}

impl fmt::Display for GcStatsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "§5.6 — function-instance memory & GC")?;
        writeln!(
            f,
            "{:<12} {:>14} {:>12} {:>14} {:>14}",
            "app", "GC median(ms)", "collections", "peak heap(MB)", "mapping(KB)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>14.2} {:>12} {:>14.1} {:>14.1}",
                r.app.name(),
                r.median_pause_ms,
                r.collections,
                r.peak_heap_mb,
                r.mapping_kb
            )?;
        }
        Ok(())
    }
}

json_record! {
    /// The shadow-execution breakdown (§5.6): where the ~2.5 s of the first
    /// invocation goes, and how much worst-case latency shadowing removes.
    #[derive(Clone, Debug)]
    pub struct ShadowReport {
        /// The application.
        pub app: AppKind,
        /// Mean end-to-end shadow duration (ms), including the cold boot it
        /// overlaps.
        pub mean_duration_ms: f64,
        /// Mean initial-closure computation time (ms) — overlapped with the
        /// boot (§5.6: ~134 ms).
        pub closure_compute_ms: f64,
        /// Mean remote code/data fetch time per shadow (ms).
        pub fetch_ms: f64,
        /// Mean synchronization time per shadow (ms).
        pub sync_ms: f64,
        /// Shadows observed.
        pub shadows: u64,
        /// Worst offloaded-request latency **with** shadowing (ms): offloaded
        /// requests only ever run on refined warm instances.
        pub worst_with_shadow_ms: f64,
        /// The same **without** shadowing (the ablation): first invocations
        /// ride out the cold boot, warmup and fallback storm (ms).
        pub worst_without_shadow_ms: f64,
        /// The worst-case latency reduction factor from shadow execution,
        /// without over with (§5.6 reports 6.45× on average).
        pub worst_case_reduction: f64,
    }
}

/// Plan the shadow breakdown for one application.
pub fn shadow_breakdown(kind: AppKind, profile: Profile) -> Plan<ShadowReport> {
    let (horizon, burst_at) = if profile.quick {
        (30u64, 8u64)
    } else {
        (120, 40)
    };
    let app = super::app(kind, Fidelity::fast());
    let rate = super::base_rate(&app);
    let configure = |shadow: bool| {
        let mut cfg = SimConfig::new(app.clone(), Strategy::BeeHiveOpenWhisk);
        cfg.arrivals = ArrivalPattern::Open {
            base_rps: rate,
            burst_mult: 2.0,
            burst_at: Duration::from_secs(burst_at),
            burst_end: Duration::from_secs(horizon),
        };
        cfg.horizon = Duration::from_secs(horizon);
        cfg.engage_at = Duration::from_secs(burst_at);
        cfg.seed = profile.seed;
        cfg.shadow_enabled = shadow;
        cfg
    };
    let scenarios = vec![
        Scenario::new(format!("{} shadow", kind.name()), configure(true)),
        Scenario::new(format!("{} no-shadow", kind.name()), configure(false)),
    ];
    Plan::new(scenarios, move |mut outcomes| {
        let without_shadow = outcomes.pop().expect("no-shadow outcome").result;
        let with_shadow = outcomes.pop().expect("shadow outcome").result;
        let sh = with_shadow.shadows.max(1) as f64;
        let worst_with_shadow_ms = with_shadow.offload_latencies.max().as_millis_f64();
        let worst_without_shadow_ms = without_shadow.offload_latencies.max().as_millis_f64();
        ShadowReport {
            app: kind,
            mean_duration_ms: with_shadow.shadow_durations.mean().as_millis_f64(),
            closure_compute_ms: with_shadow.shadow_stats.closure_compute.as_millis_f64() / sh,
            fetch_ms: with_shadow.shadow_stats.fetch_overhead.as_millis_f64() / sh,
            sync_ms: (with_shadow.shadow_stats.fallback_overhead.as_millis_f64()
                - with_shadow.shadow_stats.fetch_overhead.as_millis_f64())
                / sh,
            shadows: with_shadow.shadows,
            worst_with_shadow_ms,
            worst_without_shadow_ms,
            worst_case_reduction: worst_without_shadow_ms / worst_with_shadow_ms.max(1e-9),
        }
    })
}

impl fmt::Display for ShadowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "§5.6 — shadow execution breakdown ({})", self.app.name())?;
        writeln!(f, "  shadows observed:          {}", self.shadows)?;
        writeln!(
            f,
            "  mean duration:             {:.1} ms",
            self.mean_duration_ms
        )?;
        writeln!(
            f,
            "  closure computation:       {:.1} ms (overlaps cold boot)",
            self.closure_compute_ms
        )?;
        writeln!(f, "  remote fetching:           {:.1} ms", self.fetch_ms)?;
        writeln!(f, "  synchronization:           {:.2} ms", self.sync_ms)?;
        writeln!(
            f,
            "  worst offloaded latency:   {:.0} ms (with shadow) vs {:.0} ms (without)",
            self.worst_with_shadow_ms, self.worst_without_shadow_ms
        )?;
        writeln!(
            f,
            "  worst-case reduction:      {:.2}x",
            self.worst_case_reduction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gc_pauses_are_millisecond_scale() {
        let r = gc_stats(&[AppKind::Pybbs], Profile::quick()).run();
        let row = &r.rows[0];
        assert!(row.collections > 0, "churn must trigger GCs");
        assert!(
            row.median_pause_ms > 0.05 && row.median_pause_ms < 20.0,
            "median pause {} ms",
            row.median_pause_ms
        );
        assert!(row.peak_heap_mb > 0.1);
        assert!(row.mapping_kb > 0.0);
    }

    #[test]
    fn shadowing_reduces_worst_case_latency() {
        let r = shadow_breakdown(AppKind::Pybbs, Profile::quick()).run();
        assert!(r.shadows > 0);
        assert!(r.mean_duration_ms > 500.0, "shadow hides a cold boot");
        assert!(
            r.worst_case_reduction > 1.5,
            "reduction {:.2}x (with {:.0} ms, without {:.0} ms)",
            r.worst_case_reduction,
            r.worst_with_shadow_ms,
            r.worst_without_shadow_ms
        );
    }
}
