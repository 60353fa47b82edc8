//! `BENCHMARK.json`, rendered from the tables the code measures with, so the
//! manifest at the repo root cannot drift from what the benchmark prints
//! (`run.sh --print-manifest`; a unit test compares the checked-in file).

use beehive_sim::json::Json;

use crate::result::{s, Better, E2E};
use crate::workloads::WORKLOADS;

/// Seconds one contract run measures (`--seconds`).
const RUN_SECONDS: u64 = 10;

/// Every per-layer metric a `--trace 1` run prints: `(name, unit)`. The
/// stand-alone `--layers` pass prints these too, minus `model.*` (its
/// end-to-end table already carries them) plus one `bench.item_s.<item>`
/// per `repro` item.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.queue_sched_pop_1k_ns", "ns"),
    ("sim.queue_sched_pop_64k_ns", "ns"),
    ("sim.pspool_add_complete_ns", "ns"),
    ("apps.build_ms.thumbnail", "ms"),
    ("vm.server_req_us.thumbnail", "us"),
    ("core.offload_req_us.thumbnail", "us"),
    ("apps.build_ms.pybbs", "ms"),
    ("vm.server_req_us.pybbs", "us"),
    ("vm.interp_ops_per_s", "1/s"),
    ("core.offload_req_us.pybbs", "us"),
    ("apps.build_ms.blog", "ms"),
    ("vm.server_req_us.blog", "us"),
    ("core.offload_req_us.blog", "us"),
    ("vm.alloc_ns", "ns"),
    ("vm.gc_collect_us", "us"),
    ("vm.gc_collect_live_us", "us"),
    ("core.closure_instantiate_us", "us"),
    ("core.closure_bytes", "count"),
    ("core.snapshot_capture_us", "us"),
    ("core.snapshot_restore_us", "us"),
    ("core.sync_handoff_us", "us"),
    ("db.round_ns", "ns"),
    ("proxy.round_ns", "ns"),
    ("faas.warm_dispatch_ns", "ns"),
    ("faas.boot_cycle_ns", "ns"),
    ("chaos.plan_expand_us", "us"),
    ("telemetry.emit_disabled_ns", "ns"),
    ("telemetry.emit_recording_ns", "ns"),
    ("metrics.hist_record_ns", "ns"),
    ("profiler.push_pop_ns", "ns"),
    ("bench.span_overhead_ns", "ns"),
    ("workload.sim_new_ms.steady", "ms"),
    ("workload.sim_run_ms.steady", "ms"),
    ("workload.sim_req_per_s.steady", "1/s"),
    ("telemetry.record_overhead_x.steady", "x"),
    ("telemetry.trace_events.steady", "count"),
    ("sentinel.feed_ns_per_event", "ns"),
    ("observatory.feed_ns_per_event", "ns"),
    ("observatory.svg_render_us", "us"),
    ("insight.attribute_ns_per_event", "ns"),
    ("metrics.reduce_ns_per_event", "ns"),
    ("telemetry.summary_ns_per_event", "ns"),
    ("telemetry.chrome_export_ns_per_event", "ns"),
    ("telemetry.bytes_per_event", "count"),
    ("sim.json_parse_mb_per_s", "MB/s"),
    ("sim.json_render_mb_per_s", "MB/s"),
    ("metrics.live_overhead_x", "x"),
    ("metrics.snapshot_render_us", "us"),
    ("profiler.live_overhead_x", "x"),
    ("profiler.folded_export_us", "us"),
    ("sentinel.online_overhead_x", "x"),
    ("observatory.online_overhead_x", "x"),
    ("bench.tracing_overhead_x", "x"),
    ("workload.sim_new_ms.burst", "ms"),
    ("workload.sim_run_ms.burst", "ms"),
    ("workload.sim_req_per_s.burst", "1/s"),
    ("telemetry.record_overhead_x.burst", "x"),
    ("telemetry.trace_events.burst", "count"),
    ("workload.sim_new_ms.server", "ms"),
    ("workload.sim_run_ms.server", "ms"),
    ("workload.sim_req_per_s.server", "1/s"),
    ("telemetry.record_overhead_x.server", "x"),
    ("telemetry.trace_events.server", "count"),
    ("workload.sim_new_ms.crash", "ms"),
    ("workload.sim_run_ms.crash", "ms"),
    ("workload.sim_req_per_s.crash", "1/s"),
    ("telemetry.record_overhead_x.crash", "x"),
    ("telemetry.trace_events.crash", "count"),
    ("workload.engine_speedup", "x"),
    ("workload.engine_efficiency", "x"),
    ("bench.obs_overhead_x", "x"),
    ("bench.sentinel_overhead_x", "x"),
    ("model.sim_requests", "count"),
    ("model.sim_p99_ms", "ms"),
    ("bench.layer_pass_s", "s"),
];

/// Which way a per-layer metric improves, from its unit and name: rates and
/// the engine's scaling figures up, everything else (times, overheads,
/// bytes, event counts) down.
fn layer_better(name: &str, unit: &str) -> &'static str {
    let higher = unit.ends_with("/s")
        || name.starts_with("workload.engine_")
        || name == "model.sim_requests";
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The manifest as a JSON tree.
pub fn manifest() -> Json {
    let command = ["bash", "benchmark/run.sh"];
    Json::obj([
        (
            s("command"),
            Json::Arr(command.into_iter().map(Json::from).collect()),
        ),
        (s("paths"), Json::Arr(vec![Json::from("benchmark")])),
        (s("run_seconds"), Json::from(RUN_SECONDS)),
        (
            s("workloads"),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            (s("name"), Json::from(w.name)),
                            (s("why"), Json::from(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            s("end_to_end"),
            Json::Arr(
                E2E.iter()
                    .map(|m| {
                        Json::obj([
                            (s("name"), Json::from(m.name)),
                            (s("unit"), Json::from(m.unit)),
                            (
                                s("better"),
                                Json::from(match m.better {
                                    Better::Lower => "lower",
                                    Better::Higher => "higher",
                                }),
                            ),
                            (s("bound"), Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            s("per_layer"),
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit)| {
                        Json::obj([
                            (s("name"), Json::from(name)),
                            (s("unit"), Json::from(unit)),
                            (s("better"), Json::from(layer_better(name, unit))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The manifest as the text of `BENCHMARK.json`: one key per line, one
/// array element per line, so diffs stay readable.
pub fn render() -> String {
    let Json::Obj(pairs) = manifest() else {
        unreachable!("manifest is an object")
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in pairs.iter().enumerate() {
        let sep = if i + 1 < pairs.len() { "," } else { "" };
        match value {
            Json::Arr(items) if items.iter().any(|x| matches!(x, Json::Obj(_))) => {
                out.push_str(&format!("  {}: [\n", Json::from(key.as_str()).render()));
                for (j, item) in items.iter().enumerate() {
                    let sep = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{sep}\n", item.render()));
                }
                out.push_str(&format!("  ]{sep}\n"));
            }
            other => out.push_str(&format!(
                "  {}: {}{sep}\n",
                Json::from(key.as_str()).render(),
                other.render()
            )),
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_manifest_is_valid_json_within_the_contract() {
        let text = render();
        assert_eq!(Json::parse(&text).unwrap(), manifest());
        assert!(text.len() < 64 * 1024);
        let names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert!(names.len() <= 128);
        for (i, n) in names.iter().enumerate() {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(!names[..i].contains(n), "{n} listed twice");
        }
        for (_, unit) in PER_LAYER {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn checked_in_manifest_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk.trim_end(),
            render(),
            "regenerate with: benchmark/run.sh --print-manifest > BENCHMARK.json"
        );
    }
}
