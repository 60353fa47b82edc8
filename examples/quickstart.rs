//! Quickstart: run one request-burst scenario with BeeHive's Semi-FaaS
//! offloading and print what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use beehive::apps::AppKind;
use beehive::workload::experiment::{BurstExperiment, Strategy};

fn main() {
    // The pybbs forum's comment request under a 2x burst starting at the
    // 20th second, offloaded to an OpenWhisk-like FaaS platform.
    let report = BurstExperiment::new(AppKind::Pybbs, Strategy::BeeHiveOpenWhisk)
        .horizon_secs(60)
        .burst_at_secs(20)
        .seed(42)
        .run();

    println!("BeeHive quickstart — pybbs under a 2x request burst\n");
    println!("requests completed:     {}", report.completed);
    println!("shadow executions:      {}", report.shadows);
    println!(
        "cold / warm boots:      {} / {}",
        report.cold_boots, report.warm_boots
    );
    println!("pre-burst p99:          {:.1} ms", report.pre_burst_p99_ms);
    match report.stabilization_secs {
        Some(s) => println!("stabilized after:       {s} s (from the burst start)"),
        None => println!("stabilized after:       (not within the horizon)"),
    }
    println!("stabilized p99:         {:.1} ms", report.stabilized_p99_ms);
    println!("FaaS bill:              ${:.4}", report.scaling_cost);

    println!("\nper-second p99 timeline (burst starts at t=20s):");
    for p in report.timeline.iter().filter(|p| p.count > 0) {
        if p.second % 4 == 0 {
            let bar = "#".repeat((p.p99_ms / 10.0).min(60.0) as usize);
            println!("  t={:>3}s p99={:>7.1} ms |{bar}", p.second, p.p99_ms);
        }
    }
}
