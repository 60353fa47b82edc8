//! Experiment drivers: one per table and figure of the paper's evaluation.
//!
//! | Item | Driver (returns a [`Plan`](crate::engine::Plan) unless computed from constants) |
//! |---|---|
//! | Figure 2 | [`fig2::fig2`] |
//! | Table 1 | re-exported from `beehive-scaling` ([`beehive_scaling::table1`]) |
//! | Table 2 | [`table2::table2`] |
//! | Figure 7 / Table 3 | [`fig7::fig7`] |
//! | Figure 8 | [`fig8::fig8`] |
//! | Figure 9 | [`fig9::fig9`] |
//! | Table 4 / Figure 10 | [`slo::table4`], [`slo::fig10`] |
//! | Table 5 | [`table5::table5`] |
//! | §5.6 GC & memory | [`breakdown::gc_stats`] |
//! | §5.6 shadow execution | [`breakdown::shadow_breakdown`] |
//! | Design ablations | [`ablation::ablation`] |
//! | §5.7 combination mode | [`combination::combination`] |
//! | §4.5 failure recovery | [`recovery::recovery`] |
//!
//! Every simulating driver takes a [`Profile`] selecting full (paper-scale)
//! or quick (CI/bench-scale) horizons and a seed; all results are
//! deterministic for a given profile. `repro` joins the plans of every item
//! it runs into one engine batch.

pub mod ablation;
pub mod breakdown;
pub mod combination;
pub mod fig2;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod recovery;
pub mod slo;
pub mod table2;
pub mod table5;

pub use crate::strategy::Strategy;
pub use fig7::BurstExperiment;

use std::sync::{Arc, Mutex};

use beehive_apps::{App, AppKind, Fidelity};

/// `kind` built at `fidelity`, shared with every plan still holding one:
/// building is deterministic, and the plans `repro` batches would otherwise
/// each keep their own copy of the same program until the batch runs.
pub fn app(kind: AppKind, fidelity: Fidelity) -> App {
    static BUILT: Mutex<Vec<App>> = Mutex::new(Vec::new());
    let mut built = BUILT.lock().expect("no app-cache holder panics");
    // An app only this cache holds is dropped, not kept for the process.
    built.retain(|app| Arc::strong_count(&app.program) > 1);
    let same = |app: &&App| app.kind == kind && app.fidelity == fidelity;
    if let Some(app) = built.iter().find(same) {
        return app.clone();
    }
    let app = App::build(kind, fidelity);
    built.push(app.clone());
    app
}

/// Experiment scale and seed.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    /// RNG seed.
    pub seed: u64,
    /// Quick mode: shorter horizons for CI and the benchmark.
    pub quick: bool,
}

impl Profile {
    /// Paper-scale horizons.
    pub fn full() -> Profile {
        Profile {
            seed: 42,
            quick: false,
        }
    }

    /// CI/bench-scale horizons.
    pub fn quick() -> Profile {
        Profile {
            seed: 42,
            quick: true,
        }
    }
}

/// The near-peak baseline request rate for an app: 75% of the vanilla
/// server's capacity ("the number of clients is chosen to reach nearly peak
/// throughput", §5.2).
pub fn base_rate(app: &App) -> f64 {
    0.75 * vanilla_capacity(app)
}

/// The vanilla server's saturation throughput: 4 cores over the per-request
/// CPU demand.
pub fn vanilla_capacity(app: &App) -> f64 {
    4.0 / app.spec.cpu_budget.as_secs_f64()
}
