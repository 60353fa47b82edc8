//! Experiment drivers: one per table and figure of the paper's evaluation.
//!
//! | Item | Driver |
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
//! Every driver takes a [`Profile`] selecting full (paper-scale) or quick
//! (CI/bench-scale) horizons and a seed; all results are deterministic for a
//! given profile.

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

use beehive_apps::App;

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
