//! # beehive-workload — workload generators and experiment drivers
//!
//! The discrete-event driver ([`driver::Sim`]) that wires the whole system
//! together — applications, the BeeHive server runtime, FaaS platforms,
//! instance-scaling baselines, the database pool, client arrival processes —
//! plus one experiment driver per table and figure of the paper's
//! evaluation (the [`experiment`] module). Everything runs on virtual time
//! from a seed; re-running an experiment reproduces it bit-for-bit.

#![warn(missing_docs)]

pub mod broker;
pub mod config;
pub mod driver;
pub mod endpoint;
pub mod engine;
pub mod experiment;
pub mod lifecycle;
pub mod router;
pub mod strategy;

// Unit tests of the two routing policies [`router::Router`] holds: the
// burst handler (§5.1) and the offloading ratio (§3.1).
#[cfg(test)]
mod burst;
#[cfg(test)]
mod controller;

pub use config::{ArrivalPattern, SimConfig, SimResult};
pub use driver::Sim;
pub use engine::{run_all, RunOutcome, Scenario};
pub use strategy::Strategy;
