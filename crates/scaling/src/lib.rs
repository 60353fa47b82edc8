//! # beehive-scaling — baseline cloud scaling solutions
//!
//! The scaling alternatives BeeHive is evaluated against (§2.1, Table 1):
//! reserved, on-demand and burstable EC2 instances, and Fargate. This crate
//! provides their provisioning-time models, hourly rates and the Table 1
//! comparison data. The burst handler that "immediately forwards requests
//! with pre-defined policies once a burst happens" (§5.1) is a routing
//! policy and lives with the other one in `beehive_workload::router`.

#![warn(missing_docs)]

pub mod solutions;

pub use solutions::{table1, InstanceScaler, ScalingKind, SolutionRow};
