//! # beehive-core — the BeeHive Semi-FaaS offloading framework
//!
//! This crate is the reproduction of the paper's contribution: a partial,
//! automatic, dynamic offloading framework that lets a monolithic web
//! service ship *closures* — bytecode, reachable objects, packed native
//! state — to FaaS instances, with a fallback-based execution model that
//! completes the closure on demand.
//!
//! The pieces map one-to-one onto the paper:
//!
//! | Module | Paper section |
//! |---|---|
//! | [`closure`] — initial-closure construction & refinement | §3.1, §4.3 |
//! | [`session`] — the fallback protocol: one step loop for both endpoints, each round trip (code, data, native, DB, sync) a list of legs | §3.1–§3.3, §4.1–§4.2 |
//! | [`mapping`] — per-function address mapping tables | §4.1 |
//! | [`objgraph`] — object-graph copies with remote-reference marking | §4.1 |
//! | [`server`] / [`function`] — the two endpoint runtimes | §3.1 |
//! | shadow execution (a [`session`] mode) — warmup hiding | §3.4 |
//! | [`recovery`] — re-execution from sync-point snapshots | §4.5 |
//!
//! ## Execution model
//!
//! Sessions ([`session::ServerSession`], [`session::OffloadSession`]) are
//! state machines that the embedding discrete-event simulation drives: each
//! [`session::SessionStep`] tells the driver which resource to occupy for how
//! long (server CPU, function CPU, network, database) before calling the
//! session again; each round trip's steps are its legs, whose sum is its
//! profile frame. All BeeHive mechanics — remote-reference fix-up, closure
//! refinement, monitor hand-offs with dirty-object shipping, proxy-mediated
//! database rounds — happen inside the session when its pending steps drain.

#![warn(missing_docs)]

pub mod closure;
pub mod config;
pub mod function;
pub mod mapping;
pub mod objgraph;
pub mod recovery;
pub mod server;
pub mod session;
pub mod stats;

pub use config::{BeeHiveConfig, NetProfile};
pub use function::FunctionRuntime;
pub use server::ServerRuntime;
pub use session::{Need, OffloadSession, Resource, ServerSession, SessionStep};
pub use stats::SessionStats;
