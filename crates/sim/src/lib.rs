//! # beehive-sim — deterministic discrete-event simulation kernel
//!
//! Every experiment in the BeeHive reproduction runs on virtual time so that
//! figures regenerate bit-identically from a seed. This crate provides the
//! shared substrate:
//!
//! * [`SimTime`] / [`Duration`] — virtual nanosecond clock types,
//! * [`Rng`] — a seedable, splittable PCG generator with the distributions the
//!   experiments need (uniform, exponential, log-normal),
//! * [`EventQueue`] — a stable priority queue of timestamped events, each
//!   of which can be rescheduled or cancelled through its [`EventId`],
//! * [`pool`] — CPU models: egalitarian processor sharing ([`pool::PsPool`])
//!   for multi-threaded web servers and FIFO ([`pool::FifoPool`]) for
//!   single-request FaaS instances,
//! * [`stats`] — latency percentiles and per-second timelines,
//! * [`hist`] — the fixed-layout log-linear histogram ([`LogLinearHistogram`])
//!   every latency distribution in the traces and metrics is kept in,
//! * [`FastMap`] / [`FastSet`] — the std collections over the one
//!   deterministic hasher the private integer-keyed maps share ([`hash`]),
//! * [`json`] — a dependency-free JSON tree, emitter and parser used by the
//!   experiment reports (`repro --json`).
//!
//! # Example
//!
//! ```
//! use beehive_sim::{EventQueue, SimTime, Duration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + Duration::from_millis(5), "b");
//! q.schedule(SimTime::ZERO + Duration::from_millis(1), "a");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "a");
//! assert_eq!(t.as_millis(), 1);
//! ```

#![warn(missing_docs)]

mod event;
mod rng;
mod time;

pub mod hash;
pub mod hist;
pub mod json;
pub mod pool;
pub mod stats;

pub use event::{EventId, EventQueue};
pub use hash::{FastMap, FastSet};
pub use hist::LogLinearHistogram;
pub use rng::Rng;
pub use time::{Duration, SimTime};
