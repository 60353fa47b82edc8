//! What the kernel's event queue shows in the trace, on the traced
//! `repro table5 --quick --seed 42` runs (streamed through a sink, never
//! retained).
//!
//! * How the queue keeps its pending events is the kernel's own
//!   bookkeeping: it may move the Sim-track `event_queue` gauge and nothing
//!   else the trace records, so every other event is pinned by one digest.
//! * Pending events are bounded by the fleet. Each request in flight has at
//!   most one event pending (its step, boot or recovery, or its database
//!   round's completion), each server pool one armed completion, and beside
//!   them only the FaaS expiry sweep and the scaler's next step wait (these
//!   runs inject no faults, and the next arrival is scheduled after the
//!   sample). So at every arrival sample `event_queue <= inflight + pools +
//!   2`, however long the run: no stale completion events pile up.

use std::io::{self, Write};
use std::sync::{Arc, Mutex, OnceLock};

use beehive_apps::AppKind;
use beehive_telemetry::chrome::ChromeWriter;
use beehive_telemetry::summary::{Arrival, Consumer};
use beehive_telemetry::{EventKind, EventName, TraceEvent, Track};
use beehive_workload::engine::{default_workers, run_collected, Collector};
use beehive_workload::experiment::table5::table5;
use beehive_workload::experiment::Profile;
use beehive_workload::{SimConfig, SimResult};

/// FNV-1a over the Chrome rendering of every event but the `event_queue`
/// gauge, each scenario's stream folded in scenario order. Re-recorded when
/// fixed-length residence legs became one `Complete` each, again when an
/// offloaded request's database round did, which change the rendering but
/// nothing derived from it (`obs_count_free.digests`), and again when the
/// records dropped `cat`, an instant's `s` and `db:round`'s `origin`
/// (`chrome_round_trip.rs` shows nothing else moved).
const GAUGE_FREE_DIGEST: u64 = 0x70f3_61ca_e8e3_0f24;

/// A `Write` that only hashes what it is given (FNV-1a).
struct Fnv(u64);

impl Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What one scenario's event stream showed.
#[derive(Debug, Default)]
struct Seen {
    /// Its gauge-free digest.
    digest: u64,
    /// Arrival samples taken.
    samples: usize,
    /// The most pending events beyond `inflight + pools` at any sample.
    worst_excess: i64,
}

/// One arrival sample: the gauges the driver emits together, then a
/// `pool_depth` instant per pool beyond the primary.
struct Sample {
    queue: i64,
    inflight: i64,
    pools: i64,
}

/// Streams one scenario's events into what it [`Seen`].
struct Probe {
    seq: usize,
    chrome: ChromeWriter<Fnv>,
    sample: Option<Sample>,
    seen: Seen,
    out: Arc<Mutex<Vec<(usize, Seen)>>>,
}

impl Probe {
    fn close_sample(&mut self) {
        if let Some(s) = self.sample.take() {
            self.seen.samples += 1;
            let excess = s.queue - s.inflight - s.pools;
            self.seen.worst_excess = self.seen.worst_excess.max(excess);
        }
    }
}

impl Consumer for Probe {
    fn event(&mut self, e: &TraceEvent, _: Option<Arrival>) {
        if e.track != Track::Sim {
            self.chrome.event(e);
            return;
        }
        match (e.name, e.kind) {
            (EventName::EventQueue, EventKind::Counter(queue)) => {
                self.close_sample();
                self.sample = Some(Sample {
                    queue,
                    inflight: 0,
                    pools: 1,
                });
                return; // the one event the digest leaves out
            }
            (EventName::Inflight, EventKind::Counter(n)) => {
                if let Some(s) = self.sample.as_mut() {
                    s.inflight = n;
                }
            }
            (EventName::PoolDepth, EventKind::Instant) => {
                if let Some(s) = self.sample.as_mut() {
                    s.pools += 1;
                }
            }
            _ => {}
        }
        self.chrome.event(e);
    }

    fn finish(mut self: Box<Self>) {
        self.close_sample();
        let Probe {
            seq,
            chrome,
            mut seen,
            out,
            ..
        } = *self;
        seen.digest = chrome.finish().expect("hashing never fails").0;
        out.lock().unwrap().push((seq, seen));
    }
}

struct Probes(Arc<Mutex<Vec<(usize, Seen)>>>);

impl Collector for Probes {
    fn open(&self, seq: usize, label: &str, _: &mut SimConfig) -> Option<Box<dyn Consumer>> {
        let mut chrome = ChromeWriter::new(Fnv(0xcbf2_9ce4_8422_2325));
        chrome.begin_scenario(seq, label);
        Some(Box::new(Probe {
            seq,
            chrome,
            sample: None,
            seen: Seen::default(),
            out: Arc::clone(&self.0),
        }))
    }

    fn close(&self, _: usize, _: &str, _: &mut SimResult) {}
}

/// The table5 `--quick` runs, once per test binary, in scenario order.
fn table5_streams() -> &'static [Seen] {
    static SEEN: OnceLock<Vec<Seen>> = OnceLock::new();
    SEEN.get_or_init(|| {
        let out = Arc::new(Mutex::new(Vec::new()));
        let plan = table5(&AppKind::all(), Profile::quick());
        let probes = Probes(Arc::clone(&out));
        run_collected(plan.scenarios, default_workers(), Some(&probes));
        let mut seen = std::mem::take(&mut *out.lock().unwrap());
        seen.sort_by_key(|&(seq, _)| seq);
        seen.into_iter().map(|(_, s)| s).collect()
    })
}

#[test]
fn only_the_queue_gauge_may_move() {
    let seen = table5_streams();
    assert_eq!(seen.len(), AppKind::all().len());
    let digest = seen.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, s| {
        (h ^ s.digest).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(digest, GAUGE_FREE_DIGEST, "digest {digest:#018x}");
}

#[test]
fn pending_events_are_bounded_by_the_fleet() {
    for (app, seen) in AppKind::all().iter().zip(table5_streams()) {
        assert!(seen.samples > 500, "{app:?}: {} samples", seen.samples);
        assert!(
            seen.worst_excess <= 2,
            "{app:?}: up to {} events pending beyond inflight + pools",
            seen.worst_excess
        );
    }
}
