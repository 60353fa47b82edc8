//! # beehive-telemetry — virtual-time tracing and metrics
//!
//! Spans, instant events and counters keyed to the simulation's virtual
//! clock, recorded deterministically so that a traced run is byte-identical
//! for a fixed seed at any worker count.
//!
//! The design is sink-per-thread: every [`Sim`](../beehive_workload/driver/struct.Sim.html)
//! runs entirely on one worker thread, so the recording sink is a
//! thread-local buffer. [`install`] arms it, the instrumented crates emit
//! through the free functions below, and [`take`] hands the finished
//! [`Trace`] back to the embedder. With no recorder installed every probe is
//! a thread-local read plus a branch (the no-op sink).
//!
//! Probes never allocate or do work unless a recorder is armed; call sites
//! that must build argument lists guard with [`enabled`].
//!
//! Exporters live in [`chrome`] (Chrome trace-event JSON for
//! `chrome://tracing` / Perfetto) and [`summary`] (per-request critical-path
//! tables), both rendered through the in-tree `beehive_sim::json`.
//!
//! # Example
//!
//! ```
//! use beehive_sim::{Duration, SimTime};
//! use beehive_telemetry as telemetry;
//!
//! telemetry::install();
//! telemetry::set_now(SimTime::ZERO + Duration::from_millis(3));
//! let (track, name) = (telemetry::Track::Request(7), telemetry::EventName::ReqServer);
//! telemetry::begin(track, name, &[]);
//! telemetry::set_now(SimTime::ZERO + Duration::from_millis(9));
//! telemetry::end(track, name, &[]);
//! let trace = telemetry::take().unwrap();
//! assert_eq!(trace.events.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod summary;
mod vocabulary;

pub use vocabulary::EventName;

use std::cell::{Cell, RefCell};
use std::ops::Deref;

use beehive_sim::{Duration, SimTime};

/// Which timeline an event belongs to. Tracks map to Chrome `pid`/`tid`
/// pairs in the exporter: one process per endpoint, one thread per request
/// or instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Track {
    /// The monolith server endpoint (GC, closure builds, admission).
    Server,
    /// One request, identified by its server-issued request id. Request
    /// spans (`req:*`, needs, fallbacks) live here.
    Request(u64),
    /// One FaaS instance (boot span, lifecycle, function-side GC).
    Instance(u32),
    /// The FaaS platform as a whole (acquire/expire/prewarm).
    Platform,
    /// The database endpoint (proxy rounds).
    Db,
    /// The simulation kernel itself (event-queue and pool-load counters).
    Sim,
}

/// One event argument value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arg {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Static string (no allocation on the hot path).
    Str(&'static str),
}

/// The event kind (maps onto Chrome trace-event phases).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// Span open (`ph: "B"`).
    Begin,
    /// Span close (`ph: "E"`).
    End,
    /// Complete span of a known duration (`ph: "X"`).
    Complete(Duration),
    /// Instant event (`ph: "i"`).
    Instant,
    /// Counter sample (`ph: "C"`).
    Counter(i64),
}

/// Most arguments one event carries: the widest emit site's (`gc`'s) four.
pub const MAX_ARGS: usize = 4;

/// An event's arguments, stored inline (no allocation per event); derefs to
/// the `(name, value)` pairs. Slots past them stay empty.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Args {
    pairs: [(&'static str, Arg); MAX_ARGS],
    len: u8,
}

impl Args {
    const EMPTY: Args = Args {
        pairs: [("", Arg::Bool(false)); MAX_ARGS],
        len: 0,
    };

    /// Hold `args`, panicking, with the name of the event, when there are
    /// more than [`MAX_ARGS`].
    #[inline]
    fn fill(&mut self, name: EventName, args: &[(&'static str, Arg)]) {
        if args.len() > MAX_ARGS {
            too_many_args(name, args.len());
        }
        self.pairs[..args.len()].copy_from_slice(args);
        self.len = args.len() as u8;
    }
}

#[cold]
#[inline(never)]
fn too_many_args(name: EventName, len: usize) -> ! {
    panic!("event {name} has {len} args, more than the {MAX_ARGS} an event holds")
}

impl Deref for Args {
    type Target = [(&'static str, Arg)];

    #[inline]
    fn deref(&self) -> &Self::Target {
        &self.pairs[..self.len as usize]
    }
}

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event (for [`EventKind::Complete`], the start).
    pub at: SimTime,
    /// The timeline it belongs to.
    pub track: Track,
    /// Event name, as a vocabulary id.
    pub name: EventName,
    /// The kind.
    pub kind: EventKind,
    /// Arguments (name/value pairs).
    pub args: Args,
}

// `#[inline]`: the trace consumers in other crates call these per event,
// and release builds have no LTO.
impl TraceEvent {
    /// An event; panics, naming it, when `args` holds more than
    /// [`MAX_ARGS`] pairs.
    #[inline]
    pub fn new(
        at: SimTime,
        track: Track,
        name: impl Into<EventName>,
        kind: EventKind,
        args: &[(&'static str, Arg)],
    ) -> TraceEvent {
        let name = name.into();
        let mut event = TraceEvent {
            at,
            track,
            name,
            kind,
            args: Args::EMPTY,
        };
        event.args.fill(name, args);
        event
    }

    #[inline]
    fn arg(&self, key: &str) -> Option<&Arg> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The argument `key` when it is a non-negative integer.
    #[inline]
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        match self.arg(key)? {
            Arg::UInt(v) => Some(*v),
            Arg::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The argument `key` when it is a boolean.
    #[inline]
    pub fn arg_bool(&self, key: &str) -> Option<bool> {
        match self.arg(key)? {
            Arg::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The argument `key` when it is a string.
    #[inline]
    pub fn arg_str(&self, key: &str) -> Option<&'static str> {
        match self.arg(key)? {
            Arg::Str(v) => Some(v),
            _ => None,
        }
    }
}

/// A finished recording: every event one simulation emitted, in emission
/// order (which is virtual-time order, since the driver advances the clock
/// monotonically).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// The events.
    pub events: Vec<TraceEvent>,
}

struct Recorder {
    now: SimTime,
    events: Vec<TraceEvent>,
    /// How many of `events` [`pump`] has already fed to the consumers.
    pumped: usize,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    /// Whether `RECORDER` holds a recorder: a plain flag, so that a probe
    /// with none armed is one thread-local load and a branch.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

#[inline]
fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    if enabled() {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                f(rec);
            }
        });
    }
}

/// Arm the recording sink on the current thread (idempotent: re-installing
/// discards any previous buffer). Until this is called — or after [`take`] —
/// every probe is a no-op.
pub fn install() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            now: SimTime::ZERO,
            events: Vec::new(),
            pumped: 0,
        });
    });
    ARMED.with(|a| a.set(true));
    PEAK.with(|p| p.set(0));
}

/// Disarm the sink and return what it recorded. `None` if no recorder was
/// installed on this thread.
pub fn take() -> Option<Trace> {
    let rec = RECORDER.with(|r| r.borrow_mut().take())?;
    ARMED.with(|a| a.set(false));
    PEAK.with(|p| p.set(p.get().max(rec.events.len())));
    Some(Trace { events: rec.events })
}

/// Feed every event recorded on this thread since the previous pump to `f`,
/// each exactly once and in emission order, then free them unless `retain`
/// keeps them for [`take`]. The recorder owns the consumed-events mark, so
/// any number of online consumers (`beehive-sentinel`, `beehive-observatory`)
/// share one pass, and a run that only feeds them holds the events of one
/// simulation step instead of the whole trace. A no-op when no recorder is
/// armed. `f` must not emit.
pub fn pump(retain: bool, mut f: impl FnMut(&TraceEvent)) {
    with_recorder(|rec| {
        if rec.events.len() == rec.pumped {
            return; // nothing new, and the peak already counts every event
        }
        rec.events[rec.pumped..].iter().for_each(&mut f);
        PEAK.with(|p| p.set(p.get().max(rec.events.len())));
        if retain {
            rec.pumped = rec.events.len();
        } else {
            rec.events.clear();
        }
    });
}

/// The most events this thread's recorder has held at once since the last
/// [`install`], sampled at every [`pump`] and at [`take`] (it outlives the
/// recorder, so it can be read after a run disarmed it).
pub fn peak_buffered() -> usize {
    PEAK.with(|p| p.get())
}

/// `true` while a recorder is armed on this thread. Call sites that build
/// argument lists guard on this so the disabled path stays allocation-free.
#[inline]
pub fn enabled() -> bool {
    ARMED.with(Cell::get)
}

/// Advance the recorder's virtual clock; subsequent events are stamped with
/// `now`. The driver calls this once per dispatched simulation event.
#[inline]
pub fn set_now(now: SimTime) {
    with_recorder(|rec| rec.now = now);
}

/// Names resolve (a `&'static str` through the vocabulary's table) only
/// once a recorder is armed; the disabled path stays a branch at the site.
#[inline]
fn emit(track: Track, name: impl Into<EventName>, kind: EventKind, args: &[(&'static str, Arg)]) {
    with_recorder(|rec| rec.record(track, name.into(), kind, args));
}

impl Recorder {
    #[inline(never)]
    fn record(
        &mut self,
        track: Track,
        name: EventName,
        kind: EventKind,
        args: &[(&'static str, Arg)],
    ) {
        // Built in its slot: the arguments are copied once.
        self.events.push(TraceEvent {
            at: self.now,
            track,
            name,
            kind,
            args: Args::EMPTY,
        });
        let event = self.events.last_mut().expect("pushed above");
        event.args.fill(name, args);
    }
}

/// Open a span on `track`.
#[inline]
pub fn begin(track: Track, name: impl Into<EventName>, args: &[(&'static str, Arg)]) {
    emit(track, name, EventKind::Begin, args);
}

/// Close the innermost open span named `name` on `track`.
#[inline]
pub fn end(track: Track, name: impl Into<EventName>, args: &[(&'static str, Arg)]) {
    emit(track, name, EventKind::End, args);
}

/// Record a complete span that started at the current virtual time and
/// lasted `dur` (e.g. a GC pause measured by the collector itself).
///
/// A request's fixed-length residence leg — one whose end is known when it
/// starts and that nothing can cut short: a network, function-CPU or
/// fallback server-CPU leg, or an offloaded request's database round on
/// the FIFO database machine — is recorded this way too, and every
/// consumer reads it as the `Begin`/`End` pair it replaces. A leg that
/// would end after the run's horizon is still opened with [`begin`]: the
/// run stops first, and like any span left open it never closes.
#[inline]
pub fn complete(
    track: Track,
    name: impl Into<EventName>,
    dur: Duration,
    args: &[(&'static str, Arg)],
) {
    emit(track, name, EventKind::Complete(dur), args);
}

/// Record an instant event.
#[inline]
pub fn instant(track: Track, name: impl Into<EventName>, args: &[(&'static str, Arg)]) {
    emit(track, name, EventKind::Instant, args);
}

/// Record a counter sample.
#[inline]
pub fn counter(track: Track, name: impl Into<EventName>, value: i64) {
    emit(track, name, EventKind::Counter(value), &[]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_sim::LogLinearHistogram;

    #[test]
    fn histogram_buckets_and_quantiles() {
        // The summary's `p50_us` / `p99_us`: the octave bound of the
        // log-linear nearest-rank quantile.
        let mut h = LogLinearHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        for micros in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(Duration::from_micros(micros).as_nanos());
        }
        assert_eq!(h.count(), 10);
        // 9 of 10 samples sit in the octave [512, 1024) holding 1000 ns.
        assert_eq!(summary::octave_bound(h.quantile(0.5)), 1024);
        let p99 = summary::octave_bound(h.quantile(0.99));
        assert!(p99 >= 1_000_000, "p99 bound {p99}");
        h.record(Duration::ZERO.as_nanos());
        assert_eq!(h.count(), 11);
    }

    #[test]
    fn zero_duration_lands_in_bucket_zero() {
        assert_eq!(LogLinearHistogram::bucket_of(0), 0);
        assert_eq!(summary::octave_bound(0), 2);
        assert_eq!(summary::octave_bound(1), 2);
        assert_eq!(summary::octave_bound(2), 4);
        assert_eq!(summary::octave_bound(u64::MAX), u64::MAX);
    }

    #[test]
    fn probes_are_noops_without_a_recorder() {
        assert!(take().is_none());
        assert!(!enabled());
        begin(Track::Server, "x", &[]);
        instant(Track::Db, "y", &[("k", Arg::Int(1))]);
        counter(Track::Sim, "z", 3);
        assert!(take().is_none());
    }

    #[test]
    fn recorder_buffers_in_order_with_timestamps() {
        install();
        assert!(enabled());
        set_now(SimTime::ZERO + Duration::from_micros(5));
        begin(Track::Request(1), "req:server", &[]);
        complete(
            Track::Server,
            "gc",
            Duration::from_micros(2),
            &[("copied_bytes", Arg::UInt(128))],
        );
        set_now(SimTime::ZERO + Duration::from_micros(9));
        end(Track::Request(1), "req:server", &[]);
        let t = take().expect("recorder was installed");
        assert!(!enabled());
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.events[0].kind, EventKind::Begin);
        assert_eq!(t.events[0].at.as_nanos(), 5_000);
        assert_eq!(t.events[2].at.as_nanos(), 9_000);
        assert_eq!(*t.events[1].args, [("copied_bytes", Arg::UInt(128))]);
    }

    #[test]
    fn pump_visits_each_event_once_and_frees_unless_retaining() {
        pump(false, |_| panic!("no recorder, no visits"));
        for retain in [false, true] {
            install();
            instant(Track::Server, "a", &[]);
            instant(Track::Server, "b", &[]);
            let mut seen = Vec::new();
            pump(retain, |e| seen.push(e.name.name()));
            instant(Track::Server, "c", &[]);
            pump(retain, |e| seen.push(e.name.name()));
            pump(retain, |_| panic!("nothing new"));
            assert_eq!(seen, ["a", "b", "c"], "retain={retain}");
            // Retaining, `take` still returns the whole trace; otherwise the
            // visited events are gone and the buffer never held all three.
            let names: Vec<_> = take()
                .unwrap()
                .events
                .iter()
                .map(|e| e.name.name())
                .collect();
            if retain {
                assert_eq!(
                    (names.as_slice(), peak_buffered()),
                    (&["a", "b", "c"][..], 3)
                );
            } else {
                assert_eq!((names.len(), peak_buffered()), (0, 2));
            }
        }
    }

    #[test]
    fn reinstall_discards_previous_buffer() {
        install();
        instant(Track::Server, "a", &[]);
        install();
        instant(Track::Server, "b", &[]);
        let t = take().unwrap();
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].name, "b");
    }

    #[test]
    fn events_are_inline_and_resolve_names_once_armed() {
        // Growth of the per-event footprint is deliberate: it is what the
        // recorder, the sentinel's rings and every retained trace pay.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 232);
        install();
        instant(Track::Request(7), "bench", &[("value", Arg::UInt(42))]);
        instant(Track::Server, "offload:decision", &[]);
        complete(Track::Server, EventName::Gc, Duration::ZERO, &[]);
        let names: Vec<_> = take().unwrap().events.iter().map(|e| e.name).collect();
        let known = [EventName::OffloadDecision, EventName::Gc];
        assert_eq!(names, [EventName::Other("bench"), known[0], known[1]]);
    }

    #[test]
    #[should_panic(expected = "event gc has 5 args, more than the 4 an event holds")]
    fn more_args_than_an_event_holds_panics_naming_it() {
        let five = [("a", Arg::UInt(1)); 5];
        TraceEvent::new(
            SimTime::ZERO,
            Track::Server,
            "gc",
            EventKind::Instant,
            &five,
        );
    }
}
