//! Chrome trace-event exporter.
//!
//! Renders labelled [`Trace`]s as one Chrome/Perfetto trace document
//! (`chrome://tracing` → Load, or <https://ui.perfetto.dev>). The mapping:
//!
//! * each scenario gets a block of four `pid`s — one per endpoint
//!   (server, FaaS fleet, database, sim kernel) — named via
//!   `process_name` metadata events,
//! * within the server process, `tid 0` is the server runtime and each
//!   request gets its own `tid` (its server request id + 1); within the
//!   FaaS process, `tid 0` is the platform and each instance its own `tid`,
//! * [`EventKind`] maps onto phases `B`/`E`/`X`/`i`/`C`, with timestamps in
//!   microseconds of virtual time.
//!
//! A record keeps only what a reader cannot derive:
//! `{"name","ph","ts","pid","tid"}`, then `"dur"` on an `X` record and
//! `"args"` when the event has any (a counter's sample is `{"value":…}`).
//! There is no `"cat"`: an event's category is its name up to the first
//! `:` (`wait:db` is a `wait`), so in Perfetto's SQL `name GLOB 'wait:*'`
//! selects what `category = 'wait'` did. Instants carry no `"s"`: the
//! trace-event format's default scope is the thread, which is what every
//! instant here is.
//!
//! [`ChromeWriter`] is the one renderer: it formats each record straight
//! into a write buffer with the number and string writers of
//! `beehive_sim::json`, so a document costs one buffer however long the run
//! and renders to the same bytes as the `Json` tree the tests keep as the
//! reference. A record's head — `name` and `ph` — is the same for every
//! event of one vocabulary name and phase, so each writer renders it once
//! per pair, on first use, and copies it from then on. [`TraceFile`]
//! puts such a document on disk scenario by scenario, in submission order
//! at any worker count.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use beehive_sim::json::{digit_pair, write_int, write_num, write_str};

use crate::{Arg, EventKind, EventName, Trace, TraceEvent, Track};

/// `pid`s per scenario (server / faas / db / sim).
const PIDS_PER_SCENARIO: u64 = 4;

fn pid_tid(track: Track, base: u64) -> (u64, u64) {
    match track {
        Track::Server => (base, 0),
        Track::Request(r) => (base, r + 1),
        Track::Platform => (base + 1, 0),
        Track::Instance(i) => (base + 1, i as u64 + 1),
        Track::Db => (base + 2, 0),
        Track::Sim => (base + 3, 0),
    }
}

/// Chrome timestamps are microseconds; keep sub-µs precision as a fraction.
/// Rendered from the integer: `q.rrr` with trailing zeros stripped (`.0`
/// when integral) is the shortest decimal that parses back to the `f64`
/// nearest `nanos / 1000` as long as it has at most 15 significant digits.
fn write_micros(nanos: u64, out: &mut String) {
    if nanos >= 1_000_000_000_000_000 {
        return write_num(nanos as f64 / 1000.0, out);
    }
    write_int((nanos / 1000) as i128, out);
    out.push('.');
    let (tenths, rest) = (nanos / 100 % 10, nanos % 100);
    out.push(char::from(b'0' + tenths as u8));
    if rest % 10 != 0 {
        out.push_str(digit_pair(rest));
    } else if rest != 0 {
        out.push(char::from(b'0' + (rest / 10) as u8));
    }
}

/// The phases of [`EventKind`], in [`phase`] order.
const PHASES: [&str; 5] = ["B", "E", "X", "i", "C"];

fn phase(kind: EventKind) -> usize {
    match kind {
        EventKind::Begin => 0,
        EventKind::End => 1,
        EventKind::Complete(_) => 2,
        EventKind::Instant => 3,
        EventKind::Counter(_) => 4,
    }
}

/// A record's fixed head: `,{"name":…,"ph":"…","ts":`.
fn write_head(name: &str, phase: usize, b: &mut String) {
    b.push_str(",{\"name\":");
    write_str(name, b);
    b.push_str(",\"ph\":\"");
    b.push_str(PHASES[phase]);
    b.push_str("\",\"ts\":");
}

/// Bytes buffered before [`ChromeWriter`] writes them out.
const WRITE_AT: usize = 64 << 10;

/// Streams a Chrome trace-event document into `W`, one record at a time:
/// [`open`], then per scenario [`begin_scenario`] and its [`event`]s, then
/// [`close`] and [`finish`]. A writer that skips `open`/`close` produces a
/// *fragment*: the records of scenarios `idx > 0`, which can be appended to
/// a document that already holds the scenarios before them.
///
/// [`open`]: Self::open
/// [`begin_scenario`]: Self::begin_scenario
/// [`event`]: Self::event
/// [`close`]: Self::close
/// [`finish`]: Self::finish
///
/// Write errors are sticky: the first one stops all further output and is
/// what `finish` returns, so the per-event calls stay infallible.
pub struct ChromeWriter<W: Write> {
    out: W,
    buf: String,
    /// First `pid` of the current scenario's block.
    base: u64,
    /// [`write_head`] per vocabulary name × phase, at
    /// `index * PHASES.len() + phase`; rendered on first use.
    heads: Vec<String>,
    err: Option<io::Error>,
}

impl<W: Write> ChromeWriter<W> {
    /// A writer onto `out`; nothing is written yet.
    pub fn new(out: W) -> Self {
        ChromeWriter {
            out,
            buf: String::new(),
            base: 0,
            heads: vec![String::new(); EventName::ALL.len() * PHASES.len()],
            err: None,
        }
    }

    /// Start the document.
    pub fn open(&mut self) {
        self.buf.push_str("{\"traceEvents\":[");
    }

    /// Start scenario `idx` (from 0, in document order): its four
    /// `process_name` records. Scenario 0's first record is the document's
    /// first, so it alone takes no separating comma.
    pub fn begin_scenario(&mut self, idx: usize, label: &str) {
        self.base = 1 + idx as u64 * PIDS_PER_SCENARIO;
        for (off, endpoint) in ["server", "faas", "db", "sim"].iter().enumerate() {
            let b = &mut self.buf;
            if idx > 0 || off > 0 {
                b.push(',');
            }
            b.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
            write_int((self.base + off as u64) as i128, b);
            b.push_str(",\"tid\":0,\"args\":{\"name\":");
            write_str(&format!("{label} · {endpoint}"), b);
            b.push_str("}}");
        }
    }

    /// One event of the current scenario.
    pub fn event(&mut self, e: &TraceEvent) {
        let (pid, tid) = pid_tid(e.track, self.base);
        let (b, ph) = (&mut self.buf, phase(e.kind));
        match e.name.index() {
            Some(i) => {
                let head = &mut self.heads[i * PHASES.len() + ph];
                if head.is_empty() {
                    write_head(e.name.name(), ph, head);
                }
                b.push_str(head);
            }
            None => write_head(e.name.name(), ph, b),
        }
        write_micros(e.at.as_nanos(), b);
        b.push_str(",\"pid\":");
        write_int(pid as i128, b);
        b.push_str(",\"tid\":");
        write_int(tid as i128, b);
        if let EventKind::Complete(d) = e.kind {
            b.push_str(",\"dur\":");
            write_micros(d.as_nanos(), b);
        }
        if let EventKind::Counter(v) = e.kind {
            b.push_str(",\"args\":{\"value\":");
            write_int(v as i128, b);
            b.push('}');
        } else if !e.args.is_empty() {
            b.push_str(",\"args\":");
            for (i, (k, v)) in e.args.iter().enumerate() {
                b.push(if i == 0 { '{' } else { ',' });
                write_str(k, b);
                b.push(':');
                match *v {
                    Arg::Int(v) => write_int(v as i128, b),
                    Arg::UInt(v) => write_int(v as i128, b),
                    Arg::Float(v) => write_num(v, b),
                    Arg::Bool(v) => b.push_str(if v { "true" } else { "false" }),
                    Arg::Str(v) => write_str(v, b),
                }
            }
            b.push('}');
        }
        b.push('}');
        if b.len() >= WRITE_AT {
            self.write_out();
        }
    }

    /// End the document.
    pub fn close(&mut self) {
        self.buf.push_str("],\"displayTimeUnit\":\"ms\"}");
    }

    fn write_out(&mut self) {
        if self.err.is_none() {
            self.err = self.out.write_all(self.buf.as_bytes()).err();
        }
        self.buf.clear();
    }

    /// Write out what is buffered and hand `W` back, or the first error any
    /// write met.
    pub fn finish(mut self) -> io::Result<W> {
        self.write_out();
        match self.err {
            None => Ok(self.out),
            Some(e) => Err(e),
        }
    }
}

/// Labelled traces as one Chrome trace-event document:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
pub fn chrome_trace_string(scenarios: &[(String, Trace)]) -> String {
    let total: usize = scenarios.iter().map(|(_, t)| t.events.len()).sum();
    let mut w = ChromeWriter::new(Vec::with_capacity(64 + total * 96));
    w.open();
    for (idx, (label, trace)) in scenarios.iter().enumerate() {
        w.begin_scenario(idx, label);
        trace.events.iter().for_each(|e| w.event(e));
    }
    w.close();
    let bytes = w.finish().expect("writing to a Vec cannot fail");
    String::from_utf8(bytes).expect("the writer emits UTF-8")
}

/// One Chrome document on disk, streamed scenario by scenario from any
/// number of worker threads and byte-identical whatever their number.
///
/// Scenario `idx` streams straight into the file when every scenario before
/// it already has (always, with one worker); otherwise its fragment spills
/// to `<path>.part<idx>`, which [`finish`](Self::finish) appends in order
/// and removes.
pub struct TraceFile {
    path: PathBuf,
    /// The document's file while no scenario is streaming into it, and how
    /// many scenarios have.
    head: Mutex<(Option<File>, usize)>,
}

/// One scenario's share of a [`TraceFile`].
pub struct ScenarioTrace {
    doc: Arc<TraceFile>,
    writer: ChromeWriter<File>,
    /// Streaming into the document itself, not a part file.
    direct: bool,
}

impl TraceFile {
    /// A document at `path`; nothing is created until scenario 0 opens.
    pub fn new(path: impl Into<PathBuf>) -> Arc<TraceFile> {
        Arc::new(TraceFile {
            path: path.into(),
            head: Mutex::new((None, 0)),
        })
    }

    /// Where the document is (being) written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn part(&self, idx: usize) -> PathBuf {
        let mut name = self.path.clone().into_os_string();
        name.push(format!(".part{idx}"));
        name.into()
    }

    fn head(&self) -> std::sync::MutexGuard<'_, (Option<File>, usize)> {
        self.head.lock().expect("no head-lock holder panics")
    }

    /// Open scenario `idx` (from 0, in submission order).
    pub fn scenario(self: &Arc<Self>, idx: usize, label: &str) -> io::Result<ScenarioTrace> {
        let mut head = self.head();
        let direct = head.1 == idx;
        let mut writer = ChromeWriter::new(if !direct {
            File::create(self.part(idx))?
        } else if idx == 0 {
            File::create(&self.path)?
        } else {
            let returned = head.0.take();
            returned.expect("the scenario before this one handed the file back")
        });
        if idx == 0 {
            writer.open();
        }
        writer.begin_scenario(idx, label);
        Ok(ScenarioTrace {
            doc: Arc::clone(self),
            writer,
            direct,
        })
    }

    /// Complete the document once all of its `scenarios` have finished.
    pub fn finish(&self, scenarios: usize) -> io::Result<()> {
        let (file, streamed) = std::mem::take(&mut *self.head());
        let mut file = match file {
            Some(file) => file,
            None => File::create(&self.path)?, // no scenario at all
        };
        for idx in streamed..scenarios {
            let part = self.part(idx);
            io::copy(&mut File::open(&part)?, &mut file)?;
            std::fs::remove_file(&part)?;
        }
        let mut writer = ChromeWriter::new(file);
        if scenarios == 0 {
            writer.open();
        }
        writer.close();
        writer.finish().map(drop)
    }
}

impl ScenarioTrace {
    /// One event of this scenario.
    pub fn event(&mut self, e: &TraceEvent) {
        self.writer.event(e);
    }

    /// The scenario's last event has been written.
    pub fn finish(self) -> io::Result<()> {
        let file = self.writer.finish()?;
        if self.direct {
            let mut head = self.doc.head();
            *head = (Some(file), head.1 + 1);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_sim::json::Json;
    use beehive_sim::{Duration, Rng, SimTime};

    fn arg_json(a: &Arg) -> Json {
        match *a {
            Arg::Int(v) => Json::Int(v as i128),
            Arg::UInt(v) => Json::Int(v as i128),
            Arg::Float(v) => Json::Num(v),
            Arg::Bool(v) => Json::Bool(v),
            Arg::Str(v) => Json::from(v),
        }
    }

    fn micros(nanos: u64) -> Json {
        // Chrome timestamps are microseconds; keep sub-µs precision as a
        // fraction. f64 division is deterministic (IEEE-754), so rendering is
        // byte-stable.
        Json::Num(nanos as f64 / 1000.0)
    }

    fn event_json(e: &TraceEvent, base: u64) -> Json {
        let (pid, tid) = pid_tid(e.track, base);
        let ph = match e.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Complete(_) => "X",
            EventKind::Instant => "i",
            EventKind::Counter(_) => "C",
        };
        let mut fields: Vec<(String, Json)> = vec![
            ("name".into(), Json::from(e.name.name())),
            ("ph".into(), Json::from(ph)),
            ("ts".into(), micros(e.at.as_nanos())),
            ("pid".into(), Json::Int(pid as i128)),
            ("tid".into(), Json::Int(tid as i128)),
        ];
        if let EventKind::Complete(d) = e.kind {
            fields.push(("dur".into(), micros(d.as_nanos())));
        }
        if let EventKind::Counter(v) = e.kind {
            fields.push((
                "args".into(),
                Json::obj([("value".into(), Json::Int(v as i128))]),
            ));
        } else if !e.args.is_empty() {
            fields.push((
                "args".into(),
                Json::Obj(
                    e.args
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), arg_json(v)))
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }

    fn metadata_json(pid: u64, name: &str) -> Json {
        Json::obj([
            ("name".into(), Json::from("process_name")),
            ("ph".into(), Json::from("M")),
            ("pid".into(), Json::Int(pid as i128)),
            ("tid".into(), Json::Int(0)),
            (
                "args".into(),
                Json::obj([("name".into(), Json::from(name))]),
            ),
        ])
    }

    fn scenario_events(idx: usize, label: &str, trace: &Trace, out: &mut Vec<Json>) {
        let base = 1 + idx as u64 * PIDS_PER_SCENARIO;
        for (off, endpoint) in ["server", "faas", "db", "sim"].iter().enumerate() {
            out.push(metadata_json(
                base + off as u64,
                &format!("{label} · {endpoint}"),
            ));
        }
        for e in &trace.events {
            out.push(event_json(e, base));
        }
    }

    /// The reference the writer is compared against: the same document as a
    /// `Json` tree.
    fn chrome_trace(scenarios: &[(String, Trace)]) -> Json {
        let mut events = Vec::new();
        for (idx, (label, trace)) in scenarios.iter().enumerate() {
            scenario_events(idx, label, trace, &mut events);
        }
        Json::obj([
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::from("ms")),
        ])
    }

    fn sample() -> Vec<(String, Trace)> {
        let at = |us: u64| SimTime::ZERO + Duration::from_micros(us);
        let t = Trace {
            events: vec![
                TraceEvent::new(
                    at(10),
                    Track::Request(3),
                    "req:offload",
                    EventKind::Begin,
                    &[("instance", Arg::UInt(2))],
                ),
                TraceEvent::new(
                    at(12),
                    Track::Instance(2),
                    "gc",
                    EventKind::Complete(Duration::from_micros(4)),
                    &[("copied_bytes", Arg::UInt(4096))],
                ),
                TraceEvent::new(
                    at(20),
                    Track::Request(3),
                    "req:offload",
                    EventKind::End,
                    &[],
                ),
                TraceEvent::new(
                    at(21),
                    Track::Sim,
                    "event_queue",
                    EventKind::Counter(17),
                    &[],
                ),
                TraceEvent::new(
                    at(22),
                    Track::Db,
                    "db:execute",
                    EventKind::Instant,
                    &[("query", Arg::Int(1))],
                ),
            ],
        };
        vec![("BeeHive/OW".to_string(), t)]
    }

    #[test]
    fn export_matches_chrome_schema() {
        let doc = chrome_trace(&sample());
        let Json::Obj(fields) = &doc else {
            panic!("top level must be an object")
        };
        assert_eq!(fields[0].0, "traceEvents");
        let Json::Arr(events) = &fields[0].1 else {
            panic!("traceEvents must be an array")
        };
        // 4 process_name metadata records + 5 events.
        assert_eq!(events.len(), 9);
        let rendered = doc.render();
        assert!(rendered.contains("\"ph\":\"B\""));
        assert!(rendered.contains("\"ph\":\"E\""));
        assert!(rendered.contains("\"ph\":\"X\""));
        assert!(rendered.contains("\"ph\":\"i\""));
        assert!(rendered.contains("\"ph\":\"C\""));
        assert!(rendered.contains("\"name\":\"BeeHive/OW · server\""));
        // Request 3 renders as tid 4 under the server pid 1.
        assert!(rendered.contains("\"pid\":1,\"tid\":4"));
        // Instance 2 renders as tid 3 under the faas pid 2.
        assert!(rendered.contains("\"pid\":2,\"tid\":3"));
    }

    #[test]
    fn string_rendering_equals_tree_rendering() {
        let scenarios = sample();
        assert_eq!(
            chrome_trace_string(&scenarios),
            chrome_trace(&scenarios).render()
        );
    }

    #[test]
    fn round_trips_through_the_strict_parser() {
        let s = chrome_trace_string(&sample());
        let parsed = Json::parse(&s).expect("exporter must emit valid RFC 8259 JSON");
        assert_eq!(parsed.render(), s);
    }

    #[test]
    fn empty_trace_is_well_formed() {
        // A scenario with no events still gets its metadata block, and both
        // renderers agree and emit valid JSON.
        let scenarios = vec![("empty".to_string(), Trace { events: Vec::new() })];
        let s = chrome_trace_string(&scenarios);
        assert_eq!(s, chrome_trace(&scenarios).render());
        let parsed = Json::parse(&s).expect("empty trace must render valid JSON");
        assert_eq!(parsed.render(), s);
        assert!(s.contains("\"name\":\"empty · server\""));
        // No scenarios at all is also fine.
        let none = chrome_trace_string(&[]);
        assert_eq!(Json::parse(&none).expect("must parse").render(), none);
        assert!(none.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn counter_only_track_is_well_formed() {
        let at = |us: u64| SimTime::ZERO + Duration::from_micros(us);
        let t = Trace {
            events: (0..3)
                .map(|i| {
                    TraceEvent::new(
                        at(10 * (i + 1)),
                        Track::Sim,
                        "server_pool",
                        EventKind::Counter(i as i64 * 5),
                        &[],
                    )
                })
                .collect(),
        };
        let scenarios = vec![("counters".to_string(), t)];
        let s = chrome_trace_string(&scenarios);
        let parsed = Json::parse(&s).expect("counter-only trace must parse");
        assert_eq!(parsed.render(), s);
        // All three samples render as C-phase events with a value arg.
        assert_eq!(s.matches("\"ph\":\"C\"").count(), 3);
        assert!(s.contains("\"args\":{\"value\":10}"));
    }

    #[test]
    fn unmatched_begin_is_well_formed() {
        // A span still open at the end of the run (request in flight at the
        // horizon) renders as a lone B event; viewers auto-close these, and
        // the document must stay valid JSON.
        let t = Trace {
            events: vec![TraceEvent::new(
                SimTime::ZERO + Duration::from_micros(7),
                Track::Request(1),
                "req:offload",
                EventKind::Begin,
                &[],
            )],
        };
        let scenarios = vec![("open-span".to_string(), t)];
        let s = chrome_trace_string(&scenarios);
        let parsed = Json::parse(&s).expect("unmatched begin must render valid JSON");
        assert_eq!(parsed.render(), s);
        assert_eq!(s.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(s.matches("\"ph\":\"E\"").count(), 0);
    }

    #[test]
    fn second_scenario_gets_its_own_pid_block() {
        let mut scenarios = sample();
        scenarios.push(("Vanilla".to_string(), scenarios[0].1.clone()));
        let rendered = chrome_trace(&scenarios).render();
        assert!(rendered.contains("\"name\":\"Vanilla · server\""));
        // Scenario 1's server pid is 1 + 1*4 = 5.
        assert!(rendered.contains("\"pid\":5,\"tid\":4"));
    }

    fn at_nanos(n: u64) -> SimTime {
        SimTime::ZERO + Duration::from_nanos(n)
    }

    #[test]
    fn writer_matches_the_tree_on_every_kind_arg_and_escape() {
        let kinds = [
            EventKind::Begin,
            EventKind::End,
            EventKind::Complete(Duration::from_nanos(1_500)),
            EventKind::Instant,
            EventKind::Counter(-3),
        ];
        let args: [Vec<(&'static str, Arg)>; 7] = [
            vec![],
            vec![("i", Arg::Int(i64::MIN))],
            vec![("u", Arg::UInt(u64::MAX))],
            vec![("f", Arg::Float(0.1)), ("whole", Arg::Float(2.0))],
            vec![("nan", Arg::Float(f64::NAN)), ("b", Arg::Bool(false))],
            vec![("s", Arg::Str("plain")), ("t", Arg::Bool(true))],
            vec![("k\"ey\n", Arg::Str("tab\there \\ \u{1} é"))],
        ];
        let tracks = [
            Track::Server,
            Track::Request(41),
            Track::Instance(7),
            Track::Platform,
            Track::Db,
            Track::Sim,
        ];
        let mut events = Vec::new();
        for (i, kind) in kinds.into_iter().enumerate() {
            for (j, args) in args.iter().enumerate() {
                events.push(TraceEvent::new(
                    at_nanos(1_000 * i as u64 + j as u64),
                    tracks[(i + j) % tracks.len()],
                    ["fallback:data", "gc", "we\"ird:na\\me\n"][(i + j) % 3],
                    kind,
                    args,
                ));
            }
        }
        let scenarios = vec![
            ("a \"quoted\" label".to_string(), Trace { events }),
            ("second".to_string(), sample().remove(0).1),
        ];
        let s = chrome_trace_string(&scenarios);
        assert_eq!(s, chrome_trace(&scenarios).render());
        assert_eq!(Json::parse(&s).expect("valid JSON").render(), s);
    }

    #[test]
    fn cached_heads_match_the_tree_for_every_name_and_phase() {
        let kinds = [
            EventKind::Begin,
            EventKind::End,
            EventKind::Complete(Duration::from_nanos(2_010)),
            EventKind::Instant,
            EventKind::Counter(9),
        ];
        let others = ["bench", "a:b:c", ":", "we\"ird:na\\me\n"];
        let names = EventName::ALL.iter().map(|n| n.name()).chain(others);
        let mut events = Vec::new();
        for (i, name) in names.enumerate() {
            for kind in kinds {
                // Twice each: the second record copies the cached head.
                for rep in 0..2 {
                    let at = at_nanos(7_000 * i as u64 + rep);
                    events.push(TraceEvent::new(at, Track::Request(3), name, kind, &[]));
                }
            }
        }
        assert_eq!(events.len(), (EventName::ALL.len() + others.len()) * 10);
        let scenarios = vec![("heads".to_string(), Trace { events })];
        let s = chrome_trace_string(&scenarios);
        assert_eq!(s, chrome_trace(&scenarios).render());
        assert_eq!(Json::parse(&s).expect("valid JSON").render(), s);
    }

    #[test]
    fn unknown_names_render_as_their_text() {
        let at = SimTime::ZERO + Duration::from_micros(3);
        let bench = TraceEvent::new(at, Track::Request(7), "bench", EventKind::Instant, &[]);
        assert_eq!(bench.name, crate::EventName::Other("bench"));
        let s = chrome_trace_string(&[(
            "u".into(),
            Trace {
                events: vec![bench],
            },
        )]);
        assert!(
            s.contains("{\"name\":\"bench\",\"ph\":\"i\",\"ts\":3.0,\"pid\":1,\"tid\":8}"),
            "{s}"
        );
        assert_eq!(
            s,
            chrome_trace(&[(
                "u".into(),
                Trace {
                    events: vec![bench]
                }
            )])
            .render()
        );
    }

    #[test]
    fn timestamps_match_the_float_rendering() {
        let mut nanos = vec![0, 1, 10, 100, 999, 1_000, 1_001, 1_010, 1_100];
        nanos.extend([1_000_000_000_001, 999_999_999_999_999]);
        // From 10^15 ns on the writer takes the float path itself.
        nanos.extend([1_000_000_000_000_000, 1_000_000_000_000_001, u64::MAX]);
        let mut rng = Rng::new(0xC420);
        for _ in 0..10_000 {
            nanos.push(rng.next_u64() >> rng.gen_range(64));
        }
        for n in nanos {
            let mut direct = String::new();
            write_micros(n, &mut direct);
            assert_eq!(direct, micros(n).render(), "{n} ns");
        }
    }

    #[test]
    fn trace_file_is_the_same_document_in_any_completion_order() {
        let scenarios: Vec<(String, Trace)> = ["a", "b", "c", "d"]
            .into_iter()
            .map(|l| (l.to_string(), sample().remove(0).1))
            .collect();
        let expected = chrome_trace_string(&scenarios);
        let dir = std::env::temp_dir().join(format!("beehive-tracefile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |s: &mut ScenarioTrace, t: &Trace| t.events.iter().for_each(|e| s.event(e));
        // Each order lists the scenarios as they open; `true` finishes the
        // scenario right away (one worker), `false` leaves it running while
        // later ones open (several workers) and finishes it last-opened-first.
        for (round, eager) in [true, false].into_iter().enumerate() {
            let path = dir.join(format!("doc{round}.trace.json"));
            let file = TraceFile::new(&path);
            let mut running = Vec::new();
            for (idx, (label, trace)) in scenarios.iter().enumerate() {
                let mut s = file.scenario(idx, label).unwrap();
                write(&mut s, trace);
                if eager {
                    s.finish().unwrap();
                } else {
                    running.push(s);
                }
            }
            while let Some(s) = running.pop() {
                s.finish().unwrap();
            }
            file.finish(scenarios.len()).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        }
        // No scenario at all is still a document, and no part file is left.
        let empty = TraceFile::new(dir.join("empty.trace.json"));
        empty.finish(0).unwrap();
        assert_eq!(
            std::fs::read_to_string(empty.path()).unwrap(),
            chrome_trace_string(&[])
        );
        let mut left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(
            left,
            ["doc0.trace.json", "doc1.trace.json", "empty.trace.json"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
