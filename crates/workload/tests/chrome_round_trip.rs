//! The Chrome trace document loses nothing. `repro table5 --quick --seed
//! 42 --obs DIR`'s runs and one run under chaos are streamed into a trace
//! document the way `--obs` writes `DIR/<item>.trace.json`
//! ([`TraceFile`]), and every record of it, parsed back with
//! `beehive_sim::json`, rebuilds the event it was rendered from: its track
//! (by inverting the `pid`/`tid` mapping), name, kind, timestamp, duration
//! and arguments, integers compared by value. No record carries a field a
//! reader could derive: no `cat` (the name up to its first `:`) and no `s`
//! on an instant (the format's default scope).
//!
//! Scenarios run one at a time, so each streams straight into the document
//! and is checked, and its events dropped, before the next one runs.

use std::sync::{Arc, Mutex};

use beehive_apps::AppKind;
use beehive_sim::json::Json;
use beehive_sim::SimTime;
use beehive_telemetry::chrome::{ScenarioTrace, TraceFile};
use beehive_telemetry::summary::{Arrival, Consumer};
use beehive_telemetry::{Arg, EventKind, EventName, TraceEvent, Track};
use beehive_workload::engine::{run_collected, Collector, Scenario};
use beehive_workload::experiment::recovery::recovery;
use beehive_workload::experiment::table5::table5;
use beehive_workload::experiment::Profile;
use beehive_workload::{SimConfig, SimResult};

const HEAD: &str = "{\"traceEvents\":[";
const TAIL: &str = "],\"displayTimeUnit\":\"ms\"}";

/// An argument value as the document can tell it: integers by value,
/// whatever their sign type, and a float that is not finite as `null`.
#[derive(Debug, PartialEq)]
enum Value {
    Int(i128),
    Num(f64),
    Null,
    Bool(bool),
    Str(String),
}

/// Everything a record says about its event.
#[derive(Debug, PartialEq)]
struct Rebuilt {
    track: Track,
    name: String,
    kind: EventKind,
    at: SimTime,
    args: Vec<(String, Value)>,
}

impl Rebuilt {
    /// What the recorded event says.
    fn of(e: &TraceEvent) -> Rebuilt {
        let value = |a: &Arg| match *a {
            Arg::Int(v) => Value::Int(v.into()),
            Arg::UInt(v) => Value::Int(v.into()),
            Arg::Float(v) if v.is_finite() => Value::Num(v),
            Arg::Float(_) => Value::Null,
            Arg::Bool(v) => Value::Bool(v),
            Arg::Str(v) => Value::Str(v.to_string()),
        };
        Rebuilt {
            track: e.track,
            name: e.name.name().to_string(),
            kind: e.kind,
            at: e.at,
            args: e
                .args
                .iter()
                .map(|(k, v)| (k.to_string(), value(v)))
                .collect(),
        }
    }

    /// What `record`, of the scenario whose `pid`s start at `base`, says.
    fn parse(record: &Json, base: u64) -> Rebuilt {
        let Json::Obj(fields) = record else {
            panic!("a record that is not an object: {record}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let ph = record.str_field("ph").unwrap();
        let mut expected = vec!["name", "ph", "ts", "pid", "tid"];
        if ph == "X" {
            expected.push("dur");
        }
        if record.get("args").is_some() {
            expected.push("args");
        }
        assert_eq!(keys, expected, "{record}");
        let nanos = |key| {
            let Some(&Json::Num(us)) = record.get(key) else {
                panic!("{key} is not a float: {record}");
            };
            (us * 1000.0).round() as u64
        };
        let field = |key| record.field::<u64>(key).unwrap();
        let mut args = match record.get("args") {
            Some(Json::Obj(args)) => {
                assert!(!args.is_empty(), "an empty args object: {record}");
                args.iter().map(|(k, v)| (k.clone(), value(v))).collect()
            }
            Some(other) => panic!("args is not an object: {other}"),
            None => Vec::new(),
        };
        let kind = match ph {
            "B" => EventKind::Begin,
            "E" => EventKind::End,
            "X" => EventKind::Complete(beehive_sim::Duration::from_nanos(nanos("dur"))),
            "i" => EventKind::Instant,
            "C" => match args.as_slice() {
                [(key, Value::Int(v))] if key == "value" => {
                    let v = i64::try_from(*v).unwrap();
                    args.clear();
                    EventKind::Counter(v)
                }
                _ => panic!("a counter without its one value: {record}"),
            },
            other => panic!("phase {other:?}: {record}"),
        };
        Rebuilt {
            track: track(field("pid"), field("tid"), base),
            name: record.str_field("name").unwrap().to_string(),
            kind,
            at: SimTime::from_nanos(nanos("ts")),
            args,
        }
    }
}

fn value(v: &Json) -> Value {
    match v {
        Json::Int(v) => Value::Int(*v),
        Json::Num(v) => Value::Num(*v),
        Json::Null => Value::Null,
        Json::Bool(v) => Value::Bool(*v),
        Json::Str(v) => Value::Str(v.clone()),
        other => panic!("an argument that is not a scalar: {other}"),
    }
}

/// The track a `pid`/`tid` pair stands for, in the scenario whose four
/// `pid`s (server, FaaS, database, kernel) start at `base`.
fn track(pid: u64, tid: u64, base: u64) -> Track {
    match (pid.checked_sub(base), tid) {
        (Some(0), 0) => Track::Server,
        (Some(0), t) => Track::Request(t - 1),
        (Some(1), 0) => Track::Platform,
        (Some(1), t) => Track::Instance(u32::try_from(t - 1).unwrap()),
        (Some(2), 0) => Track::Db,
        (Some(3), 0) => Track::Sim,
        _ => panic!("pid {pid} tid {tid} is no track of the scenario at pid {base}"),
    }
}

/// The objects of `text`, a comma-separated run of them, each as its own
/// text.
fn records(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let (record, after) = rest.split_at(object_len(rest));
        out.push(record);
        rest = match after.strip_prefix(',') {
            Some("") => panic!("a trailing comma"),
            Some(next) => next,
            None if after.is_empty() => after,
            None => panic!("records are separated by commas: {after:.40}"),
        };
    }
    out
}

/// The length of the object `text` starts with. Braces inside strings do
/// not count.
fn object_len(text: &str) -> usize {
    assert!(text.starts_with('{'), "not a record: {text:.40}");
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    for (i, b) in text.bytes().enumerate() {
        match (in_str, b) {
            (true, _) if escaped => escaped = false,
            (true, b'\\') => escaped = true,
            (_, b'"') => in_str = !in_str,
            (false, b'{') => depth += 1,
            (false, b'}') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    panic!("a record is cut off: {text:.40}")
}

/// What the checked scenarios showed, for the coverage asserts.
#[derive(Debug, Default)]
struct Seen {
    scenarios: usize,
    events: usize,
    /// Records per phase, in `B`, `E`, `X`, `i`, `C` order.
    phases: [usize; 5],
    with_args: usize,
    db_rounds: usize,
    /// `chaos:*` and `recovery*` records.
    faults: usize,
}

/// Streams each scenario into one document and checks its records once
/// it is written.
struct Doc {
    file: Arc<TraceFile>,
    seen: Arc<Mutex<Seen>>,
}

struct Sink {
    trace: ScenarioTrace,
    events: Vec<TraceEvent>,
    idx: usize,
    label: String,
    /// Where the scenario's records start in the document.
    offset: usize,
    file: Arc<TraceFile>,
    seen: Arc<Mutex<Seen>>,
}

impl Collector for Doc {
    fn open(&self, seq: usize, label: &str, _: &mut SimConfig) -> Option<Box<dyn Consumer>> {
        let offset = std::fs::metadata(self.file.path()).map_or(0, |m| m.len() as usize);
        Some(Box::new(Sink {
            trace: self.file.scenario(seq, label).unwrap(),
            events: Vec::new(),
            idx: seq,
            label: label.to_string(),
            offset,
            file: Arc::clone(&self.file),
            seen: Arc::clone(&self.seen),
        }))
    }

    fn close(&self, _: usize, _: &str, _: &mut SimResult) {}
}

impl Consumer for Sink {
    fn event(&mut self, e: &TraceEvent, _: Option<Arrival>) {
        self.trace.event(e);
        self.events.push(*e);
    }

    fn finish(self: Box<Self>) {
        let Sink {
            trace,
            events,
            idx,
            label,
            offset,
            file,
            seen,
        } = *self;
        trace.finish().unwrap();
        let doc = std::fs::read_to_string(file.path()).unwrap();
        let text = &doc[offset..];
        let text = match idx {
            0 => text.strip_prefix(HEAD).expect("the document's head"),
            _ => text
                .strip_prefix(',')
                .expect("a comma after the scenario before"),
        };
        let records = records(text);
        assert_eq!(records.len(), 4 + events.len(), "{label}");
        let base = 1 + 4 * idx as u64;
        for (off, endpoint) in ["server", "faas", "db", "sim"].iter().enumerate() {
            let meta = Json::parse(records[off]).unwrap();
            assert_eq!(meta.str_field("ph"), Ok("M"));
            assert_eq!(meta.field::<u64>("pid"), Ok(base + off as u64));
            let name = meta.get("args").unwrap().str_field("name").unwrap();
            assert_eq!(name, format!("{label} · {endpoint}"));
        }
        let mut seen = seen.lock().unwrap();
        for (record, e) in records[4..].iter().zip(&events) {
            let parsed = Json::parse(record).expect("a record is valid JSON");
            assert_eq!(Rebuilt::parse(&parsed, base), Rebuilt::of(e), "{record}");
            let phase = ["B", "E", "X", "i", "C"]
                .iter()
                .position(|&p| parsed.str_field("ph") == Ok(p));
            seen.phases[phase.unwrap()] += 1;
            seen.with_args += usize::from(parsed.get("args").is_some());
            seen.db_rounds += usize::from(e.name == EventName::DbRound);
            let name = e.name.name();
            seen.faults += usize::from(name.starts_with("chaos:") || name.starts_with("recovery"));
        }
        seen.scenarios += 1;
        seen.events += events.len();
    }
}

/// Run `scenarios` one at a time into a document named `name`, check it as
/// above, and return what the checks saw.
fn round_trip(name: &str, scenarios: Vec<Scenario>) -> Seen {
    let dir =
        std::env::temp_dir().join(format!("beehive-round-trip-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc = Doc {
        file: TraceFile::new(dir.join(format!("{name}.trace.json"))),
        seen: Arc::default(),
    };
    let n = scenarios.len();
    run_collected(scenarios, 1, Some(&doc));
    doc.file.finish(n).unwrap();
    let text = std::fs::read_to_string(doc.file.path()).unwrap();
    assert!(text.starts_with(HEAD) && text.ends_with(TAIL));
    let body = &text[HEAD.len()..text.len() - TAIL.len()];
    let seen = std::mem::take(&mut *doc.seen.lock().unwrap());
    assert_eq!(records(body).len(), 4 * n + seen.events, "{name}");
    assert_eq!(seen.scenarios, n);
    std::fs::remove_dir_all(&dir).unwrap();
    seen
}

#[test]
fn table5_quick_records_rebuild_their_events() {
    let plan = table5(&AppKind::all(), Profile::quick());
    let seen = round_trip("table5", plan.scenarios);
    assert!(seen.phases.iter().all(|&n| n > 1_000), "{seen:?}");
    assert!(
        seen.with_args > 10_000 && seen.db_rounds > 1_000,
        "{seen:?}"
    );
}

#[test]
fn a_chaos_runs_records_rebuild_their_events() {
    // The highest crash rate of the recovery sweep, cut to its first 12 s:
    // crashes, boot failures, dropped RPCs and database connections,
    // recoveries.
    let mut plan = recovery(AppKind::Thumbnail, Profile::quick(), 42);
    let mut chaos = plan.scenarios.pop().unwrap();
    assert!(chaos.label.ends_with("crash_rate=2"), "{}", chaos.label);
    chaos.cfg.horizon = beehive_sim::Duration::from_secs(12);
    let seen = round_trip("recovery", vec![chaos]);
    assert!(seen.phases.iter().all(|&n| n > 100), "{seen:?}");
    assert!(seen.faults > 10, "{seen:?}");
}
