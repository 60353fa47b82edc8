//! The layer pass's own tracing: one span per call into a layer, recorded
//! in memory on the host clock and written out when the pass ends. The
//! program under test is not touched — spans are taken here, around the
//! calls into its public functions.

use std::time::Instant;

use beehive_sim::json::Json;

/// One recorded span. `parent` indexes [`Spans::spans`].
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The scenario shape the call belonged to (`""` outside any shape).
    pub shape: String,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span recorder: a stack of open spans over a flat list.
pub struct Spans {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    shape: String,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            shape: String::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Set the shape label that spans opened from now on carry.
    pub fn set_shape(&mut self, shape: &str) {
        self.shape = shape.to_string();
    }

    /// Open a span named `name`, child of the innermost open span; close it
    /// with [`Spans::close`]. Spans close in the reverse order they opened.
    pub fn open(&mut self, name: &str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            shape: self.shape.clone(),
        });
        self.open.push(idx);
        idx
    }

    /// Close the span [`Spans::open`] returned; its duration in seconds.
    pub fn close(&mut self, idx: usize) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (end_ns - self.spans[idx].start_ns) as f64 / 1e9
    }

    /// Run `f` inside a span named `name`. Returns `f`'s value and the
    /// span's duration in seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let idx = self.open(name);
        let r = f();
        (r, self.close(idx))
    }

    /// Chrome trace-event document (complete `X` events, µs, host clock).
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name".to_string(), Json::from(s.name.clone())),
                    ("cat".to_string(), Json::from(s.shape.clone())),
                    ("ph".to_string(), Json::from("X")),
                    ("ts".to_string(), Json::from(s.start_ns as f64 / 1e3)),
                    ("dur".to_string(), Json::from(s.duration_ns() as f64 / 1e3)),
                    ("pid".to_string(), Json::from(1u64)),
                    ("tid".to_string(), Json::from(1u64)),
                ])
            })
            .collect();
        Json::obj([("traceEvents".to_string(), Json::Arr(events))])
    }

    /// `layers.json`'s span table: every span with its self time.
    pub fn to_json(&self) -> Json {
        let selfs = self_times_ns(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    Json::obj([
                        ("name".to_string(), Json::from(s.name.clone())),
                        ("shape".to_string(), Json::from(s.shape.clone())),
                        ("start_ns".to_string(), Json::from(s.start_ns)),
                        ("end_ns".to_string(), Json::from(s.end_ns)),
                        ("parent".to_string(), Json::from(s.parent)),
                        ("self_ns".to_string(), Json::from(self_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Each span's self time: its duration minus the part of that interval its
/// direct children cover (children of one parent never overlap — the recorder
/// is a stack — so the covered part is their sum).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            shape: String::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),       // sibling 1
            span("a.inner", 15, 25, Some(1)), // nested under a
            span("b", 50, 90, Some(0)),       // sibling 2
        ];
        // root: 100 - (30 + 40); a: 30 - 10; inner and b: leaves.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut s = Spans::new();
        s.set_shape("steady");
        let outer = s.open("outer");
        s.span("first", || std::hint::black_box(1 + 1));
        let second = s.open("second");
        s.span("leaf", || ());
        s.close(second);
        assert!(s.close(outer) >= 0.0);
        let names: Vec<&str> = s.spans.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["outer", "first", "second", "leaf"]);
        let parents: Vec<Option<usize>> = s.spans.iter().map(|x| x.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(s
            .spans
            .iter()
            .all(|x| x.shape == "steady" && x.end_ns >= x.start_ns));
        // Self times never exceed durations and children fit in parents.
        let selfs = self_times_ns(&s.spans);
        assert!(selfs
            .iter()
            .zip(&s.spans)
            .all(|(t, x)| *t <= x.duration_ns()));
        let doc = s.chrome_trace().render();
        assert!(doc.starts_with("{\"traceEvents\":[{\"name\":\"outer\""));
    }
}
