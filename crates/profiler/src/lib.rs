//! # beehive-profiler — exact-attribution call-tree profiling in virtual time
//!
//! BeeHive's root-method selection rests on a profiler that records
//! invocation counts and accumulated execution time per candidate method
//! (§4.3). This crate generalizes that to *every* method: the resumable
//! interpreter drives the recorder on each frame push/pop, so the profile is
//! an exact attribution of virtual CPU time to a call tree — no sampling,
//! no skid. Trees are keyed by endpoint *lane* (`server`, `faas:primary`,
//! `faas:shadow`), which puts a method's server cost next to its FaaS cost
//! in one artifact, and non-method costs (fallback round trips, GC pauses,
//! monitor hand-offs, DB rounds) are folded into the same tree as
//! *synthetic frames* attached to the bytecode site that triggered them.
//!
//! The recorder follows the `beehive-telemetry` sink design: a thread-local
//! `Option<Recorder>`, and probes that are a single thread-local check when
//! no recorder is installed.
//!
//! Virtual time only: probes receive the interpreter's accumulated per-run
//! CPU counter, never the wall clock, so a profile is byte-identical for a
//! given seed regardless of worker count or host.
//!
//! Exports: Brendan Gregg collapsed-stack text ([`Profile::folded`],
//! flamegraph.pl / inferno compatible), a JSON call tree
//! ([`Profile::to_json`]) and per-lane hottest-method tables
//! ([`Profile::hottest`]). [`parse_folded`] round-trips the folded format.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::HashMap;

use beehive_sim::json::Json;
use beehive_sim::Duration;

/// One frame in the profile tree: a method (by raw [`u32`] id — this crate
/// does not depend on the VM) or a synthetic cost frame such as `[gc]`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FrameKey {
    /// A bytecode method, by raw method id.
    Method(u32),
    /// A synthetic non-method cost: `[fallback:code]`, `[gc]`, `[db]`, ….
    Synthetic(&'static str),
}

#[derive(Clone, Debug)]
struct Node {
    frame: FrameKey,
    children: Vec<(FrameKey, usize)>,
    self_time: Duration,
    calls: u64,
}

impl Node {
    fn new(frame: FrameKey) -> Node {
        Node {
            frame,
            children: Vec::new(),
            self_time: Duration::ZERO,
            calls: 0,
        }
    }
}

/// A stable handle to the tree position where an execution last blocked;
/// synthetic frames for deferred costs (monitor hand-offs applied on a later
/// resume, server GC finished by the driver) attach here.
#[derive(Clone, Copy, Debug)]
pub struct ProfMark(usize);

/// Per-instance execution totals (the per-lane trees merge instances so
/// goldens stay small; this table keeps each FaaS instance visible).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstanceTotals {
    /// Virtual CPU nanoseconds executed on the instance.
    pub self_ns: u64,
    /// Interpreter run segments executed on the instance.
    pub segments: u64,
}

/// One lane of the forest: its name, its root node, and the path its last
/// segment closed on (root first), which the next segment on the lane
/// starts from.
#[derive(Debug)]
struct Lane {
    name: &'static str,
    root: usize,
    path: Vec<usize>,
}

/// The recording sink: a forest of call trees, one root per lane.
#[derive(Debug, Default)]
pub struct Recorder {
    nodes: Vec<Node>,
    lanes: Vec<Lane>,
    /// The open segment's lane (an index into `lanes`).
    lane: usize,
    stack: Vec<usize>,
    watermark: Duration,
    leaf: Option<usize>,
    instance: Option<u32>,
    instances: BTreeMap<u32, InstanceTotals>,
}

impl Recorder {
    fn lane_index(&mut self, name: &'static str) -> usize {
        if let Some(i) = self.lanes.iter().position(|l| l.name == name) {
            return i;
        }
        let root = self.nodes.len();
        self.nodes.push(Node::new(FrameKey::Synthetic(name)));
        self.lanes.push(Lane {
            name,
            root,
            path: vec![root],
        });
        self.lanes.len() - 1
    }

    fn child_of(&mut self, parent: usize, frame: FrameKey) -> usize {
        if let Some(&(_, idx)) = self.nodes[parent]
            .children
            .iter()
            .find(|(f, _)| *f == frame)
        {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::new(frame));
        self.nodes[parent].children.push((frame, idx));
        idx
    }

    /// Charge `cpu - watermark` to the current top of stack.
    fn flush(&mut self, cpu: Duration) {
        let delta = cpu.saturating_sub(self.watermark);
        self.watermark = cpu;
        if delta.is_zero() {
            return;
        }
        if let Some(&top) = self.stack.last() {
            self.nodes[top].self_time += delta;
            if let Some(id) = self.instance {
                self.instances.entry(id).or_default().self_ns += delta.as_nanos();
            }
        }
    }

    fn begin_segment(
        &mut self,
        lane: &'static str,
        instance: Option<u32>,
        frames: impl Iterator<Item = u32>,
        first: bool,
    ) {
        self.park_path();
        self.lane = self.lane_index(lane);
        self.stack = std::mem::take(&mut self.lanes[self.lane].path);
        self.watermark = Duration::ZERO;
        self.instance = instance;
        if let Some(id) = instance {
            self.instances.entry(id).or_default().segments += 1;
        }
        // Rebuild the execution's existing frames: executions from
        // different requests interleave on one thread across run segments,
        // so the current path is rebuilt per segment. It starts from the
        // lane's last path, kept while the frames agree with it: node k+1
        // of any path is node k's child for its frame, so a prefix that
        // agrees is the path `child_of` would find. Only the first segment
        // of an execution counts a root invocation; deeper frames were
        // counted when their push was recorded.
        let mut depth = 1;
        for m in frames {
            let frame = FrameKey::Method(m);
            let idx = match self.stack.get(depth) {
                Some(&idx) if self.nodes[idx].frame == frame => idx,
                _ => {
                    self.stack.truncate(depth);
                    let idx = self.child_of(self.stack[depth - 1], frame);
                    self.stack.push(idx);
                    idx
                }
            };
            if first && depth == 1 {
                self.nodes[idx].calls += 1;
            }
            depth += 1;
        }
        self.stack.truncate(depth);
    }

    fn push(&mut self, method: u32, cpu: Duration) {
        self.flush(cpu);
        let Some(&parent) = self.stack.last() else {
            return; // no open segment: a probe outside the interpreter driver
        };
        let idx = self.child_of(parent, FrameKey::Method(method));
        self.nodes[idx].calls += 1;
        self.stack.push(idx);
    }

    fn pop(&mut self, cpu: Duration) {
        self.flush(cpu);
        if self.stack.len() > 1 {
            self.stack.pop();
        }
    }

    fn end_segment(&mut self, cpu: Duration) {
        self.flush(cpu);
        self.leaf = self.stack.last().copied();
        self.park_path();
        self.instance = None;
    }

    /// Hand the open segment's path, if any, back to its lane.
    fn park_path(&mut self) {
        if !self.stack.is_empty() {
            self.lanes[self.lane].path = std::mem::take(&mut self.stack);
        }
    }

    fn synthetic(&mut self, at: usize, name: &'static str, d: Duration) {
        let idx = self.child_of(at, FrameKey::Synthetic(name));
        self.nodes[idx].calls += 1;
        self.nodes[idx].self_time += d;
    }

    fn into_raw(self) -> RawProfile {
        RawProfile {
            nodes: self.nodes,
            lanes: self.lanes.iter().map(|l| (l.name, l.root)).collect(),
            instances: self.instances,
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Install a fresh recorder on this thread. Replaces any existing one.
pub fn install() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::default()));
}

/// Remove this thread's recorder and return what it collected.
pub fn take() -> Option<RawProfile> {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(Recorder::into_raw)
}

/// `true` when a recorder is installed on this thread. Probe call sites use
/// this to skip argument construction entirely.
#[inline]
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Open a run segment: set the lane, rebuild the current frame path, reset
/// the CPU watermark. `first` marks the execution's first segment (counts
/// the root invocation).
#[inline]
pub fn begin_segment(
    lane: &'static str,
    instance: Option<u32>,
    frames: impl Iterator<Item = u32>,
    first: bool,
) {
    with_recorder(|r| r.begin_segment(lane, instance, frames, first));
}

/// Record a frame push at `cpu` nanoseconds into the current segment.
#[inline]
pub fn push(method: u32, cpu: Duration) {
    with_recorder(|r| r.push(method, cpu));
}

/// Record a frame pop at `cpu` nanoseconds into the current segment.
#[inline]
pub fn pop(cpu: Duration) {
    with_recorder(|r| r.pop(cpu));
}

/// Close the current segment, flushing the remaining CPU to the open frame
/// and remembering it as the [`mark`] target.
#[inline]
pub fn end_segment(cpu: Duration) {
    with_recorder(|r| r.end_segment(cpu));
}

/// The tree position where the last closed segment stopped — the bytecode
/// site that triggered whatever blocked the execution.
#[inline]
pub fn mark() -> Option<ProfMark> {
    RECORDER.with(|r| r.borrow().as_ref().and_then(|rec| rec.leaf.map(ProfMark)))
}

/// Attach `d` of synthetic cost named `name` under `mark`'s tree position.
#[inline]
pub fn synthetic(mark: ProfMark, name: &'static str, d: Duration) {
    with_recorder(|r| r.synthetic(mark.0, name, d));
}

/// §4.3 per-method bookkeeping: invocation count and accumulated virtual
/// execution time. The server's root-selection profiler and the call-tree
/// aggregation both use this one type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MethodProfile {
    /// Completed invocations observed.
    pub invocations: u64,
    /// Accumulated virtual execution time.
    pub total_time: Duration,
}

impl MethodProfile {
    /// Average execution time per invocation (zero when never invoked).
    pub fn average(&self) -> Duration {
        if self.invocations == 0 {
            Duration::ZERO
        } else {
            self.total_time / self.invocations
        }
    }
}

/// Per-method aggregation keyed by raw method id — the single bookkeeping
/// path behind both the server's §4.3 profiler and [`RawProfile::aggregate`].
#[derive(Clone, Debug, Default)]
pub struct Aggregate {
    samples: HashMap<u32, MethodProfile>,
}

impl Aggregate {
    /// An empty aggregation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed invocation of `method` taking `elapsed`.
    pub fn record(&mut self, method: u32, elapsed: Duration) {
        let p = self.samples.entry(method).or_default();
        p.invocations += 1;
        p.total_time += elapsed;
    }

    /// The profile recorded for `method`, if any.
    pub fn get(&self, method: u32) -> Option<&MethodProfile> {
        self.samples.get(&method)
    }

    /// Number of distinct methods sampled.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// The unresolved output of a [`Recorder`]: method frames still carry raw
/// ids. [`RawProfile::resolve`] turns them into names.
#[derive(Clone, Debug)]
pub struct RawProfile {
    nodes: Vec<Node>,
    lanes: Vec<(&'static str, usize)>,
    instances: BTreeMap<u32, InstanceTotals>,
}

impl RawProfile {
    /// Derive §4.3 [`MethodProfile`]s from the call tree: per method (over
    /// all lanes and call sites), invocations and total time — self time
    /// plus everything beneath the frame, synthetic costs included.
    pub fn aggregate(&self) -> Aggregate {
        let mut agg = Aggregate::new();
        let totals: Vec<Duration> = self.total_times();
        for (i, n) in self.nodes.iter().enumerate() {
            if let FrameKey::Method(m) = n.frame {
                let p = agg.samples.entry(m).or_default();
                p.invocations += n.calls;
                p.total_time += totals[i];
            }
        }
        agg
    }

    fn total_times(&self) -> Vec<Duration> {
        // Children always have larger indices than their parent (arena is
        // append-only, children created after), so one reverse pass folds
        // subtree totals bottom-up.
        let mut totals: Vec<Duration> = self.nodes.iter().map(|n| n.self_time).collect();
        for i in (0..self.nodes.len()).rev() {
            for &(_, c) in &self.nodes[i].children {
                let t = totals[c];
                totals[i] += t;
            }
        }
        totals
    }

    /// Resolve method ids to display names, producing a [`Profile`].
    pub fn resolve(&self, name_of: impl Fn(u32) -> String) -> Profile {
        fn build(raw: &RawProfile, idx: usize, name_of: &impl Fn(u32) -> String) -> ProfileNode {
            let n = &raw.nodes[idx];
            let mut children: Vec<ProfileNode> = n
                .children
                .iter()
                .map(|&(_, c)| build(raw, c, name_of))
                .collect();
            children.sort_by(|a, b| a.frame.cmp(&b.frame));
            ProfileNode {
                frame: match n.frame {
                    FrameKey::Method(m) => name_of(m),
                    FrameKey::Synthetic(s) => s.to_string(),
                },
                self_ns: n.self_time.as_nanos(),
                calls: n.calls,
                children,
            }
        }
        let mut lanes: Vec<LaneProfile> = self
            .lanes
            .iter()
            .map(|&(lane, idx)| {
                let root = build(self, idx, &name_of);
                LaneProfile {
                    lane: lane.to_string(),
                    roots: root.children,
                }
            })
            .collect();
        lanes.sort_by(|a, b| a.lane.cmp(&b.lane));
        Profile {
            lanes,
            instances: self.instances.iter().map(|(&id, &t)| (id, t)).collect(),
        }
    }
}

/// One resolved node of the profile tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileNode {
    /// Display name: `Class.method` or a `[synthetic]` frame.
    pub frame: String,
    /// Virtual nanoseconds spent in this frame itself.
    pub self_ns: u64,
    /// Invocations (or synthetic-cost occurrences).
    pub calls: u64,
    /// Callees, sorted by frame name.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Self time plus everything beneath this frame.
    pub fn total_ns(&self) -> u64 {
        self.self_ns + self.children.iter().map(ProfileNode::total_ns).sum::<u64>()
    }
}

/// One endpoint lane's call trees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneProfile {
    /// Lane name: `server`, `faas:primary` or `faas:shadow`.
    pub lane: String,
    /// Root frames of the lane.
    pub roots: Vec<ProfileNode>,
}

/// One hottest-method table row ([`Profile::hottest`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotMethod {
    /// Frame name.
    pub frame: String,
    /// Summed self time over every occurrence in the lane.
    pub self_ns: u64,
    /// Summed subtree time over every occurrence in the lane.
    pub total_ns: u64,
    /// Summed invocations.
    pub calls: u64,
}

/// A fully resolved, deterministic per-scenario profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Profile {
    /// Per-lane call trees, sorted by lane name.
    pub lanes: Vec<LaneProfile>,
    /// Per-FaaS-instance totals, sorted by instance id.
    pub instances: Vec<(u32, InstanceTotals)>,
}

impl Profile {
    /// Brendan Gregg collapsed-stack text: one `lane;f1;…;fN <nanos>` line
    /// per stack with non-zero self time, sorted lexically, trailing
    /// newline. Feed to `flamegraph.pl` or inferno unchanged.
    pub fn folded(&self) -> String {
        fn walk(path: &mut String, n: &ProfileNode, lines: &mut Vec<String>) {
            let len = path.len();
            path.push(';');
            path.push_str(&n.frame);
            if n.self_ns > 0 {
                lines.push(format!("{path} {}", n.self_ns));
            }
            for c in &n.children {
                walk(path, c, lines);
            }
            path.truncate(len);
        }
        let mut lines = Vec::new();
        for lane in &self.lanes {
            let mut path = lane.lane.clone();
            for r in &lane.roots {
                walk(&mut path, r, &mut lines);
            }
        }
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// The call tree as a JSON document (deterministic key order,
    /// renderable with [`Json::render`]).
    pub fn to_json(&self) -> Json {
        fn node(n: &ProfileNode) -> Json {
            Json::obj([
                ("frame".into(), Json::Str(n.frame.clone())),
                ("self_ns".into(), Json::Int(n.self_ns as i128)),
                ("total_ns".into(), Json::Int(n.total_ns() as i128)),
                ("calls".into(), Json::Int(n.calls as i128)),
                (
                    "children".into(),
                    Json::Arr(n.children.iter().map(node).collect()),
                ),
            ])
        }
        Json::obj([
            (
                "lanes".into(),
                Json::Arr(
                    self.lanes
                        .iter()
                        .map(|l| {
                            Json::obj([
                                ("lane".into(), Json::Str(l.lane.clone())),
                                (
                                    "roots".into(),
                                    Json::Arr(l.roots.iter().map(node).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "instances".into(),
                Json::Arr(
                    self.instances
                        .iter()
                        .map(|&(id, t)| {
                            Json::obj([
                                ("id".into(), Json::Int(id as i128)),
                                ("self_ns".into(), Json::Int(t.self_ns as i128)),
                                ("segments".into(), Json::Int(t.segments as i128)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Per lane, the top `n` frames by summed self time (ties broken by
    /// name). Synthetic frames participate: `[gc]` showing up hot is the
    /// point.
    pub fn hottest(&self, n: usize) -> Vec<(String, Vec<HotMethod>)> {
        fn walk(n: &ProfileNode, acc: &mut BTreeMap<String, HotMethod>) {
            let e = acc.entry(n.frame.clone()).or_insert_with(|| HotMethod {
                frame: n.frame.clone(),
                self_ns: 0,
                total_ns: 0,
                calls: 0,
            });
            e.self_ns += n.self_ns;
            e.total_ns += n.total_ns();
            e.calls += n.calls;
            for c in &n.children {
                walk(c, acc);
            }
        }
        self.lanes
            .iter()
            .map(|l| {
                let mut acc = BTreeMap::new();
                for r in &l.roots {
                    walk(r, &mut acc);
                }
                let mut rows: Vec<HotMethod> = acc.into_values().collect();
                rows.sort_by(|a, b| {
                    b.self_ns
                        .cmp(&a.self_ns)
                        .then_with(|| a.frame.cmp(&b.frame))
                });
                rows.truncate(n);
                (l.lane.clone(), rows)
            })
            .collect()
    }

    /// [`Profile::hottest`] as a JSON array, for embedding in the telemetry
    /// critical-path summary.
    pub fn hottest_json(&self, n: usize) -> Json {
        Json::Arr(
            self.hottest(n)
                .into_iter()
                .map(|(lane, rows)| {
                    Json::obj([
                        ("lane".into(), Json::Str(lane)),
                        (
                            "methods".into(),
                            Json::Arr(
                                rows.into_iter()
                                    .map(|r| {
                                        Json::obj([
                                            ("frame".into(), Json::Str(r.frame)),
                                            ("self_ns".into(), Json::Int(r.self_ns as i128)),
                                            ("total_ns".into(), Json::Int(r.total_ns as i128)),
                                            ("calls".into(), Json::Int(r.calls as i128)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Parse collapsed-stack text back into `(stack frames, count)` pairs —
/// the round-trip check that [`Profile::folded`] output stays inside the
/// grammar flamegraph.pl accepts.
pub fn parse_folded(s: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in s.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let Some(space) = line.rfind(' ') else {
            return Err(format!("line {}: no count separator", i + 1));
        };
        let (stack, count) = line.split_at(space);
        let count: u64 = count[1..]
            .parse()
            .map_err(|e| format!("line {}: bad count: {e}", i + 1))?;
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        if frames.iter().any(String::is_empty) {
            return Err(format!("line {}: empty frame", i + 1));
        }
        out.push((frames, count));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    /// Drive a two-segment execution by hand:
    ///   seg 1 (server):  root 100ns self, pushes callee 1, callee 30ns, blocks
    ///   seg 2 (server):  resumes [root, callee], callee 20ns, returns,
    ///                    root 50ns, done
    fn record_two_segments() -> RawProfile {
        install();
        begin_segment("server", None, [7u32].into_iter(), true);
        push(1, ns(100)); // root ran 100ns before calling
        end_segment(ns(130)); // callee ran 30ns, then blocked
        let m = mark().expect("blocked leaf");
        synthetic(m, "[db]", ns(500));
        begin_segment("server", None, [7u32, 1].into_iter(), false);
        pop(ns(20)); // callee finishes its remaining 20ns
        end_segment(ns(70)); // root's trailing 50ns
        take().expect("recorder installed")
    }

    #[test]
    fn exact_attribution_across_segments() {
        let p = record_two_segments().resolve(|m| format!("m{m}"));
        assert_eq!(p.lanes.len(), 1);
        assert_eq!(p.lanes[0].lane, "server");
        let root = &p.lanes[0].roots[0];
        assert_eq!(root.frame, "m7");
        assert_eq!(root.self_ns, 150);
        assert_eq!(root.calls, 1);
        let callee = &root.children[0];
        assert_eq!(callee.frame, "m1");
        assert_eq!(callee.self_ns, 50);
        assert_eq!(callee.calls, 1);
        let db = &callee.children[0];
        assert_eq!(db.frame, "[db]");
        assert_eq!((db.self_ns, db.calls), (500, 1));
        assert_eq!(root.total_ns(), 150 + 50 + 500);
    }

    #[test]
    fn folded_round_trips_and_sorts() {
        let p = record_two_segments().resolve(|m| format!("m{m}"));
        let folded = p.folded();
        assert_eq!(
            folded,
            "server;m7 150\nserver;m7;m1 50\nserver;m7;m1;[db] 500\n"
        );
        let parsed = parse_folded(&folded).expect("own output parses");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].0, vec!["server", "m7"]);
        assert_eq!(parsed[0].1, 150);
        let mut lines: Vec<&str> = folded.lines().collect();
        let unsorted = lines.clone();
        lines.sort();
        assert_eq!(lines, unsorted, "folded output must be pre-sorted");
    }

    #[test]
    fn parse_folded_rejects_malformed_lines() {
        assert!(parse_folded("no-count-here").is_err());
        assert!(parse_folded("a;b notanumber").is_err());
        assert!(parse_folded("a;;b 3").is_err());
        assert!(parse_folded("").unwrap().is_empty());
    }

    #[test]
    fn lanes_separate_and_instances_accumulate() {
        install();
        begin_segment("server", None, [3u32].into_iter(), true);
        end_segment(ns(40));
        begin_segment("faas:primary", Some(2), [3u32].into_iter(), true);
        end_segment(ns(90));
        begin_segment("faas:primary", Some(5), [3u32].into_iter(), true);
        end_segment(ns(10));
        let p = take().unwrap().resolve(|m| format!("m{m}"));
        let lanes: Vec<&str> = p.lanes.iter().map(|l| l.lane.as_str()).collect();
        assert_eq!(lanes, vec!["faas:primary", "server"]);
        let faas = &p.lanes[0].roots[0];
        let server = &p.lanes[1].roots[0];
        assert_eq!(faas.frame, server.frame);
        assert_eq!((server.self_ns, faas.self_ns), (40, 100));
        assert_eq!(
            p.instances,
            vec![
                (
                    2,
                    InstanceTotals {
                        self_ns: 90,
                        segments: 1
                    }
                ),
                (
                    5,
                    InstanceTotals {
                        self_ns: 10,
                        segments: 1
                    }
                ),
            ]
        );
    }

    #[test]
    fn aggregate_derives_method_profiles() {
        let agg = record_two_segments().aggregate();
        let root = agg.get(7).expect("root sampled");
        assert_eq!(root.invocations, 1);
        // Root total = its whole subtree: 150 + 50 + 500.
        assert_eq!(root.total_time, ns(700));
        assert_eq!(root.average(), ns(700));
        let callee = agg.get(1).expect("callee sampled");
        assert_eq!(callee.total_time, ns(550));
        assert!(agg.get(99).is_none());
        assert_eq!(agg.len(), 2);
    }

    #[test]
    fn method_profile_average() {
        let mut agg = Aggregate::new();
        assert!(agg.is_empty());
        agg.record(4, ns(10));
        agg.record(4, ns(30));
        assert_eq!(agg.get(4).unwrap().average(), ns(20));
        assert_eq!(MethodProfile::default().average(), Duration::ZERO);
    }

    #[test]
    fn probes_without_recorder_are_noops() {
        assert!(!enabled());
        begin_segment("server", None, [1u32].into_iter(), true);
        push(2, ns(5));
        pop(ns(6));
        end_segment(ns(7));
        assert!(mark().is_none());
        assert!(take().is_none());
    }

    #[test]
    fn hottest_ranks_by_self_time() {
        let p = record_two_segments().resolve(|m| format!("m{m}"));
        let hot = p.hottest(2);
        assert_eq!(hot.len(), 1);
        let (lane, rows) = &hot[0];
        assert_eq!(lane, "server");
        assert_eq!(rows[0].frame, "[db]");
        assert_eq!(rows[0].self_ns, 500);
        assert_eq!(rows[1].frame, "m7");
        let json = p.hottest_json(2).render();
        assert!(json.contains("\"lane\":\"server\""));
        assert!(json.contains("\"frame\":\"[db]\""));
    }

    /// Executions interleaved on two lanes, each segment resuming at its
    /// own depth, pushing and popping, and attaching synthetic costs where
    /// it stopped: the recorder must build the same profile as one that
    /// rebuilds every path from the lane root.
    #[test]
    fn reused_paths_build_the_profile_of_replayed_ones() {
        use beehive_sim::Rng;
        struct Exec {
            lane: &'static str,
            instance: Option<u32>,
            frames: Vec<u32>,
            started: bool,
        }
        let mut rng = Rng::new(0x9A7B);
        let fresh = |rng: &mut Rng| {
            let faas = rng.gen_range(2) == 0;
            Exec {
                lane: if faas { "faas:primary" } else { "server" },
                instance: faas.then(|| rng.gen_range(3) as u32),
                frames: vec![rng.gen_range(3) as u32],
                started: false,
            }
        };
        let mut execs: Vec<Exec> = (0..5).map(|_| fresh(&mut rng)).collect();
        let (mut reused, mut replayed) = (Recorder::default(), Recorder::default());
        let mut max_depth = 0;
        for _ in 0..3_000 {
            let which = rng.gen_range(execs.len() as u64) as usize;
            let x = &mut execs[which];
            // The reference forgets every lane's last path, so it finds
            // each frame through `child_of` from the root.
            for l in &mut replayed.lanes {
                l.path = vec![l.root];
            }
            for r in [&mut reused, &mut replayed] {
                r.begin_segment(x.lane, x.instance, x.frames.iter().copied(), !x.started);
            }
            x.started = true;
            let mut cpu = 0;
            for _ in 0..rng.gen_range(6) {
                cpu += rng.gen_range(40);
                if rng.gen_range(2) == 0 && x.frames.len() < 12 {
                    let m = rng.gen_range(6) as u32;
                    x.frames.push(m);
                    reused.push(m, ns(cpu));
                    replayed.push(m, ns(cpu));
                } else {
                    x.frames.pop();
                    reused.pop(ns(cpu));
                    replayed.pop(ns(cpu));
                    if x.frames.is_empty() {
                        break;
                    }
                }
            }
            max_depth = max_depth.max(x.frames.len());
            cpu += rng.gen_range(40);
            let cost = ["[gc]", "[db]", "[fallback:data]"][rng.gen_range(3) as usize];
            let d = ns(rng.gen_range(100));
            for r in [&mut reused, &mut replayed] {
                r.end_segment(ns(cpu));
                if let Some(leaf) = r.leaf {
                    r.synthetic(leaf, cost, d);
                }
            }
            if x.frames.is_empty() {
                execs[which] = fresh(&mut rng);
            }
        }
        assert!(max_depth >= 8, "segments resumed at depth {max_depth}");
        let name = |m: u32| format!("m{m}");
        let (a, b) = (reused.into_raw(), replayed.into_raw());
        assert_eq!(a.nodes.len(), b.nodes.len());
        let (a, b) = (a.resolve(name), b.resolve(name));
        assert_eq!(a.folded(), b.folded());
        assert_eq!(a.to_json().render(), b.to_json().render());
        assert_eq!(a, b);
        assert_eq!(a.lanes.len(), 2);
    }

    #[test]
    fn json_export_is_deterministic_and_parses() {
        let p = record_two_segments().resolve(|m| format!("m{m}"));
        let doc = p.to_json().render();
        assert_eq!(doc, p.to_json().render());
        let back = Json::parse(&doc).expect("profile JSON parses");
        assert!(back.get("lanes").is_some());
        assert!(back.get("instances").is_some());
    }
}
