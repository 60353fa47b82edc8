//! Time-resolved elasticity observability.
//!
//! Every other observability substrate in the reproduction (trace, metrics,
//! profile, insight, sentinel) reports per-request or whole-run aggregates.
//! BeeHive's headline claim, however, is *sub-second elasticity* — a
//! time-domain property: how long after a burst onset does capacity catch
//! up? This crate gives the reproduction that time axis.
//!
//! [`Observer`] is a streaming reducer that rides the telemetry recorder
//! (a [`Consumer`]: the driver feeds it through `beehive_telemetry::pump`, in
//! the same pass as the sentinel) and folds [`TraceEvent`]s into
//! deterministic fixed-width virtual-time bins:
//!
//! * offered vs. served vs. rejected requests per bin,
//! * per-bin P50/P99 latency (arrival → completion, including hidden boot
//!   waits and reroutes) on a [`LogLinearHistogram`],
//! * queue depth per pool and in-flight requests,
//! * active / idle / booting instance counts and peak cold-boot concurrency,
//! * warm / spawn / server dispatch outcomes (the warm-pool hit rate),
//! * requests forwarded by the burst handler (`burst:route`).
//!
//! From the bins it derives per-burst elasticity signals ([`BurstSignal`]):
//! **scale-up lag** (arrival-rate step onset → P99 re-entering the
//! steady-state band), provisioning efficiency and cold-start amplification
//! during the spike. Everything is integer arithmetic on nanoseconds, so a
//! rendered timeline is byte-identical across worker counts and platforms.
//!
//! [`TimelineDoc`] collects the per-scenario series and renders them as an
//! ASCII sparkline timeline, a self-contained SVG, or a JSON artifact that
//! round-trips through [`TimelineDoc::parse`] (the `repro lag` diff
//! consumes those artifacts).

#![warn(missing_docs)]

use beehive_metrics::LogLinearHistogram;
use beehive_sim::json::{FromJson, Json};
use beehive_sim::{json_record, Duration, FastMap};
use beehive_telemetry::summary::{replay, Arrival, ArrivalTracker, Consumer};
use beehive_telemetry::{EventKind, EventName as N, Trace, TraceEvent, Track};

/// Default bin width of the timeline: one virtual second.
pub const DEFAULT_WINDOW: Duration = Duration::from_secs(1);

/// Bins of consecutive in-band P99 required before a burst counts as
/// settled (the last bin of the run may settle alone).
const SETTLE_BINS: usize = 2;

// ---------------------------------------------------------------------------
// Derived elasticity signals
// ---------------------------------------------------------------------------

json_record! {
    parse
    /// Elasticity signals derived for one arrival-rate step (burst onset).
    ///
    /// A signal exists for the implicit run-start step (cold system meets the
    /// base rate at t=0) and for every recorded `burst:onset` rate increase.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct BurstSignal {
        /// Virtual time of the rate step, nanoseconds since the run start.
        pub onset_ns: u64,
        /// The steady-state P99 band: twice the median per-bin P99 of the run,
        /// snapped up to a log-linear histogram bucket edge.
        pub band_p99_ns: u64,
        /// End of the first bin window where P99 re-entered the band (and
        /// stayed there), or `None` when the run never settles.
        pub settle_ns: Option<u64>,
        /// Scale-up lag: `settle_ns - onset_ns`. `None` when the run never
        /// settles after this onset.
        pub lag_ns: Option<u64>,
        /// `10_000 × served / offered` over the onset→settle window, in basis
        /// points (10_000 = every offered request was served inside the window).
        pub provisioning_efficiency_bp: u64,
        /// Cold-start amplification: the spawn share of dispatches inside the
        /// onset→settle window relative to the whole run, in basis points
        /// (10_000 = the spike spawned no more than steady state).
        pub cold_start_amplification_bp: u64,
    }
}

// ---------------------------------------------------------------------------
// Per-scenario series
// ---------------------------------------------------------------------------

json_record! {
    parse
    /// The reduced timeline of one scenario: parallel per-bin series plus the
    /// derived burst signals. All series have the same length.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct ScenarioSeries {
        /// Scenario label (blank until the engine labels the run's result).
        pub label: String,
        /// Bin width in nanoseconds of virtual time.
        pub window_ns: u64,
        /// Telemetry events folded into this series.
        pub events: u64,
        /// Offered load per bin: arrivals plus rejections, so the run's sum
        /// is the distinct requests the trace shows (shadow warm-ups and
        /// reroutes to the server are none) plus the rejections.
        pub offered: Vec<u64>,
        /// Requests completed per bin (binned by completion time).
        pub served: Vec<u64>,
        /// Requests refused by the saturated server pool per bin.
        pub rejected: Vec<u64>,
        /// Per-bin P50 of arrival→completion latency (ns), 0 for empty bins.
        pub p50_ns: Vec<u64>,
        /// Per-bin P99 of arrival→completion latency (ns), 0 for empty bins.
        pub p99_ns: Vec<u64>,
        /// Primary server pool depth sampled at each bin's end.
        pub queue_primary: Vec<i64>,
        /// Scaled-capacity pool depth sampled at each bin's end (zero unless a
        /// scaling strategy brought up a second pool).
        pub queue_scaled: Vec<i64>,
        /// In-flight requests sampled at each bin's end.
        pub inflight: Vec<i64>,
        /// Busy FaaS instances at each bin's end.
        pub active: Vec<u64>,
        /// Warm idle FaaS instances at each bin's end.
        pub idle: Vec<u64>,
        /// Booting FaaS instances at each bin's end.
        pub booting: Vec<u64>,
        /// Peak concurrent boots observed inside each bin (cold-boot
        /// concurrency — the provisioning wavefront).
        pub booting_peak: Vec<u64>,
        /// Offload dispatches that hit a warm instance, per bin.
        pub dispatch_warm: Vec<u64>,
        /// Offload dispatches that spawned a new instance, per bin.
        pub dispatch_spawn: Vec<u64>,
        /// Offload dispatches that fell back to the server, per bin.
        pub dispatch_server: Vec<u64>,
        /// Requests the burst handler forwarded to scaled capacity, per bin.
        pub forwarded: Vec<u64>,
        /// Derived per-burst elasticity signals.
        pub signals: Vec<BurstSignal>,
    }
}

impl ScenarioSeries {
    /// Number of bins in the series.
    pub fn bins(&self) -> usize {
        self.offered.len()
    }
}

// ---------------------------------------------------------------------------
// The streaming reducer
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Life {
    Booting,
    Active,
    Idle,
}

/// Streaming reducer folding telemetry events into a [`ScenarioSeries`].
///
/// Feed events in emission order (which is virtual-time order) as a
/// [`Consumer`], then call [`Observer::finish`]. The workload driver feeds
/// it from the shared telemetry recorder once per simulation step, through
/// the same `beehive_telemetry::pump` call as the sentinel.
pub struct Observer {
    window_ns: u64,
    out: ScenarioSeries,
    // Gauges carried forward across bins.
    queue_primary: i64,
    queue_scaled: i64,
    inflight: i64,
    active: u64,
    idle: u64,
    booting: u64,
    booting_peak: u64,
    bin: Bin,
    // Cross-bin state.
    /// The arrival tracker of [`Observer::feed`].
    own_arrivals: Option<ArrivalTracker>,
    insts: FastMap<u32, Life>,
    onsets: Vec<u64>,
    events: u64,
}

/// The accumulators of the open bin.
#[derive(Default)]
struct Bin {
    offered: u64,
    served: u64,
    rejected: u64,
    warm: u64,
    spawn: u64,
    server_disp: u64,
    forwarded: u64,
    hist: LogLinearHistogram,
}

impl Observer {
    /// An observer with the given bin width (clamped to at least 1 ns).
    pub fn new(window: Duration) -> Observer {
        Observer {
            window_ns: window.as_nanos().max(1),
            out: ScenarioSeries::default(),
            queue_primary: 0,
            queue_scaled: 0,
            inflight: 0,
            active: 0,
            idle: 0,
            booting: 0,
            booting_peak: 0,
            bin: Bin::default(),
            own_arrivals: None,
            insts: FastMap::default(),
            onsets: Vec::new(),
            events: 0,
        }
    }

    /// Fold one event with a tracker of its own, for a caller that feeds the
    /// observer alone (the benchmark's layer pass); the driver and
    /// [`TimelineDoc::from_traces`] feed [`Consumer::event`] instead.
    pub fn feed(&mut self, e: &TraceEvent) {
        let own = self
            .own_arrivals
            .get_or_insert_with(ArrivalTracker::default);
        let arrival = own.feed(e);
        self.event(e, arrival);
    }

    /// Seal the open bin and derive the burst signals.
    pub fn finish(mut self, label: String) -> ScenarioSeries {
        if self.events > 0 {
            self.seal();
        }
        let mut out = self.out;
        out.label = label;
        out.window_ns = self.window_ns;
        out.events = self.events;
        out.signals = derive_signals(&out, &self.onsets);
        out
    }

    /// Close the open bin: sample the gauges at its end, push the
    /// accumulators, and reset for the next bin.
    fn seal(&mut self) {
        let (out, bin) = (&mut self.out, std::mem::take(&mut self.bin));
        out.offered.push(bin.offered);
        out.served.push(bin.served);
        out.rejected.push(bin.rejected);
        let (p50, p99) = if bin.hist.is_empty() {
            (0, 0)
        } else {
            (bin.hist.quantile(0.50), bin.hist.quantile(0.99))
        };
        out.p50_ns.push(p50);
        out.p99_ns.push(p99);
        out.queue_primary.push(self.queue_primary);
        out.queue_scaled.push(self.queue_scaled);
        out.inflight.push(self.inflight);
        out.active.push(self.active);
        out.idle.push(self.idle);
        out.booting.push(self.booting);
        out.booting_peak.push(self.booting_peak);
        out.dispatch_warm.push(bin.warm);
        out.dispatch_spawn.push(bin.spawn);
        out.dispatch_server.push(bin.server_disp);
        out.forwarded.push(bin.forwarded);
        self.booting_peak = self.booting;
    }

    fn feed_server(&mut self, e: &TraceEvent) {
        match (e.kind, e.name) {
            (EventKind::Instant, N::OffloadDispatch) => match e.arg_str("outcome") {
                Some("warm") => self.bin.warm += 1,
                Some("spawn") => self.bin.spawn += 1,
                Some("server") => self.bin.server_disp += 1,
                _ => {}
            },
            (EventKind::Instant, N::Rejected) => {
                self.bin.rejected += 1;
                self.bin.offered += 1;
            }
            (EventKind::Instant, N::BurstRoute) if e.arg_str("route") == Some("scaled") => {
                self.bin.forwarded += 1;
            }
            _ => {}
        }
    }

    fn feed_instance(&mut self, fid: u32, e: &TraceEvent) {
        if e.kind != EventKind::Instant {
            return;
        }
        match e.name {
            N::InstanceColdBoot => {
                self.set_life(fid, Some(Life::Booting));
            }
            N::InstanceReady | N::InstanceWarmStart => {
                self.set_life(fid, Some(Life::Active));
            }
            N::InstanceRelease => {
                self.set_life(fid, Some(Life::Idle));
            }
            N::InstanceKill => {
                self.set_life(fid, None);
            }
            _ => {}
        }
    }

    /// Move an instance to a new lifecycle state, keeping the three gauges
    /// (and the cold-boot concurrency peak) consistent.
    fn set_life(&mut self, fid: u32, next: Option<Life>) {
        let prev = match next {
            Some(l) => self.insts.insert(fid, l),
            None => self.insts.remove(&fid),
        };
        match prev {
            Some(Life::Booting) => self.booting = self.booting.saturating_sub(1),
            Some(Life::Active) => self.active = self.active.saturating_sub(1),
            Some(Life::Idle) => self.idle = self.idle.saturating_sub(1),
            None => {}
        }
        match next {
            Some(Life::Booting) => {
                self.booting += 1;
                self.booting_peak = self.booting_peak.max(self.booting);
            }
            Some(Life::Active) => self.active += 1,
            Some(Life::Idle) => self.idle += 1,
            None => {}
        }
    }

    fn feed_platform(&mut self, e: &TraceEvent) {
        if let (EventKind::Instant, N::InstanceExpire) = (e.kind, e.name) {
            // The keep-alive sweep reports a count, not ids; the expired
            // instances leave the warm cache.
            let n = e.arg_u64("count").unwrap_or(0);
            self.idle = self.idle.saturating_sub(n);
            // Drop that many tracked idle instances so later kills of other
            // states stay consistent (ids are unknown; any idle ids do).
            let mut victims: Vec<u32> = self
                .insts
                .iter()
                .filter(|(_, l)| **l == Life::Idle)
                .map(|(&id, _)| id)
                .collect();
            victims.sort_unstable();
            for id in victims.into_iter().take(n as usize) {
                self.insts.remove(&id);
            }
        }
    }

    fn feed_sim(&mut self, e: &TraceEvent) {
        match (e.kind, e.name) {
            (EventKind::Counter(v), N::ServerPool) => self.queue_primary = v,
            (EventKind::Counter(v), N::Inflight) => self.inflight = v,
            (EventKind::Instant, N::PoolDepth) if e.arg_u64("pool") == Some(1) => {
                self.queue_scaled = e.arg_u64("depth").unwrap_or(0) as i64;
            }
            (EventKind::Instant, N::BurstOnset) => {
                // Only rate increases are elasticity events; rate drops end
                // a burst and need no capacity response.
                let from = e.arg_u64("mrps_from").unwrap_or(0);
                let to = e.arg_u64("mrps_to").unwrap_or(0);
                if to > from {
                    self.onsets.push(e.at.as_nanos());
                }
            }
            _ => {}
        }
    }
}

impl Consumer for Observer {
    fn event(&mut self, e: &TraceEvent, arrival: Option<Arrival>) {
        self.events += 1;
        let bin = e.at.as_nanos() / self.window_ns;
        while (self.out.offered.len() as u64) < bin {
            self.seal();
        }
        match e.track {
            // Shadow warm-ups are not load, and a request a reroute carried
            // to a new track was offered where it arrived.
            Track::Request(_) => match arrival {
                Some(Arrival::Begin(kind, false)) if kind != N::ReqShadow => self.bin.offered += 1,
                Some(Arrival::End(_, kind, arrival, end)) if kind != N::ReqShadow => {
                    self.bin.served += 1;
                    self.bin
                        .hist
                        .record(end.saturating_since(arrival).as_nanos());
                }
                _ => {}
            },
            Track::Server => self.feed_server(e),
            Track::Instance(fid) => self.feed_instance(fid, e),
            Track::Platform => self.feed_platform(e),
            Track::Sim => self.feed_sim(e),
            Track::Db => {}
        }
    }

    /// Boxed, the observer has no one to hand its series to: its owner
    /// takes it with the inherent [`Observer::finish`].
    fn finish(self: Box<Self>) {}
}

// ---------------------------------------------------------------------------
// Signal derivation
// ---------------------------------------------------------------------------

/// Derive the per-burst elasticity signals from sealed bins: a signal for
/// the implicit run-start rate step plus one per recorded onset.
fn derive_signals(s: &ScenarioSeries, onsets: &[u64]) -> Vec<BurstSignal> {
    let n = s.bins();
    if n == 0 {
        return Vec::new();
    }
    // Steady-state band: twice the median per-bin P99 over bins that
    // completed requests, snapped up to a log-linear bucket edge so the
    // band is itself a representable histogram value.
    let mut p99s: Vec<u64> = s.p99_ns.iter().copied().filter(|&v| v > 0).collect();
    if p99s.is_empty() {
        return Vec::new();
    }
    p99s.sort_unstable();
    let median = p99s[p99s.len() / 2];
    let band =
        LogLinearHistogram::bucket_value(LogLinearHistogram::bucket_of(median.saturating_mul(2)));
    let w = s.window_ns;
    let total_spawn: u64 = s.dispatch_spawn.iter().sum();
    let total_disp: u64 =
        total_spawn + s.dispatch_warm.iter().sum::<u64>() + s.dispatch_server.iter().sum::<u64>();

    let mut all: Vec<u64> = Vec::with_capacity(onsets.len() + 1);
    all.push(0);
    all.extend(onsets.iter().copied().filter(|&o| o > 0));
    all.dedup();

    all.into_iter()
        .filter(|&onset| ((onset / w) as usize) < n)
        .map(|onset| {
            let first = (onset / w) as usize;
            let settled = |b: usize| s.served[b] > 0 && s.p99_ns[b] > 0 && s.p99_ns[b] <= band;
            let mut settle_bin = None;
            for b in first..n {
                let run_ok = (b..(b + SETTLE_BINS).min(n)).all(settled);
                if run_ok {
                    settle_bin = Some(b);
                    break;
                }
            }
            let last = settle_bin.unwrap_or(n - 1);
            let offered: u64 = s.offered[first..=last].iter().sum();
            let served: u64 = s.served[first..=last].iter().sum();
            let spawn_w: u64 = s.dispatch_spawn[first..=last].iter().sum();
            let disp_w: u64 = spawn_w
                + s.dispatch_warm[first..=last].iter().sum::<u64>()
                + s.dispatch_server[first..=last].iter().sum::<u64>();
            let amplification = if total_spawn == 0 || disp_w == 0 {
                10_000
            } else {
                (spawn_w as u128 * total_disp as u128 * 10_000
                    / (disp_w as u128 * total_spawn as u128)) as u64
            };
            let settle_ns = settle_bin.map(|b| (b as u64 + 1) * w);
            BurstSignal {
                onset_ns: onset,
                band_p99_ns: band,
                settle_ns,
                lag_ns: settle_ns.map(|t| t - onset),
                provisioning_efficiency_bp: served * 10_000 / offered.max(1),
                cold_start_amplification_bp: amplification,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The timeline document
// ---------------------------------------------------------------------------

json_record! {
    parse
    /// A timeline report: one [`ScenarioSeries`] per scenario of an experiment.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct TimelineDoc {
        /// The per-scenario series, in scenario order.
        pub scenarios: Vec<ScenarioSeries>,
    }
}

impl TimelineDoc {
    /// A document over already-reduced series.
    pub fn from_series(scenarios: Vec<ScenarioSeries>) -> TimelineDoc {
        TimelineDoc { scenarios }
    }

    /// Offline reduction: replay recorded traces through an [`Observer`]
    /// each, yielding exactly what the online path would have produced.
    pub fn from_traces(traces: &[(String, Trace)], window: Duration) -> TimelineDoc {
        let scenarios = traces
            .iter()
            .map(|(label, trace)| {
                let mut obs = Observer::new(window);
                replay(&trace.events, &mut obs);
                obs.finish(label.clone())
            })
            .collect();
        TimelineDoc { scenarios }
    }

    /// Parse a document rendered from its `ToJson` form.
    pub fn parse(text: &str) -> Result<TimelineDoc, String> {
        TimelineDoc::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }

    /// Render the ASCII sparkline timeline (the `repro timeline` default).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for s in &self.scenarios {
            render_scenario_text(&mut out, s);
        }
        out
    }

    /// Render a self-contained SVG of every scenario's timeline.
    pub fn render_svg(&self) -> String {
        render_svg(self)
    }
}

// ---------------------------------------------------------------------------
// ASCII rendering
// ---------------------------------------------------------------------------

const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn spark(vals: &[u64]) -> String {
    let max = vals.iter().copied().max().unwrap_or(0);
    vals.iter()
        .map(|&v| {
            if max == 0 {
                SPARKS[0]
            } else {
                SPARKS[(v as u128 * 7 / max as u128) as usize]
            }
        })
        .collect()
}

fn clamp_pos(vals: &[i64]) -> Vec<u64> {
    vals.iter().map(|&v| v.max(0) as u64).collect()
}

/// `ns` as integer milliseconds with two decimals (`12.34ms`).
fn fmt_ms(ns: u64) -> String {
    format!("{}.{:02}ms", ns / 1_000_000, (ns % 1_000_000) / 10_000)
}

/// Basis points as a percentage with two decimals (`98.75%`).
fn fmt_bp_pct(bp: u64) -> String {
    format!("{}.{:02}%", bp / 100, bp % 100)
}

/// Basis points as a ratio with two decimals (`1.25x`).
fn fmt_bp_x(bp: u64) -> String {
    format!("{}.{:02}x", bp / 10_000, (bp % 10_000) / 100)
}

/// A sparkline row: name, sparkline, and the series maximum. `ms` renders
/// the maximum as milliseconds instead of a bare count.
fn text_row(out: &mut String, name: &str, vals: &[u64], unit: &str, ms: bool) {
    use std::fmt::Write;
    let max = vals.iter().copied().max().unwrap_or(0);
    let shown = if ms { fmt_ms(max) } else { max.to_string() };
    let _ = writeln!(out, "  {name:<10} {}  max {shown}{unit}", spark(vals));
}

fn render_scenario_text(out: &mut String, s: &ScenarioSeries) {
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "== {} ==  (window {}, {} bins, {} events)",
        s.label,
        fmt_ms(s.window_ns),
        s.bins(),
        s.events
    );
    text_row(out, "offered", &s.offered, "/bin", false);
    text_row(out, "served", &s.served, "/bin", false);
    text_row(out, "rejected", &s.rejected, "/bin", false);
    text_row(out, "p99", &s.p99_ns, "", true);
    text_row(out, "p50", &s.p50_ns, "", true);
    text_row(out, "queue", &clamp_pos(&s.queue_primary), "", false);
    if s.queue_scaled.iter().any(|&v| v != 0) {
        text_row(out, "queue2", &clamp_pos(&s.queue_scaled), "", false);
    }
    text_row(out, "inflight", &clamp_pos(&s.inflight), "", false);
    text_row(out, "active", &s.active, "", false);
    text_row(out, "idle", &s.idle, "", false);
    text_row(out, "booting", &s.booting_peak, " peak", false);
    let warm_pct: Vec<u64> = (0..s.bins())
        .map(|b| {
            let total = s.dispatch_warm[b] + s.dispatch_spawn[b] + s.dispatch_server[b];
            (s.dispatch_warm[b] * 100).checked_div(total).unwrap_or(0)
        })
        .collect();
    text_row(out, "warm-hit", &warm_pct, "%", false);
    if s.forwarded.iter().any(|&v| v != 0) {
        text_row(out, "forwarded", &s.forwarded, "/bin", false);
    }
    for sig in &s.signals {
        let lag = match sig.lag_ns {
            Some(l) => format!("lag {}", fmt_ms(l)),
            None => "lag unsettled".to_string(),
        };
        let _ = writeln!(
            out,
            "  burst @{}: {}  band p99<={}  prov-eff {}  cold-amp {}",
            fmt_ms(sig.onset_ns),
            lag,
            fmt_ms(sig.band_p99_ns),
            fmt_bp_pct(sig.provisioning_efficiency_bp),
            fmt_bp_x(sig.cold_start_amplification_bp),
        );
    }
}

// ---------------------------------------------------------------------------
// SVG rendering
// ---------------------------------------------------------------------------

/// One chart row inside the SVG: a titled polyline panel.
struct Panel<'a> {
    title: &'a str,
    color: &'a str,
    vals: Vec<u64>,
}

fn render_svg(doc: &TimelineDoc) -> String {
    use std::fmt::Write;
    const PANEL_H: u64 = 56;
    const PANEL_GAP: u64 = 14;
    const LEFT: u64 = 150;
    const STEP: u64 = 12;
    let bins = doc
        .scenarios
        .iter()
        .map(|s| s.bins())
        .max()
        .unwrap_or(0)
        .max(1) as u64;
    let width = LEFT + bins * STEP + 20;

    let mut body = String::new();
    let mut y = 10u64;
    for s in &doc.scenarios {
        let _ = writeln!(
            body,
            "<text x=\"10\" y=\"{}\" class=\"t\">{} — window {}, {} bins</text>",
            y + 14,
            xml_escape(&s.label),
            fmt_ms(s.window_ns),
            s.bins()
        );
        y += 24;
        let panels = [
            Panel {
                title: "offered/bin",
                color: "#888888",
                vals: s.offered.clone(),
            },
            Panel {
                title: "served/bin",
                color: "#2f9e44",
                vals: s.served.clone(),
            },
            Panel {
                title: "p99",
                color: "#e8590c",
                vals: s.p99_ns.clone(),
            },
            Panel {
                title: "active",
                color: "#1971c2",
                vals: s.active.clone(),
            },
            Panel {
                title: "booting peak",
                color: "#9c36b5",
                vals: s.booting_peak.clone(),
            },
            Panel {
                title: "queue",
                color: "#c92a2a",
                vals: clamp_pos(&s.queue_primary),
            },
        ];
        for p in panels {
            let max = p.vals.iter().copied().max().unwrap_or(0).max(1);
            let points: Vec<String> = p
                .vals
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let x = LEFT + i as u64 * STEP;
                    let py = y + PANEL_H - ((v as u128 * PANEL_H as u128) / max as u128) as u64;
                    format!("{x},{py}")
                })
                .collect();
            let _ = writeln!(
                body,
                "<text x=\"10\" y=\"{}\" class=\"l\">{} (max {})</text>",
                y + PANEL_H / 2,
                p.title,
                max
            );
            let _ = writeln!(
                body,
                "<polyline fill=\"none\" stroke=\"{}\" stroke-width=\"1.5\" points=\"{}\"/>",
                p.color,
                points.join(" ")
            );
            y += PANEL_H + PANEL_GAP;
        }
        // Burst onset / settle markers over the whole scenario block.
        for sig in &s.signals {
            let x = LEFT + (sig.onset_ns / s.window_ns.max(1)) * STEP;
            let _ = writeln!(
                body,
                "<line x1=\"{x}\" y1=\"{}\" x2=\"{x}\" y2=\"{}\" stroke=\"#e8590c\" stroke-dasharray=\"3,3\"/>",
                y - 6 * (PANEL_H + PANEL_GAP),
                y - PANEL_GAP
            );
            if let Some(settle) = sig.settle_ns {
                let sx = LEFT + (settle / s.window_ns.max(1)) * STEP;
                let _ = writeln!(
                    body,
                    "<line x1=\"{sx}\" y1=\"{}\" x2=\"{sx}\" y2=\"{}\" stroke=\"#2f9e44\" stroke-dasharray=\"3,3\"/>",
                    y - 6 * (PANEL_H + PANEL_GAP),
                    y - PANEL_GAP
                );
            }
        }
        y += 10;
    }
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{y}\" \
         viewBox=\"0 0 {width} {y}\">\n<style>.t{{font:bold 13px monospace}}\
.l{{font:11px monospace;fill:#444}}</style>\n<rect width=\"{width}\" height=\"{y}\" \
fill=\"#ffffff\"/>\n{body}</svg>\n"
    )
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

// ---------------------------------------------------------------------------
// Lag diffing (`repro lag BASELINE CURRENT`)
// ---------------------------------------------------------------------------

/// One row of a scale-up-lag comparison between two runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LagRow {
    /// Scenario label the burst belongs to.
    pub label: String,
    /// Onset time of the compared burst (ns).
    pub onset_ns: u64,
    /// Baseline scale-up lag, `None` when the baseline never settled.
    pub baseline_ns: Option<u64>,
    /// Current scale-up lag, `None` when the current run never settled.
    pub current_ns: Option<u64>,
    /// Verdict: `ok`, `improved` or `REGRESSED`.
    pub verdict: &'static str,
}

/// Compare per-burst scale-up lag between a baseline and a current
/// document. Scenarios are matched by label, bursts by onset index. A lag
/// counts as regressed when it grows by more than 25% plus one bin width
/// (absorbing bin-quantisation), or stops settling entirely.
pub fn lag_diff(baseline: &TimelineDoc, current: &TimelineDoc) -> (Vec<LagRow>, bool) {
    let mut rows = Vec::new();
    let mut regressed = false;
    for b in &baseline.scenarios {
        let Some(c) = current.scenarios.iter().find(|c| c.label == b.label) else {
            continue;
        };
        for (i, bs) in b.signals.iter().enumerate() {
            let Some(cs) = c.signals.get(i) else {
                continue;
            };
            // Saturating: the lags and the window come from files.
            let band = |lag: u64| lag.saturating_add(lag / 4).saturating_add(b.window_ns);
            let verdict = match (bs.lag_ns, cs.lag_ns) {
                (None, None) => "ok",
                (None, Some(_)) => "improved",
                (Some(_), None) => "REGRESSED",
                (Some(base), Some(cur)) => {
                    if cur > band(base) {
                        "REGRESSED"
                    } else if band(cur) < base {
                        "improved"
                    } else {
                        "ok"
                    }
                }
            };
            regressed |= verdict == "REGRESSED";
            rows.push(LagRow {
                label: b.label.clone(),
                onset_ns: bs.onset_ns,
                baseline_ns: bs.lag_ns,
                current_ns: cs.lag_ns,
                verdict,
            });
        }
    }
    (rows, regressed)
}

/// Render a lag comparison as an aligned text table.
pub fn render_lag_rows(rows: &[LagRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap_or(8).max(8);
    let _ = writeln!(
        out,
        "{:<label_w$}  {:>10}  {:>12}  {:>12}  verdict",
        "scenario", "onset", "baseline", "current"
    );
    for r in rows {
        let f = |v: Option<u64>| match v {
            Some(ns) => fmt_ms(ns),
            None => "unsettled".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<label_w$}  {:>10}  {:>12}  {:>12}  {}",
            r.label,
            fmt_ms(r.onset_ns),
            f(r.baseline_ns),
            f(r.current_ns),
            r.verdict
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_sim::json::ToJson;
    use beehive_sim::{Rng, SimTime};
    use beehive_telemetry::{Arg, EventKind, TraceEvent, Track};

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// One request served per 100ms-ish bin with stable latency, plus a
    /// slow early phase so the run-start burst has a visible lag.
    fn stable_run(obs: &mut Observer) {
        for i in 0..40u64 {
            let rid = i;
            let t0 = i * 100;
            let lat = if i < 8 { 40 } else { 5 }; // slow start, then steady
            obs.feed(&TraceEvent::new(
                at_ms(t0),
                Track::Request(rid),
                "req:server",
                EventKind::Begin,
                &[],
            ));
            obs.feed(&TraceEvent::new(
                at_ms(t0 + lat),
                Track::Request(rid),
                "req:server",
                EventKind::End,
                &[],
            ));
        }
    }

    #[test]
    fn bins_are_fixed_width_and_counts_add_up() {
        let mut obs = Observer::new(Duration::from_millis(100));
        stable_run(&mut obs);
        let s = obs.finish("t".into());
        assert_eq!(s.window_ns, 100_000_000);
        assert_eq!(s.offered.iter().sum::<u64>(), 40);
        assert_eq!(s.served.iter().sum::<u64>(), 40);
        assert!(s.bins() >= 40, "one bin per 100ms of activity");
        assert_eq!(s.p50_ns.len(), s.bins());
        assert_eq!(s.signals.len(), 1, "implicit run-start onset");
    }

    #[test]
    fn run_start_burst_settles_with_finite_lag() {
        let mut obs = Observer::new(Duration::from_millis(100));
        stable_run(&mut obs);
        let s = obs.finish("t".into());
        let sig = &s.signals[0];
        assert_eq!(sig.onset_ns, 0);
        let lag = sig.lag_ns.expect("stable run must settle");
        assert!(lag >= 100_000_000, "slow start delays settling");
        assert_eq!(sig.settle_ns, Some(lag));
        assert!(sig.provisioning_efficiency_bp > 0);
    }

    #[test]
    fn shadow_requests_are_not_offered_load() {
        let mut obs = Observer::new(Duration::from_millis(100));
        obs.feed(&TraceEvent::new(
            at_ms(0),
            Track::Request(1),
            "req:shadow",
            EventKind::Begin,
            &[],
        ));
        obs.feed(&TraceEvent::new(
            at_ms(10),
            Track::Request(1),
            "req:shadow",
            EventKind::End,
            &[],
        ));
        obs.feed(&TraceEvent::new(
            at_ms(20),
            Track::Request(2),
            "req:offload",
            EventKind::Begin,
            &[],
        ));
        obs.feed(&TraceEvent::new(
            at_ms(30),
            Track::Request(2),
            "req:offload",
            EventKind::End,
            &[],
        ));
        let s = obs.finish("t".into());
        assert_eq!(s.offered.iter().sum::<u64>(), 1);
        assert_eq!(s.served.iter().sum::<u64>(), 1);
    }

    #[test]
    fn boot_wait_is_charged_to_the_request_latency() {
        let mut obs = Observer::new(Duration::from_millis(100));
        // boot:wait precedes the session span at the same instant.
        obs.feed(&TraceEvent::new(
            at_ms(50),
            Track::Request(7),
            "boot:wait",
            EventKind::Complete(Duration::from_millis(50)),
            &[("cold", Arg::Bool(true))],
        ));
        obs.feed(&TraceEvent::new(
            at_ms(50),
            Track::Request(7),
            "req:offload",
            EventKind::Begin,
            &[],
        ));
        obs.feed(&TraceEvent::new(
            at_ms(60),
            Track::Request(7),
            "req:offload",
            EventKind::End,
            &[],
        ));
        let s = obs.finish("t".into());
        // 10ms of execution + 50ms hidden boot wait = 60ms latency.
        assert!(s.p99_ns.iter().any(|&v| v >= 60_000_000));
    }

    #[test]
    fn a_rerouted_request_is_offered_once_and_served_from_its_arrival() {
        let mut obs = Observer::new(Duration::from_millis(100));
        let reroute = [("lost_ns", Arg::UInt(1)), ("server_request", Arg::UInt(8))];
        let events = [
            (0, 7, "req:offload", EventKind::Begin, &[][..]),
            (150, 7, "recovery:degrade", EventKind::Instant, &reroute[..]),
            (150, 8, "req:server", EventKind::Begin, &[]),
            (170, 8, "req:server", EventKind::End, &[]),
        ];
        for (ms, rid, name, kind, args) in events {
            obs.feed(&TraceEvent::new(
                at_ms(ms),
                Track::Request(rid),
                name,
                kind,
                args,
            ));
        }
        let s = obs.finish("t".into());
        assert_eq!(s.offered, vec![1, 0]);
        assert_eq!(s.served, vec![0, 1]);
        // 170ms from arrival, not the 20ms of the server session.
        assert!(s.p99_ns[1] >= 170_000_000, "{:?}", s.p99_ns);
    }

    #[test]
    fn rejections_count_as_offered() {
        let mut obs = Observer::new(Duration::from_millis(100));
        obs.feed(&TraceEvent::new(
            at_ms(10),
            Track::Server,
            "rejected",
            EventKind::Instant,
            &[],
        ));
        obs.feed(&TraceEvent::new(
            at_ms(20),
            Track::Request(1),
            "req:server",
            EventKind::Begin,
            &[],
        ));
        obs.feed(&TraceEvent::new(
            at_ms(25),
            Track::Request(1),
            "req:server",
            EventKind::End,
            &[],
        ));
        let s = obs.finish("t".into());
        assert_eq!(s.offered.iter().sum::<u64>(), 2);
        assert_eq!(s.rejected.iter().sum::<u64>(), 1);
        assert_eq!(s.served.iter().sum::<u64>(), 1);
    }

    #[test]
    fn instance_lifecycle_tracks_fleet_gauges() {
        let mut obs = Observer::new(Duration::from_millis(10));
        obs.feed(&TraceEvent::new(
            at_ms(1),
            Track::Instance(0),
            "instance:cold_boot",
            EventKind::Instant,
            &[],
        ));
        obs.feed(&TraceEvent::new(
            at_ms(2),
            Track::Instance(1),
            "instance:cold_boot",
            EventKind::Instant,
            &[],
        ));
        obs.feed(&TraceEvent::new(
            at_ms(15),
            Track::Instance(0),
            "instance:ready",
            EventKind::Instant,
            &[],
        ));
        obs.feed(&TraceEvent::new(
            at_ms(25),
            Track::Instance(0),
            "instance:release",
            EventKind::Instant,
            &[],
        ));
        obs.feed(&TraceEvent::new(
            at_ms(35),
            Track::Instance(0),
            "instance:warm_start",
            EventKind::Instant,
            &[],
        ));
        obs.feed(&TraceEvent::new(
            at_ms(45),
            Track::Instance(0),
            "instance:kill",
            EventKind::Instant,
            &[],
        ));
        let s = obs.finish("t".into());
        // Bin 0: both booting; peak 2.
        assert_eq!(s.booting[0], 2);
        assert_eq!(s.booting_peak[0], 2);
        // Bin 1: one ready (active), one still booting.
        assert_eq!(s.active[1], 1);
        assert_eq!(s.booting[1], 1);
        // Bin 2: released to the warm cache.
        assert_eq!(s.idle[2], 1);
        assert_eq!(s.active[2], 0);
        // Bin 3: warm start took it busy again.
        assert_eq!(s.active[3], 1);
        assert_eq!(s.idle[3], 0);
        // Bin 4: killed.
        assert_eq!(s.active[4], 0);
    }

    #[test]
    fn expire_drains_the_idle_gauge() {
        let mut obs = Observer::new(Duration::from_millis(10));
        for id in 0..3u32 {
            obs.feed(&TraceEvent::new(
                at_ms(1),
                Track::Instance(id),
                "instance:warm_start",
                EventKind::Instant,
                &[],
            ));
            obs.feed(&TraceEvent::new(
                at_ms(2),
                Track::Instance(id),
                "instance:release",
                EventKind::Instant,
                &[],
            ));
        }
        obs.feed(&TraceEvent::new(
            at_ms(15),
            Track::Platform,
            "instance:expire",
            EventKind::Instant,
            &[("count", Arg::UInt(2))],
        ));
        let s = obs.finish("t".into());
        assert_eq!(s.idle[0], 3);
        assert_eq!(s.idle[1], 1);
    }

    #[test]
    fn onsets_from_rate_steps_produce_extra_signals() {
        let mut obs = Observer::new(Duration::from_millis(100));
        stable_run(&mut obs);
        obs.feed(&TraceEvent::new(
            at_ms(2_000),
            Track::Sim,
            "burst:onset",
            EventKind::Instant,
            &[
                ("mrps_from", Arg::UInt(50_000)),
                ("mrps_to", Arg::UInt(150_000)),
            ],
        ));
        // A rate *drop* is not an onset.
        obs.feed(&TraceEvent::new(
            at_ms(3_000),
            Track::Sim,
            "burst:onset",
            EventKind::Instant,
            &[
                ("mrps_from", Arg::UInt(150_000)),
                ("mrps_to", Arg::UInt(50_000)),
            ],
        ));
        let s = obs.finish("t".into());
        assert_eq!(s.signals.len(), 2);
        assert_eq!(s.signals[1].onset_ns, 2_000_000_000);
    }

    #[test]
    fn dispatch_outcomes_and_burst_routes_are_binned() {
        let mut obs = Observer::new(Duration::from_millis(100));
        for (ms, outcome) in [(10, "warm"), (20, "spawn"), (30, "server"), (40, "warm")] {
            obs.feed(&TraceEvent::new(
                at_ms(ms),
                Track::Server,
                "offload:dispatch",
                EventKind::Instant,
                &[("outcome", Arg::Str(outcome))],
            ));
        }
        obs.feed(&TraceEvent::new(
            at_ms(50),
            Track::Server,
            "burst:route",
            EventKind::Instant,
            &[("route", Arg::Str("scaled"))],
        ));
        obs.feed(&TraceEvent::new(
            at_ms(60),
            Track::Server,
            "burst:route",
            EventKind::Instant,
            &[("route", Arg::Str("primary"))],
        ));
        let s = obs.finish("t".into());
        assert_eq!(s.dispatch_warm[0], 2);
        assert_eq!(s.dispatch_spawn[0], 1);
        assert_eq!(s.dispatch_server[0], 1);
        assert_eq!(s.forwarded[0], 1);
    }

    #[test]
    fn gauges_carry_forward_across_empty_bins() {
        let mut obs = Observer::new(Duration::from_millis(10));
        obs.feed(&TraceEvent::new(
            at_ms(1),
            Track::Sim,
            "server_pool",
            EventKind::Counter(5),
            &[],
        ));
        obs.feed(&TraceEvent::new(
            at_ms(55),
            Track::Server,
            "rejected",
            EventKind::Instant,
            &[],
        ));
        let s = obs.finish("t".into());
        assert!(s.bins() >= 5);
        for b in 0..s.bins() {
            assert_eq!(s.queue_primary[b], 5, "bin {b} must carry the gauge");
        }
    }

    #[test]
    fn json_round_trips_byte_identically() {
        let mut obs = Observer::new(Duration::from_millis(100));
        stable_run(&mut obs);
        obs.feed(&TraceEvent::new(
            at_ms(1_500),
            Track::Sim,
            "pool:depth",
            EventKind::Instant,
            &[("pool", Arg::UInt(1)), ("depth", Arg::UInt(3))],
        ));
        let doc = TimelineDoc::from_series(vec![obs.finish("scenario a".into())]);
        let text = doc.to_json().render();
        let parsed = TimelineDoc::parse(&text).expect("parse");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_json().render(), text);

        // Seeded series: any bin count, any magnitude, unsettled signals.
        let mut rng = Rng::new(0x71E);
        for _ in 0..50 {
            let bins = rng.gen_range(40) as usize;
            let u = |rng: &mut Rng| {
                let mut any = || rng.next_u64() >> rng.gen_range(64);
                (0..bins).map(|_| any()).collect()
            };
            let i = |rng: &mut Rng| (0..bins).map(|_| rng.next_u64() as i64).collect();
            let maybe = |rng: &mut Rng| rng.chance(0.5).then(|| rng.next_u64());
            let signals = (0..rng.gen_range(4))
                .map(|_| BurstSignal {
                    onset_ns: rng.next_u64(),
                    band_p99_ns: rng.next_u64(),
                    settle_ns: maybe(&mut rng),
                    lag_ns: maybe(&mut rng),
                    provisioning_efficiency_bp: rng.gen_range(10_001),
                    cold_start_amplification_bp: rng.next_u64(),
                })
                .collect();
            let series = ScenarioSeries {
                label: format!("s\"{}\n", rng.next_u64()),
                window_ns: rng.next_u64(),
                events: rng.next_u64(),
                offered: u(&mut rng),
                served: u(&mut rng),
                rejected: u(&mut rng),
                p50_ns: u(&mut rng),
                p99_ns: u(&mut rng),
                queue_primary: i(&mut rng),
                queue_scaled: i(&mut rng),
                inflight: i(&mut rng),
                active: u(&mut rng),
                idle: u(&mut rng),
                booting: u(&mut rng),
                booting_peak: u(&mut rng),
                dispatch_warm: u(&mut rng),
                dispatch_spawn: u(&mut rng),
                dispatch_server: u(&mut rng),
                forwarded: u(&mut rng),
                signals,
            };
            let doc = TimelineDoc::from_series(vec![series.clone(), series]);
            let text = doc.to_json().render();
            let parsed = TimelineDoc::parse(&text).expect("parse");
            assert_eq!(parsed, doc);
            assert_eq!(parsed.to_json().render(), text);
        }
    }

    #[test]
    fn ascii_and_svg_render_every_scenario() {
        let mut obs = Observer::new(Duration::from_millis(100));
        stable_run(&mut obs);
        let doc = TimelineDoc::from_series(vec![obs.finish("my scenario".into())]);
        let text = doc.render_text();
        assert!(text.contains("== my scenario =="));
        assert!(text.contains("offered"));
        assert!(text.contains("burst @0.00ms"));
        let svg = doc.render_svg();
        assert!(svg.starts_with("<svg "));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("polyline"));
        assert!(svg.contains("my scenario"));
    }

    #[test]
    fn lag_diff_flags_regressions_and_improvements() {
        let series = |lag: Option<u64>| ScenarioSeries {
            label: "s".into(),
            window_ns: 1_000_000_000,
            signals: vec![BurstSignal {
                onset_ns: 0,
                band_p99_ns: 1,
                settle_ns: lag,
                lag_ns: lag,
                provisioning_efficiency_bp: 10_000,
                cold_start_amplification_bp: 10_000,
            }],
            ..ScenarioSeries::default()
        };
        let base = TimelineDoc::from_series(vec![series(Some(2_000_000_000))]);
        let same = TimelineDoc::from_series(vec![series(Some(2_400_000_000))]);
        let worse = TimelineDoc::from_series(vec![series(Some(9_000_000_000))]);
        let never = TimelineDoc::from_series(vec![series(None)]);

        let (rows, regressed) = lag_diff(&base, &same);
        assert_eq!(rows[0].verdict, "ok");
        assert!(!regressed);
        let (rows, regressed) = lag_diff(&base, &worse);
        assert_eq!(rows[0].verdict, "REGRESSED");
        assert!(regressed);
        let (rows, regressed) = lag_diff(&base, &never);
        assert_eq!(rows[0].verdict, "REGRESSED");
        assert!(regressed);
        let (rows, regressed) = lag_diff(&worse, &base);
        assert_eq!(rows[0].verdict, "improved");
        assert!(!regressed);
        let table = render_lag_rows(&rows);
        assert!(table.contains("scenario"));
        assert!(table.contains("improved"));
    }

    #[test]
    fn lag_diff_tolerance_band_saturates_on_huge_lags() {
        // Documents as `repro lag` reads them: rendered, then parsed.
        let doc = |lag: u64| {
            let s = ScenarioSeries {
                label: "s".into(),
                window_ns: 1_000_000_000,
                signals: vec![BurstSignal {
                    onset_ns: 0,
                    band_p99_ns: 1,
                    settle_ns: Some(lag),
                    lag_ns: Some(lag),
                    provisioning_efficiency_bp: 10_000,
                    cold_start_amplification_bp: 10_000,
                }],
                ..ScenarioSeries::default()
            };
            let text = TimelineDoc::from_series(vec![s]).to_json().render();
            TimelineDoc::parse(&text).expect("parse")
        };
        let huge = doc(u64::MAX - 1);
        let (rows, regressed) = lag_diff(&huge, &huge);
        assert_eq!((rows[0].verdict, regressed), ("ok", false));
        let (rows, regressed) = lag_diff(&doc(u64::MAX / 4), &huge);
        assert_eq!((rows[0].verdict, regressed), ("REGRESSED", true));
        let (rows, regressed) = lag_diff(&huge, &doc(u64::MAX / 4));
        assert_eq!((rows[0].verdict, regressed), ("improved", false));
    }

    #[test]
    fn offline_replay_equals_streaming() {
        let events: Vec<TraceEvent> = (0..10u64)
            .flat_map(|i| {
                vec![
                    TraceEvent::new(
                        at_ms(i * 100),
                        Track::Request(i),
                        "req:server",
                        EventKind::Begin,
                        &[],
                    ),
                    TraceEvent::new(
                        at_ms(i * 100 + 5),
                        Track::Request(i),
                        "req:server",
                        EventKind::End,
                        &[],
                    ),
                ]
            })
            .collect();
        let mut streaming = Observer::new(DEFAULT_WINDOW);
        for e in &events {
            streaming.feed(e);
        }
        let streaming = streaming.finish("x".into());
        let trace = Trace { events };
        let doc = TimelineDoc::from_traces(&[("x".into(), trace)], DEFAULT_WINDOW);
        assert_eq!(doc.scenarios[0], streaming);
    }
}
