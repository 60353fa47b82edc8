//! `repro` — regenerate every table and figure of the BeeHive paper.
//!
//! Every item, subcommand and flag is described once: by `repro --help`
//! (one usage line per invocation form), `repro list` (one line per item,
//! subcommand and umbrella flag) and README ("Quickstart", "Observability").
//! Both printouts are rendered from the [`ITEMS`], [`MAIN`] and [`CMDS`]
//! tables below, which are also what the argument parser, the usage errors
//! and every subcommand read, so a new item or flag is one row there.
//!
//! Exit status: 0 on success; 1 when a gate fails (`--sentinel` or `check`
//! violations, a `diff` or `lag` regression); 2 on a usage error or an
//! artifact that does not parse, with one `error:` line on stderr and
//! nothing on stdout. No form retains a trace: every consumer folds the
//! events as they are recorded ([`artifacts::collect`]).

mod artifacts;

use std::fmt::{Display, Write as _};
use std::path::{Path, PathBuf};

use artifacts::{Collected, Finished, Want};
use beehive_apps::AppKind;
use beehive_scaling::table1;
use beehive_sim::json::{Json, ToJson};
use beehive_workload::engine::Plan;
use beehive_workload::experiment::{
    ablation::ablation,
    breakdown::{gc_stats, shadow_breakdown},
    combination::combination,
    fig2::fig2,
    fig7::{fig7, Fig7Report},
    fig8::fig8,
    fig9::fig9,
    recovery::recovery,
    slo::{fig10, table4},
    table2::table2,
    table5::table5,
    Profile,
};

// ---- The item table ----

/// What running one item yields: the text printed under its banner and,
/// for `--json`, one report body for the item itself plus one for every
/// item printed [`Run::With`] it, in table order.
struct Output {
    text: String,
    bodies: Vec<Json>,
}

/// How an item is produced.
enum Run {
    /// Selects every other item.
    Every,
    /// Printed by the named item, which selecting this one selects.
    With(&'static str),
    /// Plans the item at a [`Profile`] and chaos seed: the simulations it
    /// runs through the engine — none for an item computed from constants,
    /// which has no artifacts and cannot be the ITEM of a subcommand — and
    /// how their outcomes become its report.
    Plan(fn(Profile, u64) -> Plan<Output>),
}

/// One runnable item: its `repro list` row, its section banner, its runner.
struct Item {
    name: &'static str,
    desc: &'static str,
    banner: &'static str,
    run: Run,
}

/// Every item, in paper order — the order `repro all` prints them in.
static ITEMS: [Item; 16] = [
    Item {
        name: "all",
        desc: "every item below, in paper order",
        banner: "",
        run: Run::Every,
    },
    Item {
        name: "table1",
        desc: "scaling solutions compared (billing, preparation, granularity)",
        banner: "Table 1 — scaling solutions compared",
        run: Run::Plan(|_, _| Plan::new(Vec::new(), |_| table1_output())),
    },
    Item {
        name: "fig2",
        desc: "motivation: closed-loop latency of a vanilla server under load",
        banner: "Figure 2",
        run: Run::Plan(|p, _| fig2(p).map(single)),
    },
    Item {
        name: "table2",
        desc: "native invocations per pybbs request, by category",
        banner: "Table 2",
        run: Run::Plan(|_, _| Plan::new(Vec::new(), |_| single(table2()))),
    },
    Item {
        name: "fig7",
        desc: "burst latency timelines for every scaling strategy",
        banner: "Figure 7 + Table 3",
        run: Run::Plan(|p, _| Plan::join(AppKind::all().map(|k| fig7(k, p))).map(fig7_table3)),
    },
    Item {
        name: "table3",
        desc: "financial cost of the scaling in Figure 7",
        banner: "",
        run: Run::With("fig7"),
    },
    Item {
        name: "fig8",
        desc: "latency vs offered throughput and the saturation point",
        banner: "Figure 8",
        run: Run::Plan(|p, _| Plan::join(AppKind::all().map(|k| fig8(k, p))).map(apps)),
    },
    Item {
        name: "fig9",
        desc: "per-hour cost ($/hour) vs burst ratio",
        banner: "Figure 9",
        run: Run::Plan(|p, _| {
            // Quick mode sweeps pybbs only.
            let kinds = [AppKind::Pybbs, AppKind::Blog, AppKind::Thumbnail];
            let kinds = &kinds[..if p.quick { 1 } else { 3 }];
            Plan::join(kinds.iter().map(|&k| fig9(k, p))).map(apps)
        }),
    },
    Item {
        name: "table4",
        desc: "minimal p99 latency under fixed throughput per app",
        banner: "Table 4",
        run: Run::Plan(|p, _| table4(&AppKind::all(), p).map(single)),
    },
    Item {
        name: "fig10",
        desc: "p99 latency vs SLO requirement on blog",
        banner: "Figure 10",
        run: Run::Plan(|p, _| fig10(p).map(single)),
    },
    Item {
        name: "table5",
        desc: "fallback and synchronization counts per offloaded request",
        banner: "Table 5",
        run: Run::Plan(|p, _| table5(&AppKind::all(), p).map(single)),
    },
    Item {
        name: "gcstats",
        desc: "§5.6 memory consumption and GC pauses",
        banner: "§5.6 — memory consumption and GC",
        run: Run::Plan(|p, _| gc_stats(&AppKind::all(), p).map(single)),
    },
    Item {
        name: "shadow",
        desc: "§5.6 shadow-execution warm-up breakdown",
        banner: "§5.6 — shadow execution",
        run: Run::Plan(|p, _| Plan::join(AppKind::all().map(|k| shadow_breakdown(k, p))).map(apps)),
    },
    Item {
        name: "ablations",
        desc: "feature ablations (shadowing, proxy, refinement) on pybbs",
        banner: "Ablations",
        run: Run::Plan(|p, _| ablation(AppKind::Pybbs, p).map(single)),
    },
    Item {
        name: "combination",
        desc: "§5.7 Semi-FaaS bridging an on-demand instance boot",
        banner: "§5.7 — combination mode",
        run: Run::Plan(|p, _| combination(AppKind::Pybbs, p).map(single)),
    },
    Item {
        name: "recovery",
        desc: "§4.5 MTTR and latency under injected instance crashes",
        banner: "§4.5 — failure recovery under fault injection",
        run: Run::Plan(|p, chaos_seed| recovery(AppKind::Pybbs, p, chaos_seed).map(single)),
    },
];

/// The rows as `repro list` and `--help` have always shown them: Figure 2
/// ahead of Table 1, which precedes it in the paper.
fn listed() -> impl Iterator<Item = &'static Item> {
    let (all, table1, fig2, rest) = (&ITEMS[0], &ITEMS[1], &ITEMS[2], &ITEMS[3..]);
    [all, fig2, table1].into_iter().chain(rest)
}

/// The row named `name`.
fn item(name: &str) -> Option<&'static Item> {
    ITEMS.iter().find(|it| it.name == name)
}

impl Item {
    /// The plan behind this row at `args`' profile and chaos seed (its
    /// host's, for a row printed [`Run::With`] another); `None` for `all`.
    fn plan(&self, args: &Args) -> Option<Plan<Output>> {
        match self.run {
            Run::Plan(plan) => Some(plan(args.profile, args.chaos_seed)),
            Run::With(host) => item(host)?.plan(args),
            Run::Every => None,
        }
    }
}

/// `true` when `row` is printed in `host`'s section: it is `host`, or is
/// printed [`Run::With`] it.
fn printed_in(row: &Item, host: &Item) -> bool {
    row.name == host.name || matches!(row.run, Run::With(h) if h == host.name)
}

/// An item that is one report.
fn single(rep: impl Display + ToJson) -> Output {
    Output {
        text: format!("{rep}\n"),
        bodies: vec![rep.to_json()],
    }
}

/// An item that is one report per application.
fn apps<R: Display + ToJson>(reps: Vec<R>) -> Output {
    Output {
        text: reps.iter().map(|rep| format!("{rep}\n")).collect(),
        bodies: vec![Json::obj([("apps".into(), Json::arr(reps.iter()))])],
    }
}

fn table1_output() -> Output {
    let mut text = format!(
        "{:<14} {:<18} {:<14} {:<16} {:<12} Auto-scaling\n",
        "Solution", "Min running time", "Billing", "Preparation", "Config"
    );
    for row in table1() {
        let _ = writeln!(
            text,
            "{:<14} {:<18} {:<14} {:<16} {:<12} {}",
            row.name,
            row.min_running_time,
            row.billing_granularity,
            row.preparation_time,
            row.config_granularity,
            if row.auto_scaling { "yes" } else { "no" }
        );
    }
    Output {
        text,
        bodies: vec![Json::obj([("rows".into(), Json::arr(table1().iter()))])],
    }
}

/// Figure 7 for every app, then Table 3: the scaling cost of the same runs,
/// one column per app and one row per strategy.
fn fig7_table3(reps: Vec<Fig7Report>) -> Output {
    let mut text: String = reps.iter().map(|rep| format!("{rep}\n")).collect();
    text.push_str("Table 3 — financial cost ($) for scaling in Figure 7\n");
    let _ = write!(text, "{:<22}", "Scaling solutions");
    for rep in &reps {
        let _ = write!(text, "{:>12}", rep.app.name());
    }
    text.push('\n');
    for (i, row) in reps[0].rows.iter().enumerate() {
        let _ = write!(text, "{:<22}", row.strategy.label());
        for rep in &reps {
            let _ = write!(text, "{:>12.4}", rep.rows[i].scaling_cost);
        }
        text.push('\n');
    }
    let costs = reps.iter().map(|rep| {
        let by_strategy = rep
            .rows
            .iter()
            .map(|r| (r.strategy.label().to_string(), Json::from(r.scaling_cost)));
        Json::obj([
            ("app".into(), Json::from(rep.app.name())),
            ("by_strategy".into(), Json::Obj(by_strategy.collect())),
        ])
    });
    Output {
        bodies: vec![
            Json::obj([("apps".into(), Json::arr(reps.iter()))]),
            Json::obj([("costs".into(), Json::Arr(costs.collect()))]),
        ],
        text,
    }
}

// ---- The flag and subcommand tables ----

/// What a flag takes.
#[derive(Clone, Copy, PartialEq)]
enum Takes {
    Switch,
    /// A switch mutually exclusive with the flag before it (`[--a|--b]`).
    OrSwitch,
    Seed,
    Count,
    Nanos,
    Dir,
    File,
}

/// Whether a flag accepts the value given for it.
type Check = fn(&str) -> bool;

impl Takes {
    /// For a flag that takes a value: its usage placeholder, what `FLAG
    /// needs ...` calls it, and the check it must pass.
    fn value(self) -> Option<(&'static str, &'static str, Check)> {
        let positive: Check = |v| v.parse::<u64>().is_ok_and(|n| n >= 1);
        // The observer keeps every bin of the run, so nanosecond bins over
        // seconds of virtual time exhaust memory.
        let window: Check = |v| v.parse::<u64>().is_ok_and(|n| n >= 1_000_000);
        // A path may not look like the next flag.
        let path: Check = |v| !v.starts_with('-');
        match self {
            Takes::Switch | Takes::OrSwitch => None,
            Takes::Seed => Some(("N", "an integer", |v| v.parse::<u64>().is_ok())),
            Takes::Count => Some(("N", "a positive integer", positive)),
            Takes::Nanos => Some((
                "NS",
                "a nanosecond count of at least 1000000 (1 ms)",
                window,
            )),
            Takes::Dir => Some(("DIR", "a directory", path)),
            Takes::File => Some(("FILE", "a file", path)),
        }
    }
}

/// One flag of one invocation form: its name and what it takes.
struct Flag(&'static str, Takes);

// The flags every simulating form takes; `parse` folds them into
// `Args::profile` / `Args::chaos_seed`.
const QUICK: Flag = Flag("--quick", Takes::Switch);
const SEED: Flag = Flag("--seed", Takes::Seed);
const CHAOS_SEED: Flag = Flag("--chaos-seed", Takes::Seed);
const JSON: Flag = Flag("--json", Takes::Switch);
const BENCH_OUT: Flag = Flag("--bench-out", Takes::File);

/// One invocation form: `repro [flags] ITEM...` ([`MAIN`]) or a subcommand.
struct Cmd {
    /// Empty for [`MAIN`].
    name: &'static str,
    /// Its `repro list` row.
    desc: &'static str,
    /// Its operands as the usage line spells them. For subcommands this is
    /// also the arity: one operand per word, `...` for "or more".
    operands: &'static str,
    flags: &'static [Flag],
    run: fn(Args),
}

static MAIN: Cmd = Cmd {
    name: "",
    desc: "",
    operands: "",
    flags: &[
        QUICK,
        SEED,
        CHAOS_SEED,
        JSON,
        Flag("--trace", Takes::Dir),
        Flag("--metrics", Takes::Dir),
        Flag("--profile", Takes::Dir),
        Flag("--insight", Takes::Dir),
        Flag("--obs", Takes::Dir),
        Flag("--sentinel", Takes::Switch),
    ],
    run: run_items,
};

/// The [`MAIN`] flags that switch on several substrates at once, as
/// `repro list` describes them.
const UMBRELLAS: [(&str, &str); 2] = [
    ("--obs DIR", "write every artifact family in one pass: trace + metrics + profile + insight + sentinel conformance reports + elasticity timelines"),
    ("--sentinel", "run the online conformance checker in every simulation (exit 1 on violations)"),
];

/// The subcommands, in `--help` order.
static CMDS: [Cmd; 6] = [
    Cmd {
        name: "diff",
        desc: "watched-metric regression gate with root-cause diagnosis (repro diff BASE CUR)",
        operands: "BASELINE CURRENT",
        flags: &[BENCH_OUT],
        run: run_diff,
    },
    Cmd {
        name: "top",
        desc: "hottest simulated frames for one item (repro top ITEM)",
        operands: "ITEM",
        flags: &[QUICK, SEED, CHAOS_SEED, Flag("--top", Takes::Count)],
        run: run_top,
    },
    Cmd {
        name: "explain",
        desc: "latency attribution, SLO burn and slowest requests (repro explain ITEM)",
        operands: "ITEM",
        flags: &[QUICK, SEED, CHAOS_SEED, Flag("--slowest", Takes::Count)],
        run: run_explain,
    },
    Cmd {
        name: "check",
        desc: "conformance report of the online checker (repro check ITEM...)",
        operands: "ITEM...",
        flags: &[
            QUICK,
            Flag("--strict", Takes::Switch),
            JSON,
            SEED,
            CHAOS_SEED,
        ],
        run: run_check,
    },
    Cmd {
        name: "timeline",
        desc: "elasticity timelines and scale-up lag for one item (repro timeline ITEM)",
        operands: "ITEM",
        flags: &[
            QUICK,
            SEED,
            CHAOS_SEED,
            Flag("--window", Takes::Nanos),
            JSON,
            Flag("--svg", Takes::OrSwitch),
        ],
        run: run_timeline,
    },
    Cmd {
        name: "lag",
        desc: "diff scale-up lag between two --obs directories (repro lag BASE CUR)",
        operands: "BASELINE CURRENT",
        flags: &[],
        run: run_lag,
    },
];

/// The usage line of one invocation form, as `--help` and usage errors
/// print it.
fn usage(cmd: &Cmd) -> String {
    let mut flags = String::new();
    for (i, Flag(name, takes)) in cmd.flags.iter().enumerate() {
        flags += if *takes == Takes::OrSwitch { "|" } else { " [" };
        flags += name;
        if let Some((meta, ..)) = takes.value() {
            flags = flags + " " + meta;
        }
        if !matches!(cmd.flags.get(i + 1), Some(Flag(_, Takes::OrSwitch))) {
            flags += "]";
        }
    }
    if cmd.name.is_empty() {
        let items: Vec<&str> = listed().map(|it| it.name).collect();
        format!("repro{flags} [list|{}]", items.join("|"))
    } else {
        format!("repro {} {}{flags}", cmd.name, cmd.operands)
    }
}

/// `repro list`: every runnable item, subcommand and umbrella flag.
fn list() {
    println!("Runnable items (repro [flags] <item>...):");
    for it in listed() {
        println!("  {:<12} {}", it.name, it.desc);
    }
    println!("Subcommands:");
    // The commands that run an item lead; `--help` keeps the older order.
    for cmd in CMDS.iter().cycle().skip(1).take(CMDS.len()) {
        println!("  {:<12} {}", cmd.name, cmd.desc);
    }
    println!("Umbrella flags:");
    for (flag, desc) in UMBRELLAS {
        println!("  {flag:<12} {desc}");
    }
}

// ---- The argument parser ----

/// One parsed command line.
struct Args {
    /// `--quick` and `--seed`.
    profile: Profile,
    /// `--chaos-seed`, defaulting to the seed.
    chaos_seed: u64,
    /// Every other flag given, with its checked value (empty for switches).
    given: Vec<(&'static str, String)>,
    operands: Vec<String>,
}

impl Args {
    /// The value of `flag` (the last, when repeated), if it was given.
    fn value(&self, flag: &str) -> Option<&str> {
        let mut given = self.given.iter().rev();
        given
            .find(|(name, _)| *name == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The value of a [`Takes::Count`] or [`Takes::Nanos`] flag, or `default`.
    fn positive(&self, flag: &str, default: u64) -> u64 {
        let parse = |v: &str| v.parse().expect("the parser checked this value");
        self.value(flag).map_or(default, parse)
    }

    /// Where the artifact family of `flag` goes: its own directory, else
    /// the `--obs` umbrella's.
    fn dir(&self, flag: &str) -> Option<&Path> {
        self.value(flag).or(self.value("--obs")).map(Path::new)
    }
}

/// Parse `args` against `cmd`'s flag table. Every malformed command line
/// exits 2 here, with a one-line error on stderr.
fn parse(cmd: &'static Cmd, args: &[String]) -> Args {
    let mut out = Args {
        profile: Profile::full(),
        chaos_seed: 0,
        given: Vec::new(),
        operands: Vec::new(),
    };
    let mut chaos_seed = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(&Flag(name, takes)) = cmd.flags.iter().find(|f| f.0 == a) else {
            if cmd.name.is_empty() && (a == "--help" || a == "-h") {
                println!("{}", usage(&MAIN));
                CMDS.iter().for_each(|c| println!("{}", usage(c)));
                std::process::exit(0);
            } else if !a.starts_with('-') {
                out.operands.push(a.clone());
            } else if cmd.name.is_empty() {
                die(&format!("unknown flag {a:?} (see `repro --help`)"));
            } else {
                die(&format!("unknown flag {a:?} for `repro {}`", cmd.name));
            }
            continue;
        };
        let v = match takes.value() {
            None => "",
            Some((_, what, accepts)) => match it.next() {
                Some(v) if accepts(v) => v,
                _ => die(&format!("{name} needs {what}")),
            },
        };
        if name == QUICK.0 {
            out.profile.quick = true;
        } else if name == SEED.0 {
            out.profile.seed = v.parse().expect("checked by `Takes::value`");
        } else if name == CHAOS_SEED.0 {
            chaos_seed = v.parse().ok();
        } else {
            out.given.push((name, v.to_string()));
        }
    }
    out.chaos_seed = chaos_seed.unwrap_or(out.profile.seed);
    for pair in cmd.flags.windows(2) {
        if pair[1].1 == Takes::OrSwitch && out.has(pair[0].0) && out.has(pair[1].0) {
            die(&format!(
                "{} and {} are mutually exclusive",
                pair[0].0, pair[1].0
            ));
        }
    }
    let arity = cmd.operands.split(' ').count();
    let arity_ok = match out.operands.len() {
        _ if cmd.name.is_empty() => true,
        n if cmd.operands.ends_with("...") => n >= arity,
        n => n == arity,
    };
    if !arity_ok {
        die(&format!("usage: {}", usage(cmd)));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sub = args.first().and_then(|a| CMDS.iter().find(|c| c.name == a));
    let (cmd, rest) = match sub {
        Some(cmd) => (cmd, &args[1..]),
        None => (&MAIN, &args[..]),
    };
    (cmd.run)(parse(cmd, rest))
}

// ---- `repro [flags] ITEM...` ----

fn run_items(args: Args) {
    if args.operands.iter().any(|c| c == "list") {
        return list();
    }
    let known = |c: &String| {
        let hint = "run `repro list` for the available items";
        item(c).unwrap_or_else(|| die(&format!("unknown item {c:?} ({hint})")))
    };
    let picked: Vec<&Item> = args.operands.iter().map(known).collect();
    let every = picked.is_empty() || picked.iter().any(|p| matches!(p.run, Run::Every));
    for dir in ["--trace", "--insight", "--metrics", "--profile"]
        .into_iter()
        .filter_map(|family| args.dir(family))
    {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("creating {}: {e}", dir.display())));
    }
    // `--obs DIR` is the umbrella: every artifact family, one directory, one
    // pass (`Args::dir`), plus the online checker and the timeline reducer.
    let obs = args.has("--obs");
    let want = Want {
        metrics: args.dir("--metrics").is_some(),
        profile: args.dir("--profile").is_some(),
        sentinel: obs || args.has("--sentinel"),
        observe: obs.then_some(beehive_observatory::DEFAULT_WINDOW),
        trace: args.dir("--trace").map(Path::to_path_buf),
        insight: args.dir("--insight").map(|_| beehive_metrics::EXEMPLAR_K),
    };

    // The selected items in table order, run as one batch.
    let selected: Vec<&Item> = (ITEMS.iter())
        .filter(|it| every || picked.iter().any(|p| printed_in(p, it)))
        .filter(|it| matches!(it.run, Run::Plan(_)))
        .collect();
    let plans = selected
        .iter()
        .filter_map(|it| Some((it.name, it.plan(&args)?)));
    let collected = artifacts::collect(want, plans.collect());

    let json = args.has(JSON.0);
    let mut reports: Vec<Json> = Vec::new();
    let mut violations = 0;
    for (it, mut c) in selected.into_iter().zip(collected) {
        if !json {
            banner(it.banner);
        }
        if json {
            let rows = ITEMS.iter().filter(|row| printed_in(row, it));
            let titled = rows.zip(std::mem::take(&mut c.out.bodies));
            reports.extend(titled.map(|(row, body)| {
                Json::obj([
                    ("title".into(), Json::from(row.name)),
                    ("body".into(), body),
                ])
            }));
        } else {
            print!("{}", c.out.text);
        }
        violations += flush(it.name, &args, c);
    }
    if json {
        println!("{}", Json::Arr(reports).render());
    }
    if violations > 0 {
        eprintln!("sentinel: {violations} invariant violation(s) detected (see above)");
        std::process::exit(1);
    }
}

fn write_file(path: &Path, contents: &str) {
    std::fs::write(path, contents)
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
}

/// Report the files of one artifact family on stderr as one `what: wrote A
/// (N scenarios) and B` line.
fn report_written(what: &str, scenarios: usize, paths: &[PathBuf]) {
    let mut wrote = format!(
        "{what}: wrote {} ({scenarios} scenarios)",
        paths[0].display()
    );
    for path in &paths[1..] {
        let _ = write!(wrote, " and {}", path.display());
    }
    eprintln!("{wrote}");
}

/// Write `DIR/<name>.<ext>` for every `(ext, contents)` and report them.
fn write_artifacts(what: &str, dir: &Path, name: &str, scenarios: usize, files: &[(&str, String)]) {
    let write = |(ext, contents): &(&str, String)| {
        let path = dir.join(format!("{name}.{ext}"));
        write_file(&path, contents);
        path
    };
    let paths: Vec<PathBuf> = files.iter().map(write).collect();
    report_written(what, scenarios, &paths);
}

/// One artifact flush per item: write every family of what the item's
/// simulations produced ([`artifacts::collect`]) that has a directory and
/// that some scenario ran. Returns the online checker's violation count,
/// which gates the exit status.
fn flush(name: &str, args: &Args, mut c: Collected) -> usize {
    let ran = |family, scenarios: usize| args.dir(family).filter(|_| scenarios > 0);
    let profiles: Vec<_> = c.scenarios.iter().filter_map(Finished::profiled).collect();
    if let Some(dir) = ran("--profile", profiles.len()) {
        flush_profiles(dir, name, &profiles);
    }
    if let Some(path) = c.trace.take() {
        // A scenario that was also profiled gains a `"hottest"` per-lane
        // top-methods table in its critical-path summary.
        let summaries = c.take(|s| {
            let hottest = s.profile.as_ref().map(|p| p.hottest_json(5));
            Some((s.summary.take()?, hottest))
        });
        let scenarios = summaries.len();
        let doc = beehive_telemetry::summary::document(summaries);
        let summary = path.with_file_name(format!("{name}.summary.json"));
        write_file(&summary, &doc.render());
        report_written("trace", scenarios, &[path, summary]);
    }
    let insight = c.insight();
    if let Some(dir) = ran("--insight", insight.slo.len()) {
        let files = [("insight.json", insight.to_json().render())];
        write_artifacts("insight", dir, name, insight.slo.len(), &files);
    }
    let metrics = c.take(|s| s.metrics.take());
    if let Some(dir) = ran("--metrics", metrics.len()) {
        let snap = beehive_metrics::MetricsSnapshot {
            window: beehive_metrics::DEFAULT_WINDOW,
            scenarios: metrics,
        };
        let files = [
            ("metrics.json", snap.render()),
            ("prom", beehive_metrics::prometheus(&snap, name)),
        ];
        write_artifacts("metrics", dir, name, snap.scenarios.len(), &files);
    }
    let series = c.take(|s| s.series.take());
    if let Some(dir) = ran("--obs", series.len()) {
        let doc = beehive_observatory::TimelineDoc::from_series(series);
        let files = [
            ("timeline.json", doc.to_json().render()),
            ("timeline.svg", doc.render_svg()),
        ];
        write_artifacts("timeline", dir, name, doc.scenarios.len(), &files);
    }
    let checks = c.take(|s| s.check.take());
    if checks.is_empty() {
        return 0;
    }
    let report = beehive_sentinel::SentinelReport::from_checks(false, checks);
    if let Some(dir) = args.dir("--obs") {
        let files = [("sentinel.json", report.to_json().render())];
        write_artifacts("sentinel", dir, name, report.scenarios.len(), &files);
    }
    let violations = report.violations();
    if violations > 0 {
        eprint!("{}", report.render_text());
        eprintln!("sentinel: {name}: {violations} violation(s)");
    }
    violations
}

/// `DIR/<name>.folded` — the scenario label, sanitized, is the first frame of
/// every line, so one file holds every scenario of the item and feeds
/// flamegraph.pl / inferno unchanged — plus `DIR/<name>.profile.json`.
fn flush_profiles(dir: &Path, name: &str, profiles: &[(&str, &beehive_profiler::Profile)]) {
    let mut folded = String::new();
    for (label, p) in profiles {
        // Folded frames may not contain the `;` separator or the trailing
        // count's space; scenario labels may.
        let prefix: String = label
            .chars()
            .map(|c| if c == ' ' || c == ';' { '_' } else { c })
            .collect();
        for line in p.folded().lines() {
            folded.push_str(&prefix);
            folded.push(';');
            folded.push_str(line);
            folded.push('\n');
        }
    }
    let doc = Json::obj([(
        "scenarios".into(),
        Json::Arr(
            profiles
                .iter()
                .map(|(label, p)| {
                    Json::obj([
                        ("label".into(), Json::from(*label)),
                        ("profile".into(), p.to_json()),
                    ])
                })
                .collect(),
        ),
    )]);
    let files = [("folded", folded), ("profile.json", doc.render())];
    write_artifacts("profile", dir, name, profiles.len(), &files);
}

// ---- Subcommands that run an item: top, explain, check, timeline ----

/// Run the simulations of the ITEM operands in one batch and collect what
/// `on` asks for ([`artifacts::collect`]), in operand order; the items' own
/// reports are discarded. Items that run no simulations (`table1`, `table2`,
/// `all`) and unknown names exit 2, before anything runs.
fn collect_operands(args: &Args, on: impl FnOnce(&mut Want)) -> Vec<Collected> {
    let plans = args.operands.iter().map(|name| {
        let plan = item(name).and_then(|it| it.plan(args));
        match plan.filter(|plan| !plan.scenarios.is_empty()) {
            Some(plan) => (name.as_str(), plan),
            None => die(&format!(
                "item {name:?} runs no simulations (run `repro list`)"
            )),
        }
    });
    let plans = plans.collect();
    let mut want = Want::default();
    on(&mut want);
    artifacts::collect(want, plans)
}

/// `repro top`: per scenario and endpoint lane, the top-N frames by self time.
fn run_top(args: Args) {
    let item = &args.operands[0];
    let profiled = collect_operands(&args, |want| want.profile = true).remove(0);
    for (label, p) in profiled.scenarios.iter().filter_map(Finished::profiled) {
        banner(&format!("{item} — {label}"));
        for (lane, rows) in p.hottest(args.positive("--top", 5) as usize) {
            println!("\n  lane {lane}");
            println!(
                "    {:<44} {:>12} {:>12} {:>10}",
                "frame", "self_ms", "total_ms", "calls"
            );
            for r in rows {
                println!(
                    "    {:<44} {:>12.3} {:>12.3} {:>10}",
                    r.frame,
                    r.self_ns as f64 / 1e6,
                    r.total_ns as f64 / 1e6,
                    r.calls
                );
            }
        }
    }
}

/// Basis points rendered as a multiplier: `12_345` → `"1.23x"`.
fn bp_x(bp: u64) -> String {
    format!("{}.{:02}x", bp / 10_000, (bp % 10_000) / 100)
}

/// `repro explain`: the `--insight` document at `--slowest`, printed in
/// integers only, so byte-identical across worker counts.
fn run_explain(args: Args) {
    let item = &args.operands[0];
    let slowest = args.positive("--slowest", beehive_metrics::EXEMPLAR_K as u64) as usize;
    let doc = collect_operands(&args, |want| want.insight = Some(slowest))[0].insight();
    for (rep, slo) in doc.attributions.iter().zip(&doc.slo) {
        banner(&format!("{item} — {}", rep.label));
        println!(
            "requests {} (shadows {})   attributed {}us   gc {}us   residual {}ns",
            rep.requests,
            rep.shadows,
            rep.total_ns / 1_000,
            rep.gc_pause_ns / 1_000,
            rep.residual_ns()
        );
        if rep.requests > 0 {
            println!(
                "\n  {:<18} {:>12} {:>12} {:>8}",
                "component", "total_us", "per-req_us", "share"
            );
            for c in beehive_insight::Component::ALL {
                let ns = rep.components[c as usize];
                if ns == 0 {
                    continue;
                }
                // Share in per-mille of the attributed total.
                let pm = ns * 1_000 / rep.total_ns.max(1);
                println!(
                    "  {:<18} {:>12} {:>12} {:>7}.{}%",
                    c.name(),
                    ns / 1_000,
                    rep.mean_ns(c) / 1_000,
                    pm / 10,
                    pm % 10
                );
            }
        }
        println!(
            "\n  SLO p({}.{:02}%) <= {}ms: {} — good {}/{}, budget consumed {}",
            slo.objective_bp / 100,
            slo.objective_bp % 100,
            slo.threshold_ns / 1_000_000,
            if slo.met() { "met" } else { "MISSED" },
            slo.good,
            slo.total,
            bp_x(slo.budget_consumed_bp)
        );
        for (w_ns, burn) in &slo.burn {
            println!("  burn[{:>5}s] max {}", w_ns / 1_000_000_000, bp_x(*burn));
        }
        if !rep.slowest.is_empty() {
            println!("\n  slowest requests:");
            for r in &rep.slowest {
                let mut parts: Vec<(&'static str, u64)> = r.nonzero();
                parts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
                let breakdown: Vec<String> = parts
                    .iter()
                    .map(|(n, ns)| format!("{n} {}us", ns / 1_000))
                    .collect();
                println!(
                    "  #{} {} {}us = {}",
                    r.rid,
                    r.kind,
                    r.total_ns / 1_000,
                    breakdown.join(" + ")
                );
            }
        }
    }
}

/// `repro check`: the online sentinel, printed. Scenario labels are prefixed
/// with the item name, so one report covers several items.
fn run_check(args: Args) {
    let mut scenarios = Vec::new();
    let collected = collect_operands(&args, |want| want.sentinel = true);
    for (item, mut c) in args.operands.iter().zip(collected) {
        let mut checks = c.take(|s| s.check.take());
        for check in &mut checks {
            check.label = format!("{item}/{}", check.label);
        }
        scenarios.append(&mut checks);
    }
    let strict = args.has("--strict");
    let report = beehive_sentinel::SentinelReport::from_checks(strict, scenarios);
    if args.has(JSON.0) {
        println!("{}", report.to_json().render());
    } else {
        print!("{}", report.render_text());
    }
    if !report.clean() {
        eprintln!("check: {} invariant violation(s)", report.violations());
        std::process::exit(1);
    }
    eprintln!("check: ok — {} scenario(s) conform", report.scenarios.len());
}

/// `repro timeline`: one item under the streaming observatory reducer.
fn run_timeline(args: Args) {
    let window = args.positive("--window", beehive_observatory::DEFAULT_WINDOW.as_nanos());
    let mut observed = collect_operands(&args, |want| {
        want.observe = Some(beehive_sim::Duration::from_nanos(window));
    })
    .remove(0);
    let doc = beehive_observatory::TimelineDoc::from_series(observed.take(|s| s.series.take()));
    if args.has(JSON.0) {
        println!("{}", doc.to_json().render());
    } else if args.has("--svg") {
        println!("{}", doc.render_svg());
    } else {
        print!("{}", doc.render_text());
    }
}

// ---- Subcommands that read artifact directories: lag, diff ----

/// Every `*<suffix>` document under `dir` as `(stem, parsed)`, in file-name
/// order so merges and reports are deterministic. `parse` exits 2 on a
/// document it cannot read.
fn load_docs<T>(dir: &Path, suffix: &str, parse: impl Fn(&Path, &str) -> T) -> Vec<(String, T)> {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| die(&format!("reading {}: {e}", dir.display())));
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(suffix))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let path = dir.join(&n);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(&format!("reading {}: {e}", path.display())));
            (n.trim_end_matches(suffix).to_string(), parse(&path, &text))
        })
        .collect()
}

/// Load and merge every `*.timeline.json` document under `dir`, scenario
/// labels prefixed with the item stem so several items diff without
/// collisions.
fn load_timelines(dir: &Path) -> beehive_observatory::TimelineDoc {
    let docs = load_docs(dir, ".timeline.json", |path, text| {
        beehive_observatory::TimelineDoc::parse(text)
            .unwrap_or_else(|e| die(&format!("parsing {}: {e}", path.display())))
    });
    let mut scenarios = Vec::new();
    for (stem, doc) in docs {
        for mut s in doc.scenarios {
            s.label = format!("{stem}/{}", s.label);
            scenarios.push(s);
        }
    }
    if scenarios.is_empty() {
        die(&format!(
            "{}: no *.timeline.json documents (write them with --obs DIR)",
            dir.display()
        ));
    }
    beehive_observatory::TimelineDoc::from_series(scenarios)
}

/// `repro lag`. The tolerance band is a quarter of the baseline lag plus one
/// bin width.
fn run_lag(args: Args) {
    let base = load_timelines(Path::new(&args.operands[0]));
    let cur = load_timelines(Path::new(&args.operands[1]));
    let (rows, regressed) = beehive_observatory::lag_diff(&base, &cur);
    print!("{}", beehive_observatory::render_lag_rows(&rows));
    if regressed {
        eprintln!("lag: scale-up lag regressed");
        std::process::exit(1);
    }
    eprintln!("lag: ok — {} burst(s) compared", rows.len());
}

/// One item's `DIR/<item>.<ext>` document, when the file is there. A
/// document that cannot be read or does not parse is a usage-grade error
/// (exit 2).
fn load_doc<T>(
    dir: &Path,
    item: &str,
    ext: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Option<T> {
    let path = dir.join(format!("{item}.{ext}"));
    let text = match std::fs::read_to_string(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        read => read.unwrap_or_else(|e| die(&format!("reading {}: {e}", path.display()))),
    };
    Some(parse(&text).unwrap_or_else(|e| die(&format!("parsing {}: {e}", path.display()))))
}

/// `repro diff`: the watched-metric regression gate plus root-cause
/// diagnosis. Exits 0 when nothing regressed, 1 when something did, 2 on
/// usage errors.
fn run_diff(args: Args) {
    let (baseline_dir, current_dir) = (Path::new(&args.operands[0]), Path::new(&args.operands[1]));
    let baseline = load_docs(baseline_dir, ".metrics.json", |path, text| {
        beehive_metrics::MetricsSnapshot::parse(text)
            .unwrap_or_else(|e| die(&format!("parsing {}: {e}", path.display())))
    });
    if baseline.is_empty() {
        die(&format!(
            "no *.metrics.json snapshots in {}",
            baseline_dir.display()
        ));
    }
    let mut regressed = false;
    let mut file_reports: Vec<Json> = Vec::new();
    for (item, base) in &baseline {
        let snapshot = beehive_metrics::MetricsSnapshot::parse;
        let Some(cur) = load_doc(current_dir, item, "metrics.json", snapshot) else {
            let current_path = current_dir.join(format!("{item}.metrics.json"));
            println!("{item}: MISSING {}", current_path.display());
            regressed = true;
            file_reports.push(Json::obj([
                ("item".into(), Json::from(item.clone())),
                ("missing".into(), Json::from(true)),
            ]));
            continue;
        };
        let deltas = beehive_metrics::compare(base, &cur);
        // Diagnosis inputs, all optional per directory.
        let parse = beehive_insight::InsightDoc::parse;
        let insight = |dir| load_doc(dir, item, "insight.json", parse);
        let folded = |dir| {
            load_doc(dir, item, "folded", |t| {
                beehive_profiler::parse_folded(t).map(|_| t.to_string())
            })
        };
        let (base_insight, cur_insight) = (insight(baseline_dir), insight(current_dir));
        let (base_folded, cur_folded) = (folded(baseline_dir), folded(current_dir));
        let mut delta_json: Vec<Json> = Vec::new();
        for d in &deltas {
            let verdict = if d.regressed {
                "REGRESSED"
            } else if d.improved {
                "improved"
            } else {
                "ok"
            };
            let rel = d.relative();
            let change = if rel.is_finite() {
                format!("{:+.1}%", rel * 100.0)
            } else {
                "n/a".to_string()
            };
            println!(
                "{item}: {verdict:<9} {:<40} {:<28} {:>12} -> {:>12}  ({change}, tol +{:.0}%)",
                d.metric,
                d.scenario,
                d.baseline.map_or("-".to_string(), |v| v.to_string()),
                d.current.map_or("-".to_string(), |v| v.to_string()),
                d.tolerance * 100.0
            );
            regressed |= d.regressed;
            let mut fields = vec![
                ("scenario".into(), Json::from(d.scenario.clone())),
                ("metric".into(), Json::from(d.metric.clone())),
                ("baseline".into(), Json::from(d.baseline)),
                ("current".into(), Json::from(d.current)),
                ("tolerance".into(), Json::from(d.tolerance)),
                ("regressed".into(), Json::from(d.regressed)),
                ("improved".into(), Json::from(d.improved)),
            ];
            if d.regressed && beehive_insight::is_latency_metric(&d.metric) {
                let diag = beehive_insight::diagnose(
                    d,
                    base_insight
                        .as_ref()
                        .and_then(|i| i.attribution(&d.scenario)),
                    cur_insight
                        .as_ref()
                        .and_then(|i| i.attribution(&d.scenario)),
                    base.scenarios.iter().find(|s| s.label == d.scenario),
                    cur.scenarios.iter().find(|s| s.label == d.scenario),
                    match (base_folded.as_deref(), cur_folded.as_deref()) {
                        (Some(b), Some(c)) => Some((b, c)),
                        _ => None,
                    },
                );
                match diag {
                    Some(diag) => {
                        let line = diag.render();
                        println!("{item}: CAUSE     {:<40} {:<28} {line}", d.metric, d.scenario);
                        fields.push(("cause".into(), Json::from(line)));
                    }
                    None => println!(
                        "{item}: CAUSE     {:<40} {:<28} no insight artifacts (re-run with --insight)",
                        d.metric, d.scenario
                    ),
                }
            }
            delta_json.push(Json::Obj(fields));
        }
        file_reports.push(Json::obj([
            ("item".into(), Json::from(item.clone())),
            ("deltas".into(), Json::Arr(delta_json)),
        ]));
    }
    if let Some(path) = args.value(BENCH_OUT.0) {
        let doc = Json::obj([
            (
                "baseline".into(),
                Json::from(baseline_dir.display().to_string()),
            ),
            (
                "current".into(),
                Json::from(current_dir.display().to_string()),
            ),
            ("regressed".into(), Json::from(regressed)),
            ("files".into(), Json::Arr(file_reports)),
        ]);
        std::fs::write(path, doc.render()).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        eprintln!("diff: wrote {path}");
    }
    if regressed {
        eprintln!("diff: REGRESSED (see deltas above)");
        std::process::exit(1);
    }
    eprintln!("diff: ok — no watched metric regressed");
}

fn banner(title: &str) {
    println!("\n{}", "=".repeat(74));
    println!("{title}");
    println!("{}", "=".repeat(74));
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: run `repro --help` for flags, items and subcommands");
    std::process::exit(2)
}
