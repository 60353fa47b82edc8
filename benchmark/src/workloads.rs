//! The six end-to-end workloads: each is one `repro` command line, chosen so
//! that a different set of layers carries the host time (README.md has the
//! table and the reasons in full).

use std::path::Path;

/// Which observability flags the invocation carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsMode {
    /// No recorder armed.
    Plain,
    /// `--sentinel`: recorder armed, events streamed through the checker
    /// and dropped.
    Sentinel,
    /// `--obs DIR`: every substrate on, traces retained and rendered.
    Obs,
}

/// One workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// The `repro` items, run in one invocation, always with `--quick`.
    pub items: &'static [&'static str],
    pub obs: ObsMode,
    /// One line for BENCHMARK.json / the result file.
    pub why: &'static str,
}

/// The per-item files `--obs DIR` must leave, as suffixes of `<item>.`.
pub const OBS_ARTIFACTS: [&str; 10] = [
    "trace.json",
    "summary.json",
    "metrics.json",
    "prom",
    "folded",
    "profile.json",
    "insight.json",
    "sentinel.json",
    "timeline.json",
    "timeline.svg",
];

pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "steady_offload",
        items: &["fig9", "table5", "ablations", "table4"],
        obs: ObsMode::Plain,
        why: "fig9 table5 ablations table4 --quick: pre-warmed steady offloading on all three apps; vm interpretation plus core session/sync hand-offs and db/proxy rounds carry the time, boots are negligible",
    },
    Workload {
        name: "burst_scaleout",
        items: &["combination"],
        obs: ObsMode::Plain,
        why: "combination --quick: 2x bursts against on-demand, BeeHive and combined scaling; cold boots, shadow runs, closure builds, faas/scaling provisioning and saturated pools load the DES kernel",
    },
    Workload {
        name: "server_only",
        items: &["fig2"],
        obs: ObsMode::Plain,
        why: "fig2 --quick: vanilla closed loop, the interpreter on the server lane with no offload, FaaS or sync; the bypass workload for every core/faas/telemetry change",
    },
    Workload {
        name: "crash_recovery",
        items: &["recovery"],
        obs: ObsMode::Plain,
        why: "recovery --quick: chaos fault plans, sync-point snapshot capture/restore and re-execution; a steady-path gain bought by dearer snapshots shows here",
    },
    Workload {
        name: "obs_online",
        items: &["fig9"],
        obs: ObsMode::Sentinel,
        why: "fig9 --quick --sentinel: recorder armed, events streamed through one consumer and dropped; isolates per-event emit + feed cost",
    },
    Workload {
        name: "obs_full",
        items: &["table5"],
        obs: ObsMode::Obs,
        why: "table5 --quick --obs DIR: every substrate on with trace retention; trace growth, JSON rendering and disk writes dominate; the one workload with large output and RSS",
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The `repro` arguments of one invocation. `artifacts` receives what
    /// `--obs` writes; `metrics`, when given, adds `--metrics` (the set-up
    /// pass harvests simulated request counts from it). The seed reaches the
    /// program only through its normal `--seed` / `--chaos-seed` flags.
    pub fn args(&self, seed: u64, artifacts: &Path, metrics: Option<&Path>) -> Vec<String> {
        let mut a = self.plain_args(seed);
        match self.obs {
            ObsMode::Plain => {}
            ObsMode::Sentinel => a.push("--sentinel".into()),
            ObsMode::Obs => a.extend(["--obs".into(), path_arg(artifacts)]),
        }
        if let Some(dir) = metrics {
            a.extend(["--metrics".into(), path_arg(dir)]);
        }
        a
    }

    /// The same items with every observability flag off: the "plain twin"
    /// the overhead ratios divide by.
    pub fn plain_args(&self, seed: u64) -> Vec<String> {
        let mut a: Vec<String> = self.items.iter().map(|s| s.to_string()).collect();
        a.extend(
            ["--quick", "--json", "--seed"]
                .into_iter()
                .map(String::from),
        );
        a.push(seed.to_string());
        a.extend(["--chaos-seed".into(), seed.to_string()]);
        a
    }

    /// The command tail as a user would type it (for printing).
    pub fn command_tail(&self) -> String {
        let mut s = format!("{} --quick", self.items.join(" "));
        match self.obs {
            ObsMode::Plain => {}
            ObsMode::Sentinel => s.push_str(" --sentinel"),
            ObsMode::Obs => s.push_str(" --obs DIR"),
        }
        s
    }

    /// Files that must exist, non-empty, in the artifact dir after a run.
    pub fn required_artifacts(&self) -> Vec<String> {
        if self.obs != ObsMode::Obs {
            return Vec::new();
        }
        self.items
            .iter()
            .flat_map(|item| OBS_ARTIFACTS.iter().map(move |sfx| format!("{item}.{sfx}")))
            .collect()
    }
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_fit_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(std::ptr::eq(by_name(w.name).unwrap(), w));
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn args_carry_seed_and_flags() {
        let w = by_name("obs_full").unwrap();
        let a = w.args(7, Path::new("art"), Some(Path::new("met")));
        assert_eq!(
            a.join(" "),
            "table5 --quick --json --seed 7 --chaos-seed 7 --obs art --metrics met"
        );
        assert_eq!(w.required_artifacts().len(), 10);
        assert_eq!(w.required_artifacts()[0], "table5.trace.json");
        let w = by_name("obs_online").unwrap();
        assert!(w
            .args(1, Path::new("a"), None)
            .ends_with(&["--sentinel".into()]));
        assert_eq!(
            w.plain_args(1).join(" "),
            "fig9 --quick --json --seed 1 --chaos-seed 1"
        );
        assert!(w.required_artifacts().is_empty());
    }
}
