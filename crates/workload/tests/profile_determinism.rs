//! Call-tree profiler determinism regression: with profiling on, the folded
//! collapsed-stack export and the profile JSON must be byte-identical
//! regardless of worker count (same seed at 1, 2, and 8 workers), the
//! folded text must round-trip through [`beehive_profiler::parse_folded`],
//! and the profile must attribute the same application method to both the
//! `server` and `faas:*` lanes with lane-specific self time.

use beehive_apps::AppKind;
use beehive_profiler::{parse_folded, Profile};
use beehive_workload::engine::{run_all_with_workers, RunOutcome, Scenario};
use beehive_workload::experiment::fig7::BurstExperiment;
use beehive_workload::Strategy;

/// Run two profiled burst experiments at the given worker count and return
/// the labelled profiles in input order.
fn profiles_at(workers: usize) -> Vec<(String, Profile)> {
    let scenarios: Vec<Scenario> = [Strategy::BeeHiveOpenWhisk, Strategy::Vanilla]
        .into_iter()
        .map(|s| {
            let e = BurstExperiment::new(AppKind::Pybbs, s)
                .horizon_secs(20)
                .burst_at_secs(5)
                .seed(42);
            let mut cfg = e.config();
            cfg.profile = true;
            Scenario::new(e.strategy().label(), cfg)
        })
        .collect();
    let outcomes = run_all_with_workers(scenarios, workers);
    assert_eq!(outcomes.len(), 2);
    let profile = |o: RunOutcome| (o.label, o.result.profile.expect("a profile"));
    outcomes.into_iter().map(profile).collect()
}

fn render(profiles: &[(String, Profile)]) -> (String, String) {
    let folded: String = profiles.iter().map(|(_, p)| p.folded()).collect();
    let json: String = profiles.iter().map(|(_, p)| p.to_json().render()).collect();
    (folded, json)
}

#[test]
fn profiles_are_byte_identical_across_worker_counts() {
    let serial = profiles_at(1);
    let (folded, json) = render(&serial);

    for workers in [2, 8] {
        let parallel = profiles_at(workers);
        let (pf, pj) = render(&parallel);
        assert_eq!(
            folded, pf,
            "worker count {workers} changed the folded export"
        );
        assert_eq!(json, pj, "worker count {workers} changed the JSON export");
    }

    // The folded text stays inside the collapsed-stack grammar.
    let stacks = parse_folded(&folded).expect("folded export must parse");
    assert!(!stacks.is_empty());
    for (frames, _) in &stacks {
        assert!(frames.len() >= 2, "every stack starts at a lane root");
        assert!(matches!(
            frames[0].as_str(),
            "server" | "faas:primary" | "faas:shadow"
        ));
    }

    // The Semi-FaaS run attributes the same application method to both the
    // server lane and the FaaS lanes, with different (non-zero) self time —
    // the per-endpoint cost comparison the profiler exists for.
    let beehive = &serial[0].1;
    let lane_self = |lane: &str, frame: &str| -> Option<u64> {
        let rows = beehive
            .hottest(usize::MAX)
            .into_iter()
            .find(|(l, _)| l == lane)?
            .1;
        rows.iter().find(|r| r.frame == frame).map(|r| r.self_ns)
    };
    let on_server =
        lane_self("server", "pybbsController.handle").expect("method runs on the server");
    let on_faas =
        lane_self("faas:primary", "pybbsController.handle").expect("method runs offloaded too");
    assert!(on_server > 0 && on_faas > 0);
    assert_ne!(
        on_server, on_faas,
        "lanes must keep separate cost attributions"
    );

    // Synthetic frames land in the tree: the offloading run pays fallback
    // round trips and the vanilla run pays direct DB rounds.
    assert!(folded.contains("[fallback:code]"));
    assert!(folded.contains(";[db]"));

    // FaaS instance totals are tracked (and only for the Semi-FaaS run).
    assert!(!beehive.instances.is_empty());
    assert!(beehive.instances.iter().all(|(_, t)| t.segments > 0));
    assert!(serial[1].1.instances.is_empty(), "vanilla has no instances");
}

#[test]
fn unprofiled_runs_leave_no_profile_behind() {
    let e = BurstExperiment::new(AppKind::Pybbs, Strategy::Vanilla)
        .horizon_secs(2)
        .seed(7);
    let mut cfg = e.config();
    cfg.profile = false;
    let outcomes = run_all_with_workers(vec![Scenario::new("unprofiled", cfg)], 1);
    assert!(outcomes[0].result.profile.is_none());
}
