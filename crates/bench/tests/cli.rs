//! CLI-convention tests for the `repro` binary: usage errors exit 2 with a
//! one-line hint on stderr (stdout stays clean), `repro list` advertises
//! every subcommand, and the conformance subcommand/flags behave.

use std::process::Command;

use beehive_sim::json::Json;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stderr(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn usage_errors_exit_2() {
    // Unknown flags, for every subcommand that parses its own.
    for args in [
        &["explain", "--nope", "shadow"][..],
        &["diff", "--nope", "a", "b"][..],
        &["top", "--nope", "shadow"][..],
        &["check", "--nope", "shadow"][..],
        &["timeline", "--nope", "shadow"][..],
        &["lag", "--nope", "a", "b"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("--nope"), "{args:?}");
    }

    // Missing or surplus ITEM.
    let out = repro(&["explain"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"));
    let out = repro(&["explain", "shadow", "gcstats"]);
    assert_eq!(out.status.code(), Some(2));
    let out = repro(&["check"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"));

    // --slowest needs a positive integer.
    for bad in ["0", "-3", "many"] {
        let out = repro(&["explain", "--slowest", bad, "shadow"]);
        assert_eq!(out.status.code(), Some(2), "--slowest {bad}");
    }

    // Unreadable snapshot directories.
    let out = repro(&["diff", "/nonexistent-baseline", "/nonexistent-current"]);
    assert_eq!(out.status.code(), Some(2), "diff with unreadable dirs");

    // `compare` is gone (`diff` is a superset): an unknown item like any other.
    let out = repro(&["compare", "a", "b"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown item \"compare\""));

    // An item that runs no simulations cannot be explained or checked.
    let out = repro(&["explain", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let out = repro(&["check", "table1"]);
    assert_eq!(out.status.code(), Some(2));

    // timeline: missing/surplus ITEM, malformed --window, exclusive modes.
    let out = repro(&["timeline"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"));
    let out = repro(&["timeline", "shadow", "gcstats"]);
    assert_eq!(out.status.code(), Some(2));
    for bad in ["0", "-5", "soon", "1.5", "1", "999999"] {
        let out = repro(&["timeline", "--window", bad, "shadow"]);
        assert_eq!(out.status.code(), Some(2), "--window {bad}");
        assert!(stderr(&out).contains("--window"), "--window {bad}");
        assert!(
            stderr(&out).contains("1000000"),
            "--window {bad}: the floor"
        );
    }
    let out = repro(&["timeline", "--json", "--svg", "shadow"]);
    assert_eq!(out.status.code(), Some(2));
    let out = repro(&["timeline", "table1"]);
    assert_eq!(out.status.code(), Some(2));

    // lag: wrong arity and unreadable artifact directories.
    let out = repro(&["lag"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"));
    let out = repro(&["lag", "onlyone"]);
    assert_eq!(out.status.code(), Some(2));
    let out = repro(&["lag", "/nonexistent-baseline", "/nonexistent-current"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn usage_errors_go_to_stderr_with_a_hint_and_a_clean_stdout() {
    // Every argument-error path: stderr carries a one-line `error:` plus
    // the usage hint, stdout stays byte-empty, exit status is 2.
    for args in [
        &["--nope"][..],
        &["nonsense-item"][..],
        &["--seed", "many"][..],
        &["--chaos-seed"][..],
        &["--trace"][..],
        &["--obs"][..],
        &["--obs", "--quick"][..],
        &["check"][..],
        &["check", "--seed"][..],
        &["top"][..],
        &["diff", "onlyone"][..],
        &["compare", "a", "b"][..],
        &["timeline"][..],
        &["timeline", "--window", "soon", "shadow"][..],
        &["lag", "onlyone"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stdout(&out).is_empty(),
            "{args:?} leaked onto stdout: {:?}",
            stdout(&out)
        );
        let err = stderr(&out);
        assert!(err.starts_with("error: "), "{args:?} stderr: {err:?}");
        assert!(
            err.contains("repro --help"),
            "{args:?} lost the usage hint: {err:?}"
        );
    }
}

#[test]
fn list_advertises_items_and_subcommands() {
    let out = repro(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for row in [
        "fig7",
        "shadow",
        "recovery",
        "top",
        "explain",
        "check",
        "timeline",
        "lag",
        "diff",
        "--obs",
        "--sentinel",
    ] {
        assert!(
            text.lines().any(|l| l.trim_start().starts_with(row)),
            "`repro list` lost the {row} row"
        );
    }
    // `compare` is gone: no row is named after it, or described in terms of it.
    let mut words = text.lines().flat_map(str::split_whitespace);
    assert!(!words.any(|w| w == "compare"), "{text}");
}

/// An artifact integer beyond `u64` must be refused, not wrapped: `repro
/// diff` exits 2 naming the file and the key.
#[test]
fn diff_rejects_an_out_of_range_integer_in_an_insight_document() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scripts/golden/metrics_quick"
    );
    let tmp = std::env::temp_dir().join(format!("beehive-range-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let (base, cur) = (tmp.join("base"), tmp.join("cur"));
    for dir in [&base, &cur] {
        std::fs::create_dir_all(dir).unwrap();
        for file in ["fig9.metrics.json", "fig9.insight.json"] {
            std::fs::copy(format!("{golden}/{file}"), dir.join(file)).unwrap();
        }
    }
    let diff = || repro(&["diff", base.to_str().unwrap(), cur.to_str().unwrap()]);
    let out = diff();
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    let insight = cur.join("fig9.insight.json");
    let text = std::fs::read_to_string(&insight).unwrap();
    let (head, tail) = text.split_once("\"total_ns\":").expect("a total_ns field");
    let digits = tail.find(|c: char| !c.is_ascii_digit()).unwrap();
    let wrapped = format!("{head}\"total_ns\":18446744073709551616{}", &tail[digits..]);
    std::fs::write(&insight, wrapped).unwrap();
    let out = diff();
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    assert!(
        err.contains("fig9.insight.json") && err.contains("\"total_ns\""),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&tmp);
}

/// A folded profile that does not parse is refused, not skipped: `repro
/// diff` exits 2 naming the file and the line, for a count beyond `u64` and
/// for a line with no count at all.
#[test]
fn diff_rejects_a_corrupt_folded_profile() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scripts/golden/metrics_quick"
    );
    let tmp = std::env::temp_dir().join(format!("beehive-folded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let (base, cur) = (tmp.join("base"), tmp.join("cur"));
    let folded = "shadow;server;A.handle 100\nshadow;server;A.handle;[db] 2500\n";
    for dir in [&base, &cur] {
        std::fs::create_dir_all(dir).unwrap();
        for file in ["shadow.metrics.json", "shadow.insight.json"] {
            std::fs::copy(format!("{golden}/{file}"), dir.join(file)).unwrap();
        }
        std::fs::write(dir.join("shadow.folded"), folded).unwrap();
    }
    let diff = || repro(&["diff", base.to_str().unwrap(), cur.to_str().unwrap()]);
    let out = diff();
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    for (line2, why) in [
        (
            "shadow;server;A.handle;[db] 18446744073709551616",
            "bad count",
        ),
        ("shadow;server;A.handle;[db]", "no count separator"),
    ] {
        let corrupt = format!("shadow;server;A.handle 100\n{line2}\n");
        std::fs::write(cur.join("shadow.folded"), corrupt).unwrap();
        let out = diff();
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{err}");
        assert!(stdout(&out).is_empty(), "{}", stdout(&out));
        assert!(
            err.contains("shadow.folded: line 2: ") && err.contains(why),
            "{err}"
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

/// A CURRENT document that exists but cannot be read is refused, not taken
/// for missing or skipped: `repro diff` exits 2 naming the file, for the
/// metrics snapshot and for the insight document beside it.
#[test]
fn diff_rejects_an_unreadable_current_document() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scripts/golden/metrics_quick"
    );
    let tmp = std::env::temp_dir().join(format!("beehive-unreadable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let (base, cur) = (tmp.join("base"), tmp.join("cur"));
    let files = ["fig9.metrics.json", "fig9.insight.json"];
    for dir in [&base, &cur] {
        std::fs::create_dir_all(dir).unwrap();
        for file in files {
            std::fs::copy(format!("{golden}/{file}"), dir.join(file)).unwrap();
        }
    }
    let diff = || repro(&["diff", base.to_str().unwrap(), cur.to_str().unwrap()]);
    for file in files {
        let out = diff();
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        let good = std::fs::read(cur.join(file)).unwrap();
        std::fs::write(cur.join(file), b"{\"scenarios\":\xff}").unwrap();
        let out = diff();
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{file}: {err}");
        assert!(stdout(&out).is_empty(), "{file}: {}", stdout(&out));
        assert!(
            err.contains(&format!("reading {}", cur.join(file).display())),
            "{err}"
        );
        std::fs::write(cur.join(file), good).unwrap();
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

/// An item prints the same whatever it is batched with: at two workers,
/// several items in one invocation — one engine batch — print exactly the
/// entries each prints alone, as `--json` reports and as `check` scenarios
/// (whose labels carry their `item/` prefix either way).
#[test]
fn an_items_output_does_not_depend_on_its_batch() {
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .args(["--quick", "--seed", "42", "--json"])
            .env("BEEHIVE_WORKERS", "2")
            .output()
            .expect("repro binary runs");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        Json::parse(&stdout(&out)).expect("the report parses")
    };
    let items = ["fig2", "table2", "table5"];
    let alone = items.iter().flat_map(|item| match run(&[item]) {
        Json::Arr(entries) => entries,
        other => panic!("{item}: not an array: {}", other.render()),
    });
    let batch = run(&items);
    assert!(batch.render() == Json::Arr(alone.collect()).render());

    let items = ["fig2", "table5"];
    let check = |items: &[&str]| run(&[&["check"][..], items].concat());
    let alone = items.iter().flat_map(|item| {
        let report = check(&[item]);
        report.arr_field("scenarios").expect("scenarios").to_vec()
    });
    let expected = Json::obj([
        ("strict".into(), Json::Bool(false)),
        ("scenarios".into(), Json::Arr(alone.collect())),
    ]);
    assert!(check(&items).render() == expected.render());
}

/// `repro` with `BEEHIVE_WORKERS=0`: the engine refuses that worker count
/// the moment an item hands it its first scenarios, so a command line that
/// was parsed, whose item was accepted and whose runner started exits 2
/// naming `BEEHIVE_WORKERS` within milliseconds — a probe for "accepted"
/// that simulates nothing.
fn probe(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("BEEHIVE_WORKERS", "0")
        .output()
        .expect("repro binary runs")
}

/// The forms that run items: `repro ITEM` and the four item subcommands.
const ITEM_FORMS: [&[&str]; 5] = [&[], &["top"], &["explain"], &["check"], &["timeline"]];

#[test]
fn every_listed_item_is_known_to_every_form_that_takes_one() {
    let list = stdout(&repro(&["list"]));
    let rows = list.lines().skip(1).take_while(|l| l.starts_with("  "));
    let items: Vec<&str> = rows.filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(items.len(), 16, "{items:?}");
    assert_eq!((items[0], items[15]), ("all", "recovery"));
    for item in &items {
        for form in ITEM_FORMS {
            let out = probe(&[form, &[*item, "--quick"][..]].concat());
            let err = stderr(&out);
            // `table1` and `table2` are computed from constants: `repro`
            // prints them, the subcommands have nothing to instrument. Nor
            // do they expand `all`; only the bare form does.
            let bare = form.is_empty();
            let outcome = match *item {
                "table1" | "table2" if bare => (Some(0), ""),
                "table1" | "table2" => (Some(2), "runs no simulations"),
                "all" if !bare => (Some(2), "runs no simulations"),
                _ => (Some(2), "BEEHIVE_WORKERS"),
            };
            assert_eq!(
                (out.status.code(), err.contains(outcome.1)),
                (outcome.0, true),
                "repro {form:?} {item}: {err}"
            );
        }
    }
    // A name off the list is refused by every form, before anything runs.
    for form in ITEM_FORMS {
        let out = probe(&[form, &["fig99", "--quick"][..]].concat());
        assert_eq!(out.status.code(), Some(2), "{form:?}");
        assert!(stderr(&out).contains("\"fig99\""), "{form:?}");
    }
}

#[test]
fn common_flags_parse_identically_in_every_form() {
    // Accepted everywhere, in any position.
    for form in ITEM_FORMS {
        let given = ["--seed", "7", "fig2", "--quick", "--chaos-seed", "9"];
        let out = probe(&[form, &given[..]].concat());
        assert!(stderr(&out).contains("BEEHIVE_WORKERS"), "{form:?}");
    }
    // Rejected everywhere, with the same one-line error.
    for (bad, message) in [
        (&["--seed", "many"][..], "--seed needs an integer"),
        (&["--seed", "-1"][..], "--seed needs an integer"),
        (&["--seed"][..], "--seed needs an integer"),
        (
            &["--chaos-seed", "1.5"][..],
            "--chaos-seed needs an integer",
        ),
        (&["--chaos-seed"][..], "--chaos-seed needs an integer"),
    ] {
        for form in ITEM_FORMS {
            let out = probe(&[form, &["fig2"][..], bad].concat());
            assert_eq!(out.status.code(), Some(2), "{form:?} {bad:?}");
            let err = stderr(&out);
            let first = err.lines().next().unwrap_or_default();
            assert_eq!(first, format!("error: {message}"), "{form:?} {bad:?}");
        }
    }
    // The forms that only read artifact directories take none of them.
    for form in ["diff", "lag"] {
        for flag in ["--quick", "--seed", "--chaos-seed"] {
            let out = repro(&[form, flag, "a", "b"]);
            assert_eq!(out.status.code(), Some(2), "{form} {flag}");
            let unknown = format!("unknown flag \"{flag}\" for `repro {form}`");
            assert!(stderr(&out).contains(&unknown), "{form} {flag}");
        }
    }
}

#[test]
fn check_runs_clean_and_emits_parseable_json() {
    let out = repro(&["check", "fig2", "--quick", "--json"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "check should pass: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    let report = Json::parse(&text).expect("check --json output parses");
    assert_eq!(report.get("strict"), Some(&Json::Bool(false)));
    let scenarios = report.arr_field("scenarios").unwrap();
    assert!(!scenarios.is_empty());
    for s in scenarios {
        assert!(s.str_field("label").unwrap().starts_with("fig2/"));
        assert!(s.field::<u64>("events").unwrap() > 0);
        assert!(s.arr_field("violations").unwrap().is_empty());
    }
    assert!(stderr(&out).contains("check: ok"));
}

/// The field `key` of the object `j`, to edit in place.
fn field<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = j else {
        panic!("not an object: {}", j.render());
    };
    let at = fields.iter().position(|(k, _)| k == key);
    &mut fields[at.unwrap_or_else(|| panic!("no field {key:?}"))].1
}

#[test]
fn obs_writes_every_artifact_family_and_sentinel_gates() {
    let dir = std::env::temp_dir().join(format!("beehive-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro(&["--quick", "--obs", dir.to_str().unwrap(), "fig2"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    for artifact in [
        "fig2.trace.json",
        "fig2.summary.json",
        "fig2.metrics.json",
        "fig2.prom",
        "fig2.folded",
        "fig2.profile.json",
        "fig2.insight.json",
        "fig2.sentinel.json",
        "fig2.timeline.json",
        "fig2.timeline.svg",
    ] {
        assert!(
            dir.join(artifact).is_file(),
            "--obs did not write {artifact}"
        );
    }
    let text = std::fs::read_to_string(dir.join("fig2.sentinel.json")).unwrap();
    let mut report = Json::parse(&text).expect("sentinel artifact parses");
    let Json::Arr(scenarios) = field(&mut report, "scenarios") else {
        panic!("scenarios is not an array: {text}");
    };
    // `check` prints that report, its labels prefixed with the item.
    for s in scenarios {
        assert!(s.arr_field("violations").unwrap().is_empty());
        let Json::Str(label) = field(s, "label") else {
            panic!("a label that is not a string: {text}");
        };
        *label = format!("fig2/{label}");
    }
    let checked = stdout(&repro(&["check", "fig2", "--quick", "--json"]));
    assert_eq!(checked.trim_end(), report.render());

    // `explain` prints the insight document: its default `--slowest` is the
    // artifact's, and every scenario's header line carries the same totals.
    let text = std::fs::read_to_string(dir.join("fig2.insight.json")).unwrap();
    let doc = beehive_insight::InsightDoc::parse(&text).expect("insight artifact parses");
    let explained = stdout(&repro(&["explain", "fig2", "--quick"]));
    let headers: Vec<&str> = explained
        .lines()
        .filter(|l| l.starts_with("requests "))
        .collect();
    let totals = doc.attributions.iter().map(|rep| {
        format!(
            "requests {} (shadows {})   attributed {}us   gc {}us   residual {}ns",
            rep.requests,
            rep.shadows,
            rep.total_ns / 1_000,
            rep.gc_pause_ns / 1_000,
            rep.residual_ns()
        )
    });
    assert!(!headers.is_empty() && totals.eq(headers.iter().copied()));
    let slowest = doc.attributions.iter().flat_map(|rep| &rep.slowest);
    let printed = explained.lines().filter(|l| l.starts_with("  #")).count();
    assert_eq!(slowest.count(), printed);
    let text = std::fs::read_to_string(dir.join("fig2.timeline.json")).unwrap();
    let doc = beehive_observatory::TimelineDoc::parse(&text).expect("timeline artifact parses");
    assert!(!doc.scenarios.is_empty());
    let svg = std::fs::read_to_string(dir.join("fig2.timeline.svg")).unwrap();
    assert!(svg.starts_with("<svg") && svg.trim_end().ends_with("</svg>"));
    let _ = std::fs::remove_dir_all(&dir);

    // The online checker alone: clean run, exit 0, no artifacts needed.
    let out = repro(&["--quick", "--sentinel", "fig2"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}
