//! `beehive-benchmark` — the host-time benchmark of the BeeHive reproduction.
//! Run it through `benchmark/run.sh`, which builds `repro` and this binary
//! and passes their locations; README.md explains every number it prints.

mod calib;
mod child;
mod compare;
mod e2e;
mod layers;
mod manifest;
mod result;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use beehive_sim::json::Json;

use crate::e2e::{Ctx, Plan, Reps};
use crate::layers::Budget;
use crate::result::{LayerMetric, ResultFile, WorkloadResult, E2E};
use crate::workloads::{Workload, WORKLOADS};

const USAGE: &str = "\
usage: benchmark/run.sh [--seed N] [--reps N] [--layers] [--smoke] [--out FILE]
       benchmark/run.sh --noise
       benchmark/run.sh --compare A.json B.json
       benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1";

/// Parsed command line.
#[derive(Debug)]
struct Opts {
    seed: u64,
    reps: usize,
    layers: bool,
    smoke: bool,
    noise: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    print_manifest: bool,
    // The driver contract's flags.
    workload: Option<String>,
    seconds: Option<f64>,
    trace: Option<bool>,
    // Passed by run.sh.
    repro: PathBuf,
    work: PathBuf,
    build_s: f64,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 42,
        reps: 7,
        layers: false,
        smoke: false,
        noise: false,
        out: None,
        compare: None,
        print_manifest: false,
        workload: None,
        seconds: None,
        trace: None,
        repro: PathBuf::from("target/release/repro"),
        work: PathBuf::from("target/benchmark/out"),
        build_s: 0.0,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: {v:?} is not a valid number"))
        }
        match a.as_str() {
            "--seed" => o.seed = num(a, value("an integer")?)?,
            "--reps" => o.reps = num(a, value("an integer")?)?,
            "--layers" => o.layers = true,
            "--smoke" => o.smoke = true,
            "--noise" => o.noise = true,
            "--out" => o.out = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                o.compare = Some((
                    PathBuf::from(value("two result files")?),
                    PathBuf::from(value("two result files")?),
                ))
            }
            "--print-manifest" => o.print_manifest = true,
            "--workload" => o.workload = Some(value("a workload name")?),
            "--seconds" => o.seconds = Some(num(a, value("a number")?)?),
            "--trace" => {
                o.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is not 0 or 1")),
                })
            }
            "--repro" => o.repro = PathBuf::from(value("a path")?),
            "--work" => o.work = PathBuf::from(value("a directory")?),
            "--build-s" => o.build_s = num(a, value("a number")?)?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    if matches!(o.seconds, Some(s) if s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run the selected mode; `Ok(false)` = ran, but a check or comparison
/// failed.
fn dispatch(opts: Opts) -> Result<bool, String> {
    if opts.print_manifest {
        println!("{}", manifest::render());
        return Ok(true);
    }
    if let Some((a, b)) = &opts.compare {
        return Ok(compare::compare(
            &ResultFile::load(a)?,
            &ResultFile::load(b)?,
        ));
    }
    if !opts.repro.is_file() {
        return Err(format!(
            "{} not found — run through benchmark/run.sh, which builds it",
            opts.repro.display()
        ));
    }
    let mut ctx = Ctx {
        repro: opts.repro.clone(),
        work: opts.work.clone(),
        golden: PathBuf::from("scripts/golden"),
        seed: opts.seed,
        calib: calib::Calibrator::new(),
    };
    // Stale artifact dirs of a killed earlier run would count as output.
    let _ = std::fs::remove_dir_all(&ctx.work);
    let ok = if opts.noise {
        noise(&mut ctx)
    } else if let Some(name) = &opts.workload {
        contract(&mut ctx, &opts, name)
    } else {
        full(&mut ctx, &opts)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    ok
}

/// The driver contract: one workload, one mode, one JSON line last.
fn contract(ctx: &mut Ctx, opts: &Opts, name: &str) -> Result<bool, String> {
    let wl = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (have: {})", names.join(", "))
    })?;
    let seconds = opts.seconds.ok_or("--workload needs --seconds")?;
    let traced = opts.trace.ok_or("--workload needs --trace 0|1")?;
    let (attempted, failed, metrics) = if traced {
        let mut pass = layers::run(ctx, Budget::Contract(wl))?;
        print_layers(&pass.metrics);
        pass.report_failures();
        // Exactly the manifest's per-layer list, in its order.
        let listed = manifest::PER_LAYER.len();
        if pass.metrics.len() != listed {
            return Err(format!(
                "the layer pass measured {} metrics, manifest::PER_LAYER lists {listed}",
                pass.metrics.len()
            ));
        }
        let metrics = manifest::PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let at = pass.metrics.iter().position(|m| m.name == name);
                at.map(|i| pass.metrics.swap_remove(i))
                    .ok_or_else(|| format!("the layer pass did not measure {name}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        (pass.attempted, pass.failures.len() as u64, metrics)
    } else {
        // Three set-up passes so `setup_s` is a median, like the rest. The
        // untimed output checks ride the workload's `--trace 1` run instead:
        // here every second goes to timed invocations.
        let plan = Plan {
            setups: 3,
            reps: Reps::Seconds(seconds),
            output_checks: false,
        };
        let results = e2e::run(ctx, &[wl], plan)?;
        print_e2e(&results);
        let r = &results[0];
        let metrics = r
            .metrics
            .iter()
            .map(|m| LayerMetric {
                name: m.name.clone(),
                value: m.summary.median,
                unit: m.unit.clone(),
            })
            .collect();
        (r.attempted, r.failed, metrics)
    };
    warn_if_noisy(ctx);
    let line = Json::obj([
        ("correct".to_string(), Json::from(failed == 0)),
        ("attempted".to_string(), Json::from(attempted)),
        ("failed".to_string(), Json::from(failed)),
        (
            "metrics".to_string(),
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|m| {
                        let value = Json::obj([
                            ("value".to_string(), Json::from(m.value)),
                            ("unit".to_string(), Json::from(m.unit)),
                        ]);
                        (m.name, value)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.render());
    // A failed check is reported in the line above; the run itself worked.
    Ok(true)
}

/// The stand-alone run: every workload, optional layer pass, result file.
fn full(ctx: &mut Ctx, opts: &Opts) -> Result<bool, String> {
    let reps = if opts.smoke { 1 } else { opts.reps };
    let all: Vec<&Workload> = WORKLOADS.iter().collect();
    println!(
        "end-to-end pass: {} workloads, seed {}, {} rep(s), BEEHIVE_WORKERS=1, build_s {:.2} (info)",
        all.len(),
        opts.seed,
        reps,
        opts.build_s
    );
    let plan = Plan {
        setups: 1,
        reps: Reps::Count(reps),
        output_checks: true,
    };
    let workloads = e2e::run(ctx, &all, plan)?;
    print_e2e(&workloads);
    let mut ok = workloads.iter().all(|w| w.failed == 0);

    let mut layer_metrics = Vec::new();
    if opts.layers || opts.smoke {
        let budget = if opts.smoke {
            Budget::Smoke
        } else {
            Budget::Full
        };
        let pass = layers::run(ctx, budget)?;
        print_layers(&pass.metrics);
        pass.report_failures();
        ok &= pass.failures.is_empty();
        let out_dir = Path::new("benchmark/out");
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        write(
            &out_dir.join("layers.trace.json"),
            &pass.spans.chrome_trace().render(),
        )?;
        write(&out_dir.join("layers.json"), &pass.to_json().render())?;
        println!("layer pass: wrote benchmark/out/layers.trace.json and benchmark/out/layers.json");
        layer_metrics = pass.metrics;
    }

    let calib_spread = warn_if_noisy(ctx);
    let file = ResultFile {
        seed: opts.seed,
        reps,
        nproc: nproc(),
        rustc: rustc_version(),
        calib_ref_s: stats::CALIB_REF_S,
        calib_spread,
        noisy: calib_spread > stats::NOISY_SPREAD,
        build_s: opts.build_s,
        workloads,
        layers: layer_metrics,
    };
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/out/result.json"));
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    write(&out, &file.to_json().render())?;
    println!("result file: {}", out.display());
    Ok(ok)
}

/// `--noise`: how steady is this box, and does calibration help?
fn noise(ctx: &mut Ctx) -> Result<bool, String> {
    let loops: Vec<f64> = (0..30).map(|_| ctx.calib.measure()).collect();
    let s = stats::Summary::of(&loops).expect("30 readings");
    println!(
        "calibration loop x30: median {:.4} s, min {:.4}, max {:.4}, IQR/median {:.2}% (reference {:.3} s)",
        s.median,
        s.min,
        s.max,
        stats::iqr_share(&loops) * 100.0,
        stats::CALIB_REF_S
    );
    let wl = workloads::by_name("steady_offload").expect("defined");
    let plan = Plan {
        setups: 0,
        reps: Reps::Count(5),
        output_checks: false,
    };
    let r = &e2e::run(ctx, &[wl], plan)?[0];
    for name in ["host_s", "cpu_s"] {
        let m = r.metric(name).ok_or("no reps")?;
        for (kind, s) in [("calibrated", Some(m.summary)), ("raw", m.raw)] {
            let s = s.ok_or("host times carry raw readings")?;
            println!(
                "{} {name} x5 {kind:<10}: median {:.4} s, min {:.4}, max {:.4}, range/median {:.2}%",
                wl.name,
                s.median,
                s.min,
                s.max,
                (s.max - s.min) / s.median * 100.0
            );
        }
    }
    warn_if_noisy(ctx);
    Ok(r.failed == 0)
}

/// Print the noise warning when calibration readings spread too wide;
/// returns the spread.
fn warn_if_noisy(ctx: &Ctx) -> f64 {
    let spread = stats::iqr_share(&ctx.calib.readings);
    if spread > stats::NOISY_SPREAD {
        println!(
            "WARNING: noisy box — calibration spread (IQR/median) {:.1}% exceeds {:.0}%; treat host times with care",
            spread * 100.0,
            stats::NOISY_SPREAD * 100.0
        );
    }
    spread
}

fn print_e2e(results: &[WorkloadResult]) {
    println!(
        "end-to-end metrics (tracing off; median over reps; host times in calibrated seconds):"
    );
    for def in &E2E {
        println!("  {:<20} [{}] {}", def.name, def.unit, def.what);
    }
    for r in results {
        println!("workload {} — repro {}", r.name, r.command);
        for m in &r.metrics {
            let raw = m
                .raw
                .map_or(String::new(), |r| format!(" raw_median={:.6}", r.median));
            println!(
                "  {:<20} {:>16.6} {:<4} min={:.6} max={:.6} n={}{raw}",
                m.name, m.summary.median, m.unit, m.summary.min, m.summary.max, m.summary.n
            );
        }
        println!(
            "  (info) sim_digest={:016x} sim_requests={} sim_p99_ms={} disturbed_runs={} fail_share={}/{}",
            r.sim_digest, r.sim_requests, r.sim_p99_ms, r.disturbed_runs, r.failed, r.attempted
        );
        for f in &r.failures {
            println!("  FAILED {f}");
        }
    }
}

fn print_layers(metrics: &[LayerMetric]) {
    println!("per-layer metrics (traced pass; host clock, uncalibrated unless marked):");
    for m in metrics {
        println!("  {:<44} {:>18.4} {}", m.name, m.value, m.unit);
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_contract_flags() {
        let o = parse(&args(
            "--workload server_only --seed 9 --seconds 8 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("server_only"));
        assert_eq!((o.seed, o.seconds, o.trace), (9, Some(8.0), Some(true)));
    }

    #[test]
    fn defaults_and_rejections() {
        let o = parse(&[]).unwrap();
        assert_eq!((o.seed, o.reps, o.layers, o.smoke), (42, 7, false, false));
        assert!(parse(&args("--seed x")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--reps 0")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--compare only-one")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
    }
}
