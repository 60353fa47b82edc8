//! `--compare A.json B.json`: one row per workload × end-to-end metric,
//! judged against the metric's bound. A is the base of every ratio.

use crate::result::{Better, MetricDef, ResultFile, E2E};
use crate::stats::Summary;

/// The verdict on one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Improved,
    /// The reps of one file alone spread (IQR / median) wider than the bound
    /// and the two files' min–max ranges overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judge one metric of one workload. `pairs`, when the two files ran the
/// same seed panel, summarises the per-rep ratios B_k / A_k: rep `k` of both
/// ran at the same `repro` seed, so the ratio is free of the seed-to-seed
/// cost differences that dominate the spread of the reps themselves.
pub fn verdict(def: &MetricDef, a: &Summary, b: &Summary, pairs: Option<&Summary>) -> Verdict {
    // Spread wider than the bound is "unresolved, not unchanged", unless
    // every run of one side beats every run of the other. The value compared
    // is a median of n reps, so the spread that matters is the median's own
    // from one set of reps to the next, estimated from the reps' spread.
    let (spread, one_sided) = match pairs {
        Some(r) => (median_spread(r), r.min > 1.0 || r.max < 1.0),
        None => (
            median_spread(a).max(median_spread(b)),
            a.max < b.min || b.max < a.min,
        ),
    };
    if spread > def.bound && !one_sided {
        return Verdict::Unresolved;
    }
    let w = worsening(def, a.median, b.median);
    if w > def.bound {
        Verdict::Regressed
    } else if w < -def.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// The spread (IQR over median) to expect of the *median* of `s.n` reps when
/// the reps themselves spread `s.iqr_share()`: the large-sample standard
/// error of a median, 1.2533 σ / √n, holds for interquartile ranges as it
/// does for σ.
fn median_spread(s: &Summary) -> f64 {
    1.2533 * s.iqr_share() / (s.n as f64).sqrt()
}

/// Summary of the per-rep ratios B_k / A_k, when rep `k` means the same
/// thing in both files: same `--seed`, same number of reps.
fn paired_ratios(same_seed: bool, a: &[f64], b: &[f64]) -> Option<Summary> {
    if !same_seed || a.len() != b.len() {
        return None;
    }
    let ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| y / x).collect();
    Summary::of(&ratios)
}

/// Print the comparison; `true` when nothing regressed and no workload's
/// `fail_share` rose.
pub fn compare(a: &ResultFile, b: &ResultFile) -> bool {
    let mut pass = true;
    if a.seed != b.seed {
        println!(
            "note: seeds differ ({} vs {}); simulated figures are not comparable",
            a.seed, b.seed
        );
    }
    for (name, f) in [("A", a), ("B", b)] {
        if f.noisy {
            println!(
                "note: {name} was measured on a noisy box (calibration spread {:.1}%)",
                f.calib_spread * 100.0
            );
        }
    }
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("{:<16} missing from B", wa.name);
            pass = false;
            continue;
        };
        for def in &E2E {
            let (Some(ma), Some(mb)) = (wa.metric(def.name), wb.metric(def.name)) else {
                println!("{:<16} {:<20} missing", wa.name, def.name);
                pass = false;
                continue;
            };
            let pairs = paired_ratios(a.seed == b.seed, &ma.reps, &mb.reps);
            let v = verdict(def, &ma.summary, &mb.summary, pairs.as_ref());
            pass &= v != Verdict::Regressed;
            println!(
                "{:<16} {:<20} {:>14.6} {:>14.6} {:>9.4} {:>7.2}  {}",
                wa.name,
                format!("{} [{}]", def.name, def.unit),
                ma.summary.median,
                mb.summary.median,
                mb.summary.median / ma.summary.median,
                def.bound,
                v.label()
            );
        }
        if wa.sim_digest != wb.sim_digest {
            println!(
                "{:<16} MODEL CHANGED: sim_digest {:016x} -> {:016x}, sim_requests {} -> {}, sim_p99_ms {} -> {}",
                wa.name, wa.sim_digest, wb.sim_digest, wa.sim_requests, wb.sim_requests, wa.sim_p99_ms, wb.sim_p99_ms
            );
        }
        if wb.fail_share() > wa.fail_share() {
            println!(
                "{:<16} fail_share rose: {}/{} -> {}/{}",
                wa.name, wa.failed, wa.attempted, wb.failed, wb.attempted
            );
            pass = false;
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::metric_def;
    use crate::result::tests::{sample_file, sample_workload};

    /// Reps within ±`share` of `median`, quartiles at half that.
    fn around(median: f64, share: f64) -> Summary {
        Summary {
            median,
            min: median * (1.0 - share),
            max: median * (1.0 + share),
            q1: median * (1.0 - share / 2.0),
            q3: median * (1.0 + share / 2.0),
            n: 7,
        }
    }

    fn tight(median: f64) -> Summary {
        around(median, 0.01)
    }

    #[test]
    fn verdict_at_exactly_the_bound_and_one_unit_over() {
        // Chosen so the arithmetic is exact in binary: bound 0.25.
        let def = MetricDef {
            name: "t",
            unit: "s",
            better: Better::Lower,
            bound: 0.25,
            what: "",
        };
        let a = Summary::exact(4.0, 7);
        assert_eq!(
            verdict(&def, &a, &Summary::exact(5.0, 7), None),
            Verdict::Ok
        );
        let over = f64::from_bits(5.0f64.to_bits() + 1);
        assert_eq!(
            verdict(&def, &a, &Summary::exact(over, 7), None),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&def, &a, &Summary::exact(3.0, 7), None),
            Verdict::Ok
        );
        let under = f64::from_bits(3.0f64.to_bits() - 1);
        assert_eq!(
            verdict(&def, &a, &Summary::exact(under, 7), None),
            Verdict::Improved
        );
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let def = metric_def("sim_req_per_host_s").unwrap();
        assert_eq!(
            verdict(def, &tight(1000.0), &tight(700.0), None),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(def, &tight(1000.0), &tight(1300.0), None),
            Verdict::Improved
        );
        assert_eq!(
            verdict(def, &tight(1000.0), &tight(1010.0), None),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_overlapping_ranges_are_unresolved() {
        let def = metric_def("host_s").unwrap();
        // Reps' IQR 60 % of the median: the median of 7 spreads 28 %,
        // against a bound of 25 %.
        let wide = |median: f64| around(median, 0.6);
        assert_eq!(
            verdict(def, &wide(1.0), &wide(1.05), None),
            Verdict::Unresolved
        );
        // Every run of B reads worse than every run of A: resolved.
        assert_eq!(
            verdict(def, &wide(1.0), &wide(5.0), None),
            Verdict::Regressed
        );
        // Reps' IQR 30 %: the median of 7 is good to 14 %, resolved.
        assert_eq!(
            verdict(def, &around(1.0, 0.3), &around(1.05, 0.3), None),
            Verdict::Ok
        );
        // A lone outlier widens min–max, not the quartiles: still resolved.
        let outlier = Summary {
            max: 1.6,
            ..around(1.0, 0.05)
        };
        assert_eq!(
            verdict(def, &outlier, &around(1.02, 0.05), None),
            Verdict::Ok
        );
    }

    #[test]
    fn pairing_by_panel_seed_cancels_seed_to_seed_cost() {
        let def = metric_def("host_s").unwrap();
        // Reps differ 6x by seed; B is A slowed by a steady 3–5 %.
        let a = [1.0, 6.0, 1.2, 5.0, 3.0, 1.1, 5.5];
        let factor = [1.03, 1.05, 1.04, 1.03, 1.05, 1.04, 1.04];
        let b: Vec<f64> = a.iter().zip(factor).map(|(x, f)| x * f).collect();
        let (sa, sb) = (Summary::of(&a).unwrap(), Summary::of(&b).unwrap());
        assert_eq!(verdict(def, &sa, &sb, None), Verdict::Unresolved);
        let pairs = paired_ratios(true, &a, &b).unwrap();
        assert_eq!(verdict(def, &sa, &sb, Some(&pairs)), Verdict::Ok);
        // Different seeds or rep counts: nothing to pair.
        assert!(paired_ratios(false, &a, &b).is_none());
        assert!(paired_ratios(true, &a[..6], &b).is_none());
        // Ratios scattered around 1 wider than the bound stay unresolved.
        let noisy: Vec<f64> = a
            .iter()
            .zip([0.7, 1.4, 0.8, 1.3, 0.75, 1.35, 1.0])
            .map(|(x, f)| x * f)
            .collect();
        let pairs = paired_ratios(true, &a, &noisy).unwrap();
        assert_eq!(
            verdict(def, &sa, &Summary::of(&noisy).unwrap(), Some(&pairs)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_fails_on_regression_or_new_failures_only() {
        let base = sample_file(vec![sample_workload("w", tight(1.0))]);
        assert!(compare(&base, &base));
        let slower = sample_file(vec![sample_workload("w", tight(1.5))]);
        assert!(!compare(&base, &slower));
        assert!(compare(&slower, &base), "an improvement passes");
        let mut failing = base.clone();
        failing.workloads[0].failed = 1;
        assert!(!compare(&base, &failing));
        let mut model = base.clone();
        model.workloads[0].sim_digest ^= 1;
        assert!(
            compare(&base, &model),
            "a model change is flagged, not failed"
        );
    }
}
