//! The metric table and the result file (`--out FILE`): what one complete
//! set of runs measured, in a shape `--compare` can read back.

use beehive_sim::json::Json;

use crate::stats::Summary;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: name, unit, direction and the relative worsening
/// that counts as a regression (the same bounds BENCHMARK.json fixes).
#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// What the number measures, for the printed table.
    pub what: &'static str,
}

/// The end-to-end metrics, reported per workload. Host times are calibrated
/// seconds ([`crate::stats::calibrated`]).
pub static E2E: [MetricDef; 6] = [
    MetricDef {
        name: "host_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host: calibrated wall time of one repro invocation",
    },
    MetricDef {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host: calibrated child user+sys CPU",
    },
    MetricDef {
        name: "sim_req_per_host_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "both: simulated requests per calibrated host second",
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "host: child peak resident set",
    },
    MetricDef {
        name: "output_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        what: "host: bytes of stdout plus artifact files (exact for a seed)",
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host: calibrated cold set-up invocation (fresh dir, --metrics)",
    },
];

/// Look a metric definition up by name.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    E2E.iter().find(|m| m.name == name)
}

/// One measured value with the spread of its reps.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
    /// The same reps uncalibrated, for host times; else `None`.
    pub raw: Option<Summary>,
    /// The value of every rep, in rep order — rep `k` of two result files
    /// with the same `--seed` ran at the same panel seed, which is what
    /// lets `--compare` pair them.
    pub reps: Vec<f64>,
}

/// Everything recorded for one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub command: String,
    pub metrics: Vec<Measured>,
    /// FNV-1a-64 of the `--json` stdout.
    pub sim_digest: u64,
    /// Σ `request_latency` counts over the workload's scenarios.
    pub sim_requests: u64,
    /// Request-weighted mean of the scenarios' simulated p99, ms.
    pub sim_p99_ms: f64,
    pub disturbed_runs: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed invocation or check failed.
    pub failures: Vec<String>,
}

impl WorkloadResult {
    pub fn metric(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One per-layer metric from the traced pass.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerMetric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl LayerMetric {
    pub fn to_json(&self) -> Json {
        Json::obj([
            (s("name"), Json::from(self.name.clone())),
            (s("value"), Json::from(self.value)),
            (s("unit"), Json::from(self.unit.clone())),
        ])
    }
}

/// A complete result file.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultFile {
    pub seed: u64,
    pub reps: usize,
    pub nproc: usize,
    pub rustc: String,
    pub calib_ref_s: f64,
    /// IQR / median of every calibration reading of the run.
    pub calib_spread: f64,
    pub noisy: bool,
    pub build_s: f64,
    pub workloads: Vec<WorkloadResult>,
    pub layers: Vec<LayerMetric>,
}

const SCHEMA: &str = "beehive-benchmark/1";

/// An object key.
pub(crate) fn s(k: &str) -> String {
    k.to_string()
}

impl Measured {
    fn to_json(&self) -> Json {
        Json::obj([
            (s("name"), Json::from(self.name.clone())),
            (s("unit"), Json::from(self.unit.clone())),
            (s("value"), Json::from(self.summary.median)),
            (s("min"), Json::from(self.summary.min)),
            (s("max"), Json::from(self.summary.max)),
            (s("q1"), Json::from(self.summary.q1)),
            (s("q3"), Json::from(self.summary.q3)),
            (s("n"), Json::from(self.summary.n)),
            (s("raw_median"), Json::from(self.raw.map(|r| r.median))),
            (s("raw_min"), Json::from(self.raw.map(|r| r.min))),
            (s("raw_max"), Json::from(self.raw.map(|r| r.max))),
            (s("raw_q1"), Json::from(self.raw.map(|r| r.q1))),
            (s("raw_q3"), Json::from(self.raw.map(|r| r.q3))),
            (
                s("reps"),
                Json::Arr(self.reps.iter().copied().map(Json::from).collect()),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<Measured, String> {
        let n = get_u64(j, "n")? as usize;
        let reps = get_arr(j, "reps")?
            .iter()
            .map(|x| match x {
                Json::Num(v) => Ok(*v),
                Json::Int(i) => Ok(*i as f64),
                _ => Err(s("reps: not a number")),
            })
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(Measured {
            name: get_str(j, "name")?,
            unit: get_str(j, "unit")?,
            summary: Summary {
                median: get_f64(j, "value")?,
                min: get_f64(j, "min")?,
                max: get_f64(j, "max")?,
                q1: get_f64(j, "q1")?,
                q3: get_f64(j, "q3")?,
                n,
            },
            raw: match j.get("raw_median") {
                None | Some(Json::Null) => None,
                Some(_) => Some(Summary {
                    median: get_f64(j, "raw_median")?,
                    min: get_f64(j, "raw_min")?,
                    max: get_f64(j, "raw_max")?,
                    q1: get_f64(j, "raw_q1")?,
                    q3: get_f64(j, "raw_q3")?,
                    n,
                }),
            },
            reps,
        })
    }
}

impl WorkloadResult {
    fn to_json(&self) -> Json {
        Json::obj([
            (s("name"), Json::from(self.name.clone())),
            (s("command"), Json::from(self.command.clone())),
            (
                s("metrics"),
                Json::Arr(self.metrics.iter().map(Measured::to_json).collect()),
            ),
            // Hex string: a u64 does not survive a round trip through f64.
            (
                s("sim_digest"),
                Json::from(format!("{:016x}", self.sim_digest)),
            ),
            (s("sim_requests"), Json::from(self.sim_requests)),
            (s("sim_p99_ms"), Json::from(self.sim_p99_ms)),
            (s("disturbed_runs"), Json::from(self.disturbed_runs)),
            (s("attempted"), Json::from(self.attempted)),
            (s("failed"), Json::from(self.failed)),
            (s("fail_share"), Json::from(self.fail_share())),
            (
                s("failures"),
                Json::Arr(self.failures.iter().cloned().map(Json::from).collect()),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<WorkloadResult, String> {
        Ok(WorkloadResult {
            name: get_str(j, "name")?,
            command: get_str(j, "command")?,
            metrics: get_arr(j, "metrics")?
                .iter()
                .map(Measured::from_json)
                .collect::<Result<_, _>>()?,
            sim_digest: u64::from_str_radix(&get_str(j, "sim_digest")?, 16)
                .map_err(|e| format!("sim_digest: {e}"))?,
            sim_requests: get_u64(j, "sim_requests")?,
            sim_p99_ms: get_f64(j, "sim_p99_ms")?,
            disturbed_runs: get_u64(j, "disturbed_runs")?,
            attempted: get_u64(j, "attempted")?,
            failed: get_u64(j, "failed")?,
            failures: get_arr(j, "failures")?
                .iter()
                .map(|f| match f {
                    Json::Str(t) => Ok(t.clone()),
                    _ => Err(s("failures: not a string")),
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

impl ResultFile {
    pub fn to_json(&self) -> Json {
        Json::obj([
            (s("schema"), Json::from(SCHEMA)),
            (s("seed"), Json::from(self.seed)),
            (s("reps"), Json::from(self.reps)),
            (s("nproc"), Json::from(self.nproc)),
            (s("rustc"), Json::from(self.rustc.clone())),
            (s("calib_ref_s"), Json::from(self.calib_ref_s)),
            (s("calib_spread"), Json::from(self.calib_spread)),
            (s("noisy"), Json::from(self.noisy)),
            (s("build_s"), Json::from(self.build_s)),
            (
                s("workloads"),
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
            (
                s("layers"),
                Json::Arr(self.layers.iter().map(LayerMetric::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<ResultFile, String> {
        let schema = get_str(j, "schema")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
        }
        Ok(ResultFile {
            seed: get_u64(j, "seed")?,
            reps: get_u64(j, "reps")? as usize,
            nproc: get_u64(j, "nproc")? as usize,
            rustc: get_str(j, "rustc")?,
            calib_ref_s: get_f64(j, "calib_ref_s")?,
            calib_spread: get_f64(j, "calib_spread")?,
            noisy: matches!(j.get("noisy"), Some(Json::Bool(true))),
            build_s: get_f64(j, "build_s")?,
            workloads: get_arr(j, "workloads")?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, _>>()?,
            layers: get_arr(j, "layers")?
                .iter()
                .map(|m| {
                    Ok(LayerMetric {
                        name: get_str(m, "name")?,
                        value: get_f64(m, "value")?,
                        unit: get_str(m, "unit")?,
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }

    /// Read a result file from disk.
    pub fn load(path: &std::path::Path) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        ResultFile::from_json(&j).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn get<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn get_str(j: &Json, key: &str) -> Result<String, String> {
    match get(j, key)? {
        Json::Str(t) => Ok(t.clone()),
        _ => Err(format!("{key}: not a string")),
    }
}

pub(crate) fn get_f64(j: &Json, key: &str) -> Result<f64, String> {
    match get(j, key)? {
        Json::Num(x) => Ok(*x),
        Json::Int(i) => Ok(*i as f64),
        _ => Err(format!("{key}: not a number")),
    }
}

pub(crate) fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    match get(j, key)? {
        Json::Int(i) => u64::try_from(*i).map_err(|_| format!("{key}: out of range")),
        _ => Err(format!("{key}: not an integer")),
    }
}

pub(crate) fn get_arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match get(j, key)? {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("{key}: not an array")),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_workload(name: &str, host: Summary) -> WorkloadResult {
        WorkloadResult {
            name: name.into(),
            command: "fig2 --quick".into(),
            // Every end-to-end metric; `host_s` carries the given spread.
            metrics: E2E
                .iter()
                .map(|def| Measured {
                    name: def.name.into(),
                    unit: def.unit.into(),
                    summary: if def.name == "host_s" {
                        host
                    } else {
                        Summary::exact(0.000297, host.n)
                    },
                    raw: (def.unit == "s").then_some(Summary {
                        median: host.median * 1.25,
                        max: host.max * 1.5,
                        ..host
                    }),
                    reps: if def.name == "host_s" {
                        vec![host.min, host.q1, host.median, host.q3, host.max]
                    } else {
                        vec![0.000297; 5]
                    },
                })
                .collect(),
            sim_digest: 0xfedc_ba98_7654_3210,
            sim_requests: 1349,
            sim_p99_ms: 2048.875,
            disturbed_runs: 1,
            attempted: 12,
            failed: 0,
            failures: vec![],
        }
    }

    pub(crate) fn sample_file(workloads: Vec<WorkloadResult>) -> ResultFile {
        ResultFile {
            seed: 42,
            reps: 7,
            nproc: 2,
            rustc: "rustc 1.95.0".into(),
            calib_ref_s: 0.2,
            calib_spread: 0.013,
            noisy: false,
            build_s: 0.31,
            workloads,
            layers: vec![LayerMetric {
                name: "vm.alloc_ns".into(),
                value: 12.5,
                unit: "ns".into(),
            }],
        }
    }

    #[test]
    fn result_file_round_trips_through_json() {
        let host = Summary {
            median: 0.21,
            min: 0.2,
            max: 0.25,
            q1: 0.205,
            q3: 0.22,
            n: 7,
        };
        let mut failed = sample_workload("b", host);
        failed.failed = 1;
        failed.failures.push("rep 3: exit code 1".into());
        let file = sample_file(vec![sample_workload("a", host), failed]);
        let text = file.to_json().render();
        let back = ResultFile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, file);
        // The digest keeps all 64 bits.
        assert!(text.contains("\"fedcba9876543210\""));
    }

    #[test]
    fn foreign_schema_is_refused() {
        let mut j = sample_file(vec![]).to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs[0].1 = Json::from("something/9");
        }
        assert!(ResultFile::from_json(&j).unwrap_err().contains("schema"));
    }

    #[test]
    fn every_metric_has_a_contract_sized_bound() {
        for m in &E2E {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(std::ptr::eq(metric_def(m.name).unwrap(), m));
        }
        let setup = metric_def("setup_s").unwrap();
        assert!(
            E2E.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
