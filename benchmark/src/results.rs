//! One workload run's result: what it measured, whether its outputs
//! were correct, and the host it ran on — printable as `name value
//! unit` lines, as the driver's one-line JSON object, and as the
//! results file `run.sh` writes (and reads back for `--repeat`).

use std::collections::BTreeMap;

use crate::catalog::{self, catalog};
use crate::digest::{self, Checkpoint, Expected};
use crate::host::Host;
use crate::json::Json;
use crate::Ctx;

/// One measured value and how many samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: u64,
}

/// Thread counts a result carries next to the host shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Threads {
    pub generator: usize,
    pub http_workers: usize,
    pub agents: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    pub host: Host,
    pub threads: Threads,
    /// Simulated seconds (room: rounds) in the measured window.
    pub sim_seconds: u64,
    /// Operations attempted: control rounds plus HTTP requests.
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check that did not hold; empty means correct.
    pub failures: Vec<String>,
    /// Metric name → value, for whichever table this run reports.
    pub metrics: BTreeMap<String, Value>,
    pub checkpoints: Vec<Checkpoint>,
    /// Priority inversions counted up to each checkpoint (traced engine
    /// runs; empty otherwise).
    pub inversions: Vec<u64>,
}

impl WorkloadResult {
    /// An empty result for one run of `workload`.
    pub fn new(workload: &str, traced: bool, ctx: &Ctx, threads: Threads) -> Self {
        WorkloadResult {
            workload: workload.to_string(),
            seed: ctx.seed,
            seconds: ctx.seconds,
            traced,
            smoke: ctx.smoke,
            host: ctx.host.clone(),
            threads,
            sim_seconds: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            checkpoints: Vec::new(),
            inversions: Vec::new(),
        }
    }

    /// Holds this run's checkpoints and inversion counts to what was
    /// blessed for seed 1 (other seeds have nothing blessed: they only
    /// check traced ≡ untraced).
    pub fn check_expected(&mut self, ctx: &Ctx) {
        if ctx.seed != 1 {
            return;
        }
        let file = ctx.expected_file(&self.workload);
        match Expected::load(&ctx.dir, &file) {
            Ok(Some(want)) => {
                if let Err(why) = digest::compare_prefix(&self.checkpoints, &want.checkpoints) {
                    self.failures
                        .push(format!("digest differs from expected/: {why}"));
                }
                if let Some(why) = want.inversions_exceeded(&self.inversions) {
                    self.failures.push(why);
                }
            }
            Ok(None) => self.failures.push(format!("expected/{file} is missing")),
            Err(why) => self.failures.push(why),
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        self.metrics
            .insert(name.to_string(), Value { value, samples });
    }

    /// `(name, unit)` of every metric this run must report, in
    /// catalogue order.
    pub fn expected_metrics(traced: bool) -> Vec<(&'static str, &'static str)> {
        let catalog = catalog();
        if traced {
            let rows = catalog.per_layer.iter();
            rows.map(|m| (m.name.as_str(), m.unit.as_str())).collect()
        } else {
            let rows = catalog.end_to_end.iter();
            rows.map(|m| (m.name.as_str(), m.unit.as_str())).collect()
        }
    }

    /// Checks that the run reported exactly its table: every end-to-end
    /// value finite and positive; every per-layer metric of a layer the
    /// workload enters measured with samples, and none of a layer it
    /// bypasses (those are filled in as `0 n=0`). Records what is wrong
    /// as a correctness failure.
    pub fn seal(&mut self) {
        let expected = Self::expected_metrics(self.traced);
        for (name, _) in &expected {
            let entered = !self.traced || catalog::enters(&self.workload, name);
            match self.metrics.get(*name).copied() {
                None if !entered => self.set(name, 0.0, 0),
                None => self
                    .failures
                    .push(format!("metric {name} was not measured")),
                Some(_) if !entered => self.failures.push(format!(
                    "metric {name} was measured, but {} is declared to bypass its layer",
                    self.workload
                )),
                Some(v) if !v.value.is_finite() => {
                    self.failures.push(format!("metric {name} is not finite"));
                    self.set(name, 0.0, 0);
                }
                Some(v) if self.traced && v.samples == 0 && !catalog::may_be_empty(name) => {
                    self.failures.push(format!("metric {name} has no samples"))
                }
                Some(v) if !self.traced && v.value <= 0.0 => {
                    self.failures.push(format!("metric {name} is not positive"))
                }
                Some(_) => {}
            }
        }
        let names: Vec<String> = self.metrics.keys().cloned().collect();
        for name in names {
            if !expected.iter().any(|(n, _)| *n == name) {
                self.failures
                    .push(format!("metric {name} is not in the catalogue"));
                self.metrics.remove(&name);
            }
        }
    }

    /// `name value unit n=samples` per metric, catalogue order, after a
    /// header with the host shape.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "workload {} seed {} seconds {} traced {} smoke {}\n",
            self.workload, self.seed, self.seconds, self.traced, self.smoke
        ));
        out.push_str(&format!(
            "host_cpus {} generator_threads {} http_workers {} agent_threads {} load_avg_1m {} rustc {:?}\n",
            self.host.host_cpus,
            self.threads.generator,
            self.threads.http_workers,
            self.threads.agents,
            self.host.load_avg_1m,
            self.host.rustc,
        ));
        if let Some(why) = &self.host.degraded {
            out.push_str(&format!("degraded {why}\n"));
        }
        for (name, unit) in Self::expected_metrics(self.traced) {
            if let Some(v) = self.metrics.get(name) {
                out.push_str(&format!("{name} {} {unit} n={}\n", v.value, v.samples));
            }
        }
        out.push_str(&format!("sim_seconds {} count\n", self.sim_seconds));
        out.push_str(&format!("ops {} count\n", self.attempted));
        out.push_str(&format!("failed_ops {} count\n", self.failed));
        if let Some((at, digest)) = self.checkpoints.last() {
            out.push_str(&format!(
                "digest {digest:016x} at {at} ({} checkpoints)\n",
                self.checkpoints.len()
            ));
        }
        for failure in &self.failures {
            out.push_str(&format!("INCORRECT {failure}\n"));
        }
        out
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = Self::expected_metrics(self.traced)
            .into_iter()
            .filter_map(|(name, unit)| {
                let v = self.metrics.get(name)?;
                Some((
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(v.value)),
                        ("unit".to_string(), Json::Str(unit.to_string())),
                    ]),
                ))
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            (
                "attempted".to_string(),
                Json::Num(self.attempted.max(1) as f64),
            ),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .render()
    }

    pub fn to_json(&self) -> Json {
        let units: BTreeMap<&str, &str> = Self::expected_metrics(self.traced).into_iter().collect();
        let metrics = self
            .metrics
            .iter()
            .map(|(name, v)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(v.value)),
                        (
                            "unit".to_string(),
                            Json::Str(units.get(name.as_str()).copied().unwrap_or("").to_string()),
                        ),
                        ("samples".to_string(), Json::Num(v.samples as f64)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("seconds".to_string(), Json::Num(self.seconds as f64)),
            ("traced".to_string(), Json::Bool(self.traced)),
            ("smoke".to_string(), Json::Bool(self.smoke)),
            ("host".to_string(), self.host.to_json()),
            (
                "threads".to_string(),
                Json::Obj(vec![
                    (
                        "generator".to_string(),
                        Json::Num(self.threads.generator as f64),
                    ),
                    (
                        "http_workers".to_string(),
                        Json::Num(self.threads.http_workers as f64),
                    ),
                    ("agents".to_string(), Json::Num(self.threads.agents as f64)),
                ]),
            ),
            (
                "sim_seconds".to_string(),
                Json::Num(self.sim_seconds as f64),
            ),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("correct".to_string(), Json::Bool(self.correct())),
            (
                "failures".to_string(),
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics".to_string(), Json::Obj(metrics)),
            (
                "inversions".to_string(),
                Json::Arr(
                    self.inversions
                        .iter()
                        .map(|n| Json::Num(*n as f64))
                        .collect(),
                ),
            ),
            (
                "checkpoints".to_string(),
                Json::Arr(
                    self.checkpoints
                        .iter()
                        .map(|(at, digest)| {
                            Json::Arr(vec![
                                Json::Num(*at as f64),
                                Json::Str(format!("{digest:016x}")),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(value: &Json) -> Option<WorkloadResult> {
        let threads = value.get("threads")?;
        let count = |v: &Json, key: &str| Some(v.get(key)?.as_u64()? as usize);
        let mut metrics = BTreeMap::new();
        for (name, m) in value.get("metrics")?.as_obj()? {
            metrics.insert(
                name.clone(),
                Value {
                    value: m.get("value")?.as_f64()?,
                    samples: m.get("samples")?.as_u64()?,
                },
            );
        }
        let mut checkpoints = Vec::new();
        for pair in value.get("checkpoints")?.as_arr()? {
            let pair = pair.as_arr()?;
            checkpoints.push((
                pair.first()?.as_u64()?,
                u64::from_str_radix(pair.get(1)?.as_str()?, 16).ok()?,
            ));
        }
        Some(WorkloadResult {
            workload: value.get("workload")?.as_str()?.to_string(),
            seed: value.get("seed")?.as_u64()?,
            seconds: value.get("seconds")?.as_u64()?,
            traced: value.get("traced")?.as_bool()?,
            smoke: value.get("smoke")?.as_bool()?,
            host: Host::from_json(value.get("host")?)?,
            threads: Threads {
                generator: count(threads, "generator")?,
                http_workers: count(threads, "http_workers")?,
                agents: count(threads, "agents")?,
            },
            sim_seconds: value.get("sim_seconds")?.as_u64()?,
            attempted: value.get("attempted")?.as_u64()?,
            failed: value.get("failed")?.as_u64()?,
            failures: value
                .get("failures")?
                .as_arr()?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            metrics,
            checkpoints,
            inversions: value
                .get("inversions")?
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<_>>()?,
        })
    }
}

/// Relative difference of `b` against `a`, signed so that positive
/// means *worse* for the metric's direction.
pub fn worsening(better: catalog::Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        catalog::Better::Lower => (b - a) / a,
        catalog::Better::Higher => (a - b) / a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(traced: bool) -> WorkloadResult {
        let mut result = WorkloadResult {
            workload: "fleet_steady".to_string(),
            seed: 7,
            seconds: 15,
            traced,
            smoke: false,
            host: Host {
                host_cpus: 2,
                rustc: "rustc 1.95.0".to_string(),
                load_avg_1m: 0.5,
                degraded: None,
            },
            threads: Threads {
                generator: 1,
                http_workers: 2,
                agents: 0,
            },
            sim_seconds: 448,
            attempted: 1000,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            checkpoints: vec![(64, 0xfeed_f00d_dead_beef), (128, 1)],
            inversions: vec![0, 3],
        };
        for (i, (name, _)) in WorkloadResult::expected_metrics(traced).iter().enumerate() {
            result.set(name, 1.2034567890123 + i as f64, 10 + i as u64);
        }
        result
    }

    #[test]
    fn results_file_round_trips() {
        for traced in [false, true] {
            let mut result = sample(traced);
            result.failures.push("a \"quoted\" failure".to_string());
            let text = result.to_json().render();
            let back = WorkloadResult::from_json(&Json::parse(&text).expect("parses"))
                .expect("every field present");
            assert_eq!(back, result);
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_the_run_s_table() {
        let mut result = sample(false);
        result.seal();
        assert!(result.correct(), "{:?}", result.failures);
        let line = Json::parse(&result.contract_line()).expect("parses");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), catalog().end_to_end.len());
        assert_eq!(
            metrics[0].1.get("value").and_then(Json::as_f64),
            Some(1.2034567890123)
        );
        assert_eq!(metrics[0].1.get("unit").and_then(Json::as_str), Some("s"));
    }

    /// `sample(true)` claims every layer; a fleet workload bypasses the
    /// wire codec and the operator plane.
    fn traced_fleet_sample() -> WorkloadResult {
        let mut traced = sample(true);
        let bypassed: Vec<String> = traced
            .metrics
            .keys()
            .filter(|name| !catalog::enters("fleet_steady", name))
            .cloned()
            .collect();
        assert!(bypassed.iter().any(|n| n == "core.wire.encode_up_ns"));
        for name in &bypassed {
            traced.metrics.remove(name);
        }
        traced
    }

    #[test]
    fn seal_fills_bypassed_layers_and_fails_an_entered_layer_without_samples() {
        let mut traced = traced_fleet_sample();
        traced.seal();
        assert!(traced.correct(), "{:?}", traced.failures);
        assert_eq!(
            traced.metrics["core.wire.encode_up_ns"],
            Value {
                value: 0.0,
                samples: 0
            }
        );

        // A histogram that was renamed reads back as nothing.
        let mut renamed = traced_fleet_sample();
        renamed.set("core.plane.gather_ms", 0.0, 0);
        renamed.metrics.remove("sim.engine.step_ms");
        renamed.set("sim.engine.reset_trace_ms", 0.0, 0);
        renamed.set("core.wire.encode_up_ns", 5.0, 10);
        renamed.seal();
        assert_eq!(renamed.failures.len(), 3, "{:?}", renamed.failures);

        let mut untraced = sample(false);
        untraced.metrics.remove(catalog::SETUP_S);
        untraced.set(catalog::ROUND_MS_P50, f64::NAN, 3);
        untraced.set("not.a.metric", 1.0, 1);
        untraced.seal();
        assert_eq!(untraced.failures.len(), 3, "{:?}", untraced.failures);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(catalog::Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(catalog::Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(catalog::Better::Higher, 10.0, 11.0) < 0.0);
    }
}
