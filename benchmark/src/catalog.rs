//! The ledger's vocabulary. `BENCHMARK.json` at the repo root is the one
//! table of workloads, metric names, units, directions and bounds: it
//! is compiled in and parsed here, so what the binary prints cannot
//! drift from what the driver reads. This file adds only what that
//! schema has no place for: which workload enters which layer.

use std::sync::OnceLock;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Workload {
    pub name: String,
}

pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct Layer {
    pub name: String,
    pub unit: String,
}

pub struct Catalog {
    /// How long one run measures when the caller does not say.
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<Layer>,
}

pub const FLEET_STEADY: &str = "fleet_steady";
pub const FLEET_CHURN: &str = "fleet_churn";
pub const OPERATOR_STORM: &str = "operator_storm";
pub const ROOM_SOCKET: &str = "room_socket";

pub const SETUP_S: &str = "setup_s";
pub const SIM_S_PER_WALL_S: &str = "sim_s_per_wall_s";
pub const ROUND_MS_P50: &str = "round_ms_p50";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

const ENGINE: &[&str] = &[FLEET_STEADY, FLEET_CHURN, OPERATOR_STORM];
const ALL: &[&str] = &[FLEET_STEADY, FLEET_CHURN, OPERATOR_STORM, ROOM_SOCKET];
const STORM: &[&str] = &[OPERATOR_STORM];
const ROOM: &[&str] = &[ROOM_SOCKET];

/// Which workloads enter which layer, by metric-name prefix; the
/// longest matching prefix decides. A traced run must report every
/// metric of a layer it enters with at least one sample — a renamed
/// histogram or a span that stopped firing fails the run instead of
/// reading 0 — and reports `0 n=0` for the layers it bypasses, which
/// is what makes the other workloads the bypass side of an
/// optimisation.
const ENTERS: &[(&str, &[&str])] = &[
    ("serve.state.", ALL),
    // The room publishes once per round; it has no plain seconds.
    ("serve.state.publish_us", ENGINE),
    ("sim.engine.", ENGINE),
    // Only the churn feed schedules events.
    ("sim.engine.schedule_us_per_event", &[FLEET_CHURN]),
    ("core.plane.", ENGINE),
    ("server.slab.", ENGINE),
    ("core.alloc.", ENGINE),
    ("core.obs.", ENGINE),
    ("serve.http.", STORM),
    ("serve.router.", STORM),
    ("serve.api.", STORM),
    ("core.oplog.", STORM),
    ("core.workers.", ROOM),
    ("core.wire.", ROOM),
    ("serve.socket.", ROOM),
    ("serve.agent.", ROOM),
    ("bench.", ALL),
    // The invariant tracker watches an engine; the room has none.
    ("bench.observe_ms", ENGINE),
    ("bench.invariant_violations", ENGINE),
    ("bench.priority_inversions", ENGINE),
];

/// Entered, but legitimately without samples: a window shorter than
/// the reset cadence never resets.
const MAY_BE_EMPTY: &[&str] = &["sim.engine.reset_trace_ms"];

/// Whether `workload` must report `metric` with samples in a traced run.
pub fn enters(workload: &str, metric: &str) -> bool {
    ENTERS
        .iter()
        .filter(|(prefix, _)| metric.starts_with(prefix))
        .max_by_key(|(prefix, _)| prefix.len())
        .is_some_and(|(_, workloads)| workloads.contains(&workload))
}

pub fn may_be_empty(metric: &str) -> bool {
    MAY_BE_EMPTY.contains(&metric)
}

/// `BENCHMARK.json`, parsed once.
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    })
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    catalog().workloads.iter().find(|w| w.name == name)
}

fn parse(text: &str) -> Result<Catalog, String> {
    let doc = Json::parse(text)?;
    let rows = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{key} is not an array"))
    };
    let text_of = |row: &Json, key: &str| {
        row.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("a row has no {key}"))
    };
    let better = |row: &Json| match row.get("better").and_then(Json::as_str) {
        Some("lower") => Ok(Better::Lower),
        Some("higher") => Ok(Better::Higher),
        other => Err(format!("better is {other:?}")),
    };
    Ok(Catalog {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("run_seconds is not a whole number")?,
        workloads: rows("workloads")?
            .iter()
            .map(|w| {
                Ok(Workload {
                    name: text_of(w, "name")?,
                })
            })
            .collect::<Result<_, String>>()?,
        end_to_end: rows("end_to_end")?
            .iter()
            .map(|m| {
                Ok(EndToEnd {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    better: better(m)?,
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("a metric has no bound")?,
                })
            })
            .collect::<Result<_, String>>()?,
        per_layer: rows("per_layer")?
            .iter()
            .map(|m| {
                better(m)?;
                Ok(Layer {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                })
            })
            .collect::<Result<_, String>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_names_the_code_uses_are_the_names_benchmark_json_declares() {
        let catalog = catalog();
        let workloads: Vec<&str> = catalog.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, ALL);
        let end_to_end: Vec<&str> = catalog.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            end_to_end,
            [SETUP_S, SIM_S_PER_WALL_S, ROUND_MS_P50, PEAK_RSS_MB]
        );
        let setup = &catalog.end_to_end[0];
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        // The contract: no bound above 0.25, set-up's the largest.
        assert!(catalog
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= setup.bound && setup.bound <= 0.25));
    }

    /// The driver refuses a `BENCHMARK.json` outside these limits before
    /// a single run.
    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let name_ok = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let catalog = catalog();
        let mut seen = std::collections::BTreeSet::new();
        let names = catalog.workloads.iter().map(|w| &w.name);
        let names = names.chain(catalog.end_to_end.iter().map(|m| &m.name));
        for name in names.chain(catalog.per_layer.iter().map(|m| &m.name)) {
            assert!(name_ok(name) && seen.insert(name), "{name}");
        }
        let units = catalog.end_to_end.iter().map(|m| &m.unit);
        for unit in units.chain(catalog.per_layer.iter().map(|m| &m.unit)) {
            assert!(unit_ok(unit), "{unit}");
        }
        assert!((1..=60).contains(&catalog.run_seconds));
    }

    #[test]
    fn every_layer_metric_is_entered_by_some_workload_and_every_prefix_is_used() {
        let catalog = catalog();
        for metric in &catalog.per_layer {
            assert!(
                ALL.iter().any(|w| enters(w, &metric.name)),
                "{} belongs to no workload",
                metric.name
            );
        }
        for (prefix, _) in ENTERS {
            assert!(
                catalog.per_layer.iter().any(|m| m.name.starts_with(prefix)),
                "{prefix} matches no metric"
            );
        }
        for name in MAY_BE_EMPTY {
            assert!(catalog.per_layer.iter().any(|m| m.name == *name), "{name}");
        }
    }

    #[test]
    fn the_longest_prefix_decides_who_enters_a_layer() {
        assert!(enters(FLEET_STEADY, "serve.state.publish_us"));
        assert!(!enters(ROOM_SOCKET, "serve.state.publish_us"));
        assert!(enters(ROOM_SOCKET, "serve.state.reconcile_us"));
        assert!(enters(FLEET_CHURN, "sim.engine.schedule_us_per_event"));
        assert!(!enters(FLEET_STEADY, "sim.engine.schedule_us_per_event"));
        assert!(enters(OPERATOR_STORM, "serve.api.put_ack_ms_p50"));
        assert!(!enters(FLEET_CHURN, "serve.api.put_ack_ms_p50"));
        assert!(!enters(FLEET_CHURN, "core.wire.encode_up_ns"));
        assert!(!enters(FLEET_STEADY, "no.such.layer"));
    }
}
