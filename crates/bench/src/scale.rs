//! Control-plane scale measurement (§5 overhead claims) with the real
//! threaded rack/room worker deployment.

use std::sync::Arc;
use std::time::Instant;

use capmaestro_core::obs::{names, MetricsRegistry, RoundPhase};
use capmaestro_core::policy::PolicyKind;
use capmaestro_core::workers::{shared_farm, DeploymentConfig, WorkerDeployment};
use capmaestro_sim::scenarios::{datacenter_rig, DataCenterRigConfig};
use capmaestro_topology::presets::DataCenterParams;
use capmaestro_units::{Seconds, Watts};

/// One size's measurement.
#[derive(Debug, Clone)]
pub struct ScaleSample {
    /// Servers in the data center.
    pub servers: usize,
    /// Mean wall time of a synchronous-plane round, milliseconds.
    pub sync_ms: f64,
    /// Mean wall time of a distributed-deployment round, milliseconds.
    pub dist_ms: f64,
    /// Mean observed time per round phase, milliseconds, phase order.
    pub phase_ms: Vec<(&'static str, f64)>,
    /// Gather timeouts the distributed deployment hit.
    pub gather_timeouts: u64,
}

/// Stands up the Table 4 data center (all six control trees,
/// dual-corded servers) with `racks` racks behind `rpp` RPPs per
/// transformer and `cdus` CDUs per RPP, `spr` servers per rack, and times
/// five control rounds through the synchronous plane, then five through a
/// `workers`-thread deployment. A `MetricsRegistry` rides along on both.
pub fn scale_sample(
    racks: usize,
    rpp: usize,
    cdus: usize,
    spr: usize,
    workers: usize,
) -> ScaleSample {
    const ROUNDS: u32 = 5;
    let config = DataCenterRigConfig {
        params: DataCenterParams {
            racks,
            transformers_per_feed: 2,
            rpps_per_transformer: rpp,
            cdus_per_rpp: cdus,
            servers_per_rack: spr,
            ..DataCenterParams::default()
        },
        contractual_per_phase: Watts::from_kilowatts(700.0 * racks as f64 / 162.0) * 0.95,
        utilization: 0.9,
        ..DataCenterRigConfig::default()
    };
    let rig = datacenter_rig(&config);
    let servers = rig.farm.len();
    let registry = Arc::new(MetricsRegistry::new());

    // Synchronous plane, instrumented.
    let mut farm = rig.farm;
    let mut plane = rig.plane;
    plane.set_recorder(registry.clone());
    plane.sample(&mut farm);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        plane.round(&mut farm);
        farm.step_all(Seconds::new(1.0));
        plane.sample(&mut farm);
    }
    let sync_ms = start.elapsed().as_secs_f64() * 1000.0 / ROUNDS as f64;

    // Distributed deployment over the same trees.
    let trees = plane.trees().to_vec();
    let budgets =
        vec![Watts::from_kilowatts(700.0 * racks as f64 / 162.0) * 0.95 / 2.0; trees.len()];
    let mut deployment = WorkerDeployment::spawn(
        trees,
        budgets,
        PolicyKind::GlobalPriority,
        shared_farm(farm),
        workers,
        DeploymentConfig::default().with_recorder(registry.clone()),
    );
    deployment.run_round(0); // warm caches
    let start = Instant::now();
    for round in 1..=ROUNDS as u64 {
        deployment.run_round(round);
    }
    let dist_ms = start.elapsed().as_secs_f64() * 1000.0 / ROUNDS as f64;
    deployment.shutdown();

    let snap = registry.snapshot();
    let phase_ms = RoundPhase::ALL
        .iter()
        .map(|p| {
            let mean = snap
                .histograms
                .iter()
                .find(|h| h.name == p.metric_name() && h.count > 0)
                .map(|h| h.sum / h.count as f64 * 1000.0)
                .unwrap_or(0.0);
            (p.label(), mean)
        })
        .collect();
    let gather_timeouts = snap
        .counters
        .iter()
        .find(|c| c.name == names::WORKER_GATHER_TIMEOUTS_TOTAL)
        .map(|c| c.value)
        .unwrap_or(0);
    ScaleSample {
        servers,
        sync_ms,
        dist_ms,
        phase_ms,
        gather_timeouts,
    }
}
