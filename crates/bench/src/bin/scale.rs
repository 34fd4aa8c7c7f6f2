//! Control-plane scale measurement (§5 overhead claims) with the real
//! threaded rack/room worker deployment.
//!
//! The paper budgets ~10 ms for rack budgeting and <300 ms for a 500-rack
//! room worker. This harness stands up the Table 4 data center (all six
//! control trees, dual-corded servers) at several sizes and times complete
//! control rounds through both the synchronous plane and the distributed
//! deployment. A `MetricsRegistry` rides along on both, so each size also
//! reports the per-phase mean round time and any gather timeouts the
//! distributed deployment hit.
//!
//! ```text
//! cargo run --release -p capmaestro-bench --bin scale [-- --workers N]
//! ```

use std::sync::Arc;
use std::time::Instant;

use capmaestro_bench::{banner, Args};
use capmaestro_core::obs::{names, MetricsRegistry, RoundPhase};
use capmaestro_core::policy::PolicyKind;
use capmaestro_core::workers::{shared_farm, DeploymentConfig, WorkerDeployment};
use capmaestro_sim::report::Table;
use capmaestro_sim::scenarios::{datacenter_rig, DataCenterRigConfig};
use capmaestro_topology::presets::DataCenterParams;
use capmaestro_units::{Seconds, Watts};

/// One size's measurement.
struct Sample {
    servers: usize,
    sync_ms: f64,
    dist_ms: f64,
    /// Mean observed time per round phase, milliseconds, phase order.
    phase_ms: Vec<(&'static str, f64)>,
    gather_timeouts: u64,
}

fn rounds_per_config(racks: usize, rpp: usize, cdus: usize, spr: usize, workers: usize) -> Sample {
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
    const ROUNDS: u32 = 5;
    for _ in 0..ROUNDS {
        plane.round(&mut farm);
        farm.step_all(Seconds::new(1.0));
        plane.sample(&mut farm);
    }
    let sync_ms = start.elapsed().as_secs_f64() * 1000.0 / ROUNDS as f64;

    // Distributed deployment over the same trees.
    let trees = plane.trees().to_vec();
    let budgets = vec![
        Watts::from_kilowatts(700.0 * racks as f64 / 162.0) * 0.95 / 2.0;
        trees.len()
    ];
    let shared = shared_farm(farm);
    let mut deployment = WorkerDeployment::spawn(
        trees,
        budgets,
        PolicyKind::GlobalPriority,
        shared,
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
    Sample {
        servers,
        sync_ms,
        dist_ms,
        phase_ms,
        gather_timeouts,
    }
}

fn main() {
    let args = Args::capture();
    let workers: usize = args.get("workers", 4);
    banner(
        "Scale (§5)",
        "full control-round wall time, synchronous plane vs threaded rack/room workers",
    );
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if host_cpus == 1 {
        eprintln!("================================================================");
        eprintln!("WARNING: only 1 CPU is visible to this process.");
        eprintln!("The distributed timings below run {workers} rack-worker threads");
        eprintln!("time-sliced on a single core — they measure contention, not the");
        eprintln!("deployment, and must not be compared against the paper's budget.");
        eprintln!("================================================================");
    }
    let mut table = Table::new(vec![
        "Racks",
        "Servers",
        "Sync round (ms)",
        "Distributed round (ms)",
        "Gather timeouts",
    ]);
    let mut breakdowns: Vec<(usize, Sample)> = Vec::new();
    for (racks, rpp, cdus, spr) in [(18, 3, 3, 12), (54, 3, 9, 12), (162, 9, 9, 12), (162, 9, 9, 45)] {
        let sample = rounds_per_config(racks, rpp, cdus, spr, workers);
        table.row(vec![
            racks.to_string(),
            sample.servers.to_string(),
            format!("{:.1}", sample.sync_ms),
            format!("{:.1}", sample.dist_ms),
            sample.gather_timeouts.to_string(),
        ]);
        breakdowns.push((racks, sample));
    }
    print!("{}", table.render());
    println!();
    println!("synchronous per-phase mean (ms):");
    for (racks, sample) in &breakdowns {
        let phases: Vec<String> = sample
            .phase_ms
            .iter()
            .map(|(label, ms)| format!("{label} {ms:.2}"))
            .collect();
        println!(
            "  {racks} racks / {} servers: {}",
            sample.servers,
            phases.join(", ")
        );
    }
    println!();
    println!("paper budget: rack worker ~10 ms budgeting, room worker <300 ms at 500 racks.");
    println!("({workers} rack-worker threads on {host_cpus} host CPUs; the distributed figure");
    println!("includes sensing, estimation, metrics, budgeting, and cap enforcement end to end.)");
}
