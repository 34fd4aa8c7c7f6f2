//! Fleet-scale stepping bench: the full per-second hot path — 1 Hz
//! sampling into the control plane, fused step-and-sense over the
//! struct-of-arrays server slab, and the 8 s control round — at data
//! center sizes up to ≥100k servers.
//!
//! Two stepping modes are timed on identical rigs:
//!
//! - **event-driven** — the production path: dirty bitmaps skip servers
//!   whose utilization sample, cap, and supply split are unchanged since
//!   the last tick, and the sense buffers re-copy only changed snapshots;
//! - **full-rebuild** — every server stepped and re-sensed every second
//!   (the differential-test reference, and the pre-slab cost model).
//!
//! The rig holds demand constant (the paper's Table 4 sizing with seeded
//! per-server utilization), so after the node managers settle the fleet
//! quiesces and the event-driven mode shows its steady-state cost.
//! Results go to `BENCH_fleet.json`, with the host CPU count.
//!
//! ```text
//! cargo run --release -p capmaestro-bench --bin fleet \
//!     [-- --periods N --out PATH --smoke]
//! ```
//!
//! `--smoke` runs the same pipeline on a 128-server rig for a handful of
//! periods — a wall-clock-bounded CI check that the fleet path executes
//! and reports sane throughput, exiting nonzero otherwise.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use capmaestro_bench::{banner, Args};
use capmaestro_core::plane::{ControlPlane, Farm, SenseBuffer};
use capmaestro_sim::report::Table;
use capmaestro_sim::scenarios::{datacenter_rig, DataCenterRigConfig};
use capmaestro_topology::presets::DataCenterParams;
use capmaestro_units::{Seconds, Watts};

/// Control periods used to warm every cache (node-manager settling,
/// estimator windows, round context, sense buffers) before measuring.
const WARMUP_PERIODS: u32 = 2;

/// Seconds per control period (the paper's 8 s round cadence).
const PERIOD_S: u32 = 8;

fn config_for(
    racks: usize,
    tpf: usize,
    rpp: usize,
    cdus: usize,
    spr: usize,
) -> DataCenterRigConfig {
    DataCenterRigConfig {
        params: DataCenterParams {
            racks,
            transformers_per_feed: tpf,
            rpps_per_transformer: rpp,
            cdus_per_rpp: cdus,
            servers_per_rack: spr,
            ..DataCenterParams::default()
        },
        contractual_per_phase: Watts::from_kilowatts(700.0 * racks as f64 / 162.0) * 0.95,
        utilization: 0.9,
        ..DataCenterRigConfig::default()
    }
}

/// One mode's timing over `periods` control periods.
struct ModeTiming {
    /// Wall time of the whole loop (sampling, stepping, rounds).
    total: Duration,
    /// Wall time strictly around the `round` calls.
    rounds: Duration,
    /// Wall time strictly around the fused step-and-sense sweeps — the
    /// phase the event-driven slab accelerates (the 1 Hz estimator
    /// sampling is unconditional by design, so it dilutes `total`).
    stepping: Duration,
}

/// Runs `periods` control periods of the engine-shaped hot path:
/// `PERIOD_S` seconds of (1 Hz sample + fused step-and-sense), then one
/// control round.
fn run_periods(
    plane: &mut ControlPlane,
    farm: &mut Farm,
    buf: &mut SenseBuffer,
    periods: u32,
) -> ModeTiming {
    let start = Instant::now();
    let mut rounds = Duration::ZERO;
    let mut stepping = Duration::ZERO;
    for _ in 0..periods {
        for _ in 0..PERIOD_S {
            plane.sample(farm);
            let step_start = Instant::now();
            farm.step_and_sense_into(Seconds::new(1.0), buf);
            stepping += step_start.elapsed();
        }
        let round_start = Instant::now();
        plane.round(farm);
        rounds += round_start.elapsed();
    }
    ModeTiming {
        total: start.elapsed(),
        rounds,
        stepping,
    }
}

struct Sample {
    servers: usize,
    periods: u32,
    /// Simulated seconds per wall second, event-driven.
    event_steps_per_sec: f64,
    /// Simulated seconds per wall second, full rebuild.
    full_steps_per_sec: f64,
    /// Mean step-and-sense sweep cost, microseconds, event-driven.
    event_step_us: f64,
    /// Mean step-and-sense sweep cost, microseconds, full rebuild.
    full_step_us: f64,
    /// Control rounds per wall second (event-driven, round time only).
    rounds_per_sec: f64,
    /// Server-seconds simulated per wall second (event-driven, whole
    /// loop): `servers × simulated seconds / wall time`.
    servers_per_sec: f64,
}

fn measure(config: &DataCenterRigConfig, periods: u32) -> Sample {
    let mut sample = Sample {
        servers: 0,
        periods,
        event_steps_per_sec: 0.0,
        full_steps_per_sec: 0.0,
        event_step_us: 0.0,
        full_step_us: 0.0,
        rounds_per_sec: 0.0,
        servers_per_sec: 0.0,
    };
    for event_driven in [true, false] {
        let rig = datacenter_rig(config);
        let mut farm = rig.farm;
        let mut plane = rig.plane;
        let mut buf = SenseBuffer::new();
        farm.set_event_driven(event_driven);
        sample.servers = farm.len();
        run_periods(&mut plane, &mut farm, &mut buf, WARMUP_PERIODS);
        let timing = run_periods(&mut plane, &mut farm, &mut buf, periods);
        let sim_seconds = (periods * PERIOD_S) as f64;
        let steps_per_sec = sim_seconds / timing.total.as_secs_f64();
        let step_us = timing.stepping.as_secs_f64() * 1e6 / sim_seconds;
        if event_driven {
            sample.event_steps_per_sec = steps_per_sec;
            sample.event_step_us = step_us;
            sample.rounds_per_sec = periods as f64 / timing.rounds.as_secs_f64();
            sample.servers_per_sec =
                sample.servers as f64 * sim_seconds / timing.total.as_secs_f64();
        } else {
            sample.full_steps_per_sec = steps_per_sec;
            sample.full_step_us = step_us;
        }
    }
    sample
}

fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn render_json(samples: &[Sample]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"fleet_stepping\",");
    let _ = writeln!(out, "  \"host_cpus\": {},", host_cpus());
    let _ = writeln!(out, "  \"period_s\": {PERIOD_S},");
    let _ = writeln!(out, "  \"warmup_periods\": {WARMUP_PERIODS},");
    out.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"servers\": {}, \"periods\": {}, \
             \"event_driven_steps_per_sec\": {:.2}, \
             \"full_rebuild_steps_per_sec\": {:.2}, \"speedup\": {:.3}, \
             \"event_driven_step_us\": {:.1}, \"full_rebuild_step_us\": {:.1}, \
             \"step_speedup\": {:.2}, \
             \"rounds_per_sec\": {:.2}, \"servers_per_sec\": {:.0}}}",
            s.servers,
            s.periods,
            s.event_steps_per_sec,
            s.full_steps_per_sec,
            s.event_steps_per_sec / s.full_steps_per_sec,
            s.event_step_us,
            s.full_step_us,
            s.full_step_us / s.event_step_us,
            s.rounds_per_sec,
            s.servers_per_sec,
        );
        out.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Wall-clock-bounded CI smoke: the fleet pipeline on a 128-server rig
/// for a few periods in both modes, checking it completes with sane
/// (finite, nonzero) throughput. Returns the process exit code.
fn smoke() -> i32 {
    let config = config_for(8, 2, 2, 2, 16);
    let s = measure(&config, 4);
    println!(
        "smoke: {} servers, {:.1} event-driven steps/s, {:.1} full-rebuild \
         steps/s, {:.1} rounds/s, {:.0} servers/s on {} host cpus",
        s.servers,
        s.event_steps_per_sec,
        s.full_steps_per_sec,
        s.rounds_per_sec,
        s.servers_per_sec,
        host_cpus(),
    );
    let sane = |x: f64| x.is_finite() && x > 0.0;
    if s.servers != 128 {
        eprintln!("FAIL: expected a 128-server smoke rig, got {}", s.servers);
        return 1;
    }
    if !(sane(s.event_steps_per_sec)
        && sane(s.full_steps_per_sec)
        && sane(s.rounds_per_sec)
        && sane(s.servers_per_sec))
    {
        eprintln!("FAIL: fleet smoke produced degenerate throughput numbers.");
        return 1;
    }
    println!("smoke ok: fleet stepping pipeline ran in both modes.");
    0
}

fn main() {
    let args = Args::capture();
    let periods: u32 = args.get("periods", 12);
    let out_path: String = args.get("out", "BENCH_fleet.json".to_string());

    banner(
        "Fleet stepping",
        "event-driven slab stepping vs full rebuild at fleet scale",
    );

    if args.flag("smoke") {
        std::process::exit(smoke());
    }

    let mut table = Table::new(vec![
        "Servers",
        "Event steps/s",
        "Full steps/s",
        "Step µs (ev/full)",
        "Step speedup",
        "Rounds/s",
        "Servers/s",
    ]);
    let mut samples = Vec::new();
    // Rack counts must equal transformers × RPPs × CDUs; the largest rig
    // is 2520 racks × 40 servers = 100 800 servers (≥100k).
    for (racks, tpf, rpp, cdus, spr) in
        [(128, 2, 8, 8, 32), (630, 2, 9, 35, 40), (2520, 6, 20, 21, 40)]
    {
        let config = config_for(racks, tpf, rpp, cdus, spr);
        let s = measure(&config, periods);
        table.row(vec![
            s.servers.to_string(),
            format!("{:.1}", s.event_steps_per_sec),
            format!("{:.1}", s.full_steps_per_sec),
            format!("{:.0}/{:.0}", s.event_step_us, s.full_step_us),
            format!("{:.1}x", s.full_step_us / s.event_step_us),
            format!("{:.1}", s.rounds_per_sec),
            format!("{:.2e}", s.servers_per_sec),
        ]);
        samples.push(s);
    }
    print!("{}", table.render());
    println!();

    let json = render_json(&samples);
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
}
