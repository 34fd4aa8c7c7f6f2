//! Round-pipeline allocation micro-bench: incremental vs from-scratch
//! control rounds, with a counting global allocator proving the
//! steady-state hot path is allocation-free.
//!
//! For each data-center size this harness builds the Table 4-style rig,
//! warms the plane's cached `RoundContext`, then times two variants of
//! the control round:
//!
//! - **incremental** — `ControlPlane::round` reusing the arena round
//!   state, dirty stamps, and scratch buffers across rounds;
//! - **full** — `reset_round_cache` before every round, so each round
//!   rebuilds the context from scratch (the pre-refactor cost model).
//!
//! Heap allocations are counted strictly around the `round` call
//! (sampling and farm stepping sit outside the window), so
//! `allocs_per_round` reports what the round itself allocates once warm.
//! Results go to `BENCH_alloc.json`.
//!
//! ```text
//! cargo run --release -p capmaestro-bench --bin alloc \
//!     [-- --rounds N --out PATH --smoke]
//! ```
//!
//! `--smoke` runs a short deterministic check instead of the sweep: 60
//! incremental rounds on the small rig against a twin plane rebuilt
//! every round, verifying bit-identical caps and zero steady-state
//! allocations, exiting nonzero on any mismatch. The smoke then attaches
//! a live `MetricsRegistry` and proves the instrumented hot path is
//! *still* allocation-free once the registry is warm, under every
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use capmaestro_bench::{banner, Args};
use capmaestro_core::alloc::AllocatorKind;
use capmaestro_core::obs::{MetricsRegistry, RoundPhase};
use capmaestro_sim::report::Table;
use capmaestro_sim::scenarios::{datacenter_rig, DataCenterRigConfig};
use capmaestro_topology::presets::DataCenterParams;
use capmaestro_topology::{ServerId, SupplyIndex};
use capmaestro_units::{Seconds, Watts};

/// Counts heap allocations (alloc + realloc + alloc_zeroed) made through
/// the global allocator; frees are not counted. The counter is a plain
/// relaxed atomic so the measurement overhead is one fetch-add per
/// allocation — negligible next to the allocation itself.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Rounds used to warm caches (estimator windows, `RoundContext`
/// buffers, report capacity) before any measurement window opens.
const WARMUP_ROUNDS: u32 = 12;

/// One size's measurement.
struct Sample {
    servers: usize,
    nodes: usize,
    rounds: u32,
    incremental_rounds_per_sec: f64,
    full_rounds_per_sec: f64,
    allocs_per_round: f64,
}

fn config_for(racks: usize, rpp: usize, cdus: usize, spr: usize) -> DataCenterRigConfig {
    DataCenterRigConfig {
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
    }
}

fn measure(racks: usize, rpp: usize, cdus: usize, spr: usize, rounds: u32) -> Sample {
    let config = config_for(racks, rpp, cdus, spr);
    let rig = datacenter_rig(&config);
    let mut farm = rig.farm;
    let mut plane = rig.plane;
    let servers = farm.len();
    let nodes: usize = plane.trees().iter().map(|t| t.arena().len()).sum();

    for _ in 0..WARMUP_ROUNDS {
        plane.sample(&mut farm);
        plane.round(&mut farm);
        farm.step_all(Seconds::new(1.0));
    }

    // Incremental: time and count allocations strictly around the round.
    let mut incremental = Duration::ZERO;
    let mut allocs: u64 = 0;
    for _ in 0..rounds {
        plane.sample(&mut farm);
        let before = ALLOCS.load(Ordering::Relaxed);
        let start = Instant::now();
        plane.round(&mut farm);
        incremental += start.elapsed();
        allocs += ALLOCS.load(Ordering::Relaxed) - before;
        farm.step_all(Seconds::new(1.0));
    }

    // Full: throw the cached context away before every round, and charge
    // the rebuild to the round (that is the pre-refactor cost model).
    let mut full = Duration::ZERO;
    for _ in 0..rounds {
        plane.sample(&mut farm);
        let start = Instant::now();
        plane.reset_round_cache();
        plane.round(&mut farm);
        full += start.elapsed();
        farm.step_all(Seconds::new(1.0));
    }

    Sample {
        servers,
        nodes,
        rounds,
        incremental_rounds_per_sec: rounds as f64 / incremental.as_secs_f64(),
        full_rounds_per_sec: rounds as f64 / full.as_secs_f64(),
        allocs_per_round: allocs as f64 / rounds as f64,
    }
}

fn render_json(samples: &[Sample]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"round_pipeline_alloc\",");
    let _ = writeln!(out, "  \"warmup_rounds\": {WARMUP_ROUNDS},");
    out.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"servers\": {}, \"nodes\": {}, \"rounds\": {}, \
             \"incremental_rounds_per_sec\": {:.2}, \"full_rounds_per_sec\": {:.2}, \
             \"speedup\": {:.3}, \"allocs_per_round\": {:.1}}}",
            s.servers,
            s.nodes,
            s.rounds,
            s.incremental_rounds_per_sec,
            s.full_rounds_per_sec,
            s.incremental_rounds_per_sec / s.full_rounds_per_sec,
            s.allocs_per_round,
        );
        out.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Deterministic CI smoke: 60 incremental rounds on the small rig vs a
/// twin plane whose `RoundContext` is rebuilt every round, checking (a)
/// bit-identical caps, budgets, and stranded power each round, (b) zero
/// steady-state allocations inside `ControlPlane::round`, and (c) zero
/// allocations per round with a live `MetricsRegistry` attached once its
/// metric cells are registered, for each allocator in turn. Returns the
/// process exit code.
fn smoke() -> i32 {
    let config = config_for(8, 2, 2, 16);
    let rig_a = datacenter_rig(&config);
    let rig_b = datacenter_rig(&config);
    let mut farm_a = rig_a.farm;
    let mut plane_a = rig_a.plane;
    let mut farm_b = rig_b.farm;
    let mut plane_b = rig_b.plane;
    let pairs: Vec<(ServerId, SupplyIndex)> = farm_a
        .iter()
        .map(|(id, _)| id)
        .flat_map(|s| [(s, SupplyIndex::FIRST), (s, SupplyIndex::SECOND)])
        .collect();

    let mut failures = 0u32;
    let mut steady_allocs = 0u64;
    const ROUNDS: u32 = 60;
    for round in 0..ROUNDS {
        plane_a.sample(&mut farm_a);
        plane_b.sample(&mut farm_b);

        let before = ALLOCS.load(Ordering::Relaxed);
        plane_a.round(&mut farm_a);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        if round >= WARMUP_ROUNDS {
            steady_allocs += allocs;
        }

        plane_b.reset_round_cache();
        plane_b.round(&mut farm_b);

        let report_a = plane_a.last_report().expect("round ran");
        let report_b = plane_b.last_report().expect("round ran");
        let caps_match = report_a.dc_caps.len() == report_b.dc_caps.len()
            && report_a.dc_caps.iter().all(|(id, cap)| {
                report_b.dc_caps.get(id).map(|c| c.as_f64().to_bits())
                    == Some(cap.as_f64().to_bits())
            });
        let budgets_match = pairs.iter().all(|&(server, supply)| {
            let a = report_a.supply_budget(server, supply);
            let b = report_b.supply_budget(server, supply);
            a.map(|w| w.as_f64().to_bits()) == b.map(|w| w.as_f64().to_bits())
        });
        let stranded_match = report_a.stranded_reclaimed.as_f64().to_bits()
            == report_b.stranded_reclaimed.as_f64().to_bits();
        if !(caps_match && budgets_match && stranded_match) {
            eprintln!(
                "round {round}: incremental diverged from full rebuild \
                 (caps {caps_match}, budgets {budgets_match}, stranded {stranded_match})"
            );
            failures += 1;
        }

        farm_a.step_all(Seconds::new(1.0));
        farm_b.step_all(Seconds::new(1.0));
    }

    let steady_rounds = (ROUNDS - WARMUP_ROUNDS) as u64;
    println!(
        "smoke: {ROUNDS} rounds, {failures} divergent, \
         {steady_allocs} heap allocations over {steady_rounds} steady-state rounds"
    );
    if failures > 0 {
        eprintln!("FAIL: incremental rounds are not bit-identical to full rebuilds.");
        return 1;
    }
    if steady_allocs > 0 {
        eprintln!("FAIL: steady-state rounds allocated on the hot path.");
        return 1;
    }

    // Phase 2: attach a live registry and prove the *instrumented* hot
    // path is still allocation-free under every allocator. The first
    // instrumented rounds register every metric cell and warm the new
    // policy's scratch (that allocates, by design); after the re-warm the
    // registry is append-only and rounds must be clean.
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    plane_a.set_recorder(registry.clone());
    const INSTRUMENT_WARMUP: u32 = 2;
    const INSTRUMENT_ROUNDS: u32 = 20;
    for kind in AllocatorKind::ALL {
        plane_a.set_allocator(kind);
        for _ in 0..INSTRUMENT_WARMUP {
            plane_a.sample(&mut farm_a);
            plane_a.round(&mut farm_a);
            farm_a.step_all(Seconds::new(1.0));
        }
        let mut instrumented_allocs = 0u64;
        for _ in 0..INSTRUMENT_ROUNDS {
            plane_a.sample(&mut farm_a);
            let before = ALLOCS.load(Ordering::Relaxed);
            plane_a.round(&mut farm_a);
            instrumented_allocs += ALLOCS.load(Ordering::Relaxed) - before;
            farm_a.step_all(Seconds::new(1.0));
        }
        println!(
            "smoke: {instrumented_allocs} heap allocations over \
             {INSTRUMENT_ROUNDS} registry-instrumented {kind} rounds"
        );
        if instrumented_allocs > 0 {
            eprintln!("FAIL: instrumented {kind} rounds allocated on the hot path.");
            return 1;
        }
    }
    // Sanity: the registry actually saw the rounds it instrumented.
    let snap = registry.snapshot();
    let phases_seen = RoundPhase::ALL.iter().all(|p| {
        snap.histograms
            .iter()
            .any(|h| h.name == p.metric_name() && h.count > 0)
    });
    if !phases_seen {
        eprintln!("FAIL: instrumented rounds did not record all six phases.");
        return 1;
    }

    // Phase 3: the zero-alloc sense path. `ControlPlane::sample` syncs
    // the farm's snapshot slab into the plane's persistent scratch
    // buffer, and the engine's
    // fused step-and-sense writes into a reused `SenseBuffer`. Once both
    // buffers are warm, a full 1 Hz sense+step second must not allocate.
    let mut sense_buf = capmaestro_core::plane::SenseBuffer::new();
    const SENSE_WARMUP: u32 = 2;
    const SENSE_STEPS: u32 = 30;
    for _ in 0..SENSE_WARMUP {
        plane_a.sample(&mut farm_a);
        farm_a.step_and_sense_into(Seconds::new(1.0), &mut sense_buf);
    }
    let mut sense_allocs = 0u64;
    for _ in 0..SENSE_STEPS {
        let before = ALLOCS.load(Ordering::Relaxed);
        plane_a.sample(&mut farm_a);
        farm_a.step_and_sense_into(Seconds::new(1.0), &mut sense_buf);
        sense_allocs += ALLOCS.load(Ordering::Relaxed) - before;
    }
    println!(
        "smoke: {sense_allocs} heap allocations over {SENSE_STEPS} \
         sense+step seconds (sample + step_and_sense_into)"
    );
    if sense_allocs > 0 {
        eprintln!("FAIL: the warm sense path allocated.");
        return 1;
    }

    println!("smoke ok: bit-identical and allocation-free once warm, with and without recording.");
    0
}

fn main() {
    let args = Args::capture();
    let rounds: u32 = args.get("rounds", 40);
    let out_path: String = args.get("out", "BENCH_alloc.json".to_string());

    banner(
        "Round allocation",
        "incremental (cached RoundContext) vs full-rebuild control rounds",
    );

    if args.flag("smoke") {
        std::process::exit(smoke());
    }

    let mut table = Table::new(vec![
        "Servers",
        "Nodes",
        "Incr rounds/s",
        "Full rounds/s",
        "Speedup",
        "Allocs/round",
    ]);
    let mut samples = Vec::new();
    for (racks, rpp, cdus, spr) in [(8, 2, 2, 16), (32, 4, 4, 32), (128, 8, 8, 32)] {
        let s = measure(racks, rpp, cdus, spr, rounds);
        table.row(vec![
            s.servers.to_string(),
            s.nodes.to_string(),
            format!("{:.1}", s.incremental_rounds_per_sec),
            format!("{:.1}", s.full_rounds_per_sec),
            format!("{:.2}x", s.incremental_rounds_per_sec / s.full_rounds_per_sec),
            format!("{:.1}", s.allocs_per_round),
        ]);
        samples.push(s);
    }
    print!("{}", table.render());
    println!();

    if let Some(bad) = samples.iter().find(|s| s.allocs_per_round > 0.0) {
        eprintln!(
            "note: steady-state rounds allocated ({:.1}/round at {} servers); \
             the hot path is expected to be allocation-free once warm.",
            bad.allocs_per_round, bad.servers
        );
    }

    let json = render_json(&samples);
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
}
