//! The warm 1 Hz loop allocates nothing: a counting global allocator
//! around every `Engine::step` of a warm data-center rig.
//!
//! A second without a control round makes no heap allocation. A round
//! second makes exactly one per growth of the `stranded` event log's
//! capacity, the only thing a round appends to. Both hold with the default
//! null recorder, through a fleet-wide demand step in a non-round second
//! (every breaker load moves), through a root-budget cut that caps every
//! server below its demand (power moves every period as the caps walk
//! down), and with a live `MetricsRegistry` under each budget-split
//! allocator. The counter is process-wide, so this file holds a single
//! test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use capmaestro_core::alloc::AllocatorKind;
use capmaestro_core::obs::{MetricsRegistry, RoundPhase};
use capmaestro_sim::engine::{Engine, Event};
use capmaestro_sim::scenarios::{datacenter_rig, DataCenterRigConfig};
use capmaestro_topology::presets::DataCenterParams;
use capmaestro_units::Watts;

/// Counts heap allocations (alloc + realloc + alloc_zeroed) made through
/// the global allocator; frees are not counted.
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

/// Rounds that warm the estimator windows, the round context and the
/// report before the first measured second.
const WARMUP_ROUNDS: u64 = 12;
/// Rounds that register a freshly attached registry's metric cells and
/// warm a newly selected allocator's scratch.
const REWARM_ROUNDS: u64 = 2;
/// Measured seconds per configuration: 20 control rounds.
const MEASURED_S: u64 = 160;

/// 128 servers (8 racks × 16) at 90 % utilization. The contractual
/// budgets are about twice what the fleet draws, so no cap binds until
/// the test cuts the root budgets.
fn config() -> DataCenterRigConfig {
    DataCenterRigConfig {
        params: DataCenterParams {
            racks: 8,
            transformers_per_feed: 2,
            rpps_per_transformer: 2,
            cdus_per_rpp: 2,
            servers_per_rack: 16,
            ..DataCenterParams::default()
        },
        contractual_per_phase: Watts::from_kilowatts(700.0 * 8.0 / 162.0) * 0.95,
        utilization: 0.9,
        ..DataCenterRigConfig::default()
    }
}

/// Every server's achieved power, as bits.
fn fleet_power(engine: &Engine) -> Vec<u64> {
    engine
        .farm()
        .iter()
        .map(|(_, s)| s.achieved_ac().as_f64().to_bits())
        .collect()
}

/// Steps `seconds` seconds, requiring each to allocate nothing beyond the
/// growth of the `stranded` log in a round second.
fn assert_seconds_allocation_free(engine: &mut Engine, seconds: u64, what: &str) {
    for _ in 0..seconds {
        let second = engine.now_s();
        let round = second.is_multiple_of(engine.control_period_s());
        let capacity = engine.trace().stranded.capacity();
        let before = ALLOCS.load(Ordering::Relaxed);
        engine.step();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let grew = u64::from(engine.trace().stranded.capacity() != capacity);
        let expected = if round { grew } else { 0 };
        assert_eq!(allocs, expected, "{what}: second {second} (round: {round})");
    }
}

#[test]
fn warm_engine_seconds_allocate_only_event_log_growth() {
    let mut engine = Engine::new(datacenter_rig(&config()));
    let period = engine.control_period_s();
    for _ in 0..WARMUP_ROUNDS * period {
        engine.step();
    }
    assert_seconds_allocation_free(&mut engine, MEASURED_S, "null recorder");

    // Every server's demand drops by a fifth in one non-round second,
    // scheduled before the span: every server moves, so the load index
    // re-sums every key for the seconds they take to settle.
    let mut step_at = engine.now_s() + 3;
    if step_at.is_multiple_of(period) {
        step_at += 1;
    }
    let ids = engine.farm().ids().to_vec();
    for id in ids {
        let demand = engine.server(id).expect("farm server").offered_demand();
        engine.schedule(step_at, Event::SetDemand(id, demand * 0.8));
    }
    assert_seconds_allocation_free(&mut engine, MEASURED_S, "fleet-wide demand step");

    // Every root budget is cut, in a non-round second before the span, to
    // 70 % of the fleet's present draw in proportion to the budgets. From
    // the first round after it the caps bind; each later round commands
    // caps that still move power.
    let mut cut_at = engine.now_s() + 1;
    if cut_at.is_multiple_of(period) {
        cut_at += 1;
    }
    let load: Watts = engine.farm().iter().map(|(_, s)| s.achieved_ac()).sum();
    let budgets = engine.plane().root_budgets_now();
    let scale = 0.7 * (load / budgets.iter().copied().sum::<Watts>());
    engine.schedule(
        cut_at,
        Event::SetRootBudgets(budgets.iter().map(|&b| b * scale).collect()),
    );
    let mut power = fleet_power(&engine);
    for span in 0..MEASURED_S / period {
        assert_seconds_allocation_free(&mut engine, period, "root-budget cut");
        let now = fleet_power(&engine);
        if span > 0 {
            assert_ne!(now, power, "root-budget cut: period {span} moved no server");
            let throttled = engine
                .farm()
                .iter()
                .filter(|(_, s)| s.throttle().as_f64() > 0.0);
            assert!(
                throttled.count() > 0,
                "root-budget cut: period {span} throttles nothing"
            );
        }
        power = now;
    }

    let registry = Arc::new(MetricsRegistry::new());
    engine.plane_mut().set_recorder(registry.clone());
    for kind in AllocatorKind::ALL {
        engine.plane_mut().set_allocator(kind);
        for _ in 0..REWARM_ROUNDS * period {
            engine.step();
        }
        assert_seconds_allocation_free(&mut engine, MEASURED_S, kind.name());
    }

    // The registry saw the rounds it instrumented.
    let snapshot = registry.snapshot();
    for phase in RoundPhase::ALL {
        let observed = snapshot
            .histograms
            .iter()
            .any(|h| h.name == phase.metric_name() && h.count > 0);
        assert!(observed, "{phase:?} was never observed");
    }
}
