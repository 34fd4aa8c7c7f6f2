//! What a server costs in live heap, by owner: a counting global
//! allocator that tracks live bytes while a data-center rig is built, its
//! engine wraps it, the first control round runs and a warm one follows.
//!
//! `cargo test -p capmaestro-sim --test footprint -- --nocapture` prints
//! the bytes per server of each owner (DESIGN.md, "Memory per server").
//! The test gates the trees and the round state: the live bytes the
//! control trees hold per tree node, the live bytes the first round leaves
//! behind per tree leaf, and the allocations of a round that reshapes the
//! tree states (the rounds after a feed fails and after it returns). The
//! counter sees only the thread that runs the test (the engine steps on
//! it), so the test harness's own threads add nothing to a reading; the
//! counts are still global, so this file holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use capmaestro_core::ControlTree;
use capmaestro_sim::engine::{Engine, Event};
use capmaestro_sim::scenarios::{datacenter_rig, DataCenterRigConfig};
use capmaestro_topology::presets::table4_datacenter;
use capmaestro_topology::{FeedId, Priority};

/// Counts heap allocations (alloc + realloc + alloc_zeroed) and tracks the
/// live bytes requested through the global allocator, on counted threads.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. A `const` cell has
    /// no destructor, so reading it never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is counted (a thread past its locals' end
/// is not).
fn counted() -> bool {
    COUNTED.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every method only counts, then forwards its arguments unchanged
// to `System`, so each call meets `System`'s contract exactly when the
// caller meets `GlobalAlloc`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller's layout, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`, with the caller's valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller's layout, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The most live bytes the control trees may hold per tree node: each
/// tree's arena (child lists, contexts, limits, leaf priorities, the leaf
/// index, the root's lane names) and its slot-indexed leaf inputs.
/// Measured at 63.2 on this rig, where keeping each tree's spec beside its
/// arena read 193.5 and node-indexed inputs 74.1. Counting only the test's
/// thread makes each reading repeat to the byte; the bound leaves about
/// 1 % over it.
const TREE_BYTES_PER_NODE: f64 = 64.0;

/// The most live bytes per tree leaf the first round may leave behind:
/// what the trees' rows hold (both SPO passes' round states, with one 48 B
/// summary per node each, the budget memo and flags; the pass-1
/// allocations; the slot-indexed overlays), the route table and lanes,
/// the leaf table with its estimators, and the report. Measured at 584.1
/// on this rig (634.1 with node-indexed overlays and a route table of
/// SPO's own); the rows' fixed part is built with the plane, before the
/// first round.
const ROUND_STATE_BYTES_PER_LEAF: f64 = 607.0;

/// The most allocations the round after a feed fails may make. Measured
/// at 0: the parked trees take their rows along, and every surviving
/// tree's row keeps serving it.
const FEED_FAILURE_ROUND_ALLOCS: u64 = 0;

/// The most allocations the round after the feed returns may make.
/// Measured at 13: the returning trees bring their rows back warm, so
/// only their gather lanes and report allocations are laid out again (12),
/// beside one by the engine.
const FEED_RESTORE_ROUND_ALLOCS: u64 = 13;

/// Rounds that fill the estimator windows before the warm round.
const WARMUP_ROUNDS: u64 = 12;

/// `(allocations, live bytes)` so far.
fn counters() -> (u64, i64) {
    (ALLOCS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed))
}

/// Runs `f`, returning `(allocations, live-byte growth)` across it.
fn measure(f: impl FnOnce()) -> (u64, i64) {
    let (allocs, live) = counters();
    f();
    let (allocs_after, live_after) = counters();
    (allocs_after - allocs, live_after - live)
}

/// Steps to the last second before the next round, schedules `event` for
/// it, and then steps into the round. Returns the round second's
/// `(allocations, live-byte growth)`.
fn round_after(engine: &mut Engine, event: Event) -> (u64, i64) {
    let period = engine.control_period_s();
    let round_at = engine.now_s().next_multiple_of(period) + period;
    engine.schedule(round_at - 1, event);
    while engine.now_s() < round_at {
        engine.step();
    }
    measure(|| engine.step())
}

#[test]
fn a_server_costs_a_bounded_heap_and_a_reshape_allocates_less_than_a_leaf() {
    COUNTED.with(|counted| counted.set(true));
    // 216 dual-corded servers on six trees, SPO on: the benchmark fleet's
    // shape at a size debug mode steps quickly.
    let config = DataCenterRigConfig {
        spo: true,
        ..DataCenterRigConfig::small()
    };
    let servers = config.params.total_servers();

    let mut rig = None;
    let (_, rig_bytes) = measure(|| rig = Some(datacenter_rig(&config)));
    let rig = rig.expect("built");
    let trees = rig.plane.trees();
    let leaves: usize = trees
        .iter()
        .map(|tree| tree.arena().leaf_index().len())
        .sum();
    let nodes: usize = trees.iter().map(|tree| tree.arena().len()).sum();

    // The rig's owners, each built again on its own and held while it is
    // counted: the topology, then its control trees, whose specs are gone
    // by the time the count is read. The farm and plane are the rest.
    let mut topology = None;
    let (_, topology_bytes) = measure(|| {
        topology = Some(table4_datacenter(&config.params, |_| Priority::LOW).0);
    });
    drop(topology);
    let mut copies = None;
    let (_, tree_bytes) = measure(|| {
        let specs = rig.topology.control_tree_specs();
        copies = Some(specs.into_iter().map(ControlTree::new).collect::<Vec<_>>());
    });
    drop(copies);
    let mut engine = None;
    let (_, engine_bytes) = measure(|| engine = Some(Engine::new(rig)));
    let mut engine = engine.expect("built");
    let period = engine.control_period_s();
    assert_eq!(engine.now_s() % period, 0, "the first step runs a round");

    let (first_allocs, first_bytes) = measure(|| engine.step());
    for _ in 1..WARMUP_ROUNDS * period {
        engine.step();
    }
    let (_, warm_bytes) = measure(|| {
        for _ in 0..period {
            engine.step();
        }
    });
    let (failed_allocs, _) = round_after(&mut engine, Event::FailFeed(FeedId::B));
    let (restored_allocs, _) = round_after(&mut engine, Event::RestoreFeed(FeedId::B));

    let per_server = |bytes: i64| bytes as f64 / servers as f64;
    println!("{servers} servers, {leaves} tree leaves; live heap by owner:");
    println!("  {:<28} {:>10} {:>12}", "owner", "bytes", "B/server");
    for (owner, bytes) in [
        ("rig: topology", topology_bytes),
        ("rig: trees", tree_bytes),
        (
            "rig: farm and plane",
            rig_bytes - topology_bytes - tree_bytes,
        ),
        ("engine", engine_bytes),
        ("first round", first_bytes),
        ("warm round (one period)", warm_bytes),
    ] {
        println!("  {owner:<28} {bytes:>10} {:>12.1}", per_server(bytes));
    }
    let per_node = tree_bytes as f64 / nodes as f64;
    println!("trees: {per_node:.1} B per node over {nodes} nodes");
    let per_leaf = first_bytes as f64 / leaves as f64;
    println!("first round: {per_leaf:.1} B per leaf, {first_allocs} allocations");
    println!("round after a feed fails: {failed_allocs} allocations");
    println!("round after it returns: {restored_allocs} allocations");

    assert!(
        per_node <= TREE_BYTES_PER_NODE,
        "the trees hold {per_node:.1} B per node, above {TREE_BYTES_PER_NODE}"
    );
    assert!(
        per_leaf <= ROUND_STATE_BYTES_PER_LEAF,
        "the first round left {per_leaf:.1} B per leaf, above {ROUND_STATE_BYTES_PER_LEAF}"
    );
    for (round, allocs, bound) in [
        ("feed-failure", failed_allocs, FEED_FAILURE_ROUND_ALLOCS),
        ("feed-restore", restored_allocs, FEED_RESTORE_ROUND_ALLOCS),
    ] {
        assert!(
            allocs <= bound,
            "the {round} round allocated {allocs} times, above {bound}"
        );
    }
}
