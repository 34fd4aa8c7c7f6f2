//! The product's stranded-power path against the executable
//! specification: `optimize_stranded_power_in`, reusing one `TreeRow` per
//! tree and one `SpoScratch` across rounds (so the gather skip, the budget
//! memo and the strand detection skip all run warm), must budget every
//! node and leaf and find the stranded total bit for bit as
//! `capmaestro_spec::round` does from scratch.

use capmaestro_core::obs::NullRecorder;
use capmaestro_core::plane::TreeRow;
use capmaestro_core::spo::{optimize_stranded_power_in, SpoScratch};
use capmaestro_core::tree::{Allocation, ControlTree, SupplyInput};
use capmaestro_core::{AllocatorKind, PolicyKind};
use capmaestro_spec::Round;
use capmaestro_topology::presets::figure7a_rig;
use capmaestro_units::{Ratio, Watts};

/// The Fig. 7a rig trees with the paper's Table 3 demands and uneven
/// splits for the dual-corded servers.
fn fig7a_trees() -> Vec<ControlTree> {
    let topo = figure7a_rig();
    let mut trees: Vec<ControlTree> = topo
        .control_tree_specs()
        .into_iter()
        .map(ControlTree::new)
        .collect();
    for tree in &mut trees {
        tree.set_inputs_with(|server, supply| {
            let name = topo.server(server).unwrap().name();
            // SA and SB are single-corded. SC splits 53/47 and SD 46/54,
            // so the feeds' independent budgets strand power.
            let (demand, share) = match (name, supply.index()) {
                ("SA", _) => (414.0, 1.0),
                ("SB", _) => (415.0, 1.0),
                ("SC", 0) => (433.0, 0.53),
                ("SC", _) => (433.0, 0.47),
                ("SD", 0) => (439.0, 0.46),
                _ => (439.0, 0.54),
            };
            SupplyInput {
                demand: Watts::new(demand),
                cap_min: Watts::new(270.0),
                cap_max: Watts::new(490.0),
                share: Ratio::new(share),
            }
        });
    }
    trees
}

/// One fresh row per tree.
fn rows_for(trees: &[ControlTree]) -> Vec<TreeRow> {
    trees.iter().map(|_| TreeRow::default()).collect()
}

/// The rows' cumulative `(summarized, dirty_skipped)` gather counts.
fn gather_stats(rows: &[TreeRow]) -> (u64, u64) {
    rows.iter()
        .map(TreeRow::gather_stats)
        .fold((0, 0), |(s, k), (ds, dk)| (s + ds, k + dk))
}

/// Every node budget, every leaf budget, every unallocated remainder and
/// the stranded total, bitwise.
fn assert_matches_spec(
    trees: &[ControlTree],
    got: &[Allocation],
    stranded: Watts,
    want: &Round,
    at: &str,
) {
    let bits = |w: Watts| w.as_f64().to_bits();
    assert_eq!(got.len(), want.trees.len(), "{at}: tree count");
    for (t, ((tree, got), want)) in trees.iter().zip(got).zip(&want.trees).enumerate() {
        for (idx, &w) in want.nodes.iter().enumerate() {
            assert_eq!(bits(got.node_budget(idx)), bits(w), "{at}: tree {t} node {idx}");
        }
        let index = tree.arena().leaf_index();
        for slot in 0..index.len() {
            let w = want.nodes[index.node(slot)];
            assert_eq!(bits(got.leaf_budget(slot)), bits(w), "{at}: tree {t} leaf {slot}");
        }
        assert_eq!(bits(got.unallocated()), bits(want.unallocated), "{at}: tree {t} unallocated");
    }
    assert_eq!(bits(stranded), bits(want.stranded), "{at}: stranded total");
}

/// Several rounds with different budgets and a demand change in the
/// middle, reusing the rows and scratch throughout, under every policy
/// and allocator: every round must match the spec bit for bit. A repeat of the
/// round before finds every node clean in both passes.
#[test]
fn warm_spo_is_bit_identical_to_the_spec() {
    let budget_rounds = [
        [Watts::new(700.0), Watts::new(700.0)],
        [Watts::new(650.0), Watts::new(720.0)],
        [Watts::new(650.0), Watts::new(720.0)],
        [Watts::new(820.0), Watts::new(600.0)],
        [Watts::new(820.0), Watts::new(600.0)],
    ];
    for policy in PolicyKind::ALL.map(PolicyKind::policy) {
        for allocator in AllocatorKind::ALL.map(AllocatorKind::allocator) {
            let (policy, allocator) = (policy.as_ref(), allocator.as_ref());
            let mut trees = fig7a_trees();
            let mut rows = rows_for(&trees);
            let mut scratch = SpoScratch::default();
            let mut out = Vec::new();
            for (round, budgets) in budget_rounds.iter().enumerate() {
                let stats_before = gather_stats(&rows);
                if round == 2 {
                    for tree in &mut trees {
                        tree.set_inputs_with(|server, _| {
                            let bump = if server.index() == 0 { 12.0 } else { 0.0 };
                            SupplyInput {
                                demand: Watts::new(414.0 + bump),
                                cap_min: Watts::new(270.0),
                                cap_max: Watts::new(490.0),
                                share: Ratio::new(0.5),
                            }
                        });
                    }
                }
                let (stranded, _) = optimize_stranded_power_in(
                    &trees,
                    budgets,
                    policy,
                    allocator,
                    true,
                    &mut rows,
                    &mut scratch,
                    &mut out,
                    &NullRecorder,
                );
                let want = capmaestro_spec::round(&trees, budgets, policy, allocator, true);
                let at = format!("{} {} round {round}", policy.name(), allocator.name());
                assert_matches_spec(&trees, &out, stranded, &want, &at);
                if round == 4 {
                    let nodes: u64 = trees.iter().map(|t| t.arena().len() as u64).sum();
                    let (summarized, skipped) = gather_stats(&rows);
                    assert_eq!(summarized, stats_before.0, "{at}");
                    assert_eq!(skipped - stats_before.1, 2 * nodes, "{at}");
                }
            }
        }
    }
}

/// The same rows and scratch switched between rounds with and without the
/// reclaim pass: each round equals the spec's, and the rounds without it
/// are the first pass alone with nothing stranded.
#[test]
fn toggling_the_reclaim_pass_matches_the_spec() {
    let trees = fig7a_trees();
    let policy = PolicyKind::GlobalPriority.policy();
    let allocator = AllocatorKind::Waterfall.allocator();
    let (policy, allocator) = (policy.as_ref(), allocator.as_ref());
    let mut rows = rows_for(&trees);
    let mut scratch = SpoScratch::default();
    let mut out = Vec::new();
    let rounds = [
        (true, 700.0),
        (false, 700.0),
        (false, 680.0),
        (true, 680.0),
        (true, 680.0),
        (false, 700.0),
        (true, 700.0),
    ];
    for (round, &(reclaim, watts)) in rounds.iter().enumerate() {
        let budgets = [Watts::new(watts), Watts::new(700.0)];
        let (stranded, _) = optimize_stranded_power_in(
            &trees,
            &budgets,
            policy,
            allocator,
            reclaim,
            &mut rows,
            &mut scratch,
            &mut out,
            &NullRecorder,
        );
        let want = capmaestro_spec::round(&trees, &budgets, policy, allocator, reclaim);
        assert_matches_spec(&trees, &out, stranded, &want, &format!("round {round}"));
        if !reclaim {
            assert_eq!(stranded, Watts::ZERO);
        }
    }
}
