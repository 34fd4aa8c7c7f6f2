//! An executable specification of one whole CapMaestro control round,
//! written as plainly as the paper states it.
//!
//! - The allocation half ([`round`]) gathers every tree's priority metrics
//!   bottom-up (§4.3.1), splits budgets top-down (§4.3.2), then reclaims
//!   stranded power with a second pass (§4.4).
//! - The leaf half ([`Leaves`]) is each server's controller (§4.2, §5):
//!   screen readings into a demand estimator, age the stale-hold →
//!   fail-safe ladder, settle the demand, step a PI capping controller.
//!
//! Nothing is cached: no memo, stamp, pin, overlay, bitset or lane; every
//! leaf takes every step and every round recomputes everything. The
//! product's incremental round (`ControlPlane::round`) and the rack
//! workers must equal it bit for bit, and the differential suites compare
//! them. Exact equality holds because the spec keeps the product's
//! summation orders and reuses its public estimator, controller and
//! allocators.
//!
//! Test-only: crates take it as a dev-dependency, never as a dependency
//! (`tests/api_guidelines.rs` checks every manifest).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;

use capmaestro_core::alloc::{AllocScratch, Allocator};
use capmaestro_core::metrics::{LeafInput, PriorityMetrics};
use capmaestro_core::plane::{BudgetSource, ControlPlane, Farm, PlaneConfig};
use capmaestro_core::policy::{CappingPolicy, PriorityVisibility};
use capmaestro_core::spo::STRAND_EPSILON;
use capmaestro_core::tree::{ControlTree, SupplyInput};
use capmaestro_core::{CappingController, DemandEstimator, SampleFate, STALE_AFTER_ROUNDS};
use capmaestro_server::{SensorSnapshot, ServerPowerModel};
use capmaestro_topology::{ServerId, SpecLeaf, SupplyIndex};
use capmaestro_units::Watts;

/// One tree's budgets from a round.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeBudgets {
    /// Per spec node; a leaf's is its supply's budget.
    pub nodes: Vec<Watts>,
    /// The part of the root budget no child received.
    pub unallocated: Watts,
}

/// The allocation half of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Final budgets per tree: after the reclaim pass when it ran.
    pub trees: Vec<TreeBudgets>,
    /// Stranded power the first pass left, summed in `(server, supply)`
    /// order; zero without the reclaim pass.
    pub stranded: Watts,
}

/// The metrics-gathering phase (§4.3.1): per-node priority summaries,
/// bottom-up, with the policy deciding where levels collapse.
///
/// # Panics
///
/// Panics if any leaf lacks a [`SupplyInput`].
pub fn gather(tree: &ControlTree, policy: &dyn CappingPolicy) -> Vec<PriorityMetrics> {
    let arena = tree.arena();
    let n = arena.len();
    let leaves: BTreeMap<usize, (usize, SpecLeaf)> = arena
        .leaves()
        .enumerate()
        .map(|(slot, (idx, leaf))| (idx, (slot, leaf)))
        .collect();
    let mut metrics: Vec<PriorityMetrics> = vec![PriorityMetrics::empty(); n];
    for idx in (0..n).rev() {
        if let Some(&(slot, leaf)) = leaves.get(&idx) {
            let input = tree.slot_input(slot).unwrap_or_else(|| {
                let (server, supply) = (leaf.server, leaf.supply);
                panic!("leaf {idx} ({server} {supply}) has no supply input set")
            });
            metrics[idx] = PriorityMetrics::from_leaf(&LeafInput {
                demand: input.demand,
                cap_min: input.cap_min,
                cap_max: input.cap_max,
                share: input.share,
                priority: leaf.priority,
            });
        } else {
            let visibility = policy.visibility(arena.context(idx));
            let children: Vec<PriorityMetrics> = arena
                .children_of(idx)
                .iter()
                .map(|&c| seen(&metrics[c as usize], visibility))
                .collect();
            metrics[idx] = PriorityMetrics::aggregate(children.iter(), arena.limit(idx));
        }
    }
    metrics
}

/// One round's allocation over trees that cover the same control period:
/// tree `i` splits `root_budgets[i]` with `allocator`. With `reclaim`,
/// the stranded-power optimization follows (§4.4): strands are detected
/// across trees (a dual-corded server's supplies live in different
/// trees), every stranded supply's demand shrinks to what its server can
/// draw, and every tree is allocated again.
///
/// # Panics
///
/// Panics if the slices have different lengths, or as [`gather`] does.
pub fn round(
    trees: &[ControlTree],
    root_budgets: &[Watts],
    policy: &dyn CappingPolicy,
    allocator: &dyn Allocator,
    reclaim: bool,
) -> Round {
    assert_eq!(
        trees.len(),
        root_budgets.len(),
        "one root budget per tree is required"
    );
    let allocate = |trees: &[ControlTree]| -> Vec<TreeBudgets> {
        trees
            .iter()
            .zip(root_budgets)
            .map(|(tree, &budget)| budget_down(tree, budget, policy, allocator))
            .collect()
    };
    let first = allocate(trees);
    if !reclaim {
        return Round {
            trees: first,
            stranded: Watts::ZERO,
        };
    }

    let strands = detect_strands(trees, &first);
    let mut shrunk = trees.to_vec();
    for tree in &mut shrunk {
        shrink_stranded_inputs(tree, &strands);
    }
    Round {
        trees: allocate(&shrunk),
        stranded: strands.values().map(|&(strand, _)| strand).sum(),
    }
}

/// A child's summary as its parent sees it under the policy.
fn seen(metrics: &PriorityMetrics, visibility: PriorityVisibility) -> PriorityMetrics {
    match visibility {
        PriorityVisibility::Full => metrics.clone(),
        PriorityVisibility::Blind => metrics.collapsed(),
    }
}

/// The budget-down phase (§4.3.2): clamps `root_budget` at the root's
/// limit, then visits parents before children (spec order), splitting
/// each node's budget over its children's summaries through `allocator`.
fn budget_down(
    tree: &ControlTree,
    root_budget: Watts,
    policy: &dyn CappingPolicy,
    allocator: &dyn Allocator,
) -> TreeBudgets {
    let metrics = gather(tree, policy);
    let arena = tree.arena();
    let root = 0;
    let mut nodes = vec![Watts::ZERO; arena.len()];
    nodes[root] = root_budget.min(arena.limit(root).unwrap_or(root_budget));
    let mut unallocated = root_budget - nodes[root];
    for idx in 0..nodes.len() {
        let children = arena.children_of(idx);
        if children.is_empty() {
            continue;
        }
        let visibility = policy.visibility(arena.context(idx));
        let summaries: Vec<PriorityMetrics> = children
            .iter()
            .map(|&c| seen(&metrics[c as usize], visibility))
            .collect();
        let mut split = Vec::new();
        let leftover = allocator.split(
            nodes[idx],
            &summaries,
            &mut AllocScratch::default(),
            &mut split,
        );
        for (&child, &budget) in children.iter().zip(&split) {
            nodes[child as usize] = budget;
        }
        if idx == root {
            unallocated += leftover;
        }
    }
    TreeBudgets { nodes, unallocated }
}

/// Per stranded supply: the budget it cannot use, and its server's
/// achievable consumption.
type Strands = BTreeMap<(ServerId, SupplyIndex), (Watts, Watts)>;

/// One server's supplies across every tree, with its demand and floor.
#[derive(Debug, Default)]
struct ServerView {
    demand: Watts,
    cap_min: Watts,
    /// `(supply, share, first-pass budget)`.
    supplies: Vec<(SupplyIndex, f64, Watts)>,
}

fn collect_server_views(
    trees: &[ControlTree],
    budgets: &[TreeBudgets],
) -> BTreeMap<ServerId, ServerView> {
    let mut views: BTreeMap<ServerId, ServerView> = BTreeMap::new();
    for (tree, budgets) in trees.iter().zip(budgets) {
        for (slot, (idx, leaf)) in tree.arena().leaves().enumerate() {
            let Some(input) = tree.slot_input(slot) else {
                continue;
            };
            let view = views.entry(leaf.server).or_default();
            view.demand = view.demand.max(input.demand);
            view.cap_min = view.cap_min.max(input.cap_min);
            view.supplies
                .push((leaf.supply, input.share.as_f64(), budgets.nodes[idx]));
        }
    }
    views
}

/// The AC power a server will actually draw given its per-supply budgets:
/// its demand, clamped by the most constrained supply (budget ÷ share).
fn achievable_consumption(view: &ServerView) -> Watts {
    let mut limit = f64::INFINITY;
    for &(_, share, budget) in &view.supplies {
        if share > 0.0 {
            limit = limit.min(budget.as_f64() / share);
        }
    }
    let demand = view.demand.max(view.cap_min);
    if limit.is_finite() {
        demand.min(Watts::new(limit))
    } else {
        demand
    }
}

/// Finds the budget each supply cannot use after the first pass: per
/// stranded supply, `(stranded amount, its server's achievable
/// consumption)`, in `(server, supply)` order.
fn detect_strands(trees: &[ControlTree], first: &[TreeBudgets]) -> Strands {
    let mut strands = Strands::new();
    for (server, view) in collect_server_views(trees, first) {
        let actual = achievable_consumption(&view);
        for &(supply, share, budget) in &view.supplies {
            let strand = budget.saturating_sub(actual * share);
            if strand > STRAND_EPSILON {
                strands.insert((server, supply), (strand, actual));
            }
        }
    }
    strands
}

/// Shrinks a tree's stranded leaves' demand and constraint to their
/// server's achievable consumption: the second pass's inputs.
fn shrink_stranded_inputs(tree: &mut ControlTree, strands: &Strands) {
    for slot in 0..tree.arena().leaf_index().len() {
        let (server, supply) = tree.arena().leaf_index().pair(slot);
        let Some(&(_, actual)) = strands.get(&(server, supply)) else {
            continue;
        };
        let Some(&input) = tree.slot_input(slot) else {
            continue;
        };
        tree.set_supply_input(
            server,
            supply,
            SupplyInput {
                demand: actual,
                cap_max: actual.max(input.cap_min),
                ..input
            },
        );
    }
}

/// The leaf half of the round: one controller per server, kept in a plain
/// map and stepped whole every round.
#[derive(Debug, Default)]
pub struct Leaves {
    servers: BTreeMap<ServerId, Leaf>,
}

/// One server's controller.
#[derive(Debug, Default)]
struct Leaf {
    estimator: DemandEstimator,
    /// Built on the first commanded cap, from the server's envelope then.
    controller: Option<CappingController>,
    /// The last reading the estimator accepted.
    held: Option<SensorSnapshot>,
    /// Whether a reading was accepted since the last round.
    fresh: bool,
    /// Rounds in a row that found no accepted reading.
    stale_rounds: u32,
}

/// A whole round: budgets over the spec's own tree inputs, and what each
/// controller did with them.
#[derive(Debug)]
pub struct FullRound {
    /// The trees, holding the inputs the allocation half budgeted.
    pub trees: Vec<ControlTree>,
    /// The allocation half.
    pub allocation: Round,
    /// Each `(server, supply)`'s final budget, from the first tree that
    /// covers it.
    pub budgets: BTreeMap<(ServerId, SupplyIndex), Watts>,
    /// Per server of the farm, the DC cap its controller commanded; `None`
    /// keeps the cap it has.
    pub caps: BTreeMap<ServerId, Option<Watts>>,
    /// The servers in fail-safe, in id order.
    pub stale: Vec<ServerId>,
}

impl Leaves {
    /// Takes one reading delivered for `server`, screened against its
    /// envelope; the estimator's verdict decides whether it is held and
    /// counts as fresh.
    pub fn observe(&mut self, server: ServerId, reading: &SensorSnapshot, model: ServerPowerModel) {
        let leaf = self.servers.entry(server).or_default();
        let (power, idle, cap_max) = (reading.total_ac, model.idle(), model.cap_max());
        let fate = leaf
            .estimator
            .push_screened(reading.throttle, power, idle, cap_max);
        if fate == SampleFate::Accepted {
            leaf.held = Some(reading.clone());
            leaf.fresh = true;
        }
    }

    /// One round over every server of `farm`, under `config`'s policy,
    /// allocator and SPO switch. Each leaf ages one round (fail-safe after
    /// [`STALE_AFTER_ROUNDS`] rounds without a reading) and settles its
    /// demand; `trees` (their structure and priorities: every
    /// leaf input is replaced) are budgeted from those demands through
    /// [`round`], from `source`; then every controller steps against its
    /// supplies' budgets. The farm is only read, so the caps are not set.
    ///
    /// # Panics
    ///
    /// Panics if a tree names a server the farm does not hold.
    pub fn round(
        &mut self,
        farm: &Farm,
        trees: &[ControlTree],
        source: &BudgetSource,
        config: &PlaneConfig,
    ) -> FullRound {
        // Stale-hold, then fail-safe: the estimator is cleared on the
        // round that crosses the threshold.
        let mut demands = BTreeMap::new();
        for (id, server) in farm.iter() {
            let leaf = self.servers.entry(id).or_default();
            if std::mem::take(&mut leaf.fresh) {
                leaf.stale_rounds = 0;
            } else {
                leaf.stale_rounds = leaf.stale_rounds.saturating_add(1);
                if leaf.stale_rounds == STALE_AFTER_ROUNDS {
                    leaf.estimator.clear();
                }
            }
            let model = server.config().model();
            let demand = if leaf.stale_rounds >= STALE_AFTER_ROUNDS {
                model.cap_min()
            } else {
                let estimate = leaf.estimator.estimate_with_idle(model.idle());
                let held = leaf.held.as_ref().map(|reading| reading.total_ac);
                let demand = estimate.or(held).unwrap_or_else(|| server.sense().total_ac);
                demand.clamp(model.idle(), model.cap_max())
            };
            demands.insert(id, demand);
        }

        let mut trees = trees.to_vec();
        for tree in &mut trees {
            tree.set_inputs_with(|id, supply| {
                let server = farm.get(id).expect("every tree server is in the farm");
                let model = server.config().model();
                SupplyInput {
                    demand: demands[&id],
                    cap_min: model.cap_min(),
                    cap_max: model.cap_max(),
                    share: server.bank().effective_share(supply.index()),
                }
            });
        }
        let roots = match source {
            BudgetSource::Fixed(fixed) => fixed.clone(),
            BudgetSource::SharedPerPhase(per_phase) => shared_per_phase(&trees, *per_phase),
        };
        let (policy, alloc) = (config.policy.policy(), config.allocator.allocator());
        let allocation = round(&trees, &roots, policy.as_ref(), alloc.as_ref(), config.spo);
        let mut budgets = BTreeMap::new();
        for (tree, split) in trees.iter().zip(&allocation.trees) {
            for (idx, leaf) in tree.arena().leaves() {
                let key = (leaf.server, leaf.supply);
                budgets.entry(key).or_insert(split.nodes[idx]);
            }
        }

        // Each controller pairs its working supplies' budgets with its held
        // reading, or its server's live one; a blind server's cap is forced
        // to its fail-safe demand.
        let (mut caps, mut stale) = (BTreeMap::new(), Vec::new());
        for (id, server) in farm.iter() {
            let leaf = self.servers.get_mut(&id).expect("aged above");
            let (model, bank) = (server.config().model(), server.bank());
            let blind = leaf.stale_rounds >= STALE_AFTER_ROUNDS;
            let pairs: Vec<(usize, Watts)> = budgets
                .range((id, SupplyIndex::FIRST)..)
                .take_while(|((of, _), _)| *of == id)
                .filter(|((_, supply), _)| bank.effective_share(supply.index()).as_f64() > 0.0)
                .map(|(&(_, supply), &budget)| (supply.index(), budget))
                .collect();
            let cap = (blind || !pairs.is_empty()).then(|| {
                let controller = leaf.controller.get_or_insert_with(|| {
                    CappingController::new(model.cap_min(), model.cap_max(), bank.efficiency())
                });
                if blind {
                    controller.force_dc_cap(model.cap_min() * bank.efficiency())
                } else {
                    let reading = leaf.held.clone().unwrap_or_else(|| server.sense());
                    let measured = pairs.iter().map(|&(i, b)| (b, reading.supply_ac[i]));
                    controller.update_pairs(measured)
                }
            });
            caps.insert(id, cap);
            stale.extend(blind.then_some(id));
        }
        FullRound {
            trees,
            allocation,
            budgets,
            caps,
            stale,
        }
    }
}

impl FullRound {
    /// Asserts that `plane`'s last round decided exactly this, bit for
    /// bit: every tree node's input, every supply's budget, the stranded
    /// watts, the servers in fail-safe, and every commanded cap, both in
    /// the report and on `farm`'s servers. `at` labels a failure.
    ///
    /// # Panics
    ///
    /// Panics on the first difference, or if no round ran.
    pub fn assert_matches(&self, plane: &ControlPlane, farm: &Farm, at: &str) {
        let report = plane.last_report().expect("a round ran");
        let bits = |w: Option<Watts>| w.map(|w| w.as_f64().to_bits());
        let same = |what: String, got: Option<Watts>, want: Option<Watts>| {
            assert_eq!(bits(got), bits(want), "{at}: {what}: {got:?} vs {want:?}");
        };
        let (n, got) = (self.trees.len(), plane.trees());
        let counts = (report.allocations.len(), got.len());
        assert_eq!(counts, (n, n), "{at}: tree count");
        let input_bits = |i: &SupplyInput| {
            let fields = [i.demand, i.cap_min, i.cap_max].map(|w| w.as_f64());
            [fields[0], fields[1], fields[2], i.share.as_f64()].map(f64::to_bits)
        };
        for (t, (got, want)) in got.iter().zip(&self.trees).enumerate() {
            for (slot, (idx, _)) in want.arena().leaves().enumerate() {
                let (got, want) = (got.slot_input(slot), want.slot_input(slot));
                let (a, b) = (got.map(input_bits), want.map(input_bits));
                assert_eq!(a, b, "{at}: tree {t} node {idx}: {got:?} vs {want:?}");
            }
        }
        for (&(server, supply), &want) in &self.budgets {
            let got = report.supply_budget(server, supply);
            same(format!("budget of {server}/{supply}"), got, Some(want));
        }
        let stranded = (report.stranded_reclaimed, self.allocation.stranded);
        same("stranded watts".into(), Some(stranded.0), Some(stranded.1));
        assert_eq!(plane.stale_servers(), self.stale, "{at}: fail-safe");
        let commanded = self.caps.values().flatten().count();
        assert_eq!(report.dc_caps.len(), commanded, "{at}: cap count");
        for (id, &want) in &self.caps {
            let got = report.dc_caps.get(id).copied();
            same(format!("cap of {id}"), got, want);
            if want.is_some() {
                let on = farm.get(*id).and_then(|server| server.dc_cap());
                same(format!("cap on {id}"), on, want);
            }
        }
    }
}

/// The root budgets of [`BudgetSource::SharedPerPhase`]: each phase's
/// budget split over its trees in proportion to their demand (Σ demand ×
/// share over leaves), evenly when they have none.
fn shared_per_phase(trees: &[ControlTree], per_phase: Watts) -> Vec<Watts> {
    let demand = |tree: &ControlTree| -> Watts {
        let slots = 0..tree.arena().leaf_index().len();
        let inputs = slots.filter_map(|slot| tree.slot_input(slot));
        inputs.map(|input| input.demand * input.share).sum()
    };
    trees
        .iter()
        .map(|tree| {
            let phase = tree.arena().phase();
            let peers: Vec<&ControlTree> = trees
                .iter()
                .filter(|t| t.arena().phase() == phase)
                .collect();
            let total: Watts = peers.iter().map(|peer| demand(peer)).sum();
            if total > Watts::ZERO {
                per_phase * (demand(tree) / total)
            } else {
                per_phase / peers.len() as f64
            }
        })
        .collect()
}
