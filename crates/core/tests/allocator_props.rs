//! Property-based tests of the [`Allocator`] contract, run against every
//! built-in policy ([`AllocatorKind::ALL`]): the waterfall, the projected
//! waterfilling solver, and the fair-share solver must all
//!
//! - conserve power: `Σ budgets + returned unallocated == input budget`;
//! - honor the `cap_min` floors whenever the budget covers them (and
//!   never exceed a child's constraint);
//! - emit only finite, non-negative watts, whatever the inputs.
//!
//! The two solvers are also held to their own objectives: between the
//! floors and the upper bounds, one parameter θ places every child.
//!
//! The children are arbitrary aggregates (1–3 leaves each, mixed
//! priorities, optional node limits), so the solvers see the same shapes
//! the tree's budget-down pass feeds them.

use proptest::prelude::*;

use capmaestro_core::alloc::{AllocScratch, AllocatorKind};
use capmaestro_core::metrics::{LeafInput, PriorityMetrics};
use capmaestro_topology::Priority;
use capmaestro_units::{Ratio, Watts};

const CAP_MIN: f64 = 270.0;
const CAP_MAX: f64 = 490.0;
const EPS: f64 = 1e-6;

/// One child node: 1–3 leaves plus a limit knob. Knob values below 0.6
/// mean "no limit"; values in `[0.6, 1.2]` become a node limit of that
/// fraction of the summed cap_max (so limits bind sometimes but are
/// never absurd).
type ChildSpec = (Vec<(f64, u8)>, f64);

fn child_metrics(spec: &ChildSpec) -> PriorityMetrics {
    let (leaves, limit_knob) = spec;
    let limit_frac = (*limit_knob >= 0.6).then_some(*limit_knob);
    let leaf_metrics: Vec<PriorityMetrics> = leaves
        .iter()
        .map(|&(demand, priority)| {
            PriorityMetrics::from_leaf(&LeafInput {
                demand: Watts::new(demand),
                cap_min: Watts::new(CAP_MIN),
                cap_max: Watts::new(CAP_MAX),
                share: Ratio::ONE,
                priority: Priority(priority),
            })
        })
        .collect();
    let limit = limit_frac.map(|f| Watts::new(f * CAP_MAX * leaves.len() as f64));
    PriorityMetrics::aggregate(leaf_metrics.iter(), limit)
}

fn children_strategy(max_children: usize) -> impl Strategy<Value = Vec<ChildSpec>> {
    prop::collection::vec(
        (
            prop::collection::vec((CAP_MIN..CAP_MAX, 0u8..4), 1..4),
            0.0f64..1.2,
        ),
        1..max_children,
    )
}

/// The feasibility floor the allocators guarantee: each child's cap_min
/// sum, clamped at its constraint (a limit below the floor caps what the
/// child may ever receive).
fn clamped_floor(child: &PriorityMetrics) -> Watts {
    let cap_min: Watts = child.levels().iter().map(|(_, e)| e.cap_min).sum();
    cap_min.min(child.constraint())
}

/// A solver child's box and fill: strictly inside `(floor, ub)` the child
/// receives `offset + rate · θ` for the one θ its solver shares among all
/// children.
struct Fill {
    floor: f64,
    ub: f64,
    rate: f64,
    offset: f64,
}

/// Each solver's fill per child: `waterfilling` rises from the floor at
/// the headroom × 2^level weight, `fair_share` tracks `d · θ` (so `b/d`
/// is equal). All-zero rates fall back to equal rates, as the solvers do.
fn solver_fills(kind: AllocatorKind, children: &[PriorityMetrics]) -> Vec<Fill> {
    let mut fills: Vec<Fill> = children
        .iter()
        .map(|c| {
            let floor = clamped_floor(c).as_f64();
            let (upper, rate, offset) = match kind {
                AllocatorKind::Waterfilling => (
                    c.levels().iter().map(|(_, e)| e.request).sum(),
                    c.levels()
                        .iter()
                        .map(|(p, e)| {
                            (e.demand - e.cap_min).as_f64().max(0.0) * 2f64.powi(p.level().into())
                        })
                        .sum(),
                    floor,
                ),
                AllocatorKind::FairShare => (c.total_demand(), c.total_demand().as_f64(), 0.0),
                AllocatorKind::Waterfall => unreachable!("the waterfall is not a solver"),
            };
            let ub = upper.min(c.constraint()).as_f64().max(floor);
            Fill {
                floor,
                ub,
                rate,
                offset,
            }
        })
        .collect();
    if fills.iter().all(|f| f.rate <= 0.0) {
        fills.iter_mut().for_each(|f| f.rate = 1.0);
    }
    fills
}

proptest! {
    /// Every allocator conserves the budget exactly (to f64 rounding):
    /// what the children receive plus what the node keeps is what the
    /// node was given, and no child's grant is negative or non-finite.
    #[test]
    fn every_allocator_conserves_budget(
        specs in children_strategy(8),
        budget in 0.0f64..15_000.0,
    ) {
        let children: Vec<PriorityMetrics> = specs.iter().map(child_metrics).collect();
        let mut scratch = AllocScratch::default();
        let mut budgets = Vec::new();
        for kind in AllocatorKind::ALL {
            let allocator = kind.allocator();
            let leftover =
                allocator.split(Watts::new(budget), &children, &mut scratch, &mut budgets);
            prop_assert_eq!(budgets.len(), children.len());
            let granted: f64 = budgets.iter().map(|b| b.as_f64()).sum();
            prop_assert!(
                (granted + leftover.as_f64() - budget).abs() <= EPS,
                "{} leaks power: granted {granted} + leftover {leftover} != {budget}",
                kind.name()
            );
            prop_assert!(leftover >= Watts::ZERO, "{} negative leftover", kind.name());
        }
    }

    /// With a budget covering every clamped floor, each child receives at
    /// least its floor; no child ever exceeds its constraint — for every
    /// allocator.
    #[test]
    fn every_allocator_honors_floors_and_constraints(
        specs in children_strategy(8),
        extra in 0.0f64..6_000.0,
    ) {
        let children: Vec<PriorityMetrics> = specs.iter().map(child_metrics).collect();
        let floor_sum: f64 = children.iter().map(|c| clamped_floor(c).as_f64()).sum();
        let budget = floor_sum + extra;
        let mut scratch = AllocScratch::default();
        let mut budgets = Vec::new();
        for kind in AllocatorKind::ALL {
            let allocator = kind.allocator();
            allocator.split(Watts::new(budget), &children, &mut scratch, &mut budgets);
            for (b, c) in budgets.iter().zip(&children) {
                prop_assert!(
                    *b >= clamped_floor(c) - Watts::new(EPS),
                    "{} starves a child below its cap_min floor: {b} < {}",
                    kind.name(),
                    clamped_floor(c)
                );
                prop_assert!(
                    *b <= c.constraint() + Watts::new(EPS),
                    "{} overdrives a child past its constraint: {b} > {}",
                    kind.name(),
                    c.constraint()
                );
            }
        }
    }

    /// Even with budgets too small for the floors (the infeasible regime),
    /// every allocator stays finite, non-negative, and conservative.
    #[test]
    fn every_allocator_is_finite_on_infeasible_budgets(
        specs in children_strategy(8),
        frac in 0.0f64..1.0,
    ) {
        let children: Vec<PriorityMetrics> = specs.iter().map(child_metrics).collect();
        let floor_sum: f64 = children.iter().map(|c| clamped_floor(c).as_f64()).sum();
        let budget = floor_sum * frac; // strictly below the floors (unless 0)
        let mut scratch = AllocScratch::default();
        let mut budgets = Vec::new();
        for kind in AllocatorKind::ALL {
            let allocator = kind.allocator();
            let leftover =
                allocator.split(Watts::new(budget), &children, &mut scratch, &mut budgets);
            prop_assert!(leftover.as_f64().is_finite());
            let mut granted = 0.0;
            for b in &budgets {
                prop_assert!(
                    b.as_f64().is_finite() && *b >= Watts::ZERO,
                    "{} emitted a non-finite or negative budget: {b}",
                    kind.name()
                );
                granted += b.as_f64();
            }
            prop_assert!(
                granted + leftover.as_f64() <= budget + EPS,
                "{} overspends an infeasible budget",
                kind.name()
            );
        }
    }

    /// Scratch reuse across policies never changes a result: splitting
    /// with a shared, warm [`AllocScratch`] matches a fresh one bit for
    /// bit, in any policy order.
    #[test]
    fn scratch_reuse_is_bit_identical(
        specs in children_strategy(6),
        budget in 0.0f64..10_000.0,
    ) {
        let children: Vec<PriorityMetrics> = specs.iter().map(child_metrics).collect();
        let mut shared = AllocScratch::default();
        let mut shared_budgets = Vec::new();
        for kind in AllocatorKind::ALL.into_iter().rev() {
            let allocator = kind.allocator();
            let shared_leftover = allocator.split(
                Watts::new(budget),
                &children,
                &mut shared,
                &mut shared_budgets,
            );
            let mut fresh = AllocScratch::default();
            let mut fresh_budgets = Vec::new();
            let fresh_leftover = allocator.split(
                Watts::new(budget),
                &children,
                &mut fresh,
                &mut fresh_budgets,
            );
            prop_assert_eq!(
                shared_leftover.as_f64().to_bits(),
                fresh_leftover.as_f64().to_bits()
            );
            for (s, f) in shared_budgets.iter().zip(&fresh_budgets) {
                prop_assert_eq!(s.as_f64().to_bits(), f.as_f64().to_bits());
            }
        }
    }

    /// Between Σ floor and Σ ub (so the surplus step has nothing to hand
    /// out) each solver meets its own objective: there is one θ such that
    /// every child's budget is its fill at θ clamped into its box, to a
    /// relative 1e-9. Equivalently, children strictly inside their box
    /// share one `(b − offset)/rate` (`b/d` for `fair_share`,
    /// `(b − floor)/w` for `waterfilling`), no child at its upper bound
    /// has a larger ratio there, and no child at its floor a smaller one.
    #[test]
    fn solvers_meet_their_own_objectives(
        specs in children_strategy(8),
        frac in 0.0f64..1.25,
    ) {
        let children: Vec<PriorityMetrics> = specs.iter().map(child_metrics).collect();
        let mut scratch = AllocScratch::default();
        let mut budgets = Vec::new();
        for kind in [AllocatorKind::Waterfilling, AllocatorKind::FairShare] {
            let fills = solver_fills(kind, &children);
            let floor_sum: f64 = fills.iter().map(|f| f.floor).sum();
            let ub_sum: f64 = fills.iter().map(|f| f.ub).sum();
            // A fifth of the cases land exactly on Σ ub, the last breakpoint.
            let budget = floor_sum + frac.min(1.0) * (ub_sum - floor_sum);
            kind.allocator().split(Watts::new(budget), &children, &mut scratch, &mut budgets);

            // θ from the interior child farthest above its floor (the
            // best-conditioned ratio); with none, the largest ratio any
            // saturated child needs.
            let tol = |f: &Fill| 1e-9 * f.ub.max(1.0);
            let mut saturated = f64::NEG_INFINITY;
            let mut interior: Option<(f64, f64)> = None;
            for (b, f) in budgets.iter().map(|b| b.as_f64()).zip(&fills) {
                if f.ub - f.floor <= tol(f) {
                    continue;
                }
                if b >= f.ub - tol(f) {
                    saturated = saturated.max((f.ub - f.offset) / f.rate);
                } else if b > f.floor + tol(f) && interior.is_none_or(|(extra, _)| b - f.floor > extra) {
                    interior = Some((b - f.floor, (b - f.offset) / f.rate));
                }
            }
            let theta = interior.map_or(saturated, |(_, theta)| theta);
            for (i, (b, f)) in budgets.iter().map(|b| b.as_f64()).zip(&fills).enumerate() {
                let expected = (f.offset + f.rate * theta).clamp(f.floor, f.ub);
                prop_assert!(
                    (b - expected).abs() <= tol(f),
                    "{} child {i}: budget {b} but its fill at θ = {theta} is {expected} \
                     (box [{}, {}], budget {budget})",
                    kind.name(),
                    f.floor,
                    f.ub
                );
            }
        }
    }
}
