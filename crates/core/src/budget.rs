//! The budgeting phase: splitting a node's budget among its children
//! (paper §4.3.2).
//!
//! Given the priority-summarized metrics of each child, a shifting
//! controller distributes its own budget in four steps:
//!
//! 1. allocate every child its `P_cap_min`;
//! 2. walk priority levels from highest to lowest, granting each level's
//!    additional request (`P_request − P_cap_min`) in full while the budget
//!    lasts;
//! 3. at the first level that cannot be fully granted, split the remainder
//!    proportionally to each child's `P_demand − P_cap_min` at that level
//!    (clamped so no child exceeds its own request — a safety refinement
//!    that keeps budgets within downstream constraints);
//! 4. if budget remains after all requests, hand out the surplus up to each
//!    child's `P_constraint`.

use capmaestro_topology::Priority;
use capmaestro_units::Watts;

use crate::metrics::PriorityMetrics;

/// Result of splitting a budget among child nodes.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BudgetSplit {
    /// Budget per child, aligned with the input slice.
    pub budgets: Vec<Watts>,
    /// Budget that could not be allocated (children saturated at their
    /// constraints, or the infeasible-floor case).
    pub unallocated: Watts,
}

/// Reusable scratch buffers for `split_budget_into`, so steady-state
/// budget splits perform no heap allocation once warmed up.
#[derive(Debug, Clone, Default)]
pub struct SplitScratch {
    floors: Vec<Watts>,
    wants: Vec<Watts>,
    weights: Vec<Watts>,
    rooms: Vec<Watts>,
    grants: Vec<Watts>,
    levels: Vec<Priority>,
}

/// Distributes `amount` across children proportionally to `weights`,
/// clamping each grant at `rooms[i]` and re-distributing the clamped excess
/// until either the amount is exhausted or every room is full. Returns the
/// grants; the leftover is `amount − Σ grants`.
#[cfg(test)]
fn waterfill(amount: Watts, weights: &[Watts], rooms: &[Watts]) -> Vec<Watts> {
    let mut grants = Vec::new();
    waterfill_into(amount, weights, rooms, &mut grants);
    grants
}

/// In-place variant of [`waterfill`]: grants are written into `grants`,
/// reusing its capacity. Crate-visible so the solver allocators in
/// [`crate::alloc`] share the same clamped-fill primitive (and therefore
/// the same conservation epsilon) as the waterfall.
pub(crate) fn waterfill_into(
    amount: Watts,
    weights: &[Watts],
    rooms: &[Watts],
    grants: &mut Vec<Watts>,
) {
    debug_assert_eq!(weights.len(), rooms.len());
    let n = weights.len();
    grants.clear();
    grants.resize(n, Watts::ZERO);
    let mut remaining = amount;
    // Each pass either exhausts the remainder or permanently fills at
    // least one room, so n + 1 passes suffice.
    for _ in 0..=n {
        if remaining <= Watts::new(1e-9) {
            break;
        }
        let mut weight_sum = Watts::ZERO;
        for i in 0..n {
            if rooms[i] - grants[i] > Watts::new(1e-9) {
                weight_sum += weights[i];
            }
        }
        if weight_sum <= Watts::ZERO {
            // No weighted room left; fall back to equal split over open
            // rooms. Granting to an open room never changes another open
            // room's openness within the pass, so counting first and
            // filtering again while granting visits exactly the same set.
            let open = (0..n)
                .filter(|&i| rooms[i] - grants[i] > Watts::new(1e-9))
                .count();
            if open == 0 {
                break;
            }
            let each = remaining / open as f64;
            let mut progressed = false;
            for i in 0..n {
                let room = rooms[i] - grants[i];
                if room <= Watts::new(1e-9) {
                    continue;
                }
                let grant = each.min(room);
                if grant > Watts::ZERO {
                    grants[i] += grant;
                    remaining -= grant;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
            continue;
        }
        let mut clamped = false;
        let pass_remaining = remaining;
        for i in 0..n {
            let room = rooms[i] - grants[i];
            if room <= Watts::new(1e-9) {
                continue;
            }
            let share = pass_remaining * (weights[i] / weight_sum);
            let grant = share.min(room);
            if share > room {
                clamped = true;
            }
            grants[i] += grant;
            remaining -= grant;
        }
        if !clamped {
            break;
        }
    }
}

/// Splits `budget` among `children` following the four-step §4.3.2
/// procedure. Children are treated with whatever priority levels their
/// metrics carry (collapse them first for priority-blind policies).
///
/// If `budget` does not even cover the children's combined `P_cap_min` —
/// an infeasible deployment the paper excludes by construction — the floors
/// themselves are scaled proportionally so the split remains total.
#[cfg(test)]
pub(crate) fn split_budget(budget: Watts, children: &[PriorityMetrics]) -> BudgetSplit {
    let mut scratch = SplitScratch::default();
    let mut budgets = Vec::new();
    let unallocated = split_budget_into(budget, children, &mut scratch, &mut budgets);
    BudgetSplit {
        budgets,
        unallocated,
    }
}

/// In-place variant of [`split_budget`]: writes per-child budgets into
/// `budgets` (aligned with `children`) using `scratch` for every
/// intermediate vector, and returns the unallocated remainder. Performs no
/// heap allocation once the scratch buffers are warm.
pub(crate) fn split_budget_into(
    budget: Watts,
    children: &[PriorityMetrics],
    scratch: &mut SplitScratch,
    budgets: &mut Vec<Watts>,
) -> Watts {
    let SplitScratch {
        floors,
        wants,
        weights,
        rooms,
        grants,
        levels,
    } = scratch;
    budgets.clear();
    if children.is_empty() {
        return budget;
    }
    // Every per-child lane is sized now, not by the first split that takes
    // the step using it: a split that first binds after a warm run of ones
    // that did not allocates nothing.
    for lane in [&mut *floors, wants, weights, rooms, grants] {
        lane.clear();
        lane.reserve(children.len());
    }

    // Step 1: cap_min floors. A floor is additionally clamped at the
    // child's constraint — if a subtree's Σ cap_min exceeds its own power
    // limit the deployment is infeasible (excluded by construction in the
    // paper), but the allocator must still never assign a budget above a
    // limit.
    floors.extend(
        children
            .iter()
            .map(|c| c.total_cap_min().min(c.constraint())),
    );
    let floor_sum: Watts = floors.iter().sum();
    if budget < floor_sum {
        // Infeasible budget: scale floors proportionally (degenerate
        // fallback).
        let scale = if floor_sum > Watts::ZERO {
            budget / floor_sum
        } else {
            0.0
        };
        budgets.extend(floors.iter().map(|f| *f * scale));
        return Watts::ZERO;
    }
    budgets.extend_from_slice(floors);
    let mut remaining = budget - floor_sum;

    // The union of priority levels, descending.
    levels.clear();
    levels.extend(
        children
            .iter()
            .flat_map(|c| c.levels().iter().map(|(p, _)| *p)),
    );
    levels.sort_unstable_by(|a, b| b.cmp(a));
    levels.dedup();

    // Step 2 (+3 on the first level that does not fit). Wants are clamped
    // at the child's remaining constraint headroom so no grant can push a
    // child past its limit, even in infeasible corner cases.
    let mut all_requests_met = true;
    for &level in levels.iter() {
        wants.clear();
        wants.extend(children.iter().zip(budgets.iter()).map(|(c, b)| {
            let want = c
                .level(level)
                .map(|e| e.request.saturating_sub(e.cap_min))
                .unwrap_or(Watts::ZERO);
            want.min(c.constraint().saturating_sub(*b))
        }));
        let want_sum: Watts = wants.iter().sum();
        if want_sum <= Watts::ZERO {
            continue;
        }
        if remaining >= want_sum {
            for (b, w) in budgets.iter_mut().zip(wants.iter()) {
                *b += *w;
            }
            remaining -= want_sum;
        } else {
            // Step 3: proportional to demand − cap_min at this level,
            // clamped at each child's request.
            weights.clear();
            weights.extend(children.iter().map(|c| {
                c.level(level)
                    .map(|e| e.demand.saturating_sub(e.cap_min))
                    .unwrap_or(Watts::ZERO)
            }));
            waterfill_into(remaining, weights, wants, grants);
            for (b, g) in budgets.iter_mut().zip(grants.iter()) {
                *b += *g;
            }
            remaining = Watts::ZERO;
            all_requests_met = false;
            break;
        }
    }

    // Step 4: surplus up to each child's constraint.
    if all_requests_met && remaining > Watts::ZERO {
        rooms.clear();
        rooms.extend(
            children
                .iter()
                .zip(budgets.iter())
                .map(|(c, b)| c.constraint().saturating_sub(*b)),
        );
        waterfill_into(remaining, rooms, rooms, grants);
        for (b, g) in budgets.iter_mut().zip(grants.iter()) {
            *b += *g;
        }
        let granted: Watts = grants.iter().sum();
        remaining -= granted;
    }

    remaining
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LeafInput;
    use capmaestro_units::Ratio;
    use proptest::prelude::*;

    const CAP_MIN: f64 = 270.0;
    const EPS: f64 = 1e-6;

    /// A strategy for a set of leaf (demand, priority) pairs.
    fn leaves_strategy(max: usize) -> impl Strategy<Value = Vec<(f64, u8)>> {
        prop::collection::vec((CAP_MIN..490.0, 0u8..4), 1..max)
    }

    proptest! {
        /// split_budget conserves power for arbitrary children and budgets.
        #[test]
        fn split_budget_conserves(
            leaves in leaves_strategy(12),
            budget in 0.0f64..12_000.0,
        ) {
            let children: Vec<PriorityMetrics> = leaves
                .iter()
                .map(|&(d, p)| leaf(d, Priority(p)))
                .collect();
            let split = split_budget(Watts::new(budget), &children);
            let total: Watts = split.budgets.iter().sum();
            prop_assert!(total + split.unallocated <= Watts::new(budget + EPS));
            prop_assert!(total + split.unallocated >= Watts::new(budget - EPS));
            for b in &split.budgets {
                prop_assert!(*b >= Watts::ZERO);
            }
        }

        /// With a feasible budget, every child receives at least its cap_min
        /// and never more than its constraint.
        #[test]
        fn split_budget_floor_and_ceiling(
            leaves in leaves_strategy(10),
            extra in 0.0f64..5_000.0,
        ) {
            let children: Vec<PriorityMetrics> = leaves
                .iter()
                .map(|&(d, p)| leaf(d, Priority(p)))
                .collect();
            let floor: f64 = leaves.len() as f64 * CAP_MIN;
            let split = split_budget(Watts::new(floor + extra), &children);
            for (b, c) in split.budgets.iter().zip(&children) {
                prop_assert!(*b >= c.total_cap_min() - Watts::new(EPS));
                prop_assert!(*b <= c.constraint() + Watts::new(EPS));
            }
        }
    }

    fn leaf(demand: f64, priority: Priority) -> PriorityMetrics {
        PriorityMetrics::from_leaf(&LeafInput {
            demand: Watts::new(demand),
            cap_min: Watts::new(270.0),
            cap_max: Watts::new(490.0),
            share: Ratio::ONE,
            priority,
        })
    }

    #[test]
    fn empty_children_returns_budget_unallocated() {
        let split = split_budget(Watts::new(100.0), &[]);
        assert!(split.budgets.is_empty());
        assert_eq!(split.unallocated, Watts::new(100.0));
    }

    #[test]
    fn fig2_left_cb_split() {
        // Left CB receives 700 W for SA(high, 430) + SB(low, 430):
        // SA gets its full demand, SB gets cap_min.
        let children = vec![leaf(430.0, Priority::HIGH), leaf(430.0, Priority::LOW)];
        let split = split_budget(Watts::new(700.0), &children);
        assert_eq!(split.budgets, vec![Watts::new(430.0), Watts::new(270.0)]);
        assert_eq!(split.unallocated, Watts::ZERO);
    }

    #[test]
    fn step3_proportional_on_partial_level() {
        // Two equal low-priority servers, budget covers floors + 80 W:
        // split 40/40 (equal demands).
        let children = vec![leaf(430.0, Priority::LOW), leaf(430.0, Priority::LOW)];
        let split = split_budget(Watts::new(620.0), &children);
        assert_eq!(split.budgets, vec![Watts::new(310.0), Watts::new(310.0)]);
    }

    #[test]
    fn step3_weights_by_dynamic_demand() {
        // Unequal demands: remaining 90 W splits 2:1.
        let children = vec![leaf(470.0, Priority::LOW), leaf(370.0, Priority::LOW)];
        let split = split_budget(Watts::new(630.0), &children);
        assert!(split.budgets[0].approx_eq(Watts::new(330.0), Watts::new(1e-6)));
        assert!(split.budgets[1].approx_eq(Watts::new(300.0), Watts::new(1e-6)));
    }

    #[test]
    fn priority_descent_covers_higher_levels_first() {
        // Three levels; budget only covers the top level's extra request.
        let children = vec![
            leaf(430.0, Priority(2)),
            leaf(430.0, Priority(1)),
            leaf(430.0, Priority(0)),
        ];
        // Floors 810; +160 exactly the P2 extra.
        let split = split_budget(Watts::new(970.0), &children);
        assert_eq!(
            split.budgets,
            vec![Watts::new(430.0), Watts::new(270.0), Watts::new(270.0)]
        );
    }

    #[test]
    fn step4_surplus_up_to_constraint() {
        // Budget exceeds all demands: surplus flows up to cap_max.
        let children = vec![leaf(300.0, Priority::LOW), leaf(300.0, Priority::LOW)];
        let split = split_budget(Watts::new(1200.0), &children);
        // Requests are 300 + 300; surplus 600 splits to constraints (490).
        assert_eq!(split.budgets, vec![Watts::new(490.0), Watts::new(490.0)]);
        assert!(split.unallocated.approx_eq(Watts::new(220.0), Watts::new(1e-6)));
    }

    #[test]
    fn infeasible_budget_scales_floors() {
        let children = vec![leaf(430.0, Priority::LOW), leaf(430.0, Priority::LOW)];
        let split = split_budget(Watts::new(270.0), &children);
        assert_eq!(split.budgets, vec![Watts::new(135.0), Watts::new(135.0)]);
        assert_eq!(split.unallocated, Watts::ZERO);
    }

    #[test]
    fn conservation_of_power() {
        // Whatever the inputs, Σ budgets + unallocated == budget.
        let children = vec![
            leaf(430.0, Priority(3)),
            leaf(350.0, Priority(1)),
            leaf(490.0, Priority(0)),
            leaf(280.0, Priority(1)),
        ];
        for budget in [900.0, 1100.0, 1400.0, 2500.0] {
            let split = split_budget(Watts::new(budget), &children);
            let total: Watts = split.budgets.iter().sum();
            assert!(
                (total + split.unallocated).approx_eq(Watts::new(budget), Watts::new(1e-6)),
                "budget {budget} not conserved"
            );
        }
    }

    #[test]
    fn budgets_never_exceed_constraints() {
        let children = vec![leaf(490.0, Priority(1)), leaf(490.0, Priority(0))];
        let split = split_budget(Watts::new(5000.0), &children);
        for (b, c) in split.budgets.iter().zip(&children) {
            assert!(*b <= c.constraint() + Watts::new(1e-6));
        }
    }

    #[test]
    fn step4_surplus_conserves_with_zero_rooms() {
        // Step 4 weights surplus by the rooms themselves; children already
        // at their constraint contribute zero weight AND zero room. The
        // waterfill must route the whole surplus through the remaining open
        // rooms (or report it unallocated) without losing a single watt.
        let children = vec![
            // Saturated child: demand at cap_max, so after step 2 its
            // constraint headroom (room) is exactly zero.
            leaf(490.0, Priority::LOW),
            // Open child: 190 W of headroom above its demand.
            leaf(300.0, Priority::LOW),
        ];
        let budget = 1500.0;
        let split = split_budget(Watts::new(budget), &children);
        let total: Watts = split.budgets.iter().sum();
        assert!(
            (total + split.unallocated).approx_eq(Watts::new(budget), Watts::new(1e-6)),
            "step-4 surplus lost: budgets {total} + unallocated {}",
            split.unallocated
        );
        // Both children end at their constraints; the rest is unallocated.
        assert_eq!(split.budgets, vec![Watts::new(490.0), Watts::new(490.0)]);
        assert!(split.unallocated.approx_eq(Watts::new(520.0), Watts::new(1e-6)));
    }

    #[test]
    fn waterfill_respects_rooms() {
        let weights = vec![Watts::new(300.0), Watts::new(300.0)];
        let rooms = vec![Watts::new(10.0), Watts::new(300.0)];
        let grants = waterfill(Watts::new(200.0), &weights, &rooms);
        assert!(grants[0].approx_eq(Watts::new(10.0), Watts::new(1e-6)));
        assert!(grants[1].approx_eq(Watts::new(190.0), Watts::new(1e-6)));
    }

    #[test]
    fn waterfill_zero_weights_falls_back_to_equal() {
        let weights = vec![Watts::ZERO, Watts::ZERO];
        let rooms = vec![Watts::new(50.0), Watts::new(100.0)];
        let grants = waterfill(Watts::new(60.0), &weights, &rooms);
        let total: Watts = grants.iter().sum();
        assert!(total.approx_eq(Watts::new(60.0), Watts::new(1e-6)));
        assert!(grants[0] <= Watts::new(50.0) + Watts::new(1e-9));
    }

    #[test]
    fn waterfill_leftover_when_rooms_fill() {
        let weights = vec![Watts::new(1.0)];
        let rooms = vec![Watts::new(30.0)];
        let grants = waterfill(Watts::new(100.0), &weights, &rooms);
        assert!(grants[0].approx_eq(Watts::new(30.0), Watts::new(1e-6)));
    }

    #[test]
    fn mixed_levels_with_missing_entries() {
        // Child A has only priority 1, child B only priority 0; the level
        // walk must handle children that lack a level.
        let children = vec![leaf(430.0, Priority(1)), leaf(430.0, Priority(0))];
        let split = split_budget(Watts::new(700.0), &children);
        assert_eq!(split.budgets[0], Watts::new(430.0));
        assert_eq!(split.budgets[1], Watts::new(270.0));
    }
}
