//! The allocator seam: pluggable per-node budget-split policies.
//!
//! CapMaestro's §4.3.2 waterfall is one way to divide a node's budget among
//! its children; nvPAX-style solvers and FastCap-style fairness objectives
//! are others. [`Allocator`] is the object-safe seam the budget-down pass
//! calls at every internal node: it receives the gathered
//! [`PriorityMetrics`] of the children, the node's budget, and reusable
//! scratch, and writes one budget per child. Three implementations ship:
//!
//! - [`WaterfallAllocator`] — the paper's four-step waterfall, delegating
//!   verbatim to `split_budget_into` (bit-identical to the pre-seam
//!   plane by construction, and proven so by the differential suite);
//! - [`WaterfillingAllocator`] — projected waterfilling in the nvPAX
//!   spirit: one water level rises under per-child box constraints
//!   `[cap_min, min(request, constraint)]`, with priority-derived weights
//!   so higher-priority demand fills exponentially faster;
//! - [`FairShareAllocator`] — a FastCap-style fairness objective: equalize
//!   the normalized throughput loss `1 − b_i/d_i` across children, floored
//!   at `cap_min` and capped at the constraint (priority-blind by design).
//!
//! Both solvers are exact: one sorted sweep over at most `2n` ramp
//! breakpoints finds their single parameter in closed form.
//!
//! Every allocator must uphold the same contract (enforced by the
//! property suite in `crates/core/tests/allocator_props.rs`): budgets are
//! finite and non-negative, no child exceeds its constraint, feasible
//! budgets cover every child's `cap_min` floor, infeasible budgets scale
//! the floors proportionally, and `Σ budgets + returned unallocated`
//! equals the input budget. All three are allocation-free once the shared
//! [`AllocScratch`] is warm, preserving the round pipeline's
//! zero-allocation discipline.

#![deny(clippy::missing_docs_in_private_items)]

use core::fmt;
use core::str::FromStr;

use capmaestro_units::Watts;

use crate::budget::{split_budget_into, waterfill_into, SplitScratch};
use crate::metrics::PriorityMetrics;

/// An object-safe budget-split policy: one call divides a node's budget
/// among its children.
///
/// Implementations must be pure functions of `(budget, children)` — the
/// control plane caches and reuses them across rounds and trees — and must
/// not allocate once `scratch` and `budgets` are warm.
pub trait Allocator: Send + Sync {
    /// Stable identifier (also the CLI / config spelling); two allocators
    /// must never share a name.
    fn name(&self) -> &'static str;

    /// Splits `budget` among `children`, writing one budget per child into
    /// `budgets` (aligned with `children`) and returning the unallocated
    /// remainder. `children` empty ⇒ `budgets` empty and the whole budget
    /// is returned.
    fn split(
        &self,
        budget: Watts,
        children: &[PriorityMetrics],
        scratch: &mut AllocScratch,
        budgets: &mut Vec<Watts>,
    ) -> Watts;
}

/// Reusable scratch for any [`Allocator`]: the waterfall's
/// [`SplitScratch`] plus the solver allocators' working vectors.
/// One instance serves every policy, so swapping allocators between
/// rounds costs no allocation churn beyond the first warm-up.
#[derive(Debug, Clone, Default)]
pub struct AllocScratch {
    /// The §4.3.2 waterfall's own scratch buffers.
    split: SplitScratch,
    /// Per-child lower bounds (cap_min clamped at the constraint), raw watts.
    floors: Vec<f64>,
    /// Per-child grant above the floor as a function of the solver's θ.
    ramps: Vec<Ramp>,
    /// The ramps' breakpoints `(θ, slope change)`, sorted by the sweep.
    breakpoints: Vec<(f64, f64)>,
    /// Remaining per-child constraint room for the step-4 surplus fill.
    rooms: Vec<Watts>,
    /// Grant output buffer for the step-4 surplus fill.
    grants: Vec<Watts>,
}

/// The paper's §4.3.2 waterfall behind the seam: floors, priority descent,
/// proportional fill at the first partial level, surplus to constraints.
/// Delegates verbatim to `split_budget_into`, so its output is
/// bit-identical to the pre-seam budget-down pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct WaterfallAllocator;

impl Allocator for WaterfallAllocator {
    fn name(&self) -> &'static str {
        "waterfall"
    }

    fn split(
        &self,
        budget: Watts,
        children: &[PriorityMetrics],
        scratch: &mut AllocScratch,
        budgets: &mut Vec<Watts>,
    ) -> Watts {
        split_budget_into(budget, children, &mut scratch.split, budgets)
    }
}

/// Projected waterfilling in the nvPAX spirit: a single water level θ
/// rises simultaneously for every child, each filling at a
/// priority-derived rate inside its box `[floor, min(request,
/// constraint)]`. Children at the same priority with equal headroom fill
/// identically; each priority level above doubles the fill rate, so
/// scarce budget concentrates on high-priority demand without the
/// waterfall's strict level-by-level descent (a level that cannot be
/// fully granted still shares with the levels below it).
///
/// Child `i` receives `floor_i + clamp(w_i · θ, 0, ub_i − floor_i)`, with
/// `w_i` its headroom above `cap_min` weighted `2^level` per level
/// (all-zero weights fall back to equal rates); θ is solved exactly by
/// the breakpoint sweep described on [`FairShareAllocator`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WaterfillingAllocator;

impl Allocator for WaterfillingAllocator {
    fn name(&self) -> &'static str {
        "waterfilling"
    }

    fn split(
        &self,
        budget: Watts,
        children: &[PriorityMetrics],
        scratch: &mut AllocScratch,
        budgets: &mut Vec<Watts>,
    ) -> Watts {
        solve_ramps(Fill::Waterfilling, budget, children, scratch, budgets)
    }
}

/// FastCap-style fairness: find one normalized loss λ so every child runs
/// at `b_i = d_i · (1 − λ)`, clamped into `[floor_i, min(d_i,
/// constraint_i)]` — children shed throughput in equal proportion to
/// their demand rather than by priority (priority-blind by design; racing
/// it against the waterfall quantifies what priority ordering costs in
/// fairness and vice versa).
///
/// Exact solve, shared with [`WaterfillingAllocator`]: each child's grant
/// above its floor is a clamped-linear ramp in one parameter θ (here
/// `1 − λ`), so the total is piecewise linear with at most `2n`
/// breakpoints. One sorted sweep finds the segment that meets the budget
/// and solves it in closed form — no iteration count, no tolerance, no
/// residual top-off. Budget beyond every upper bound then fills toward
/// the constraints like the waterfall's step 4.
#[derive(Debug, Clone, Copy, Default)]
pub struct FairShareAllocator;

impl Allocator for FairShareAllocator {
    fn name(&self) -> &'static str {
        "fair_share"
    }

    fn split(
        &self,
        budget: Watts,
        children: &[PriorityMetrics],
        scratch: &mut AllocScratch,
        budgets: &mut Vec<Watts>,
    ) -> Watts {
        solve_ramps(Fill::FairShare, budget, children, scratch, budgets)
    }
}

/// Which solver objective [`solve_ramps`] fills.
#[derive(Debug, Clone, Copy)]
enum Fill {
    /// [`WaterfillingAllocator`]: every ramp starts at θ = 0.
    Waterfilling,
    /// [`FairShareAllocator`]: a ramp starts where `d_i · θ` passes the floor.
    FairShare,
}

/// One child's grant above its floor as a function of the solver's θ:
/// `slope · (clamp(θ, start, end) − start)`, rising from 0 at `start` to
/// the whole `room` at `end`. The default ramp is flat at 0.
#[derive(Debug, Clone, Copy, Default)]
struct Ramp {
    /// Watts per unit of θ while rising.
    slope: f64,
    /// θ where the grant leaves 0.
    start: f64,
    /// θ where the grant reaches `room`.
    end: f64,
    /// `ub − floor`: the whole grant once saturated.
    room: f64,
}

impl Ramp {
    /// The grant at `theta`; exactly `room` from `end` on.
    fn grant(&self, theta: f64) -> f64 {
        if theta >= self.end {
            self.room
        } else {
            (self.slope * (theta - self.start)).clamp(0.0, self.room)
        }
    }
}

/// The shared solver: floors first (scaled proportionally when the budget
/// cannot cover them), then every child's ramp at the exact θ where the
/// ramps' total meets the budget left above the floors, then step-4-style
/// surplus toward each child's constraint. Returns the unallocated
/// remainder.
fn solve_ramps(
    fill: Fill,
    budget: Watts,
    children: &[PriorityMetrics],
    scratch: &mut AllocScratch,
    budgets: &mut Vec<Watts>,
) -> Watts {
    budgets.clear();
    if children.is_empty() {
        return budget;
    }
    let AllocScratch {
        floors,
        ramps,
        breakpoints,
        rooms,
        grants,
        ..
    } = scratch;
    floors.clear();
    floors.extend(
        children
            .iter()
            .map(|c| c.total_cap_min().min(c.constraint()).as_f64()),
    );
    let floor_sum: f64 = floors.iter().sum();

    // Infeasible budget: scale floors proportionally (the waterfall's
    // degenerate fallback, kept so every policy conserves identically).
    if budget.as_f64() < floor_sum {
        let scale = if floor_sum > 0.0 {
            budget.as_f64() / floor_sum
        } else {
            0.0
        };
        budgets.extend(floors.iter().map(|&f| Watts::new(f * scale)));
        return Watts::ZERO;
    }

    budgets.extend(floors.iter().map(|&f| Watts::new(f)));
    let mut remaining = budget - Watts::new(floor_sum);

    // Upper bound `min(upper, constraint)` and slope per child: the
    // request at priority-weighted headroom, or the demand at its own rate.
    ramps.clear();
    ramps.extend(children.iter().zip(floors.iter()).map(|(c, &floor)| {
        let (upper, slope) = match fill {
            Fill::Waterfilling => (
                c.total_request(),
                c.levels()
                    .iter()
                    .map(|(p, e)| {
                        let headroom = e.demand.saturating_sub(e.cap_min).as_f64();
                        headroom * 2.0f64.powi(i32::from(p.level()))
                    })
                    .sum(),
            ),
            Fill::FairShare => (c.total_demand(), c.total_demand().as_f64()),
        };
        // A decoded summary may carry weights that overflow; keep them finite.
        let slope = slope.min(f64::MAX);
        let room = upper.min(c.constraint()).as_f64().max(floor) - floor;
        Ramp {
            slope,
            room,
            ..Ramp::default()
        }
    }));
    // All-zero slopes degrade to equal rates.
    let uniform = ramps.iter().all(|r| r.slope <= 0.0);
    breakpoints.clear();
    for (ramp, &floor) in ramps.iter_mut().zip(floors.iter()) {
        if uniform {
            ramp.slope = 1.0;
        }
        if ramp.slope <= 0.0 || ramp.room <= 0.0 {
            *ramp = Ramp::default();
            continue;
        }
        ramp.start = match fill {
            Fill::Waterfilling => 0.0,
            Fill::FairShare => floor / ramp.slope,
        };
        ramp.end = ramp.start + ramp.room / ramp.slope;
        breakpoints.extend([(ramp.start, ramp.slope), (ramp.end, -ramp.slope)]);
    }

    let target = remaining.as_f64().min(ramps.iter().map(|r| r.room).sum());
    if target > 0.0 {
        let theta = sweep(breakpoints, target);
        for (b, ramp) in budgets.iter_mut().zip(ramps.iter()) {
            let extra = Watts::new(ramp.grant(theta));
            *b += extra;
            remaining -= extra;
        }
    }

    // Surplus beyond every child's upper bound: fill toward constraints,
    // exactly like the waterfall's step 4.
    if remaining > Watts::ZERO {
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
            remaining -= *g;
        }
    }

    remaining.max(Watts::ZERO)
}

/// The smallest θ at which the ramps' total grant reaches `target > 0`:
/// sorts the breakpoints `(θ, slope change)`, walks the piecewise-linear
/// total one segment at a time, and solves the crossing segment in closed
/// form. +∞ when every ramp saturates first; the current breakpoint when
/// the running rate overflows, so the caller never over-grants.
fn sweep(breakpoints: &mut [(f64, f64)], target: f64) -> f64 {
    breakpoints.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let (mut at, mut total) = (0.0f64, 0.0f64);
    // The running slope is a compensated (two-sum) total, so a 2^255-rate
    // ramp ending does not swallow a 2^0-rate ramp still rising.
    let (mut rate, mut carry) = (0.0f64, 0.0f64);
    for &(theta, delta) in breakpoints.iter() {
        let slope = rate + carry;
        if !slope.is_finite() {
            return at;
        }
        let next = total + slope * (theta - at);
        if next >= target {
            return at + (target - total) / slope;
        }
        (at, total) = (theta, next);
        let sum = rate + delta;
        carry += if rate.abs() >= delta.abs() {
            (rate - sum) + delta
        } else {
            (delta - sum) + rate
        };
        rate = sum;
    }
    f64::INFINITY
}

/// The built-in allocators, selectable by name from configuration, the
/// daemon CLI, and the policy-arena bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocatorKind {
    /// The paper's §4.3.2 waterfall ([`WaterfallAllocator`]) — the default.
    #[default]
    Waterfall,
    /// Priority-weighted projected waterfilling
    /// ([`WaterfillingAllocator`]).
    Waterfilling,
    /// FastCap-style normalized-loss fairness ([`FairShareAllocator`]).
    FairShare,
}

impl AllocatorKind {
    /// Every built-in allocator, in presentation order.
    pub const ALL: [AllocatorKind; 3] = [
        AllocatorKind::Waterfall,
        AllocatorKind::Waterfilling,
        AllocatorKind::FairShare,
    ];

    /// The stable name — matches [`Allocator::name`] of the boxed
    /// implementation and the accepted CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            AllocatorKind::Waterfall => "waterfall",
            AllocatorKind::Waterfilling => "waterfilling",
            AllocatorKind::FairShare => "fair_share",
        }
    }

    /// Boxes the implementation. Every implementation is a zero-sized
    /// type, so the box allocates nothing and the control plane calls this
    /// every round.
    pub fn allocator(self) -> Box<dyn Allocator> {
        match self {
            AllocatorKind::Waterfall => Box::new(WaterfallAllocator),
            AllocatorKind::Waterfilling => Box::new(WaterfillingAllocator),
            AllocatorKind::FairShare => Box::new(FairShareAllocator),
        }
    }
}

impl fmt::Display for AllocatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An unknown allocator name, carrying the offending input; its `Display`
/// lists the valid spellings so CLI errors are self-explanatory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAllocator(pub String);

impl fmt::Display for UnknownAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown allocator policy {:?}; valid policies: waterfall, waterfilling, fair_share",
            self.0
        )
    }
}

impl std::error::Error for UnknownAllocator {}

impl FromStr for AllocatorKind {
    type Err = UnknownAllocator;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AllocatorKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| UnknownAllocator(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::split_budget;
    use crate::metrics::{LeafInput, MetricEntry};
    use capmaestro_topology::Priority;
    use capmaestro_units::Ratio;
    use AllocatorKind::{FairShare, Waterfilling};

    /// A leaf summary with the rig's standard controllable range.
    fn leaf(demand: f64, priority: Priority) -> PriorityMetrics {
        PriorityMetrics::from_leaf(&LeafInput {
            demand: Watts::new(demand),
            cap_min: Watts::new(270.0),
            cap_max: Watts::new(490.0),
            share: Ratio::ONE,
            priority,
        })
    }

    /// A one-level summary from raw parts, for shapes no leaf produces.
    fn raw(cap_min: f64, demand: f64, request: f64, constraint: f64) -> PriorityMetrics {
        let entry = MetricEntry {
            cap_min: Watts::new(cap_min),
            demand: Watts::new(demand),
            request: Watts::new(request),
        };
        PriorityMetrics::from_raw_parts(vec![(Priority::LOW, entry)], Watts::new(constraint))
            .expect("valid raw summary")
    }

    /// Runs one allocator on fresh scratch and returns (budgets, leftover).
    fn run(
        alloc: &dyn Allocator,
        budget: f64,
        children: &[PriorityMetrics],
    ) -> (Vec<Watts>, Watts) {
        let mut scratch = AllocScratch::default();
        let mut budgets = Vec::new();
        let leftover = alloc.split(Watts::new(budget), children, &mut scratch, &mut budgets);
        (budgets, leftover)
    }

    /// Runs `kind` and asserts each budget, then the leftover (the last
    /// `expected` entry), within 1e-9 W.
    fn check(kind: AllocatorKind, budget: f64, children: &[PriorityMetrics], expected: &[f64]) {
        let (budgets, leftover) = run(kind.allocator().as_ref(), budget, children);
        assert_eq!(budgets.len() + 1, expected.len());
        for (b, e) in budgets.iter().chain([&leftover]).zip(expected) {
            let msg = format!("{kind}: {budgets:?} + {leftover}");
            assert!(b.approx_eq(Watts::new(*e), Watts::new(1e-9)), "{msg}");
        }
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in AllocatorKind::ALL {
            assert_eq!(kind.name().parse::<AllocatorKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
            assert_eq!(kind.allocator().name(), kind.name());
        }
    }

    #[test]
    fn unknown_name_lists_valid_policies() {
        let err = "nope".parse::<AllocatorKind>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("nope"), "{msg}");
        for kind in AllocatorKind::ALL {
            assert!(msg.contains(kind.name()), "{msg} missing {}", kind.name());
        }
    }

    #[test]
    fn waterfall_is_bit_identical_to_split_budget() {
        let children = vec![
            leaf(430.0, Priority(3)),
            leaf(350.0, Priority(1)),
            leaf(490.0, Priority(0)),
            leaf(280.0, Priority(1)),
        ];
        for budget in [200.0, 900.0, 1100.0, 1400.0, 2500.0] {
            let reference = split_budget(Watts::new(budget), &children);
            let (budgets, leftover) = run(&WaterfallAllocator, budget, &children);
            for (a, b) in budgets.iter().zip(reference.budgets.iter()) {
                assert_eq!(a.as_f64().to_bits(), b.as_f64().to_bits());
            }
            assert_eq!(
                leftover.as_f64().to_bits(),
                reference.unallocated.as_f64().to_bits()
            );
        }
    }

    #[test]
    fn all_allocators_handle_empty_children() {
        for kind in AllocatorKind::ALL {
            let (budgets, leftover) = run(kind.allocator().as_ref(), 500.0, &[]);
            assert!(budgets.is_empty());
            assert_eq!(leftover, Watts::new(500.0));
        }
    }

    #[test]
    fn waterfilling_favors_higher_priority_under_scarcity() {
        let children = vec![leaf(470.0, Priority::HIGH), leaf(470.0, Priority::LOW)];
        // Floors 540, +100 W of contested headroom: the high-priority
        // child's doubled fill rate takes two thirds of it.
        let expected = [270.0 + 200.0 / 3.0, 270.0 + 100.0 / 3.0, 0.0];
        check(Waterfilling, 640.0, &children, &expected);
    }

    #[test]
    fn waterfilling_shares_within_a_level_by_headroom() {
        // Same priority, demands 470 vs 370 ⇒ headrooms 200 vs 100; the
        // extra 90 W splits 2:1.
        let children = vec![leaf(470.0, Priority::LOW), leaf(370.0, Priority::LOW)];
        check(Waterfilling, 630.0, &children, &[330.0, 300.0, 0.0]);
    }

    #[test]
    fn fair_share_equalizes_normalized_loss() {
        // Demands 480 and 400, budget 770: the unclamped fair point is
        // t = 770/880 = 0.875 ⇒ budgets 420/350, both inside their boxes,
        // with equal normalized loss 0.125. Priority-blind: the HIGH child
        // sheds proportionally too.
        let children = vec![leaf(480.0, Priority::LOW), leaf(400.0, Priority::HIGH)];
        check(FairShare, 770.0, &children, &[420.0, 350.0, 0.0]);
    }

    #[test]
    fn solvers_conserve_and_respect_boxes() {
        let children = vec![
            leaf(430.0, Priority(3)),
            leaf(350.0, Priority(1)),
            leaf(490.0, Priority(0)),
            leaf(280.0, Priority(1)),
        ];
        for kind in AllocatorKind::ALL {
            let alloc = kind.allocator();
            for budget in [100.0, 900.0, 1100.0, 1400.0, 2500.0] {
                let (budgets, leftover) = run(alloc.as_ref(), budget, &children);
                assert_eq!(budgets.len(), children.len());
                let total: Watts = budgets.iter().sum();
                assert!(
                    (total + leftover).approx_eq(Watts::new(budget), Watts::new(1e-6)),
                    "{kind}: budget {budget} not conserved (Σ {total} + {leftover})"
                );
                for (b, c) in budgets.iter().zip(children.iter()) {
                    assert!(b.as_f64().is_finite());
                    assert!(*b >= Watts::ZERO);
                    assert!(
                        *b <= c.constraint() + Watts::new(1e-6),
                        "{kind}: {b} over constraint {}",
                        c.constraint()
                    );
                }
            }
        }
    }

    #[test]
    fn solvers_scale_floors_when_infeasible() {
        let children = vec![leaf(430.0, Priority::LOW), leaf(430.0, Priority::LOW)];
        for kind in AllocatorKind::ALL {
            check(kind, 270.0, &children, &[135.0, 135.0, 0.0]);
            // The remainder of an infeasible budget is exactly zero.
            let (_, leftover) = run(kind.allocator().as_ref(), 270.0, &children);
            assert_eq!(leftover, Watts::ZERO);
        }
    }

    #[test]
    fn solvers_route_surplus_to_constraints() {
        let children = vec![leaf(300.0, Priority::LOW), leaf(300.0, Priority::LOW)];
        for kind in AllocatorKind::ALL {
            check(kind, 1200.0, &children, &[490.0, 490.0, 220.0]);
        }
    }

    #[test]
    fn allocators_reuse_scratch_across_policy_switches() {
        // One scratch serves every policy back to back — the plane swaps
        // allocators between rounds without rebuilding its round context.
        let children = vec![leaf(430.0, Priority::HIGH), leaf(430.0, Priority::LOW)];
        let mut scratch = AllocScratch::default();
        let mut budgets = Vec::new();
        for _ in 0..3 {
            for kind in AllocatorKind::ALL {
                let leftover = kind.allocator().split(
                    Watts::new(700.0),
                    &children,
                    &mut scratch,
                    &mut budgets,
                );
                let total: Watts = budgets.iter().sum();
                assert!((total + leftover).approx_eq(Watts::new(700.0), Watts::new(1e-6)));
            }
        }
    }

    #[test]
    fn single_child_takes_the_budget_up_to_its_constraint() {
        let children = [leaf(430.0, Priority::HIGH)];
        for kind in AllocatorKind::ALL {
            for budget in [200.0f64, 270.0, 400.0, 460.0, 700.0] {
                let granted = budget.min(490.0);
                check(kind, budget, &children, &[granted, budget - granted]);
            }
        }
    }

    #[test]
    fn solvers_fall_back_to_equal_rates_when_every_weight_is_zero() {
        // Requests above demand (only a decoded summary carries them) give
        // room but zero headroom weight: both children fill at one rate,
        // so the 100 W above the floors splits 70 / 30 once the 30 W room
        // saturates.
        let children = [
            raw(270.0, 270.0, 400.0, 490.0),
            raw(270.0, 270.0, 300.0, 490.0),
        ];
        check(Waterfilling, 640.0, &children, &[340.0, 300.0, 0.0]);
        // All-zero demand: no room below demand, so everything above the
        // floors is step-4 surplus, split by constraint room (220 : 120).
        let children = [raw(270.0, 0.0, 0.0, 490.0), raw(270.0, 0.0, 0.0, 390.0)];
        let expected = [270.0 + 2200.0 / 34.0, 270.0 + 1200.0 / 34.0, 0.0];
        check(FairShare, 640.0, &children, &expected);
    }

    #[test]
    fn fair_share_holds_a_zero_demand_child_at_its_floor() {
        let children = [leaf(400.0, Priority::LOW), raw(0.0, 0.0, 0.0, 100.0)];
        check(FairShare, 350.0, &children, &[350.0, 0.0, 0.0]);
    }

    #[test]
    fn solvers_end_exactly_on_the_floor_and_upper_bound_sums() {
        let children = [
            leaf(430.0, Priority(3)),
            leaf(350.0, Priority(1)),
            leaf(490.0, Priority(0)),
            leaf(280.0, Priority(1)),
        ];
        for kind in [Waterfilling, FairShare] {
            check(kind, 1080.0, &children, &[270.0, 270.0, 270.0, 270.0, 0.0]);
            // Σ ub = Σ demand: the sweep ends on its last breakpoint.
            check(kind, 1550.0, &children, &[430.0, 350.0, 490.0, 280.0, 0.0]);
        }
    }

    #[test]
    fn waterfilling_keeps_a_level_0_rate_beside_priority_255() {
        // Rates 200 · 2^255 and 200: the top child saturates at θ ≈ 1e-75,
        // and the low child's rate must survive that ramp's end to take
        // the remaining 100 W. fair_share is priority-blind: equal b/d.
        let children = [leaf(470.0, Priority(255)), leaf(470.0, Priority(0))];
        check(Waterfilling, 840.0, &children, &[470.0, 370.0, 0.0]);
        check(FairShare, 840.0, &children, &[420.0, 420.0, 0.0]);
    }

    /// A decoded summary may carry any finite watts at any level. Weights
    /// of `1e300 · 2^255` overflow f64; with one or two such children
    /// beside an honest leaf, every allocator still emits finite,
    /// non-negative budgets, conserves the node's budget and hands out no
    /// more than it.
    #[test]
    fn overflowing_weights_never_overspend() {
        let huge = Watts::new(1e300);
        let entry = MetricEntry {
            cap_min: Watts::ZERO,
            demand: huge,
            request: huge,
        };
        let hostile = PriorityMetrics::from_raw_parts(vec![(Priority(255), entry)], huge).unwrap();
        let honest = PriorityMetrics::aggregate([leaf(470.0, Priority(0))].iter(), None);
        let (budget, tol) = (Watts::new(1000.0), Watts::new(1e-6));
        let (mut scratch, mut budgets) = (AllocScratch::default(), Vec::new());
        for hostiles in 1..=2 {
            let mut children = vec![hostile.clone(); hostiles];
            children.push(honest.clone());
            for kind in AllocatorKind::ALL {
                let alloc = kind.allocator();
                let leftover = alloc.split(budget, &children, &mut scratch, &mut budgets);
                let granted: Watts = budgets.iter().sum();
                let sane = budgets.iter().all(|b| b.is_finite() && *b >= Watts::ZERO);
                assert!(sane && granted <= budget + tol, "{kind}: {budgets:?}");
                assert!((granted + leftover).approx_eq(budget, tol), "{kind} leaks");
            }
        }
    }
}
