//! Priority-summarized power metrics (paper §4.3.1).
//!
//! The scalability insight of CapMaestro is that a shifting controller need
//! only convey *metrics summarized by priority level* upstream — not
//! per-server metrics — so the root sees a compact global view of thousands
//! of servers. [`PriorityMetrics`] is that summary: per priority level `j`,
//!
//! - `P_cap_min(i, j)` — minimum budget that must be allocated,
//! - `P_demand(i, j)` — full-performance power demand,
//! - `P_request(i, j)` — the budget actually requested, clamped by the
//!   *maximum allowable request* (higher priorities fully served, lower
//!   priorities kept at their minimum),
//!
//! plus the level-independent `P_constraint(i)` — the most power that can
//! be usefully and safely allocated to the subtree.

use core::fmt;

use capmaestro_topology::Priority;
use capmaestro_units::{Ratio, Watts};

/// Per-priority-level power summary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricEntry {
    /// Minimum total budget servers at this level must receive.
    pub cap_min: Watts,
    /// Total power demand at full performance.
    pub demand: Watts,
    /// Power actually requested (≤ demand aggregate, clamped by the
    /// maximum allowable request during aggregation).
    pub request: Watts,
}

impl MetricEntry {
    fn accumulate(&mut self, other: &MetricEntry) {
        self.cap_min += other.cap_min;
        self.demand += other.demand;
        self.request += other.request;
    }
}

/// The inputs a capping controller reports for one server power supply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafInput {
    /// Estimated server power demand at full performance (total AC).
    pub demand: Watts,
    /// The server's minimum controllable AC power (`Pcap_min(0)`).
    pub cap_min: Watts,
    /// The server's maximum controllable AC power (`Pcap_max(0)`).
    pub cap_max: Watts,
    /// Fraction `r` of the server load this supply carries.
    pub share: Ratio,
    /// The server's priority.
    pub priority: Priority,
}

impl LeafInput {
    /// Validates the physical sanity of the input.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < cap_min ≤ cap_max` and `0 ≤ share ≤ 1`.
    pub fn validate(&self) {
        assert!(
            self.cap_min > Watts::ZERO && self.cap_min <= self.cap_max,
            "leaf input requires 0 < cap_min <= cap_max, got {} / {}",
            self.cap_min,
            self.cap_max
        );
        assert!(
            self.share >= Ratio::ZERO && self.share <= Ratio::ONE,
            "leaf share must be within [0, 1], got {}",
            self.share
        );
    }
}

/// Metrics summarized by priority level for one control-tree node.
///
/// Levels are kept sorted in **descending** priority order — the order the
/// budgeting phase walks them.
///
/// # Examples
///
/// ```
/// use capmaestro_core::metrics::{LeafInput, PriorityMetrics};
/// use capmaestro_topology::Priority;
/// use capmaestro_units::{Ratio, Watts};
///
/// let leaf = LeafInput {
///     demand: Watts::new(430.0),
///     cap_min: Watts::new(270.0),
///     cap_max: Watts::new(490.0),
///     share: Ratio::ONE,
///     priority: Priority::HIGH,
/// };
/// let m = PriorityMetrics::from_leaf(&leaf);
/// assert_eq!(m.total_demand(), Watts::new(430.0));
/// assert_eq!(m.constraint(), Watts::new(490.0));
/// ```
#[derive(Default)]
pub struct PriorityMetrics {
    /// `(priority, entry)` sorted descending by priority.
    levels: Levels,
    constraint: Watts,
}

/// One `(priority, entry)` level of a summary.
type Level = (Priority, MetricEntry);

/// A summary's levels, kept inline while there is at most one: every leaf
/// summary, and every node's under a blind policy, allocates nothing. Two
/// or more spill to the heap, and a spilled buffer is kept for reuse when
/// the count falls back, so a warm node never allocates again.
enum Levels {
    /// Exactly one level, inline.
    One(Level),
    /// Any number of levels; no heap block until the first spill.
    Many(Vec<Level>),
}

impl Default for Levels {
    fn default() -> Self {
        Levels::Many(Vec::new())
    }
}

impl Levels {
    /// Takes over a decoded buffer; a single level moves inline.
    fn from_vec(levels: Vec<Level>) -> Self {
        if levels.len() == 1 {
            Levels::One(levels[0])
        } else {
            Levels::Many(levels)
        }
    }

    /// The levels, sorted descending by priority.
    fn as_slice(&self) -> &[Level] {
        match self {
            Levels::One(level) => std::slice::from_ref(level),
            Levels::Many(levels) => levels,
        }
    }

    /// The levels, mutably; their count and order are fixed.
    fn as_mut_slice(&mut self) -> &mut [Level] {
        match self {
            Levels::One(level) => std::slice::from_mut(level),
            Levels::Many(levels) => levels,
        }
    }

    /// Empties the levels, keeping a spilled buffer's capacity.
    fn clear(&mut self) {
        match self {
            Levels::One(_) => *self = Levels::default(),
            Levels::Many(levels) => levels.clear(),
        }
    }

    /// Inserts `level` at `pos`. The first level goes inline unless a
    /// spilled buffer is already there; a second one spills.
    fn insert(&mut self, pos: usize, level: Level) {
        match self {
            Levels::Many(levels) if levels.capacity() == 0 => *self = Levels::One(level),
            Levels::Many(levels) => levels.insert(pos, level),
            Levels::One(first) => {
                // Sized for the two levels of a two-priority fleet.
                let mut levels = Vec::with_capacity(2);
                levels.push(*first);
                levels.insert(pos, level);
                *self = Levels::Many(levels);
            }
        }
    }

    /// Adds `entry` into the level at `priority`, inserting that level in
    /// descending order when it is new.
    fn accumulate(&mut self, priority: Priority, entry: &MetricEntry) {
        match self.as_slice().binary_search_by(|(p, _)| priority.cmp(p)) {
            Ok(pos) => self.as_mut_slice()[pos].1.accumulate(entry),
            Err(pos) => self.insert(pos, (priority, *entry)),
        }
    }

    /// Appends `level` after the last one.
    fn push(&mut self, level: Level) {
        self.insert(self.as_slice().len(), level);
    }
}

// By value, not by layout: an inline level and a spilled buffer holding
// the same one are the same summary.
impl PartialEq for PriorityMetrics {
    fn eq(&self, other: &Self) -> bool {
        self.constraint == other.constraint && self.levels() == other.levels()
    }
}

// A copy of a one-level summary stays inline whatever its source's layout,
// and `clone_from` reuses the target's buffer.
impl Clone for PriorityMetrics {
    fn clone(&self) -> Self {
        let mut out = PriorityMetrics::default();
        out.copy_from(self);
        out
    }

    fn clone_from(&mut self, source: &Self) {
        self.copy_from(source);
    }
}

impl fmt::Debug for PriorityMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PriorityMetrics")
            .field("levels", &self.levels())
            .field("constraint", &self.constraint)
            .finish()
    }
}

impl PriorityMetrics {
    /// An empty summary with zero constraint.
    pub fn empty() -> Self {
        PriorityMetrics::default()
    }

    /// Reassembles a summary from exported parts — the decode path of the
    /// distributed wire codec ([`crate::wire`]). The levels must arrive in
    /// strictly descending priority order (the stored invariant) and every
    /// quantity must be finite and non-negative; anything else is rejected
    /// so a corrupt or hostile frame cannot smuggle an invalid summary
    /// into the budgeting math.
    ///
    /// # Errors
    ///
    /// Returns a static description of the first violated invariant.
    pub(crate) fn from_raw_parts(
        levels: Vec<(Priority, MetricEntry)>,
        constraint: Watts,
    ) -> Result<Self, &'static str> {
        for pair in levels.windows(2) {
            if pair[0].0 <= pair[1].0 {
                return Err("priority levels must be strictly descending");
            }
        }
        for (_, entry) in &levels {
            for w in [entry.cap_min, entry.demand, entry.request] {
                if !w.as_f64().is_finite() || w < Watts::ZERO {
                    return Err("level entries must be finite and non-negative");
                }
            }
        }
        if !constraint.as_f64().is_finite() || constraint < Watts::ZERO {
            return Err("constraint must be finite and non-negative");
        }
        Ok(PriorityMetrics {
            levels: Levels::from_vec(levels),
            constraint,
        })
    }

    /// Computes the metrics a capping controller reports for one supply
    /// (paper §4.3.1, level-1 formulas):
    ///
    /// - `cap_min = r × Pcap_min(0)`
    /// - `demand  = r × max(Pdemand(0), Pcap_min(0))`
    /// - `request = demand`
    /// - `constraint = r × Pcap_max(0)`
    ///
    /// The `max` guards the case of a lightly-loaded server: its aggregate
    /// budget must stay inside the controllable range or a later load spike
    /// could make the cap unenforceable.
    pub fn from_leaf(input: &LeafInput) -> Self {
        let mut out = PriorityMetrics::default();
        PriorityMetrics::from_leaf_into(input, &mut out);
        out
    }

    /// In-place variant of [`PriorityMetrics::from_leaf`]: writes the leaf
    /// summary into `out` and returns whether its value changed, so that a
    /// stored leaf summary is its own change witness. Allocates nothing:
    /// one level stays inline.
    pub(crate) fn from_leaf_into(input: &LeafInput, out: &mut PriorityMetrics) -> bool {
        input.validate();
        let demand = input.share * input.demand.max(input.cap_min);
        let level = (
            input.priority,
            MetricEntry {
                cap_min: input.share * input.cap_min,
                demand,
                request: demand,
            },
        );
        let constraint = input.share * input.cap_max;
        if out.constraint == constraint && out.levels() == [level] {
            return false;
        }
        out.levels.clear();
        out.levels.push(level);
        out.constraint = constraint;
        true
    }

    /// Overwrites `self` with a copy of `src`, reusing the level buffer
    /// (no allocation for one level, or once `self` has enough capacity).
    pub(crate) fn copy_from(&mut self, src: &PriorityMetrics) {
        self.levels.clear();
        for &level in src.levels() {
            self.levels.push(level);
        }
        self.constraint = src.constraint;
    }

    /// Aggregates children's metrics at a shifting controller with power
    /// limit `limit` (`None` = unconstrained), applying the §4.3.1
    /// shifting-controller formulas including the maximum-allowable-request
    /// clamp.
    pub fn aggregate<'a>(
        children: impl IntoIterator<Item = &'a PriorityMetrics>,
        limit: Option<Watts>,
    ) -> Self {
        let mut out = PriorityMetrics::default();
        PriorityMetrics::aggregate_into(children, limit, false, &mut out);
        out
    }

    /// In-place variant of [`PriorityMetrics::aggregate`] that writes into
    /// `out`, reusing its level buffer (a one-level result stays inline).
    ///
    /// With `blind = true` each child is first collapsed to a single
    /// priority-blind level (exactly [`PriorityMetrics::collapsed`]) before
    /// accumulation — the operation sequence is identical to collapsing
    /// every child and aggregating the collapsed copies, without
    /// materializing them.
    pub(crate) fn aggregate_into<'a>(
        children: impl IntoIterator<Item = &'a PriorityMetrics>,
        limit: Option<Watts>,
        blind: bool,
        out: &mut PriorityMetrics,
    ) {
        // Sum cap_min / demand / raw requests per level, and constraints,
        // using `out.levels` directly as the sums buffer.
        out.levels.clear();
        let mut child_constraints = Watts::ZERO;
        for child in children {
            child_constraints += child.constraint;
            if blind {
                if child.levels().is_empty() {
                    continue;
                }
                let mut merged = MetricEntry::default();
                for (_, entry) in child.levels() {
                    merged.accumulate(entry);
                }
                merged.request = merged.request.min(child.constraint).max(merged.cap_min);
                out.levels.accumulate(Priority::LOW, &merged);
            } else {
                for (priority, entry) in child.levels() {
                    out.levels.accumulate(*priority, entry);
                }
            }
        }
        let sums = out.levels.as_mut_slice();
        let constraint = match limit {
            Some(l) => l.min(child_constraints),
            None => child_constraints,
        };
        out.constraint = constraint;

        // Clamp requests: level j may request at most
        //   constraint − Σ_{h>j} request(h) − Σ_{l<j} cap_min(l).
        // `sums` is sorted descending, so walk it once keeping running sums.
        let total_cap_min: Watts = sums.iter().map(|(_, e)| e.cap_min).sum();
        let mut higher_requests = Watts::ZERO;
        let mut cap_min_at_or_above = Watts::ZERO;
        for (_, entry) in sums.iter_mut() {
            cap_min_at_or_above += entry.cap_min;
            let lower_cap_min = total_cap_min - cap_min_at_or_above;
            let allowable = constraint
                .saturating_sub(higher_requests)
                .saturating_sub(lower_cap_min);
            // Never request below the level's own floor: step 1 of the
            // budgeting phase hands out cap_min unconditionally.
            entry.request = entry.request.min(allowable).max(entry.cap_min);
            higher_requests += entry.request;
        }
    }

    /// Collapses all levels into a single priority-blind level (used by the
    /// No-Priority policy and by Local Priority above leaf parents).
    pub fn collapsed(&self) -> Self {
        let mut out = PriorityMetrics::default();
        self.collapsed_into(&mut out);
        out
    }

    /// In-place variant of [`PriorityMetrics::collapsed`], writing into
    /// `out` (which must not alias `self`); the one level stays inline.
    pub(crate) fn collapsed_into(&self, out: &mut PriorityMetrics) {
        let mut merged = MetricEntry::default();
        for (_, entry) in self.levels() {
            merged.accumulate(entry);
        }
        // The per-level clamp may not have bound jointly; re-clamp the
        // merged request against the constraint.
        merged.request = merged.request.min(self.constraint).max(merged.cap_min);
        out.levels.clear();
        if !self.levels().is_empty() {
            out.levels.push((Priority::LOW, merged));
        }
        out.constraint = self.constraint;
    }

    /// The levels, sorted descending by priority.
    pub fn levels(&self) -> &[(Priority, MetricEntry)] {
        self.levels.as_slice()
    }

    /// The entry for a given priority, if present.
    pub fn level(&self, priority: Priority) -> Option<&MetricEntry> {
        self.levels()
            .iter()
            .find(|(p, _)| *p == priority)
            .map(|(_, e)| e)
    }

    /// `P_constraint`: the most power that can be usefully allocated.
    pub fn constraint(&self) -> Watts {
        self.constraint
    }

    /// Total `P_cap_min` across levels.
    pub(crate) fn total_cap_min(&self) -> Watts {
        self.levels().iter().map(|(_, e)| e.cap_min).sum()
    }

    /// Total `P_demand` across levels.
    pub fn total_demand(&self) -> Watts {
        self.levels().iter().map(|(_, e)| e.demand).sum()
    }

    /// Total `P_request` across levels.
    pub(crate) fn total_request(&self) -> Watts {
        self.levels().iter().map(|(_, e)| e.request).sum()
    }
}

impl fmt::Display for PriorityMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metrics [constraint {:.0}", self.constraint)?;
        for (p, e) in self.levels() {
            write!(
                f,
                "; {p}: min {:.0} demand {:.0} request {:.0}",
                e.cap_min, e.demand, e.request
            )?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn leaf_metrics_basic() {
        let m = leaf(430.0, Priority::HIGH);
        let entry = m.level(Priority::HIGH).unwrap();
        assert_eq!(entry.cap_min, Watts::new(270.0));
        assert_eq!(entry.demand, Watts::new(430.0));
        assert_eq!(entry.request, Watts::new(430.0));
        assert_eq!(m.constraint(), Watts::new(490.0));
        assert_eq!(m.level(Priority::LOW), None);
    }

    #[test]
    fn leaf_metrics_scaled_by_share() {
        let m = PriorityMetrics::from_leaf(&LeafInput {
            demand: Watts::new(400.0),
            cap_min: Watts::new(270.0),
            cap_max: Watts::new(490.0),
            share: Ratio::new(0.65),
            priority: Priority::LOW,
        });
        let entry = m.level(Priority::LOW).unwrap();
        assert!(entry.cap_min.approx_eq(Watts::new(175.5), Watts::new(1e-9)));
        assert!(entry.demand.approx_eq(Watts::new(260.0), Watts::new(1e-9)));
        assert!(m.constraint().approx_eq(Watts::new(318.5), Watts::new(1e-9)));
    }

    #[test]
    fn light_load_demand_floored_at_cap_min() {
        // Pdemand(0) below Pcap_min: the reported demand must not fall
        // under the controllable floor (§4.3.1 rationale).
        let m = PriorityMetrics::from_leaf(&LeafInput {
            demand: Watts::new(180.0),
            cap_min: Watts::new(270.0),
            cap_max: Watts::new(490.0),
            share: Ratio::ONE,
            priority: Priority::LOW,
        });
        assert_eq!(m.total_demand(), Watts::new(270.0));
        assert_eq!(m.total_request(), Watts::new(270.0));
    }

    #[test]
    fn aggregation_sums_levels() {
        let a = leaf(430.0, Priority::HIGH);
        let b = leaf(430.0, Priority::LOW);
        let m = PriorityMetrics::aggregate([&a, &b], Some(Watts::new(750.0)));
        assert_eq!(m.levels().len(), 2);
        assert_eq!(m.total_cap_min(), Watts::new(540.0));
        assert_eq!(m.total_demand(), Watts::new(860.0));
        assert_eq!(m.constraint(), Watts::new(750.0));
        // High priority requests fully; low is clamped by the allowable
        // request: 750 − 430 = 320.
        assert_eq!(
            m.level(Priority::HIGH).unwrap().request,
            Watts::new(430.0)
        );
        assert_eq!(m.level(Priority::LOW).unwrap().request, Watts::new(320.0));
    }

    #[test]
    fn aggregation_clamps_high_priority_to_leave_lower_minimums() {
        // Tight limit: even the high level cannot request power that would
        // starve low-priority servers below cap_min.
        let a = leaf(490.0, Priority::HIGH);
        let b = leaf(490.0, Priority::LOW);
        let m = PriorityMetrics::aggregate([&a, &b], Some(Watts::new(600.0)));
        // allowable(high) = 600 − 0 − 270 = 330.
        assert_eq!(m.level(Priority::HIGH).unwrap().request, Watts::new(330.0));
        // allowable(low) = 600 − 330 − 0 = 270 (its own floor).
        assert_eq!(m.level(Priority::LOW).unwrap().request, Watts::new(270.0));
        // Σ requests ≤ constraint.
        assert!(m.total_request() <= m.constraint());
    }

    #[test]
    fn request_never_below_cap_min() {
        // Degenerate limit below the sum of minimums: requests floor at
        // cap_min so budgeting step 1 stays consistent.
        let a = leaf(490.0, Priority::HIGH);
        let b = leaf(490.0, Priority::LOW);
        let m = PriorityMetrics::aggregate([&a, &b], Some(Watts::new(400.0)));
        assert!(m.level(Priority::HIGH).unwrap().request >= Watts::new(270.0));
        assert!(m.level(Priority::LOW).unwrap().request >= Watts::new(270.0));
    }

    #[test]
    fn aggregation_uses_child_constraints_without_limit() {
        let a = leaf(430.0, Priority::LOW);
        let b = leaf(430.0, Priority::LOW);
        let m = PriorityMetrics::aggregate([&a, &b], None);
        assert_eq!(m.constraint(), Watts::new(980.0));
        assert_eq!(m.total_request(), Watts::new(860.0));
    }

    #[test]
    fn nested_aggregation_matches_fig2_table1_metrics() {
        // Fig. 2: SA(high)+SB under Left CB 750, SC+SD under Right CB 750,
        // Top CB 1400.
        let left = PriorityMetrics::aggregate(
            [&leaf(430.0, Priority::HIGH), &leaf(430.0, Priority::LOW)],
            Some(Watts::new(750.0)),
        );
        let right = PriorityMetrics::aggregate(
            [&leaf(430.0, Priority::LOW), &leaf(430.0, Priority::LOW)],
            Some(Watts::new(750.0)),
        );
        let top = PriorityMetrics::aggregate([&left, &right], Some(Watts::new(1400.0)));
        assert_eq!(top.constraint(), Watts::new(1400.0));
        assert_eq!(top.level(Priority::HIGH).unwrap().request, Watts::new(430.0));
        // Low: min(1400 − 430 − 0, 320 + 750) = 970.
        assert_eq!(top.level(Priority::LOW).unwrap().request, Watts::new(970.0));
    }

    #[test]
    fn collapse_merges_levels() {
        let a = leaf(430.0, Priority::HIGH);
        let b = leaf(430.0, Priority::LOW);
        let m = PriorityMetrics::aggregate([&a, &b], Some(Watts::new(750.0)));
        let c = m.collapsed();
        assert_eq!(c.levels().len(), 1);
        assert_eq!(c.total_cap_min(), Watts::new(540.0));
        assert_eq!(c.total_demand(), Watts::new(860.0));
        // 430 + 320 = 750, already at the constraint.
        assert_eq!(c.total_request(), Watts::new(750.0));
        assert_eq!(c.constraint(), Watts::new(750.0));
    }

    #[test]
    fn collapse_of_empty_is_empty() {
        let m = PriorityMetrics::empty();
        assert_eq!(m.collapsed().levels().len(), 0);
        assert_eq!(m.collapsed().constraint(), Watts::ZERO);
    }

    #[test]
    #[should_panic(expected = "cap_min")]
    fn invalid_leaf_input_panics() {
        let _ = PriorityMetrics::from_leaf(&LeafInput {
            demand: Watts::new(400.0),
            cap_min: Watts::new(500.0),
            cap_max: Watts::new(490.0),
            share: Ratio::ONE,
            priority: Priority::LOW,
        });
    }

    #[test]
    fn display_lists_levels() {
        let m = leaf(430.0, Priority::HIGH);
        let s = m.to_string();
        assert!(s.contains("constraint 490 W"));
        assert!(s.contains("P1"));
    }

    /// The plain-`Vec` summary the inline-first layout is held to: the
    /// §4.3.1 formulas over an ordinary buffer.
    #[derive(Debug, Clone, PartialEq, Default)]
    struct Model {
        levels: Vec<(Priority, MetricEntry)>,
        constraint: Watts,
    }

    impl Model {
        fn leaf(input: &LeafInput) -> Model {
            let demand = input.share * input.demand.max(input.cap_min);
            let entry = MetricEntry {
                cap_min: input.share * input.cap_min,
                demand,
                request: demand,
            };
            Model {
                levels: vec![(input.priority, entry)],
                constraint: input.share * input.cap_max,
            }
        }

        fn collapsed(&self) -> Model {
            let mut merged = MetricEntry::default();
            for (_, entry) in &self.levels {
                merged.accumulate(entry);
            }
            merged.request = merged.request.min(self.constraint).max(merged.cap_min);
            let levels = if self.levels.is_empty() {
                Vec::new()
            } else {
                vec![(Priority::LOW, merged)]
            };
            Model {
                levels,
                constraint: self.constraint,
            }
        }

        fn aggregate(children: &[Model], limit: Option<Watts>, blind: bool) -> Model {
            let mut sums: Vec<(Priority, MetricEntry)> = Vec::new();
            let mut child_constraints = Watts::ZERO;
            for child in children {
                let child = if blind { child.collapsed() } else { child.clone() };
                child_constraints += child.constraint;
                for (priority, entry) in &child.levels {
                    match sums.binary_search_by(|(p, _)| priority.cmp(p)) {
                        Ok(pos) => sums[pos].1.accumulate(entry),
                        Err(pos) => sums.insert(pos, (*priority, *entry)),
                    }
                }
            }
            let constraint = limit.map_or(child_constraints, |l| l.min(child_constraints));
            let total_cap_min: Watts = sums.iter().map(|(_, e)| e.cap_min).sum();
            let (mut higher_requests, mut cap_min_at_or_above) = (Watts::ZERO, Watts::ZERO);
            for (_, entry) in &mut sums {
                cap_min_at_or_above += entry.cap_min;
                let allowable = constraint
                    .saturating_sub(higher_requests)
                    .saturating_sub(total_cap_min - cap_min_at_or_above);
                entry.request = entry.request.min(allowable).max(entry.cap_min);
                higher_requests += entry.request;
            }
            Model {
                levels: sums,
                constraint,
            }
        }
    }

    /// A leaf drawn as `(priority, demand, cap_min, cap_max − cap_min,
    /// share)`.
    type LeafDraw = (u8, f64, f64, f64, f64);

    fn draw_input(&(p, demand, cap_min, extra, share): &LeafDraw) -> LeafInput {
        LeafInput {
            demand: Watts::new(demand),
            cap_min: Watts::new(cap_min),
            cap_max: Watts::new(cap_min + extra),
            share: Ratio::new(share),
            priority: Priority(p),
        }
    }

    /// One step on the pool of three summaries: `(kind, target, source,
    /// leaves, limit, flags)`. Kinds: 0 `from_leaf_into`, 1
    /// `aggregate_into` over the leaves and the source, 2 `collapsed_into`,
    /// 3 `copy_from`, 4 `from_raw_parts` of the leaves' levels. Flags: bit
    /// 0 sets the limit, bit 1 aggregates blind.
    type Step = (u8, usize, usize, Vec<LeafDraw>, f64, u8);

    /// Applies `step` to the pool and to its model.
    fn apply(pool: &mut [PriorityMetrics], model: &mut [Model], step: &Step) {
        let (kind, target, source, leaves, limit, flags) = step;
        let (target, source) = (*target, *source);
        let first = leaves.first().copied().unwrap_or((1, 300.0, 200.0, 100.0, 0.5));
        match kind {
            0 => {
                let input = draw_input(&first);
                let changed = PriorityMetrics::from_leaf_into(&input, &mut pool[target]);
                let fresh = Model::leaf(&input);
                assert_eq!(changed, fresh != model[target], "change witness of {input:?}");
                model[target] = fresh;
            }
            1 => {
                let limit = (flags & 1 == 1).then_some(Watts::new(*limit));
                let blind = flags & 2 == 2;
                let mut children: Vec<PriorityMetrics> =
                    leaves.iter().map(|l| PriorityMetrics::from_leaf(&draw_input(l))).collect();
                children.push(pool[source].clone());
                let mut models: Vec<Model> =
                    leaves.iter().map(|l| Model::leaf(&draw_input(l))).collect();
                models.push(model[source].clone());
                PriorityMetrics::aggregate_into(&children, limit, blind, &mut pool[target]);
                model[target] = Model::aggregate(&models, limit, blind);
            }
            2 => {
                let src = pool[source].clone();
                src.collapsed_into(&mut pool[target]);
                model[target] = model[source].collapsed();
            }
            3 => {
                let src = pool[source].clone();
                pool[target].copy_from(&src);
                model[target] = model[source].clone();
            }
            _ => {
                let mut levels: Vec<(Priority, MetricEntry)> = leaves
                    .iter()
                    .map(|&(p, demand, cap_min, extra, _)| {
                        let entry = MetricEntry {
                            cap_min: Watts::new(cap_min),
                            demand: Watts::new(demand),
                            request: Watts::new(extra),
                        };
                        (Priority(p), entry)
                    })
                    .collect();
                levels.sort_by_key(|&(p, _)| std::cmp::Reverse(p));
                levels.dedup_by_key(|(p, _)| *p);
                let constraint = Watts::new(*limit);
                pool[target] = PriorityMetrics::from_raw_parts(levels.clone(), constraint)
                    .expect("descending, finite, non-negative levels");
                model[target] = Model { levels, constraint };
            }
        }
    }

    fn level_bits(levels: &[(Priority, MetricEntry)]) -> Vec<(u8, [u64; 3])> {
        levels
            .iter()
            .map(|(p, e)| {
                let bits = [e.cap_min, e.demand, e.request].map(|w| w.as_f64().to_bits());
                (p.level(), bits)
            })
            .collect()
    }

    /// Every case opens on one → many → one levels on the same value
    /// (inline, spilled, one level in the spilled buffer), a blind
    /// aggregate into that buffer, and decodes of one and of two levels.
    fn opening() -> Vec<Step> {
        let (high, low) = ((1, 430.0, 270.0, 220.0, 1.0), (0, 430.0, 270.0, 220.0, 0.6));
        vec![
            (0, 0, 0, vec![high], 0.0, 0),
            (1, 0, 1, vec![high, low], 750.0, 1),
            (0, 0, 0, vec![low], 0.0, 0),
            (3, 1, 0, vec![], 0.0, 0),
            (1, 0, 2, vec![high, low], 0.0, 2),
            (4, 2, 0, vec![low], 500.0, 0),
            (4, 2, 0, vec![high, low], 500.0, 0),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Inline-first summaries read, and compare, as the plain-`Vec`
        /// model does after any sequence of the in-place operations.
        #[test]
        fn inline_first_levels_match_a_plain_vec_model(
            steps in proptest::collection::vec(
                (
                    0u8..5,
                    0usize..3,
                    0usize..3,
                    proptest::collection::vec(
                        (0u8..4, 0.0f64..600.0, 50.0f64..300.0, 0.0f64..300.0, 0.0f64..1.0),
                        0..4,
                    ),
                    0.0f64..2_000.0,
                    0u8..4,
                ),
                0..24,
            ),
        ) {
            let mut pool = vec![PriorityMetrics::default(); 3];
            let mut model = vec![Model::default(); 3];
            for step in opening().iter().chain(&steps) {
                apply(&mut pool, &mut model, step);
                for i in 0..pool.len() {
                    proptest::prop_assert_eq!(
                        level_bits(pool[i].levels()),
                        level_bits(&model[i].levels),
                        "levels of summary {} after {:?}", i, step
                    );
                    proptest::prop_assert_eq!(
                        pool[i].constraint().as_f64().to_bits(),
                        model[i].constraint.as_f64().to_bits()
                    );
                    for j in 0..pool.len() {
                        proptest::prop_assert_eq!(pool[i] == pool[j], model[i] == model[j]);
                    }
                    proptest::prop_assert_eq!(&pool[i].clone(), &pool[i]);
                }
            }
        }
    }

    #[test]
    fn a_one_level_summary_stays_inline() {
        // One inline level (32 B) with its tag, beside the constraint.
        assert!(std::mem::size_of::<PriorityMetrics>() <= 48);
        let mut m = leaf(430.0, Priority::HIGH);
        assert!(matches!(m.levels, Levels::One(_)));
        let two = PriorityMetrics::aggregate([&m, &leaf(430.0, Priority::LOW)], None);
        m.copy_from(&two);
        assert!(matches!(&m.levels, Levels::Many(v) if v.len() == 2));
        // Back to one level: the spilled buffer is kept, and a copy of the
        // summary goes inline again.
        m.copy_from(&leaf(300.0, Priority::LOW));
        assert!(matches!(&m.levels, Levels::Many(v) if v.len() == 1 && v.capacity() >= 2));
        assert!(matches!(m.clone().levels, Levels::One(_)));
        assert_eq!(m.clone(), m);
    }

    #[test]
    fn many_priority_levels_stay_sorted() {
        let leaves: Vec<PriorityMetrics> =
            (0..8).map(|p| leaf(300.0, Priority(p))).collect();
        let m = PriorityMetrics::aggregate(leaves.iter(), None);
        let priorities: Vec<u8> = m.levels().iter().map(|(p, _)| p.level()).collect();
        assert_eq!(priorities, vec![7, 6, 5, 4, 3, 2, 1, 0]);
    }
}
