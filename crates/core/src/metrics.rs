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
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PriorityMetrics {
    /// `(priority, entry)` sorted descending by priority.
    levels: Vec<(Priority, MetricEntry)>,
    constraint: Watts,
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
        Ok(PriorityMetrics { levels, constraint })
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
    /// summary into `out`, reusing its level buffer.
    pub(crate) fn from_leaf_into(input: &LeafInput, out: &mut PriorityMetrics) {
        input.validate();
        let demand = input.share * input.demand.max(input.cap_min);
        let entry = MetricEntry {
            cap_min: input.share * input.cap_min,
            demand,
            request: demand,
        };
        out.levels.clear();
        out.levels.push((input.priority, entry));
        out.constraint = input.share * input.cap_max;
    }

    /// Overwrites `self` with a copy of `src`, reusing the level buffer
    /// (no allocation once `self` has enough capacity).
    pub(crate) fn copy_from(&mut self, src: &PriorityMetrics) {
        self.levels.clear();
        self.levels.extend_from_slice(&src.levels);
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
    /// `out`, reusing its level buffer.
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
        let sums = &mut out.levels;
        let mut child_constraints = Watts::ZERO;
        for child in children {
            child_constraints += child.constraint;
            if blind {
                if child.levels.is_empty() {
                    continue;
                }
                let mut merged = MetricEntry::default();
                for (_, entry) in &child.levels {
                    merged.accumulate(entry);
                }
                merged.request = merged.request.min(child.constraint).max(merged.cap_min);
                let priority = Priority::LOW;
                match sums.binary_search_by(|(p, _)| priority.cmp(p)) {
                    Ok(pos) => sums[pos].1.accumulate(&merged),
                    Err(pos) => sums.insert(pos, (priority, merged)),
                }
            } else {
                for (priority, entry) in &child.levels {
                    match sums.binary_search_by(|(p, _)| priority.cmp(p)) {
                        Ok(pos) => sums[pos].1.accumulate(entry),
                        Err(pos) => sums.insert(pos, (*priority, *entry)),
                    }
                }
            }
        }
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
    /// `out` (which must not alias `self`), reusing its level buffer.
    pub(crate) fn collapsed_into(&self, out: &mut PriorityMetrics) {
        let mut merged = MetricEntry::default();
        for (_, entry) in &self.levels {
            merged.accumulate(entry);
        }
        // The per-level clamp may not have bound jointly; re-clamp the
        // merged request against the constraint.
        merged.request = merged.request.min(self.constraint).max(merged.cap_min);
        out.levels.clear();
        if !self.levels.is_empty() {
            out.levels.push((Priority::LOW, merged));
        }
        out.constraint = self.constraint;
    }

    /// The levels, sorted descending by priority.
    pub fn levels(&self) -> &[(Priority, MetricEntry)] {
        &self.levels
    }

    /// The entry for a given priority, if present.
    pub fn level(&self, priority: Priority) -> Option<&MetricEntry> {
        self.levels
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
        self.levels.iter().map(|(_, e)| e.cap_min).sum()
    }

    /// Total `P_demand` across levels.
    pub fn total_demand(&self) -> Watts {
        self.levels.iter().map(|(_, e)| e.demand).sum()
    }

    /// Total `P_request` across levels.
    pub(crate) fn total_request(&self) -> Watts {
        self.levels.iter().map(|(_, e)| e.request).sum()
    }
}

impl fmt::Display for PriorityMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metrics [constraint {:.0}", self.constraint)?;
        for (p, e) in &self.levels {
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

    #[test]
    fn many_priority_levels_stay_sorted() {
        let leaves: Vec<PriorityMetrics> =
            (0..8).map(|p| leaf(300.0, Priority(p))).collect();
        let m = PriorityMetrics::aggregate(leaves.iter(), None);
        let priorities: Vec<u8> = m.levels().iter().map(|(p, _)| p.level()).collect();
        assert_eq!(priorities, vec![7, 6, 5, 4, 3, 2, 1, 0]);
    }
}
