//! The per-server capping controller: enforcing independent AC budgets on
//! every power supply through one DC cap (paper §4.2, Fig. 4).
//!
//! This is the paper's first novel component — "the first closed-loop
//! feedback power controller for servers with multiple power supplies."
//! Each control period it:
//!
//! 1. computes a per-supply error `budget_i − measured_i` (AC domain),
//! 2. takes the **minimum** error — the most conservative correction,
//! 3. scales by the PSU efficiency `k` (AC→DC) and by the number of working
//!    supplies `M` (a per-supply correction moves the whole server),
//! 4. integrates into the desired DC cap and clips it into the
//!    controllable range `[Pcap_min, Pcap_max]` (DC).

use core::fmt;

use capmaestro_units::{Ratio, Watts};

/// The closed-loop per-supply budget-enforcing controller.
///
/// # Examples
///
/// ```
/// use capmaestro_core::capping::CappingController;
/// use capmaestro_units::{Ratio, Watts};
///
/// let mut ctl = CappingController::new(
///     Watts::new(270.0), // Pcap_min (AC)
///     Watts::new(490.0), // Pcap_max (AC)
///     Ratio::new(0.94),  // PSU efficiency k
/// );
/// // Two supplies, PS2 over budget by 50 W: the cap comes down from
/// // the top of the range (Pcap_max × k in DC), where the integrator
/// // starts.
/// let before = Watts::new(490.0) * Ratio::new(0.94);
/// let cap = ctl.update(
///     &[Watts::new(280.0), Watts::new(200.0)],
///     &[Watts::new(250.0), Watts::new(250.0)],
/// );
/// assert!(cap < before);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CappingController {
    cap_min_dc: Watts,
    cap_max_dc: Watts,
    efficiency: Ratio,
    desired_dc: Watts,
}

impl CappingController {
    /// Creates a controller from the server's **AC** controllable range and
    /// PSU efficiency. The integrator starts at the maximum cap
    /// (unthrottled).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < cap_min_ac ≤ cap_max_ac` and
    /// `0 < efficiency ≤ 1`.
    pub fn new(cap_min_ac: Watts, cap_max_ac: Watts, efficiency: Ratio) -> Self {
        assert!(
            cap_min_ac > Watts::ZERO && cap_min_ac <= cap_max_ac,
            "controller requires 0 < cap_min <= cap_max (AC), got {cap_min_ac} / {cap_max_ac}"
        );
        assert!(
            efficiency > Ratio::ZERO && efficiency <= Ratio::ONE,
            "efficiency must be in (0, 1], got {efficiency}"
        );
        let cap_max_dc = cap_max_ac * efficiency;
        CappingController {
            cap_min_dc: cap_min_ac * efficiency,
            cap_max_dc,
            efficiency,
            desired_dc: cap_max_dc,
        }
    }

    /// The current integrator value: the DC cap the controller wants.
    pub(crate) fn desired_dc_cap(&self) -> Watts {
        self.desired_dc
    }

    /// The DC controllable range.
    pub(crate) fn dc_range(&self) -> (Watts, Watts) {
        (self.cap_min_dc, self.cap_max_dc)
    }

    /// One control iteration (Fig. 4): feed the per-supply AC `budgets` and
    /// `measured` powers (same order, working supplies only) and receive
    /// the DC cap to command.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty or of different lengths.
    pub fn update(&mut self, budgets: &[Watts], measured: &[Watts]) -> Watts {
        assert_eq!(
            budgets.len(),
            measured.len(),
            "budget/measurement slices must pair up"
        );
        self.update_pairs(budgets.iter().zip(measured).map(|(b, m)| (*b, *m)))
    }

    /// Streaming form of [`update`](Self::update): consumes
    /// `(budget, measured)` pairs directly so callers on the round hot path
    /// can feed per-supply values without collecting them into slices first.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields no pairs.
    pub fn update_pairs(&mut self, pairs: impl Iterator<Item = (Watts, Watts)>) -> Watts {
        // ① per-supply error; ② most conservative (minimum).
        let mut count = 0usize;
        let mut min_error = Watts::ZERO;
        for (b, m) in pairs {
            let err = b - m;
            if count == 0 || Watts::total_cmp(&err, &min_error).is_lt() {
                min_error = err;
            }
            count += 1;
        }
        assert!(count > 0, "at least one working supply is required");
        // ③ AC→DC and single-supply→whole-server scaling.
        let m = count as f64;
        let delta_dc = min_error * self.efficiency * m;
        // ④ integrate and clip to the controllable range.
        self.desired_dc =
            (self.desired_dc + delta_dc).clamp(self.cap_min_dc, self.cap_max_dc);
        self.desired_dc
    }

    /// Resets the integrator to the unthrottled maximum (e.g. after a
    /// budget regime change that removed all constraints).
    pub fn reset(&mut self) {
        self.desired_dc = self.cap_max_dc;
    }

    /// Overrides the integrator with an externally chosen DC cap, clamped
    /// into the controllable range, and returns the cap actually set.
    ///
    /// Used by the fail-safe degradation path: when a server's telemetry
    /// goes stale the control plane clamps its cap directly (paper §4.2 —
    /// over-throttling a blind server is safe; trusting frozen readings is
    /// not) instead of feeding the feedback loop fabricated measurements.
    /// The integrator resumes cleanly from the forced value once fresh
    /// telemetry returns.
    pub fn force_dc_cap(&mut self, dc: Watts) -> Watts {
        self.desired_dc = dc.clamp(self.cap_min_dc, self.cap_max_dc);
        self.desired_dc
    }
}

impl fmt::Display for CappingController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "capping controller [desired DC {:.0}, range {:.0}–{:.0}]",
            self.desired_dc, self.cap_min_dc, self.cap_max_dc
        )
    }
}

/// The state-of-the-art baseline the paper argues against (§3.1): a server
/// power controller that enforces only a **single combined budget** across
/// all power supplies (Intel Node Manager / RAPL-style, prior work
/// \[5–8\]).
///
/// It cannot respect individual per-supply budgets: with an uneven load
/// split, one feed can be driven past its share of the budget while the
/// total stays legal — exactly the overload scenario CapMaestro's
/// [`CappingController`] prevents. Kept here for the ablation experiment
/// (`repro ablation` in `capmaestro-bench`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombinedBudgetController {
    cap_min_dc: Watts,
    cap_max_dc: Watts,
    efficiency: Ratio,
    desired_dc: Watts,
}

impl CombinedBudgetController {
    /// Creates the baseline controller (same envelope semantics as
    /// [`CappingController::new`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CappingController::new`].
    pub fn new(cap_min_ac: Watts, cap_max_ac: Watts, efficiency: Ratio) -> Self {
        let inner = CappingController::new(cap_min_ac, cap_max_ac, efficiency);
        let (cap_min_dc, cap_max_dc) = inner.dc_range();
        CombinedBudgetController {
            cap_min_dc,
            cap_max_dc,
            efficiency,
            desired_dc: cap_max_dc,
        }
    }

    /// One control iteration on the **summed** budget and measurement: the
    /// per-supply structure is invisible to this controller.
    pub fn update(&mut self, total_budget: Watts, total_measured: Watts) -> Watts {
        let error = total_budget - total_measured;
        self.desired_dc = (self.desired_dc + error * self.efficiency)
            .clamp(self.cap_min_dc, self.cap_max_dc);
        self.desired_dc
    }
}

impl fmt::Display for CombinedBudgetController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "combined-budget controller [desired DC {:.0}]",
            self.desired_dc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capmaestro_server::{Server, ServerConfig};
    use capmaestro_units::Seconds;
    use proptest::prelude::*;

    proptest! {
        /// The capping controller's output always stays inside the DC
        /// controllable range, whatever the inputs.
        #[test]
        fn controller_output_clipped(
            steps in prop::collection::vec((0.0f64..600.0, 0.0f64..600.0), 1..50),
        ) {
            let mut ctl = CappingController::new(
                Watts::new(270.0),
                Watts::new(490.0),
                Ratio::new(0.94),
            );
            let (lo, hi) = ctl.dc_range();
            for (budget, measured) in steps {
                let cap = ctl.update(&[Watts::new(budget)], &[Watts::new(measured)]);
                prop_assert!(cap >= lo && cap <= hi);
            }
        }
    }

    const K: Ratio = Ratio::new(0.94);

    fn controller() -> CappingController {
        CappingController::new(Watts::new(270.0), Watts::new(490.0), K)
    }

    #[test]
    fn starts_unthrottled() {
        let ctl = controller();
        let (lo, hi) = ctl.dc_range();
        assert_eq!(ctl.desired_dc_cap(), hi);
        assert!(lo < hi);
        assert!((hi.as_f64() - 490.0 * 0.94).abs() < 1e-9);
    }

    #[test]
    fn negative_error_lowers_cap() {
        let mut ctl = controller();
        let before = ctl.desired_dc_cap();
        // PS2 is 50 W over budget.
        let cap = ctl.update(
            &[Watts::new(280.0), Watts::new(200.0)],
            &[Watts::new(250.0), Watts::new(250.0)],
        );
        // Δ = −50 × 0.94 × 2 = −94 W DC.
        assert!((cap.as_f64() - (before.as_f64() - 94.0)).abs() < 1e-9);
    }

    #[test]
    fn positive_error_raises_cap_up_to_max() {
        let mut ctl = controller();
        ctl.update(
            &[Watts::new(280.0), Watts::new(200.0)],
            &[Watts::new(250.0), Watts::new(250.0)],
        );
        // Budgets raised well above measurements: cap recovers and clips
        // at the DC maximum.
        for _ in 0..10 {
            ctl.update(
                &[Watts::new(400.0), Watts::new(400.0)],
                &[Watts::new(200.0), Watts::new(200.0)],
            );
        }
        assert_eq!(ctl.desired_dc_cap(), ctl.dc_range().1);
    }

    #[test]
    fn clips_at_minimum() {
        let mut ctl = controller();
        for _ in 0..50 {
            ctl.update(&[Watts::new(10.0)], &[Watts::new(400.0)]);
        }
        assert_eq!(ctl.desired_dc_cap(), ctl.dc_range().0);
    }

    #[test]
    fn min_error_drives_single_supply_case() {
        let mut ctl = controller();
        let cap = ctl.update(&[Watts::new(300.0)], &[Watts::new(350.0)]);
        // Δ = −50 × 0.94 × 1.
        assert!((cap.as_f64() - (490.0 * 0.94 - 47.0)).abs() < 1e-9);
    }

    #[test]
    fn reset_restores_max() {
        let mut ctl = controller();
        ctl.update(&[Watts::new(100.0)], &[Watts::new(400.0)]);
        assert!(ctl.desired_dc_cap() < ctl.dc_range().1);
        ctl.reset();
        assert_eq!(ctl.desired_dc_cap(), ctl.dc_range().1);
    }

    #[test]
    fn force_dc_cap_clamps_and_resumes() {
        let mut ctl = controller();
        let (lo, hi) = ctl.dc_range();
        // Below the controllable floor: clamped to cap_min (DC).
        assert_eq!(ctl.force_dc_cap(Watts::new(10.0)), lo);
        assert_eq!(ctl.desired_dc_cap(), lo);
        // Above the ceiling: clamped to cap_max (DC).
        assert_eq!(ctl.force_dc_cap(Watts::new(9999.0)), hi);
        // In range: taken verbatim, and the feedback loop integrates from
        // there on the next update.
        let mid = (lo + hi) * 0.5;
        ctl.force_dc_cap(mid);
        let cap = ctl.update(&[Watts::new(300.0)], &[Watts::new(250.0)]);
        assert!((cap.as_f64() - (mid.as_f64() + 47.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn mismatched_slices_panic() {
        let mut ctl = controller();
        let _ = ctl.update(&[Watts::new(1.0)], &[]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_slices_panic() {
        let mut ctl = controller();
        let _ = ctl.update(&[], &[]);
    }

    /// Closed-loop test against the simulated server: the controller must
    /// pin each supply at or below its budget, settling within two 8 s
    /// control periods (the paper's Fig. 5 observation).
    #[test]
    fn closed_loop_enforces_most_constrained_supply() {
        // 65/35 split server, budgets 280 W (PS1) / 120 W (PS2).
        // PS2 binds: server total must come down to 120 / 0.35 ≈ 342.9 W.
        let mut server = Server::new(ServerConfig::paper_default().with_split(0.65));
        server.set_offered_demand(Watts::new(450.0));
        server.settle();
        let mut ctl = controller();
        let budgets = [Watts::new(280.0), Watts::new(120.0)];

        for _period in 0..4 {
            let snap = server.sense();
            let cap = ctl.update(&budgets, &snap.supply_ac);
            server.set_dc_cap(cap);
            for _ in 0..8 {
                server.step(Seconds::new(1.0));
            }
        }
        let snap = server.sense();
        // Each supply within 5 % of (or below) its budget.
        assert!(
            snap.supply_ac[1] <= budgets[1] * 1.05,
            "PS2 at {} exceeds budget {}",
            snap.supply_ac[1],
            budgets[1]
        );
        assert!(snap.supply_ac[0] <= budgets[0] * 1.05);
        // And the binding budget is actually used (no over-throttling):
        assert!(
            snap.supply_ac[1] >= budgets[1] * 0.90,
            "PS2 at {} wastes budget {}",
            snap.supply_ac[1],
            budgets[1]
        );
    }

    /// The §3.1 motivation, as a controller-level fact: with a 65/35 load
    /// split and equal per-supply budgets, the combined-budget baseline
    /// overloads the heavy supply while CapMaestro's controller keeps it
    /// within budget.
    #[test]
    fn combined_budget_baseline_overloads_heavy_supply() {
        let budgets = [Watts::new(230.0), Watts::new(230.0)]; // 460 W total
        let run = |use_combined: bool| -> Vec<Watts> {
            let mut server = Server::new(ServerConfig::paper_default().with_split(0.65));
            server.set_offered_demand(Watts::new(460.0));
            server.settle();
            let mut per_supply = controller();
            let mut combined = CombinedBudgetController::new(
                Watts::new(270.0),
                Watts::new(490.0),
                K,
            );
            for _ in 0..12 {
                let snap = server.sense();
                let cap = if use_combined {
                    let total_budget: Watts = budgets.iter().sum();
                    combined.update(total_budget, snap.total_ac)
                } else {
                    per_supply.update(&budgets, &snap.supply_ac)
                };
                server.set_dc_cap(cap);
                for _ in 0..8 {
                    server.step(Seconds::new(1.0));
                }
            }
            server.sense().supply_ac
        };

        let combined = run(true);
        let per_supply = run(false);
        // Baseline: total within 460 W, but PS1 carries 65 % of it —
        // nearly 300 W against a 230 W budget.
        assert!(
            combined[0] > budgets[0] * 1.2,
            "baseline should overload PS1: {} vs budget {}",
            combined[0],
            budgets[0]
        );
        // CapMaestro: PS1 pinned at (or under) its own budget.
        assert!(
            per_supply[0] <= budgets[0] * 1.02,
            "per-supply controller must protect PS1: {}",
            per_supply[0]
        );
    }

    #[test]
    fn combined_controller_tracks_total() {
        let mut ctl =
            CombinedBudgetController::new(Watts::new(270.0), Watts::new(490.0), K);
        // Over budget: cap falls.
        let c1 = ctl.update(Watts::new(400.0), Watts::new(460.0));
        assert!(c1 < Watts::new(490.0 * 0.94));
        // Under budget: cap recovers to the max.
        for _ in 0..20 {
            ctl.update(Watts::new(480.0), Watts::new(300.0));
        }
        assert_eq!(ctl.desired_dc, Watts::new(490.0) * K);
        assert!(ctl.to_string().contains("combined-budget"));
    }

    #[test]
    fn closed_loop_tracks_budget_steps_like_fig5() {
        // Reproduce the Fig. 5 scenario shape: generous budgets, then PS2
        // down to 200 W at t=30 s, then PS1 down to 150 W at t=110 s.
        let mut server = Server::new(ServerConfig::paper_default().with_split(0.5));
        server.set_offered_demand(Watts::new(460.0));
        server.settle();
        let mut ctl = controller();

        let mut budgets = [Watts::new(280.0), Watts::new(280.0)];
        let mut t = 0u32;
        let step_phase = |server: &mut Server,
                              ctl: &mut CappingController,
                              budgets: &[Watts; 2],
                              seconds: u32,
                              t: &mut u32| {
            for _ in 0..seconds {
                if (*t).is_multiple_of(8) {
                    let snap = server.sense();
                    let cap = ctl.update(budgets, &snap.supply_ac);
                    server.set_dc_cap(cap);
                }
                server.step(Seconds::new(1.0));
                *t += 1;
            }
        };

        step_phase(&mut server, &mut ctl, &budgets, 30, &mut t);
        // Unconstrained at first: no throttling.
        assert!(server.throttle().as_f64() < 0.05);

        budgets[1] = Watts::new(200.0);
        step_phase(&mut server, &mut ctl, &budgets, 80, &mut t);
        let snap = server.sense();
        assert!(
            snap.supply_ac[1].approx_eq(Watts::new(200.0), Watts::new(10.0)),
            "PS2 should settle near 200 W, got {}",
            snap.supply_ac[1]
        );

        budgets[0] = Watts::new(150.0);
        step_phase(&mut server, &mut ctl, &budgets, 80, &mut t);
        let snap = server.sense();
        assert!(
            snap.supply_ac[0].approx_eq(Watts::new(150.0), Watts::new(8.0)),
            "PS1 should settle near 150 W, got {}",
            snap.supply_ac[0]
        );
        // PS2 follows below its budget (equal split).
        assert!(snap.supply_ac[1] <= Watts::new(200.0));
    }
}
