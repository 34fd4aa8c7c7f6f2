//! Power-demand estimation by throttle/power regression (paper §5).
//!
//! A capped server's measured power understates what its workload *wants*.
//! CapMaestro estimates the uncapped demand by regressing per-second
//! `(throttle level, power)` samples over a sliding 16-sample window:
//! the regression intercept is the power at 0 % throttling. When samples at
//! 0 % throttle exist in the window, their measured power is used directly.

use std::collections::VecDeque;

use capmaestro_units::{Ratio, Watts};

/// Number of per-second samples in the paper's regression window.
pub const DEFAULT_WINDOW: usize = 16;

/// Throttle levels at or below this are treated as "not throttled".
const ZERO_THROTTLE_EPS: f64 = 1e-3;

/// Minimum throttle variance for a meaningful regression slope.
const MIN_VARIANCE: f64 = 1e-6;

/// Plausibility lower bound as a fraction of the server's idle power: a
/// powered server can never legitimately read below half its idle draw.
pub const PLAUSIBLE_MIN_IDLE_FRACTION: f64 = 0.5;

/// Plausibility upper bound as a fraction of the server's `Pcap_max`.
pub const PLAUSIBLE_MAX_CAP_FRACTION: f64 = 1.5;

/// A sample counts as a spike when its power deviates from the median of
/// the last three samples by more than this fraction of the server's
/// dynamic range (`cap_max − idle`). Below the threshold samples pass
/// through unmodified, so healthy telemetry is never distorted.
pub const SPIKE_DEVIATION_FRACTION: f64 = 0.25;

/// What [`DemandEstimator::push_screened`] did with a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleFate {
    /// The sample passed plausibility screening and entered the filter.
    Accepted,
    /// The sample was outside `[0.5·idle, 1.5·cap_max]` and was discarded
    /// without touching the window. A run of rejections means the feed is
    /// effectively stale.
    RejectedImplausible,
}

/// Sliding-window demand estimator for one server.
///
/// # Examples
///
/// ```
/// use capmaestro_core::estimator::DemandEstimator;
/// use capmaestro_units::{Ratio, Watts};
///
/// let mut est = DemandEstimator::new();
/// // A server throttled to varying degrees; true demand is 430 W with
/// // dynamic range 270 (idle 160): power = 430 − 270 × throttle.
/// for t in [0.2, 0.3, 0.4, 0.25] {
///     est.push(Ratio::new(t), Watts::new(430.0 - 270.0 * t));
/// }
/// let demand = est.estimate().unwrap();
/// assert!((demand.as_f64() - 430.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct DemandEstimator {
    window: VecDeque<(f64, Watts)>,
    capacity: usize,
    /// Last ≤ 3 plausible samples, feeding the deviation-gated
    /// median-of-3 spike filter used by
    /// [`DemandEstimator::push_screened`]. Plain [`push`]
    /// bypasses it entirely.
    ///
    /// [`push`]: DemandEstimator::push
    recent: VecDeque<(f64, Watts)>,
}

impl DemandEstimator {
    /// Creates an estimator with the paper's 16-sample window.
    pub fn new() -> Self {
        DemandEstimator::with_window(DEFAULT_WINDOW)
    }

    /// Creates an estimator with a custom window length.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (regression needs at least two samples).
    pub(crate) fn with_window(capacity: usize) -> Self {
        assert!(capacity >= 2, "regression window needs at least 2 samples");
        DemandEstimator {
            window: VecDeque::with_capacity(capacity),
            capacity,
            recent: VecDeque::with_capacity(3),
        }
    }

    /// Records one per-second sample of (throttle level, measured power).
    pub fn push(&mut self, throttle: Ratio, power: Watts) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window
            .push_back((throttle.clamp_fraction().as_f64(), power));
    }

    /// Records one sample with plausibility screening and spike filtering.
    ///
    /// Screening: a reading outside `[0.5·idle, 1.5·cap_max]` cannot come
    /// from a healthy powered server, so it is discarded outright
    /// ([`SampleFate::RejectedImplausible`]) — the window is untouched and
    /// the caller should treat the feed as not having refreshed.
    ///
    /// Filtering: an accepted sample whose power deviates from the median
    /// of the last three samples by more than
    /// [`SPIKE_DEVIATION_FRACTION`] of the dynamic range is replaced by
    /// that median (selected by power, throttle kept paired) before
    /// entering the regression window, so a single in-range spike is
    /// absorbed instead of yanking the server's cap for a round. Samples
    /// within the threshold — all of a healthy stream — enter verbatim,
    /// and the first two samples after a
    /// [`clear`](DemandEstimator::clear) always pass through.
    pub fn push_screened(
        &mut self,
        throttle: Ratio,
        power: Watts,
        idle: Watts,
        cap_max: Watts,
    ) -> SampleFate {
        let lo = idle * PLAUSIBLE_MIN_IDLE_FRACTION;
        let hi = cap_max * PLAUSIBLE_MAX_CAP_FRACTION;
        if power < lo || power > hi {
            return SampleFate::RejectedImplausible;
        }
        let t = throttle.clamp_fraction().as_f64();
        if self.recent.len() == 3 {
            self.recent.pop_front();
        }
        self.recent.push_back((t, power));
        let (ft, fp) = if self.recent.len() < 3 {
            (t, power)
        } else {
            // Exactly three recents: select the median on the stack (the
            // per-sample hot path must not allocate).
            let mut by_power = [self.recent[0], self.recent[1], self.recent[2]];
            by_power.sort_by(|a, b| Watts::total_cmp(&a.1, &b.1));
            let (mt, mp) = by_power[1];
            let limit = (cap_max - idle).as_f64() * SPIKE_DEVIATION_FRACTION;
            if (power.as_f64() - mp.as_f64()).abs() > limit {
                (mt, mp)
            } else {
                (t, power)
            }
        };
        self.push(Ratio::new(ft), fp);
        SampleFate::Accepted
    }

    /// Whether [`push_screened`](DemandEstimator::push_screened) of
    /// `(throttle, power)` would leave the estimator bit-for-bit as it is:
    /// the window is full of that sample and so is the spike filter's
    /// three-sample history, so the filter passes it verbatim and the
    /// window drops an equal sample to take it. Screening is the caller's
    /// to know.
    pub(crate) fn saturated_with(&self, throttle: Ratio, power: Watts) -> bool {
        let sample = (throttle.clamp_fraction().as_f64().to_bits(), power.as_f64().to_bits());
        let same = |&(t, p): &(f64, Watts)| (t.to_bits(), p.as_f64().to_bits()) == sample;
        self.window.len() == self.capacity
            && self.recent.len() == 3
            && self.window.iter().all(same)
            && self.recent.iter().all(same)
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Clears the window (e.g. after a workload change detection).
    pub fn clear(&mut self) {
        self.window.clear();
        self.recent.clear();
    }

    /// Estimates the uncapped power demand.
    ///
    /// Preference order (per §5):
    ///
    /// 1. mean measured power over zero-throttle samples, when any exist;
    /// 2. the intercept of an ordinary-least-squares fit of power against
    ///    throttle, clamped to at least the highest power observed
    ///    (demand can never be below a measured, throttled power);
    /// 3. `None` when the window is empty or the regression is degenerate
    ///    (constant non-zero throttle) — callers should fall back to the
    ///    last measured power.
    pub fn estimate(&self) -> Option<Watts> {
        if self.window.is_empty() {
            return None;
        }
        // Case 1: unthrottled samples measure demand directly. Folded in
        // window order (never collected) so this runs on the control
        // plane's allocation-free hot path.
        let (zero_sum, zero_count) = self
            .window
            .iter()
            .filter(|(t, _)| *t <= ZERO_THROTTLE_EPS)
            .fold((Watts::ZERO, 0usize), |(sum, n), (_, p)| (sum + *p, n + 1));
        if zero_count > 0 {
            return Some(zero_sum / zero_count as f64);
        }
        // Case 2: OLS intercept at throttle = 0.
        let n = self.window.len() as f64;
        if self.window.len() < 2 {
            return None;
        }
        let mean_t: f64 = self.window.iter().map(|(t, _)| t).sum::<f64>() / n;
        let mean_p: f64 = self.window.iter().map(|(_, p)| p.as_f64()).sum::<f64>() / n;
        let var_t: f64 = self
            .window
            .iter()
            .map(|(t, _)| (t - mean_t) * (t - mean_t))
            .sum::<f64>()
            / n;
        if var_t < MIN_VARIANCE {
            return None;
        }
        let cov: f64 = self
            .window
            .iter()
            .map(|(t, p)| (t - mean_t) * (p.as_f64() - mean_p))
            .sum::<f64>()
            / n;
        let slope = cov / var_t;
        let intercept = mean_p - slope * mean_t;
        let max_measured = self
            .window
            .iter()
            .map(|(_, p)| *p)
            .max_by(Watts::total_cmp)
            .expect("non-empty window");
        Some(Watts::new(intercept).max(max_measured))
    }

    /// Like [`DemandEstimator::estimate`], but when the regression is
    /// degenerate (constant non-zero throttle — a server pinned at a steady
    /// cap) falls back to single-point inversion using the server's known
    /// idle power: `demand = idle + (power − idle) / (1 − throttle)`.
    ///
    /// Without this fallback a steadily-capped server's demand estimate
    /// collapses to its capped power and can never recover when budget
    /// frees up elsewhere.
    pub fn estimate_with_idle(&self, idle: Watts) -> Option<Watts> {
        if let Some(e) = self.estimate() {
            return Some(e);
        }
        let &(t, p) = self.window.back()?;
        if t >= 1.0 - 1e-9 {
            return Some(p);
        }
        let dynamic = (p - idle).clamp_non_negative();
        Some(idle + dynamic / (1.0 - t))
    }
}

impl Default for DemandEstimator {
    fn default() -> Self {
        DemandEstimator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_estimates_nothing() {
        let est = DemandEstimator::new();
        assert_eq!(est.estimate(), None);
        assert!(est.is_empty());
    }

    #[test]
    fn zero_throttle_samples_win() {
        let mut est = DemandEstimator::new();
        est.push(Ratio::new(0.3), Watts::new(300.0));
        est.push(Ratio::ZERO, Watts::new(425.0));
        est.push(Ratio::ZERO, Watts::new(435.0));
        // Mean of the two unthrottled readings.
        assert_eq!(est.estimate(), Some(Watts::new(430.0)));
    }

    #[test]
    fn regression_recovers_linear_demand() {
        let mut est = DemandEstimator::new();
        // power = demand − dyn × t with demand 430, dyn 270.
        for t in [0.1, 0.2, 0.3, 0.4, 0.5] {
            est.push(Ratio::new(t), Watts::new(430.0 - 270.0 * t));
        }
        let d = est.estimate().unwrap();
        assert!((d.as_f64() - 430.0).abs() < 1e-6, "estimated {d}");
    }

    #[test]
    fn constant_throttle_is_degenerate() {
        let mut est = DemandEstimator::new();
        for _ in 0..5 {
            est.push(Ratio::new(0.4), Watts::new(322.0));
        }
        assert_eq!(est.estimate(), None);
    }

    #[test]
    fn window_slides() {
        let mut est = DemandEstimator::with_window(4);
        // Old demand 430; then workload drops to demand 300 (dyn 140).
        for t in [0.1, 0.2, 0.3, 0.4] {
            est.push(Ratio::new(t), Watts::new(430.0 - 270.0 * t));
        }
        for t in [0.1, 0.2, 0.3, 0.4] {
            est.push(Ratio::new(t), Watts::new(300.0 - 140.0 * t));
        }
        let d = est.estimate().unwrap();
        assert!((d.as_f64() - 300.0).abs() < 1e-6, "estimated {d}");
        assert_eq!(est.len(), 4);
    }

    #[test]
    fn intercept_clamped_to_max_measurement() {
        let mut est = DemandEstimator::new();
        // Noisy positive-slope data would regress to an intercept below
        // the measurements; the estimate must not.
        est.push(Ratio::new(0.1), Watts::new(300.0));
        est.push(Ratio::new(0.5), Watts::new(380.0));
        let d = est.estimate().unwrap();
        assert!(d >= Watts::new(380.0));
    }

    #[test]
    fn clear_resets() {
        let mut est = DemandEstimator::new();
        est.push(Ratio::new(0.2), Watts::new(400.0));
        est.clear();
        assert!(est.is_empty());
        assert_eq!(est.estimate(), None);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_window_rejected() {
        let _ = DemandEstimator::with_window(1);
    }

    #[test]
    fn idle_fallback_inverts_constant_throttle() {
        let mut est = DemandEstimator::new();
        // Pinned at 50 % throttle with power 295 W; idle 160 W ⇒
        // demand = 160 + 135 / 0.5 = 430 W.
        for _ in 0..5 {
            est.push(Ratio::new(0.5), Watts::new(295.0));
        }
        assert_eq!(est.estimate(), None);
        let d = est.estimate_with_idle(Watts::new(160.0)).unwrap();
        assert!((d.as_f64() - 430.0).abs() < 1e-9, "estimated {d}");
    }

    #[test]
    fn idle_fallback_prefers_regression_when_available() {
        let mut est = DemandEstimator::new();
        for t in [0.1, 0.2, 0.3] {
            est.push(Ratio::new(t), Watts::new(430.0 - 270.0 * t));
        }
        // Regression already answers; idle value is ignored.
        let d = est.estimate_with_idle(Watts::new(999.0)).unwrap();
        assert!((d.as_f64() - 430.0).abs() < 1e-6);
    }

    #[test]
    fn idle_fallback_full_throttle_returns_power() {
        let mut est = DemandEstimator::new();
        est.push(Ratio::ONE, Watts::new(270.0));
        assert_eq!(
            est.estimate_with_idle(Watts::new(160.0)),
            Some(Watts::new(270.0))
        );
    }

    const IDLE: Watts = Watts::new(160.0);
    const CAP_MAX: Watts = Watts::new(490.0);

    #[test]
    fn screening_rejects_implausible_readings() {
        let mut est = DemandEstimator::new();
        // A dark server reads 0 W: below 0.5·idle, rejected.
        assert_eq!(
            est.push_screened(Ratio::ZERO, Watts::ZERO, IDLE, CAP_MAX),
            SampleFate::RejectedImplausible
        );
        // A wild spike above 1.5·cap_max: rejected.
        assert_eq!(
            est.push_screened(Ratio::ZERO, Watts::new(800.0), IDLE, CAP_MAX),
            SampleFate::RejectedImplausible
        );
        assert!(est.is_empty(), "rejected samples must not enter the window");
        // A sane reading is accepted.
        assert_eq!(
            est.push_screened(Ratio::ZERO, Watts::new(420.0), IDLE, CAP_MAX),
            SampleFate::Accepted
        );
        assert_eq!(est.len(), 1);
    }

    #[test]
    fn median_filter_absorbs_in_range_spike() {
        let mut est = DemandEstimator::new();
        // Steady 420 W with one in-range spike to 700 W (< 1.5·cap_max).
        for p in [420.0, 421.0, 700.0, 419.0, 420.0] {
            assert_eq!(
                est.push_screened(Ratio::ZERO, Watts::new(p), IDLE, CAP_MAX),
                SampleFate::Accepted
            );
        }
        // The spike never reaches the regression window: the zero-throttle
        // mean stays near 420 W instead of being dragged ~56 W high.
        let d = est.estimate().unwrap();
        assert!((d.as_f64() - 420.0).abs() < 2.0, "estimated {d}");
    }

    #[test]
    fn median_filter_keeps_throttle_power_pairs_together() {
        let mut est = DemandEstimator::with_window(4);
        // Two samples on the true line power = 430 − 270·t, then a spike
        // far off it: the replacement median must carry its own throttle,
        // not mix pairs.
        est.push_screened(Ratio::new(0.1), Watts::new(403.0), IDLE, CAP_MAX);
        est.push_screened(Ratio::new(0.3), Watts::new(349.0), IDLE, CAP_MAX);
        est.push_screened(Ratio::new(0.2), Watts::new(700.0), IDLE, CAP_MAX);
        // Window holds (0.1, 403) pass-through, (0.3, 349) pass-through,
        // then the spike replaced by median-by-power (0.1, 403) — all on
        // the line, so the regression recovers the true intercept exactly.
        let d = est.estimate().unwrap();
        assert!((d.as_f64() - 430.0).abs() < 1e-6, "estimated {d}");
    }

    #[test]
    fn spike_filter_passes_smooth_streams_verbatim() {
        let mut filtered = DemandEstimator::new();
        let mut plain = DemandEstimator::new();
        // A capped server's healthy oscillation (< 25 % of dynamic range
        // step to step) must enter the window bit-identically to plain
        // `push` — robustness must not perturb fault-free control.
        for (t, p) in [
            (0.20, 376.0),
            (0.25, 362.5),
            (0.18, 381.4),
            (0.30, 349.0),
            (0.22, 370.6),
        ] {
            filtered.push_screened(Ratio::new(t), Watts::new(p), IDLE, CAP_MAX);
            plain.push(Ratio::new(t), Watts::new(p));
        }
        assert_eq!(filtered.estimate(), plain.estimate());
    }

    #[test]
    fn clear_resets_median_filter() {
        let mut est = DemandEstimator::new();
        for p in [420.0, 460.0, 440.0] {
            est.push_screened(Ratio::ZERO, Watts::new(p), IDLE, CAP_MAX);
        }
        est.clear();
        // After a clear the filter is back in pass-through: the first new
        // sample lands in the window verbatim.
        est.push_screened(Ratio::ZERO, Watts::new(300.0), IDLE, CAP_MAX);
        assert_eq!(est.estimate(), Some(Watts::new(300.0)));
    }

    #[test]
    fn saturated_window_absorbs_its_own_sample_unchanged() {
        let mut est = DemandEstimator::with_window(4);
        let (t, p) = (Ratio::new(0.25), Watts::new(400.0));
        for _ in 0..3 {
            est.push_screened(t, p, IDLE, CAP_MAX);
            assert!(!est.saturated_with(t, p), "window not yet full");
        }
        est.push_screened(t, p, IDLE, CAP_MAX);
        assert!(est.saturated_with(t, p));
        let before = format!("{est:?}");
        est.push_screened(t, p, IDLE, CAP_MAX);
        assert_eq!(format!("{est:?}"), before, "a saturated push is the identity");
        // Any other sample, even an equal power at another throttle, moves it.
        assert!(!est.saturated_with(Ratio::new(0.5), p));
        assert!(!est.saturated_with(t, Watts::new(401.0)));
        // A plain push fills the window but not the spike filter's history.
        let mut plain = DemandEstimator::with_window(4);
        (0..8).for_each(|_| plain.push(t, p));
        assert!(!plain.saturated_with(t, p));
    }

    #[test]
    fn noisy_regression_stays_close() {
        let mut est = DemandEstimator::new();
        // ±2 W measurement noise.
        let noise = [1.5, -2.0, 0.5, -1.0, 2.0, -0.5, 1.0, -1.5];
        for (i, t) in [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
            .iter()
            .enumerate()
        {
            est.push(
                Ratio::new(*t),
                Watts::new(430.0 - 270.0 * t + noise[i]),
            );
        }
        let d = est.estimate().unwrap();
        assert!((d.as_f64() - 430.0).abs() < 10.0, "estimated {d}");
    }
}
