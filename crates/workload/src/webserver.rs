//! An Apache-HTTP-Server-like performance model.
//!
//! The paper's testbed runs the Apache HTTP Server loaded by `ab` and
//! reports *normalized* throughput (queries/s relative to uncapped) and
//! relative latency changes. Under saturation — which `ab` ensures — served
//! throughput scales with the CPU performance the power cap leaves
//! available, and per-query latency scales inversely with it. That simple
//! model reproduces the paper's numbers: an 18 % throughput loss pairs with
//! a ~21 % latency increase (Fig. 6a's No-Priority row), exactly
//! `1/0.82 − 1`.

use core::fmt;

use capmaestro_units::Ratio;

/// Performance model of a saturated web-serving workload.
///
/// # Examples
///
/// ```
/// use capmaestro_workload::WebServerModel;
/// use capmaestro_units::Ratio;
///
/// let apache = WebServerModel::new(1000.0, 5.0);
/// let capped = apache.at_performance(Ratio::new(0.82));
/// assert!((capped.throughput_qps - 820.0).abs() < 1e-9);
/// assert!((capped.latency_ms - 5.0 / 0.82).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebServerModel {
    peak_qps: f64,
    base_latency_ms: f64,
}

/// Observed workload performance at a given capping level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadPerformance {
    /// Served queries per second.
    pub throughput_qps: f64,
    /// Mean per-query latency in milliseconds.
    pub latency_ms: f64,
    /// Throughput normalized to the uncapped peak.
    pub normalized_throughput: Ratio,
}

impl WebServerModel {
    /// Creates a model from the uncapped peak throughput and base latency.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    pub fn new(peak_qps: f64, base_latency_ms: f64) -> Self {
        assert!(
            peak_qps.is_finite() && peak_qps > 0.0,
            "peak throughput must be positive"
        );
        assert!(
            base_latency_ms.is_finite() && base_latency_ms > 0.0,
            "base latency must be positive"
        );
        WebServerModel {
            peak_qps,
            base_latency_ms,
        }
    }

    /// Performance at a given fraction of uncapped CPU performance (the
    /// server's `performance_fraction`, i.e. 1 − throttle).
    ///
    /// A fully-throttled server (`perf = 0`) serves nothing; latency is
    /// reported as infinite.
    pub fn at_performance(&self, perf: Ratio) -> WorkloadPerformance {
        let p = perf.clamp_fraction().as_f64();
        let throughput = self.peak_qps * p;
        let latency = if p > 0.0 {
            self.base_latency_ms / p
        } else {
            f64::INFINITY
        };
        WorkloadPerformance {
            throughput_qps: throughput,
            latency_ms: latency,
            normalized_throughput: Ratio::new(p),
        }
    }

    /// Relative latency increase versus uncapped, as a fraction
    /// (e.g. `0.21` for +21 %). Infinite when fully throttled.
    pub fn latency_increase(&self, perf: Ratio) -> f64 {
        let p = perf.clamp_fraction().as_f64();
        if p > 0.0 {
            1.0 / p - 1.0
        } else {
            f64::INFINITY
        }
    }
}

impl fmt::Display for WebServerModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "web server [{:.0} qps peak, {:.1} ms base latency]",
            self.peak_qps, self.base_latency_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncapped_performance() {
        let m = WebServerModel::new(800.0, 4.0);
        let p = m.at_performance(Ratio::ONE);
        assert_eq!(p.throughput_qps, 800.0);
        assert_eq!(p.latency_ms, 4.0);
        assert_eq!(p.normalized_throughput, Ratio::ONE);
        assert_eq!(m.latency_increase(Ratio::ONE), 0.0);
    }

    #[test]
    fn fig6a_no_priority_numbers() {
        // 18 % lower throughput should pair with ~21 % higher latency,
        // the exact combination Fig. 6a/§6.2 reports for SA.
        let m = WebServerModel::new(1000.0, 5.0);
        let p = m.at_performance(Ratio::new(0.82));
        assert!((p.normalized_throughput.as_f64() - 0.82).abs() < 1e-12);
        let inc = m.latency_increase(Ratio::new(0.82));
        assert!((inc - 0.2195).abs() < 0.001, "latency increase {inc}");
    }

    #[test]
    fn fig6a_local_priority_numbers() {
        // 13 % lower throughput ⇒ ~15 % higher latency.
        let m = WebServerModel::new(1000.0, 5.0);
        let inc = m.latency_increase(Ratio::new(0.87));
        assert!((inc - 0.1494).abs() < 0.001, "latency increase {inc}");
    }

    #[test]
    fn zero_performance_serves_nothing() {
        let m = WebServerModel::new(1000.0, 5.0);
        let p = m.at_performance(Ratio::ZERO);
        assert_eq!(p.throughput_qps, 0.0);
        assert!(p.latency_ms.is_infinite());
        assert!(m.latency_increase(Ratio::ZERO).is_infinite());
    }

    #[test]
    fn performance_clamped() {
        let m = WebServerModel::new(1000.0, 5.0);
        let p = m.at_performance(Ratio::new(1.4));
        assert_eq!(p.throughput_qps, 1000.0);
    }

    #[test]
    #[should_panic(expected = "peak throughput")]
    fn invalid_peak_rejected() {
        let _ = WebServerModel::new(0.0, 5.0);
    }

    #[test]
    fn display() {
        let m = WebServerModel::new(1000.0, 5.0);
        assert_eq!(m.to_string(), "web server [1000 qps peak, 5.0 ms base latency]");
    }
}
