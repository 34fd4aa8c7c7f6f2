//! The node-manager actuator: DC power capping with realistic settling.
//!
//! Intel Node Manager (paper \[7\]) accepts a **DC** power cap and adjusts
//! processor voltage/frequency until the server complies, within about six
//! seconds (§5: "the node manager then ensures that the server power is
//! within the cap in 6 seconds"). [`NodeManager`] models that interface: a
//! commanded cap plus a first-order settling filter whose time constant
//! makes the output ~98 % settled after six seconds.

use core::fmt;

use capmaestro_units::{Ratio, Seconds, Watts};

/// Default settling time constant. With τ = 1.5 s, a step is 98 % settled
/// after 6 s — matching the node-manager behaviour the paper measures.
pub const DEFAULT_TAU: Seconds = Seconds::new(1.5);

/// An Intel-Node-Manager-like DC power-cap actuator.
///
/// # Examples
///
/// ```
/// use capmaestro_server::NodeManager;
/// use capmaestro_units::Watts;
///
/// let mut nm = NodeManager::new();
/// assert_eq!(nm.dc_cap(), None);
/// nm.set_dc_cap(Watts::new(350.0));
/// assert_eq!(nm.dc_cap(), Some(Watts::new(350.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeManager {
    dc_cap: Option<Watts>,
}

impl NodeManager {
    /// Creates an uncapped node manager.
    pub fn new() -> Self {
        NodeManager { dc_cap: None }
    }

    /// The current DC cap, if one is set.
    pub fn dc_cap(&self) -> Option<Watts> {
        self.dc_cap
    }

    /// Commands a DC power cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not positive (a zero cap cannot be enforced; use
    /// [`NodeManager::clear_cap`] to uncap).
    pub fn set_dc_cap(&mut self, cap: Watts) {
        assert!(cap > Watts::ZERO, "DC cap must be positive, got {cap}");
        self.dc_cap = Some(cap);
    }

    /// Removes the cap (full performance).
    pub fn clear_cap(&mut self) {
        self.dc_cap = None;
    }

    /// The cap translated to the AC domain given the PSU bank efficiency
    /// `k` (AC = DC / k).
    pub fn ac_cap(&self, efficiency: Ratio) -> Option<Watts> {
        self.dc_cap.map(|c| c / efficiency)
    }

    /// First-order approach of `current` toward `target` over `dt` with
    /// time constant [`DEFAULT_TAU`]: the settling dynamic shared by
    /// capping and uncapping transients.
    pub fn approach(&self, current: Watts, target: Watts, dt: Seconds) -> Watts {
        let alpha = 1.0 - (-dt.as_f64() / DEFAULT_TAU.as_f64()).exp();
        current + (target - current) * alpha
    }
}

impl Default for NodeManager {
    fn default() -> Self {
        NodeManager::new()
    }
}

impl fmt::Display for NodeManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dc_cap {
            Some(cap) => write!(f, "node manager [DC cap {cap:.0}]"),
            None => write!(f, "node manager [uncapped]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_lifecycle() {
        let mut nm = NodeManager::new();
        assert_eq!(nm.dc_cap(), None);
        nm.set_dc_cap(Watts::new(400.0));
        assert_eq!(nm.dc_cap(), Some(Watts::new(400.0)));
        nm.clear_cap();
        assert_eq!(nm.dc_cap(), None);
    }

    #[test]
    fn ac_cap_conversion() {
        let mut nm = NodeManager::new();
        nm.set_dc_cap(Watts::new(376.0));
        let ac = nm.ac_cap(Ratio::new(0.94)).unwrap();
        assert!((ac.as_f64() - 400.0).abs() < 1e-9);
        assert_eq!(NodeManager::new().ac_cap(Ratio::new(0.94)), None);
    }

    #[test]
    fn settles_within_six_seconds() {
        let nm = NodeManager::new();
        let target = Watts::new(300.0);
        let mut p = Watts::new(500.0);
        for _ in 0..6 {
            p = nm.approach(p, target, Seconds::new(1.0));
        }
        // Within 2 % of the 200 W step after 6 s.
        assert!((p - target).as_f64().abs() < 0.02 * 200.0);
    }

    #[test]
    fn approach_converges_monotonically() {
        let nm = NodeManager::new();
        let target = Watts::new(250.0);
        let mut p = Watts::new(450.0);
        let mut prev_gap = (p - target).as_f64().abs();
        for _ in 0..20 {
            p = nm.approach(p, target, Seconds::new(1.0));
            let gap = (p - target).as_f64().abs();
            assert!(gap < prev_gap);
            prev_gap = gap;
        }
    }

    #[test]
    #[should_panic(expected = "DC cap must be positive")]
    fn zero_cap_rejected() {
        NodeManager::new().set_dc_cap(Watts::ZERO);
    }

    #[test]
    fn display() {
        let mut nm = NodeManager::new();
        assert_eq!(nm.to_string(), "node manager [uncapped]");
        nm.set_dc_cap(Watts::new(350.0));
        assert_eq!(nm.to_string(), "node manager [DC cap 350 W]");
    }
}
