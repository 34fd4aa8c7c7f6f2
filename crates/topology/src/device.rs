//! Typed descriptions of power-distribution equipment.

use core::fmt;

use capmaestro_units::Watts;

use crate::breaker::CircuitBreaker;

/// The kind of equipment at a power-distribution point (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// External utility power source entering the building (12.5 kV).
    UtilityFeed,
    /// Automatic transfer switch (fails over to an on-site generator).
    Ats,
    /// Uninterruptible power supply.
    Ups,
    /// Step-down transformer (480 V → 400 V line-to-line).
    Transformer,
    /// Remote power panel: a 42-pole box of branch circuit breakers.
    Rpp,
    /// Cabinet distribution unit in a rack.
    Cdu,
    /// A single outlet feeding one server power supply.
    Outlet,
    /// A virtual node carrying a contractual budget rather than a physical
    /// limit (paper §4.1: "work with power budgets based on restrictions
    /// aside from physical equipment limits").
    Virtual,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceKind::UtilityFeed => "utility feed",
            DeviceKind::Ats => "ATS",
            DeviceKind::Ups => "UPS",
            DeviceKind::Transformer => "transformer",
            DeviceKind::Rpp => "RPP",
            DeviceKind::Cdu => "CDU",
            DeviceKind::Outlet => "outlet",
            DeviceKind::Virtual => "virtual",
        };
        f.write_str(s)
    }
}

/// Identifies one of the redundant power feeds (sides) of the data center.
///
/// The paper labels them A/B (Fig. 1) or X/Y (Fig. 7a); this type is just an
/// index so any number of feeds can be modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FeedId(pub u8);

impl FeedId {
    /// The A (or X) side.
    pub const A: FeedId = FeedId(0);
    /// The B (or Y) side.
    pub const B: FeedId = FeedId(1);

    /// Returns the index as `usize` for container addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FeedId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "feed A"),
            1 => write!(f, "feed B"),
            n => write!(f, "feed #{n}"),
        }
    }
}

/// One of the three phases of three-phase power delivery.
///
/// The paper replicates the control tree per phase "since loading on each
/// phase is not always uniform" (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Phase 1 (L1).
    L1,
    /// Phase 2 (L2).
    L2,
    /// Phase 3 (L3).
    L3,
}

impl Phase {
    /// All three phases, in order.
    pub const ALL: [Phase; 3] = [Phase::L1, Phase::L2, Phase::L3];

    /// Assigns index `i` to a phase round-robin, the conventional way racks
    /// balance servers across phases.
    pub(crate) fn round_robin(i: usize) -> Phase {
        Phase::ALL[i % 3]
    }

    /// Returns the phase's index in `[0, 3)`.
    pub fn index(self) -> usize {
        match self {
            Phase::L1 => 0,
            Phase::L2 => 1,
            Phase::L3 => 2,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::L1 => write!(f, "L1"),
            Phase::L2 => write!(f, "L2"),
            Phase::L3 => write!(f, "L3"),
        }
    }
}

/// Index of a power supply within a server (0-based).
///
/// A dual-corded server has supplies 0 and 1, connected to different feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SupplyIndex(pub u8);

impl SupplyIndex {
    /// First supply.
    pub const FIRST: SupplyIndex = SupplyIndex(0);
    /// Second supply.
    pub const SECOND: SupplyIndex = SupplyIndex(1);

    /// Returns the index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SupplyIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PS{}", self.0 + 1)
    }
}

/// A piece of power-distribution equipment placed at a node of the
/// distribution tree.
///
/// A device may carry a [`CircuitBreaker`] (physical limit, per phase), an
/// extra non-physical limit (e.g. a contractual budget), both, or neither
/// (a pure pass-through such as an ATS whose limit is elsewhere).
///
/// # Examples
///
/// ```
/// use capmaestro_topology::{CircuitBreaker, DeviceKind, PowerDevice};
/// use capmaestro_units::Watts;
///
/// let rpp = PowerDevice::new("RPP-3", DeviceKind::Rpp)
///     .with_breaker(CircuitBreaker::with_default_derating(Watts::from_kilowatts(52.0)));
/// assert_eq!(rpp.effective_limit(), Some(Watts::new(41_600.0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerDevice {
    name: String,
    kind: DeviceKind,
    breaker: Option<CircuitBreaker>,
    extra_limit: Option<Watts>,
}

impl PowerDevice {
    /// Creates an unlimited pass-through device.
    pub fn new(name: impl Into<String>, kind: DeviceKind) -> Self {
        PowerDevice {
            name: name.into(),
            kind,
            breaker: None,
            extra_limit: None,
        }
    }

    /// Attaches a breaker protecting this distribution point.
    #[must_use]
    pub fn with_breaker(mut self, breaker: CircuitBreaker) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Attaches a non-physical limit such as a contractual budget
    /// (interpreted per phase, like breaker limits).
    ///
    /// # Panics
    ///
    /// Panics if the limit is not positive.
    #[must_use]
    pub fn with_extra_limit(mut self, limit: Watts) -> Self {
        assert!(
            limit > Watts::ZERO,
            "extra limit must be positive, got {limit}"
        );
        self.extra_limit = Some(limit);
        self
    }

    /// The device's name (for reports and debugging).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kind of equipment.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// The protecting breaker, if any.
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.breaker.as_ref()
    }

    /// The budgeting limit at this point: the minimum of the breaker's
    /// derated limit and the extra limit. `None` means unconstrained.
    pub fn effective_limit(&self) -> Option<Watts> {
        match (self.breaker.map(|b| b.derated_limit()), self.extra_limit) {
            (Some(b), Some(e)) => Some(b.min(e)),
            (Some(b), None) => Some(b),
            (None, Some(e)) => Some(e),
            (None, None) => None,
        }
    }
}

impl fmt::Display for PowerDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.kind)?;
        if let Some(limit) = self.effective_limit() {
            write!(f, " limit {limit:.0}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capmaestro_units::Ratio;
    use proptest::prelude::*;

    proptest! {
        /// Round-robin phase assignment balances any multiple-of-three count.
        #[test]
        fn round_robin_balances(groups in 1usize..60) {
            let n = groups * 3;
            let mut counts = [0usize; 3];
            for i in 0..n {
                counts[Phase::round_robin(i).index()] += 1;
            }
            prop_assert_eq!(counts, [groups, groups, groups]);
        }
    }

    #[test]
    fn round_robin_phases() {
        let phases: Vec<Phase> = (0..6).map(Phase::round_robin).collect();
        assert_eq!(
            phases,
            [
                Phase::L1,
                Phase::L2,
                Phase::L3,
                Phase::L1,
                Phase::L2,
                Phase::L3
            ]
        );
    }

    #[test]
    fn phase_indices_roundtrip() {
        for p in Phase::ALL {
            assert_eq!(Phase::ALL[p.index()], p);
        }
    }

    #[test]
    fn feed_ids() {
        assert_eq!(FeedId::A.index(), 0);
        assert_eq!(FeedId::B.index(), 1);
        assert_eq!(FeedId::A.to_string(), "feed A");
        assert_eq!(FeedId(2).to_string(), "feed #2");
    }

    #[test]
    fn supply_index_display_is_one_based() {
        assert_eq!(SupplyIndex::FIRST.to_string(), "PS1");
        assert_eq!(SupplyIndex::SECOND.to_string(), "PS2");
    }

    #[test]
    fn effective_limit_combinations() {
        let base = PowerDevice::new("d", DeviceKind::Cdu);
        assert_eq!(base.effective_limit(), None);

        let cb = CircuitBreaker::new(Watts::new(1000.0), Ratio::new(0.8));
        let with_cb = base.clone().with_breaker(cb);
        assert_eq!(with_cb.effective_limit(), Some(Watts::new(800.0)));

        let with_extra = base.clone().with_extra_limit(Watts::new(700.0));
        assert_eq!(with_extra.effective_limit(), Some(Watts::new(700.0)));

        let both = with_cb.with_extra_limit(Watts::new(700.0));
        assert_eq!(both.effective_limit(), Some(Watts::new(700.0)));

        let both_cb_lower = base
            .with_breaker(CircuitBreaker::new(Watts::new(500.0), Ratio::new(0.8)))
            .with_extra_limit(Watts::new(700.0));
        assert_eq!(both_cb_lower.effective_limit(), Some(Watts::new(400.0)));
    }

    #[test]
    #[should_panic(expected = "extra limit must be positive")]
    fn zero_extra_limit_panics() {
        let _ = PowerDevice::new("d", DeviceKind::Virtual).with_extra_limit(Watts::ZERO);
    }

    #[test]
    fn device_display() {
        let d = PowerDevice::new("CDU-7", DeviceKind::Cdu)
            .with_breaker(CircuitBreaker::with_default_derating(Watts::new(6900.0)));
        assert_eq!(d.to_string(), "CDU-7 (CDU) limit 5520 W");
        let plain = PowerDevice::new("ATS-1", DeviceKind::Ats);
        assert_eq!(plain.to_string(), "ATS-1 (ATS)");
    }
}
