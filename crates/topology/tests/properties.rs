//! Property-based tests for breakers and topology invariants.

use proptest::prelude::*;

use capmaestro_topology::presets::{table4_datacenter, DataCenterParams};
use capmaestro_topology::{BreakerSim, BreakerState, CircuitBreaker, Priority};
use capmaestro_units::{Seconds, Watts};

proptest! {
    /// A breaker never trips while held at or below its rating.
    #[test]
    fn no_trip_at_or_below_rating(load_frac in 0.0f64..1.0, seconds in 1u32..10_000) {
        let cb = CircuitBreaker::with_default_derating(Watts::new(1000.0));
        let mut sim = BreakerSim::new(cb);
        for _ in 0..seconds.min(500) {
            sim.step(Watts::new(1000.0 * load_frac), Seconds::new(1.0));
        }
        prop_assert_eq!(sim.state(), BreakerState::Closed);
    }

    /// The Table 4 generator always produces a valid topology whose six
    /// control trees partition all supplies.
    #[test]
    fn table4_specs_partition_supplies(spr in 1usize..16) {
        let params = DataCenterParams {
            racks: 4,
            transformers_per_feed: 1,
            rpps_per_transformer: 2,
            cdus_per_rpp: 2,
            servers_per_rack: spr,
            ..DataCenterParams::default()
        };
        let (topo, placements) = table4_datacenter(&params, |i| {
            if i % 3 == 0 { Priority::HIGH } else { Priority::LOW }
        });
        prop_assert!(topo.validate().is_ok());
        prop_assert_eq!(placements.len(), 4 * spr);
        let specs = topo.control_tree_specs();
        let total_leaves: usize = specs.iter().map(|s| s.leaves().count()).sum();
        // Every server appears exactly once per feed (2 supplies each).
        prop_assert_eq!(total_leaves, topo.server_count() * 2);
    }
}
