//! Ready-made topologies for the paper's experiments.
//!
//! - [`figure2_feed`] — the single-feed, three-breaker example of Fig. 2
//!   (used by Table 1, Table 2, and Fig. 6),
//! - [`figure7a_rig`] — the dual-feed stranded-power rig of Fig. 7a
//!   (used by Table 3 and Figs. 7b/7c),
//! - [`table4_datacenter`] — the production-scale data center of Table 4
//!   (used by Figs. 9 and 10).

use capmaestro_units::Watts;

use crate::breaker::CircuitBreaker;
use crate::builder::{budget_node, TopologyBuilder};
use crate::device::{DeviceKind, FeedId, Phase, PowerDevice};
use crate::graph::NodeId;
use crate::topo::{Priority, ServerId, Topology};

/// Names of the four servers used by the small-rig presets, in order.
pub const RIG_SERVER_NAMES: [&str; 4] = ["SA", "SB", "SC", "SD"];

/// The Fig. 2 example feed: a 1400 W top breaker over two 750 W child
/// breakers, with servers SA+SB on the left and SC+SD on the right; SA is
/// high priority. All four servers are single-corded on phase L1.
///
/// Breaker limits follow the figure verbatim (the figure's "Limit" labels
/// are already usable budgets, so no extra derating is applied here).
///
/// ```
/// use capmaestro_topology::presets::figure2_feed;
///
/// let topo = figure2_feed();
/// assert_eq!(topo.server_count(), 4);
/// assert_eq!(topo.control_tree_specs().len(), 1);
/// ```
pub fn figure2_feed() -> Topology {
    let mut b = TopologyBuilder::new();
    let root = b.add_feed(FeedId::A, budget_node("Top CB", Watts::new(1400.0)));
    let left = b
        .add_node(FeedId::A, root, budget_node("Left CB", Watts::new(750.0)))
        .expect("root exists");
    let right = b
        .add_node(FeedId::A, root, budget_node("Right CB", Watts::new(750.0)))
        .expect("root exists");
    for (i, name) in RIG_SERVER_NAMES.iter().enumerate() {
        let priority = if i == 0 { Priority::HIGH } else { Priority::LOW };
        let under = if i < 2 { left } else { right };
        b.single_corded_server(*name, priority, FeedId::A, under, Phase::L1)
            .expect("attachment is valid");
    }
    b.build().expect("preset topology is valid")
}

/// The Fig. 7a stranded-power rig: two feeds (X = [`FeedId::A`],
/// Y = [`FeedId::B`]), each with a 1400 W top breaker over 750 W left/right
/// breakers. SA is dual-corded but its Y-side cord is disconnected; SB's
/// X-side cord is disconnected; SC and SD are dual-corded. SA is high
/// priority.
///
/// Left breakers carry SA and SB; right breakers carry SC and SD. All
/// servers sit on phase L1 (the rig is single-phase).
pub fn figure7a_rig() -> Topology {
    let mut b = TopologyBuilder::new();
    let mut feed_nodes: Vec<(NodeId, NodeId)> = Vec::new();
    for feed in [FeedId::A, FeedId::B] {
        let label = if feed == FeedId::A { "X" } else { "Y" };
        let root = b.add_feed(feed, budget_node(format!("{label} Top CB"), Watts::new(1400.0)));
        let left = b
            .add_node(feed, root, budget_node(format!("{label} Left CB"), Watts::new(750.0)))
            .expect("root exists");
        let right = b
            .add_node(feed, root, budget_node(format!("{label} Right CB"), Watts::new(750.0)))
            .expect("root exists");
        feed_nodes.push((left, right));
    }
    let (left_x, right_x) = feed_nodes[0];
    let (left_y, right_y) = feed_nodes[1];

    // SA: X-side only (its Y cord is pulled).
    b.single_corded_server("SA", Priority::HIGH, FeedId::A, left_x, Phase::L1)
        .expect("valid attachment");
    // SB: Y-side only (its X cord is pulled).
    b.single_corded_server("SB", Priority::LOW, FeedId::B, left_y, Phase::L1)
        .expect("valid attachment");
    // SC and SD: both feeds.
    b.dual_corded_server(
        "SC",
        Priority::LOW,
        [(FeedId::A, right_x), (FeedId::B, right_y)],
        Phase::L1,
    )
    .expect("valid attachment");
    b.dual_corded_server(
        "SD",
        Priority::LOW,
        [(FeedId::A, right_x), (FeedId::B, right_y)],
        Phase::L1,
    )
    .expect("valid attachment");
    b.build().expect("preset topology is valid")
}

/// A single-feed room of `racks` rack breakers with `servers_per_rack`
/// single-corded servers each — the rig of the distributed control-plane
/// tests and the `partition` bench, where one rack maps onto one agent
/// process.
///
/// Rack breakers are sized at 360 W per server and the room breaker at
/// 330 W per server, so the room is mildly oversubscribed (demand of
/// 420 W per server cannot be met everywhere) and every rack sees real
/// budget pressure. The first server of every rack is high priority.
///
/// # Panics
///
/// Panics if `racks` or `servers_per_rack` is zero.
///
/// ```
/// use capmaestro_topology::presets::racks_feed;
///
/// let topo = racks_feed(4, 3);
/// assert_eq!(topo.server_count(), 12);
/// assert_eq!(topo.control_tree_specs().len(), 1);
/// ```
pub fn racks_feed(racks: usize, servers_per_rack: usize) -> Topology {
    assert!(racks > 0, "at least one rack is required");
    assert!(servers_per_rack > 0, "at least one server per rack is required");
    let per_rack = Watts::new(360.0 * servers_per_rack as f64);
    let room = Watts::new(330.0 * (racks * servers_per_rack) as f64);
    let mut b = TopologyBuilder::new();
    let root = b.add_feed(FeedId::A, budget_node("Room CB", room));
    for r in 0..racks {
        let rack = b
            .add_node(FeedId::A, root, budget_node(format!("Rack{r} CB"), per_rack))
            .expect("root exists");
        for s in 0..servers_per_rack {
            let priority = if s == 0 { Priority::HIGH } else { Priority::LOW };
            b.single_corded_server(format!("r{r}s{s}"), priority, FeedId::A, rack, Phase::L1)
                .expect("attachment is valid");
        }
    }
    b.build().expect("preset topology is valid")
}

/// Per-server placement inside the Table 4 data center, returned alongside
/// the topology so simulations can map servers back to racks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RackPlacement {
    /// The server.
    pub server: ServerId,
    /// Rack index in `[0, 162)`.
    pub rack: usize,
    /// Slot within the rack.
    pub slot: usize,
    /// Phase the server's supplies tap (round-robin by slot).
    pub phase: Phase,
}

/// Parameters for [`table4_datacenter`]. Defaults follow Table 4 verbatim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataCenterParams {
    /// Racks in the data center.
    pub racks: usize,
    /// Servers installed per rack (the capacity-planning sweep variable,
    /// 6–45 in the paper).
    pub servers_per_rack: usize,
    /// Transformers per feed.
    pub transformers_per_feed: usize,
    /// RPPs per transformer.
    pub rpps_per_transformer: usize,
    /// CDUs (racks) per RPP.
    pub cdus_per_rpp: usize,
    /// Transformer rating, per phase.
    pub transformer_rating: Watts,
    /// RPP rating, per phase.
    pub rpp_rating: Watts,
    /// CDU rating, per phase.
    pub cdu_rating: Watts,
}

impl Default for DataCenterParams {
    fn default() -> Self {
        DataCenterParams {
            racks: 162,
            servers_per_rack: 24,
            transformers_per_feed: 2,
            rpps_per_transformer: 9,
            cdus_per_rpp: 9,
            transformer_rating: Watts::from_kilowatts(420.0),
            rpp_rating: Watts::from_kilowatts(52.0),
            cdu_rating: Watts::from_kilowatts(6.9),
        }
    }
}

impl DataCenterParams {
    /// Total servers this configuration deploys.
    pub fn total_servers(&self) -> usize {
        self.racks * self.servers_per_rack
    }
}

/// Builds the Table 4 production data center: two feeds, each with
/// transformers → RPPs → CDUs protected by 80 %-derated breakers, and
/// `servers_per_rack` dual-corded servers per rack assigned to phases
/// round-robin. Priorities are supplied by `priority_of` (slot-indexed over
/// all servers), letting callers randomize the high-priority placement.
///
/// The feed roots carry no limit — the contractual budget (700 kW per phase
/// × 95 % loading in the paper) is applied at allocation time so the
/// capacity planner can split it across feeds or hand it all to a survivor
/// after a feed failure.
///
/// Returns the topology and the rack placement of every server.
///
/// # Panics
///
/// Panics if `racks` does not equal
/// `transformers_per_feed × rpps_per_transformer × cdus_per_rpp`.
pub fn table4_datacenter(
    params: &DataCenterParams,
    mut priority_of: impl FnMut(usize) -> Priority,
) -> (Topology, Vec<RackPlacement>) {
    let racks_expected =
        params.transformers_per_feed * params.rpps_per_transformer * params.cdus_per_rpp;
    assert_eq!(
        params.racks, racks_expected,
        "rack count {} does not match distribution fan-out {}",
        params.racks, racks_expected
    );

    let mut b = TopologyBuilder::new();
    // cdu_nodes[feed][rack] = CDU node id.
    let mut cdu_nodes: Vec<Vec<NodeId>> = Vec::with_capacity(2);
    for feed in [FeedId::A, FeedId::B] {
        let label = if feed == FeedId::A { "X" } else { "Y" };
        let root = b.add_feed(feed, PowerDevice::new(format!("{label} feed"), DeviceKind::UtilityFeed));
        let mut cdus = Vec::with_capacity(params.racks);
        for t in 0..params.transformers_per_feed {
            let txf = b
                .add_node(
                    feed,
                    root,
                    PowerDevice::new(format!("{label}-TXF{t}"), DeviceKind::Transformer)
                        .with_breaker(CircuitBreaker::with_default_derating(
                            params.transformer_rating,
                        )),
                )
                .expect("root exists");
            for r in 0..params.rpps_per_transformer {
                let rpp = b
                    .add_node(
                        feed,
                        txf,
                        PowerDevice::new(format!("{label}-RPP{t}.{r}"), DeviceKind::Rpp)
                            .with_breaker(CircuitBreaker::with_default_derating(params.rpp_rating)),
                    )
                    .expect("transformer exists");
                for c in 0..params.cdus_per_rpp {
                    let cdu = b
                        .add_node(
                            feed,
                            rpp,
                            PowerDevice::new(
                                format!("{label}-CDU{t}.{r}.{c}"),
                                DeviceKind::Cdu,
                            )
                            .with_breaker(CircuitBreaker::with_default_derating(params.cdu_rating)),
                        )
                        .expect("rpp exists");
                    cdus.push(cdu);
                }
            }
        }
        cdu_nodes.push(cdus);
    }

    let mut placements = Vec::with_capacity(params.total_servers());
    let mut server_index = 0usize;
    for (rack, (cdu_a, cdu_b)) in cdu_nodes[0].iter().zip(&cdu_nodes[1]).enumerate() {
        for slot in 0..params.servers_per_rack {
            let phase = Phase::round_robin(slot);
            let priority = priority_of(server_index);
            let id = b
                .dual_corded_server(
                    format!("r{rack}s{slot}"),
                    priority,
                    [(FeedId::A, *cdu_a), (FeedId::B, *cdu_b)],
                    phase,
                )
                .expect("valid attachment");
            placements.push(RackPlacement {
                server: id,
                rack,
                slot,
                phase,
            });
            server_index += 1;
        }
    }
    let topo = b.build().expect("preset topology is valid");
    (topo, placements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SupplyIndex as SI;

    #[test]
    fn figure2_structure() {
        let topo = figure2_feed();
        assert_eq!(topo.server_count(), 4);
        let sa = topo.server_by_name("SA").unwrap();
        assert_eq!(topo.server(sa).unwrap().priority(), Priority::HIGH);
        for name in ["SB", "SC", "SD"] {
            let id = topo.server_by_name(name).unwrap();
            assert_eq!(topo.server(id).unwrap().priority(), Priority::LOW);
        }
        let specs = topo.control_tree_specs();
        assert_eq!(specs.len(), 1);
        let spec = &specs[0];
        assert_eq!(spec.leaves().count(), 4);
        assert_eq!(spec.node(0).limit, Some(Watts::new(1400.0)));
        // Two internal children of the root, 750 W each.
        let root_children = &spec.node(0).children;
        assert_eq!(root_children.len(), 2);
        for &c in root_children {
            assert_eq!(spec.node(c).limit, Some(Watts::new(750.0)));
            assert_eq!(spec.node(c).children.len(), 2);
        }
    }

    #[test]
    fn figure7a_cords() {
        let topo = figure7a_rig();
        let sa = topo.server_by_name("SA").unwrap();
        let sb = topo.server_by_name("SB").unwrap();
        let sc = topo.server_by_name("SC").unwrap();
        assert_eq!(topo.supply_count(sa), 1);
        assert_eq!(topo.supply_count(sb), 1);
        assert_eq!(topo.supply_count(sc), 2);
        // SA hangs on feed A (X side); SB on feed B (Y side).
        assert_eq!(topo.supply_attachments(sa)[0].0, FeedId::A);
        assert_eq!(topo.supply_attachments(sb)[0].0, FeedId::B);
        // Two control trees: one per feed (single phase rig).
        assert_eq!(topo.control_tree_specs().len(), 2);
    }

    #[test]
    fn figure7a_dual_cord_supplies_are_distinct() {
        let topo = figure7a_rig();
        let sc = topo.server_by_name("SC").unwrap();
        let atts = topo.supply_attachments(sc);
        assert_eq!(atts[0].2.supply, SI::FIRST);
        assert_eq!(atts[1].2.supply, SI::SECOND);
        assert_ne!(atts[0].0, atts[1].0);
    }

    #[test]
    fn racks_feed_structure() {
        let topo = racks_feed(4, 6);
        assert_eq!(topo.server_count(), 24);
        let specs = topo.control_tree_specs();
        assert_eq!(specs.len(), 1);
        let spec = &specs[0];
        // Root carries the room limit, each rack node carries 360 W/server.
        assert_eq!(spec.node(0).limit, Some(Watts::new(330.0 * 24.0)));
        let racks = &spec.node(0).children;
        assert_eq!(racks.len(), 4);
        for &r in racks {
            assert_eq!(spec.node(r).limit, Some(Watts::new(360.0 * 6.0)));
            assert_eq!(spec.node(r).children.len(), 6);
        }
        // First slot of each rack is high priority.
        for r in 0..4 {
            for s in 0..6 {
                let id = topo.server_by_name(&format!("r{r}s{s}")).unwrap();
                let want = if s == 0 { Priority::HIGH } else { Priority::LOW };
                assert_eq!(topo.server(id).unwrap().priority(), want);
            }
        }
        assert!(topo.validate().is_ok());
    }

    #[test]
    fn table4_shape() {
        let params = DataCenterParams {
            servers_per_rack: 6,
            ..DataCenterParams::default()
        };
        let (topo, placements) = table4_datacenter(&params, |_| Priority::LOW);
        assert_eq!(topo.server_count(), 162 * 6);
        assert_eq!(placements.len(), 162 * 6);
        // 2 feeds × 3 phases = 6 control trees.
        let specs = topo.control_tree_specs();
        assert_eq!(specs.len(), 6);
        // Each phase tree sees a third of the servers (6 per rack ⇒ 2).
        for spec in &specs {
            assert_eq!(spec.leaves().count(), 162 * 2);
        }
        // Feed graph: root + 2 TXF + 18 RPP + 162 CDU + outlets.
        let g = topo.feed(FeedId::A).unwrap();
        assert_eq!(g.len(), 1 + 2 + 18 + 162 + 162 * 6);
        assert!(topo.validate().is_ok());
    }

    #[test]
    fn table4_phase_round_robin_balances() {
        let params = DataCenterParams {
            servers_per_rack: 9,
            ..DataCenterParams::default()
        };
        let (_, placements) = table4_datacenter(&params, |_| Priority::LOW);
        let mut counts = [0usize; 3];
        for p in &placements {
            counts[p.phase.index()] += 1;
        }
        assert_eq!(counts, [162 * 3, 162 * 3, 162 * 3]);
    }

    #[test]
    fn table4_priority_callback_indexing() {
        let params = DataCenterParams {
            servers_per_rack: 6,
            ..DataCenterParams::default()
        };
        // Every third server high priority.
        let (topo, placements) =
            table4_datacenter(&params, |i| if i % 3 == 0 { Priority::HIGH } else { Priority::LOW });
        let high = placements
            .iter()
            .filter(|p| topo.server(p.server).unwrap().priority() == Priority::HIGH)
            .count();
        assert_eq!(high, topo.server_count() / 3);
    }

    #[test]
    #[should_panic(expected = "does not match distribution fan-out")]
    fn table4_inconsistent_rack_count_panics() {
        let params = DataCenterParams {
            racks: 100,
            ..DataCenterParams::default()
        };
        let _ = table4_datacenter(&params, |_| Priority::LOW);
    }
}
