//! The [`Topology`]: feeds + servers + attachments, with validation and
//! control-tree extraction.

use core::fmt;

use crate::device::{FeedId, Phase, SupplyIndex};
use crate::error::TopologyError;
use crate::graph::{NodeId, OutletInfo, PowerGraph};
use crate::spec::{ControlTreeSpec, SpecLeaf, SpecNode};

/// Identifies a server across the whole topology.
///
/// Servers are registered with [`Topology::add_server`]; the id is a dense
/// index, cheap to copy and to use as a vector key in large simulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

impl ServerId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server#{}", self.0)
    }
}

/// A workload priority level. **Higher values are more important.**
///
/// The paper expects "on the order of 10" distinct levels in practice
/// (§4.1); this type allows up to 256. During a power emergency, a server
/// at priority `j` is throttled only after every server at priority `< j`
/// has been throttled to its minimum (the property proved in the paper's
/// technical report).
///
/// # Examples
///
/// ```
/// use capmaestro_topology::Priority;
///
/// assert!(Priority::HIGH > Priority::LOW);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Priority(pub u8);

impl Priority {
    /// Conventional low priority (used by the paper's two-level examples).
    pub const LOW: Priority = Priority(0);
    /// Conventional high priority.
    pub const HIGH: Priority = Priority(1);

    /// Returns the raw level.
    pub fn level(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Registry entry for a server: its display name and priority.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    name: String,
    priority: Priority,
}

impl ServerInfo {
    /// Creates a server entry.
    pub fn new(name: impl Into<String>, priority: Priority) -> Self {
        ServerInfo {
            name: name.into(),
            priority,
        }
    }

    /// The server's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The server's priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }
}

/// A complete data-center power topology: one [`PowerGraph`] per redundant
/// feed plus the registry of servers plugged into the outlets.
///
/// Use [`crate::TopologyBuilder`] for ergonomic construction, or assemble
/// graphs manually and register them with [`Topology::add_feed`].
#[derive(Debug, Clone, Default)]
pub struct Topology {
    feeds: Vec<PowerGraph>,
    servers: Vec<ServerInfo>,
    /// Supplies attached via [`Topology::attach_supply`], for O(1)
    /// duplicate checks and counts at data-center scale.
    attached: std::collections::HashSet<(ServerId, SupplyIndex)>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Registers a server, returning its id.
    pub fn add_server(&mut self, info: ServerInfo) -> ServerId {
        let id = ServerId(self.servers.len() as u32);
        self.servers.push(info);
        id
    }

    /// Adds a feed graph.
    ///
    /// # Panics
    ///
    /// Panics if a graph for the same [`FeedId`] is already present.
    pub fn add_feed(&mut self, graph: PowerGraph) -> FeedId {
        let feed = graph.feed();
        assert!(
            self.feed(feed).is_none(),
            "{feed} is already present in the topology"
        );
        self.feeds.push(graph);
        feed
    }

    /// The graph for a feed, if present.
    pub fn feed(&self, feed: FeedId) -> Option<&PowerGraph> {
        self.feeds.iter().find(|g| g.feed() == feed)
    }

    /// Mutable access to a feed's graph.
    pub(crate) fn feed_mut(&mut self, feed: FeedId) -> Option<&mut PowerGraph> {
        self.feeds.iter_mut().find(|g| g.feed() == feed)
    }

    /// All feeds, in registration order.
    pub fn feeds(&self) -> &[PowerGraph] {
        &self.feeds
    }

    /// Number of registered servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// The registry entry for a server.
    pub fn server(&self, id: ServerId) -> Option<&ServerInfo> {
        self.servers.get(id.index())
    }

    /// Looks up a server id by display name (linear scan; intended for
    /// tests and small scenario wiring, not hot paths).
    pub fn server_by_name(&self, name: &str) -> Option<ServerId> {
        self.servers
            .iter()
            .position(|s| s.name() == name)
            .map(|i| ServerId(i as u32))
    }

    /// Iterates `(id, info)` over all servers.
    pub fn servers(&self) -> impl Iterator<Item = (ServerId, &ServerInfo)> + '_ {
        self.servers
            .iter()
            .enumerate()
            .map(|(i, s)| (ServerId(i as u32), s))
    }

    /// Attaches one supply of a server under a node of a feed, creating the
    /// outlet leaf.
    ///
    /// # Errors
    ///
    /// Propagates graph errors and returns [`TopologyError::UnknownFeed`] /
    /// [`TopologyError::UnknownServer`] for dangling references.
    pub(crate) fn attach_supply(
        &mut self,
        server: ServerId,
        supply: SupplyIndex,
        feed: FeedId,
        under: NodeId,
        phase: Phase,
    ) -> Result<NodeId, TopologyError> {
        if self.server(server).is_none() {
            return Err(TopologyError::UnknownServer { server });
        }
        if self.attached.contains(&(server, supply)) {
            return Err(TopologyError::DuplicateSupply { server, supply });
        }
        let graph = self
            .feed_mut(feed)
            .ok_or(TopologyError::UnknownFeed { feed })?;
        let node = graph.attach_outlet(
            under,
            OutletInfo {
                server,
                supply,
                phase,
            },
        )?;
        self.attached.insert((server, supply));
        Ok(node)
    }

    /// All `(feed, node, outlet)` attachments of a server across all feeds.
    pub fn supply_attachments(&self, server: ServerId) -> Vec<(FeedId, NodeId, OutletInfo)> {
        let mut out = Vec::new();
        for g in &self.feeds {
            for (node, o) in g.outlets() {
                if o.server == server {
                    out.push((g.feed(), node, *o));
                }
            }
        }
        out.sort_by_key(|(f, _, o)| (o.supply, *f));
        out
    }

    /// Number of supplies a server has attached (its cord count).
    pub fn supply_count(&self, server: ServerId) -> usize {
        self.attached.iter().filter(|(s, _)| *s == server).count()
    }

    /// Validates the whole topology:
    ///
    /// - every server has at least one supply attachment,
    /// - no feed has an unbounded root-to-leaf path.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), TopologyError> {
        let mut powered = vec![false; self.servers.len()];
        for (server, _) in &self.attached {
            if let Some(slot) = powered.get_mut(server.index()) {
                *slot = true;
            }
        }
        if let Some(unpowered) = powered.iter().position(|p| !p) {
            return Err(TopologyError::UnpoweredServer {
                server: ServerId(unpowered as u32),
            });
        }
        for g in &self.feeds {
            g.validate_bounded()?;
        }
        Ok(())
    }

    /// Extracts the control-tree specifications the controllers mirror:
    /// one spec per (feed, phase) pair that actually powers at least one
    /// outlet (paper §4.1 — six trees for a 2-feed, 3-phase center).
    ///
    /// Branches with no outlet on the spec's phase are pruned, and device
    /// limits are carried over as the shifting controllers' `P_limit`.
    pub fn control_tree_specs(&self) -> Vec<ControlTreeSpec> {
        let mut specs = Vec::new();
        for g in &self.feeds {
            for phase in Phase::ALL {
                if let Some(spec) = extract_spec(self, g, phase) {
                    specs.push(spec);
                }
            }
        }
        specs
    }
}

/// Builds the spec for one (feed, phase), pruning branches without outlets
/// on that phase. Returns `None` when the phase powers nothing on this feed.
fn extract_spec(topo: &Topology, graph: &PowerGraph, phase: Phase) -> Option<ControlTreeSpec> {
    let root = graph.root()?;
    // Mark nodes whose subtree contains an outlet on `phase`. Insertion
    // order is topological, so a reverse scan sees children before parents.
    let mut keep = vec![false; graph.len()];
    for id in graph.iter().collect::<Vec<_>>().into_iter().rev() {
        let self_match = graph
            .outlet(id)
            .is_some_and(|o| o.phase == phase);
        let child_match = graph.children(id).iter().any(|c| keep[c.index()]);
        keep[id.index()] = self_match || child_match;
    }
    if !keep[root.index()] {
        return None;
    }

    let mut spec = ControlTreeSpec::new(graph.feed(), phase);
    let mut map: Vec<Option<usize>> = vec![None; graph.len()];
    for id in graph.iter() {
        if !keep[id.index()] {
            continue;
        }
        let device = graph.device(id);
        let parent = graph.parent(id).and_then(|p| map[p.index()]);
        let leaf = graph.outlet(id).map(|o| {
            let priority = topo
                .server(o.server)
                .map(|s| s.priority())
                .unwrap_or(Priority::LOW);
            SpecLeaf {
                server: o.server,
                supply: o.supply,
                priority,
            }
        });
        let idx = spec.push_node(SpecNode {
            name: device.name().to_string(),
            limit: device.effective_limit(),
            parent,
            children: Vec::new(),
            leaf,
        });
        if let Some(p) = parent {
            spec.node_mut(p).children.push(idx);
        }
        map[id.index()] = Some(idx);
    }
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceKind;
    use crate::device::PowerDevice;
    use capmaestro_units::Watts;

    fn two_feed_topology() -> (Topology, ServerId) {
        let mut topo = Topology::new();
        let s = topo.add_server(ServerInfo::new("S1", Priority::HIGH));
        for feed in [FeedId::A, FeedId::B] {
            let mut g = PowerGraph::new(feed);
            g.add_root(
                PowerDevice::new("root", DeviceKind::Virtual)
                    .with_extra_limit(Watts::new(1000.0)),
            );
            topo.add_feed(g);
        }
        (topo, s)
    }

    #[test]
    fn server_registry() {
        let mut topo = Topology::new();
        let a = topo.add_server(ServerInfo::new("SA", Priority::HIGH));
        let b = topo.add_server(ServerInfo::new("SB", Priority::LOW));
        assert_eq!(topo.server_count(), 2);
        assert_eq!(topo.server(a).unwrap().name(), "SA");
        assert_eq!(topo.server(b).unwrap().priority(), Priority::LOW);
        assert_eq!(topo.server_by_name("SB"), Some(b));
        assert_eq!(topo.server_by_name("nope"), None);
    }

    #[test]
    fn attach_dual_cords() {
        let (mut topo, s) = two_feed_topology();
        let root_a = topo.feed(FeedId::A).unwrap().root().unwrap();
        let root_b = topo.feed(FeedId::B).unwrap().root().unwrap();
        topo.attach_supply(s, SupplyIndex::FIRST, FeedId::A, root_a, Phase::L1)
            .unwrap();
        topo.attach_supply(s, SupplyIndex::SECOND, FeedId::B, root_b, Phase::L1)
            .unwrap();
        assert_eq!(topo.supply_count(s), 2);
        assert!(topo.validate().is_ok());
        let atts = topo.supply_attachments(s);
        assert_eq!(atts[0].2.supply, SupplyIndex::FIRST);
        assert_eq!(atts[0].0, FeedId::A);
        assert_eq!(atts[1].2.supply, SupplyIndex::SECOND);
    }

    #[test]
    fn duplicate_supply_rejected() {
        let (mut topo, s) = two_feed_topology();
        let root_a = topo.feed(FeedId::A).unwrap().root().unwrap();
        topo.attach_supply(s, SupplyIndex::FIRST, FeedId::A, root_a, Phase::L1)
            .unwrap();
        let err = topo
            .attach_supply(s, SupplyIndex::FIRST, FeedId::A, root_a, Phase::L2)
            .unwrap_err();
        assert_eq!(
            err,
            TopologyError::DuplicateSupply {
                server: s,
                supply: SupplyIndex::FIRST
            }
        );
    }

    #[test]
    fn unpowered_server_fails_validation() {
        let (topo, s) = two_feed_topology();
        assert_eq!(
            topo.validate().unwrap_err(),
            TopologyError::UnpoweredServer { server: s }
        );
    }

    #[test]
    fn unknown_feed_and_server_errors() {
        let (mut topo, s) = two_feed_topology();
        let root_a = topo.feed(FeedId::A).unwrap().root().unwrap();
        assert_eq!(
            topo.attach_supply(s, SupplyIndex::FIRST, FeedId(9), root_a, Phase::L1)
                .unwrap_err(),
            TopologyError::UnknownFeed { feed: FeedId(9) }
        );
        assert_eq!(
            topo.attach_supply(ServerId(99), SupplyIndex::FIRST, FeedId::A, root_a, Phase::L1)
                .unwrap_err(),
            TopologyError::UnknownServer { server: ServerId(99) }
        );
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_feed_panics() {
        let mut topo = Topology::new();
        topo.add_feed(PowerGraph::new(FeedId::A));
        topo.add_feed(PowerGraph::new(FeedId::A));
    }

    #[test]
    fn spec_extraction_prunes_phases() {
        let (mut topo, s) = two_feed_topology();
        let s2 = topo.add_server(ServerInfo::new("S2", Priority::LOW));
        let root_a = topo.feed(FeedId::A).unwrap().root().unwrap();
        let root_b = topo.feed(FeedId::B).unwrap().root().unwrap();
        topo.attach_supply(s, SupplyIndex::FIRST, FeedId::A, root_a, Phase::L1)
            .unwrap();
        topo.attach_supply(s, SupplyIndex::SECOND, FeedId::B, root_b, Phase::L2)
            .unwrap();
        topo.attach_supply(s2, SupplyIndex::FIRST, FeedId::A, root_a, Phase::L1)
            .unwrap();

        let specs = topo.control_tree_specs();
        // Feed A powers phase L1 only; feed B powers phase L2 only.
        assert_eq!(specs.len(), 2);
        let a_l1 = &specs[0];
        assert_eq!(a_l1.feed(), FeedId::A);
        assert_eq!(a_l1.phase(), Phase::L1);
        assert_eq!(a_l1.leaves().count(), 2);
        let b_l2 = &specs[1];
        assert_eq!(b_l2.feed(), FeedId::B);
        assert_eq!(b_l2.phase(), Phase::L2);
        assert_eq!(b_l2.leaves().count(), 1);
        // Leaf carries the registry priority.
        let (_, leaf) = a_l1.leaves().next().unwrap();
        assert_eq!(leaf.priority, Priority::HIGH);
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority::HIGH > Priority::LOW);
        assert!(Priority(5) > Priority(2));
        assert_eq!(Priority(3).to_string(), "P3");
        assert_eq!(Priority(7).level(), 7);
    }
}
