//! The per-feed power-distribution tree.
//!
//! Each redundant feed of the data center is an independent tree of
//! [`PowerDevice`]s rooted at the utility entry point, stored here as an
//! index-based arena ([`PowerGraph`]). Leaves carry [`OutletInfo`] recording
//! which server power supply plugs in, and on which phase.

use core::fmt;

use crate::device::{DeviceKind, FeedId, Phase, PowerDevice, SupplyIndex};
use crate::error::TopologyError;
use crate::topo::ServerId;

/// Identifies a node within one feed's [`PowerGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// Records the server power supply plugged into an outlet node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutletInfo {
    /// The server drawing power here.
    pub server: ServerId,
    /// Which of the server's supplies is plugged in.
    pub supply: SupplyIndex,
    /// The phase this outlet taps.
    pub phase: Phase,
}

#[derive(Debug, Clone)]
struct NodeSlot {
    device: PowerDevice,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    outlet: Option<OutletInfo>,
}

/// One feed's power-distribution tree.
///
/// Nodes are added top-down, outlets attached to leaf nodes, by a
/// [`crate::TopologyBuilder`]. The graph is append-only — removal is not
/// needed for modelling (equipment failure is simulated by the engine, not
/// by mutating the topology).
#[derive(Debug, Clone)]
pub struct PowerGraph {
    feed: FeedId,
    slots: Vec<NodeSlot>,
    root: Option<NodeId>,
}

impl PowerGraph {
    /// Creates an empty graph for the given feed.
    pub fn new(feed: FeedId) -> Self {
        PowerGraph {
            feed,
            slots: Vec::new(),
            root: None,
        }
    }

    /// The feed this graph describes.
    pub fn feed(&self) -> FeedId {
        self.feed
    }

    /// The root node, if the graph is non-empty.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Adds (or replaces) the root device and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a root already exists — each feed has exactly one entry
    /// point.
    pub(crate) fn add_root(&mut self, device: PowerDevice) -> NodeId {
        assert!(
            self.root.is_none(),
            "feed {} already has a root node",
            self.feed
        );
        let id = NodeId(self.slots.len() as u32);
        self.slots.push(NodeSlot {
            device,
            parent: None,
            children: Vec::new(),
            outlet: None,
        });
        self.root = Some(id);
        id
    }

    /// Adds a device beneath `parent` and returns the new node's id.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`] if `parent` does not exist and
    /// [`TopologyError::OutletNotLeaf`] if `parent` already carries an
    /// outlet.
    pub(crate) fn add_child(
        &mut self,
        parent: NodeId,
        device: PowerDevice,
    ) -> Result<NodeId, TopologyError> {
        let pslot = self
            .slots
            .get(parent.index())
            .ok_or(TopologyError::UnknownNode {
                feed: self.feed,
                node: parent,
            })?;
        if pslot.outlet.is_some() {
            return Err(TopologyError::OutletNotLeaf { node: parent });
        }
        let id = NodeId(self.slots.len() as u32);
        self.slots.push(NodeSlot {
            device,
            parent: Some(parent),
            children: Vec::new(),
            outlet: None,
        });
        self.slots[parent.index()].children.push(id);
        Ok(id)
    }

    /// Attaches a server power supply to an *existing leaf* node, or creates
    /// an implicit [`DeviceKind::Outlet`] child under an internal node.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`] if `under` does not exist, or
    /// [`TopologyError::OutletNotLeaf`] if `under` already has an outlet.
    pub(crate) fn attach_outlet(
        &mut self,
        under: NodeId,
        outlet: OutletInfo,
    ) -> Result<NodeId, TopologyError> {
        let slot = self
            .slots
            .get(under.index())
            .ok_or(TopologyError::UnknownNode {
                feed: self.feed,
                node: under,
            })?;
        if slot.outlet.is_some() {
            return Err(TopologyError::OutletNotLeaf { node: under });
        }
        let name = format!(
            "{}/{}:{}",
            self.slots[under.index()].device.name(),
            outlet.server.index(),
            outlet.supply
        );
        let node = self.add_child(under, PowerDevice::new(name, DeviceKind::Outlet))?;
        self.slots[node.index()].outlet = Some(outlet);
        Ok(node)
    }

    /// The device at a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range (node ids are only minted by this
    /// graph, so this indicates misuse across graphs).
    pub fn device(&self, node: NodeId) -> &PowerDevice {
        &self.slots[node.index()].device
    }

    /// The parent of `node`, or `None` for the root.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.slots[node.index()].parent
    }

    /// The children of `node`.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.slots[node.index()].children
    }

    /// The outlet at `node`, if it is an outlet leaf.
    pub fn outlet(&self, node: NodeId) -> Option<&OutletInfo> {
        self.slots[node.index()].outlet.as_ref()
    }

    /// Iterates over all node ids in insertion (top-down) order.
    ///
    /// Because children are always inserted after their parents, iterating
    /// in this order is a valid topological order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.slots.len() as u32).map(NodeId)
    }

    /// Iterates over all outlet leaves.
    pub fn outlets(&self) -> impl Iterator<Item = (NodeId, &OutletInfo)> + '_ {
        self.iter()
            .filter_map(|id| self.outlet(id).map(|o| (id, o)))
    }

    /// Walks from `node` up to the root, yielding `node` first.
    pub fn path_to_root(&self, node: NodeId) -> Vec<NodeId> {
        let mut path = vec![node];
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path
    }

    /// Validates that every root-to-leaf path passes at least one limited
    /// device, so budgets derived from the graph are bounded.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnboundedPath`] naming the offending leaf.
    pub(crate) fn validate_bounded(&self) -> Result<(), TopologyError> {
        for (leaf, _) in self.outlets() {
            let bounded = self
                .path_to_root(leaf)
                .iter()
                .any(|&n| self.device(n).effective_limit().is_some());
            if !bounded {
                return Err(TopologyError::UnboundedPath {
                    feed: self.feed,
                    leaf,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::CircuitBreaker;
    use capmaestro_units::Watts;

    fn leaf_outlet(server: u32) -> OutletInfo {
        OutletInfo {
            server: ServerId(server),
            supply: SupplyIndex::FIRST,
            phase: Phase::L1,
        }
    }

    #[test]
    fn build_small_tree() {
        let mut g = PowerGraph::new(FeedId::A);
        let root = g.add_root(
            PowerDevice::new("top", DeviceKind::Virtual)
                .with_extra_limit(Watts::new(1400.0)),
        );
        let left = g
            .add_child(
                root,
                PowerDevice::new("left", DeviceKind::Cdu)
                    .with_breaker(CircuitBreaker::with_default_derating(Watts::new(750.0))),
            )
            .unwrap();
        let outlet = g.attach_outlet(left, leaf_outlet(0)).unwrap();

        assert_eq!(g.len(), 3);
        assert_eq!(g.root(), Some(root));
        assert_eq!(g.parent(left), Some(root));
        assert_eq!(g.parent(outlet), Some(left));
        assert_eq!(g.children(root), &[left]);
        assert_eq!(g.outlet(outlet).unwrap().server, ServerId(0));
        assert_eq!(g.path_to_root(outlet), vec![outlet, left, root]);
        assert!(g.validate_bounded().is_ok());
    }

    #[test]
    fn outlets_iterator_finds_all_leaves() {
        let mut g = PowerGraph::new(FeedId::A);
        let root = g.add_root(PowerDevice::new("top", DeviceKind::Virtual).with_extra_limit(Watts::new(100.0)));
        for i in 0..5 {
            g.attach_outlet(root, leaf_outlet(i)).unwrap();
        }
        assert_eq!(g.outlets().count(), 5);
        let servers: Vec<u32> = g.outlets().map(|(_, o)| o.server.0).collect();
        assert_eq!(servers, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "already has a root")]
    fn double_root_panics() {
        let mut g = PowerGraph::new(FeedId::A);
        g.add_root(PowerDevice::new("a", DeviceKind::Virtual));
        g.add_root(PowerDevice::new("b", DeviceKind::Virtual));
    }

    #[test]
    fn add_child_under_unknown_parent_errors() {
        let mut g = PowerGraph::new(FeedId::B);
        g.add_root(PowerDevice::new("a", DeviceKind::Virtual));
        let err = g
            .add_child(NodeId(42), PowerDevice::new("x", DeviceKind::Cdu))
            .unwrap_err();
        assert_eq!(
            err,
            TopologyError::UnknownNode {
                feed: FeedId::B,
                node: NodeId(42)
            }
        );
    }

    #[test]
    fn outlet_is_terminal() {
        let mut g = PowerGraph::new(FeedId::A);
        let root = g.add_root(PowerDevice::new("a", DeviceKind::Virtual).with_extra_limit(Watts::new(100.0)));
        let outlet = g.attach_outlet(root, leaf_outlet(0)).unwrap();
        let err = g
            .add_child(outlet, PowerDevice::new("x", DeviceKind::Cdu))
            .unwrap_err();
        assert_eq!(err, TopologyError::OutletNotLeaf { node: outlet });
        let err2 = g.attach_outlet(outlet, leaf_outlet(1)).unwrap_err();
        assert_eq!(err2, TopologyError::OutletNotLeaf { node: outlet });
    }

    #[test]
    fn unbounded_path_detected() {
        let mut g = PowerGraph::new(FeedId::A);
        let root = g.add_root(PowerDevice::new("a", DeviceKind::Virtual));
        let leaf = g.attach_outlet(root, leaf_outlet(0)).unwrap();
        assert_eq!(
            g.validate_bounded().unwrap_err(),
            TopologyError::UnboundedPath {
                feed: FeedId::A,
                leaf
            }
        );
    }

    #[test]
    fn iteration_order_is_topological() {
        let mut g = PowerGraph::new(FeedId::A);
        let root = g.add_root(PowerDevice::new("r", DeviceKind::Virtual).with_extra_limit(Watts::new(10.0)));
        let a = g.add_child(root, PowerDevice::new("a", DeviceKind::Rpp)).unwrap();
        let b = g.add_child(root, PowerDevice::new("b", DeviceKind::Rpp)).unwrap();
        let a1 = g.add_child(a, PowerDevice::new("a1", DeviceKind::Cdu)).unwrap();
        for id in g.iter() {
            if let Some(p) = g.parent(id) {
                assert!(p < id, "parent {p} must precede child {id}");
            }
        }
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![root, a, b, a1]);
    }
}
