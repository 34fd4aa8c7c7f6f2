//! Control-tree specifications: the bridge from physical topology to the
//! controller hierarchy.
//!
//! A [`ControlTreeSpec`] is a flattened, pruned view of one feed's power
//! graph restricted to one phase. The `capmaestro-core` crate instantiates
//! one shifting controller per internal spec node and one capping-controller
//! binding per leaf (paper §4.1).

use capmaestro_units::Watts;

use crate::device::{FeedId, Phase, SupplyIndex};
use crate::topo::{Priority, ServerId};

/// The server power supply governed by a leaf of the control tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecLeaf {
    /// The server.
    pub server: ServerId,
    /// Which of its supplies hangs on this feed/phase.
    pub supply: SupplyIndex,
    /// The server's priority level.
    pub priority: Priority,
}

/// One node of a control-tree specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecNode {
    /// Display name (copied from the power device).
    pub name: String,
    /// The shifting controller's power limit (`P_limit`), if constrained.
    pub limit: Option<Watts>,
    /// Parent index within the spec, `None` for the root.
    pub parent: Option<usize>,
    /// Child indices within the spec.
    pub children: Vec<usize>,
    /// Set when this node is a leaf governing a server power supply.
    pub leaf: Option<SpecLeaf>,
}

/// A flattened control tree for one (feed, phase) pair.
///
/// Nodes are stored in topological order (parents before children); index 0
/// is the root. Construction happens via
/// [`crate::Topology::control_tree_specs`] or manually with
/// [`ControlTreeSpec::push_node`] for synthetic tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlTreeSpec {
    feed: FeedId,
    phase: Phase,
    nodes: Vec<SpecNode>,
}

impl ControlTreeSpec {
    /// Creates an empty spec for a feed/phase.
    pub fn new(feed: FeedId, phase: Phase) -> Self {
        ControlTreeSpec {
            feed,
            phase,
            nodes: Vec::new(),
        }
    }

    /// The feed this tree protects.
    pub fn feed(&self) -> FeedId {
        self.feed
    }

    /// The phase this tree protects.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Appends a node, returning its index. The first node pushed becomes
    /// the root.
    ///
    /// # Panics
    ///
    /// Panics if the node references a parent at or after its own index
    /// (specs must be built in topological order), or if a non-root node
    /// has no parent.
    pub fn push_node(&mut self, node: SpecNode) -> usize {
        let idx = self.nodes.len();
        match node.parent {
            Some(p) => assert!(
                p < idx,
                "spec nodes must be pushed in topological order (parent {p} >= index {idx})"
            ),
            None => assert!(
                idx == 0,
                "only the root (index 0) may lack a parent; node {idx} has none"
            ),
        }
        self.nodes.push(node);
        idx
    }

    /// The number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the spec has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn node(&self, idx: usize) -> &SpecNode {
        &self.nodes[idx]
    }

    /// Mutably borrow a node by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn node_mut(&mut self, idx: usize) -> &mut SpecNode {
        &mut self.nodes[idx]
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[SpecNode] {
        &self.nodes
    }

    /// Iterates `(index, leaf)` over all leaves.
    pub fn leaves(&self) -> impl Iterator<Item = (usize, &SpecLeaf)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.leaf.as_ref().map(|l| (i, l)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(server: u32, priority: u8) -> Option<SpecLeaf> {
        Some(SpecLeaf {
            server: ServerId(server),
            supply: SupplyIndex::FIRST,
            priority: Priority(priority),
        })
    }

    fn sample_spec() -> ControlTreeSpec {
        let mut spec = ControlTreeSpec::new(FeedId::A, Phase::L1);
        let root = spec.push_node(SpecNode {
            name: "root".into(),
            limit: Some(Watts::new(1400.0)),
            parent: None,
            children: vec![],
            leaf: None,
        });
        let l = spec.push_node(SpecNode {
            name: "left".into(),
            limit: Some(Watts::new(750.0)),
            parent: Some(root),
            children: vec![],
            leaf: None,
        });
        spec.node_mut(root).children.push(l);
        for (i, pri) in [(0u32, 1u8), (1, 0)] {
            let n = spec.push_node(SpecNode {
                name: format!("s{i}"),
                limit: None,
                parent: Some(l),
                children: vec![],
                leaf: leaf(i, pri),
            });
            spec.node_mut(l).children.push(n);
        }
        spec
    }

    #[test]
    fn construction_and_queries() {
        let spec = sample_spec();
        assert_eq!(spec.len(), 4);
        assert_eq!(spec.leaves().count(), 2);
        assert!(spec.node(0).leaf.is_none());
        assert!(spec.node(2).leaf.is_some());
        assert_eq!(spec.node(2).parent, Some(1));
        assert_eq!(spec.node(1).children, vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn forward_parent_reference_panics() {
        let mut spec = ControlTreeSpec::new(FeedId::A, Phase::L1);
        spec.push_node(SpecNode {
            name: "root".into(),
            limit: None,
            parent: None,
            children: vec![],
            leaf: None,
        });
        spec.push_node(SpecNode {
            name: "bad".into(),
            limit: None,
            parent: Some(5),
            children: vec![],
            leaf: None,
        });
    }

    #[test]
    #[should_panic(expected = "only the root")]
    fn second_parentless_node_panics() {
        let mut spec = ControlTreeSpec::new(FeedId::A, Phase::L1);
        spec.push_node(SpecNode {
            name: "root".into(),
            limit: None,
            parent: None,
            children: vec![],
            leaf: None,
        });
        spec.push_node(SpecNode {
            name: "second root".into(),
            limit: None,
            parent: None,
            children: vec![],
            leaf: None,
        });
    }
}
