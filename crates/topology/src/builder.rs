//! Fluent construction of validated topologies.

use capmaestro_units::Watts;

use crate::device::{DeviceKind, FeedId, Phase, PowerDevice, SupplyIndex};
use crate::error::TopologyError;
use crate::graph::{NodeId, PowerGraph};
use crate::topo::{Priority, ServerId, ServerInfo, Topology};

/// Builds a [`Topology`] step by step and validates it on
/// [`TopologyBuilder::build`].
///
/// # Examples
///
/// ```
/// use capmaestro_topology::{
///     CircuitBreaker, DeviceKind, FeedId, Phase, PowerDevice, Priority,
///     SupplyIndex, TopologyBuilder,
/// };
/// use capmaestro_units::Watts;
///
/// # fn main() -> Result<(), capmaestro_topology::TopologyError> {
/// let mut b = TopologyBuilder::new();
/// let root = b.add_feed(
///     FeedId::A,
///     PowerDevice::new("top", DeviceKind::Virtual).with_extra_limit(Watts::new(1400.0)),
/// );
/// let cdu = b.add_node(
///     FeedId::A,
///     root,
///     PowerDevice::new("CDU", DeviceKind::Cdu)
///         .with_breaker(CircuitBreaker::with_default_derating(Watts::new(750.0))),
/// )?;
/// let s = b.add_server("S1", Priority::HIGH);
/// b.attach(s, SupplyIndex::FIRST, FeedId::A, cdu, Phase::L1)?;
/// let topo = b.build()?;
/// assert_eq!(topo.server_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    topo: Topology,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Adds a feed with its root device, returning the root node id.
    ///
    /// # Panics
    ///
    /// Panics if the feed already exists.
    pub fn add_feed(&mut self, feed: FeedId, root: PowerDevice) -> NodeId {
        let mut graph = PowerGraph::new(feed);
        let id = graph.add_root(root);
        self.topo.add_feed(graph);
        id
    }

    /// Adds a device beneath `parent` on `feed`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownFeed`] or graph-level errors.
    pub fn add_node(
        &mut self,
        feed: FeedId,
        parent: NodeId,
        device: PowerDevice,
    ) -> Result<NodeId, TopologyError> {
        self.topo
            .feed_mut(feed)
            .ok_or(TopologyError::UnknownFeed { feed })?
            .add_child(parent, device)
    }

    /// Registers a server.
    pub fn add_server(&mut self, name: impl Into<String>, priority: Priority) -> ServerId {
        self.topo.add_server(ServerInfo::new(name, priority))
    }

    /// Attaches a server supply beneath a node.
    ///
    /// # Errors
    ///
    /// See `Topology::attach_supply`.
    pub fn attach(
        &mut self,
        server: ServerId,
        supply: SupplyIndex,
        feed: FeedId,
        under: NodeId,
        phase: Phase,
    ) -> Result<NodeId, TopologyError> {
        self.topo.attach_supply(server, supply, feed, under, phase)
    }

    /// Convenience: single-corded server created and attached in one call.
    ///
    /// # Errors
    ///
    /// See `Topology::attach_supply`.
    pub fn single_corded_server(
        &mut self,
        name: impl Into<String>,
        priority: Priority,
        feed: FeedId,
        under: NodeId,
        phase: Phase,
    ) -> Result<ServerId, TopologyError> {
        let id = self.add_server(name, priority);
        self.attach(id, SupplyIndex::FIRST, feed, under, phase)?;
        Ok(id)
    }

    /// Convenience: dual-corded server attached under one node per feed on
    /// the same phase.
    ///
    /// # Errors
    ///
    /// See [`Topology::attach_supply`].
    pub(crate) fn dual_corded_server(
        &mut self,
        name: impl Into<String>,
        priority: Priority,
        attachments: [(FeedId, NodeId); 2],
        phase: Phase,
    ) -> Result<ServerId, TopologyError> {
        let id = self.add_server(name, priority);
        self.attach(id, SupplyIndex::FIRST, attachments[0].0, attachments[0].1, phase)?;
        self.attach(id, SupplyIndex::SECOND, attachments[1].0, attachments[1].1, phase)?;
        Ok(id)
    }

    /// Access to the partially-built topology (e.g. to look up node ids).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Validates and returns the finished topology.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure (see [`Topology::validate`]).
    pub fn build(self) -> Result<Topology, TopologyError> {
        self.topo.validate()?;
        Ok(self.topo)
    }
}

/// Shorthand for a virtual budget node (no breaker, explicit limit).
pub(crate) fn budget_node(name: impl Into<String>, limit: Watts) -> PowerDevice {
    PowerDevice::new(name, DeviceKind::Virtual).with_extra_limit(limit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = TopologyBuilder::new();
        let ra = b.add_feed(FeedId::A, budget_node("rootA", Watts::new(1000.0)));
        let rb = b.add_feed(FeedId::B, budget_node("rootB", Watts::new(1000.0)));
        let s = b
            .dual_corded_server("S", Priority::LOW, [(FeedId::A, ra), (FeedId::B, rb)], Phase::L2)
            .unwrap();
        let topo = b.build().unwrap();
        assert_eq!(topo.supply_count(s), 2);
        assert_eq!(topo.control_tree_specs().len(), 2);
    }

    #[test]
    fn build_rejects_unpowered_server() {
        let mut b = TopologyBuilder::new();
        b.add_feed(FeedId::A, budget_node("rootA", Watts::new(1000.0)));
        let s = b.add_server("lonely", Priority::LOW);
        let err = b.build().unwrap_err();
        assert_eq!(err, TopologyError::UnpoweredServer { server: s });
    }

    #[test]
    fn add_node_unknown_feed_errors() {
        let mut b = TopologyBuilder::new();
        let root = b.add_feed(FeedId::A, budget_node("rootA", Watts::new(1.0)));
        let err = b
            .add_node(FeedId::B, root, PowerDevice::new("x", DeviceKind::Cdu))
            .unwrap_err();
        assert_eq!(err, TopologyError::UnknownFeed { feed: FeedId::B });
    }
}
