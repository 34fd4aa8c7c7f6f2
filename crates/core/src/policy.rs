//! Capping policies: Global Priority (CapMaestro), Local Priority
//! (Dynamo extended to redundant feeds), and No Priority.
//!
//! All three share the same gather/budget machinery; they differ only in
//! *where* priority levels are visible (paper §6.2):
//!
//! - **Global Priority** — every shifting controller sees the full
//!   priority-summarized metrics; power moves between any two servers on a
//!   feed, regardless of location.
//! - **Local Priority** — only the lowest-level shifting controllers (the
//!   parents of capping controllers, e.g. a branch circuit) are
//!   priority-aware; every level above splits power priority-blind, like
//!   Facebook's Dynamo.
//! - **No Priority** — after guaranteeing `P_cap_min`, remaining power is
//!   split proportionally to `P_demand − P_cap_min` everywhere.

use core::fmt;

/// Where a node sits in the control tree, as far as policies care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeContext {
    /// `true` when every child of this node is a capping controller
    /// (server power supply) — the "local group" boundary of Dynamo.
    pub is_leaf_parent: bool,
}

/// Whether a node works with full priority levels or a single merged level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityVisibility {
    /// Full per-priority metrics: gather keeps levels, budgeting walks them
    /// highest-first.
    Full,
    /// Priority-blind: levels are collapsed before aggregation and
    /// budgeting at this node.
    Blind,
}

/// A power-capping policy: decides priority visibility per node.
///
/// The trait is object-safe so heterogeneous experiment harnesses can store
/// `&dyn CappingPolicy`.
pub trait CappingPolicy {
    /// Visibility of priorities at the given node.
    fn visibility(&self, ctx: NodeContext) -> PriorityVisibility;

    /// Short display name used in experiment tables.
    fn name(&self) -> &str;
}

/// CapMaestro's globally priority-aware policy (§4.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalPriority;

impl GlobalPriority {
    /// Creates the policy.
    pub fn new() -> Self {
        GlobalPriority
    }
}

impl CappingPolicy for GlobalPriority {
    fn visibility(&self, _ctx: NodeContext) -> PriorityVisibility {
        PriorityVisibility::Full
    }

    fn name(&self) -> &str {
        "Global Priority"
    }
}

/// Dynamo-style local priority: aware only at leaf parents (§6.2's "Local
/// Priority" baseline, Facebook's Dynamo \[5\] extended by the paper's
/// authors to support redundant feeds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalPriority;

impl LocalPriority {
    /// Creates the policy.
    pub fn new() -> Self {
        LocalPriority
    }
}

impl CappingPolicy for LocalPriority {
    fn visibility(&self, ctx: NodeContext) -> PriorityVisibility {
        if ctx.is_leaf_parent {
            PriorityVisibility::Full
        } else {
            PriorityVisibility::Blind
        }
    }

    fn name(&self) -> &str {
        "Local Priority"
    }
}

/// Priority-oblivious proportional capping (§6.2's "No Priority" baseline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoPriority;

impl NoPriority {
    /// Creates the policy.
    pub fn new() -> Self {
        NoPriority
    }
}

impl CappingPolicy for NoPriority {
    fn visibility(&self, _ctx: NodeContext) -> PriorityVisibility {
        PriorityVisibility::Blind
    }

    fn name(&self) -> &str {
        "No Priority"
    }
}

/// The three paper policies behind one enum, convenient for experiment
/// sweeps ("for each policy …").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`NoPriority`].
    NoPriority,
    /// [`LocalPriority`].
    LocalPriority,
    /// [`GlobalPriority`].
    GlobalPriority,
}

impl PolicyKind {
    /// All three policies in the order the paper's tables list them.
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::NoPriority,
        PolicyKind::LocalPriority,
        PolicyKind::GlobalPriority,
    ];

    /// Returns the policy implementation.
    pub fn policy(self) -> Box<dyn CappingPolicy + Send + Sync> {
        match self {
            PolicyKind::NoPriority => Box::new(NoPriority),
            PolicyKind::LocalPriority => Box::new(LocalPriority),
            PolicyKind::GlobalPriority => Box::new(GlobalPriority),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PolicyKind::NoPriority => "No Priority",
            PolicyKind::LocalPriority => "Local Priority",
            PolicyKind::GlobalPriority => "Global Priority",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEAF_PARENT: NodeContext = NodeContext {
        is_leaf_parent: true,
    };
    const UPPER: NodeContext = NodeContext {
        is_leaf_parent: false,
    };

    #[test]
    fn global_is_always_full() {
        let p = GlobalPriority::new();
        assert_eq!(p.visibility(LEAF_PARENT), PriorityVisibility::Full);
        assert_eq!(p.visibility(UPPER), PriorityVisibility::Full);
        assert_eq!(p.name(), "Global Priority");
    }

    #[test]
    fn local_is_full_only_at_leaf_parents() {
        let p = LocalPriority::new();
        assert_eq!(p.visibility(LEAF_PARENT), PriorityVisibility::Full);
        assert_eq!(p.visibility(UPPER), PriorityVisibility::Blind);
        assert_eq!(p.name(), "Local Priority");
    }

    #[test]
    fn no_priority_is_always_blind() {
        let p = NoPriority::new();
        assert_eq!(p.visibility(LEAF_PARENT), PriorityVisibility::Blind);
        assert_eq!(p.visibility(UPPER), PriorityVisibility::Blind);
        assert_eq!(p.name(), "No Priority");
    }

    #[test]
    fn kind_roundtrip() {
        for kind in PolicyKind::ALL {
            let policy = kind.policy();
            assert_eq!(policy.name(), kind.to_string());
        }
    }

    #[test]
    fn policies_are_object_safe() {
        let policies: Vec<Box<dyn CappingPolicy>> = vec![
            Box::new(GlobalPriority),
            Box::new(LocalPriority),
            Box::new(NoPriority),
        ];
        assert_eq!(policies.len(), 3);
    }
}
