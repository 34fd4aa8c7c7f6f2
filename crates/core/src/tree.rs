//! The runtime control tree: shifting controllers mirroring the power
//! topology, with gather-up and budget-down passes (paper §4.1/§4.3).
//!
//! The tree is a flat **arena** ([`TreeArena`]) and nothing else: it is
//! built from a [`ControlTreeSpec`], which is then dropped. The arena holds
//! flattened child lists, per-node contexts, limits and leaf priorities,
//! and a dense index of leaf slots ([`LeafIndex`]), so the per-round passes
//! are branch-predictable array walks instead of pointer chases and map
//! lookups. Rounds are made **incremental** by a reusable
//! [`TreeRoundState`] that value-compares each leaf's summary, rebuilt from
//! its input, with the stored one: [`ControlTree::allocate_in`]
//! re-summarizes only subtrees with a changed leaf summary, re-splits only
//! nodes whose budget or summary changed, and performs no heap allocation
//! once its buffers are warm.

use core::fmt;
use std::sync::Arc;

use capmaestro_topology::{
    ControlTreeSpec, FeedId, Phase, Priority, ServerId, SpecLeaf, SupplyIndex,
};
use capmaestro_units::{Ratio, Watts};

use crate::alloc::{AllocScratch, Allocator, WaterfallAllocator};
use crate::metrics::{LeafInput, PriorityMetrics};
use crate::policy::{CappingPolicy, NodeContext, PriorityVisibility};

/// Runtime power information for one server supply, fed into its capping
/// controller's metrics (priority comes from the tree).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplyInput {
    /// Estimated server power demand at full performance (total AC).
    pub demand: Watts,
    /// The server's minimum controllable AC power.
    pub cap_min: Watts,
    /// The server's maximum controllable AC power.
    pub cap_max: Watts,
    /// Fraction of the server load this supply carries.
    pub share: Ratio,
}

/// Dense index of a control tree's leaves: maps `(server, supply)` pairs to
/// contiguous **leaf slots** in node order. One instance is built per
/// tree and shared (via [`Arc`]) with every [`Allocation`] the tree
/// produces, so leaf budgets live in a flat slot-indexed vector instead of
/// a per-round hash map.
#[derive(Debug, Default)]
pub struct LeafIndex {
    /// `(server, supply)` per slot, in node order.
    pairs: Vec<(ServerId, SupplyIndex)>,
    /// Arena node index per slot, ascending.
    nodes: Vec<u32>,
    /// Slots sorted by `(server, supply)`: the deterministic order for
    /// order-sensitive f64 sums, and the reverse lookup's search order.
    sorted_slots: Vec<u32>,
}

impl LeafIndex {
    fn build(spec: &ControlTreeSpec) -> Self {
        let len = spec.leaves().count();
        let mut pairs = Vec::with_capacity(len);
        let mut nodes = Vec::with_capacity(len);
        for (idx, leaf) in spec.leaves() {
            pairs.push((leaf.server, leaf.supply));
            nodes.push(idx as u32);
        }
        let mut sorted_slots: Vec<u32> = (0..len as u32).collect();
        sorted_slots.sort_unstable_by_key(|&s| pairs[s as usize]);
        LeafIndex {
            pairs,
            nodes,
            sorted_slots,
        }
    }

    /// Number of leaf slots.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The slot for a `(server, supply)` pair, if that supply is a leaf: a
    /// binary search of the slots in `(server, supply)` order.
    pub fn slot(&self, server: ServerId, supply: SupplyIndex) -> Option<usize> {
        let at = self
            .sorted_slots
            .binary_search_by_key(&(server, supply), |&s| self.pairs[s as usize])
            .ok()?;
        Some(self.sorted_slots[at] as usize)
    }

    /// The arena node index backing a slot.
    pub fn node(&self, slot: usize) -> usize {
        self.nodes[slot] as usize
    }

    /// The `(server, supply)` pair at a slot.
    pub fn pair(&self, slot: usize) -> (ServerId, SupplyIndex) {
        self.pairs[slot]
    }
}

/// The root's node index.
const ROOT: usize = 0;

/// A control tree's one representation, built once from its
/// [`ControlTreeSpec`]: flattened child lists with per-node offsets,
/// precomputed [`NodeContext`]s, limits and leaf priorities, the shared
/// [`LeafIndex`], the tree's feed and phase, and the names of the root's
/// children (the trace's lane names). The per-round passes never chase
/// spec pointers or consult maps. Node 0 is the root, and every child has
/// a higher index than its parent.
#[derive(Debug, Clone)]
pub struct TreeArena {
    /// All child indices, flattened in node order.
    children: Vec<u32>,
    /// Where each node's children start in `children`, and then where the
    /// last node's end: one more entry than there are nodes.
    child_start: Vec<u32>,
    /// Policy context (leaf-parent flag) per node.
    ctx: Vec<NodeContext>,
    /// Shifting-controller power limit per node, NaN where unconstrained
    /// (a limit is never NaN), which halves the lane `Option` would take.
    limits: Vec<f64>,
    /// Per node: the server's priority at a leaf, `None` elsewhere.
    priorities: Vec<Option<Priority>>,
    /// The dense leaf slot index, shared with allocations.
    leaf_index: Arc<LeafIndex>,
    feed: FeedId,
    phase: Phase,
    /// The names of the root's children, in child order.
    lanes: Vec<String>,
}

impl TreeArena {
    fn build(spec: &ControlTreeSpec) -> Self {
        let nodes = spec.nodes();
        let mut children = Vec::with_capacity(nodes.iter().map(|n| n.children.len()).sum());
        let mut child_start = Vec::with_capacity(nodes.len() + 1);
        child_start.push(0);
        for node in nodes {
            children.extend(node.children.iter().map(|&c| c as u32));
            child_start.push(children.len() as u32);
        }
        let ctx = nodes
            .iter()
            .map(|node| NodeContext {
                is_leaf_parent: !node.children.is_empty()
                    && node.children.iter().all(|&c| nodes[c].leaf.is_some()),
            })
            .collect();
        let lanes = nodes.first().map_or_else(Vec::new, |root| {
            root.children
                .iter()
                .map(|&c| nodes[c].name.clone())
                .collect()
        });
        TreeArena {
            children,
            child_start,
            ctx,
            limits: nodes
                .iter()
                .map(|node| node.limit.map_or(f64::NAN, Watts::as_f64))
                .collect(),
            priorities: nodes
                .iter()
                .map(|node| node.leaf.map(|l| l.priority))
                .collect(),
            leaf_index: Arc::new(LeafIndex::build(spec)),
            feed: spec.feed(),
            phase: spec.phase(),
            lanes,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ctx.len()
    }

    /// Whether the arena has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ctx.is_empty()
    }

    /// The children of a node, as arena indices.
    pub fn children_of(&self, idx: usize) -> &[u32] {
        let (start, end) = (self.child_start[idx], self.child_start[idx + 1]);
        &self.children[start as usize..end as usize]
    }

    /// The policy context of a node.
    pub fn context(&self, idx: usize) -> NodeContext {
        self.ctx[idx]
    }

    /// The power limit of a node, if constrained.
    pub fn limit(&self, idx: usize) -> Option<Watts> {
        let limit = self.limits[idx];
        (!limit.is_nan()).then(|| Watts::new(limit))
    }

    /// Iterates `(node, leaf)` over every leaf in slot order, which is node
    /// order: the supply it governs and its server's priority.
    pub fn leaves(&self) -> impl Iterator<Item = (usize, SpecLeaf)> + '_ {
        let index = &self.leaf_index;
        index
            .pairs
            .iter()
            .zip(&index.nodes)
            .map(|(&(server, supply), &node)| {
                let priority = self.priorities[node as usize].expect("a slot's node is a leaf");
                let leaf = SpecLeaf {
                    server,
                    supply,
                    priority,
                };
                (node as usize, leaf)
            })
    }

    /// The leaf at node `idx`, if it is one: a binary search of the slots.
    pub(crate) fn leaf(&self, idx: usize) -> Option<SpecLeaf> {
        let slot = self.leaf_index.nodes.binary_search(&(idx as u32)).ok()?;
        let (server, supply) = self.leaf_index.pairs[slot];
        let priority = self.priorities[idx]?;
        Some(SpecLeaf {
            server,
            supply,
            priority,
        })
    }

    /// Whether node `idx` is a leaf.
    pub(crate) fn is_leaf(&self, idx: usize) -> bool {
        self.priorities[idx].is_some()
    }

    /// The shared leaf slot index.
    pub fn leaf_index(&self) -> &Arc<LeafIndex> {
        &self.leaf_index
    }

    /// The feed this tree protects.
    pub fn feed(&self) -> FeedId {
        self.feed
    }

    /// The phase this tree protects.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The names of the root's children, in child order: one trace lane
    /// each.
    pub(crate) fn lanes(&self) -> &[String] {
        &self.lanes
    }
}

/// The outcome of one allocation pass over a control tree.
///
/// Node budgets are indexed by node index; leaf budgets live in
/// a dense slot-indexed vector keyed by the tree's shared [`LeafIndex`], so
/// a lookup by `(server, supply)` is one binary search of a prebuilt index
/// rather than a probe into a per-round-built map.
#[derive(Debug)]
pub struct Allocation {
    node_budgets: Vec<Watts>,
    leaf_budgets: Vec<Watts>,
    leaf_index: Arc<LeafIndex>,
    unallocated: Watts,
}

// Manual impl so `clone_from` reuses the budget vectors — a copy of the
// round report refreshed every round then allocates nothing.
impl Clone for Allocation {
    fn clone(&self) -> Self {
        Allocation {
            node_budgets: self.node_budgets.clone(),
            leaf_budgets: self.leaf_budgets.clone(),
            leaf_index: Arc::clone(&self.leaf_index),
            unallocated: self.unallocated,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.node_budgets.clone_from(&source.node_budgets);
        self.leaf_budgets.clone_from(&source.leaf_budgets);
        self.leaf_index.clone_from(&source.leaf_index);
        self.unallocated = source.unallocated;
    }
}

impl Default for Allocation {
    fn default() -> Self {
        Allocation {
            node_budgets: Vec::new(),
            leaf_budgets: Vec::new(),
            leaf_index: Arc::new(LeafIndex::default()),
            unallocated: Watts::ZERO,
        }
    }
}

impl PartialEq for Allocation {
    fn eq(&self, other: &Self) -> bool {
        self.unallocated == other.unallocated
            && self.node_budgets == other.node_budgets
            && self.leaf_budgets.len() == other.leaf_budgets.len()
            && self
                .supply_budgets()
                .all(|(server, supply, w)| other.supply_budget(server, supply) == Some(w))
    }
}

impl Allocation {
    /// The budget assigned to a tree node (by node index).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn node_budget(&self, idx: usize) -> Watts {
        self.node_budgets[idx]
    }

    /// The budget assigned to a server supply, if that supply is in this
    /// tree.
    pub fn supply_budget(&self, server: ServerId, supply: SupplyIndex) -> Option<Watts> {
        self.leaf_index
            .slot(server, supply)
            .map(|s| self.leaf_budgets[s])
    }

    /// The budget at a leaf slot (see [`LeafIndex`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn leaf_budget(&self, slot: usize) -> Watts {
        self.leaf_budgets[slot]
    }

    /// The leaf slot index this allocation's leaf budgets are keyed by.
    pub fn leaf_index(&self) -> &LeafIndex {
        &self.leaf_index
    }

    /// Iterates `(server, supply, budget)` over all leaf budgets, in
    /// slot order.
    pub(crate) fn supply_budgets(
        &self,
    ) -> impl Iterator<Item = (ServerId, SupplyIndex, Watts)> + '_ {
        self.leaf_index
            .pairs
            .iter()
            .zip(&self.leaf_budgets)
            .map(|(&(server, supply), &w)| (server, supply, w))
    }

    /// Power the root received but could not place (children saturated).
    pub fn unallocated(&self) -> Watts {
        self.unallocated
    }

    /// Total budget across all leaves.
    ///
    /// Summed in `(server, supply)` order so the result is independent of
    /// slot layout (f64 addition is not associative).
    pub fn total_leaf_budget(&self) -> Watts {
        self.leaf_index
            .sorted_slots
            .iter()
            .map(|&s| self.leaf_budgets[s as usize])
            .sum()
    }
}

/// How a node takes part in the walk; see [`ControlTree::pin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pin {
    /// Summarized from its children (or its leaf input), budget split.
    Free,
    /// Summary supplied from outside and unchanged since the last gather.
    Held,
    /// Summary supplied from outside and changed since the last gather.
    Changed,
    /// Below a pinned node: outside the walk.
    Below,
}

/// Reusable per-tree round state for [`ControlTree::allocate_in`]: the
/// cached per-node [`PriorityMetrics`] with their re-split flags, the
/// budget-down memo, plus every scratch buffer the gather and
/// budget-down passes need. Keep one per (tree, pass) and reuse it
/// across rounds; steady-state rounds then allocate nothing.
///
/// Both halves of the walk are incremental. [`ControlTree::gather_in`]
/// re-summarizes only nodes with a flagged child: a leaf whose summary
/// changed value, or a node re-summarized since the previous `budget_in`.
/// A leaf's stored summary is its own change witness: the gather rewrites
/// it from the leaf's current input and learns whether its value moved,
/// so a leaf whose input moved without moving its summary (demand below
/// `cap_min`) dirties nothing.
/// [`ControlTree::budget_in`] remembers the node budgets it produced and
/// re-splits a node only if its own budget changed bit-for-bit or its
/// summary was recomputed since the previous `budget_in` (however many
/// gathers ran in between) — an unchanged node's subtree keeps its budgets.
/// The memo is keyed by the allocator's name and dropped by
/// `TreeRoundState::invalidate`, a policy or tree-shape change, and a
/// change of which nodes are pinned. The result is bit-identical to a fresh
/// state: a split is a pure function of the node's budget, its children's
/// summaries and the allocator.
#[derive(Debug, Default)]
pub struct TreeRoundState {
    /// The policy `metrics` were gathered under; empty until the first
    /// gather and after `TreeRoundState::invalidate`. The state counts as
    /// gathered when it is the policy's and `metrics` is laid out for the
    /// tree.
    policy_name: &'static str,
    metrics: Vec<PriorityMetrics>,
    /// Per-node [`Pin`]; empty (all free) until the first pin.
    pins: Vec<Pin>,
    /// Node budgets as of the last `budget_in`: the memo.
    budgets: Vec<Watts>,
    /// Per node: re-split at the next `budget_in` — set when a gather
    /// recomputes the node's summary, and by the walk itself when the
    /// node's budget changes. A gather re-summarizes a parent with a
    /// flagged child; `budget_in` clears every flag.
    resplit: Vec<bool>,
    /// The root split's remainder as of the last `budget_in`.
    root_leftover: Watts,
    /// The allocator `budgets` were split with; `None` drops the memo.
    memo: Option<&'static str>,
    /// The tree's leaf generation as of the last gather.
    gathered: u64,
    /// Whether the last gather ran with an overlay.
    overlaid: bool,
    /// Set by [`TreeRoundState::keep_overlay`] for the next gather only.
    overlay_kept: bool,
    children_scratch: Vec<PriorityMetrics>,
    alloc_scratch: AllocScratch,
    split_budgets: Vec<Watts>,
    /// Cumulative count of nodes whose summary was recomputed (dirty).
    summarized: u64,
    /// Cumulative count of nodes whose cached summary was reused.
    skipped: u64,
}

impl TreeRoundState {
    /// Creates an empty state; the first `allocate_in` call shapes it.
    pub fn new() -> Self {
        TreeRoundState::default()
    }

    /// Drops all cached metrics and the budget memo: the next round
    /// recomputes every subtree and re-splits every node, as a fresh state
    /// would (required when the tree set changes).
    pub(crate) fn invalidate(&mut self) {
        // The next gather reshapes, which drops the memo; pinned summaries
        // survive it.
        self.policy_name = "";
    }

    /// Vouches that the overlay of the next gather is the one the last
    /// gather saw, so that gather may skip its walk if nothing else moved.
    pub(crate) fn keep_overlay(&mut self) {
        self.overlay_kept = true;
    }

    /// Cumulative `(summarized, dirty_skipped)` node counts across every
    /// gather pass this state has served. The control plane turns these
    /// into per-round deltas for the
    /// `capmaestro_tree_nodes_{summarized,dirty_skipped}_total` counters.
    pub fn gather_stats(&self) -> (u64, u64) {
        (self.summarized, self.skipped)
    }

    fn pin_at(&self, idx: usize) -> Pin {
        self.pins.get(idx).copied().unwrap_or(Pin::Free)
    }
}

/// Records `budget` as node `idx`'s, flagging the node for a re-split when
/// it differs bit-for-bit from the memoized one.
fn set_budget(budgets: &mut [Watts], resplit: &mut [bool], idx: usize, budget: Watts) {
    if budgets[idx].as_f64().to_bits() != budget.as_f64().to_bits() {
        budgets[idx] = budget;
        resplit[idx] = true;
    }
}

/// A control tree instantiated from a [`ControlTreeSpec`]: one shifting
/// controller per internal node, one capping-controller binding per leaf.
/// The tree keeps its [`TreeArena`] and its leaves' inputs, not the spec.
///
/// # Examples
///
/// ```
/// use capmaestro_core::tree::{ControlTree, SupplyInput};
/// use capmaestro_core::policy::GlobalPriority;
/// use capmaestro_topology::presets::figure2_feed;
/// use capmaestro_units::{Ratio, Watts};
///
/// let topo = figure2_feed();
/// let spec = topo.control_tree_specs().remove(0);
/// let mut tree = ControlTree::with_uniform(
///     spec,
///     SupplyInput {
///         demand: Watts::new(430.0),
///         cap_min: Watts::new(270.0),
///         cap_max: Watts::new(490.0),
///         share: Ratio::ONE,
///     },
/// );
/// let alloc = tree.allocate(Watts::new(1240.0), &GlobalPriority::new());
/// // The high-priority server (SA) receives its full 430 W demand.
/// let sa = topo.server_by_name("SA").unwrap();
/// use capmaestro_topology::SupplyIndex;
/// assert_eq!(alloc.supply_budget(sa, SupplyIndex::FIRST), Some(Watts::new(430.0)));
/// ```
#[derive(Debug, Clone)]
pub struct ControlTree {
    /// Per node; set at leaves only.
    inputs: Vec<Option<SupplyInput>>,
    arena: TreeArena,
    /// Bumped when a leaf's input or priority actually changes value.
    /// [`TreeRoundState`] compares it to skip a gather where nothing moved.
    generation: u64,
}

impl ControlTree {
    /// Creates a tree with no supply inputs set; every leaf must receive a
    /// [`SupplyInput`] before [`ControlTree::allocate`]. The spec is
    /// dropped once the arena is built from it.
    pub fn new(spec: ControlTreeSpec) -> Self {
        ControlTree {
            inputs: vec![None; spec.len()],
            arena: TreeArena::build(&spec),
            generation: 0,
        }
    }

    /// Creates a tree with every leaf sharing the same input — convenient
    /// for homogeneous test rigs.
    pub fn with_uniform(spec: ControlTreeSpec, input: SupplyInput) -> Self {
        let mut tree = ControlTree::new(spec);
        tree.set_slot_inputs_with(|_, _, _| input);
        tree
    }

    /// The flat arena view of this tree.
    pub fn arena(&self) -> &TreeArena {
        &self.arena
    }

    /// Sets the input of the leaf at node `idx`.
    pub(crate) fn set_input_at(&mut self, idx: usize, input: SupplyInput) {
        if self.inputs[idx] != Some(input) {
            self.inputs[idx] = Some(input);
            self.generation += 1;
        }
    }

    /// Sets the input for a server supply. Returns `false` if the supply is
    /// not a leaf of this tree.
    pub fn set_supply_input(
        &mut self,
        server: ServerId,
        supply: SupplyIndex,
        input: SupplyInput,
    ) -> bool {
        match self.arena.leaf_index.slot(server, supply) {
            Some(slot) => {
                let idx = self.arena.leaf_index.node(slot);
                self.set_input_at(idx, input);
                true
            }
            None => false,
        }
    }

    /// Sets inputs for all leaves from a callback.
    pub fn set_inputs_with(&mut self, mut f: impl FnMut(ServerId, SupplyIndex) -> SupplyInput) {
        self.set_slot_inputs_with(|_, server, supply| f(server, supply));
    }

    /// Sets inputs for all leaves from a callback given each leaf's slot
    /// (see [`LeafIndex`]), in slot order.
    pub(crate) fn set_slot_inputs_with(
        &mut self,
        mut f: impl FnMut(usize, ServerId, SupplyIndex) -> SupplyInput,
    ) {
        for slot in 0..self.arena.leaf_index.len() {
            let (server, supply) = self.arena.leaf_index.pair(slot);
            let input = f(slot, server, supply);
            self.set_slot_input(slot, input);
        }
    }

    /// Sets the input of the leaf at `slot` (see [`LeafIndex`]).
    pub(crate) fn set_slot_input(&mut self, slot: usize, input: SupplyInput) {
        self.set_input_at(self.arena.leaf_index.node(slot), input);
    }

    /// Moves whenever a leaf's input or priority changes value: equal
    /// values, equal leaves.
    pub(crate) fn leaf_generation(&self) -> u64 {
        self.generation
    }

    /// The input currently set for a leaf node index.
    pub fn input_at(&self, idx: usize) -> Option<&SupplyInput> {
        self.inputs.get(idx).and_then(|i| i.as_ref())
    }

    /// Overrides leaf priorities in place. Monte-Carlo capacity trials use
    /// this to re-randomize the high-priority placement without rebuilding
    /// the topology.
    pub fn set_priorities_with(&mut self, mut f: impl FnMut(ServerId) -> Priority) {
        let TreeArena {
            priorities,
            leaf_index,
            ..
        } = &mut self.arena;
        for (&(server, _), &node) in leaf_index.pairs.iter().zip(&leaf_index.nodes) {
            let priority = Some(f(server));
            if priorities[node as usize] != priority {
                priorities[node as usize] = priority;
                self.generation += 1;
            }
        }
    }

    /// Runs one full control round: gather metrics, then distribute
    /// `root_budget` down the tree under `policy` with the default
    /// [`WaterfallAllocator`] (the paper's §4.3.2 split).
    ///
    /// A cold [`ControlTree::allocate_in`]: a fresh [`TreeRoundState`]
    /// re-summarizes every subtree and splits every node.
    ///
    /// The effective root budget is clamped by the root node's own limit.
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty or any leaf lacks an input.
    pub fn allocate(&self, root_budget: Watts, policy: &dyn CappingPolicy) -> Allocation {
        self.allocate_with(root_budget, policy, &WaterfallAllocator)
    }

    /// [`ControlTree::allocate`] with an explicit per-node budget-split
    /// [`Allocator`] instead of the default waterfall.
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty or any leaf lacks an input.
    pub fn allocate_with(
        &self,
        root_budget: Watts,
        policy: &dyn CappingPolicy,
        allocator: &dyn Allocator,
    ) -> Allocation {
        let mut state = TreeRoundState::new();
        let mut out = Allocation::default();
        self.allocate_in(root_budget, policy, allocator, &mut state, None, &mut out);
        out
    }

    /// Incremental, allocation-free variant of [`ControlTree::allocate`]:
    /// [`ControlTree::gather_in`] then [`ControlTree::budget_in`] over the
    /// same `state`, returning what `budget_in` returns. Performs no heap
    /// allocation once `state` and `out` are warm.
    ///
    /// # Panics
    ///
    /// Panics as either half does.
    pub fn allocate_in(
        &self,
        root_budget: Watts,
        policy: &dyn CappingPolicy,
        allocator: &dyn Allocator,
        state: &mut TreeRoundState,
        overlay: Option<&[Option<SupplyInput>]>,
        out: &mut Allocation,
    ) -> bool {
        self.gather_in(policy, state, overlay);
        self.budget_in(root_budget, policy, allocator, state, out)
    }

    /// Pins node `idx` to a summary supplied from outside (a rack's
    /// reported, stale-held or fail-safe metrics at the room; an absent
    /// leaf at the rack): [`ControlTree::gather_in`] takes `summary` as the
    /// node's metrics without descending below it, and
    /// [`ControlTree::budget_in`] budgets the node without splitting it.
    /// Re-pinning an equal summary leaves the node clean. A pin takes effect
    /// at the next gather; pinning a node that was not pinned drops the
    /// budget memo.
    pub fn pin(&self, state: &mut TreeRoundState, idx: usize, summary: &PriorityMetrics) {
        let n = self.arena.len();
        state.metrics.resize_with(n, PriorityMetrics::default);
        state.pins.resize(n, Pin::Free);
        if matches!(state.pins[idx], Pin::Free | Pin::Below) {
            state.memo = None;
            let mut below: Vec<u32> = self.arena.children_of(idx).to_vec();
            while let Some(c) = below.pop() {
                state.pins[c as usize] = Pin::Below;
                below.extend_from_slice(self.arena.children_of(c as usize));
            }
        } else if state.metrics[idx] == *summary {
            return;
        }
        state.metrics[idx].copy_from(summary);
        state.pins[idx] = Pin::Changed;
    }

    /// The gather-up half of a round (paper §4.3.1), with dirty-tracking:
    /// only subtrees with a dirtied descendant (a leaf whose summary, built
    /// afresh from its input, `overlay` and priority, differs in value from
    /// the stored one, a re-pinned summary, or one re-summarized by a
    /// gather since the last [`ControlTree::budget_in`]) are
    /// re-summarized; clean nodes reuse the
    /// [`PriorityMetrics`] cached in `state`. When nothing moved since the
    /// state's last gather, the walk itself is skipped. Returns the root's
    /// summary.
    ///
    /// `overlay`, when present, is a node-indexed slice of per-leaf input
    /// replacements (used by the stranded-power optimizer's second pass):
    /// `Some(input)` at a leaf overrides the tree's stored input for this
    /// call only, without touching the tree.
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty, any leaf the walk reaches lacks an
    /// input, or `overlay` is present with a length other than
    /// `arena().len()`.
    pub fn gather_in<'s>(
        &self,
        policy: &dyn CappingPolicy,
        state: &'s mut TreeRoundState,
        overlay: Option<&[Option<SupplyInput>]>,
    ) -> &'s PriorityMetrics {
        assert!(!self.arena.is_empty(), "cannot allocate over an empty tree");
        let n = self.arena.len();
        if let Some(o) = overlay {
            assert_eq!(o.len(), n, "overlay must be node-indexed");
        }
        // (Re)shape the state and flag every node on the first gather,
        // after an invalidation, or on a tree or policy change, so the
        // walk recomputes every summary; pinned summaries survive (they
        // are inputs, not results).
        let reshaped = state.metrics.len() != n || state.policy_name != policy.name();
        if reshaped {
            state.memo = None;
            state.policy_name = policy.name();
            state.metrics.resize_with(n, PriorityMetrics::default);
            state.resplit.clear();
            state.resplit.resize(n, true);
        }

        // Nothing moved since the last gather — no leaf input or priority
        // (the tree's newest stamp is the one it saw), no pin, the same
        // overlay — so the walk would find every node clean: count them
        // skipped, as it would, and keep every summary.
        let kept = std::mem::take(&mut state.overlay_kept);
        let seen = std::mem::replace(&mut state.gathered, self.generation);
        let overlaid = std::mem::replace(&mut state.overlaid, overlay.is_some());
        let same_overlay = if overlay.is_some() { overlaid && kept } else { !overlaid };
        if !reshaped && state.pins.is_empty() && same_overlay && seen == self.generation {
            state.skipped += n as u64;
            return &state.metrics[ROOT];
        }

        // Gather children (higher indices) first. A recomputed summary
        // flags its node for the next budget_in, and so its parent here.
        for idx in (0..n).rev() {
            match state.pin_at(idx) {
                Pin::Free => {}
                Pin::Below => continue,
                pin => {
                    state.resplit[idx] |= pin == Pin::Changed;
                    state.pins[idx] = Pin::Held;
                    continue;
                }
            }
            if let Some(priority) = self.arena.priorities[idx] {
                let base = self.inputs[idx];
                let effective = match overlay {
                    Some(o) => o[idx].or(base),
                    None => base,
                };
                let input = effective.unwrap_or_else(|| self.missing_input(idx));
                // The stored summary is the change witness: rewriting it
                // from the current input reports whether its value moved.
                let changed = PriorityMetrics::from_leaf_into(
                    &LeafInput {
                        demand: input.demand,
                        cap_min: input.cap_min,
                        cap_max: input.cap_max,
                        share: input.share,
                        priority,
                    },
                    &mut state.metrics[idx],
                );
                if reshaped || changed {
                    state.resplit[idx] = true;
                    state.summarized += 1;
                } else {
                    state.skipped += 1;
                }
            } else {
                let children = self.arena.children_of(idx);
                // Flagged itself only after a reshape, or by a gather with
                // no budget_in since: re-summarizing gives the same bits.
                if state.resplit[idx] || children.iter().any(|&c| state.resplit[c as usize]) {
                    state.resplit[idx] = true;
                    state.summarized += 1;
                    let blind = matches!(
                        policy.visibility(self.arena.context(idx)),
                        PriorityVisibility::Blind
                    );
                    // Children always have higher indices than their
                    // parent (topological push order), so a split borrow
                    // separates the output node from its children.
                    let (head, tail) = state.metrics.split_at_mut(idx + 1);
                    PriorityMetrics::aggregate_into(
                        children.iter().map(|&c| &tail[c as usize - idx - 1]),
                        self.arena.limit(idx),
                        blind,
                        &mut head[idx],
                    );
                } else {
                    state.skipped += 1;
                }
            }
        }
        &state.metrics[ROOT]
    }

    /// The gather's panic for a leaf that has no input, naming it by server
    /// and supply.
    #[cold]
    fn missing_input(&self, idx: usize) -> ! {
        let leaf = self.arena.leaf(idx).expect("only leaves take inputs");
        panic!(
            "leaf {idx} ({} {}) has no supply input set",
            leaf.server, leaf.supply
        )
    }

    /// The budget-down half of a round (paper §4.3.2): distributes
    /// `root_budget` (clamped by the root's own limit) over the summaries
    /// the last [`ControlTree::gather_in`] left in `state`, splitting at
    /// every unpinned internal node through `allocator`, into `out`.
    ///
    /// Memoized against the previous `budget_in` on `state` (see
    /// [`TreeRoundState`]): only nodes whose budget or summary changed are
    /// re-split, so a round in which nothing changed splits nothing.
    /// Returns whether it re-split nothing since the call before, so that
    /// every budget in `out` is the one that call wrote.
    ///
    /// # Panics
    ///
    /// Panics if `state` has not been gathered over this tree.
    pub fn budget_in(
        &self,
        root_budget: Watts,
        policy: &dyn CappingPolicy,
        allocator: &dyn Allocator,
        state: &mut TreeRoundState,
        out: &mut Allocation,
    ) -> bool {
        let n = self.arena.len();
        assert!(
            state.metrics.len() == n && state.policy_name == policy.name(),
            "budget_in needs a gathered state"
        );
        let root = ROOT;
        let TreeRoundState {
            metrics,
            pins,
            budgets,
            resplit,
            root_leftover,
            memo,
            children_scratch,
            alloc_scratch,
            split_budgets,
            ..
        } = state;
        if *memo != Some(allocator.name()) || budgets.len() != n {
            *memo = Some(allocator.name());
            budgets.clear();
            budgets.resize(n, Watts::ZERO);
            resplit.clear();
            resplit.resize(n, true);
        }
        let splits = |idx: usize| {
            !self.arena.children_of(idx).is_empty()
                && pins.get(idx).is_none_or(|&p| p == Pin::Free)
        };
        let root_limit = self.arena.limit(root).unwrap_or(root_budget);
        set_budget(budgets, resplit, root, root_budget.min(root_limit));
        // A recomputed summary dirties every ancestor up to the root, and a
        // changed budget flags the root or a re-split parent, so a clear
        // root flag means every flag is clear.
        let settled = !resplit[root];
        let walk = if settled { 0..0 } else { 0..n };
        for idx in walk {
            if !std::mem::take(&mut resplit[idx]) || !splits(idx) {
                continue;
            }
            let children = self.arena.children_of(idx);
            let visibility = policy.visibility(self.arena.context(idx));
            if children_scratch.len() < children.len() {
                children_scratch.resize_with(children.len(), PriorityMetrics::default);
            }
            for (s, &c) in children.iter().enumerate() {
                match visibility {
                    PriorityVisibility::Full => {
                        children_scratch[s].copy_from(&metrics[c as usize])
                    }
                    PriorityVisibility::Blind => {
                        metrics[c as usize].collapsed_into(&mut children_scratch[s])
                    }
                }
            }
            let leftover = allocator.split(
                budgets[idx],
                &children_scratch[..children.len()],
                alloc_scratch,
                split_budgets,
            );
            for (&child, &budget) in children.iter().zip(split_budgets.iter()) {
                set_budget(budgets, resplit, child as usize, budget);
            }
            if idx == root {
                *root_leftover = leftover;
            }
        }
        let mut unallocated = root_budget - budgets[root];
        if splits(root) {
            unallocated += *root_leftover;
        }

        // Node budgets from the memo, leaf budgets by slot.
        let leaf_index = &self.arena.leaf_index;
        let Allocation {
            node_budgets,
            leaf_budgets,
            ..
        } = out;
        node_budgets.clone_from(budgets);
        leaf_budgets.clear();
        leaf_budgets.extend(
            leaf_index
                .nodes
                .iter()
                .map(|&node| node_budgets[node as usize]),
        );
        if !Arc::ptr_eq(&out.leaf_index, leaf_index) {
            out.leaf_index = Arc::clone(leaf_index);
        }
        out.unallocated = unallocated;
        settled
    }
}

/// `control tree feed A L1 (7 nodes, 4 leaves)`: the tree's name in traces.
impl fmt::Display for ControlTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arena = &self.arena;
        write!(
            f,
            "control tree {} {} ({} nodes, {} leaves)",
            arena.feed,
            arena.phase,
            arena.len(),
            arena.leaf_index.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::policy::{GlobalPriority, LocalPriority, NoPriority};
    use capmaestro_topology::presets::figure2_feed;
    use capmaestro_topology::Topology;

    const PAPER_INPUT: SupplyInput = SupplyInput {
        demand: Watts::new(430.0),
        cap_min: Watts::new(270.0),
        cap_max: Watts::new(490.0),
        share: Ratio::ONE,
    };

    fn fig2_tree() -> (Topology, ControlTree) {
        let topo = figure2_feed();
        let spec = topo.control_tree_specs().remove(0);
        let tree = ControlTree::with_uniform(spec, PAPER_INPUT);
        (topo, tree)
    }

    fn budget_of(topo: &Topology, alloc: &Allocation, name: &str) -> Watts {
        let id = topo.server_by_name(name).unwrap();
        alloc
            .supply_budget(id, SupplyIndex::FIRST)
            .unwrap_or_else(|| panic!("no budget for {name}"))
    }

    #[test]
    fn table1_global_priority_budgets() {
        let (topo, tree) = fig2_tree();
        let alloc = tree.allocate(Watts::new(1240.0), &GlobalPriority::new());
        assert_eq!(budget_of(&topo, &alloc, "SA"), Watts::new(430.0));
        assert_eq!(budget_of(&topo, &alloc, "SB"), Watts::new(270.0));
        assert_eq!(budget_of(&topo, &alloc, "SC"), Watts::new(270.0));
        assert_eq!(budget_of(&topo, &alloc, "SD"), Watts::new(270.0));
    }

    #[test]
    fn table1_local_priority_budgets() {
        let (topo, tree) = fig2_tree();
        let alloc = tree.allocate(Watts::new(1240.0), &LocalPriority::new());
        // The paper's Table 1: 350 / 270 / 310 / 310.
        assert_eq!(budget_of(&topo, &alloc, "SA"), Watts::new(350.0));
        assert_eq!(budget_of(&topo, &alloc, "SB"), Watts::new(270.0));
        assert_eq!(budget_of(&topo, &alloc, "SC"), Watts::new(310.0));
        assert_eq!(budget_of(&topo, &alloc, "SD"), Watts::new(310.0));
    }

    #[test]
    fn no_priority_splits_proportionally() {
        let (topo, tree) = fig2_tree();
        let alloc = tree.allocate(Watts::new(1240.0), &NoPriority::new());
        // Equal demands ⇒ equal budgets: 1240 / 4 = 310 each.
        for name in ["SA", "SB", "SC", "SD"] {
            assert!(budget_of(&topo, &alloc, name)
                .approx_eq(Watts::new(310.0), Watts::new(1e-6)));
        }
    }

    #[test]
    fn budgets_respect_cb_limits() {
        let (_, tree) = fig2_tree();
        for policy in [
            &GlobalPriority::new() as &dyn CappingPolicy,
            &LocalPriority::new(),
            &NoPriority::new(),
        ] {
            let alloc = tree.allocate(Watts::new(5000.0), policy);
            // Left/Right CBs (indices 1 and 2 in the fig2 spec) are 750 W.
            assert!(alloc.node_budget(1) <= Watts::new(750.0) + Watts::new(1e-6));
            assert!(alloc.node_budget(2) <= Watts::new(750.0) + Watts::new(1e-6));
            // Root clamped to its 1400 W limit.
            assert!(alloc.node_budget(0) <= Watts::new(1400.0) + Watts::new(1e-6));
        }
    }

    #[test]
    fn root_budget_above_limit_reported_unallocated() {
        let (_, tree) = fig2_tree();
        let alloc = tree.allocate(Watts::new(5000.0), &GlobalPriority::new());
        assert!(alloc.unallocated() >= Watts::new(5000.0 - 1400.0) - Watts::new(1e-6));
    }

    #[test]
    fn generous_budget_fills_demand_and_surplus() {
        let (topo, tree) = fig2_tree();
        let alloc = tree.allocate(Watts::new(1400.0), &GlobalPriority::new());
        // 1400 covers floors (1080) + SA's extra (160) = wait, covers all
        // demands? Σ demand = 1720 > 1400, so step 3 splits the rest.
        let total = alloc.total_leaf_budget();
        assert!(total.approx_eq(Watts::new(1400.0), Watts::new(1e-6)));
        // SA still gets its demand first.
        assert_eq!(budget_of(&topo, &alloc, "SA"), Watts::new(430.0));
    }

    #[test]
    fn conservation_under_all_policies() {
        let (_, tree) = fig2_tree();
        for policy in [
            &GlobalPriority::new() as &dyn CappingPolicy,
            &LocalPriority::new(),
            &NoPriority::new(),
        ] {
            for budget in [1080.0, 1240.0, 1400.0, 1700.0] {
                let alloc = tree.allocate(Watts::new(budget), policy);
                let leaf_total = alloc.total_leaf_budget();
                assert!(
                    leaf_total <= Watts::new(budget) + Watts::new(1e-6),
                    "{}: leaves exceed budget at {budget}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn uneven_demands_through_set_inputs_with() {
        // Table 2's measured demands: 420 / 413 / 417 / 423.
        let (topo, mut tree) = {
            let (t, tr) = fig2_tree();
            (t, tr)
        };
        let demands = [("SA", 420.0), ("SB", 413.0), ("SC", 417.0), ("SD", 423.0)];
        let by_id: Vec<(ServerId, f64)> = demands
            .iter()
            .map(|(n, d)| (topo.server_by_name(n).unwrap(), *d))
            .collect();
        tree.set_inputs_with(|server, _| {
            let demand = by_id
                .iter()
                .find(|(id, _)| *id == server)
                .map(|(_, d)| *d)
                .unwrap();
            SupplyInput {
                demand: Watts::new(demand),
                ..PAPER_INPUT
            }
        });
        let alloc = tree.allocate(Watts::new(1240.0), &GlobalPriority::new());
        // SA gets its full demand; the rest are pushed toward cap_min.
        assert_eq!(budget_of(&topo, &alloc, "SA"), Watts::new(420.0));
        for name in ["SB", "SC", "SD"] {
            let b = budget_of(&topo, &alloc, name);
            assert!(
                b >= Watts::new(270.0) - Watts::new(1e-6) && b < Watts::new(290.0),
                "{name} got {b}"
            );
        }
    }

    #[test]
    fn light_demand_still_budgeted_to_cap_min() {
        let (topo, mut tree) = fig2_tree();
        // SB runs nearly idle; its budget must still be at least cap_min.
        let sb = topo.server_by_name("SB").unwrap();
        tree.set_supply_input(
            sb,
            SupplyIndex::FIRST,
            SupplyInput {
                demand: Watts::new(170.0),
                ..PAPER_INPUT
            },
        );
        let alloc = tree.allocate(Watts::new(1240.0), &GlobalPriority::new());
        assert!(budget_of(&topo, &alloc, "SB") >= Watts::new(270.0) - Watts::new(1e-6));
    }

    #[test]
    fn set_supply_input_rejects_unknown() {
        let (_, mut tree) = fig2_tree();
        assert!(!tree.set_supply_input(
            ServerId(999),
            SupplyIndex::FIRST,
            PAPER_INPUT
        ));
    }

    #[test]
    #[should_panic(expected = "no supply input")]
    fn allocate_without_inputs_panics() {
        let topo = figure2_feed();
        let spec = topo.control_tree_specs().remove(0);
        let tree = ControlTree::new(spec);
        let _ = tree.allocate(Watts::new(1240.0), &GlobalPriority::new());
    }

    #[test]
    #[should_panic(expected = "(server#1 PS1) has no supply input set")]
    fn a_missing_input_panics_naming_the_leaf_by_server_and_supply() {
        let topo = figure2_feed();
        let mut tree = ControlTree::new(topo.control_tree_specs().remove(0));
        let sb = topo.server_by_name("SB").unwrap();
        assert_eq!(sb, ServerId(1));
        for name in ["SA", "SC", "SD"] {
            let id = topo.server_by_name(name).unwrap();
            assert!(tree.set_supply_input(id, SupplyIndex::FIRST, PAPER_INPUT));
        }
        let _ = tree.allocate(Watts::new(1240.0), &GlobalPriority::new());
    }

    /// The waterfall, counting the splits it is asked for.
    #[derive(Debug, Default)]
    struct CountingAllocator(std::sync::atomic::AtomicUsize);

    impl CountingAllocator {
        /// Splits since the last call.
        fn take(&self) -> usize {
            self.0.swap(0, std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl Allocator for CountingAllocator {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn split(
            &self,
            budget: Watts,
            children: &[PriorityMetrics],
            scratch: &mut AllocScratch,
            budgets: &mut Vec<Watts>,
        ) -> Watts {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            WaterfallAllocator.split(budget, children, scratch, budgets)
        }
    }

    fn assert_bitwise_eq(got: &Allocation, want: &Allocation) {
        let bits = |w: &[Watts]| w.iter().map(|w| w.as_f64().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.node_budgets), bits(&want.node_budgets));
        assert_eq!(bits(&got.leaf_budgets), bits(&want.leaf_budgets));
        assert_eq!(got.unallocated.as_f64().to_bits(), want.unallocated.as_f64().to_bits());
    }

    #[test]
    fn warm_budget_walk_re_splits_only_what_changed() {
        // Four 340 W leaves fit under the 1 400 W root and both 750 W CBs,
        // so every leaf is budgeted its cap_max whatever its demand.
        let (topo, mut tree) = fig2_tree();
        let input = SupplyInput {
            demand: Watts::new(300.0),
            cap_max: Watts::new(340.0),
            ..PAPER_INPUT
        };
        tree.set_inputs_with(|_, _| input);
        let (policy, counting) = (GlobalPriority::new(), CountingAllocator::default());
        let (mut state, mut out) = (TreeRoundState::new(), Allocation::default());
        let mut round = |tree: &ControlTree| {
            tree.allocate_in(Watts::new(1400.0), &policy, &counting, &mut state, None, &mut out);
            assert_bitwise_eq(&out, &tree.allocate(Watts::new(1400.0), &policy));
        };

        round(&tree);
        assert_eq!(counting.take(), 3, "a cold walk splits the root and both CBs");
        round(&tree);
        assert_eq!(counting.take(), 0, "an identical round splits nothing");

        // SA's demand moves: its ancestors' summaries are recomputed and
        // re-split, and hand down unchanged budgets, so the other CB's
        // subtree is not revisited.
        let sa = topo.server_by_name("SA").unwrap();
        tree.set_supply_input(sa, SupplyIndex::FIRST, SupplyInput {
            demand: Watts::new(320.0),
            ..input
        });
        let (arena, index) = (tree.arena(), tree.arena().leaf_index());
        let leaf = index.node(index.slot(sa, SupplyIndex::FIRST).unwrap());
        let parent_of =
            |idx: usize| (0..idx).find(|&p| arena.children_of(p).contains(&(idx as u32)));
        let ancestors = std::iter::successors(parent_of(leaf), |&p| parent_of(p)).count();
        assert_eq!(ancestors, 2);
        round(&tree);
        assert_eq!(counting.take(), ancestors);
        round(&tree);
        assert_eq!(counting.take(), 0);
    }

    /// Sets server `name`'s demand in the fig. 2 tree.
    fn set_demand(topo: &Topology, tree: &mut ControlTree, name: &str, watts: f64) {
        let id = topo.server_by_name(name).unwrap();
        let input = SupplyInput {
            demand: Watts::new(watts),
            ..PAPER_INPUT
        };
        assert!(tree.set_supply_input(id, SupplyIndex::FIRST, input));
    }

    #[test]
    fn a_moved_leaf_re_summarizes_its_path_and_unsettles_the_budget() {
        let (topo, mut tree) = fig2_tree();
        let (policy, budget) = (GlobalPriority::new(), Watts::new(1240.0));
        let (mut state, mut out) = (TreeRoundState::new(), Allocation::default());
        let allocator = &WaterfallAllocator;
        assert!(!tree.allocate_in(budget, &policy, allocator, &mut state, None, &mut out));
        assert!(tree.allocate_in(budget, &policy, allocator, &mut state, None, &mut out));

        // SA moves: the gather re-summarizes SA, its CB and the root, and
        // reuses the other four nodes.
        set_demand(&topo, &mut tree, "SA", 420.0);
        let (summarized, skipped) = state.gather_stats();
        tree.gather_in(&policy, &mut state, None);
        let nodes = tree.arena().len() as u64;
        assert_eq!(state.gather_stats(), (summarized + 3, skipped + nodes - 3));
        assert!(!tree.budget_in(budget, &policy, allocator, &mut state, &mut out));
        assert_bitwise_eq(&out, &tree.allocate(budget, &policy));
        assert!(tree.allocate_in(budget, &policy, allocator, &mut state, None, &mut out));
    }

    #[test]
    fn a_leaf_whose_summary_holds_dirties_nothing() {
        // SB's demand is below its 270 W cap_min before and after the
        // move, so its summary (demand floored at cap_min) is unchanged.
        let (topo, mut tree) = fig2_tree();
        set_demand(&topo, &mut tree, "SB", 200.0);
        let (policy, budget, counting) =
            (GlobalPriority::new(), Watts::new(1240.0), CountingAllocator::default());
        let (mut state, mut out) = (TreeRoundState::new(), Allocation::default());
        tree.allocate_in(budget, &policy, &counting, &mut state, None, &mut out);
        counting.take();

        set_demand(&topo, &mut tree, "SB", 180.0);
        let (summarized, skipped) = state.gather_stats();
        tree.gather_in(&policy, &mut state, None);
        let nodes = tree.arena().len() as u64;
        assert_eq!(state.gather_stats(), (summarized, skipped + nodes));
        assert!(tree.budget_in(budget, &policy, &counting, &mut state, &mut out));
        assert_eq!(counting.take(), 0, "an unchanged summary re-splits nothing");
        assert_bitwise_eq(&out, &tree.allocate(budget, &policy));
    }

    #[test]
    fn a_priority_change_re_summarizes_exactly_its_path() {
        let (topo, mut tree) = fig2_tree();
        let (policy, budget, counting) =
            (GlobalPriority::new(), Watts::new(1240.0), CountingAllocator::default());
        let (mut state, mut out) = (TreeRoundState::new(), Allocation::default());
        tree.allocate_in(budget, &policy, &counting, &mut state, None, &mut out);
        counting.take();

        // SB turns high priority with its input unchanged: SB, its CB and
        // the root are re-summarized, and both of SB's ancestors re-split.
        let sb = topo.server_by_name("SB").unwrap();
        let arena = tree.arena();
        let priorities: HashMap<ServerId, Priority> = arena
            .leaves()
            .map(|(_, leaf)| (leaf.server, leaf.priority))
            .collect();
        assert_eq!(priorities[&sb], Priority::LOW);
        tree.set_priorities_with(|id| if id == sb { Priority::HIGH } else { priorities[&id] });
        let (summarized, skipped) = state.gather_stats();
        tree.gather_in(&policy, &mut state, None);
        let nodes = tree.arena().len() as u64;
        assert_eq!(state.gather_stats(), (summarized + 3, skipped + nodes - 3));
        assert!(!tree.budget_in(budget, &policy, &counting, &mut state, &mut out));
        assert_eq!(counting.take(), 2);
        assert_bitwise_eq(&out, &tree.allocate(budget, &policy));
    }

    #[test]
    fn two_gathers_without_a_budget_match_a_fresh_state() {
        let (topo, mut tree) = fig2_tree();
        let (policy, budget) = (GlobalPriority::new(), Watts::new(1240.0));
        let (mut state, mut out) = (TreeRoundState::new(), Allocation::default());
        tree.allocate_in(
            budget,
            &policy,
            &WaterfallAllocator,
            &mut state,
            None,
            &mut out,
        );

        // SA's path is re-summarized by the first gather, SC's by the
        // second, and only then is a budget split.
        set_demand(&topo, &mut tree, "SA", 420.0);
        tree.gather_in(&policy, &mut state, None);
        set_demand(&topo, &mut tree, "SC", 380.0);
        let root = tree.gather_in(&policy, &mut state, None).clone();
        assert_eq!(
            root,
            *tree.gather_in(&policy, &mut TreeRoundState::new(), None)
        );
        tree.budget_in(budget, &policy, &WaterfallAllocator, &mut state, &mut out);
        assert_bitwise_eq(&out, &tree.allocate(budget, &policy));
    }

    #[test]
    fn an_invalidated_state_serves_another_tree_afresh() {
        // Two trees of one shape, inputs and leaf generation that differ
        // only in a CB limit, as a tree set that changed under a state.
        let mut spec = figure2_feed().control_tree_specs().remove(0);
        spec.node_mut(1).limit = Some(Watts::new(600.0));
        let narrow = ControlTree::with_uniform(spec, PAPER_INPUT);
        let (_, wide) = fig2_tree();
        let (policy, budget) = (GlobalPriority::new(), Watts::new(1240.0));
        let (mut state, mut out) = (TreeRoundState::new(), Allocation::default());
        wide.allocate_in(
            budget,
            &policy,
            &WaterfallAllocator,
            &mut state,
            None,
            &mut out,
        );
        state.invalidate();
        narrow.allocate_in(
            budget,
            &policy,
            &WaterfallAllocator,
            &mut state,
            None,
            &mut out,
        );
        assert_bitwise_eq(&out, &narrow.allocate(budget, &policy));
    }

    #[test]
    #[should_panic(expected = "needs a gathered state")]
    fn budget_after_invalidate_panics() {
        let (_, tree) = fig2_tree();
        let (policy, budget) = (GlobalPriority::new(), Watts::new(1240.0));
        let (mut state, mut out) = (TreeRoundState::new(), Allocation::default());
        tree.allocate_in(
            budget,
            &policy,
            &WaterfallAllocator,
            &mut state,
            None,
            &mut out,
        );
        state.invalidate();
        tree.budget_in(budget, &policy, &WaterfallAllocator, &mut state, &mut out);
    }

    #[test]
    fn gather_reports_levels_per_policy() {
        let (_, tree) = fig2_tree();
        let root_levels = |policy: &dyn CappingPolicy| {
            tree.gather_in(policy, &mut TreeRoundState::new(), None).levels().len()
        };
        // Root sees both priority levels under Global.
        assert_eq!(root_levels(&GlobalPriority::new()), 2);
        // Root sees a single collapsed level under Local.
        assert_eq!(root_levels(&LocalPriority::new()), 1);
        assert_eq!(root_levels(&NoPriority::new()), 1);
    }
}
