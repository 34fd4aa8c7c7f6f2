//! Append-only operator event log and desired-state reconciliation.
//!
//! The serving layer's operator API does not mutate the control plane
//! directly. Every operator mutation — a root budget, a group priority
//! band, a server drain, a policy switch — becomes an [`Op`] wrapped in a
//! versioned, monotonically-sequenced [`Envelope`] appended to an
//! [`OpLog`]. The log is the source of truth:
//!
//! - [`DesiredState::replay`] folds any prefix of the log into the
//!   declared state, bit-identically to incremental application — so the
//!   state after a daemon restart is exactly the state before it, and any
//!   historical instant can be reconstructed for time-travel debugging of
//!   capping incidents.
//! - [`plan`] diffs a [`DesiredState`] against the live
//!   [`ControlPlane`]/[`Farm`] pair and emits the minimal
//!   [`ReconcilePlan`] that converges live onto declared. An empty diff
//!   yields an empty plan, so a quiescent log leaves the round pipeline
//!   bit-identical to one that never had a reconciler.
//!
//! On disk the log is written and read by the [`crate::wire`] codec
//! itself (its framing, writers, reader and allocator bytes): each
//! envelope is one length-prefixed frame (`len:u32le payload`), the
//! payload opens with a version byte and an op tag, integers are
//! little-endian, and watt quantities are IEEE-754 bit patterns — a
//! replayed budget is *bit-exactly* the budget that was declared.
//! Decoding is total: corrupt or torn bytes yield an error or a clean
//! truncation, never a panic. A torn final frame (the classic
//! crash-mid-append) is silently dropped on open and overwritten by the
//! next append.
//!
//! There are deliberately no dependencies here beyond `std` and the
//! workspace substrate crates.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use capmaestro_topology::{Priority, ServerId};
use capmaestro_units::Watts;

use crate::alloc::AllocatorKind;
use crate::plane::{ControlPlane, Farm};
use crate::tree::TreeArena;
use crate::wire::{
    frame, put_allocator, put_u16, put_u32, put_u64, put_watts, split_frame, Reader, WireError,
};

/// Envelope schema version carried in every persisted payload. Bump on
/// any layout change; decoders reject other versions outright.
pub const OPLOG_VERSION: u8 = 1;

/// Upper bound on an idempotency key, in bytes. Generous for UUIDs and
/// human labels while keeping a hostile header from bloating the log.
pub const MAX_KEY_BYTES: usize = 128;

// ---------------------------------------------------------------------------
// Operations and envelopes
// ---------------------------------------------------------------------------

/// One operator mutation. Ids are positional (tree = position in the tree
/// set the plane was built with, which a feed outage does not shift; node
/// = level-order index into that tree's arena; server = topology
/// [`ServerId`]); an id that does not resolve at reconciliation time (a
/// parked tree) is skipped, not an error — the log outlives topology
/// changes such as feed failures.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Declare one tree's root budget.
    SetTreeBudget {
        /// The tree's position in the plane's built tree set.
        tree: u32,
        /// The declared root budget.
        watts: Watts,
    },
    /// Declare every tree's root budget at once (the legacy
    /// `POST /v1/budget` surface; equivalent to one [`Op::SetTreeBudget`]
    /// per element, element `i` naming tree `i`).
    SetRootBudgets(
        /// Per-tree budgets, one per tree the plane was built with, in
        /// tree-id order.
        Vec<Watts>,
    ),
    /// Declare a priority band for every server under one control-tree
    /// node (a rack, a PDU, a feed — whatever the node spans). Deeper
    /// nodes are applied after shallower ones, so the most specific
    /// declared group wins.
    SetGroupPriority {
        /// The tree's position in the plane's built tree set.
        tree: u32,
        /// Level-order arena index of the group's root node.
        node: u32,
        /// The priority band for every server under the node.
        priority: Priority,
    },
    /// Withdraw a group's declared priority band: servers it covered
    /// (and no other declared group covers) revert to their static
    /// topology priority.
    ClearGroupPriority {
        /// The tree's position in the plane's built tree set.
        tree: u32,
        /// Level-order arena index of the group's root node.
        node: u32,
    },
    /// Declare a server drained (`enabled: false` powers it off at the
    /// next round boundary) or returned to service (`enabled: true`).
    /// Only servers that appear in some `SetServerEnabled` event are
    /// managed; the reconciler never fights simulated supply failures on
    /// undeclared servers.
    SetServerEnabled {
        /// The server being drained or restored.
        server: ServerId,
        /// Whether the server should be powered.
        enabled: bool,
    },
    /// Declare the budget-split allocator the plane races at every tree
    /// node.
    SetAllocator(
        /// The declared allocator.
        AllocatorKind,
    ),
}

/// A sequenced, optionally idempotency-keyed log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Monotonic 1-based sequence number, assigned at append.
    pub seq: u64,
    /// Simulated second at which the mutation was accepted (operator
    /// context, not replay input — replay is a pure fold over ops).
    pub at_s: u64,
    /// The client's idempotency key, if it sent one.
    pub key: Option<String>,
    /// The mutation itself.
    pub op: Op,
}

/// Payload tag bytes, one per [`Op`] variant.
mod tag {
    /// [`super::Op::SetTreeBudget`].
    pub const SET_TREE_BUDGET: u8 = 1;
    /// [`super::Op::SetRootBudgets`].
    pub const SET_ROOT_BUDGETS: u8 = 2;
    /// [`super::Op::SetGroupPriority`].
    pub const SET_GROUP_PRIORITY: u8 = 3;
    /// [`super::Op::ClearGroupPriority`].
    pub const CLEAR_GROUP_PRIORITY: u8 = 4;
    /// [`super::Op::SetServerEnabled`].
    pub const SET_SERVER_ENABLED: u8 = 5;
    /// [`super::Op::SetAllocator`].
    pub const SET_ALLOCATOR: u8 = 6;
}

/// Serializes an envelope into one frame payload (without the length
/// prefix — [`crate::wire::frame`] adds that).
pub fn encode_envelope(envelope: &Envelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(OPLOG_VERSION);
    out.push(match &envelope.op {
        Op::SetTreeBudget { .. } => tag::SET_TREE_BUDGET,
        Op::SetRootBudgets(_) => tag::SET_ROOT_BUDGETS,
        Op::SetGroupPriority { .. } => tag::SET_GROUP_PRIORITY,
        Op::ClearGroupPriority { .. } => tag::CLEAR_GROUP_PRIORITY,
        Op::SetServerEnabled { .. } => tag::SET_SERVER_ENABLED,
        Op::SetAllocator(_) => tag::SET_ALLOCATOR,
    });
    put_u64(&mut out, envelope.seq);
    put_u64(&mut out, envelope.at_s);
    let key = envelope.key.as_deref().unwrap_or("");
    debug_assert!(key.len() <= MAX_KEY_BYTES, "append validates key length");
    put_u16(&mut out, key.len() as u16);
    out.extend_from_slice(key.as_bytes());
    match &envelope.op {
        Op::SetTreeBudget { tree, watts } => {
            put_u32(&mut out, *tree);
            put_watts(&mut out, *watts);
        }
        Op::SetRootBudgets(budgets) => {
            put_u32(&mut out, budgets.len() as u32);
            for w in budgets {
                put_watts(&mut out, *w);
            }
        }
        Op::SetGroupPriority {
            tree,
            node,
            priority,
        } => {
            put_u32(&mut out, *tree);
            put_u32(&mut out, *node);
            out.push(priority.0);
        }
        Op::ClearGroupPriority { tree, node } => {
            put_u32(&mut out, *tree);
            put_u32(&mut out, *node);
        }
        Op::SetServerEnabled { server, enabled } => {
            put_u32(&mut out, server.0);
            out.push(u8::from(*enabled));
        }
        Op::SetAllocator(kind) => put_allocator(&mut out, *kind),
    }
    out
}

/// Deserializes one envelope payload (the bytes inside a frame).
///
/// Total: every byte sequence yields an envelope or a [`WireError`],
/// never a panic, and element counts are bounds-checked against the
/// payload before any allocation.
pub fn decode_envelope(payload: &[u8]) -> Result<Envelope, WireError> {
    let mut r = Reader::new(payload);
    let version = r.take_u8()?;
    if version != OPLOG_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let tag = r.take_u8()?;
    let seq = r.take_u64()?;
    let at_s = r.take_u64()?;
    let key_len = r.take_u16()? as usize;
    if key_len > MAX_KEY_BYTES {
        return Err(WireError::BadValue {
            what: "idempotency key too long",
        });
    }
    let key_bytes = r.take(key_len)?;
    let key = if key_len == 0 {
        None
    } else {
        Some(
            std::str::from_utf8(key_bytes)
                .map_err(|_| WireError::BadValue {
                    what: "idempotency key is not utf-8",
                })?
                .to_string(),
        )
    };
    let op = match tag {
        tag::SET_TREE_BUDGET => Op::SetTreeBudget {
            tree: r.take_u32()?,
            watts: r.take_watts()?,
        },
        tag::SET_ROOT_BUDGETS => {
            let count = r.take_count(8)?;
            let mut budgets = Vec::with_capacity(count);
            for _ in 0..count {
                budgets.push(r.take_watts()?);
            }
            Op::SetRootBudgets(budgets)
        }
        tag::SET_GROUP_PRIORITY => Op::SetGroupPriority {
            tree: r.take_u32()?,
            node: r.take_u32()?,
            priority: Priority(r.take_u8()?),
        },
        tag::CLEAR_GROUP_PRIORITY => Op::ClearGroupPriority {
            tree: r.take_u32()?,
            node: r.take_u32()?,
        },
        tag::SET_SERVER_ENABLED => Op::SetServerEnabled {
            server: ServerId(r.take_u32()?),
            enabled: match r.take_u8()? {
                0 => false,
                1 => true,
                _ => {
                    return Err(WireError::BadValue {
                        what: "enabled flag is not 0 or 1",
                    })
                }
            },
        },
        tag::SET_ALLOCATOR => Op::SetAllocator(r.take_allocator()?),
        other => return Err(WireError::BadTag { got: other }),
    };
    r.finish()?;
    Ok(Envelope {
        seq,
        at_s,
        key,
        op,
    })
}

// ---------------------------------------------------------------------------
// Desired state
// ---------------------------------------------------------------------------

/// The declared operator state: a pure fold over the event log.
///
/// Replaying any log prefix reconstructs this bit-identically to having
/// applied the same events incrementally — the property the oplog
/// proptests pin down. All maps are ordered so iteration (and therefore
/// every reconciliation plan built from this state) is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DesiredState {
    /// Declared per-tree root budgets (tree position → watts; see
    /// [`Op`]). Trees with no entry keep their live budget.
    pub tree_budgets: BTreeMap<u32, Watts>,
    /// Declared group priority bands, `(tree, node)` → band. `Some` is
    /// an active band; `None` records an explicit clear (servers under
    /// the node are driven back to their static priority).
    pub group_priorities: BTreeMap<(u32, u32), Option<Priority>>,
    /// Declared server enable states. Servers absent from the map are
    /// unmanaged.
    pub server_enabled: BTreeMap<ServerId, bool>,
    /// The declared budget-split allocator, if one was ever declared.
    pub allocator: Option<AllocatorKind>,
    /// Sequence number of the last event folded in (0 = none).
    pub seq: u64,
}

impl DesiredState {
    /// Folds one event into the state. Events are commutative only in
    /// the trivial cases; callers must apply them in sequence order
    /// (which [`DesiredState::replay`] and the serving reconciler do).
    pub fn apply(&mut self, envelope: &Envelope) {
        match &envelope.op {
            Op::SetTreeBudget { tree, watts } => {
                self.tree_budgets.insert(*tree, *watts);
            }
            Op::SetRootBudgets(budgets) => {
                for (tree, watts) in budgets.iter().enumerate() {
                    self.tree_budgets.insert(tree as u32, *watts);
                }
            }
            Op::SetGroupPriority {
                tree,
                node,
                priority,
            } => {
                self.group_priorities
                    .insert((*tree, *node), Some(*priority));
            }
            Op::ClearGroupPriority { tree, node } => {
                self.group_priorities.insert((*tree, *node), None);
            }
            Op::SetServerEnabled { server, enabled } => {
                self.server_enabled.insert(*server, *enabled);
            }
            Op::SetAllocator(kind) => self.allocator = Some(*kind),
        }
        self.seq = envelope.seq;
    }

    /// Reconstructs the declared state from a log slice — the pure
    /// replay the restart path and time-travel debugging use.
    pub fn replay(events: &[Envelope]) -> DesiredState {
        let mut state = DesiredState::default();
        for envelope in events {
            state.apply(envelope);
        }
        state
    }
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// Why an append or open failed.
#[derive(Debug)]
pub enum OplogError {
    /// The idempotency key exceeds [`MAX_KEY_BYTES`].
    KeyTooLong {
        /// The offending key's byte length.
        len: usize,
    },
    /// The key was seen before with a *different* op — a client bug, not
    /// a retry; the original event is untouched.
    IdempotencyConflict {
        /// Sequence number of the original event with this key.
        existing_seq: u64,
    },
    /// An op field is semantically invalid (non-finite or negative
    /// watts).
    InvalidOp(
        /// What was wrong.
        &'static str,
    ),
    /// The backing file could not be read or written.
    Io(
        /// The underlying I/O error.
        std::io::Error,
    ),
}

impl fmt::Display for OplogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OplogError::KeyTooLong { len } => {
                write!(f, "idempotency key of {len} bytes exceeds {MAX_KEY_BYTES}")
            }
            OplogError::IdempotencyConflict { existing_seq } => write!(
                f,
                "idempotency key already used by event {existing_seq} with a different op"
            ),
            OplogError::InvalidOp(what) => write!(f, "invalid op: {what}"),
            OplogError::Io(e) => write!(f, "oplog i/o: {e}"),
        }
    }
}

impl Error for OplogError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OplogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for OplogError {
    fn from(e: std::io::Error) -> Self {
        OplogError::Io(e)
    }
}

/// What [`OpLog::append`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// A new event was appended with this sequence number.
    Appended(
        /// The new event's sequence number.
        u64,
    ),
    /// The idempotency key matched an existing event with the same op;
    /// nothing was appended. Retries are safe.
    Replayed(
        /// The original event's sequence number.
        u64,
    ),
}

impl AppendOutcome {
    /// The sequence number of the event this outcome refers to.
    pub fn seq(self) -> u64 {
        match self {
            AppendOutcome::Appended(seq) | AppendOutcome::Replayed(seq) => seq,
        }
    }

    /// Whether the outcome was an idempotent replay.
    pub fn replayed(self) -> bool {
        matches!(self, AppendOutcome::Replayed(_))
    }
}

/// What [`OpLog::open`] salvaged from an existing file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Events recovered intact.
    pub recovered: usize,
    /// Trailing bytes dropped (torn final frame or corruption tail).
    pub dropped_bytes: usize,
    /// Whether anything was dropped.
    pub truncated: bool,
}

/// The append-only operator event log: an in-memory event vector, an
/// idempotency-key index, and optionally a length-prefixed backing file
/// every append is flushed to.
#[derive(Debug)]
pub struct OpLog {
    /// Events in sequence order (`events[i].seq == i + 1`).
    events: Vec<Envelope>,
    /// Idempotency key → index into `events`.
    by_key: HashMap<String, usize>,
    /// The backing file, positioned at end, when persistence is on.
    file: Option<File>,
}

impl OpLog {
    /// A fresh in-memory log (no persistence).
    pub fn in_memory() -> Self {
        OpLog {
            events: Vec::new(),
            by_key: HashMap::new(),
            file: None,
        }
    }

    /// Opens (or creates) a file-backed log, replaying whatever the file
    /// holds. A torn final frame — the footprint of a crash mid-append —
    /// is dropped and the file truncated to the last intact event, as is
    /// any tail that fails to decode or breaks the sequence; recovery
    /// never panics and never refuses the healthy prefix.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, RecoveryReport), OplogError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut events: Vec<Envelope> = Vec::new();
        let mut by_key = HashMap::new();
        let mut good = 0usize; // byte offset of the last intact frame end
        let mut offset = 0usize;
        loop {
            let rest = &bytes[offset..];
            match split_frame(rest) {
                Ok(Some((payload, consumed))) => {
                    let Ok(envelope) = decode_envelope(payload) else {
                        break; // corrupt frame: keep the prefix, drop the rest
                    };
                    if envelope.seq != events.len() as u64 + 1 {
                        break; // sequence break: same treatment
                    }
                    if let Some(key) = &envelope.key {
                        by_key.insert(key.clone(), events.len());
                    }
                    events.push(envelope);
                    offset += consumed;
                    good = offset;
                }
                Ok(None) => break,  // torn tail (or clean EOF)
                Err(_) => break,    // oversized length prefix: framing lost
            }
        }

        let dropped = bytes.len() - good;
        if dropped > 0 {
            file.set_len(good as u64)?;
        }
        file.seek(SeekFrom::Start(good as u64))?;
        let report = RecoveryReport {
            recovered: events.len(),
            dropped_bytes: dropped,
            truncated: dropped > 0,
        };
        Ok((
            OpLog {
                events,
                by_key,
                file: Some(file),
            },
            report,
        ))
    }

    /// Appends an op (or replays an idempotent retry). The event is
    /// written and flushed to the backing file *before* it becomes
    /// visible in memory, so a crash can tear at most the final frame —
    /// exactly what [`OpLog::open`] recovers from.
    pub fn append(
        &mut self,
        at_s: u64,
        key: Option<&str>,
        op: Op,
    ) -> Result<AppendOutcome, OplogError> {
        if let Some(key) = key {
            if key.len() > MAX_KEY_BYTES {
                return Err(OplogError::KeyTooLong { len: key.len() });
            }
            if let Some(&idx) = self.by_key.get(key) {
                let existing = &self.events[idx];
                if existing.op == op {
                    return Ok(AppendOutcome::Replayed(existing.seq));
                }
                return Err(OplogError::IdempotencyConflict {
                    existing_seq: existing.seq,
                });
            }
        }
        validate_op(&op)?;
        let envelope = Envelope {
            seq: self.events.len() as u64 + 1,
            at_s,
            key: key.map(str::to_string),
            op,
        };
        if let Some(file) = &mut self.file {
            let framed = frame(&encode_envelope(&envelope));
            file.write_all(&framed)?;
            file.flush()?;
        }
        let seq = envelope.seq;
        if let Some(key) = &envelope.key {
            self.by_key.insert(key.clone(), self.events.len());
        }
        self.events.push(envelope);
        Ok(AppendOutcome::Appended(seq))
    }

    /// Every event, in sequence order.
    pub fn events(&self) -> &[Envelope] {
        &self.events
    }

    /// Events with `seq > since` (the `GET /v1/events?since=` slice).
    pub fn since(&self, since: u64) -> &[Envelope] {
        let start = (since.min(self.events.len() as u64)) as usize;
        &self.events[start..]
    }

    /// The newest sequence number (0 while the log is empty).
    pub fn head_seq(&self) -> u64 {
        self.events.len() as u64
    }

    /// Number of events in the log.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Rejects ops whose fields could corrupt replay (non-finite watts are
/// unrepresentable bit-exactly in JSON and meaningless as budgets).
fn validate_op(op: &Op) -> Result<(), OplogError> {
    let watts_ok = |w: &Watts| w.as_f64().is_finite() && w.as_f64() >= 0.0;
    match op {
        Op::SetTreeBudget { watts, .. } if !watts_ok(watts) => {
            Err(OplogError::InvalidOp("non-finite or negative tree budget"))
        }
        Op::SetRootBudgets(budgets) if !budgets.iter().all(watts_ok) => {
            Err(OplogError::InvalidOp("non-finite or negative root budget"))
        }
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Reconciliation
// ---------------------------------------------------------------------------

/// The minimal set of actions that converges a live plane onto a
/// [`DesiredState`]. Produced by [`plan`]; applied by the engine (the
/// single writer) at a round boundary. Deterministic: equal inputs give
/// an identical plan, and a converged plane yields an empty one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReconcilePlan {
    /// Full per-tree root budget vector to stage, when any tree's live
    /// budget differs bitwise from its declared one (undeclared trees
    /// keep their live value).
    pub root_budgets: Option<Vec<Watts>>,
    /// Per-server priority actions: `Some(p)` sets a dynamic override,
    /// `None` clears it (reverting to the static topology priority).
    pub priorities: Vec<(ServerId, Option<Priority>)>,
    /// Per-server power flips (drain / return to service).
    pub power: Vec<(ServerId, bool)>,
    /// Allocator switch, when the declared kind differs from the live
    /// configuration.
    pub allocator: Option<AllocatorKind>,
}

impl ReconcilePlan {
    /// Whether the plan does nothing (live already matches declared).
    pub fn is_empty(&self) -> bool {
        self.root_budgets.is_none()
            && self.priorities.is_empty()
            && self.power.is_empty()
            && self.allocator.is_none()
    }

    /// Total number of actions in the plan.
    pub fn action_count(&self) -> usize {
        usize::from(self.root_budgets.is_some())
            + self.priorities.len()
            + self.power.len()
            + usize::from(self.allocator.is_some())
    }
}

/// Every server with a leaf under the arena subtree rooted at `node`,
/// deduplicated and ordered.
fn servers_under(arena: &TreeArena, node: usize) -> BTreeSet<ServerId> {
    // Collect the subtree's node set by DFS, then map leaf slots onto it.
    let mut subtree = BTreeSet::new();
    let mut stack = vec![node];
    while let Some(idx) = stack.pop() {
        if subtree.insert(idx) {
            stack.extend(arena.children_of(idx).iter().map(|&c| c as usize));
        }
    }
    let leaves = arena.leaf_index();
    let mut servers = BTreeSet::new();
    for slot in 0..leaves.len() {
        if subtree.contains(&leaves.node(slot)) {
            servers.insert(leaves.pair(slot).0);
        }
    }
    servers
}

/// Diffs declared state against the live plane and farm.
///
/// Tree ids resolve through the positions the plane's trees were built
/// at, so a feed outage shifts no declared budget or band onto another
/// feed's tree. Ids that no longer resolve (a parked tree, an
/// out-of-range node, a server the farm never had) are skipped — the
/// declared state simply has nothing to act on until the topology
/// returns. Group bands are
/// applied in ascending `(tree, node)` order; arenas are level-ordered,
/// so a deeper (more specific) declared group overrides a shallower one
/// for the servers both cover.
pub fn plan(desired: &DesiredState, plane: &ControlPlane, farm: &Farm) -> ReconcilePlan {
    let mut out = ReconcilePlan::default();

    // Root budgets: declared overrides on top of the live resolution.
    if !desired.tree_budgets.is_empty() {
        let live = plane.root_budgets_now();
        let mut target = live.clone();
        for (&tree, &watts) in &desired.tree_budgets {
            if let Some(live) = plane.live_tree(tree) {
                target[live] = watts;
            }
        }
        let differs = live
            .iter()
            .zip(&target)
            .any(|(a, b)| a.as_f64().to_bits() != b.as_f64().to_bits());
        if differs {
            out.root_budgets = Some(target);
        }
    }

    // Priority bands: fold groups into a per-server target, then diff
    // against what the next round would actually use.
    let mut target: BTreeMap<ServerId, Option<Priority>> = BTreeMap::new();
    for (&(tree, node), &band) in &desired.group_priorities {
        let Some(live) = plane.live_tree(tree) else {
            continue;
        };
        let control_tree = &plane.trees()[live];
        let arena = control_tree.arena();
        if node as usize >= arena.len() {
            continue;
        }
        for server in servers_under(arena, node as usize) {
            target.insert(server, band);
        }
    }
    for (server, band) in target {
        let Some(effective) = plane.effective_priority(server) else {
            continue;
        };
        let Some(static_priority) = plane.static_priority(server) else {
            continue;
        };
        let want = band.unwrap_or(static_priority);
        if effective != want {
            out.priorities.push((server, band.map(|_| want)));
        }
    }

    // Drains: only declared servers are managed.
    for (&server, &enabled) in &desired.server_enabled {
        if let Some(live) = farm.get(server) {
            if live.is_powered() != enabled {
                out.power.push((server, enabled));
            }
        }
    }

    // Allocator.
    if let Some(kind) = desired.allocator {
        if kind != plane.config().allocator {
            out.allocator = Some(kind);
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trips every op variant through the codec bit-exactly, and
    /// pins each encoding to its on-disk bytes: a round trip alone would
    /// pass if encoder and decoder drifted together.
    #[test]
    fn envelope_codec_round_trips_every_variant() {
        const ON_DISK: [&str; 6] = [
            "01010100000000000000000000000000000005006b65792d30030000000000000000629340",
            "010202000000000000002a000000000000000000020000000000000000e085400000000000da8540",
            "01030300000000000000540000000000000005006b65792d32000000000200000004",
            "010404000000000000007e0000000000000000000000000002000000",
            "01050500000000000000a80000000000000005006b65792d341100000000",
            "01060600000000000000d200000000000000000003",
        ];
        let ops = vec![
            Op::SetTreeBudget {
                tree: 3,
                watts: Watts::new(1240.5),
            },
            Op::SetRootBudgets(vec![Watts::new(700.0), Watts::new(699.25)]),
            Op::SetGroupPriority {
                tree: 0,
                node: 2,
                priority: Priority(4),
            },
            Op::ClearGroupPriority { tree: 0, node: 2 },
            Op::SetServerEnabled {
                server: ServerId(17),
                enabled: false,
            },
            Op::SetAllocator(AllocatorKind::FairShare),
        ];
        for (i, op) in ops.into_iter().enumerate() {
            let envelope = Envelope {
                seq: i as u64 + 1,
                at_s: 42 * i as u64,
                key: (i % 2 == 0).then(|| format!("key-{i}")),
                op,
            };
            let bytes = encode_envelope(&envelope);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, ON_DISK[i], "{:?}", envelope.op);
            let decoded = decode_envelope(&bytes).expect("round trip");
            assert_eq!(decoded, envelope);
        }
    }

    #[test]
    fn decode_rejects_hostile_payloads_without_panicking() {
        // Truncations of a valid payload.
        let envelope = Envelope {
            seq: 1,
            at_s: 0,
            key: Some("abc".to_string()),
            op: Op::SetRootBudgets(vec![Watts::new(700.0)]),
        };
        let bytes = encode_envelope(&envelope);
        for cut in 0..bytes.len() {
            assert!(decode_envelope(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Bad version, bad tag, trailing bytes, hostile count.
        let mut bad = bytes.clone();
        bad[0] = 99;
        assert_eq!(
            decode_envelope(&bad),
            Err(WireError::BadVersion { got: 99 })
        );
        let mut bad = bytes.clone();
        bad[1] = 200;
        assert_eq!(decode_envelope(&bad), Err(WireError::BadTag { got: 200 }));
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            decode_envelope(&bad),
            Err(WireError::TrailingBytes { .. })
        ));
        // A count promising far more elements than the payload holds
        // must fail before allocating.
        let huge = Envelope {
            seq: 1,
            at_s: 0,
            key: None,
            op: Op::SetRootBudgets(Vec::new()),
        };
        let mut bytes = encode_envelope(&huge);
        let count_at = bytes.len() - 4;
        bytes[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_envelope(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn idempotent_retries_replay_and_conflicts_are_rejected() {
        let mut log = OpLog::in_memory();
        let op = Op::SetTreeBudget {
            tree: 0,
            watts: Watts::new(1200.0),
        };
        let first = log.append(5, Some("k1"), op.clone()).expect("append");
        assert_eq!(first, AppendOutcome::Appended(1));
        let retry = log.append(9, Some("k1"), op.clone()).expect("retry");
        assert_eq!(retry, AppendOutcome::Replayed(1));
        assert_eq!(log.len(), 1, "retry must not append");
        let conflict = log
            .append(
                9,
                Some("k1"),
                Op::SetTreeBudget {
                    tree: 0,
                    watts: Watts::new(999.0),
                },
            )
            .expect_err("conflicting op under the same key");
        assert!(matches!(
            conflict,
            OplogError::IdempotencyConflict { existing_seq: 1 }
        ));
        // A different key appends normally.
        assert_eq!(
            log.append(9, Some("k2"), op).expect("append"),
            AppendOutcome::Appended(2)
        );
        assert_eq!(log.since(1).len(), 1);
        assert_eq!(log.since(0).len(), 2);
        assert_eq!(log.since(99).len(), 0);
    }

    #[test]
    fn non_finite_budgets_are_rejected_at_append_and_decode() {
        let mut log = OpLog::in_memory();
        for bad in [f64::INFINITY, -1.0] {
            let err = log
                .append(
                    0,
                    None,
                    Op::SetTreeBudget {
                        tree: 0,
                        watts: Watts::new(bad),
                    },
                )
                .expect_err("invalid budget");
            assert!(matches!(err, OplogError::InvalidOp(_)), "{bad}");
        }
        assert!(log.is_empty());
        // NaN can't be constructed as Watts in-process, but hostile bytes
        // can carry its bit pattern; the decoder must refuse it.
        let envelope = Envelope {
            seq: 1,
            at_s: 0,
            key: None,
            op: Op::SetTreeBudget {
                tree: 0,
                watts: Watts::new(1.0),
            },
        };
        let mut bytes = encode_envelope(&envelope);
        let watts_at = bytes.len() - 8;
        bytes[watts_at..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            decode_envelope(&bytes),
            Err(WireError::BadValue { .. })
        ));
    }

    #[test]
    fn replay_is_a_pure_fold_and_clear_overrides_set() {
        let events = [
            Envelope {
                seq: 1,
                at_s: 0,
                key: None,
                op: Op::SetGroupPriority {
                    tree: 0,
                    node: 1,
                    priority: Priority(2),
                },
            },
            Envelope {
                seq: 2,
                at_s: 8,
                key: None,
                op: Op::ClearGroupPriority { tree: 0, node: 1 },
            },
            Envelope {
                seq: 3,
                at_s: 16,
                key: None,
                op: Op::SetRootBudgets(vec![Watts::new(1000.0), Watts::new(900.0)]),
            },
            Envelope {
                seq: 4,
                at_s: 24,
                key: None,
                op: Op::SetTreeBudget {
                    tree: 1,
                    watts: Watts::new(850.0),
                },
            },
        ];
        let replayed = DesiredState::replay(&events);
        assert_eq!(replayed.group_priorities.get(&(0, 1)), Some(&None));
        assert_eq!(
            replayed.tree_budgets.get(&0).map(|w| w.as_f64()),
            Some(1000.0)
        );
        assert_eq!(
            replayed.tree_budgets.get(&1).map(|w| w.as_f64()),
            Some(850.0)
        );
        assert_eq!(replayed.seq, 4);
        // Fold equivalence over every prefix.
        let mut incremental = DesiredState::default();
        for (k, envelope) in events.iter().enumerate() {
            assert_eq!(DesiredState::replay(&events[..k]), incremental);
            incremental.apply(envelope);
        }
        assert_eq!(DesiredState::replay(&events), incremental);
    }
}
