//! Distributed rack-/room-worker deployment of the control plane
//! (paper §5).
//!
//! The production CapMaestro prototype groups controllers into *worker VMs*:
//! rack-level workers own the capping controllers and the lowest (CDU-level)
//! shifting controllers; a room-level worker owns everything above, up to
//! the contractual budget. Each control period, priority-summarized metrics
//! flow rack → room and budgets flow room → rack.
//!
//! This module reproduces that deployment behind a [`Transport`] seam. The
//! default [`ChannelTransport`] runs one OS thread per rack worker with
//! `std::sync::mpsc` channels as the transport; `capmaestro-serve` provides a
//! socket transport where each rack worker is a separate OS process
//! connecting outbound to the room controller, speaking the [`crate::wire`]
//! codec. The *cut* between room and rack workers is the set of leaf-parent
//! nodes of each control tree (the CDU-level shifting controllers).
//! Both sides compute with the one §4.3 walk in [`crate::tree`]: a rack
//! gathers and splits each of its cut subtrees as a small [`ControlTree`]
//! of its own, and the room walks the upper tree with every cut node
//! *pinned* ([`ControlTree::pin`]) to the summary its rack reported (or the
//! stale-held / fail-safe stand-in). Decisions are therefore bit-identical
//! to the synchronous [`crate::plane::ControlPlane`] running the same
//! policy and allocator without SPO — a property the tests assert — but
//! sensing, metrics computation, and cap enforcement run concurrently per
//! rack, and identically across transports:
//!
//! - the shared rack-side state lives in [`RackWorker`], used verbatim by
//!   the channel threads and the agent binary;
//! - the room waits for [`UpMsg::Enforced`] acks before the world advances,
//!   so stepping strictly follows enforcement on every transport;
//! - fail-safe metrics come from a spawn-time [`LeafStatic`] table instead
//!   of live farm reads, so a room controller without farm access budgets
//!   a partitioned rack exactly like the in-process deployment.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use capmaestro_topology::{ControlTreeSpec, Priority, ServerId, SpecNode, SupplyIndex};
use capmaestro_units::{Ratio, Seconds, Watts};

use crate::alloc::AllocatorKind;
use crate::leaf::{LeafTable, Route, RouteTable, STALE_AFTER_ROUNDS};
use crate::metrics::PriorityMetrics;
use crate::obs::{names, null_recorder, Recorder};
use crate::policy::{CappingPolicy, PolicyKind};
use crate::tree::{Allocation, ControlTree, SupplyInput, TreeRoundState};

/// Identifies a cut node: `(tree index, node index)`.
pub type CutId = (usize, usize);

/// Base delay between [`WorkerDeployment::respawn_worker`] attempts for
/// the same worker; doubles per consecutive attempt (capped at
/// `base × 2⁶`) until the worker reports again.
const RESPAWN_BACKOFF: Duration = Duration::from_millis(500);

/// How long [`WorkerDeployment::advance`] waits for the transport to
/// finish stepping the simulated world. Irrelevant for the in-process
/// transport (stepping is synchronous); bounds the wait for
/// [`UpMsg::Advanced`] acks over sockets.
const ADVANCE_TIMEOUT: Duration = Duration::from_secs(5);

/// Tunables of the distributed deployment, passed to
/// [`WorkerDeployment::spawn`]. A cut node that misses
/// [`STALE_AFTER_ROUNDS`] rounds of reports is budgeted from fail-safe
/// metrics, the same ladder a leaf walks.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// How long the room worker waits for rack metrics each round before
    /// budgeting from stale data. Also bounds the wait for
    /// [`UpMsg::Enforced`] acks after budgets go out.
    pub gather_timeout: Duration,
    /// Where the deployment reports its respawn / gather-timeout counters
    /// and fail-safe-cut gauge. Defaults to [`NullRecorder`]
    /// (no-op); attach a [`MetricsRegistry`] to export.
    ///
    /// [`NullRecorder`]: crate::obs::NullRecorder
    /// [`MetricsRegistry`]: crate::obs::MetricsRegistry
    pub recorder: Arc<dyn Recorder>,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            gather_timeout: Duration::from_millis(500),
            recorder: null_recorder(),
        }
    }
}

impl PartialEq for DeploymentConfig {
    fn eq(&self, other: &Self) -> bool {
        self.gather_timeout == other.gather_timeout && Arc::ptr_eq(&self.recorder, &other.recorder)
    }
}

impl DeploymentConfig {
    /// Returns the config with the gather timeout replaced.
    #[must_use]
    pub fn with_gather_timeout(mut self, timeout: Duration) -> Self {
        self.gather_timeout = timeout;
        self
    }

    /// Returns the config with the metrics recorder replaced.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }
}

/// A farm shared between rack workers, guarded by a read-write lock —
/// the stand-in for the IPMI transport to real hardware. Clones share one
/// farm. A holder that panics does not poison it: the next guard takes
/// the farm as that holder left it.
#[derive(Debug, Clone)]
pub struct SharedFarm(Arc<RwLock<crate::plane::Farm>>);

impl SharedFarm {
    /// Shared read access, blocking until no writer holds the farm.
    pub fn read(&self) -> RwLockReadGuard<'_, crate::plane::Farm> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive write access, blocking until no one else holds the farm.
    pub fn write(&self) -> RwLockWriteGuard<'_, crate::plane::Farm> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Wraps a [`crate::plane::Farm`] for sharing with rack workers.
pub fn shared_farm(farm: crate::plane::Farm) -> SharedFarm {
    SharedFarm(Arc::new(RwLock::new(farm)))
}

/// Rack → room messages. Public because the socket transport serializes
/// them with [`crate::wire`]; the channel transport sends them as-is.
#[derive(Debug, Clone, PartialEq)]
pub enum UpMsg {
    /// First message on a socket connection: which worker this is.
    /// Channel workers never send it (their identity is their channel).
    Hello {
        /// The connecting worker's index.
        worker: usize,
        /// The worker count the agent was configured with; the controller
        /// rejects mismatches (the fleets would disagree on assignments).
        workers_total: usize,
    },
    /// The worker's cut metrics for a gather round.
    Metrics {
        /// Reporting worker.
        worker: usize,
        /// The round the metrics answer.
        round: u64,
        /// Summarized metrics per owned cut node.
        metrics: Vec<(CutId, PriorityMetrics)>,
    },
    /// The worker finished enforcing a round's budgets. The room waits for
    /// these before advancing the world, so stepping strictly follows
    /// enforcement on every transport.
    Enforced {
        /// Acknowledging worker.
        worker: usize,
        /// The round whose budgets were enforced.
        round: u64,
    },
    /// The worker finished stepping its servers after
    /// [`DownMsg::Advance`]. Channel workers never send it (the room
    /// steps the shared farm itself).
    Advanced {
        /// Acknowledging worker.
        worker: usize,
        /// Seconds stepped.
        seconds: u32,
        /// Cumulative invariant violations the worker has observed
        /// locally since it started.
        violations_total: u64,
    },
    /// Socket liveness probe; answered with [`DownMsg::HeartbeatAck`].
    Heartbeat {
        /// Probing worker.
        worker: usize,
        /// Echoed in the ack so the worker can measure round-trip time.
        nonce: u64,
    },
}

/// Room → rack messages.
#[derive(Debug, Clone, PartialEq)]
pub enum DownMsg {
    /// Accepts a socket worker's [`UpMsg::Hello`].
    Welcome {
        /// The controller's worker count, echoed for cross-checking.
        workers_total: usize,
    },
    /// Sense, estimate, and report metrics for round `round`.
    Gather {
        /// The round being gathered.
        round: u64,
        /// The allocator this round's budgets are split with, on both
        /// sides of the cut.
        allocator: AllocatorKind,
    },
    /// Budgets for this round's cut nodes; split, enforce, and ack with
    /// [`UpMsg::Enforced`].
    Budgets {
        /// The round the budgets answer.
        round: u64,
        /// Budget per cut node, sorted by cut id.
        budgets: Vec<(CutId, Watts)>,
    },
    /// Step the worker's servers `seconds` simulated seconds and ack with
    /// [`UpMsg::Advanced`]. Only sent over transports whose workers own
    /// their piece of the world (the socket agents); channel workers
    /// ignore it.
    Advance {
        /// Simulated seconds to step.
        seconds: u32,
    },
    /// Answers [`UpMsg::Heartbeat`].
    HeartbeatAck {
        /// The nonce from the probe.
        nonce: u64,
    },
    /// Drain and exit. Terminal: a socket agent receiving this must not
    /// reconnect.
    Shutdown,
}

/// A leaf binding beneath a cut node: `(leaf node index, server, supply)`.
pub type LeafBinding = (usize, ServerId, SupplyIndex);

/// Static description of one rack worker's responsibility: a set of cut
/// nodes (CDU-level shifting controllers), the leaf bindings beneath them,
/// and the servers the worker *owns* (steps, in process-per-rack mode).
#[derive(Debug, Clone, PartialEq)]
pub struct RackAssignment {
    /// For each cut node: its id and the leaf bindings beneath it.
    pub cuts: Vec<(CutId, Vec<LeafBinding>)>,
    /// Servers owned by this worker: each server in the deployment is
    /// owned by exactly one worker (the first, in round-robin order,
    /// with a cut binding it). Socket agents step exactly these.
    pub owned: Vec<ServerId>,
}

/// Distributes cut nodes round-robin across `worker_count` workers — the
/// single source of truth for who owns what, shared by the room controller
/// and the out-of-process agents (both sides compute it independently from
/// the same trees and must agree).
///
/// # Panics
///
/// Panics if `worker_count == 0`.
pub fn rack_assignments(trees: &[ControlTree], worker_count: usize) -> Vec<RackAssignment> {
    assert!(worker_count > 0, "at least one rack worker is required");
    let mut assignments: Vec<RackAssignment> = (0..worker_count)
        .map(|_| RackAssignment {
            cuts: Vec::new(),
            owned: Vec::new(),
        })
        .collect();
    let mut claimed: HashSet<ServerId> = HashSet::new();
    let mut rr = 0usize;
    for (t, tree) in trees.iter().enumerate() {
        let arena = tree.arena();
        for cut in (0..arena.len()).filter(|&i| arena.context(i).is_leaf_parent) {
            let worker = rr % worker_count;
            let mut leaves: Vec<LeafBinding> = Vec::new();
            for &c in arena.children_of(cut) {
                let leaf = arena.leaf(c as usize).expect("cut children are leaves");
                leaves.push((c as usize, leaf.server, leaf.supply));
                if claimed.insert(leaf.server) {
                    assignments[worker].owned.push(leaf.server);
                }
            }
            assignments[worker].cuts.push(((t, cut), leaves));
            rr += 1;
        }
    }
    assignments
}

/// Whether every server bound under a worker's cuts is also *owned* by
/// that worker — i.e. no (dual-corded) server spans workers. The socket
/// transport requires this: each agent steps its owned servers in its own
/// process, so a server visible to two agents would fork into two
/// divergent copies.
pub fn assignments_server_disjoint(assignments: &[RackAssignment]) -> bool {
    assignments.iter().all(|a| {
        let owned: HashSet<ServerId> = a.owned.iter().copied().collect();
        a.cuts
            .iter()
            .flat_map(|(_, leaves)| leaves.iter())
            .all(|&(_, server, _)| owned.contains(&server))
    })
}

/// Spawn-time static facts about one leaf, captured so fail-safe metrics
/// can be rebuilt without farm access (a room controller over sockets has
/// none) and identically across transports. Shares are frozen at capture:
/// a supply failing *after* spawn does not change the fail-safe floor,
/// which only ever under-promises (cap_min demand).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafStatic {
    /// The server's minimum controllable AC power.
    pub cap_min: Watts,
    /// The server's maximum controllable AC power.
    pub cap_max: Watts,
    /// Fraction of the server load this supply carries.
    pub share: Ratio,
    /// The server's priority.
    pub priority: Priority,
}

/// Captures the [`LeafStatic`] table for a deployment from a farm —
/// called once at spawn time, before any faults. Leaves whose server is
/// absent from the farm are skipped (they contribute nothing to
/// fail-safe budgets, exactly like the live-read path they replace).
pub fn leaf_statics(
    trees: &[ControlTree],
    assignments: &[RackAssignment],
    farm: &crate::plane::Farm,
) -> HashMap<(CutId, usize), LeafStatic> {
    let mut out = HashMap::new();
    for assignment in assignments {
        for (cut, leaves) in &assignment.cuts {
            let (t, _) = *cut;
            let arena = trees[t].arena();
            for &(leaf_idx, server, supply) in leaves {
                let leaf = arena.leaf(leaf_idx).expect("cut children are leaves");
                let Some(srv) = farm.get(server) else {
                    continue;
                };
                let model = srv.config().model();
                let share = srv
                    .bank()
                    .effective_shares()
                    .get(supply.index())
                    .copied()
                    .unwrap_or(Ratio::ZERO);
                out.insert(
                    (*cut, leaf_idx),
                    LeafStatic {
                        cap_min: model.cap_min(),
                        cap_max: model.cap_max(),
                        share,
                        priority: leaf.priority,
                    },
                );
            }
        }
    }
    out
}

/// The budgets and degradation state of one distributed control round.
/// Deterministically ordered so two runs (or two transports) can be
/// compared bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// The round this outcome answers.
    pub round: u64,
    /// Budget per cut node, sorted ascending by cut id.
    pub cut_budgets: Vec<(CutId, Watts)>,
    /// Cut nodes budgeted from fail-safe metrics this round (stale past
    /// the threshold or never reported), sorted ascending.
    pub failsafe_cuts: Vec<CutId>,
}

impl RoundOutcome {
    /// The budget assigned to `cut`, if it exists in this deployment.
    pub fn budget(&self, cut: CutId) -> Option<Watts> {
        self.cut_budgets
            .binary_search_by_key(&cut, |&(c, _)| c)
            .ok()
            .map(|i| self.cut_budgets[i].1)
    }
}

/// How the room controller reaches its rack workers. The deployment's
/// round logic is written against this seam only, so the in-process
/// channel transport and the socket transport produce identical budgets
/// from identical metrics.
///
/// Implementations own worker liveness: `send` to a dead worker returns
/// `false` (and the round treats the worker as partitioned), `recv`
/// surfaces whatever workers report, and `respawn`/`kill` map onto the
/// transport's notion of restart (thread respawn in-process; waiting for
/// an outbound reconnect over sockets).
pub trait Transport: Send + fmt::Debug {
    /// Number of rack workers (fixed at deployment creation).
    fn worker_count(&self) -> usize;

    /// Sends a message to one worker. `false` means the worker is
    /// unreachable (dead thread, torn connection) — the caller treats it
    /// as partitioned for this round.
    fn send(&mut self, worker: usize, msg: DownMsg) -> bool;

    /// Receives the next worker message, waiting until `deadline`.
    /// `None` on deadline or when no worker can ever report again.
    fn recv_deadline(&mut self, deadline: Instant) -> Option<UpMsg>;

    /// Advances the simulated world `seconds` seconds: in-process by
    /// stepping the shared farm, over sockets by broadcasting
    /// [`DownMsg::Advance`] and collecting [`UpMsg::Advanced`] acks until
    /// `deadline`. Returns `false` if any live worker failed to ack.
    fn advance(&mut self, seconds: u32, deadline: Instant) -> bool;

    /// Whether a worker is currently reachable.
    fn is_alive(&self, worker: usize) -> bool;

    /// Tears a worker down (fault injection, rolling maintenance).
    fn kill(&mut self, worker: usize);

    /// Restarts a dead worker if the transport can (thread respawn).
    /// Transports where recovery is worker-driven (socket agents
    /// reconnect outbound on their own) return `is_alive(worker)`.
    fn respawn(&mut self, worker: usize) -> bool;

    /// Cumulative invariant violations reported by workers, for
    /// transports whose workers audit their own servers. In-process
    /// workers share the farm with the caller, who audits it directly.
    fn violations(&self) -> u64 {
        0
    }

    /// Stops every worker and releases transport resources.
    fn shutdown(&mut self);
}

/// The default in-process transport: one OS thread per rack worker,
/// `std::sync::mpsc` channels for messages, a [`SharedFarm`] for the world.
#[derive(Debug)]
pub struct ChannelTransport {
    /// The world shared with the worker threads.
    farm: SharedFarm,
    /// Worker threads, joined on shutdown.
    handles: Vec<JoinHandle<()>>,
    /// `None` marks a worker known to be dead (killed via
    /// [`Transport::kill`] or observed unreachable): gather must not wait
    /// on it, or every round eats the full gather timeout.
    to_workers: Vec<Option<Sender<DownMsg>>>,
    /// The room side of the shared up-channel.
    from_workers: Receiver<UpMsg>,
    /// Kept to hand to respawned workers.
    up_tx: Sender<UpMsg>,
    /// Kept to restart dead workers with the assignment they held.
    trees: Vec<ControlTree>,
    /// Kept for respawns.
    policy: PolicyKind,
    /// Kept for respawns.
    assignments: Vec<RackAssignment>,
}

impl ChannelTransport {
    /// Spawns one worker thread per assignment over the shared farm.
    pub(crate) fn spawn(
        trees: Vec<ControlTree>,
        policy: PolicyKind,
        farm: SharedFarm,
        assignments: Vec<RackAssignment>,
    ) -> Self {
        let (up_tx, from_workers) = channel::<UpMsg>();
        let mut transport = ChannelTransport {
            farm,
            handles: Vec::with_capacity(assignments.len()),
            to_workers: Vec::with_capacity(assignments.len()),
            from_workers,
            up_tx,
            trees,
            policy,
            assignments,
        };
        for w in 0..transport.assignments.len() {
            let down_tx = transport.spawn_worker_thread(w, false);
            transport.to_workers.push(Some(down_tx));
        }
        transport
    }

    /// Spawns worker `worker`'s thread around a fresh [`RackWorker`] and
    /// returns the sender that reaches it.
    fn spawn_worker_thread(&mut self, worker: usize, respawned: bool) -> Sender<DownMsg> {
        let (down_tx, down_rx) = channel::<DownMsg>();
        let rack = RackWorker::new(self.assignments[worker].clone(), &self.trees, self.policy);
        let (farm, up) = (self.farm.clone(), self.up_tx.clone());
        let suffix = if respawned { "-respawn" } else { "" };
        let handle = thread::Builder::new()
            .name(format!("rack-worker-{worker}{suffix}"))
            .spawn(move || rack_worker_loop(worker, rack, farm, up, down_rx))
            .expect("spawning a rack worker thread");
        self.handles.push(handle);
        down_tx
    }
}

impl Transport for ChannelTransport {
    fn worker_count(&self) -> usize {
        self.to_workers.len()
    }

    fn send(&mut self, worker: usize, msg: DownMsg) -> bool {
        let Some(slot) = self.to_workers.get_mut(worker) else {
            return false;
        };
        let Some(tx) = slot else {
            return false;
        };
        if tx.send(msg).is_ok() {
            true
        } else {
            // A send error means the worker thread is gone — mark it dead
            // so no later round waits on it.
            *slot = None;
            false
        }
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Option<UpMsg> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        self.from_workers.recv_timeout(remaining).ok()
    }

    fn advance(&mut self, seconds: u32, _deadline: Instant) -> bool {
        // In-process, the room steps the shared world itself; enforcement
        // already completed (the round waited for Enforced acks), so this
        // cannot race a worker's farm write.
        let mut farm = self.farm.write();
        for _ in 0..seconds {
            farm.step_all(Seconds::new(1.0));
        }
        true
    }

    fn is_alive(&self, worker: usize) -> bool {
        self.to_workers.get(worker).is_some_and(Option::is_some)
    }

    fn kill(&mut self, worker: usize) {
        // The worker's Sender is dropped immediately after the Shutdown is
        // queued: the worker drains its queue and exits, and — critically
        // — gather never again counts it as expected.
        if let Some(slot) = self.to_workers.get_mut(worker) {
            if let Some(tx) = slot.take() {
                let _ = tx.send(DownMsg::Shutdown);
            }
        }
    }

    fn respawn(&mut self, worker: usize) -> bool {
        if worker >= self.to_workers.len() || self.is_alive(worker) {
            return false;
        }
        self.to_workers[worker] = Some(self.spawn_worker_thread(worker, true));
        true
    }

    fn shutdown(&mut self) {
        for tx in self.to_workers.iter().flatten() {
            let _ = tx.send(DownMsg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The subtree under one cut as a control tree of its own — the cut node
/// (keeping its limit) at index 0 over its leaves, leaf `k` at node index
/// `k + 1` and leaf slot `k` — with the warm state of its walk. Racks
/// gather and split through it every round; the room gathers it once, over
/// [`LeafStatic`] inputs, for the cut's fail-safe summary.
#[derive(Debug)]
struct CutWalk {
    /// The cut subtree.
    tree: ControlTree,
    /// The walk's reused round state.
    state: TreeRoundState,
    /// The walk's reused budget output.
    out: Allocation,
    /// Whether the current round's `Budgets` covered this cut.
    budgeted: bool,
}

impl CutWalk {
    /// Lifts `cut` and the leaves bound under it out of `tree`, unnamed.
    fn new(tree: &ControlTree, cut: usize, leaves: &[LeafBinding]) -> Self {
        let arena = tree.arena();
        let mut sub = ControlTreeSpec::new(arena.feed(), arena.phase());
        sub.push_node(SpecNode {
            name: String::new(),
            limit: arena.limit(cut),
            parent: None,
            children: (1..=leaves.len()).collect(),
            leaf: None,
        });
        for &(leaf_idx, _, _) in leaves {
            sub.push_node(SpecNode {
                name: String::new(),
                limit: arena.limit(leaf_idx),
                parent: Some(0),
                children: Vec::new(),
                leaf: arena.leaf(leaf_idx),
            });
        }
        CutWalk {
            tree: ControlTree::new(sub),
            state: TreeRoundState::new(),
            out: Allocation::default(),
            budgeted: false,
        }
    }

    /// Sets leaf `k`'s input for the next gather; `None` (nothing is known
    /// about the leaf) pins it to an empty summary, and no budget, for good.
    fn set_leaf(&mut self, k: usize, input: Option<SupplyInput>) {
        match input {
            Some(input) => self.tree.set_slot_input(k, input),
            None => self.tree.pin(&mut self.state, k + 1, &PriorityMetrics::empty()),
        }
    }

    /// Gathers the subtree and returns the cut's summary.
    fn gather(&mut self, policy: &dyn CappingPolicy) -> &PriorityMetrics {
        self.tree.gather_in(policy, &mut self.state, None)
    }
}

/// What the room holds per cut node between rounds.
#[derive(Debug)]
struct CutSlot {
    /// The cut.
    id: CutId,
    /// The cut's summary with every leaf demanding only its `cap_min`,
    /// gathered once at spawn from the [`LeafStatic`] table: it depends
    /// only on statics and policy, and a room controller over sockets has
    /// no farm to re-read.
    failsafe: PriorityMetrics,
    /// The freshest summary the cut's rack reported (stale-hold).
    last: PriorityMetrics,
    /// The round `last` answered, driving the stale-hold → fail-safe
    /// degradation; `None` until the first report.
    last_round: Option<u64>,
}

/// The distributed deployment: a room worker (caller thread) plus rack
/// workers behind a [`Transport`].
///
/// # Examples
///
/// See [`WorkerDeployment::run_rounds`] usage in the crate tests and the
/// `priority_capping` example.
#[derive(Debug)]
pub struct WorkerDeployment {
    /// The control trees (shared shape with every worker).
    trees: Vec<ControlTree>,
    /// Contractual budget per tree root.
    root_budgets: Vec<Watts>,
    /// The capping policy every controller runs.
    policy: PolicyKind,
    /// The budget-split allocator of the next round, room and racks alike.
    allocator: AllocatorKind,
    /// Deployment tunables.
    config: DeploymentConfig,
    /// The rack workers.
    transport: Box<dyn Transport>,
    /// Per tree, the upper walk's reused state and output. Every cut node
    /// is pinned in it, so the walk stops at the cuts.
    walks: Vec<(TreeRoundState, Allocation)>,
    /// Every cut node (leaf parent) of every tree, ascending by id.
    cuts: Vec<CutSlot>,
    /// Each worker's static responsibility.
    assignments: Vec<RackAssignment>,
    /// Consecutive respawn attempts per worker since it last reported.
    respawn_attempts: Vec<u32>,
    /// Earliest instant the next respawn attempt per worker is allowed.
    respawn_not_before: Vec<Instant>,
    /// Liveness observed at the last round start, for counting
    /// worker-driven reconnects (socket agents) as respawns.
    was_alive: Vec<bool>,
}

impl WorkerDeployment {
    /// Spawns `worker_count` in-process rack workers over the given trees,
    /// budgets, and shared farm — the [`ChannelTransport`] deployment.
    /// Cut nodes are distributed round-robin across workers (a real
    /// deployment groups them by rack; the grouping does not change the
    /// decisions).
    ///
    /// # Panics
    ///
    /// Panics if `worker_count == 0` or tree/budget counts differ.
    pub fn spawn(
        trees: Vec<ControlTree>,
        root_budgets: Vec<Watts>,
        policy: PolicyKind,
        farm: SharedFarm,
        worker_count: usize,
        config: DeploymentConfig,
    ) -> Self {
        assert!(worker_count > 0, "at least one rack worker is required");
        let assignments = rack_assignments(&trees, worker_count);
        let statics = {
            let guard = farm.read();
            leaf_statics(&trees, &assignments, &guard)
        };
        let transport =
            ChannelTransport::spawn(trees.clone(), policy, farm, assignments.clone());
        Self::with_transport(
            trees,
            root_budgets,
            policy,
            assignments,
            &statics,
            Box::new(transport),
            config,
        )
    }

    /// Builds a deployment over an already-running transport — the seam
    /// the socket transport enters through. `assignments` must match what
    /// the transport's workers were configured with (both sides compute
    /// [`rack_assignments`] from the same trees), and `statics` feeds the
    /// fail-safe summaries.
    ///
    /// # Panics
    ///
    /// Panics if the transport has no workers, the assignment count
    /// differs from the transport's worker count, or tree/budget counts
    /// differ.
    pub fn with_transport(
        trees: Vec<ControlTree>,
        root_budgets: Vec<Watts>,
        policy: PolicyKind,
        assignments: Vec<RackAssignment>,
        statics: &HashMap<(CutId, usize), LeafStatic>,
        transport: Box<dyn Transport>,
        config: DeploymentConfig,
    ) -> Self {
        assert!(
            transport.worker_count() > 0,
            "at least one rack worker is required"
        );
        assert_eq!(
            transport.worker_count(),
            assignments.len(),
            "one assignment per transport worker is required"
        );
        assert_eq!(
            trees.len(),
            root_budgets.len(),
            "one root budget per control tree is required"
        );
        let mut cuts = Vec::new();
        let mut walks = Vec::with_capacity(trees.len());
        for (t, tree) in trees.iter().enumerate() {
            let mut state = TreeRoundState::new();
            let arena = tree.arena();
            let is_cut = |i: usize| arena.context(i).is_leaf_parent;
            for idx in (0..arena.len()).filter(|&i| is_cut(i)) {
                cuts.push(CutSlot {
                    id: (t, idx),
                    failsafe: PriorityMetrics::empty(),
                    last: PriorityMetrics::empty(),
                    last_round: None,
                });
            }
            // A leaf directly under the upper tree (no CDU level), or a
            // lone root, has no rack to report it: it is budgeted nothing —
            // deployments should avoid this, but stay total.
            let uncut = (0..arena.len()).filter(|&i| !is_cut(i));
            let loose = uncut
                .flat_map(|i| arena.children_of(i))
                .map(|&c| c as usize);
            let root = (!arena.is_empty()).then_some(0);
            for idx in loose.chain(root).filter(|&i| arena.is_leaf(i)) {
                tree.pin(&mut state, idx, &PriorityMetrics::empty());
            }
            walks.push((state, Allocation::default()));
        }
        let gather_policy = policy.policy();
        for (cut, leaves) in assignments.iter().flat_map(|a| &a.cuts) {
            let Ok(slot) = cuts.binary_search_by_key(cut, |c| c.id) else {
                continue;
            };
            let mut walk = CutWalk::new(&trees[cut.0], cut.1, leaves);
            for (k, &(leaf_idx, _, _)) in leaves.iter().enumerate() {
                let input = statics.get(&(*cut, leaf_idx)).map(|s| SupplyInput {
                    demand: s.cap_min,
                    cap_min: s.cap_min,
                    cap_max: s.cap_max,
                    share: s.share,
                });
                walk.set_leaf(k, input);
            }
            cuts[slot].failsafe = walk.gather(gather_policy.as_ref()).clone();
        }
        let worker_count = transport.worker_count();
        let now = Instant::now();
        WorkerDeployment {
            trees,
            root_budgets,
            policy,
            allocator: AllocatorKind::default(),
            config,
            transport,
            walks,
            cuts,
            assignments,
            respawn_attempts: vec![0; worker_count],
            respawn_not_before: vec![now; worker_count],
            was_alive: vec![true; worker_count],
        }
    }

    /// Number of rack workers.
    fn worker_count(&self) -> usize {
        self.transport.worker_count()
    }

    /// The per-worker assignments (cuts, leaf bindings, owned servers).
    pub fn assignments(&self) -> &[RackAssignment] {
        &self.assignments
    }

    /// The budget-split allocator the next round runs.
    pub fn allocator(&self) -> AllocatorKind {
        self.allocator
    }

    /// Switches the budget-split allocator for every subsequent round —
    /// at the room's upper-tree walk and, named in each round's
    /// [`DownMsg::Gather`], at every rack's cut split.
    pub fn set_allocator(&mut self, kind: AllocatorKind) {
        self.allocator = kind;
    }

    /// Replaces the per-tree root budgets, applied from the next round.
    ///
    /// # Panics
    ///
    /// Panics if the count differs from the tree count.
    pub fn set_root_budgets(&mut self, budgets: Vec<Watts>) {
        assert_eq!(
            budgets.len(),
            self.root_budgets.len(),
            "one root budget per control tree is required"
        );
        self.root_budgets = budgets;
    }

    /// Cumulative invariant violations reported over the transport (zero
    /// for in-process workers, which share the caller's farm).
    pub fn transport_violations(&self) -> u64 {
        self.transport.violations()
    }

    /// Runs one control round: gather (rack, parallel) → upper-tree
    /// aggregation + budgeting (room) → enforce (rack, parallel) → wait
    /// for enforcement acks. Returns the budgets assigned to each cut
    /// node plus which cuts were budgeted fail-safe.
    ///
    /// **Fault tolerance — the degradation ladder.** A rack worker that
    /// does not answer within the configured gather timeout is skipped for
    /// the round; for up to [`STALE_AFTER_ROUNDS`] rounds the room worker
    /// budgets its cut nodes from the *last metrics it reported*
    /// (stale-hold), so one sick VM cannot stall capping for the whole
    /// data center. Beyond that, the frozen metrics can no longer be
    /// trusted — a stuck sensor looks exactly like this — and the cut is
    /// budgeted from **fail-safe metrics**: every leaf at its `cap_min`
    /// demand. Cut nodes that have never reported are budgeted fail-safe
    /// from the first round.
    pub fn run_round(&mut self, round: u64) -> RoundOutcome {
        self.note_reconnects();
        let n = self.transport.worker_count();

        // Phase 1: gather.
        let gather = DownMsg::Gather {
            round,
            allocator: self.allocator,
        };
        let mut pending: Vec<bool> = (0..n)
            .map(|w| self.transport.send(w, gather.clone()))
            .collect();
        if self.await_workers(round, &mut pending, false) > 0 {
            self.config
                .recorder
                .counter_add(names::WORKER_GATHER_TIMEOUTS_TOTAL, 1);
        }

        // Phase 2: the room walks each tree's upper part, every cut node
        // pinned to the metrics the room trusts for it this round: the
        // freshest report while within `STALE_AFTER_ROUNDS`, the fail-safe
        // summary beyond — a dead worker's frozen report is
        // indistinguishable from a stuck sensor, so after the bridge the
        // room stops believing it.
        let mut failsafe_cuts: Vec<CutId> = Vec::new();
        for cut in &self.cuts {
            let fresh = cut
                .last_round
                .is_some_and(|r| round.saturating_sub(r) < u64::from(STALE_AFTER_ROUNDS));
            if !fresh {
                failsafe_cuts.push(cut.id);
            }
            let (t, idx) = cut.id;
            let trusted = if fresh { &cut.last } else { &cut.failsafe };
            self.trees[t].pin(&mut self.walks[t].0, idx, trusted);
        }
        if self.config.recorder.enabled() {
            self.config
                .recorder
                .gauge_set(names::WORKER_FAILSAFE_CUTS, failsafe_cuts.len() as f64);
        }
        let (policy, allocator) = (self.policy.policy(), self.allocator.allocator());
        for (t, tree) in self.trees.iter().enumerate() {
            let (state, out) = &mut self.walks[t];
            let root_budget = self.root_budgets[t];
            tree.allocate_in(root_budget, policy.as_ref(), allocator.as_ref(), state, None, out);
        }
        let cut_budgets: Vec<(CutId, Watts)> = self
            .cuts
            .iter()
            .map(|c| (c.id, self.walks[c.id.0].1.node_budget(c.id.1)))
            .collect();

        // Phase 3: enforce (dead workers silently miss their budgets;
        // their servers hold the last cap they were given — fail-safe),
        // then wait for Enforced acks so the world never advances under
        // half-applied budgets. Without the ack barrier, stepping racing
        // a worker's farm write made round results nondeterministic.
        let mut pending: Vec<bool> = (0..n)
            .map(|w| {
                let budgets = cut_budgets.clone();
                self.transport.send(w, DownMsg::Budgets { round, budgets })
            })
            .collect();
        self.await_workers(round, &mut pending, true);

        RoundOutcome {
            round,
            cut_budgets,
            failsafe_cuts,
        }
    }

    /// Receives until every `pending` worker (one a message of this phase
    /// reached) has answered `round` — with [`UpMsg::Enforced`] when `acks`,
    /// with [`UpMsg::Metrics`] otherwise — or the gather timeout ran out;
    /// returns how many never did. Metrics of any round are cached as they
    /// pass (a late answer to an earlier round does not count as answering
    /// this one); acks and heartbeats of other phases are drained.
    fn await_workers(&mut self, round: u64, pending: &mut [bool], acks: bool) -> usize {
        let mut waiting = pending.iter().filter(|&&p| p).count();
        let deadline = Instant::now() + self.config.gather_timeout;
        while waiting > 0 && Instant::now() < deadline {
            let Some(msg) = self.transport.recv_deadline(deadline) else {
                break; // timeout or all workers gone
            };
            let answered = match msg {
                UpMsg::Metrics {
                    worker,
                    round: r,
                    metrics,
                } if worker < pending.len() => {
                    self.note_metrics(worker, r, metrics);
                    (!acks && r == round).then_some(worker)
                }
                UpMsg::Enforced { worker, round: r } if acks && r == round => Some(worker),
                _ => None,
            };
            if let Some(slot) = answered.and_then(|w| pending.get_mut(w)).filter(|p| **p) {
                *slot = false;
                waiting -= 1;
            }
        }
        waiting
    }

    /// Caches a worker's reported metrics and resets its respawn ladder.
    /// Reports naming no cut of this deployment are dropped.
    fn note_metrics(
        &mut self,
        worker: usize,
        round: u64,
        metrics: Vec<(CutId, PriorityMetrics)>,
    ) {
        self.respawn_attempts[worker] = 0;
        for (cut, m) in metrics {
            if let Ok(slot) = self.cuts.binary_search_by_key(&cut, |c| c.id) {
                self.cuts[slot].last = m;
                self.cuts[slot].last_round = Some(round);
            }
        }
    }

    /// Counts dead → alive transitions the transport performed on its own
    /// (socket agents reconnecting outbound) as respawns, so the
    /// `capmaestro_worker_respawns_total` counter means the same thing on
    /// every transport. [`WorkerDeployment::respawn_worker`] marks the
    /// worker alive itself, so transport-driven respawns are not counted
    /// twice.
    fn note_reconnects(&mut self) {
        for w in 0..self.transport.worker_count() {
            let alive = self.transport.is_alive(w);
            if alive && !self.was_alive[w] {
                self.config
                    .recorder
                    .counter_add(names::WORKER_RESPAWNS_TOTAL, 1);
            }
            self.was_alive[w] = alive;
        }
    }

    /// Whether a worker is currently reachable over the transport.
    pub fn is_worker_alive(&self, worker: usize) -> bool {
        self.transport.is_alive(worker)
    }

    /// Restarts a dead rack worker with the assignment it held. Returns
    /// `false` without side effects when the worker is still alive, the
    /// index is out of range, or the exponential backoff since the last
    /// attempt has not elapsed yet (`RESPAWN_BACKOFF × 2^attempts`,
    /// attempts capped at 6 and reset when the worker reports).
    ///
    /// The respawned worker starts with empty estimators and controllers —
    /// exactly like a replacement VM — so its demand estimates rebuild
    /// from the first gather after the respawn. On transports where
    /// recovery is worker-driven (socket agents reconnect outbound), this
    /// only reports whether the worker is back.
    pub fn respawn_worker(&mut self, worker: usize) -> bool {
        if worker >= self.worker_count() || self.is_worker_alive(worker) {
            return false;
        }
        let now = Instant::now();
        if now < self.respawn_not_before[worker] {
            return false;
        }
        let attempts = self.respawn_attempts[worker];
        let backoff = RESPAWN_BACKOFF * 2u32.saturating_pow(attempts.min(6));
        self.respawn_not_before[worker] = now + backoff;
        self.respawn_attempts[worker] = attempts.saturating_add(1);

        if !self.transport.respawn(worker) {
            return false;
        }
        self.was_alive[worker] = true;
        self.config
            .recorder
            .counter_add(names::WORKER_RESPAWNS_TOTAL, 1);
        true
    }

    /// Shuts one rack worker down (for fault-injection tests and rolling
    /// maintenance). Subsequent rounds hold its last metrics.
    pub fn kill_worker(&mut self, worker: usize) {
        self.transport.kill(worker);
        if let Some(flag) = self.was_alive.get_mut(worker) {
            *flag = false;
        }
    }

    /// Advances the simulated world `seconds` seconds through the
    /// transport (stepping the shared farm in-process; asking the agents
    /// to step their owned servers over sockets). Returns `false` if a
    /// live worker failed to confirm within the advance timeout.
    pub fn advance(&mut self, seconds: u32) -> bool {
        let deadline = Instant::now() + ADVANCE_TIMEOUT;
        self.transport.advance(seconds, deadline)
    }

    /// Runs `rounds` control periods, advancing the world
    /// `seconds_per_round` simulated seconds between rounds (the physical
    /// world keeps moving while controllers deliberate).
    pub fn run_rounds(&mut self, rounds: u64, seconds_per_round: u32) {
        for round in 0..rounds {
            self.run_round(round);
            self.advance(seconds_per_round);
        }
    }

    /// Shuts the workers down and releases the transport.
    pub fn shutdown(mut self) {
        self.transport.shutdown();
    }
}

/// The rack-side controller state, shared verbatim by the in-process
/// worker threads and the out-of-process agent binary — the transports can
/// only differ in *when* messages arrive, never in what a gather or an
/// enforcement computes. The §4.3 math itself is the [`crate::tree`] walk
/// over each owned cut's subtree.
#[derive(Debug)]
pub struct RackWorker {
    /// The cuts and leaves this worker answers for.
    assignment: RackAssignment,
    /// The capping policy (visibility decisions).
    policy: PolicyKind,
    /// The allocator the last [`DownMsg::Gather`] named.
    allocator: AllocatorKind,
    /// One subtree walk per owned cut, aligned with `assignment.cuts`.
    walks: Vec<CutWalk>,
    /// The walks' leaves: a server's run of rows is its slot's bound
    /// leaves, tree `w` the `w`-th walk. Cuts ascend ([`rack_assignments`]),
    /// so a supply under two trees takes the lower one's budget, as in the
    /// plane.
    routes: RouteTable,
    /// Per-server control state, one slot per run of `routes`, laid out by
    /// the first gather: read from the rack's own sensors, so never
    /// screened and never stale.
    leaves: LeafTable,
    /// Whether any gather has run: budgets can only be split over
    /// gathered metrics.
    gathered: bool,
}

impl RackWorker {
    /// Builds the rack-side state for one assignment, keeping only the
    /// assignment's own cut subtrees of `trees` (owned or borrowed).
    /// Estimators and controllers start empty — exactly like a fresh VM —
    /// and rebuild from the first gather.
    pub fn new(
        assignment: RackAssignment,
        trees: impl AsRef<[ControlTree]>,
        policy: PolicyKind,
    ) -> Self {
        let trees = trees.as_ref();
        debug_assert!(assignment.cuts.is_sorted_by_key(|(cut, _)| *cut));
        let walks: Vec<CutWalk> = assignment
            .cuts
            .iter()
            .map(|((t, cut), leaves)| CutWalk::new(&trees[*t], *cut, leaves))
            .collect();
        let mut routes = RouteTable::default();
        routes.fit(walks.iter().map(|walk| &walk.tree));
        RackWorker {
            assignment,
            policy,
            allocator: AllocatorKind::default(),
            walks,
            routes,
            leaves: LeafTable::default(),
            gathered: false,
        }
    }

    /// Selects the allocator [`RackWorker::enforce`] splits cut budgets
    /// with — the one the room named in [`DownMsg::Gather`].
    pub fn set_allocator(&mut self, kind: AllocatorKind) {
        self.allocator = kind;
    }

    /// Senses this worker's servers, feeds the demand estimators, and
    /// summarizes each owned cut's metrics (paper §4.3.1, level-1 + first
    /// aggregation).
    pub fn gather(&mut self, farm: &crate::plane::Farm) -> Vec<(CutId, PriorityMetrics)> {
        self.gathered = true;
        // Laid out by the first gather, not at construction: the caller's
        // rig-wide trees are freed by then, so the table fills their hole
        // instead of raising the process's peak memory. The server list
        // never changes, so one key lays it out once.
        let RackWorker { routes, leaves, walks, .. } = self;
        leaves.fit(0, routes.runs().map(|run| run[0].server));
        for (slot, run) in routes.runs().enumerate() {
            let sensed = farm.get(run[0].server).map(|srv| (srv, srv.sense()));
            for row in run {
                // One observation per bound leaf: a server dual-corded
                // under this rack advances its window twice a gather.
                let input = sensed.as_ref().map(|&(srv, ref snap)| {
                    let leaf = leaves.leaf_mut(slot);
                    leaf.observe_local(snap);
                    leaf.refresh_demand(srv.config().model(), || snap.total_ac);
                    leaf.input(srv, row.supply)
                });
                walks[row.tree as usize].set_leaf(row.slot as usize, input);
            }
        }
        let policy = self.policy.policy();
        let cuts = self.assignment.cuts.iter().zip(&mut self.walks);
        cuts.map(|((cut, _), walk)| (*cut, walk.gather(policy.as_ref()).clone()))
            .collect()
    }

    /// Splits the room's cut budgets (sorted by cut id) down to leaves,
    /// over the metrics of the preceding [`RackWorker::gather`], and
    /// drives the capping controllers onto the farm.
    pub fn enforce(&mut self, farm: &mut crate::plane::Farm, budgets: &[(CutId, Watts)]) {
        if !self.gathered {
            // A fresh worker joined mid-round: its first message is this
            // round's budgets, with nothing gathered to split them over.
            self.gather(farm);
        }
        let (policy, allocator) = (self.policy.policy(), self.allocator.allocator());
        for ((cut, _), walk) in self.assignment.cuts.iter().zip(&mut self.walks) {
            let found = budgets.binary_search_by_key(cut, |&(c, _)| c);
            walk.budgeted = found.is_ok();
            if let Ok(i) = found {
                let CutWalk { tree, state, out, .. } = walk;
                tree.budget_in(budgets[i].1, policy.as_ref(), allocator.as_ref(), state, out);
            }
        }
        // Enforce caps on our servers.
        let walks = &self.walks;
        let budget = |row: &Route| {
            let walk = &walks[row.tree as usize];
            walk.budgeted.then(|| walk.out.leaf_budget(row.slot as usize))
        };
        for (slot, run) in self.routes.runs().enumerate() {
            if let Some(mut srv) = farm.get_mut(run[0].server) {
                self.leaves.leaf_mut(slot).enforce(&mut srv, run, budget);
            }
        }
    }
}

/// The channel-transport rack worker body: wraps a [`RackWorker`] around
/// the shared farm and the channel message loop.
fn rack_worker_loop(
    worker: usize,
    mut rack: RackWorker,
    farm: SharedFarm,
    up: Sender<UpMsg>,
    down: Receiver<DownMsg>,
) {
    while let Ok(msg) = down.recv() {
        // The room side being gone is a normal shutdown order, not a
        // rack-worker bug: exit the loop instead of panicking (and
        // aborting the whole process in release builds).
        match msg {
            DownMsg::Gather { round, allocator } => {
                rack.set_allocator(allocator);
                let metrics = {
                    let farm = farm.read();
                    rack.gather(&farm)
                };
                if up
                    .send(UpMsg::Metrics {
                        worker,
                        round,
                        metrics,
                    })
                    .is_err()
                {
                    break;
                }
            }
            DownMsg::Budgets { round, budgets } => {
                {
                    let mut farm = farm.write();
                    rack.enforce(&mut farm, &budgets);
                }
                if up.send(UpMsg::Enforced { worker, round }).is_err() {
                    break;
                }
            }
            // The room steps the shared farm itself in-process; these are
            // socket-protocol messages a channel worker never needs.
            DownMsg::Advance { .. } | DownMsg::Welcome { .. } | DownMsg::HeartbeatAck { .. } => {}
            DownMsg::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::Farm;
    use capmaestro_server::{Server, ServerConfig};
    use capmaestro_topology::presets::figure2_feed;
    use capmaestro_topology::Topology;

    /// A settled single-corded farm over `topo`, the `i`-th server offered
    /// `demand_of(i)` watts.
    fn farm_over(topo: &Topology, demand_of: impl Fn(usize) -> f64) -> Farm {
        let mut farm = Farm::new();
        for (i, (id, _)) in topo.servers().enumerate() {
            let mut server = Server::new(ServerConfig::paper_default().single_corded());
            server.set_offered_demand(Watts::new(demand_of(i)));
            server.settle();
            farm.insert(id, server);
        }
        farm
    }

    fn trees_of(topo: &Topology) -> Vec<ControlTree> {
        topo.control_tree_specs()
            .into_iter()
            .map(ControlTree::new)
            .collect()
    }

    fn fig2_shared_farm() -> (Topology, SharedFarm, Vec<ControlTree>) {
        let topo = figure2_feed();
        let (farm, trees) = (farm_over(&topo, |_| 420.0), trees_of(&topo));
        (topo, shared_farm(farm), trees)
    }

    /// The Fig. 2 rig under a two-worker Global Priority deployment.
    fn fig2_deployment(config: DeploymentConfig) -> (Topology, SharedFarm, WorkerDeployment) {
        let (topo, farm, trees) = fig2_shared_farm();
        let deployment = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::GlobalPriority,
            farm.clone(),
            2,
            config,
        );
        (topo, farm, deployment)
    }

    #[test]
    fn shared_farm_recovers_from_a_poisoned_lock() {
        let (_, farm, _) = fig2_shared_farm();
        let servers = farm.read().len();
        let holder = farm.clone();
        let _ = thread::spawn(move || {
            let _guard = holder.write();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(farm.write().len(), servers);
        assert_eq!(farm.read().len(), servers);
    }

    #[test]
    fn assignments_partition_server_ownership() {
        let (topo, _, trees) = fig2_shared_farm();
        let assignments = rack_assignments(&trees, 2);
        assert!(assignments_server_disjoint(&assignments));
        // Fig. 2's cuts are its two leaf parents: the left and right CBs.
        let cuts: Vec<CutId> = assignments
            .iter()
            .flat_map(|a| a.cuts.iter().map(|(c, _)| *c))
            .collect();
        assert_eq!(cuts.len(), 2);
        assert!(cuts
            .iter()
            .all(|&(t, c)| trees[t].arena().context(c).is_leaf_parent));
        // Every server is owned exactly once across workers.
        let mut owned: Vec<ServerId> = assignments
            .iter()
            .flat_map(|a| a.owned.iter().copied())
            .collect();
        owned.sort_unstable();
        let mut all: Vec<ServerId> = topo.servers().map(|(id, _)| id).collect();
        all.sort_unstable();
        assert_eq!(owned, all);
        // Both sides computing assignments independently must agree.
        assert_eq!(assignments, rack_assignments(&trees, 2));
    }

    #[test]
    fn distributed_rounds_protect_high_priority() {
        let (topo, farm, mut deployment) = fig2_deployment(DeploymentConfig::default());
        deployment.run_rounds(10, 8);
        deployment.shutdown();

        let farm = farm.read();
        let sa = topo.server_by_name("SA").unwrap();
        let sb = topo.server_by_name("SB").unwrap();
        assert!(
            farm.get(sa).unwrap().performance_fraction().as_f64() > 0.95,
            "SA perf {}",
            farm.get(sa).unwrap().performance_fraction()
        );
        assert!(farm.get(sb).unwrap().sense().total_ac < Watts::new(310.0));
        let total: Watts = farm.iter().map(|(_, s)| s.sense().total_ac).sum();
        assert!(total <= Watts::new(1240.0) * 1.02, "total {total}");
    }

    #[test]
    fn round_outcome_is_sorted_and_queryable() {
        let (_, _, mut deployment) = fig2_deployment(DeploymentConfig::default());
        let outcome = deployment.run_round(0);
        deployment.shutdown();
        let mut sorted = outcome.cut_budgets.clone();
        sorted.sort_unstable_by_key(|&(c, _)| c);
        assert_eq!(outcome.cut_budgets, sorted);
        for &(cut, b) in &outcome.cut_budgets {
            assert_eq!(outcome.budget(cut), Some(b));
        }
        assert_eq!(outcome.budget((99, 99)), None);
    }

    #[test]
    fn enforcement_is_visible_when_run_round_returns() {
        // The Enforced-ack barrier: caps computed by a round must already
        // be applied to the farm when run_round returns, so advancing the
        // world never races enforcement (the determinism bug the socket
        // transport would have amplified).
        let (_, farm, mut deployment) = fig2_deployment(DeploymentConfig::default());
        deployment.run_round(0);
        {
            let farm = farm.read();
            for (_, srv) in farm.iter() {
                assert!(
                    srv.dc_cap().is_some(),
                    "caps must be enforced before run_round returns"
                );
            }
        }
        deployment.shutdown();
    }

    #[test]
    fn dead_worker_does_not_stall_the_room() {
        let (_, _, mut deployment) = fig2_deployment(DeploymentConfig::default());
        // A healthy first round caches every cut's metrics.
        let healthy = deployment.run_round(0);
        assert_eq!(healthy.cut_budgets.len(), 2);

        // Kill one rack worker; the next round must still produce budgets
        // for ALL cut nodes, from the stale cache, without hanging — and
        // without waiting out the gather timeout on a worker known dead
        // (regression: its Sender used to stay in place, so `send(Gather)`
        // kept succeeding). The survivor answers in microseconds.
        deployment.kill_worker(0);
        let start = Instant::now();
        let degraded = deployment.run_round(1);
        assert!(
            start.elapsed() < deployment.config.gather_timeout / 2,
            "dead worker still counted as expected"
        );
        assert_eq!(
            degraded.cut_budgets.len(),
            2,
            "stale-hold must cover the dead worker's cuts"
        );
        for &(cut, budget) in &healthy.cut_budgets {
            let after = degraded.budget(cut).unwrap();
            assert!(
                after.approx_eq(budget, Watts::new(1.0)),
                "cut {cut:?} budget changed {budget} -> {after} with frozen metrics"
            );
        }
        deployment.shutdown();
    }

    #[test]
    fn worker_count_respected() {
        let (_, farm, trees) = fig2_shared_farm();
        let deployment = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::NoPriority,
            farm,
            3,
            DeploymentConfig::default(),
        );
        assert_eq!(deployment.worker_count(), 3);
        deployment.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one rack worker")]
    fn zero_workers_panics() {
        let (_, farm, trees) = fig2_shared_farm();
        let _ = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::NoPriority,
            farm,
            0,
            DeploymentConfig::default(),
        );
    }

    /// The combined stuck-sensor + dead-worker acceptance scenario: a dead
    /// worker's frozen metrics ARE a stuck sensor from the room's point of
    /// view. The affected cut must be stale-held first, clamped to
    /// fail-safe (Σ cap_min) after `STALE_AFTER_ROUNDS`, and rejoin normal
    /// budgeting within 2 rounds of `respawn_worker`.
    #[test]
    fn stuck_metrics_degrade_to_fail_safe_and_recover_on_respawn() {
        let (_, farm, mut deployment) = fig2_deployment(DeploymentConfig::default());
        // Healthy rounds: estimators converge, budgets settle.
        let mut round = 0u64;
        let mut healthy = None;
        for _ in 0..6 {
            healthy = Some(deployment.run_round(round));
            deployment.advance(8);
            round += 1;
        }
        let healthy = healthy.expect("six healthy rounds ran");
        assert!(healthy.failsafe_cuts.is_empty());
        // Worker 0 dies. Its servers' demand changes underneath it, so the
        // frozen metrics are provably wrong — exactly a stuck sensor.
        deployment.kill_worker(0);
        let dead_cut: CutId = deployment.assignments[0].cuts[0].0;
        let dead_servers: Vec<ServerId> = deployment.assignments[0]
            .cuts
            .iter()
            .flat_map(|(_, leaves)| leaves.iter().map(|&(_, s, _)| s))
            .collect();
        {
            let mut farm = farm.write();
            for &s in &dead_servers {
                farm.get_mut(s).unwrap().set_offered_demand(Watts::new(480.0));
            }
        }

        // Stale-hold bridge: budgets stay at the frozen (healthy) values.
        for _ in 0..STALE_AFTER_ROUNDS - 1 {
            let held = deployment.run_round(round);
            deployment.advance(8);
            round += 1;
            assert!(
                held.budget(dead_cut)
                    .unwrap()
                    .approx_eq(healthy.budget(dead_cut).unwrap(), Watts::new(1.0)),
                "stale-hold should freeze the dead cut's budget"
            );
            assert!(
                !held.failsafe_cuts.contains(&dead_cut),
                "stale-hold rounds must not report the cut as fail-safe"
            );
        }

        // Past the threshold: the cut is budgeted from fail-safe metrics —
        // each leaf demands only cap_min (270 W), so the cut's budget
        // collapses to ~Σ cap_min of its leaves.
        let degraded = deployment.run_round(round);
        deployment.advance(8);
        round += 1;
        assert!(
            degraded.failsafe_cuts.contains(&dead_cut),
            "the degraded round must report the dead cut as fail-safe"
        );
        let cap_min_sum: Watts = {
            let farm = farm.read();
            dead_servers
                .iter()
                .map(|&s| farm.get(s).unwrap().config().model().cap_min())
                .sum()
        };
        let fail_safe_budget = degraded.budget(dead_cut).unwrap();
        assert!(
            fail_safe_budget <= cap_min_sum + Watts::new(1.0),
            "fail-safe budget {fail_safe_budget} should collapse to ≤ Σ cap_min {cap_min_sum}"
        );
        assert!(
            fail_safe_budget < healthy.budget(dead_cut).unwrap() - Watts::new(50.0),
            "fail-safe budget should be well below the healthy {}",
            healthy.budget(dead_cut).unwrap()
        );

        // Respawn: the replacement worker reports real metrics (demand is
        // back at 420 W) and the cut rejoins normal budgeting within 2
        // rounds.
        {
            let mut farm = farm.write();
            for &s in &dead_servers {
                farm.get_mut(s).unwrap().set_offered_demand(Watts::new(420.0));
            }
        }
        assert!(deployment.respawn_worker(0), "respawn should succeed");
        assert!(deployment.is_worker_alive(0));
        let mut recovered = None;
        for _ in 0..2 {
            recovered = Some(deployment.run_round(round));
            deployment.advance(8);
            round += 1;
        }
        let recovered = recovered.expect("two recovery rounds ran");
        assert!(
            recovered
                .budget(dead_cut)
                .unwrap()
                .approx_eq(healthy.budget(dead_cut).unwrap(), Watts::new(10.0)),
            "cut budget should recover to ~{} within 2 rounds, got {}",
            healthy.budget(dead_cut).unwrap(),
            recovered.budget(dead_cut).unwrap()
        );
        assert!(
            !recovered.failsafe_cuts.contains(&dead_cut),
            "a recovered cut must leave the fail-safe set"
        );
        deployment.shutdown();
    }

    #[test]
    fn respawn_respects_backoff_and_aliveness() {
        let (_, _, mut deployment) = fig2_deployment(DeploymentConfig::default());
        // Alive workers cannot be respawned; out-of-range is rejected.
        assert!(!deployment.respawn_worker(0));
        assert!(!deployment.respawn_worker(99));
        deployment.kill_worker(0);
        assert!(!deployment.is_worker_alive(0));
        // First attempt goes through immediately…
        assert!(deployment.respawn_worker(0));
        deployment.kill_worker(0);
        // …the second, microseconds later, is throttled by the 500 ms
        // backoff.
        assert!(
            !deployment.respawn_worker(0),
            "second respawn must wait out the backoff"
        );
        deployment.shutdown();
    }

    #[test]
    fn never_reported_cut_is_budgeted_fail_safe_not_empty() {
        let (_, _, mut deployment) = fig2_deployment(DeploymentConfig::default());
        // Kill worker 0 before any round: its cuts never report.
        deployment.kill_worker(0);
        let outcome = deployment.run_round(0);
        assert_eq!(outcome.cut_budgets.len(), 2);
        let dead_cut: CutId = deployment.assignments[0].cuts[0].0;
        assert!(outcome.failsafe_cuts.contains(&dead_cut));
        // Fail-safe, not zero: the blind cut still gets ≥ its cap_min sum
        // … well, ≥ something clearly non-zero.
        assert!(
            outcome.budget(dead_cut).unwrap() > Watts::new(100.0),
            "never-reported cut should receive a fail-safe budget, got {}",
            outcome.budget(dead_cut).unwrap()
        );
        deployment.shutdown();
    }

    #[test]
    fn set_root_budgets_applies_next_round() {
        let (_, _, mut deployment) = fig2_deployment(DeploymentConfig::default());
        let wide = deployment.run_round(0);
        deployment.set_root_budgets(vec![Watts::new(1100.0)]);
        let narrow = deployment.run_round(1);
        let wide_total: f64 = wide.cut_budgets.iter().map(|(_, b)| b.as_f64()).sum();
        let narrow_total: f64 = narrow.cut_budgets.iter().map(|(_, b)| b.as_f64()).sum();
        assert!(
            narrow_total < wide_total,
            "tighter root budget must shrink cut budgets ({narrow_total} vs {wide_total})"
        );
        deployment.shutdown();
    }
}
