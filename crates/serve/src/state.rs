//! The shared-state seam between the engine thread and HTTP workers.
//!
//! HTTP handlers never touch the engine. Reads go through state the
//! engine thread copies out after every step ([`ServeState::publish`]);
//! the `/v1/report` body is rendered from that copy by the first reader
//! after each round, not by the engine thread. Mutations go through the
//! operator event log: a handler validates the
//! request against the published capability view, appends an
//! [`Op`] to the [`OpLog`] (idempotency-keyed, file-backed when the
//! daemon runs with `--oplog`), and answers with the event's sequence
//! number. The engine thread — the single writer — drains new events at
//! each round boundary ([`ServeState::reconcile`]), folds them into the
//! [`DesiredState`], diffs declared against live, and converges the
//! plane through `Engine::apply_reconcile_plan`. A quiescent log yields
//! an empty plan, so scraped-vs-unscraped runs stay bit-identical.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant};

use capmaestro_core::obs::{json, names, prometheus, MetricsRegistry, MetricsSnapshot, Recorder};
use capmaestro_core::oplog::{
    plan, AppendOutcome, DesiredState, Envelope, Op, OpLog, OplogError,
};
use capmaestro_core::plane::RoundReport;
use capmaestro_sim::Engine;
use capmaestro_topology::ServerId;
use capmaestro_units::Watts;

/// Mutable health fields, updated by the engine thread on every step.
#[derive(Debug, Default)]
struct HealthInner {
    /// Wall-clock instant of the last completed control round.
    last_round: Option<Instant>,
    /// Control rounds completed since the daemon started.
    rounds_total: u64,
    /// Simulated seconds elapsed.
    sim_seconds: u64,
    /// Servers currently degraded to last-known-good telemetry.
    stale_servers: usize,
    /// Rack workers currently budgeted from fail-safe metrics
    /// (distributed deployments only; always 0 for an in-process engine).
    stale_racks: usize,
    /// Number of control trees (the expected budget arity).
    trees: usize,
    /// Sequence number of the newest oplog event.
    oplog_head: u64,
    /// Sequence number up to which the reconciler has converged the
    /// live plane.
    applied_seq: u64,
}

/// Point-in-time health as served by `GET /v1/healthz`.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Whether a round completed within the staleness window.
    pub healthy: bool,
    /// Whether any server is running on last-known-good telemetry
    /// (the fail-safe degradation ladder is engaged).
    pub degraded: bool,
    /// Control rounds completed since the daemon started.
    pub rounds_total: u64,
    /// Simulated seconds elapsed.
    pub sim_seconds: u64,
    /// Wall-clock seconds since the last round, if any round ran.
    pub last_round_age_s: Option<f64>,
    /// The configured control period, for scrapers to contextualize age.
    pub control_period_s: u64,
    /// Count of servers on stale telemetry.
    pub stale_servers: usize,
    /// Count of rack workers riding fail-safe budgets (partitioned or
    /// silent agents in a distributed deployment).
    pub stale_racks: usize,
    /// Number of control trees.
    pub trees: usize,
    /// Sequence number of the newest operator event.
    pub oplog_head: u64,
    /// Sequence number the reconciler has converged up to; lagging
    /// `oplog_head` means events await the next round boundary.
    pub applied_seq: u64,
}

impl HealthSnapshot {
    /// Render as the `/v1/healthz` JSON body.
    pub fn to_json(&self) -> String {
        let status = if self.healthy { "ok" } else { "unhealthy" };
        let age = match self.last_round_age_s {
            Some(age) => format!("{age:.3}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"status\":\"{status}\",\"degraded\":{},\"rounds_total\":{},\"sim_seconds\":{},\"last_round_age_s\":{age},\"control_period_s\":{},\"stale_servers\":{},\"stale_racks\":{},\"trees\":{},\"oplog_head\":{},\"applied_seq\":{}}}\n",
            self.degraded,
            self.rounds_total,
            self.sim_seconds,
            self.control_period_s,
            self.stale_servers,
            self.stale_racks,
            self.trees,
            self.oplog_head,
            self.applied_seq,
        )
    }
}

/// Why a budget payload was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetError {
    /// The payload had the wrong number of budgets for the tree count.
    WrongArity {
        /// Budgets supplied.
        got: usize,
        /// Trees in the control plane.
        want: usize,
    },
    /// A budget was NaN or infinite.
    NotFinite,
    /// A budget fell outside the configured bounds.
    OutOfBounds {
        /// The offending value in watts.
        value: f64,
        /// Inclusive lower bound in watts.
        min: f64,
        /// Inclusive upper bound in watts.
        max: f64,
    },
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::WrongArity { got, want } => {
                write!(f, "expected {want} budgets (one per tree), got {got}")
            }
            BudgetError::NotFinite => write!(f, "budgets must be finite numbers"),
            BudgetError::OutOfBounds { value, min, max } => {
                write!(f, "budget {value} W outside allowed range [{min}, {max}] W")
            }
        }
    }
}

impl Error for BudgetError {}

/// Why an operator mutation was refused before reaching the log.
#[derive(Debug)]
pub enum OpRejection {
    /// A budget failed bounds or arity validation.
    Budget(
        /// The specific budget failure.
        BudgetError,
    ),
    /// The tree index does not exist in the live plane.
    UnknownTree {
        /// The requested tree index.
        tree: u32,
        /// How many trees the plane has.
        trees: usize,
    },
    /// The group node index does not exist in that tree's arena.
    UnknownGroup {
        /// The requested tree index.
        tree: u32,
        /// The requested node index.
        node: u32,
    },
    /// The server id is not in the farm.
    UnknownServer(
        /// The requested server.
        ServerId,
    ),
    /// This deployment cannot serve the op (room-controller mode only
    /// manages budgets — servers live in out-of-process agents).
    Unsupported(
        /// What is unsupported, for the error message.
        &'static str,
    ),
    /// The idempotency key was used before with a different op.
    Conflict {
        /// Sequence number of the original event under that key.
        existing_seq: u64,
    },
    /// The idempotency key is longer than the log accepts.
    KeyTooLong {
        /// The offending key's byte length.
        len: usize,
    },
    /// The append itself failed (backing-file I/O).
    Internal(
        /// The failure, rendered.
        String,
    ),
}

impl fmt::Display for OpRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpRejection::Budget(e) => write!(f, "{e}"),
            OpRejection::UnknownTree { tree, trees } => {
                write!(f, "no tree {tree}: the plane has {trees} trees")
            }
            OpRejection::UnknownGroup { tree, node } => {
                write!(f, "tree {tree} has no group node {node}")
            }
            OpRejection::UnknownServer(id) => write!(f, "no server {}", id.0),
            OpRejection::Unsupported(what) => {
                write!(f, "{what} is not supported by this deployment")
            }
            OpRejection::Conflict { existing_seq } => write!(
                f,
                "idempotency key already used by event {existing_seq} with a different op"
            ),
            OpRejection::KeyTooLong { len } => {
                write!(f, "idempotency key of {len} bytes is too long")
            }
            OpRejection::Internal(what) => write!(f, "append failed: {what}"),
        }
    }
}

impl Error for OpRejection {}

/// What the live deployment can reconcile, published by the engine
/// thread so handlers can reject impossible mutations synchronously.
#[derive(Debug, Default)]
struct OperatorCaps {
    /// Per-tree arena node counts (group addressing bounds).
    group_nodes: Vec<usize>,
    /// Sorted server ids in the farm (drain addressing).
    servers: Vec<ServerId>,
    /// Budgets-only deployments (the distributed room controller) reject
    /// priority, drain, and allocator ops.
    budgets_only: bool,
}

/// The latest round's `/v1/report`, as published at the round boundary.
#[derive(Debug)]
struct PublishedReport {
    /// The round's decisions; `None` when the body was rendered at
    /// publish time (the room controller's registry snapshot).
    report: Option<RoundReport>,
    /// The policy label current at publish time.
    label: Option<&'static str>,
    /// The rendered body, filled by the first reader of this round.
    body: OnceLock<String>,
}

impl PublishedReport {
    /// The body, rendered on first call. A room publish sets the body
    /// itself, so only an engine round's report renders here.
    fn body(&self) -> &str {
        self.body.get_or_init(|| {
            let snap = self.report.as_ref().map(RoundReport::metrics_snapshot);
            render_report(self.label, &snap.unwrap_or_default())
        })
    }
}

/// Shared state published by the engine thread and read by handlers.
#[derive(Debug)]
pub struct ServeState {
    /// The live registry the engine's recorder writes into; `/v1/metrics`
    /// renders a snapshot of it.
    registry: Arc<MetricsRegistry>,
    /// The engine's control period (seconds of simulated time).
    control_period_s: u64,
    /// `/v1/healthz` flips unhealthy when no round completed within this
    /// wall-clock window.
    unhealthy_after: Duration,
    /// Inclusive per-tree budget bounds accepted by budget mutations.
    budget_min: Watts,
    /// See `budget_min`.
    budget_max: Watts,
    /// The active budget-split allocator's name; rendered as the
    /// `"policy"` field of `/v1/report`. Behind a lock because a
    /// `SetAllocator` event changes it at a round boundary.
    policy_label: Mutex<Option<&'static str>>,
    /// The latest round's report. The engine thread holds this lock only
    /// to swap or refill the slot; readers clone the `Arc` and render
    /// outside it. When no reader holds last round's copy, publishing
    /// refills it in place, reusing its buffers.
    report: Mutex<Option<Arc<PublishedReport>>>,
    /// Health fields behind one short-lived lock.
    health: Mutex<HealthInner>,
    /// The append-only operator event log.
    oplog: Mutex<OpLog>,
    /// The reconciler's declared-state fold, owned by the engine thread
    /// (the mutex satisfies `Sync`; there is never contention).
    desired: Mutex<DesiredState>,
    /// The capability view mutations are validated against.
    caps: RwLock<OperatorCaps>,
}

impl ServeState {
    /// New state for an engine with the given registry and control
    /// period. Defaults: unhealthy after 3 control periods (but at least
    /// 3 wall-clock seconds, so accelerated runs aren't flappy), budgets
    /// accepted in `[1, 10_000_000]` W, and an in-memory event log.
    pub fn new(registry: Arc<MetricsRegistry>, control_period_s: u64) -> Self {
        let window_s = (3 * control_period_s).max(3);
        ServeState {
            registry,
            control_period_s,
            unhealthy_after: Duration::from_secs(window_s),
            budget_min: Watts::new(1.0),
            budget_max: Watts::new(10_000_000.0),
            policy_label: Mutex::new(None),
            report: Mutex::new(None),
            health: Mutex::new(HealthInner::default()),
            oplog: Mutex::new(OpLog::in_memory()),
            desired: Mutex::new(DesiredState::default()),
            caps: RwLock::new(OperatorCaps::default()),
        }
    }

    /// Override the staleness window for `/v1/healthz`.
    pub fn with_unhealthy_after(mut self, window: Duration) -> Self {
        self.unhealthy_after = window;
        self
    }

    /// Label `/v1/report` payloads with the active budget-split
    /// allocator, as a proper top-level `"policy"` JSON field.
    pub fn with_policy_label(self, name: &'static str) -> Self {
        *self.policy_label.lock().unwrap_or_else(|p| p.into_inner()) = Some(name);
        self
    }

    /// Override the inclusive bounds accepted by budget mutations.
    pub fn with_budget_bounds(mut self, min: Watts, max: Watts) -> Self {
        self.budget_min = min;
        self.budget_max = max;
        self
    }

    /// Use this event log (e.g. one opened file-backed from `--oplog`)
    /// instead of a fresh in-memory log. Events already in the log are
    /// replayed into the declared state by the first
    /// [`reconcile`](Self::reconcile).
    pub fn with_oplog(self, log: OpLog) -> Self {
        {
            let mut health = self.health.lock().unwrap_or_else(|p| p.into_inner());
            health.oplog_head = log.head_seq();
        }
        *self.oplog.lock().unwrap_or_else(|p| p.into_inner()) = log;
        self
    }

    /// Restrict the operator surface to budget mutations (the
    /// distributed room controller: servers live in out-of-process
    /// agents, so drains, priorities, and allocator switches have
    /// nothing to act on).
    pub fn with_budgets_only(self) -> Self {
        self.caps
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .budgets_only = true;
        self
    }

    /// The registry `/v1/metrics` renders from.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    fn health_lock(&self) -> MutexGuard<'_, HealthInner> {
        self.health.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn report_lock(&self) -> MutexGuard<'_, Option<Arc<PublishedReport>>> {
        self.report.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn policy_label(&self) -> Option<&'static str> {
        *self.policy_label.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Publish the engine's current state. Called by the engine thread
    /// after every step; `round_ran` marks steps that fired a control
    /// round (those also refresh the health round clock, the operator
    /// capability view, and the `/v1/report` source: a copy of the round
    /// report plus the policy label current now, rendered on first read).
    pub fn publish(&self, engine: &Engine, round_ran: bool) {
        {
            let mut health = self.health_lock();
            health.sim_seconds = engine.now_s();
            health.stale_servers = engine.plane().stale_count();
            health.trees = engine.plane().trees().len();
            if round_ran {
                health.rounds_total += 1;
                health.last_round = Some(Instant::now());
            }
        }
        if round_ran {
            {
                let mut caps = self.caps.write().unwrap_or_else(|p| p.into_inner());
                let trees = engine.plane().trees();
                if caps.group_nodes.len() != trees.len()
                    || caps
                        .group_nodes
                        .iter()
                        .zip(trees)
                        .any(|(&n, t)| n != t.arena().len())
                {
                    caps.group_nodes = trees.iter().map(|t| t.arena().len()).collect();
                }
                // Farm membership is fixed after construction.
                if caps.servers.len() != engine.farm().ids().len() {
                    caps.servers = engine.farm().ids().to_vec();
                }
            }
            if let Some(report) = engine.last_round_report() {
                let label = self.policy_label();
                let mut slot = self.report_lock();
                match slot.as_mut().and_then(Arc::get_mut) {
                    // No reader holds last round's copy: refill it.
                    Some(published) => {
                        match &mut published.report {
                            Some(held) => held.clone_from(report),
                            None => published.report = Some(report.clone()),
                        }
                        published.label = label;
                        published.body.take();
                    }
                    None => {
                        *slot = Some(Arc::new(PublishedReport {
                            report: Some(report.clone()),
                            label,
                            body: OnceLock::new(),
                        }));
                    }
                }
            }
        }
    }

    /// Publish one distributed-deployment round: the room-controller
    /// counterpart of [`publish`](Self::publish), for daemons whose world
    /// lives in out-of-process rack agents rather than an engine.
    /// `stale_racks` is the number of workers whose cuts were budgeted
    /// from fail-safe metrics this round; `/v1/report` renders the live
    /// registry snapshot (the deployment's recorder writes into it).
    pub fn publish_distributed(&self, sim_seconds: u64, trees: usize, stale_racks: usize) {
        {
            let mut health = self.health_lock();
            health.sim_seconds = sim_seconds;
            health.stale_racks = stale_racks;
            health.trees = trees;
            health.rounds_total += 1;
            health.last_round = Some(Instant::now());
        }
        let label = self.policy_label();
        let body = render_report(label, &self.registry.snapshot());
        *self.report_lock() = Some(Arc::new(PublishedReport {
            report: None,
            label,
            body: OnceLock::from(body),
        }));
    }

    /// The current health view, as `GET /v1/healthz` reports it.
    pub fn health(&self) -> HealthSnapshot {
        let health = self.health_lock();
        let last_round_age = health.last_round.map(|at| at.elapsed());
        HealthSnapshot {
            healthy: last_round_age.is_some_and(|age| age <= self.unhealthy_after),
            degraded: health.stale_servers > 0 || health.stale_racks > 0,
            rounds_total: health.rounds_total,
            sim_seconds: health.sim_seconds,
            last_round_age_s: last_round_age.map(|age| age.as_secs_f64()),
            control_period_s: self.control_period_s,
            stale_servers: health.stale_servers,
            stale_racks: health.stale_racks,
            trees: health.trees,
            oplog_head: health.oplog_head,
            applied_seq: health.applied_seq,
        }
    }

    /// The latest `/v1/report` JSON payload, if any round has completed.
    /// The first call after a round renders it (outside any lock the
    /// engine thread takes) and caches it for the rest of that round.
    pub fn report_json(&self) -> Option<String> {
        let published = self.report_lock().clone()?;
        Some(published.body().to_owned())
    }

    /// Render the `/v1/metrics` Prometheus page from the live registry.
    pub fn metrics_page(&self) -> String {
        prometheus::render(&self.registry.snapshot())
    }

    /// Validate budget values against the configured bounds.
    fn check_budget_bounds(&self, budgets: &[f64]) -> Result<(), OpRejection> {
        for &w in budgets {
            if !w.is_finite() {
                return Err(OpRejection::Budget(BudgetError::NotFinite));
            }
            if w < self.budget_min.as_f64() || w > self.budget_max.as_f64() {
                return Err(OpRejection::Budget(BudgetError::OutOfBounds {
                    value: w,
                    min: self.budget_min.as_f64(),
                    max: self.budget_max.as_f64(),
                }));
            }
        }
        Ok(())
    }

    /// Validate and append a full root-budget vector (the legacy
    /// `POST /v1/budget` shape: raw watts, one per tree). The event is
    /// applied by the reconciler at the next round boundary.
    pub fn stage_budgets(
        &self,
        budgets: &[f64],
        key: Option<&str>,
    ) -> Result<AppendOutcome, OpRejection> {
        let trees = self.health_lock().trees;
        if budgets.len() != trees {
            return Err(OpRejection::Budget(BudgetError::WrongArity {
                got: budgets.len(),
                want: trees,
            }));
        }
        self.check_budget_bounds(budgets)?;
        let op = Op::SetRootBudgets(budgets.iter().map(|&w| Watts::new(w)).collect());
        self.append_validated(key, op)
    }

    /// Validate and append one tree's declared root budget
    /// (`PUT /v1/trees/{id}/budget`).
    pub fn stage_tree_budget(
        &self,
        tree: u32,
        watts: f64,
        key: Option<&str>,
    ) -> Result<AppendOutcome, OpRejection> {
        let trees = self.health_lock().trees;
        if tree as usize >= trees {
            return Err(OpRejection::UnknownTree { tree, trees });
        }
        self.check_budget_bounds(&[watts])?;
        self.append_validated(
            key,
            Op::SetTreeBudget {
                tree,
                watts: Watts::new(watts),
            },
        )
    }

    /// Validate and append a group priority band — `Some` declares it,
    /// `None` withdraws it (`PATCH /v1/groups/{tree}.{node}/priority`).
    pub fn stage_group_priority(
        &self,
        tree: u32,
        node: u32,
        priority: Option<u8>,
        key: Option<&str>,
    ) -> Result<AppendOutcome, OpRejection> {
        {
            let caps = self.caps.read().unwrap_or_else(|p| p.into_inner());
            if caps.budgets_only {
                return Err(OpRejection::Unsupported("group priority"));
            }
            if tree as usize >= caps.group_nodes.len() {
                return Err(OpRejection::UnknownTree {
                    tree,
                    trees: caps.group_nodes.len(),
                });
            }
            if node as usize >= caps.group_nodes[tree as usize] {
                return Err(OpRejection::UnknownGroup { tree, node });
            }
        }
        let op = match priority {
            Some(p) => Op::SetGroupPriority {
                tree,
                node,
                priority: capmaestro_topology::Priority(p),
            },
            None => Op::ClearGroupPriority { tree, node },
        };
        self.append_validated(key, op)
    }

    /// Validate and append a server drain (`enabled: false`) or return
    /// to service (`POST /v1/servers/{id}:drain` / `:undrain`).
    pub fn stage_server_enabled(
        &self,
        server: ServerId,
        enabled: bool,
        key: Option<&str>,
    ) -> Result<AppendOutcome, OpRejection> {
        {
            let caps = self.caps.read().unwrap_or_else(|p| p.into_inner());
            if caps.budgets_only {
                return Err(OpRejection::Unsupported("server drain"));
            }
            if caps.servers.binary_search(&server).is_err() {
                return Err(OpRejection::UnknownServer(server));
            }
        }
        self.append_validated(key, Op::SetServerEnabled { server, enabled })
    }

    /// Validate and append an allocator selection (`PUT /v1/allocator`).
    pub fn stage_allocator(
        &self,
        kind: capmaestro_core::AllocatorKind,
        key: Option<&str>,
    ) -> Result<AppendOutcome, OpRejection> {
        {
            let caps = self.caps.read().unwrap_or_else(|p| p.into_inner());
            if caps.budgets_only {
                return Err(OpRejection::Unsupported("allocator selection"));
            }
        }
        self.append_validated(key, Op::SetAllocator(kind))
    }

    /// Append a pre-validated op, mapping log-level failures.
    fn append_validated(
        &self,
        key: Option<&str>,
        op: Op,
    ) -> Result<AppendOutcome, OpRejection> {
        let at_s = self.health_lock().sim_seconds;
        let outcome = {
            let mut log = self.oplog.lock().unwrap_or_else(|p| p.into_inner());
            log.append(at_s, key, op).map_err(|e| match e {
                OplogError::IdempotencyConflict { existing_seq } => {
                    OpRejection::Conflict { existing_seq }
                }
                OplogError::KeyTooLong { len } => OpRejection::KeyTooLong { len },
                other => OpRejection::Internal(other.to_string()),
            })?
        };
        if let AppendOutcome::Appended(seq) = outcome {
            self.health_lock().oplog_head = seq;
            self.registry.counter_add(names::SERVE_OPLOG_APPENDS_TOTAL, 1);
        }
        Ok(outcome)
    }

    /// The newest event sequence number.
    pub fn oplog_head(&self) -> u64 {
        self.oplog
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .head_seq()
    }

    /// Render `GET /v1/events?since=seq`: every event with a sequence
    /// number greater than `since`, oldest first, plus the head.
    pub fn events_json(&self, since: u64) -> String {
        let log = self.oplog.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::new();
        let _ = write!(out, "{{\"head\":{},\"events\":[", log.head_seq());
        for (i, envelope) in log.since(since).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            envelope_json(&mut out, envelope);
        }
        out.push_str("]}\n");
        out
    }

    /// Converge the live engine onto the declared state. Called by the
    /// engine thread immediately before a round-boundary step: drains
    /// new events into the declared-state fold, diffs declared vs live,
    /// and applies the plan (budgets stage into the imminent round;
    /// priorities, drains, and allocator switches apply directly).
    /// Returns the number of actions applied. With an empty log this is
    /// an exact no-op.
    pub fn reconcile(&self, engine: &mut Engine) -> usize {
        let mut desired = self.desired.lock().unwrap_or_else(|p| p.into_inner());
        {
            let log = self.oplog.lock().unwrap_or_else(|p| p.into_inner());
            for envelope in log.since(desired.seq) {
                desired.apply(envelope);
            }
        }
        if desired.seq == 0 {
            return 0; // nothing ever declared: bit-identical no-op
        }
        let step = plan(&desired, engine.plane(), engine.farm());
        let applied = engine.apply_reconcile_plan(&step);
        if let Some(kind) = step.allocator {
            *self.policy_label.lock().unwrap_or_else(|p| p.into_inner()) = Some(kind.name());
        }
        if applied > 0 {
            self.registry
                .counter_add(names::SERVE_RECONCILE_ACTIONS_TOTAL, applied as u64);
        }
        self.health_lock().applied_seq = desired.seq;
        applied
    }

    /// The distributed counterpart of [`reconcile`](Self::reconcile):
    /// room controllers only manage root budgets (their servers live in
    /// out-of-process agents), so this folds new events and returns the
    /// composed budget vector when it differs bitwise from `live`, for
    /// the caller to push into its `WorkerDeployment`.
    pub fn reconcile_distributed(&self, live: &[Watts]) -> Option<Vec<Watts>> {
        let mut desired = self.desired.lock().unwrap_or_else(|p| p.into_inner());
        {
            let log = self.oplog.lock().unwrap_or_else(|p| p.into_inner());
            for envelope in log.since(desired.seq) {
                desired.apply(envelope);
            }
        }
        if desired.seq == 0 {
            return None;
        }
        self.health_lock().applied_seq = desired.seq;
        let mut target = live.to_vec();
        for (&tree, &watts) in &desired.tree_budgets {
            if let Some(slot) = target.get_mut(tree as usize) {
                *slot = watts;
            }
        }
        let differs = live
            .iter()
            .zip(&target)
            .any(|(a, b)| a.as_f64().to_bits() != b.as_f64().to_bits());
        if differs {
            self.registry
                .counter_add(names::SERVE_RECONCILE_ACTIONS_TOTAL, 1);
            Some(target)
        } else {
            None
        }
    }
}

/// Render a report snapshot, folding the policy label in as a real
/// top-level `"policy"` field.
fn render_report(label: Option<&'static str>, snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let policy = label.map(|name| ("policy", name));
    json::snapshot_with_fields_into(&mut out, policy.as_slice(), snap);
    out
}

/// Append one envelope as a JSON object.
fn envelope_json(out: &mut String, envelope: &Envelope) {
    let _ = write!(out, "{{\"seq\":{},\"at_s\":{}", envelope.seq, envelope.at_s);
    out.push_str(",\"key\":");
    match &envelope.key {
        Some(key) => json::write_str(out, key),
        None => out.push_str("null"),
    }
    out.push_str(",\"op\":");
    match &envelope.op {
        Op::SetTreeBudget { tree, watts } => {
            let _ = write!(
                out,
                "{{\"type\":\"set_tree_budget\",\"tree\":{tree},\"watts\":{}}}",
                watts.as_f64()
            );
        }
        Op::SetRootBudgets(budgets) => {
            out.push_str("{\"type\":\"set_root_budgets\",\"watts\":[");
            for (i, w) in budgets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", w.as_f64());
            }
            out.push_str("]}");
        }
        Op::SetGroupPriority {
            tree,
            node,
            priority,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"set_group_priority\",\"tree\":{tree},\"node\":{node},\"priority\":{}}}",
                priority.0
            );
        }
        Op::ClearGroupPriority { tree, node } => {
            let _ = write!(
                out,
                "{{\"type\":\"clear_group_priority\",\"tree\":{tree},\"node\":{node}}}"
            );
        }
        Op::SetServerEnabled { server, enabled } => {
            let _ = write!(
                out,
                "{{\"type\":\"set_server_enabled\",\"server\":{},\"enabled\":{enabled}}}",
                server.0
            );
        }
        Op::SetAllocator(kind) => {
            let _ = write!(out, "{{\"type\":\"set_allocator\",\"policy\":\"{}\"}}", kind.name());
        }
    }
    out.push('}');
}
