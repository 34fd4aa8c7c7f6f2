//! CapMaestro's core: the paper's contribution.
//!
//! This crate implements the three novel mechanisms of *"A Scalable
//! Priority-Aware Approach to Managing Data Center Server Power"*
//! (HPCA 2019):
//!
//! 1. **Per-supply budget enforcement** ([`capping`]) — a closed-loop
//!    controller that keeps *each* power supply of a multi-feed server
//!    within its own AC budget by steering a single server DC cap (§4.2).
//! 2. **Global priority-aware power capping** ([`metrics`], [`budget`],
//!    [`tree`], [`policy`]) — priority-summarized metrics flow up a control
//!    tree that mirrors the power topology; budgets flow down, so a
//!    high-priority server is throttled only after every lower-priority
//!    server on the feed has been pushed to its minimum (§4.3).
//! 3. **Stranded-power optimization** ([`spo`]) — budgets stranded by the
//!    unequal per-supply load split are reclaimed and re-budgeted (§4.4).
//!
//! Supporting pieces: demand estimation by throttle/power regression
//! ([`estimator`], §5), the synchronous control-plane service ([`plane`]),
//! and the distributed rack-/room-worker deployment ([`workers`], §5).
//!
//! # Quick start
//!
//! ```
//! use capmaestro_core::policy::GlobalPriority;
//! use capmaestro_core::tree::{ControlTree, SupplyInput};
//! use capmaestro_topology::presets::figure2_feed;
//! use capmaestro_topology::SupplyIndex;
//! use capmaestro_units::{Ratio, Watts};
//!
//! // The paper's Fig. 2: four 430 W servers, 1240 W budget, SA high
//! // priority. Global priority gives SA its full demand.
//! let topo = figure2_feed();
//! let spec = topo.control_tree_specs().remove(0);
//! let tree = ControlTree::with_uniform(
//!     spec,
//!     SupplyInput {
//!         demand: Watts::new(430.0),
//!         cap_min: Watts::new(270.0),
//!         cap_max: Watts::new(490.0),
//!         share: Ratio::ONE,
//!     },
//! );
//! let alloc = tree.allocate(Watts::new(1240.0), &GlobalPriority::new());
//! let sa = topo.server_by_name("SA").unwrap();
//! assert_eq!(alloc.supply_budget(sa, SupplyIndex::FIRST), Some(Watts::new(430.0)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod budget;
pub mod capping;
pub mod estimator;
mod leaf;
pub mod metrics;
pub mod obs;
pub mod oplog;
pub mod plane;
pub mod policy;
pub mod spo;
pub mod tree;
pub mod wire;
pub mod workers;

pub use alloc::{
    AllocScratch, Allocator, AllocatorKind, FairShareAllocator, WaterfallAllocator,
    WaterfillingAllocator,
};
pub use budget::{split_budget, BudgetSplit};
pub use capping::{CappingController, CombinedBudgetController};
pub use estimator::{DemandEstimator, SampleFate};
pub use metrics::{LeafInput, MetricEntry, PriorityMetrics};
pub use oplog::{
    plan as reconcile_plan, AppendOutcome, DesiredState, Envelope, Op, OpLog, OplogError,
    ReconcilePlan, RecoveryReport,
};

pub use obs::{
    null_recorder, MetricsRegistry, MetricsSnapshot, NullRecorder, PhaseTimer, Recorder,
    RoundPhase,
};
pub use plane::{
    BudgetSource, CapMap, ControlPlane, Farm, PlaneConfig, RoundReport, StalenessConfig,
};
pub use policy::{CappingPolicy, GlobalPriority, LocalPriority, NoPriority, PolicyKind};
pub use tree::{Allocation, ControlTree, SupplyInput};
pub use workers::{
    ChannelTransport, DeploymentConfig, DownMsg, RackAssignment, RackWorker, RoundOutcome,
    Transport, UpMsg, WorkerDeployment,
};
