//! Data-center simulation for CapMaestro.
//!
//! Three layers:
//!
//! - [`engine`] — a 1 Hz time-stepped simulation binding the server farm,
//!   the control plane, breaker thermal models, and scripted events
//!   (feed failures, demand changes). Produces the time series behind the
//!   paper's Figs. 5, 6b, and 7c.
//! - [`scenarios`] — ready-to-run builds of the paper's experimental rigs
//!   (the §6.2 four-server feed, the §6.3 stranded-power rig, the §6.4
//!   Table 4 data center).
//! - [`capacity`] — the §6.4 Monte-Carlo capacity planner: how many
//!   servers fit under each policy in typical and worst-case conditions,
//!   judged by the <1 % average cap-ratio criterion.
//!
//! [`faults`] injects telemetry faults on the sense path (dropped, stuck,
//! noisy, spiking readings; flapping feeds) for robustness scenarios and
//! seeded chaos soaks. [`audit`] implements an active wiring audit (a §7
//! open challenge) plus the chaos harness's invariant tracker.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod capacity;
pub mod engine;
pub mod faults;
pub mod jobs;
pub mod procchaos;
pub mod scenarios;

pub use audit::{
    audit_wiring, audit_wiring_tracked, AuditReport, InvariantConfig, InvariantKind,
    InvariantTracker,
    Violation, WiringMismatch,
};
pub use capacity::{CapacityConfig, CapacityPlanner, Condition, TrialStats};
pub use engine::{Engine, EngineConfig, Event, Trace};
pub use faults::{
    ChaosAction, ChaosConfig, ChaosPlan, Episode, FaultKind, FaultLayer, FlapSpec,
};
pub use jobs::{Job, JobSchedule};
pub use procchaos::{demand_at, partition_plan, PartitionPlan, ProcFault};
pub use scenarios::{Rig, RigConfig};
