//! # CapMaestro
//!
//! A production-quality Rust reproduction of **"A Scalable Priority-Aware
//! Approach to Managing Data Center Server Power"** (HPCA 2019): a power
//! management architecture for highly-available (N+N redundant) public-cloud
//! data centers that
//!
//! 1. enforces an independent AC power budget on **each power supply** of a
//!    multi-feed server through a single server-level DC cap,
//! 2. allocates budgets across the whole power-distribution hierarchy in a
//!    **globally priority-aware** fashion, and
//! 3. reclaims **stranded power** left by the unequal load split between a
//!    server's supplies.
//!
//! This facade crate re-exports the whole suite; see the sub-crates for
//! focused documentation:
//!
//! - [`units`] — typed electrical/temporal quantities,
//! - [`topology`] — the power-distribution infrastructure substrate,
//! - [`server`] — server power model, PSUs, node manager,
//! - [`workload`] — utilization distributions and web-serving workload model,
//! - [`core`] — the paper's contribution: controllers, policies, SPO,
//!   control plane,
//! - [`sim`] — the time-stepped data-center simulator and the Monte-Carlo
//!   capacity planner,
//! - [`serve`] — the long-running serving mode: the in-tree HTTP
//!   `/v1` endpoints (`/v1/metrics`, `/v1/healthz`, `/v1/report`,
//!   `POST /v1/budget`, …) and the `capmaestrod` daemon.
//!
//! # Quick start
//!
//! ```
//! use capmaestro::core::policy::GlobalPriority;
//! use capmaestro::core::tree::{ControlTree, SupplyInput};
//! use capmaestro::topology::presets::figure2_feed;
//! use capmaestro::topology::SupplyIndex;
//! use capmaestro::units::{Ratio, Watts};
//!
//! // The Fig. 2 example: four 430 W servers under a 1240 W budget,
//! // one high priority.
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
//! // The high-priority server receives its full 430 W demand.
//! let sa = topo.server_by_name("SA").unwrap();
//! assert_eq!(alloc.supply_budget(sa, SupplyIndex::FIRST), Some(Watts::new(430.0)));
//! ```

pub use capmaestro_core as core;
pub use capmaestro_serve as serve;
pub use capmaestro_server as server;
pub use capmaestro_sim as sim;
pub use capmaestro_topology as topology;
pub use capmaestro_units as units;
pub use capmaestro_workload as workload;
