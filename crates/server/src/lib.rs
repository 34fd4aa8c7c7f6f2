//! Server power substrate for CapMaestro.
//!
//! Models everything the CapMaestro controllers observe and actuate on a
//! physical server (paper §2.2, §3.1, §5):
//!
//! - [`PowerSupply`] / [`PsuBank`] — redundant power supplies with an
//!   *intrinsic, unequal* load split (the paper measures up to 15 % mismatch
//!   between the two supplies of a dual-corded server), AC↔DC conversion
//!   efficiency, standby mode, and failure states;
//! - [`ServerPowerModel`] — the idle/Pcap_min/Pcap_max power envelope and
//!   the Fan et al. utilization→power curve the paper's simulations use;
//! - [`NodeManager`] — an Intel-Node-Manager-like actuator that enforces a
//!   DC power cap by voltage/frequency throttling, settling within ~6 s,
//!   and reports its *power-cap throttling level*;
//! - [`Server`] — the assembled device: workload demand in, per-supply AC
//!   sensor readings and throttle telemetry out.
//!
//! # Example
//!
//! ```
//! use capmaestro_server::{Server, ServerConfig};
//! use capmaestro_units::{Seconds, Watts};
//!
//! let mut server = Server::new(ServerConfig::paper_default());
//! server.set_offered_demand(Watts::new(430.0));
//! server.set_dc_cap(Watts::new(300.0) * server.config().efficiency());
//! for _ in 0..30 {
//!     server.step(Seconds::new(1.0));
//! }
//! let snap = server.sense();
//! // The cap binds: total AC power is pinned near 300 W, below demand.
//! assert!(snap.total_ac < Watts::new(310.0));
//! assert!(snap.throttle.as_f64() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod node_manager;
pub mod partitions;
pub mod power_model;
pub mod psu;
mod server;
#[deny(clippy::large_stack_arrays, clippy::needless_collect)]
pub mod slab;
pub mod telemetry;

pub use node_manager::NodeManager;
pub use partitions::{PartitionSet, VirtualPartition};
pub use power_model::{PowerCurve, ServerPowerModel};
pub use psu::{PowerSupply, PsuBank, SupplyState};
pub use server::{SensorSnapshot, Server, ServerConfig};
pub use slab::{ServerMut, ServerRef, ServerSlab};
pub use telemetry::{CleanSensePath, SenseInterposer};
