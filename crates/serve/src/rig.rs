//! The shared rig vocabulary of the distributed control plane.
//!
//! A room controller and its out-of-process rack agents never exchange
//! topology: both sides independently build the *same* rig from the same
//! [`RigSpec`] (passed on the agent command line), derive the same
//! control trees, and compute the same [`rack_assignments`]. Everything
//! here is deterministic — same spec in, bit-identical rig out — which
//! is what makes the socket-vs-channel differential test meaningful.

use capmaestro_core::tree::ControlTree;
use capmaestro_core::workers::rack_assignments;
use capmaestro_core::Farm;
use capmaestro_server::{Server, ServerConfig};
use capmaestro_topology::presets::{figure2_feed, racks_feed};
use capmaestro_topology::{ServerId, Topology};
use capmaestro_units::Watts;

/// Offered demand every rig server starts with, matching the paper's
/// 420 W per-server load.
pub const RIG_DEMAND: Watts = Watts::new(420.0);

/// Which rig a distributed deployment runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RigSpec {
    /// The paper's Fig. 2 four-server feed, 1240 W contractual budget.
    Fig2,
    /// [`racks_feed`]: `racks` rack breakers of `servers_per_rack`
    /// single-corded servers, budget of 320 W per server (oversubscribed
    /// against the 420 W demand, so priorities matter).
    Racks {
        /// Rack (= agent) count.
        racks: usize,
        /// Servers per rack.
        servers_per_rack: usize,
    },
}

impl RigSpec {
    /// Parses the command-line form: `fig2` or `racks:R:S`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "fig2" {
            return Ok(RigSpec::Fig2);
        }
        if let Some(rest) = s.strip_prefix("racks:") {
            let mut it = rest.split(':');
            let racks = it
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&v| v > 0);
            let servers = it
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&v| v > 0);
            if let (Some(racks), Some(servers), None) = (racks, servers, it.next()) {
                return Ok(RigSpec::Racks {
                    racks,
                    servers_per_rack: servers,
                });
            }
        }
        Err(format!("bad rig spec {s:?}: expected fig2 or racks:R:S"))
    }

    /// The command-line form [`parse`](Self::parse) accepts.
    pub fn to_arg(self) -> String {
        match self {
            RigSpec::Fig2 => "fig2".to_string(),
            RigSpec::Racks {
                racks,
                servers_per_rack,
            } => format!("racks:{racks}:{servers_per_rack}"),
        }
    }
}

/// A fully-derived rig: topology, control trees, and contractual root
/// budgets — everything except the servers themselves.
#[derive(Debug)]
pub struct DistRig {
    /// The power topology.
    pub topo: Topology,
    /// One control tree per feed×phase, in spec order.
    pub trees: Vec<ControlTree>,
    /// The contractual budget applied at each tree root.
    pub root_budgets: Vec<Watts>,
}

/// Builds the rig for `spec`. Deterministic: both sides of a socket
/// deployment call this independently and must agree.
pub fn build_rig(spec: RigSpec) -> DistRig {
    let (topo, per_server_budget) = match spec {
        RigSpec::Fig2 => (figure2_feed(), None),
        RigSpec::Racks {
            racks,
            servers_per_rack,
        } => (racks_feed(racks, servers_per_rack), Some(Watts::new(320.0))),
    };
    let trees: Vec<ControlTree> = topo
        .control_tree_specs()
        .into_iter()
        .map(ControlTree::new)
        .collect();
    let root_budgets: Vec<Watts> = trees
        .iter()
        .map(|t| match per_server_budget {
            // Fig. 2 uses the paper's 1240 W contractual budget.
            None => Watts::new(1240.0),
            Some(per) => Watts::new(per.as_f64() * t.arena().leaf_index().len() as f64),
        })
        .collect();
    DistRig {
        topo,
        trees,
        root_budgets,
    }
}

/// Builds the full farm for a rig: every server `paper_default`,
/// single-corded, offered [`RIG_DEMAND`], settled. The in-process
/// reference deployment simulates this farm; a socket room controller
/// builds it only to capture [`capmaestro_core::workers::leaf_statics`]
/// at spawn and then drops it.
pub fn build_farm(topo: &Topology) -> Farm {
    let mut farm = Farm::new();
    for (id, _) in topo.servers() {
        farm.insert(id, rig_server());
    }
    farm
}

/// Builds an agent's local farm: only the servers in `owned`, identical
/// construction to [`build_farm`] so the two worlds start bit-identical.
pub(crate) fn build_owned_farm(owned: &[ServerId]) -> Farm {
    let mut farm = Farm::new();
    for &id in owned {
        farm.insert(id, rig_server());
    }
    farm
}

fn rig_server() -> Server {
    let mut server = Server::new(ServerConfig::paper_default().single_corded());
    server.set_offered_demand(RIG_DEMAND);
    server.settle();
    server
}

/// The worker assignments both sides compute from a rig — a convenience
/// wrapper that asserts the server-disjointness the socket transport
/// depends on.
pub fn rig_assignments(
    rig: &DistRig,
    workers_total: usize,
) -> Vec<capmaestro_core::workers::RackAssignment> {
    let assignments = rack_assignments(&rig.trees, workers_total);
    debug_assert!(capmaestro_core::workers::assignments_server_disjoint(
        &assignments
    ));
    assignments
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_parse() {
        for spec in [
            RigSpec::Fig2,
            RigSpec::Racks {
                racks: 4,
                servers_per_rack: 6,
            },
        ] {
            assert_eq!(RigSpec::parse(&spec.to_arg()), Ok(spec));
        }
        assert!(RigSpec::parse("racks:0:4").is_err());
        assert!(RigSpec::parse("racks:4").is_err());
        assert!(RigSpec::parse("racks:4:2:1").is_err());
        assert!(RigSpec::parse("mesh").is_err());
    }

    #[test]
    fn rig_is_deterministic() {
        let spec = RigSpec::Racks {
            racks: 4,
            servers_per_rack: 3,
        };
        let a = build_rig(spec);
        let b = build_rig(spec);
        assert_eq!(a.root_budgets, b.root_budgets);
        assert_eq!(a.topo.server_count(), b.topo.server_count());
        assert_eq!(rig_assignments(&a, 4), rig_assignments(&b, 4));
    }

    #[test]
    fn owned_farm_matches_full_farm_slice() {
        let rig = build_rig(RigSpec::Racks {
            racks: 2,
            servers_per_rack: 3,
        });
        let assignments = rig_assignments(&rig, 2);
        let full = build_farm(&rig.topo);
        for a in &assignments {
            let local = build_owned_farm(&a.owned);
            assert_eq!(local.len(), a.owned.len());
            for &id in &a.owned {
                let l = local.get(id).expect("owned server present");
                let f = full.get(id).expect("full farm has every server");
                assert_eq!(l.offered_demand(), f.offered_demand());
                assert_eq!(l.achieved_ac(), f.achieved_ac());
            }
        }
    }
}
