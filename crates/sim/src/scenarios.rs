//! Ready-to-run builds of the paper's experimental rigs.

use capmaestro_core::alloc::AllocatorKind;
use capmaestro_core::plane::{BudgetSource, ControlPlane, Farm, PlaneConfig};
use capmaestro_core::policy::PolicyKind;
use capmaestro_core::tree::ControlTree;
use capmaestro_server::{PsuBank, Server, ServerConfig};
use capmaestro_topology::presets::{
    figure2_feed, figure7a_rig, table4_datacenter, DataCenterParams, RIG_SERVER_NAMES,
};
use capmaestro_topology::{Priority, ServerId, Topology};
use capmaestro_units::{Ratio, Watts};
use capmaestro_workload::NormalSampler;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration of a four-server rig experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigConfig {
    /// Offered demand of SA..SD in watts.
    pub demands: [f64; 4],
    /// The capping policy.
    pub policy: PolicyKind,
    /// The budget-split allocator raced at every tree node.
    pub allocator: AllocatorKind,
    /// Run the stranded-power optimization each round.
    pub spo: bool,
    /// PSU conversion efficiency.
    pub efficiency: f64,
}

impl RigConfig {
    /// Table 2's measured demands under Global Priority, SPO off.
    pub fn table2() -> Self {
        RigConfig {
            demands: [420.0, 413.0, 417.0, 423.0],
            policy: PolicyKind::GlobalPriority,
            allocator: AllocatorKind::Waterfall,
            spo: false,
            efficiency: 0.94,
        }
    }

    /// Table 3's measured demands (the stranded-power rig).
    pub fn table3() -> Self {
        RigConfig {
            demands: [414.0, 415.0, 433.0, 439.0],
            policy: PolicyKind::GlobalPriority,
            allocator: AllocatorKind::Waterfall,
            spo: true,
            efficiency: 0.94,
        }
    }

    /// Selects the policy (builder-style).
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Selects the budget-split allocator (builder-style).
    #[must_use]
    pub fn with_allocator(mut self, allocator: AllocatorKind) -> Self {
        self.allocator = allocator;
        self
    }

    /// Enables/disables SPO (builder-style).
    #[must_use]
    pub fn with_spo(mut self, spo: bool) -> Self {
        self.spo = spo;
        self
    }
}

/// A rig ready to simulate: topology + farm + control plane.
#[derive(Debug)]
pub struct Rig {
    /// The power topology.
    pub topology: Topology,
    /// The simulated servers.
    pub farm: Farm,
    /// The control plane managing them.
    pub plane: ControlPlane,
}

impl Rig {
    /// Looks up a rig server by name ("SA".."SD").
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn server(&self, name: &str) -> ServerId {
        self.topology
            .server_by_name(name)
            .unwrap_or_else(|| panic!("rig has no server named {name}"))
    }
}

/// Builds the §6.2 priority-comparison rig: the Fig. 2 feed with four
/// single-corded servers under a 1240 W contractual budget (emulating one
/// failed feed of a redundant pair).
pub fn priority_rig(config: RigConfig) -> Rig {
    let topology = figure2_feed();
    let trees: Vec<ControlTree> = topology
        .control_tree_specs()
        .into_iter()
        .map(ControlTree::new)
        .collect();
    let mut farm = Farm::new();
    for (i, name) in RIG_SERVER_NAMES.iter().enumerate() {
        let id = topology.server_by_name(name).expect("preset server");
        let mut server = Server::new(
            ServerConfig::paper_default()
                .with_bank(PsuBank::balanced(1, Ratio::new(config.efficiency))),
        );
        server.set_offered_demand(Watts::new(config.demands[i]));
        server.settle();
        farm.insert(id, server);
    }
    let plane = ControlPlane::new(
        trees,
        vec![Watts::new(1240.0)],
        PlaneConfig::default()
            .with_policy(config.policy)
            .with_allocator(config.allocator)
            .with_spo(config.spo),
    );
    Rig {
        topology,
        farm,
        plane,
    }
}

/// Per-server intrinsic X-side load shares for the stranded-power rig:
/// SA is X-only, SB is Y-only, SC and SD split unevenly (the splits that
/// reproduce Table 3's stranded-power pattern).
pub const STRANDED_RIG_X_SHARES: [f64; 4] = [1.0, 0.0, 0.53, 0.46];

/// Builds the §6.3 stranded-power rig: the Fig. 7a dual-feed topology with
/// SA (X-only, high priority), SB (Y-only), and dual-corded SC/SD whose
/// intrinsic splits mismatch the per-feed budgets. Each feed carries a
/// 700 W budget.
pub fn stranded_rig(config: RigConfig) -> Rig {
    let topology = figure7a_rig();
    let trees: Vec<ControlTree> = topology
        .control_tree_specs()
        .into_iter()
        .map(ControlTree::new)
        .collect();
    let mut farm = Farm::new();
    for (i, name) in RIG_SERVER_NAMES.iter().enumerate() {
        let id = topology.server_by_name(name).expect("preset server");
        let x_share = STRANDED_RIG_X_SHARES[i];
        let bank = if x_share == 0.0 || x_share == 1.0 {
            PsuBank::balanced(1, Ratio::new(config.efficiency))
        } else {
            PsuBank::dual(x_share, Ratio::new(config.efficiency))
        };
        let mut server =
            Server::new(ServerConfig::paper_default().with_bank(bank));
        server.set_offered_demand(Watts::new(config.demands[i]));
        server.settle();
        farm.insert(id, server);
    }
    let plane = ControlPlane::new(
        trees,
        vec![Watts::new(700.0), Watts::new(700.0)],
        PlaneConfig::default()
            .with_policy(config.policy)
            .with_allocator(config.allocator)
            .with_spo(config.spo),
    );
    Rig {
        topology,
        farm,
        plane,
    }
}

/// Two single-corded 420 W servers on one 700 W-rated breaker under a
/// 560 W budget. Run uncapped (`control_enabled: false`), the 20 %
/// sustained overload trips the UL 489 thermal model in ~106 s.
#[cfg(test)]
pub(crate) fn overloaded_breaker_rig() -> Rig {
    use capmaestro_topology::{
        CircuitBreaker, DeviceKind, FeedId, Phase, PowerDevice, TopologyBuilder,
    };

    let mut b = TopologyBuilder::new();
    let root = b.add_feed(
        FeedId::A,
        PowerDevice::new("Rack CB", DeviceKind::Cdu)
            .with_breaker(CircuitBreaker::with_default_derating(Watts::new(700.0))),
    );
    for name in ["S1", "S2"] {
        b.single_corded_server(name, Priority::LOW, FeedId::A, root, Phase::L1)
            .expect("valid attachment");
    }
    let topology = b.build().expect("valid topology");
    let trees: Vec<ControlTree> = topology
        .control_tree_specs()
        .into_iter()
        .map(ControlTree::new)
        .collect();
    let mut farm = Farm::new();
    for (id, _) in topology.servers() {
        let mut server = Server::new(ServerConfig::paper_default().single_corded());
        server.set_offered_demand(Watts::new(420.0));
        server.settle();
        farm.insert(id, server);
    }
    let plane = ControlPlane::new(trees, vec![Watts::new(560.0)], PlaneConfig::default());
    Rig {
        topology,
        farm,
        plane,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_rig_shape() {
        let rig = priority_rig(RigConfig::table2());
        assert_eq!(rig.farm.len(), 4);
        assert_eq!(rig.plane.trees().len(), 1);
        let sa = rig.server("SA");
        assert_eq!(
            rig.farm.get(sa).unwrap().offered_demand(),
            Watts::new(420.0)
        );
        // Single-corded servers.
        assert_eq!(rig.farm.get(sa).unwrap().bank().len(), 1);
    }

    #[test]
    fn stranded_rig_shape() {
        let rig = stranded_rig(RigConfig::table3());
        assert_eq!(rig.farm.len(), 4);
        assert_eq!(rig.plane.trees().len(), 2);
        let sc = rig.server("SC");
        let bank = rig.farm.get(sc).unwrap().bank();
        assert_eq!(bank.len(), 2);
        let shares = bank.effective_shares();
        assert!((shares[0].as_f64() - 0.53).abs() < 1e-12);
    }

    /// A declared tree budget stays on its tree through a feed outage:
    /// while the tree is parked it is skipped, not pinned on the tree that
    /// takes its live index, and after the restore both trees are back at
    /// their positions.
    #[test]
    fn a_declared_tree_budget_follows_its_tree_through_a_feed_outage() {
        use capmaestro_core::oplog::{plan, DesiredState};

        let mut rig = stranded_rig(RigConfig::table3());
        let mut desired = DesiredState::default();
        desired.tree_budgets.insert(0, Watts::new(500.0));
        let planned = |rig: &Rig| plan(&desired, &rig.plane, &rig.farm).root_budgets;
        let declared = Some(vec![Watts::new(500.0), Watts::new(700.0)]);
        assert_eq!(planned(&rig), declared);

        let feeds: Vec<_> = rig.plane.trees().iter().map(|t| t.arena().feed()).collect();
        assert_eq!(rig.plane.fail_feed(feeds[0]), 1);
        assert_eq!(rig.plane.root_budgets_now(), [Watts::new(700.0)]);
        assert_eq!(planned(&rig), None, "the parked tree's budget lands nowhere");

        assert_eq!(rig.plane.restore_feed(feeds[0]), 1);
        let live: Vec<_> = rig.plane.trees().iter().map(|t| t.arena().feed()).collect();
        assert_eq!(live, feeds);
        assert_eq!(rig.plane.root_budgets_now(), [Watts::new(700.0); 2]);
        assert_eq!(planned(&rig), declared);
    }

    #[test]
    #[should_panic(expected = "no server named")]
    fn unknown_server_panics() {
        let rig = priority_rig(RigConfig::table2());
        let _ = rig.server("SX");
    }

    #[test]
    fn config_builders() {
        let c = RigConfig::table2()
            .with_policy(PolicyKind::LocalPriority)
            .with_spo(true);
        assert_eq!(c.policy, PolicyKind::LocalPriority);
        assert!(c.spo);
    }
}

/// Half-width of a data-center rig's per-server PSU split imbalance:
/// supply 0's share is drawn uniformly from `0.5 ± SPLIT_JITTER`.
const SPLIT_JITTER: f64 = 0.1;

/// Configuration of a full data-center rig (Table 4 style) for closed-loop
/// simulation — smaller `params` make debug-mode tests fast.
#[derive(Debug, Clone)]
pub struct DataCenterRigConfig {
    /// Physical layout (racks, device ratings, servers per rack).
    pub params: DataCenterParams,
    /// Fraction of servers that are high priority.
    pub high_priority_fraction: f64,
    /// Fleet-average CPU utilization the servers start at.
    pub utilization: f64,
    /// Per-server utilization jitter (σ of a clamped normal).
    pub jitter_std: f64,
    /// Capping policy.
    pub policy: PolicyKind,
    /// The budget-split allocator raced at every tree node.
    pub allocator: AllocatorKind,
    /// Run SPO each round.
    pub spo: bool,
    /// Contractual budget per phase, shared across feeds (already
    /// including any loading margin).
    pub contractual_per_phase: Watts,
    /// Seed for priorities, demands, and splits.
    pub seed: u64,
}

impl Default for DataCenterRigConfig {
    fn default() -> Self {
        DataCenterRigConfig {
            params: DataCenterParams::default(),
            high_priority_fraction: 0.3,
            utilization: 0.3,
            jitter_std: 0.05,
            policy: PolicyKind::GlobalPriority,
            allocator: AllocatorKind::Waterfall,
            spo: false,
            contractual_per_phase: Watts::from_kilowatts(700.0) * 0.95,
            seed: 0xD47ACE,
        }
    }
}

impl DataCenterRigConfig {
    /// A 1/9th-scale center (18 racks) with a proportionally scaled
    /// contractual budget — fast enough for debug-mode tests while keeping
    /// every per-device rating authentic.
    pub fn small() -> Self {
        DataCenterRigConfig {
            params: DataCenterParams {
                racks: 18,
                transformers_per_feed: 2,
                rpps_per_transformer: 3,
                cdus_per_rpp: 3,
                servers_per_rack: 12,
                ..DataCenterParams::default()
            },
            contractual_per_phase: Watts::from_kilowatts(700.0 / 9.0) * 0.95,
            ..DataCenterRigConfig::default()
        }
    }
}

/// Builds a closed-loop data-center rig: the Table 4 topology (or a scaled
/// subset), dual-corded servers with randomized split imbalance and
/// utilization, and a control plane over all six trees with a shared
/// per-phase contractual budget ([`BudgetSource::SharedPerPhase`], so feed
/// failover needs no operator action).
pub fn datacenter_rig(config: &DataCenterRigConfig) -> Rig {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let total = config.params.total_servers();
    let high = (config.high_priority_fraction * total as f64).round() as usize;
    // Exact-fraction random priority placement.
    let mut priorities = vec![Priority::LOW; total];
    let mut indices: Vec<u32> = (0..total as u32).collect();
    for i in 0..high.min(total) {
        let j = rng.random_range(i..total);
        indices.swap(i, j);
        priorities[indices[i] as usize] = Priority::HIGH;
    }
    let (topology, placements) =
        table4_datacenter(&config.params, |i| priorities[i]);

    let trees: Vec<ControlTree> = topology
        .control_tree_specs()
        .into_iter()
        .map(ControlTree::new)
        .collect();

    let jitter = NormalSampler::new(config.utilization, config.jitter_std);
    let mut farm = Farm::new();
    for placement in &placements {
        let split = 0.5 + SPLIT_JITTER * (rng.random::<f64>() * 2.0 - 1.0);
        let cfg = ServerConfig::paper_default().with_split(split.clamp(0.05, 0.95));
        let mut server = Server::new(cfg);
        let u = jitter.sample_clamped(&mut rng, 0.0, 1.0);
        server.set_utilization(Ratio::new(u));
        server.settle();
        farm.insert(placement.server, server);
    }

    let plane = ControlPlane::with_budget_source(
        trees,
        BudgetSource::SharedPerPhase(config.contractual_per_phase),
        PlaneConfig::default()
            .with_policy(config.policy)
            .with_allocator(config.allocator)
            .with_spo(config.spo),
    );
    Rig {
        topology,
        farm,
        plane,
    }
}
