//! The §6.4 capacity planner: how many servers fit?
//!
//! Models the Table 4 production data center and answers, per policy and
//! condition, the maximum deployable server count under the paper's
//! criterion: **average cap ratio below 1 %** — over *all* servers in
//! typical conditions, and over *high-priority* servers during a worst-case
//! power emergency (all servers at 100 % utilization with one entire feed
//! down).
//!
//! Methodology notes (deviations from the paper are deliberate and
//! documented in `EXPERIMENTS.md`):
//!
//! - The paper runs 20 k Monte-Carlo trials per typical-case point. We
//!   *stratify* over the bins of the fleet-average utilization
//!   distribution instead — the distribution is discrete, so weighting each
//!   bin by its probability removes that sampling dimension entirely and a
//!   handful of repetitions per bin (for priority placement and per-server
//!   jitter) converges tighter than 20 k raw trials.
//! - Both feeds and all per-server splits are symmetric in the capacity
//!   study (split 0.5, budgets 50/50), so allocating one feed's three
//!   phase trees and doubling is exact, halving the work.

use capmaestro_core::policy::PolicyKind;
use capmaestro_core::tree::{ControlTree, SupplyInput};
use capmaestro_server::ServerPowerModel;
use capmaestro_topology::presets::{table4_datacenter, DataCenterParams};
use capmaestro_topology::{FeedId, Priority};
use capmaestro_units::{Ratio, Watts};
use capmaestro_workload::{google_like_profile, DiscreteDistribution, NormalSampler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Which operating condition a capacity evaluation models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// Normal operation: both feeds up, fleet utilization drawn from the
    /// load profile. Criterion applies to all servers.
    Typical,
    /// Worst-case power emergency: every server at 100 % utilization and
    /// one entire feed down. Criterion applies to high-priority servers.
    WorstCase,
}

/// Aggregate result of evaluating one `(rack size, policy, condition)`
/// point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialStats {
    /// Mean cap ratio over all servers.
    pub cap_ratio_all: f64,
    /// Mean cap ratio over high-priority servers.
    pub cap_ratio_high: f64,
    /// Servers deployed at this point.
    pub servers: usize,
}

impl TrialStats {
    /// The criterion value the paper judges this condition by.
    pub fn criterion(&self, condition: Condition) -> f64 {
        match condition {
            Condition::Typical => self.cap_ratio_all,
            Condition::WorstCase => self.cap_ratio_high,
        }
    }
}

/// Loading fraction of the contractual budget the study plans against
/// (95 %, a 5 % margin).
pub const CONTRACTUAL_LOADING: f64 = 0.95;

/// The acceptance threshold on the mean cap ratio: the paper's 1 %
/// criterion (§6.4).
pub const CAP_RATIO_THRESHOLD: f64 = 0.01;

/// Configuration of the capacity study. Defaults reproduce Table 4 and the
/// §6.4 methodology.
#[derive(Debug, Clone)]
pub struct CapacityConfig {
    /// Physical data-center parameters (rack count, device ratings).
    pub dc: DataCenterParams,
    /// Fraction of servers designated high priority (0.3 in the paper).
    pub high_priority_fraction: f64,
    /// Contractual budget per phase across both feeds (700 kW), before
    /// [`CONTRACTUAL_LOADING`].
    pub contractual_per_phase: Watts,
    /// Fleet-average utilization distribution (Fig. 8 substitute).
    pub profile: DiscreteDistribution,
    /// Standard deviation of per-server utilization jitter around the
    /// fleet average.
    pub jitter_std: f64,
    /// Repetitions per profile bin in typical-case evaluation.
    pub typical_reps_per_bin: usize,
    /// Monte-Carlo trials in worst-case evaluation.
    pub worst_trials: usize,
    /// The server power model (Table 4 envelope).
    pub model: ServerPowerModel,
    /// Base random seed.
    pub seed: u64,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig {
            dc: DataCenterParams::default(),
            high_priority_fraction: 0.3,
            contractual_per_phase: Watts::from_kilowatts(700.0),
            profile: google_like_profile(),
            jitter_std: 0.05,
            typical_reps_per_bin: 3,
            worst_trials: 60,
            model: ServerPowerModel::paper_default(),
            seed: 0xCA9_AE57,
        }
    }
}

/// A prepared deployment at one rack size: feed A's three phase trees plus
/// bookkeeping.
#[derive(Debug)]
struct Prepared {
    trees: Vec<ControlTree>,
    server_count: usize,
}

/// The capacity planner.
///
/// # Examples
///
/// ```no_run
/// use capmaestro_core::policy::PolicyKind;
/// use capmaestro_sim::capacity::{CapacityConfig, CapacityPlanner, Condition};
///
/// let planner = CapacityPlanner::new(CapacityConfig::default());
/// let n = planner.max_deployable(PolicyKind::GlobalPriority, Condition::WorstCase);
/// println!("global priority sustains {n} servers through a feed failure");
/// ```
#[derive(Debug)]
pub struct CapacityPlanner {
    config: CapacityConfig,
}

/// SplitMix64, for deriving independent sub-seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn policy_tag(policy: PolicyKind) -> u64 {
    match policy {
        PolicyKind::NoPriority => 1,
        PolicyKind::LocalPriority => 2,
        PolicyKind::GlobalPriority => 3,
    }
}

impl CapacityPlanner {
    /// Creates a planner.
    pub fn new(config: CapacityConfig) -> Self {
        CapacityPlanner { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CapacityConfig {
        &self.config
    }

    fn prepare(&self, servers_per_rack: usize) -> Prepared {
        let params = DataCenterParams {
            servers_per_rack,
            ..self.config.dc
        };
        let (topo, _placements) = table4_datacenter(&params, |_| Priority::LOW);
        let trees: Vec<ControlTree> = topo
            .control_tree_specs()
            .into_iter()
            .filter(|spec| spec.feed() == FeedId::A)
            .map(ControlTree::new)
            .collect();
        Prepared {
            trees,
            server_count: topo.server_count(),
        }
    }

    /// Draws an exact-fraction high-priority set over `n` servers.
    fn draw_priorities(&self, n: usize, rng: &mut StdRng) -> Vec<Priority> {
        let mut priorities = vec![Priority::LOW; n];
        let k = (self.config.high_priority_fraction * n as f64).round() as usize;
        // Partial Fisher–Yates over an index vector.
        let mut indices: Vec<u32> = (0..n as u32).collect();
        for i in 0..k.min(n) {
            let j = rng.random_range(i..n);
            indices.swap(i, j);
            priorities[indices[i] as usize] = Priority::HIGH;
        }
        priorities
    }

    /// One trial: given per-server demands and priorities, allocate feed
    /// A's trees and return `(mean cap ratio all, mean cap ratio high)`.
    ///
    /// `share` is each surviving supply's load share (0.5 with both feeds
    /// up, 1.0 after a feed failure) and `budget_scale` converts a
    /// per-supply budget to the server total (2.0 or 1.0 respectively).
    #[allow(clippy::too_many_arguments)] // one explicit knob per §6.4 sweep dimension
    fn trial(
        &self,
        prepared: &mut Prepared,
        demands: &[Watts],
        priorities: &[Priority],
        share: f64,
        budget_scale: f64,
        root_budget: Watts,
        policy: PolicyKind,
    ) -> (f64, f64) {
        let model = self.config.model;
        // Fast path: if no limit can bind, nothing is capped.
        if self.uncapped_everywhere(prepared, demands, share, root_budget) {
            return (0.0, 0.0);
        }

        let policy_impl = policy.policy();
        let mut sum_all = 0.0;
        let mut count_all = 0usize;
        let mut sum_high = 0.0;
        let mut count_high = 0usize;

        for tree in &mut prepared.trees {
            tree.set_priorities_with(|server| priorities[server.index()]);
            tree.set_inputs_with(|server, _| SupplyInput {
                demand: demands[server.index()],
                cap_min: model.cap_min(),
                cap_max: model.cap_max(),
                share: Ratio::new(share),
            });
            let alloc = tree.allocate(root_budget, policy_impl.as_ref());
            // Iterate leaves in slot order (not HashMap order) so the
            // floating-point accumulation — and therefore the whole
            // planner — is bit-for-bit deterministic.
            let index = tree.arena().leaf_index();
            for slot in 0..index.len() {
                let (server, _) = index.pair(slot);
                let budget = alloc.leaf_budget(slot);
                let demand = demands[server.index()];
                let total_budget = budget * budget_scale;
                let ratio = model.cap_ratio(demand, total_budget).as_f64();
                sum_all += ratio;
                count_all += 1;
                if priorities[server.index()] == Priority::HIGH {
                    sum_high += ratio;
                    count_high += 1;
                }
            }
        }
        (
            if count_all > 0 { sum_all / count_all as f64 } else { 0.0 },
            if count_high > 0 {
                sum_high / count_high as f64
            } else {
                0.0
            },
        )
    }

    /// Conservative no-capping check: accumulate `max(demand, cap_min) ×
    /// share` up each tree and compare against every limit and the root
    /// budget. Exact when it returns `true` (no allocation can cap), so the
    /// expensive allocation is skipped for lightly-loaded trials.
    fn uncapped_everywhere(
        &self,
        prepared: &Prepared,
        demands: &[Watts],
        share: f64,
        root_budget: Watts,
    ) -> bool {
        let model = self.config.model;
        for arena in prepared.trees.iter().map(ControlTree::arena) {
            let index = arena.leaf_index();
            let mut sums = vec![Watts::ZERO; arena.len()];
            for slot in 0..index.len() {
                let (server, _) = index.pair(slot);
                sums[index.node(slot)] = demands[server.index()].max(model.cap_min()) * share;
            }
            // Children have higher indices than their parent; each sum adds
            // them last child first.
            for idx in (0..arena.len()).rev() {
                let children = arena.children_of(idx);
                if !children.is_empty() {
                    sums[idx] = children
                        .iter()
                        .rev()
                        .fold(Watts::ZERO, |sum, &c| sum + sums[c as usize]);
                }
                if arena.limit(idx).is_some_and(|limit| sums[idx] > limit) {
                    return false;
                }
            }
            if sums.first().is_some_and(|&root| root > root_budget) {
                return false;
            }
        }
        true
    }

    /// Evaluates one `(rack size, policy, condition)` point.
    pub fn evaluate(
        &self,
        servers_per_rack: usize,
        policy: PolicyKind,
        condition: Condition,
    ) -> TrialStats {
        let mut prepared = self.prepare(servers_per_rack);
        let n = prepared.server_count;
        let base = mix(
            self.config
                .seed
                .wrapping_add(servers_per_rack as u64)
                .wrapping_mul(0x1000_0001)
                ^ policy_tag(policy),
        );
        let model = self.config.model;
        // Contractual budget per phase, after the 5 % margin.
        let contractual = self.config.contractual_per_phase * CONTRACTUAL_LOADING;

        let (cap_all, cap_high) = match condition {
            Condition::WorstCase => {
                // One feed down: full contractual flows through feed A,
                // every server at maximum demand.
                let demands = vec![model.cap_max(); n];
                let mut sum_all = 0.0;
                let mut sum_high = 0.0;
                let trials = self.config.worst_trials.max(1);
                for t in 0..trials {
                    let mut rng = StdRng::seed_from_u64(mix(base ^ (t as u64) << 1));
                    let priorities = self.draw_priorities(n, &mut rng);
                    let (a, h) = self.trial(
                        &mut prepared,
                        &demands,
                        &priorities,
                        1.0,
                        1.0,
                        contractual,
                        policy,
                    );
                    sum_all += a;
                    sum_high += h;
                }
                (sum_all / trials as f64, sum_high / trials as f64)
            }
            Condition::Typical => {
                // Both feeds up, symmetric: allocate feed A with half the
                // contractual budget and double the per-supply budgets.
                let root = contractual / 2.0;
                let reps = self.config.typical_reps_per_bin.max(1);
                let mut sum_all = 0.0;
                let mut sum_high = 0.0;
                let values = self.config.profile.values().to_vec();
                let probs = self.config.profile.probabilities().to_vec();
                for (bin, (&u, &p)) in values.iter().zip(&probs).enumerate() {
                    if p <= 1e-9 {
                        continue;
                    }
                    let mut bin_all = 0.0;
                    let mut bin_high = 0.0;
                    for rep in 0..reps {
                        let mut rng = StdRng::seed_from_u64(mix(
                            base ^ ((bin as u64) << 20) ^ (rep as u64),
                        ));
                        let priorities = self.draw_priorities(n, &mut rng);
                        let jitter = NormalSampler::new(u, self.config.jitter_std);
                        let demands: Vec<Watts> = (0..n)
                            .map(|_| {
                                let ui = jitter.sample_clamped(&mut rng, 0.0, 1.0);
                                model.power_at_utilization(Ratio::new(ui))
                            })
                            .collect();
                        let (a, h) = self.trial(
                            &mut prepared,
                            &demands,
                            &priorities,
                            0.5,
                            2.0,
                            root,
                            policy,
                        );
                        bin_all += a;
                        bin_high += h;
                    }
                    sum_all += p * bin_all / reps as f64;
                    sum_high += p * bin_high / reps as f64;
                }
                (sum_all, sum_high)
            }
        };

        TrialStats {
            cap_ratio_all: cap_all,
            cap_ratio_high: cap_high,
            servers: n,
        }
    }

    /// The largest rack size (6–45 servers per rack) whose criterion stays
    /// under the threshold, found by binary search (the criterion is
    /// monotone in the rack size). Returns the corresponding total server
    /// count, or 0 if even 6 per rack violates the criterion.
    pub fn max_deployable(&self, policy: PolicyKind, condition: Condition) -> usize {
        let (mut lo, mut hi) = (6usize, 45usize);
        if self.evaluate(lo, policy, condition).criterion(condition) >= CAP_RATIO_THRESHOLD {
            return 0;
        }
        if self.evaluate(hi, policy, condition).criterion(condition) < CAP_RATIO_THRESHOLD {
            return hi * self.config.dc.racks;
        }
        // Invariant: lo passes, hi fails.
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let stats = self.evaluate(mid, policy, condition);
            if stats.criterion(condition) < CAP_RATIO_THRESHOLD {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo * self.config.dc.racks
    }

    /// Cap-ratio curve across rack sizes (the Fig. 10 series).
    pub fn capacity_curve(
        &self,
        policy: PolicyKind,
        condition: Condition,
        rack_sizes: &[usize],
    ) -> Vec<TrialStats> {
        rack_sizes
            .iter()
            .map(|&spr| self.evaluate(spr, policy, condition))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down data center (1/9th of the racks) so tests run fast;
    /// limits are unchanged so per-rack capacities match the full center.
    fn small_config() -> CapacityConfig {
        CapacityConfig {
            dc: DataCenterParams {
                racks: 18,
                transformers_per_feed: 2,
                rpps_per_transformer: 3,
                cdus_per_rpp: 3,
                ..DataCenterParams::default()
            },
            // Scale the contractual budget with the rack count.
            contractual_per_phase: Watts::from_kilowatts(700.0 / 9.0),
            worst_trials: 8,
            typical_reps_per_bin: 1,
            ..CapacityConfig::default()
        }
    }

    #[test]
    fn worst_case_ordering_matches_paper() {
        let planner = CapacityPlanner::new(small_config());
        let none = planner.max_deployable(PolicyKind::NoPriority, Condition::WorstCase);
        let local =
            planner.max_deployable(PolicyKind::LocalPriority, Condition::WorstCase);
        let global =
            planner.max_deployable(PolicyKind::GlobalPriority, Condition::WorstCase);
        assert!(
            none < local && local <= global,
            "expected none < local <= global, got {none} / {local} / {global}"
        );
        assert!(global > none * 5 / 4, "global {global} vs none {none}");
    }

    #[test]
    fn typical_case_admits_more_than_worst_case() {
        let planner = CapacityPlanner::new(small_config());
        let typical =
            planner.max_deployable(PolicyKind::GlobalPriority, Condition::Typical);
        let worst =
            planner.max_deployable(PolicyKind::GlobalPriority, Condition::WorstCase);
        assert!(typical >= worst, "typical {typical} < worst {worst}");
    }

    #[test]
    fn cap_ratio_monotone_in_rack_size() {
        let planner = CapacityPlanner::new(small_config());
        let sizes = [12, 24, 36, 45];
        let curve =
            planner.capacity_curve(PolicyKind::NoPriority, Condition::WorstCase, &sizes);
        for pair in curve.windows(2) {
            assert!(
                pair[1].cap_ratio_all >= pair[0].cap_ratio_all - 1e-9,
                "cap ratio should not decrease with more servers"
            );
        }
        // At 45/rack the no-priority policy definitely caps heavily.
        assert!(curve[3].cap_ratio_all > 0.1);
    }

    #[test]
    fn high_priority_protected_under_global() {
        let planner = CapacityPlanner::new(small_config());
        let stats = planner.evaluate(36, PolicyKind::GlobalPriority, Condition::WorstCase);
        let nop = planner.evaluate(36, PolicyKind::NoPriority, Condition::WorstCase);
        // Under global priority the high-priority servers see far less
        // capping than under no priority.
        assert!(
            stats.cap_ratio_high < nop.cap_ratio_high / 3.0,
            "global high {} vs none high {}",
            stats.cap_ratio_high,
            nop.cap_ratio_high
        );
        // And under no priority everyone is capped alike.
        assert!((nop.cap_ratio_high - nop.cap_ratio_all).abs() < 0.02);
    }

    #[test]
    fn priorities_drawn_with_exact_fraction() {
        let planner = CapacityPlanner::new(small_config());
        let mut rng = StdRng::seed_from_u64(7);
        let priorities = planner.draw_priorities(1000, &mut rng);
        let high = priorities.iter().filter(|p| **p == Priority::HIGH).count();
        assert_eq!(high, 300);
    }

    #[test]
    fn uncapped_shortcut_consistent_with_allocation() {
        let planner = CapacityPlanner::new(small_config());
        let mut prepared = planner.prepare(12);
        let n = prepared.server_count;
        // Light load: surely uncapped.
        let light = vec![Watts::new(300.0); n];
        let contractual = planner.config.contractual_per_phase * 0.95;
        assert!(planner.uncapped_everywhere(&prepared, &light, 0.5, contractual / 2.0));
        let (a, h) = planner.trial(
            &mut prepared,
            &light,
            &vec![Priority::LOW; n],
            0.5,
            2.0,
            contractual / 2.0,
            PolicyKind::GlobalPriority,
        );
        assert_eq!((a, h), (0.0, 0.0));
        // Max load at maximum density: the CDU limit binds (15 servers on
        // one phase × 490 W = 7.35 kW > 5.52 kW derated).
        let prepared45 = planner.prepare(45);
        let heavy = vec![Watts::new(490.0); prepared45.server_count];
        assert!(!planner.uncapped_everywhere(&prepared45, &heavy, 1.0, contractual));
    }

    #[test]
    fn stats_criterion_selector() {
        let stats = TrialStats {
            cap_ratio_all: 0.2,
            cap_ratio_high: 0.05,
            servers: 100,
        };
        assert_eq!(stats.criterion(Condition::Typical), 0.2);
        assert_eq!(stats.criterion(Condition::WorstCase), 0.05);
    }
}
