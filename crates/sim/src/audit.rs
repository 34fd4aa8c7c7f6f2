//! Active wiring audit: validating a declared power topology at runtime.
//!
//! The paper's §7 calls out that "wiring mistakes are possible when we
//! connect servers to the power infrastructure … there is a need to
//! develop a cost-effective approach to finding such errors (other than
//! manual cable tracing)". This module implements such an approach over
//! the simulation substrate: a **power perturbation probe**.
//!
//! For each server, the auditor briefly throttles it (a deep DC cap — the
//! knob CapMaestro already owns), reads every metered distribution point
//! before and after, and checks that exactly the declared ancestors of the
//! server's outlets responded. A supply plugged into the wrong branch
//! shows up as a response on an undeclared meter and silence on a declared
//! one.
//!
//! The module's second half is the **invariant tracker** behind the chaos
//! soak harness: an [`InvariantTracker`] observes a live
//! [`Engine`](crate::engine::Engine) once per simulated second and checks
//! the safety properties that must survive telemetry faults — per-tree
//! budgets respected by the *physical* load, DC caps inside the
//! controllable range, priority ordering preserved, and no breaker trips,
//! ever.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use capmaestro_core::obs::{names, null_recorder, Recorder};
use capmaestro_core::plane::Farm;
use capmaestro_topology::{FeedId, NodeId, Priority, ServerId, Topology};
use capmaestro_units::Watts;

use crate::engine::Engine;

/// Per-(feed, node) load for a farm wired according to `topology`: outlet
/// loads pushed up each ancestor path. This is what the infrastructure's
/// meters would read.
pub fn node_loads(topology: &Topology, farm: &Farm) -> HashMap<(FeedId, NodeId), Watts> {
    let mut loads: HashMap<(FeedId, NodeId), Watts> = HashMap::new();
    for graph in topology.feeds() {
        for (outlet_node, outlet) in graph.outlets() {
            let Some(server) = farm.get(outlet.server) else {
                continue;
            };
            let snap = server.sense();
            let load = snap
                .supply_ac
                .get(outlet.supply.index())
                .copied()
                .unwrap_or(Watts::ZERO);
            for node in graph.path_to_root(outlet_node) {
                *loads.entry((graph.feed(), node)).or_insert(Watts::ZERO) += load;
            }
        }
    }
    loads
}

/// A detected wiring discrepancy for one server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WiringMismatch {
    /// The server whose probe disagreed with the declared topology.
    pub server: ServerId,
    /// Metered points that the declared topology says should have
    /// responded but did not (device names).
    pub missing: Vec<String>,
    /// Metered points that responded although the declared topology says
    /// they should not have (device names).
    pub unexpected: Vec<String>,
}

/// Outcome of a wiring audit.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Servers whose observed response set matched the declaration.
    pub verified: Vec<ServerId>,
    /// Servers with discrepancies.
    pub mismatches: Vec<WiringMismatch>,
}

impl AuditReport {
    /// Whether the declared topology survived the audit unchallenged.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Load change below this is measurement noise, not a response.
const RESPONSE_THRESHOLD: Watts = Watts::new(5.0);

/// Audits `declared` against the physical truth.
///
/// `actual` describes how the data center is *really* cabled (in a live
/// deployment this is the physical world itself; here it is the topology
/// the farm's meters answer for). The probe perturbs one server at a time:
/// it forces the server's demand to idle, diffs every metered node, and
/// compares the responding set against the declared ancestry. Servers are
/// restored to their previous demand afterwards.
///
/// Only internal nodes carrying a limit (i.e. metered distribution points)
/// participate in the comparison; outlet leaves are excluded since a leaf
/// meter would make the audit trivial.
pub fn audit_wiring(declared: &Topology, actual: &Topology, farm: &mut Farm) -> AuditReport {
    let mut tracker = InvariantTracker::new(InvariantConfig::default());
    audit_wiring_tracked(declared, actual, farm, &mut tracker)
}

/// Like [`audit_wiring`], but records probe-integrity problems into
/// `tracker` instead of trusting the caller's setup. A probe whose
/// preconditions do not hold — a declared attachment on a feed the
/// declaration itself lacks, or a declared server absent from the farm —
/// is **skipped** and logged as an [`InvariantKind::ProbeIntegrity`]
/// violation rather than panicking the audit: a live auditor must survive
/// a declaration that disagrees with the fleet inventory, since such
/// disagreement is precisely the class of error it exists to find.
///
/// The probe sweep covers the union of the farm's servers and the
/// declaration's attached servers, so a server that is declared but was
/// never racked surfaces as a violation instead of silently passing.
pub fn audit_wiring_tracked(
    declared: &Topology,
    actual: &Topology,
    farm: &mut Farm,
    tracker: &mut InvariantTracker,
) -> AuditReport {
    let mut report = AuditReport::default();
    let mut servers: Vec<ServerId> = farm.iter().map(|(id, _)| id).collect();
    for graph in declared.feeds() {
        servers.extend(graph.outlets().map(|(_, o)| o.server));
    }
    servers.sort_unstable();
    servers.dedup();

    for server in servers {
        // Expected responders: metered ancestors per the declaration.
        let mut expected: Vec<(FeedId, String)> = Vec::new();
        let mut skip = false;
        for (feed, node, _) in declared.supply_attachments(server) {
            let Some(graph) = declared.feed(feed) else {
                tracker.record(
                    0,
                    InvariantKind::ProbeIntegrity,
                    format!(
                        "declared attachment of {server:?} names feed \
                         {feed:?} absent from the declaration; probe skipped"
                    ),
                );
                skip = true;
                continue;
            };
            for ancestor in graph.path_to_root(node) {
                let device = graph.device(ancestor);
                if device.effective_limit().is_some() {
                    expected.push((feed, device.name().to_string()));
                }
            }
        }
        if skip {
            continue;
        }
        expected.sort();
        expected.dedup();

        // Probe: drop the server to idle, observe the metered deltas on
        // the *actual* wiring.
        if farm.get(server).is_none() {
            tracker.record(
                0,
                InvariantKind::ProbeIntegrity,
                format!(
                    "{server:?} is declared but absent from the farm; \
                     probe skipped"
                ),
            );
            continue;
        }
        let baseline = node_loads(actual, farm);
        let Some((prev_demand, was_powered)) = farm.get_mut(server).map(|mut srv| {
            let prev = srv.offered_demand();
            let powered = srv.is_powered();
            let idle = srv.config().model().idle();
            srv.set_offered_demand(idle);
            srv.settle();
            (prev, powered)
        }) else {
            continue;
        };
        let probed = node_loads(actual, farm);
        if let Some(mut srv) = farm.get_mut(server) {
            srv.set_offered_demand(prev_demand);
            srv.set_powered(was_powered);
            srv.settle();
        }

        let mut observed: Vec<(FeedId, String)> = Vec::new();
        for (key @ (feed, node), base) in &baseline {
            let Some(graph) = actual.feed(*feed) else {
                tracker.record(
                    0,
                    InvariantKind::ProbeIntegrity,
                    format!(
                        "metered node on feed {feed:?} has no graph in the \
                         actual topology; meter ignored"
                    ),
                );
                continue;
            };
            if graph.device(*node).effective_limit().is_none() {
                continue;
            }
            let after = probed.get(key).copied().unwrap_or(Watts::ZERO);
            if (*base - after).as_f64().abs() >= RESPONSE_THRESHOLD.as_f64() {
                observed.push((*feed, graph.device(*node).name().to_string()));
            }
        }
        observed.sort();
        observed.dedup();

        let missing: Vec<String> = expected
            .iter()
            .filter(|e| !observed.contains(e))
            .map(|(_, n)| n.clone())
            .collect();
        let unexpected: Vec<String> = observed
            .iter()
            .filter(|o| !expected.contains(o))
            .map(|(_, n)| n.clone())
            .collect();
        if missing.is_empty() && unexpected.is_empty() {
            report.verified.push(server);
        } else {
            report.mismatches.push(WiringMismatch {
                server,
                missing,
                unexpected,
            });
        }
    }
    report
}

/// Which safety property a [`Violation`] breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// A control tree's physical load (exempt servers excluded) exceeded
    /// its root budget beyond tolerance for a sustained window.
    FeedBudget,
    /// A commanded DC cap left the server's controllable range.
    CapRange,
    /// A higher-priority server was throttled while a lower-priority peer
    /// in the same tree kept usable cap headroom, sustained.
    PriorityInversion,
    /// A circuit breaker tripped. Trips are never exempt — they are the
    /// outcome the whole system exists to prevent (paper §1).
    BreakerTrip,
    /// The rig failed to return to its pre-fault operating point after
    /// the fault schedule drained (recorded by the chaos harness via
    /// [`InvariantTracker::record`]).
    Recovery,
    /// A control tree's feed-level meter total (the physical load the
    /// infrastructure's own meters read) persistently exceeded the sum of
    /// the readings its servers reported — the signature of an
    /// under-reporting sensor gain, which server-side plausibility
    /// screening cannot catch (paper §7: a too-low reading is
    /// indistinguishable from a genuinely lighter load at the server).
    MeterMismatch,
    /// A wiring-audit probe's preconditions did not hold (a declared
    /// attachment on a missing feed, or a declared server absent from the
    /// farm). The probe is skipped and the discrepancy recorded — the
    /// audit must outlive a declaration that disagrees with the fleet
    /// inventory, since that disagreement is what it exists to find.
    ProbeIntegrity,
}

/// One observed breach of a safety invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Simulation second at which the breach was established.
    pub second: u64,
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Human-readable specifics (tree, server, magnitudes).
    pub detail: String,
}

/// Tunables for [`InvariantTracker`]. The defaults match the capping
/// controller's convergence behaviour: budget breaches and priority
/// inversions must persist for `sustain_s` seconds (four 8 s control
/// rounds) before they count, so the integrator's legitimate transients
/// during fault onset/recovery are not misread as violations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvariantConfig {
    /// Fractional overshoot a tree's physical load may carry over its
    /// root budget (the controller's own settling tolerance).
    pub budget_tolerance: f64,
    /// Absolute slack added on top of the fractional tolerance, watts.
    pub budget_slack: Watts,
    /// Seconds a budget breach or priority inversion must persist
    /// continuously before it is recorded.
    pub sustain_s: u64,
    /// Throttle level above which a high-priority server counts as
    /// meaningfully capped.
    pub high_throttle_eps: f64,
    /// Watts of cap (and draw) above the floor a lower-priority server
    /// must hold for its headroom to count as reallocatable.
    pub low_headroom: Watts,
    /// Fractional gap between a tree's physical meter sum and its
    /// reported sum before the metering cross-check counts the second as
    /// under-reported. Deliberately coarser than `budget_tolerance`: the
    /// reported side lags the physical side by one settling step, and
    /// honest telemetry faults (frozen or noisy sensors) wobble the gap
    /// without the sustained, large, one-sided signature of a
    /// miscalibrated gain.
    pub meter_tolerance: f64,
    /// Absolute slack added on top of `meter_tolerance`, watts.
    pub meter_slack: Watts,
    /// Consecutive interposed seconds the under-reporting gap must
    /// persist before a [`InvariantKind::MeterMismatch`] is recorded.
    pub meter_sustain_s: u64,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        InvariantConfig {
            budget_tolerance: 0.02,
            budget_slack: Watts::new(2.0),
            sustain_s: 32,
            high_throttle_eps: 0.08,
            low_headroom: Watts::new(8.0),
            meter_tolerance: 0.05,
            meter_slack: Watts::new(10.0),
            meter_sustain_s: 48,
        }
    }
}

/// Checks the chaos-soak safety invariants against a live engine, once
/// per simulated second (drive it from
/// [`Engine::run_observed`](crate::engine::Engine::run_observed)).
///
/// Servers currently covered by the engine's fault layer, marked stale by
/// the control plane, or physically unpowered are **exempt** from the
/// budget and priority checks — the degradation ladder deliberately
/// over-throttles or fail-safes them, and their telemetry is known to be
/// lies. Breaker trips are never exempt, and neither is the feed-level
/// metering cross-check ([`InvariantKind::MeterMismatch`]): it compares
/// the physical per-tree load against what the servers *claimed*, so the
/// lie itself is the detection target.
#[derive(Debug)]
pub struct InvariantTracker {
    config: InvariantConfig,
    violations: Vec<Violation>,
    /// Consecutive seconds each tree (by index) has run over budget.
    over_budget_s: HashMap<usize, u64>,
    /// Consecutive seconds each tree (by index) has shown an inversion.
    inversion_s: HashMap<usize, u64>,
    /// Consecutive interposed seconds each tree's physical meter sum has
    /// exceeded its reported sum beyond tolerance.
    meter_gap_s: HashMap<usize, u64>,
    /// Servers whose cap was out of range last second (dedup).
    out_of_range: HashSet<ServerId>,
    /// Trip entries of the engine trace already reported.
    trips_seen: usize,
    seconds_observed: u64,
    /// Sink for the `capmaestro_invariant_violations_total` counter.
    recorder: Arc<dyn Recorder>,
}

impl InvariantTracker {
    /// A tracker with the given thresholds.
    pub fn new(config: InvariantConfig) -> Self {
        InvariantTracker {
            config,
            violations: Vec::new(),
            over_budget_s: HashMap::new(),
            inversion_s: HashMap::new(),
            meter_gap_s: HashMap::new(),
            out_of_range: HashSet::new(),
            trips_seen: 0,
            seconds_observed: 0,
            recorder: null_recorder(),
        }
    }

    /// Returns the tracker with its metrics recorder replaced; every
    /// recorded violation then also bumps
    /// `capmaestro_invariant_violations_total`.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Replaces the metrics recorder in place.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// The thresholds in force.
    pub fn config(&self) -> InvariantConfig {
        self.config
    }

    /// Every breach recorded so far, in observation order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether no invariant has been breached.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Seconds of simulation observed.
    pub fn seconds_observed(&self) -> u64 {
        self.seconds_observed
    }

    /// Records an externally detected breach (the chaos harness uses this
    /// for the end-of-run recovery check, which needs cross-run context
    /// the per-second observer does not have).
    pub fn record(&mut self, second: u64, kind: InvariantKind, detail: String) {
        self.recorder
            .counter_add(names::INVARIANT_VIOLATIONS_TOTAL, 1);
        self.violations.push(Violation {
            second,
            kind,
            detail,
        });
    }

    /// Observes one simulated second. Call after the engine has stepped
    /// (e.g. from the `run_observed` observer).
    pub fn observe(&mut self, engine: &Engine) {
        self.seconds_observed += 1;
        let violations_before = self.violations.len();
        let now = engine.now_s();
        let farm = engine.farm();
        let plane = engine.plane();

        // Exempt set: servers whose telemetry is known-corrupted, already
        // fail-safed, or physically dark.
        let mut exempt: HashSet<ServerId> =
            engine.fault_layer().affected_servers().into_iter().collect();
        exempt.extend(plane.stale_servers());
        for (id, server) in farm.iter() {
            if !server.is_powered() {
                exempt.insert(id);
            }
        }

        // Breaker trips: report every new trace entry, exempt or not.
        let trips = &engine.trace().trips;
        for (sec, feed, name) in &trips[self.trips_seen..] {
            self.violations.push(Violation {
                second: *sec,
                kind: InvariantKind::BreakerTrip,
                detail: format!("breaker {name} on feed {feed} tripped"),
            });
        }
        self.trips_seen = trips.len();

        // Cap range: clamped by construction, so any excursion is a
        // controller bug. Immediate, deduplicated per excursion.
        for (id, server) in farm.iter() {
            let Some(cap) = server.dc_cap() else {
                self.out_of_range.remove(&id);
                continue;
            };
            let model = server.config().model();
            let eff = server.bank().efficiency();
            let lo = (model.cap_min() * eff).as_f64() - 1e-6;
            let hi = (model.cap_max() * eff).as_f64() + 1e-6;
            if cap.as_f64() < lo || cap.as_f64() > hi {
                if self.out_of_range.insert(id) {
                    self.violations.push(Violation {
                        second: now,
                        kind: InvariantKind::CapRange,
                        detail: format!(
                            "{id}: dc cap {cap} outside [{lo:.1}, {hi:.1}] W"
                        ),
                    });
                }
            } else {
                self.out_of_range.remove(&id);
            }
        }

        // Per-tree checks.
        let budgets = plane.root_budgets_now();
        let mut seen: HashSet<ServerId> = HashSet::new();
        for (i, (tree, budget)) in
            plane.trees().iter().zip(budgets).enumerate()
        {
            let spec = tree.spec();

            // Feed budget: physical non-exempt load vs the root budget.
            // Exempt leaves are excluded from the sum rather than the
            // budget being shrunk: the allocator still reserves budget
            // for them, so this is the conservative direction.
            let mut load = Watts::ZERO;
            for (_, leaf) in spec.leaves() {
                if exempt.contains(&leaf.server) {
                    continue;
                }
                let Some(server) = farm.get(leaf.server) else {
                    continue;
                };
                let snap = server.sense();
                load += snap
                    .supply_ac
                    .get(leaf.supply.index())
                    .copied()
                    .unwrap_or(Watts::ZERO);
            }
            let limit = budget * (1.0 + self.config.budget_tolerance)
                + self.config.budget_slack;
            let ctr = self.over_budget_s.entry(i).or_insert(0);
            if load.as_f64() > limit.as_f64() {
                *ctr += 1;
                if *ctr == self.config.sustain_s {
                    self.violations.push(Violation {
                        second: now,
                        kind: InvariantKind::FeedBudget,
                        detail: format!(
                            "tree {i} ({} {:?}): load {load} > budget {budget} \
                             for {} s",
                            spec.feed(),
                            spec.phase(),
                            self.config.sustain_s
                        ),
                    });
                }
            } else {
                *ctr = 0;
            }

            // Priority inversion: a throttled higher-priority server
            // coexisting with a lower-priority peer that holds both cap
            // and draw above the floor (i.e. budget that could have been
            // shifted up), sustained.
            // One entry per server, however many of its supplies the tree
            // holds.
            let mut entries: Vec<(Priority, f64, bool)> = Vec::new();
            seen.clear();
            for (_, leaf) in spec.leaves() {
                if exempt.contains(&leaf.server) || !seen.insert(leaf.server) {
                    continue;
                }
                let Some(server) = farm.get(leaf.server) else {
                    continue;
                };
                let priority = plane
                    .effective_priority(leaf.server)
                    .unwrap_or(leaf.priority);
                let model = server.config().model();
                let eff = server.bank().efficiency();
                let floor_dc = model.cap_min() * eff;
                let cap_headroom = server
                    .dc_cap()
                    .map(|c| c > floor_dc + self.config.low_headroom)
                    .unwrap_or(true);
                let draw_headroom = server.sense().total_ac
                    > model.cap_min() + self.config.low_headroom;
                entries.push((
                    priority,
                    server.throttle().as_f64(),
                    cap_headroom && draw_headroom,
                ));
            }
            let inverted = entries.iter().any(|&(ph, throttle, _)| {
                throttle > self.config.high_throttle_eps
                    && entries
                        .iter()
                        .any(|&(pl, _, headroom)| pl < ph && headroom)
            });
            let ctr = self.inversion_s.entry(i).or_insert(0);
            if inverted {
                *ctr += 1;
                if *ctr == self.config.sustain_s {
                    self.violations.push(Violation {
                        second: now,
                        kind: InvariantKind::PriorityInversion,
                        detail: format!(
                            "tree {i} ({} {:?}): higher-priority server \
                             throttled while lower-priority headroom remained \
                             for {} s",
                            spec.feed(),
                            spec.phase(),
                            self.config.sustain_s
                        ),
                    });
                }
            } else {
                *ctr = 0;
            }
        }

        // Feed-level metering cross-check: the physical per-tree load
        // (what the infrastructure's own meters read) reconciled against
        // the sum of the readings the control plane was actually handed.
        // Servers whose reading was not delivered this second are left
        // out of BOTH sums; fault-affected servers are deliberately NOT
        // exempt — a lied-about reading is exactly what this check
        // exists to detect. Only the under-reporting direction counts:
        // over-reporting already degrades safely through server-side
        // screening, while a persistent under-reporting gain silently
        // uncaps the feed. Quiet seconds (no interposition) are skipped
        // and reset the sustain counters.
        match engine.delivered_readings() {
            Some(delivered) => {
                let reported: HashMap<ServerId, &_> =
                    delivered.iter().map(|(id, snap)| (*id, snap)).collect();
                for (i, tree) in plane.trees().iter().enumerate() {
                    let spec = tree.spec();
                    let mut physical = Watts::ZERO;
                    let mut claimed = Watts::ZERO;
                    for (_, leaf) in spec.leaves() {
                        let Some(snap) = reported.get(&leaf.server) else {
                            continue;
                        };
                        let Some(server) = farm.get(leaf.server) else {
                            continue;
                        };
                        let idx = leaf.supply.index();
                        physical += server
                            .sense()
                            .supply_ac
                            .get(idx)
                            .copied()
                            .unwrap_or(Watts::ZERO);
                        claimed += snap
                            .supply_ac
                            .get(idx)
                            .copied()
                            .unwrap_or(Watts::ZERO);
                    }
                    let gap = physical.as_f64() - claimed.as_f64();
                    let limit = self.config.meter_tolerance * physical.as_f64()
                        + self.config.meter_slack.as_f64();
                    let ctr = self.meter_gap_s.entry(i).or_insert(0);
                    if gap > limit {
                        *ctr += 1;
                        if *ctr == self.config.meter_sustain_s {
                            self.violations.push(Violation {
                                second: now,
                                kind: InvariantKind::MeterMismatch,
                                detail: format!(
                                    "tree {i} ({} {:?}): feed meters read \
                                     {physical} but servers reported \
                                     {claimed} for {} s — under-reporting \
                                     telemetry",
                                    spec.feed(),
                                    spec.phase(),
                                    self.config.meter_sustain_s
                                ),
                            });
                        }
                    } else {
                        *ctr = 0;
                    }
                }
            }
            None => self.meter_gap_s.clear(),
        }

        // Several checks above push violations directly (trips, cap
        // range, budget, inversion, metering); one length delta covers
        // them all.
        let new_violations = self.violations.len() - violations_before;
        if new_violations > 0 {
            self.recorder.counter_add(
                names::INVARIANT_VIOLATIONS_TOTAL,
                new_violations as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{stranded_rig, RigConfig};
    use capmaestro_topology::builder::TopologyBuilder;
    use capmaestro_topology::presets::figure7a_rig;
    use capmaestro_topology::{DeviceKind, Phase, PowerDevice, Priority, SupplyIndex};

    #[test]
    fn correct_wiring_audits_clean() {
        let rig = stranded_rig(RigConfig::table3());
        let declared = rig.topology.clone();
        let mut farm = rig.farm;
        let report = audit_wiring(&declared, &declared, &mut farm);
        assert!(report.is_clean(), "mismatches: {:?}", report.mismatches);
        assert_eq!(report.verified.len(), 4);
    }

    /// Miswire SC's Y-side cord onto the left breaker (it belongs on the
    /// right): the audit must flag SC and only SC.
    #[test]
    fn detects_single_miswired_cord() {
        let rig = stranded_rig(RigConfig::table3());
        let declared = rig.topology.clone();
        let mut farm = rig.farm;

        // Build the *actual* (miswired) topology from scratch: identical
        // except SC's SECOND supply lands under "Y Left CB".
        let mut b = TopologyBuilder::new();
        let mut lefts = Vec::new();
        let mut rights = Vec::new();
        for feed in [FeedId::A, FeedId::B] {
            let label = if feed == FeedId::A { "X" } else { "Y" };
            let root = b.add_feed(
                feed,
                PowerDevice::new(format!("{label} Top CB"), DeviceKind::Virtual)
                    .with_extra_limit(Watts::new(1400.0)),
            );
            lefts.push(
                b.add_node(
                    feed,
                    root,
                    PowerDevice::new(format!("{label} Left CB"), DeviceKind::Virtual)
                        .with_extra_limit(Watts::new(750.0)),
                )
                .unwrap(),
            );
            rights.push(
                b.add_node(
                    feed,
                    root,
                    PowerDevice::new(format!("{label} Right CB"), DeviceKind::Virtual)
                        .with_extra_limit(Watts::new(750.0)),
                )
                .unwrap(),
            );
        }
        let sa = b.add_server("SA", Priority::HIGH);
        let sb = b.add_server("SB", Priority::LOW);
        let sc = b.add_server("SC", Priority::LOW);
        let sd = b.add_server("SD", Priority::LOW);
        b.attach(sa, SupplyIndex::FIRST, FeedId::A, lefts[0], Phase::L1)
            .unwrap();
        b.attach(sb, SupplyIndex::FIRST, FeedId::B, lefts[1], Phase::L1)
            .unwrap();
        b.attach(sc, SupplyIndex::FIRST, FeedId::A, rights[0], Phase::L1)
            .unwrap();
        // THE MISTAKE: SC's Y cord on the LEFT breaker.
        b.attach(sc, SupplyIndex::SECOND, FeedId::B, lefts[1], Phase::L1)
            .unwrap();
        b.attach(sd, SupplyIndex::FIRST, FeedId::A, rights[0], Phase::L1)
            .unwrap();
        b.attach(sd, SupplyIndex::SECOND, FeedId::B, rights[1], Phase::L1)
            .unwrap();
        let actual = b.build().unwrap();

        let report = audit_wiring(&declared, &actual, &mut farm);
        assert_eq!(report.mismatches.len(), 1, "{:?}", report.mismatches);
        let m = &report.mismatches[0];
        assert_eq!(m.server, sc);
        assert!(m.missing.contains(&"Y Right CB".to_string()), "{m:?}");
        assert!(m.unexpected.contains(&"Y Left CB".to_string()), "{m:?}");
        assert_eq!(report.verified.len(), 3);
    }

    /// Regression: a declaration that names a server the farm does not
    /// hold used to panic the audit (`expect("probed server exists")`).
    /// It must now skip that server's probe, record a
    /// [`InvariantKind::ProbeIntegrity`] violation, and still audit the
    /// servers that do exist.
    #[test]
    fn declared_but_missing_server_is_skipped_not_panicked() {
        let rig = stranded_rig(RigConfig::table3());
        let declared = rig.topology.clone();
        let sd = rig.server("SD");
        // Rebuild the farm without SD: declared inventory ⊃ racked fleet.
        let mut farm = Farm::new();
        for (id, srv) in rig.farm.iter() {
            if id == sd {
                continue;
            }
            let mut server = capmaestro_server::Server::new(srv.config().clone());
            server.set_offered_demand(srv.offered_demand());
            server.settle();
            farm.insert(id, server);
        }

        let mut tracker = InvariantTracker::new(InvariantConfig::default());
        let report = audit_wiring_tracked(&declared, &declared, &mut farm, &mut tracker);

        assert_eq!(report.verified.len(), 3, "{report:?}");
        assert!(!report.verified.contains(&sd));
        assert!(report.is_clean(), "{:?}", report.mismatches);
        let probe_violations: Vec<_> = tracker
            .violations()
            .iter()
            .filter(|v| v.kind == InvariantKind::ProbeIntegrity)
            .collect();
        assert_eq!(probe_violations.len(), 1, "{:?}", tracker.violations());
        assert!(
            probe_violations[0].detail.contains("absent from the farm"),
            "{}",
            probe_violations[0].detail
        );
    }

    #[test]
    fn probe_restores_server_state() {
        let rig = stranded_rig(RigConfig::table3());
        let declared = rig.topology.clone();
        let mut farm = rig.farm;
        let before: Vec<f64> = farm
            .iter()
            .map(|(_, s)| s.offered_demand().as_f64())
            .collect();
        let _ = audit_wiring(&declared, &declared, &mut farm);
        let after: Vec<f64> = farm
            .iter()
            .map(|(_, s)| s.offered_demand().as_f64())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn healthy_soak_is_clean() {
        let rig = crate::scenarios::priority_rig(RigConfig::table2());
        let mut engine = crate::engine::Engine::new(rig);
        let mut tracker = InvariantTracker::new(InvariantConfig::default());
        engine.run_observed(400, |e| tracker.observe(e));
        assert!(
            tracker.is_clean(),
            "healthy rig must not violate invariants: {:?}",
            tracker.violations()
        );
        assert_eq!(tracker.seconds_observed(), 400);
    }

    /// Two 420 W servers on an uncapped 700 W-rated breaker: a 20 %
    /// sustained overload trips the UL 489 thermal model in ~106 s, and
    /// the tracker must report it (trips are never exempt).
    #[test]
    fn uncapped_overload_is_flagged_as_breaker_trip() {
        let mut engine = crate::engine::Engine::with_config(
            crate::scenarios::overloaded_breaker_rig(),
            crate::engine::EngineConfig {
                control_enabled: false,
                ..Default::default()
            },
        );
        let mut tracker = InvariantTracker::new(InvariantConfig::default());
        engine.run_observed(200, |e| tracker.observe(e));
        assert!(
            tracker
                .violations()
                .iter()
                .any(|v| v.kind == InvariantKind::BreakerTrip),
            "840 W of demand on a 700 W-rated breaker without capping must trip: {:?}",
            tracker.violations()
        );
    }

    /// Swapping priorities mid-run creates a genuine transient inversion:
    /// the promoted server is still physically throttled for the ~3 s the
    /// demoted one takes to shed its old cap headroom. A tracker with a
    /// short sustain window must see it; the default (32 s) window must
    /// ride through it as controller convergence.
    #[test]
    fn priority_swap_transient_is_sustain_gated() {
        use capmaestro_topology::Priority;

        let rig = crate::scenarios::priority_rig(RigConfig::table2());
        let sa = rig.server("SA");
        let sb = rig.server("SB");
        let mut engine = crate::engine::Engine::new(rig);
        engine.schedule(200, crate::engine::Event::SetPriority(sa, Priority::LOW));
        engine.schedule(200, crate::engine::Event::SetPriority(sb, Priority::HIGH));

        let mut strict = InvariantTracker::new(InvariantConfig {
            sustain_s: 2,
            ..Default::default()
        });
        let mut lenient = InvariantTracker::new(InvariantConfig::default());
        engine.run_observed(400, |e| {
            strict.observe(e);
            lenient.observe(e);
        });
        assert!(
            strict
                .violations()
                .iter()
                .any(|v| v.kind == InvariantKind::PriorityInversion),
            "2 s sustain must catch the swap transient: {:?}",
            strict.violations()
        );
        assert!(
            lenient.is_clean(),
            "default sustain must absorb controller convergence: {:?}",
            lenient.violations()
        );
    }

    /// A persistent under-reporting gain (a sensor reading 25 % low) is
    /// exactly the fault server-side screening cannot see: the plane
    /// happily re-budgets the "freed" watts while the feed keeps carrying
    /// the real load. The feed-level metering cross-check must flag it.
    #[test]
    fn under_reporting_gain_is_flagged_by_meter_cross_check() {
        use crate::faults::FaultKind;

        let rig = crate::scenarios::priority_rig(RigConfig::table2());
        let sa = rig.server("SA");
        let mut engine = crate::engine::Engine::new(rig);
        engine.schedule(
            40,
            crate::engine::Event::InjectFault(sa, FaultKind::Spike { factor: 0.75 }),
        );
        let mut tracker = InvariantTracker::new(InvariantConfig::default());
        engine.run_observed(300, |e| tracker.observe(e));
        assert!(
            tracker
                .violations()
                .iter()
                .any(|v| v.kind == InvariantKind::MeterMismatch),
            "a sustained 25 % under-reporting gain must trip the metering \
             cross-check: {:?}",
            tracker.violations()
        );
    }

    /// The cross-check is one-sided: an over-reporting gain (the kind
    /// chaos plans generate) reads as reported > physical and must not
    /// trip it — the degradation ladder already owns that direction.
    #[test]
    fn over_reporting_gain_does_not_trip_meter_cross_check() {
        use crate::faults::FaultKind;

        let rig = crate::scenarios::priority_rig(RigConfig::table2());
        let sa = rig.server("SA");
        let mut engine = crate::engine::Engine::new(rig);
        engine.schedule(
            40,
            crate::engine::Event::InjectFault(sa, FaultKind::Spike { factor: 1.3 }),
        );
        let mut tracker = InvariantTracker::new(InvariantConfig::default());
        engine.run_observed(300, |e| tracker.observe(e));
        assert!(
            !tracker
                .violations()
                .iter()
                .any(|v| v.kind == InvariantKind::MeterMismatch),
            "over-reporting must not read as a meter mismatch: {:?}",
            tracker.violations()
        );
    }

    #[test]
    fn faulted_servers_are_exempt_from_inversion_checks() {
        use crate::faults::FaultKind;

        let rig = crate::scenarios::priority_rig(RigConfig::table2());
        let sa = rig.server("SA");
        let mut engine = crate::engine::Engine::new(rig);
        // Freeze the high-priority server's sensor: the plane over-caps it
        // on frozen data, which would read as an inversion were it not
        // exempt while the fault layer owns it.
        engine.schedule(
            160,
            crate::engine::Event::InjectFault(sa, FaultKind::StuckSensor),
        );
        let mut tracker = InvariantTracker::new(InvariantConfig::default());
        engine.run_observed(600, |e| tracker.observe(e));
        assert!(
            !tracker
                .violations()
                .iter()
                .any(|v| v.kind == InvariantKind::PriorityInversion),
            "faulted server must be exempt: {:?}",
            tracker.violations()
        );
    }

    #[test]
    fn node_loads_match_engine_accounting() {
        let topo = figure7a_rig();
        let rig = stranded_rig(RigConfig::table3());
        let farm = rig.farm;
        let loads = node_loads(&topo, &farm);
        // The X top CB carries the X-side loads of SA, SC, SD.
        let x_root = topo.feed(FeedId::A).unwrap().root().unwrap();
        let x_top = loads[&(FeedId::A, x_root)];
        let expected: f64 = farm
            .iter()
            .map(|(_, s)| {
                let snap = s.sense();
                snap.supply_ac[0].as_f64()
            })
            .sum::<f64>()
            - farm
                .iter()
                .nth(1) // SB is Y-side only
                .map(|(_, s)| s.sense().supply_ac[0].as_f64())
                .unwrap();
        assert!((x_top.as_f64() - expected).abs() < 1e-6);
    }
}

