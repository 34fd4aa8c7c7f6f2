//! Telemetry fault injection: corrupting what the control plane *sees*.
//!
//! CapMaestro's safety argument (paper §4.2–§4.3) assumes the control
//! plane reacts correctly when sensing misbehaves: IPMI reads get dropped,
//! sensors stick or go noisy, whole telemetry feeds flap. This module
//! provides a [`FaultLayer`] that the simulation engine routes every
//! sensor reading through before delivering it to the control plane.
//!
//! Two ways to drive it:
//!
//! - **Scripted**: the engine's `Event::InjectFault` / `Event::ClearFault`
//!   / `Event::FlapTelemetry` / `Event::StopFlap` variants schedule faults
//!   at exact simulation seconds, for targeted scenario tests.
//! - **Seeded**: a [`ChaosPlan`] generates a randomized (but fully
//!   deterministic per seed) schedule of fault episodes for soak runs.
//!
//! The physics is never touched: a fault corrupts the readings, not the
//! wires. A server under `DropReading` keeps drawing real power — the
//! control plane just stops hearing about it, and must degrade to its
//! fail-safe cap rather than trip a breaker.

use std::collections::BTreeMap;

use capmaestro_server::SensorSnapshot;
use capmaestro_topology::{FeedId, ServerId};
use capmaestro_units::Watts;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A telemetry fault injectable on one server's sense path.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Readings are never delivered — the silent-sensor fault.
    DropReading,
    /// The first reading taken after injection is captured and redelivered
    /// unchanged every second — the frozen-sensor fault. The control plane
    /// sees perfectly plausible, perfectly stale data.
    StuckSensor,
    /// Seeded Gaussian noise of standard deviation `sigma_w` watts is
    /// added to every reading (per-supply values scaled consistently).
    NoisySensor {
        /// Noise standard deviation in watts.
        sigma_w: f64,
    },
    /// Every reading has all power fields multiplied by `factor` — the
    /// transient gain fault. Factors beyond the estimator's plausibility
    /// band degrade like silence; smaller ones test the spike filter.
    Spike {
        /// Multiplicative gain applied to every power field.
        factor: f64,
    },
}

/// Timing of a flapping telemetry feed: readings from every server on the
/// feed are delivered for `up_s` seconds, then dropped for `down_s`
/// seconds, cycling until stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapSpec {
    /// Seconds per delivered phase.
    pub up_s: u64,
    /// Seconds per dropped phase.
    pub down_s: u64,
}

#[derive(Debug)]
struct Flap {
    spec: FlapSpec,
    members: Vec<ServerId>,
    /// Simulation second the current phase began.
    since_s: u64,
    up: bool,
}

/// The fault-injecting sense path: holds the set of active per-server
/// faults and flapping feeds, and corrupts readings
/// accordingly. Deterministic per seed — two layers constructed with the
/// same seed and driven identically corrupt identically.
#[derive(Debug)]
pub struct FaultLayer {
    rng: StdRng,
    faults: BTreeMap<ServerId, FaultKind>,
    /// Captured reading per stuck sensor.
    stuck: BTreeMap<ServerId, SensorSnapshot>,
    flaps: BTreeMap<FeedId, Flap>,
    injected_total: u64,
}

impl FaultLayer {
    /// Creates an empty (all-pass) fault layer with a noise seed.
    pub fn new(seed: u64) -> Self {
        FaultLayer {
            rng: StdRng::seed_from_u64(seed),
            faults: BTreeMap::new(),
            stuck: BTreeMap::new(),
            flaps: BTreeMap::new(),
            injected_total: 0,
        }
    }

    /// Injects (or replaces) a fault on one server's sense path.
    pub(crate) fn inject(&mut self, server: ServerId, kind: FaultKind) {
        // Re-injection re-arms a stuck sensor: it freezes the *next*
        // reading, not one captured during a previous episode.
        self.stuck.remove(&server);
        self.faults.insert(server, kind);
        self.injected_total += 1;
    }

    /// Clears any fault on one server. Readings flow clean again.
    pub fn clear(&mut self, server: ServerId) {
        self.faults.remove(&server);
        self.stuck.remove(&server);
    }

    /// Starts a flapping telemetry feed covering `members` (the servers
    /// whose readings travel over it), beginning in the delivered phase at
    /// `now_s`. Restarting an already-flapping feed resets its cycle.
    pub(crate) fn start_flap(
        &mut self,
        feed: FeedId,
        members: Vec<ServerId>,
        spec: FlapSpec,
        now_s: u64,
    ) {
        assert!(
            spec.up_s > 0 && spec.down_s > 0,
            "flap phases must each last at least one second"
        );
        self.flaps.insert(
            feed,
            Flap {
                spec,
                members,
                since_s: now_s,
                up: true,
            },
        );
        self.injected_total += 1;
    }

    /// Stops a flapping feed; its members' readings flow clean again.
    pub(crate) fn stop_flap(&mut self, feed: FeedId) {
        self.flaps.remove(&feed);
    }

    /// Advances flap phase machines to simulation second `now_s`. Call
    /// once per simulated second, before interception.
    pub fn tick(&mut self, now_s: u64) {
        for flap in self.flaps.values_mut() {
            let phase_len = if flap.up {
                flap.spec.up_s
            } else {
                flap.spec.down_s
            };
            if now_s.saturating_sub(flap.since_s) >= phase_len {
                flap.up = !flap.up;
                flap.since_s = now_s;
            }
        }
    }

    /// Whether the layer is currently a guaranteed no-op (no faults, no
    /// flaps). Lets the engine skip interception entirely on the healthy
    /// path.
    pub(crate) fn is_quiet(&self) -> bool {
        self.faults.is_empty() && self.flaps.is_empty()
    }

    /// Every server whose telemetry is currently subject to a fault: the
    /// per-server fault targets plus all members of flapping feeds
    /// (regardless of the flap's current phase). This is the exempt set
    /// for invariant auditing — a server being lied about cannot be held
    /// to healthy-path guarantees.
    pub(crate) fn affected_servers(&self) -> Vec<ServerId> {
        let mut ids: Vec<ServerId> = self.faults.keys().copied().collect();
        for flap in self.flaps.values() {
            ids.extend(flap.members.iter().copied());
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Total fault injections (per-server faults + flap starts) so far.
    pub fn injected_total(&self) -> u64 {
        self.injected_total
    }

    /// Filters one sensor reading of `server`: the reading unchanged, a
    /// corrupted copy, or `None` for a dropped reading (the control plane
    /// hears nothing from the server this second).
    pub fn intercept(&mut self, server: ServerId, raw: SensorSnapshot) -> Option<SensorSnapshot> {
        // A flapping feed in its dropped phase silences every member,
        // taking precedence over per-server faults.
        for flap in self.flaps.values() {
            if !flap.up && flap.members.contains(&server) {
                return None;
            }
        }
        match self.faults.get(&server) {
            None => Some(raw),
            Some(FaultKind::DropReading) => None,
            Some(FaultKind::StuckSensor) => {
                Some(self.stuck.entry(server).or_insert(raw).clone())
            }
            Some(FaultKind::NoisySensor { sigma_w }) => {
                let delta = standard_normal(&mut self.rng) * sigma_w;
                Some(raw.offset(Watts::new(delta)))
            }
            Some(FaultKind::Spike { factor }) => Some(raw.scaled(*factor)),
        }
    }
}

/// One standard-normal draw via Box–Muller (the vendored `rand` has no
/// distributions module).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Largest Gaussian σ a generated `NoisySensor` episode may carry, watts.
const SIGMA_MAX_W: f64 = 60.0;
/// Largest gain a generated `Spike` episode may carry (drawn from
/// `[1.2, SPIKE_MAX_FACTOR]`). Generated plans only over-report: a
/// persistent *under*-reporting gain is indistinguishable from a genuinely
/// lighter load at the server-sensor level, so the controller uncaps the
/// server and physical power can exceed the feed budget — defending
/// against it needs feed-level metering (a §7 open problem), not
/// server-side screening. Targeted tests can still construct
/// `FaultKind::Spike { factor: <1.0 }` directly.
const SPIKE_MAX_FACTOR: f64 = 3.0;
/// Fraction of generated episodes that flap a whole telemetry feed instead
/// of faulting one server.
const FLAP_FRACTION: f64 = 0.2;

/// Knobs of [`ChaosPlan::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Total soak length in simulation seconds.
    pub seconds: u64,
    /// Fault episodes to schedule.
    pub episodes: usize,
    /// Shortest episode, seconds.
    pub min_duration_s: u64,
    /// Longest episode, seconds.
    pub max_duration_s: u64,
    /// No episode starts before this second — the rig settles to its
    /// healthy steady state first, giving recovery checks a baseline.
    pub settle_s: u64,
    /// No episode is active after `seconds − quiesce_s` — the tail of the
    /// soak is fault-free so recovery-to-baseline can be asserted.
    pub quiesce_s: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seconds: 4000,
            episodes: 24,
            min_duration_s: 24,
            max_duration_s: 240,
            settle_s: 120,
            quiesce_s: 400,
        }
    }
}

/// One scheduled fault episode: a fault held on a target over a window.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// Second the fault is injected.
    pub start_s: u64,
    /// Second the fault is cleared.
    pub end_s: u64,
    /// What happens to whom.
    pub action: ChaosAction,
}

/// The target+kind of one episode.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosAction {
    /// A per-server telemetry fault.
    Fault(ServerId, FaultKind),
    /// A whole telemetry feed flapping.
    Flap(FeedId, FlapSpec),
}

/// A seeded, deterministic schedule of fault episodes for a soak run.
///
/// # Examples
///
/// ```
/// use capmaestro_sim::faults::{ChaosConfig, ChaosPlan};
/// use capmaestro_topology::{FeedId, ServerId};
///
/// let servers: Vec<ServerId> = (0..8).map(ServerId).collect();
/// let a = ChaosPlan::generate(&ChaosConfig::default(), &servers, &[FeedId::A], 7);
/// let b = ChaosPlan::generate(&ChaosConfig::default(), &servers, &[FeedId::A], 7);
/// assert_eq!(a.episodes(), b.episodes());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    episodes: Vec<Episode>,
}

impl ChaosPlan {
    /// An empty plan: scheduling it is a guaranteed no-op.
    pub fn empty() -> Self {
        ChaosPlan {
            episodes: Vec::new(),
        }
    }

    /// Generates a plan over `servers` and `feeds`, deterministic per
    /// `seed`. Episode onsets land in `[settle_s, seconds − quiesce_s −
    /// duration)`; targets, kinds, and parameters are drawn uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty or the config leaves no room between
    /// settle and quiesce for the longest episode.
    pub fn generate(
        config: &ChaosConfig,
        servers: &[ServerId],
        feeds: &[FeedId],
        seed: u64,
    ) -> Self {
        assert!(!servers.is_empty(), "chaos needs at least one server");
        assert!(
            config.min_duration_s > 0 && config.min_duration_s <= config.max_duration_s,
            "episode durations must be positive and ordered"
        );
        let window_end = config
            .seconds
            .saturating_sub(config.quiesce_s)
            .saturating_sub(config.max_duration_s);
        assert!(
            window_end > config.settle_s,
            "no room for episodes between settle ({} s) and quiesce",
            config.settle_s
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut episodes = Vec::with_capacity(config.episodes);
        for _ in 0..config.episodes {
            let start_s = rng.random_range(config.settle_s..window_end);
            let duration =
                rng.random_range(config.min_duration_s..=config.max_duration_s);
            let flap = !feeds.is_empty() && rng.random::<f64>() < FLAP_FRACTION;
            let action = if flap {
                let feed = feeds[rng.random_range(0..feeds.len())];
                let up_s = rng.random_range(4u64..=16);
                let down_s = rng.random_range(4u64..=16);
                ChaosAction::Flap(feed, FlapSpec { up_s, down_s })
            } else {
                let server = servers[rng.random_range(0..servers.len())];
                let kind = match rng.random_range(0u32..4) {
                    0 => FaultKind::DropReading,
                    1 => FaultKind::StuckSensor,
                    2 => FaultKind::NoisySensor {
                        sigma_w: rng.random_range(5.0..SIGMA_MAX_W),
                    },
                    _ => FaultKind::Spike {
                        factor: rng.random_range(1.2..SPIKE_MAX_FACTOR),
                    },
                };
                ChaosAction::Fault(server, kind)
            };
            episodes.push(Episode {
                start_s,
                end_s: start_s + duration,
                action,
            });
        }
        episodes.sort_by_key(|e| (e.start_s, e.end_s));
        ChaosPlan { episodes }
    }

    /// The scheduled episodes, by onset.
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// The last second at which any episode is still active (0 for an
    /// empty plan). After this the world should converge back to its
    /// pre-fault state.
    pub fn last_fault_end_s(&self) -> u64 {
        self.episodes.iter().map(|e| e.end_s).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capmaestro_server::{Server, ServerConfig};

    fn snapshot(power: f64) -> SensorSnapshot {
        let mut server = Server::new(ServerConfig::paper_default());
        server.set_offered_demand(Watts::new(power));
        server.settle();
        server.sense()
    }

    #[test]
    fn empty_layer_is_identity() {
        let mut layer = FaultLayer::new(1);
        assert!(layer.is_quiet());
        let raw = snapshot(420.0);
        assert_eq!(layer.intercept(ServerId(0), raw.clone()), Some(raw));
    }

    #[test]
    fn drop_reading_silences_only_its_target() {
        let mut layer = FaultLayer::new(1);
        layer.inject(ServerId(0), FaultKind::DropReading);
        let raw = snapshot(420.0);
        assert_eq!(layer.intercept(ServerId(0), raw.clone()), None);
        assert_eq!(layer.intercept(ServerId(1), raw.clone()), Some(raw.clone()));
        layer.clear(ServerId(0));
        assert_eq!(layer.intercept(ServerId(0), raw.clone()), Some(raw));
        assert!(layer.is_quiet());
    }

    #[test]
    fn stuck_sensor_freezes_first_reading_after_injection() {
        let mut layer = FaultLayer::new(1);
        layer.inject(ServerId(0), FaultKind::StuckSensor);
        let first = snapshot(420.0);
        let later = snapshot(300.0);
        assert_eq!(
            layer.intercept(ServerId(0), first.clone()),
            Some(first.clone())
        );
        // The world moved on; the delivered reading did not.
        assert_eq!(
            layer.intercept(ServerId(0), later.clone()),
            Some(first.clone())
        );
        // Re-injection re-arms: the next reading becomes the new freeze.
        layer.inject(ServerId(0), FaultKind::StuckSensor);
        assert_eq!(layer.intercept(ServerId(0), later.clone()), Some(later));
    }

    #[test]
    fn noise_is_seed_deterministic_and_zero_mean() {
        let raw = snapshot(420.0);
        let mut a = FaultLayer::new(42);
        let mut b = FaultLayer::new(42);
        a.inject(ServerId(0), FaultKind::NoisySensor { sigma_w: 25.0 });
        b.inject(ServerId(0), FaultKind::NoisySensor { sigma_w: 25.0 });
        let mut sum = 0.0;
        for _ in 0..2000 {
            let x = a.intercept(ServerId(0), raw.clone()).unwrap();
            let y = b.intercept(ServerId(0), raw.clone()).unwrap();
            assert_eq!(x, y, "same seed must corrupt identically");
            sum += x.total_ac.as_f64() - raw.total_ac.as_f64();
        }
        let mean = sum / 2000.0;
        assert!(mean.abs() < 2.5, "noise mean {mean} should be near zero");
    }

    #[test]
    fn spike_scales_and_flap_cycles() {
        let mut layer = FaultLayer::new(1);
        layer.inject(ServerId(0), FaultKind::Spike { factor: 2.0 });
        let raw = snapshot(420.0);
        let out = layer.intercept(ServerId(0), raw.clone()).unwrap();
        assert!((out.total_ac.as_f64() - 2.0 * raw.total_ac.as_f64()).abs() < 1e-9);

        layer.clear(ServerId(0));
        layer.start_flap(
            FeedId::A,
            vec![ServerId(0), ServerId(1)],
            FlapSpec { up_s: 2, down_s: 3 },
            0,
        );
        let mut delivered = Vec::new();
        for t in 0..10 {
            layer.tick(t);
            delivered.push(layer.intercept(ServerId(0), raw.clone()).is_some());
            // A non-member is untouched.
            assert!(layer.intercept(ServerId(7), raw.clone()).is_some());
        }
        // 2 s up, 3 s down, cycling.
        assert_eq!(
            delivered,
            vec![true, true, false, false, false, true, true, false, false, false]
        );
        layer.stop_flap(FeedId::A);
        assert!(layer.is_quiet());
    }

    #[test]
    fn affected_servers_unions_faults_and_flaps() {
        let mut layer = FaultLayer::new(1);
        layer.inject(ServerId(3), FaultKind::DropReading);
        layer.start_flap(
            FeedId::B,
            vec![ServerId(1), ServerId(3)],
            FlapSpec { up_s: 5, down_s: 5 },
            0,
        );
        assert_eq!(layer.affected_servers(), vec![ServerId(1), ServerId(3)]);
        assert_eq!(layer.injected_total(), 2);
    }

    #[test]
    fn chaos_plan_is_deterministic_and_windowed() {
        let servers: Vec<ServerId> = (0..20).map(ServerId).collect();
        let feeds = [FeedId::A, FeedId::B];
        let config = ChaosConfig::default();
        let a = ChaosPlan::generate(&config, &servers, &feeds, 7);
        let b = ChaosPlan::generate(&config, &servers, &feeds, 7);
        assert_eq!(a, b);
        let c = ChaosPlan::generate(&config, &servers, &feeds, 8);
        assert_ne!(a, c, "different seeds must give different plans");
        assert_eq!(a.episodes().len(), config.episodes);
        for e in a.episodes() {
            assert!(e.start_s >= config.settle_s);
            assert!(e.end_s <= config.seconds - config.quiesce_s);
            assert!(e.end_s > e.start_s);
        }
        assert!(a.last_fault_end_s() <= config.seconds - config.quiesce_s);
        assert_eq!(ChaosPlan::empty().last_fault_end_s(), 0);
    }
}
