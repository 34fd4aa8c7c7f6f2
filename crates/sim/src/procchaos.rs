//! Process-level chaos for the distributed control plane.
//!
//! Two pieces, both pure functions of a seed so every participant can
//! compute them independently without coordination:
//!
//! - [`demand_at`] — the per-round offered-demand schedule. Socket agents
//!   apply it to their owned servers when they advance the world, and the
//!   in-process reference deployment applies the *same* schedule to the
//!   shared farm, so the socket-vs-channel differential test can demand
//!   bit-identical budgets.
//! - [`partition_plan`] — a kill/freeze schedule over agent processes for
//!   the `partition` bench. The plan guarantees at most one outstanding
//!   fault per agent, recovery slack between faults, and a quiet tail so
//!   every rack re-converges before the run ends.

use capmaestro_topology::ServerId;
use capmaestro_units::Watts;

/// SplitMix64: the repo's standard cheap seedable mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixes `(seed, server, round)` into one well-distributed word.
fn mix(seed: u64, server: ServerId, round: u64) -> u64 {
    let a = splitmix64(seed ^ 0xd6e8_feb8_6659_fd93);
    let b = splitmix64(a ^ (server.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    splitmix64(b ^ round.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
}

/// Lowest offered demand the schedule ever sets.
pub const DEMAND_FLOOR_W: f64 = 250.0;
/// Highest offered demand the schedule ever sets.
pub const DEMAND_CEIL_W: f64 = 480.0;

/// The seeded demand schedule: what `server` should offer as demand just
/// before the world advances out of `round`, or `None` to leave the
/// previous offer in place (roughly three rounds out of four).
///
/// Pure: agents apply it to the servers they own, the reference
/// deployment applies it to every server, and both sides agree without a
/// message exchanged. Demands are quantized to whole watts so the f64 is
/// exactly representable on both sides.
pub fn demand_at(seed: u64, server: ServerId, round: u64) -> Option<Watts> {
    let word = mix(seed, server, round);
    if !word.is_multiple_of(4) {
        return None;
    }
    let span = (DEMAND_CEIL_W - DEMAND_FLOOR_W) as u64 + 1;
    let watts = DEMAND_FLOOR_W + ((word >> 8) % span) as f64;
    Some(Watts::new(watts))
}

/// One scheduled fault against one agent process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcFault {
    /// SIGKILL the agent at `at_round`, restart it `down_rounds` rounds
    /// later. The controller sees the connection tear, rides the
    /// staleness ladder, and recovers when the restarted agent
    /// reconnects.
    Kill {
        /// Round before which the process is killed.
        at_round: u64,
        /// Rounds the process stays down before the bench restarts it.
        down_rounds: u64,
    },
    /// SIGSTOP the agent at `at_round`, SIGCONT it `frozen_rounds`
    /// rounds later. Unlike a kill the process keeps its socket, so this
    /// exercises the heartbeat-silence path rather than the torn-frame
    /// path.
    Freeze {
        /// Round before which the process is stopped.
        at_round: u64,
        /// Rounds the process stays frozen.
        frozen_rounds: u64,
    },
}

impl ProcFault {
    /// The round the fault fires.
    pub(crate) fn at_round(self) -> u64 {
        match self {
            ProcFault::Kill { at_round, .. } | ProcFault::Freeze { at_round, .. } => at_round,
        }
    }

    /// The last round the agent may still be unavailable.
    pub(crate) fn clears_by(self) -> u64 {
        match self {
            ProcFault::Kill {
                at_round,
                down_rounds,
            } => at_round + down_rounds,
            ProcFault::Freeze {
                at_round,
                frozen_rounds,
            } => at_round + frozen_rounds,
        }
    }
}

/// The full kill/freeze schedule for one chaos run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// `actions[agent]` — that agent's faults, sorted by round,
    /// non-overlapping with recovery slack between them.
    pub actions: Vec<Vec<ProcFault>>,
    /// No fault is outstanding at or after this round: the quiet tail in
    /// which every rack must re-converge to non-fail-safe budgets.
    pub quiet_from: u64,
}

impl PartitionPlan {
    /// Faults scheduled to fire entering `round`, as `(agent, action)`.
    pub fn due(&self, round: u64) -> Vec<(usize, ProcFault)> {
        let mut due = Vec::new();
        for (agent, actions) in self.actions.iter().enumerate() {
            for &a in actions {
                if a.at_round() == round {
                    due.push((agent, a));
                }
            }
        }
        due
    }
}

/// Builds a seeded fault schedule for `agents` agent processes over a run
/// of `rounds` control rounds.
///
/// Guarantees, by construction:
///
/// - every agent suffers at least one fault (runs long enough to fit one);
/// - at most one fault is outstanding per agent at any time, with at
///   least three clear rounds between an agent's faults;
/// - every fault clears before `rounds - quiet_tail`, so the final
///   `quiet_tail` rounds are fault-free recovery time.
///
/// # Panics
///
/// Panics if `agents == 0` or the run is too short to fit a fault and the
/// quiet tail (`rounds <= quiet_tail + 6`).
pub fn partition_plan(seed: u64, agents: usize, rounds: u64, quiet_tail: u64) -> PartitionPlan {
    assert!(agents > 0, "at least one agent is required");
    assert!(
        rounds > quiet_tail + 6,
        "run too short for a fault plus the quiet tail"
    );
    let quiet_from = rounds - quiet_tail;
    let mut actions: Vec<Vec<ProcFault>> = vec![Vec::new(); agents];
    for (agent, slot) in actions.iter_mut().enumerate() {
        // Faults start no earlier than round 2 (let the fleet converge
        // once) and must clear by quiet_from.
        let mut next_free = 2u64;
        let mut k = 0u64;
        loop {
            let word = splitmix64(seed ^ splitmix64((agent as u64) << 32 | k));
            let outage = 2 + (word >> 16) % 3; // 2..=4 rounds down
            let latest_start = match quiet_from.checked_sub(outage + 1) {
                Some(l) if l > next_free => l,
                _ => break,
            };
            let at_round = next_free + (word >> 32) % (latest_start - next_free + 1);
            let action = if word.is_multiple_of(2) {
                ProcFault::Kill {
                    at_round,
                    down_rounds: outage,
                }
            } else {
                ProcFault::Freeze {
                    at_round,
                    frozen_rounds: outage,
                }
            };
            slot.push(action);
            next_free = action.clears_by() + 3;
            k += 1;
            if slot.len() >= 3 {
                break;
            }
        }
        slot.sort_by_key(|a| a.at_round());
    }
    PartitionPlan {
        actions,
        quiet_from,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_schedule_is_pure_and_bounded() {
        let id = ServerId(7);
        let a = demand_at(42, id, 5);
        let b = demand_at(42, id, 5);
        assert_eq!(a, b, "same inputs must give the same answer");
        let mut fired = 0u32;
        for round in 0..400 {
            for s in 0..8 {
                if let Some(w) = demand_at(42, ServerId(s), round) {
                    fired += 1;
                    assert!(w.as_f64() >= DEMAND_FLOOR_W && w.as_f64() <= DEMAND_CEIL_W);
                    assert_eq!(w.as_f64().fract(), 0.0, "whole watts only");
                }
            }
        }
        // ~25% firing rate over 3200 samples; allow a wide band.
        assert!(fired > 400 && fired < 1600, "fired {fired} of 3200");
    }

    #[test]
    fn demand_schedule_varies_by_seed() {
        let mut differs = false;
        for round in 0..50 {
            if demand_at(1, ServerId(0), round) != demand_at(2, ServerId(0), round) {
                differs = true;
                break;
            }
        }
        assert!(differs, "different seeds should give different schedules");
    }

    #[test]
    fn partition_plan_respects_guarantees() {
        for seed in [1u64, 7, 99] {
            let plan = partition_plan(seed, 4, 40, 8);
            assert_eq!(plan.actions.len(), 4);
            assert_eq!(plan.quiet_from, 32);
            for actions in &plan.actions {
                assert!(!actions.is_empty());
                let mut prev_clear: Option<u64> = None;
                for a in actions {
                    assert!(a.at_round() >= 2);
                    assert!(a.clears_by() < plan.quiet_from);
                    if let Some(p) = prev_clear {
                        assert!(a.at_round() >= p + 3, "recovery slack between faults");
                    }
                    prev_clear = Some(a.clears_by());
                }
            }
        }
    }

    #[test]
    fn partition_plan_is_deterministic() {
        assert_eq!(partition_plan(5, 4, 40, 8), partition_plan(5, 4, 40, 8));
        assert_ne!(partition_plan(5, 4, 40, 8), partition_plan(6, 4, 40, 8));
    }

    #[test]
    #[should_panic(expected = "run too short")]
    fn partition_plan_rejects_short_runs() {
        let _ = partition_plan(1, 2, 10, 8);
    }
}
