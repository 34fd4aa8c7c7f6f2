//! Job-scheduler integration: dynamic priorities and demands from a job
//! timeline (paper §7, "Coordination of Job Scheduling with Power
//! Management").
//!
//! A [`JobSchedule`] assigns [`Job`]s — each with a priority, a CPU
//! utilization, and a lifetime — to servers, then compiles into engine
//! [`Event`]s: at every arrival and departure the affected server's
//! offered demand is recomputed from its active jobs and its priority is
//! re-declared to the control plane as the maximum of its active jobs'
//! priorities. That is exactly the "dynamic priorities … communicated to
//! the power management algorithm quickly, allowing for proactive power
//! budgeting" the paper calls for.

use std::collections::HashMap;

use capmaestro_server::ServerPowerModel;
use capmaestro_topology::{Priority, ServerId};
use capmaestro_units::Ratio;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::engine::Event;

/// One job: a priority, a CPU share, and a lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Display name.
    pub name: String,
    /// The job's priority (drives its host's effective priority).
    pub priority: Priority,
    /// CPU utilization the job contributes to its host (fraction).
    pub utilization: f64,
    /// Arrival time (simulation seconds).
    pub start_s: u64,
    /// Departure time (exclusive).
    pub end_s: u64,
}

impl Job {
    /// Creates a job.
    ///
    /// # Panics
    ///
    /// Panics unless `utilization ∈ [0, 1]` and `end_s > start_s`.
    pub fn new(
        name: impl Into<String>,
        priority: Priority,
        utilization: f64,
        start_s: u64,
        end_s: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "job utilization must be a fraction, got {utilization}"
        );
        assert!(end_s > start_s, "job must end after it starts");
        Job {
            name: name.into(),
            priority,
            utilization,
            start_s,
            end_s,
        }
    }

    /// Whether the job runs at time `t`.
    pub(crate) fn active_at(&self, t: u64) -> bool {
        (self.start_s..self.end_s).contains(&t)
    }
}

/// Jobs placed onto servers, compilable into engine events.
#[derive(Debug, Clone, Default)]
pub struct JobSchedule {
    assignments: Vec<(ServerId, Job)>,
}

impl JobSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        JobSchedule::default()
    }

    /// Places a job on a server.
    pub fn assign(&mut self, server: ServerId, job: Job) -> &mut Self {
        self.assignments.push((server, job));
        self
    }

    /// All assignments.
    pub fn assignments(&self) -> &[(ServerId, Job)] {
        &self.assignments
    }

    /// Number of placed jobs.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Generates a random schedule: `count` jobs over `servers`, arrivals
    /// uniform in `[0, horizon_s)`, durations uniform in
    /// `[min_duration_s, horizon_s / 2]`, utilization in `[0.2, 1.0]`,
    /// priorities drawn from `{0, 1, 2}` with high levels rarer.
    pub fn generate(
        servers: &[ServerId],
        count: usize,
        horizon_s: u64,
        seed: u64,
    ) -> Self {
        assert!(!servers.is_empty(), "need at least one server");
        assert!(horizon_s >= 8, "horizon too short for jobs");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = JobSchedule::new();
        for i in 0..count {
            let server = servers[rng.random_range(0..servers.len())];
            let start = rng.random_range(0..horizon_s.saturating_sub(8).max(1));
            let duration = rng.random_range(8..=(horizon_s / 2).max(9));
            let utilization = 0.2 + 0.8 * rng.random::<f64>();
            let priority = match rng.random_range(0..10u32) {
                0..=5 => Priority(0),
                6..=8 => Priority(1),
                _ => Priority(2),
            };
            schedule.assign(
                server,
                Job::new(
                    format!("job{i}"),
                    priority,
                    utilization,
                    start,
                    (start + duration).min(horizon_s),
                ),
            );
        }
        schedule
    }

    /// The utilization and effective priority of a server at time `t`
    /// (sum of active jobs' utilization clamped to 1; maximum priority,
    /// `Priority::LOW` when idle).
    pub(crate) fn server_state_at(&self, server: ServerId, t: u64) -> (f64, Priority) {
        let mut utilization = 0.0;
        let mut priority = Priority::LOW;
        for (s, job) in &self.assignments {
            if *s == server && job.active_at(t) {
                utilization += job.utilization;
                priority = priority.max(job.priority);
            }
        }
        (utilization.min(1.0), priority)
    }

    /// Compiles the schedule into engine events: one `SetDemand` +
    /// `SetPriority` pair per server per arrival/departure edge, with the
    /// demand derived from the power model.
    pub fn compile(&self, model: ServerPowerModel) -> Vec<(u64, Event)> {
        // Collect each server's edge times.
        let mut edges: HashMap<ServerId, Vec<u64>> = HashMap::new();
        for (server, job) in &self.assignments {
            let entry = edges.entry(*server).or_default();
            entry.push(job.start_s);
            entry.push(job.end_s);
        }
        let mut events = Vec::new();
        for (server, mut times) in edges {
            times.sort_unstable();
            times.dedup();
            for t in times {
                let (utilization, priority) = self.server_state_at(server, t);
                let demand = model.power_at_utilization(Ratio::new(utilization));
                events.push((t, Event::SetDemand(server, demand)));
                events.push((t, Event::SetPriority(server, priority)));
            }
        }
        events.sort_by_key(|(t, _)| *t);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Trace};
    use crate::scenarios::{priority_rig, RigConfig};
    use capmaestro_units::Watts;

    #[test]
    fn job_lifetime() {
        let job = Job::new("j", Priority(1), 0.5, 10, 20);
        assert!(!job.active_at(9));
        assert!(job.active_at(10));
        assert!(job.active_at(19));
        assert!(!job.active_at(20));
    }

    #[test]
    #[should_panic(expected = "must end after")]
    fn empty_lifetime_rejected() {
        let _ = Job::new("j", Priority(0), 0.5, 10, 10);
    }

    #[test]
    fn server_state_accumulates_and_clamps() {
        let mut schedule = JobSchedule::new();
        let s = ServerId(0);
        schedule.assign(s, Job::new("a", Priority(0), 0.7, 0, 100));
        schedule.assign(s, Job::new("b", Priority(2), 0.6, 50, 100));
        let (u0, p0) = schedule.server_state_at(s, 10);
        assert_eq!((u0, p0), (0.7, Priority(0)));
        let (u1, p1) = schedule.server_state_at(s, 60);
        assert_eq!(u1, 1.0); // 0.7 + 0.6 clamped
        assert_eq!(p1, Priority(2));
        let (u2, p2) = schedule.server_state_at(s, 100);
        assert_eq!((u2, p2), (0.0, Priority::LOW));
    }

    #[test]
    fn compile_emits_paired_edges_in_order() {
        let mut schedule = JobSchedule::new();
        schedule.assign(ServerId(0), Job::new("a", Priority(1), 0.8, 30, 90));
        let events = schedule.compile(ServerPowerModel::paper_default());
        assert_eq!(events.len(), 4); // 2 edges × (demand + priority)
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        // At the arrival the demand rises above idle; at departure it
        // returns to idle.
        let Event::SetDemand(_, d0) = &events[0].1 else {
            panic!("expected SetDemand first")
        };
        assert!(*d0 > Watts::new(160.0));
        let Event::SetDemand(_, d1) = &events[2].1 else {
            panic!("expected SetDemand at departure")
        };
        assert_eq!(*d1, Watts::new(160.0));
    }

    #[test]
    fn generated_schedules_are_deterministic_and_valid() {
        let servers: Vec<ServerId> = (0..10).map(ServerId).collect();
        let a = JobSchedule::generate(&servers, 50, 600, 7);
        let b = JobSchedule::generate(&servers, 50, 600, 7);
        assert_eq!(a.assignments(), b.assignments());
        assert_eq!(a.len(), 50);
        for (_, job) in a.assignments() {
            assert!(job.end_s > job.start_s);
            assert!(job.end_s <= 600);
            assert!((0.0..=1.0).contains(&job.utilization));
        }
    }

    /// End to end: a high-priority job arriving on a capped low-priority
    /// server promotes it; the plane re-budgets within a control period;
    /// the job's departure demotes it again.
    #[test]
    fn job_arrival_promotes_and_departure_demotes() {
        let rig = priority_rig(RigConfig::table2());
        let sb = rig.server("SB");
        let mut engine = Engine::new(rig);
        let mut schedule = JobSchedule::new();
        // A P2 job (above SA's P1) occupying SB fully from t=80 to t=200.
        schedule.assign(sb, Job::new("urgent", Priority(2), 1.0, 80, 200));
        for (t, event) in schedule.compile(ServerPowerModel::paper_default()) {
            engine.schedule(t, event);
        }
        let trace = engine.run(320);
        let sb_power = &trace.server_power[&sb];
        // Before the job: capped near Pcap_min.
        assert!(Trace::tail_mean(&sb_power[..80], 10) < 300.0);
        // During: promoted to the top, gets (nearly) full demand.
        assert!(
            Trace::tail_mean(&sb_power[..200], 20) > 430.0,
            "promoted SB at {}",
            Trace::tail_mean(&sb_power[..200], 20)
        );
        // After departure: back to idle power (the job was its demand).
        assert!(
            Trace::tail_mean(sb_power, 10) < 200.0,
            "departed SB at {}",
            Trace::tail_mean(sb_power, 10)
        );
    }
}
