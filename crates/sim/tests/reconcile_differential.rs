//! Differential tests for desired-state reconciliation against the
//! operator event log.
//!
//! Two contracts from DESIGN.md "Operator API & reconciliation":
//!
//! - **Restart is replay.** A daemon that crashes and reopens its
//!   persisted log must reconstruct the declared state bit-identically
//!   and converge a fresh engine onto exactly the plane a continuous run
//!   reached — budgets by `to_bits`, priorities, power states, and the
//!   allocator all equal.
//! - **Chaos converges.** A live plane diverged out from under the
//!   reconciler (budgets restaged, priorities flipped, servers powered
//!   off behind its back) must be driven back onto the declared state
//!   within three round boundaries, with zero invariant violations
//!   recorded along the way.
//!
//! The loop here mirrors `capmaestro-serve`'s `drive_second` exactly —
//! fold the log, plan, apply, step — without the HTTP layer, so the
//! convergence property is pinned at the engine seam it rests on.

use capmaestro_core::oplog::{plan, DesiredState, Op, OpLog, ReconcilePlan};
use capmaestro_core::AllocatorKind;
use capmaestro_sim::audit::{InvariantConfig, InvariantTracker};
use capmaestro_sim::scenarios::{priority_rig, RigConfig};
use capmaestro_sim::Engine;
use capmaestro_topology::{Priority, ServerId};
use capmaestro_units::Watts;

/// A scratch file path unique to this test invocation; removed on drop.
struct ScratchFile(std::path::PathBuf);

impl ScratchFile {
    fn new(label: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "capmaestro-reconcile-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        ScratchFile(path)
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One simulated second of the daemon loop: reconcile at round
/// boundaries (fold new events, diff, apply), then step.
fn drive_second_reconciled(
    engine: &mut Engine,
    log: &OpLog,
    desired: &mut DesiredState,
    tracker: Option<&mut InvariantTracker>,
) {
    if engine.now_s().is_multiple_of(engine.control_period_s()) {
        for envelope in log.since(desired.seq) {
            desired.apply(envelope);
        }
        if desired.seq != 0 {
            let step = plan(desired, engine.plane(), engine.farm());
            engine.apply_reconcile_plan(&step);
        }
    }
    engine.step();
    if let Some(tracker) = tracker {
        tracker.observe(engine);
    }
}

/// The full operator-visible plane state, watts as bit patterns.
#[derive(Debug, PartialEq, Eq)]
struct PlaneFingerprint {
    root_budget_bits: Vec<u64>,
    priorities: Vec<(ServerId, Option<Priority>)>,
    powered: Vec<(ServerId, bool)>,
    allocator: AllocatorKind,
}

fn fingerprint(engine: &Engine) -> PlaneFingerprint {
    let ids = engine.farm().ids().to_vec();
    PlaneFingerprint {
        root_budget_bits: engine
            .plane()
            .root_budgets_now()
            .iter()
            .map(|w| w.as_f64().to_bits())
            .collect(),
        priorities: ids
            .iter()
            .map(|&id| (id, engine.plane().effective_priority(id)))
            .collect(),
        powered: ids
            .iter()
            .map(|&id| (id, engine.farm().get(id).expect("farm server").is_powered()))
            .collect(),
        allocator: engine.plane().config().allocator,
    }
}

/// The seeded operator session both tests declare: a tighter root
/// budget, a priority band over the right breaker (arena node 2 covers
/// SC and SD), a drain on SD, and an allocator switch.
fn declare_session(log: &mut OpLog, sd: ServerId) {
    log.append(0, Some("budget-1"), Op::SetTreeBudget { tree: 0, watts: Watts::new(1180.0) })
        .expect("append budget");
    log.append(
        0,
        Some("band-right"),
        Op::SetGroupPriority { tree: 0, node: 2, priority: Priority::HIGH },
    )
    .expect("append band");
    log.append(1, Some("drain-sd"), Op::SetServerEnabled { server: sd, enabled: false })
        .expect("append drain");
    log.append(1, Some("alloc"), Op::SetAllocator(AllocatorKind::Waterfilling))
        .expect("append allocator");
}

#[test]
fn restart_replays_the_persisted_log_onto_a_bit_identical_plane() {
    let scratch = ScratchFile::new("restart");
    let rig = || priority_rig(RigConfig::table2());
    let sd = {
        let probe = Engine::new(rig());
        probe.farm().ids()[3]
    };

    // First life: a daemon appends the session and runs three rounds.
    let continuous_fingerprint = {
        let (mut log, _) = OpLog::open(&scratch.0).expect("create log");
        declare_session(&mut log, sd);
        let mut engine = Engine::new(rig());
        let mut desired = DesiredState::default();
        for _ in 0..17 {
            drive_second_reconciled(&mut engine, &log, &mut desired, None);
        }
        fingerprint(&engine)
    };

    // Restart: reopen the log from disk, replay, drive a fresh engine
    // the same seventeen seconds.
    let (log, recovery) = OpLog::open(&scratch.0).expect("reopen log");
    assert!(!recovery.truncated, "a clean shutdown leaves a clean log");
    assert_eq!(recovery.recovered, 4);

    // The declared-state fold itself reconstructs bit-identically.
    let replayed = DesiredState::replay(log.events());
    assert_eq!(replayed.seq, 4);
    assert_eq!(
        replayed.tree_budgets.get(&0).map(|w| w.as_f64().to_bits()),
        Some(1180.0f64.to_bits()),
        "replayed budget must be bit-identical"
    );
    assert_eq!(replayed.group_priorities.get(&(0, 2)), Some(&Some(Priority::HIGH)));
    assert_eq!(replayed.server_enabled.get(&sd), Some(&false));
    assert_eq!(replayed.allocator, Some(AllocatorKind::Waterfilling));

    let mut engine = Engine::new(rig());
    let mut desired = DesiredState::default();
    for _ in 0..17 {
        drive_second_reconciled(&mut engine, &log, &mut desired, None);
    }
    assert_eq!(
        fingerprint(&engine),
        continuous_fingerprint,
        "the restarted plane must match the continuous one bit for bit"
    );
}

#[test]
fn chaos_divergence_converges_within_three_round_boundaries_without_violations() {
    let mut log = OpLog::in_memory();
    let mut engine = Engine::new(priority_rig(RigConfig::table2()));
    let ids = engine.farm().ids().to_vec();
    let (sc, sd) = (ids[2], ids[3]);
    declare_session(&mut log, sd);
    // Keep SD in service for this test: the declared state says powered.
    log.append(2, None, Op::SetServerEnabled { server: sd, enabled: true })
        .expect("append undrain");

    let mut desired = DesiredState::default();
    let mut tracker = InvariantTracker::new(InvariantConfig::default());

    // Converge onto the declared session first (rounds at t=0 and t=8).
    for _ in 0..9 {
        drive_second_reconciled(&mut engine, &log, &mut desired, Some(&mut tracker));
    }
    let declared = fingerprint(&engine);
    assert_eq!(declared.root_budget_bits, vec![1180.0f64.to_bits()]);
    assert_eq!(declared.allocator, AllocatorKind::Waterfilling);

    // Chaos: diverge every reconciled surface behind the loop's back.
    engine.apply_reconcile_plan(&ReconcilePlan {
        root_budgets: Some(vec![Watts::new(900.0)]), // lands inside the t=16 round
        power: vec![(sd, false)],                    // someone pulled the plug
        priorities: vec![(sc, Some(Priority::LOW))], // band overridden
        allocator: Some(AllocatorKind::FairShare),
    });

    // Three round boundaries: t=16, t=24, t=32.
    for boundary in 0..3 {
        for _ in 0..8 {
            drive_second_reconciled(&mut engine, &log, &mut desired, Some(&mut tracker));
        }
        if fingerprint(&engine) == declared {
            break;
        }
        assert!(
            boundary < 2,
            "still diverged after three boundaries: {:?} vs {declared:?}",
            fingerprint(&engine)
        );
    }
    assert_eq!(
        fingerprint(&engine),
        declared,
        "the reconciler must converge the chaos away"
    );
    assert!(
        tracker.violations().is_empty(),
        "convergence must not trip invariants: {:?}",
        tracker.violations()
    );

    // And the loop is quiescent afterwards: nothing left to apply.
    let settled = plan(&desired, engine.plane(), engine.farm());
    assert!(
        settled.is_empty(),
        "a converged plane yields an empty plan: {settled:?}"
    );
}
