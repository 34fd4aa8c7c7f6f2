//! The trace export end to end: a `TraceRecorder` attached to the
//! Fig. 2 rig produces a Perfetto JSON timeline, validated by the strict
//! in-tree parser — or, with `--check FILE`, validate a trace somebody
//! else produced (the mode ci.sh pipes a live `/v1/trace` download
//! through).
//!
//! ```text
//! cargo run --release --example trace_check              # self-generate + validate
//! cargo run --release --example trace_check -- --check FILE
//! cargo run --release --example trace_check -- --out trace.json
//! ```
//!
//! A trace passes only if it parses under the strict validator (known
//! event kinds, monotonic timestamps, finite counter values), contains
//! slices for all six round phases, and carries at least four distinct
//! counter tracks. Exits nonzero
//! otherwise. `--out` writes the generated trace for loading into
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use std::process::ExitCode;
use std::sync::Arc;

use capmaestro::core::obs::trace::{self, TraceRecorder};
use capmaestro::core::obs::RoundPhase;
use capmaestro::sim::engine::Engine;
use capmaestro::sim::scenarios::{priority_rig, RigConfig};

/// Simulated seconds for the self-generated trace: 20 control rounds at
/// the paper's 8 s period.
const SECONDS: u64 = 160;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };

    let text = if let Some(path) = flag_value("--check") {
        match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("FAIL: read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let rig = priority_rig(RigConfig::table2().with_spo(true));
        let recorder = Arc::new(TraceRecorder::new());
        let mut engine = Engine::new(rig);
        engine.plane_mut().set_recorder(recorder.clone());
        engine.run(SECONDS);
        let text = recorder.render(None);
        if let Some(path) = flag_value("--out") {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("FAIL: write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("trace written to {path} — load it in chrome://tracing or ui.perfetto.dev");
        }
        text
    };

    let parsed = match trace::parse(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("FAIL: trace does not validate: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "trace: valid ({} events, {} metadata records, {} dropped)",
        parsed.events.len(),
        parsed.meta.len(),
        parsed.dropped
    );

    let mut failures = 0u32;
    for phase in RoundPhase::ALL {
        let count = parsed.slice_count(phase.label());
        if count > 0 {
            println!("phase {}: {count} slices", phase.label());
        } else {
            eprintln!("FAIL: phase {} has no slices", phase.label());
            failures += 1;
        }
    }

    let tracks = parsed.counter_tracks();
    if tracks.len() >= 4 {
        println!("counter tracks: {}", tracks.len());
        for (pid, name) in &tracks {
            println!("  pid {pid}: {name}");
        }
    } else {
        eprintln!(
            "FAIL: expected >= 4 counter tracks, found {}: {tracks:?}",
            tracks.len()
        );
        failures += 1;
    }

    if failures > 0 {
        eprintln!("trace_check: {failures} check(s) failed");
        return ExitCode::FAILURE;
    }
    println!("trace_check: all checks passed");
    ExitCode::SUCCESS
}
