//! Every run the arguments select, each as a child process of this
//! executable (one workload, traced or not, under its own wall-time
//! guard): untraced for the end-to-end numbers, traced for the
//! per-layer ones, results gathered into one file — and, with
//! `--repeat 2`, two untraced sets of the same build held against the
//! declared bounds.

use std::process::Command;

use crate::catalog::catalog;
use crate::digest;
use crate::json::Json;
use crate::results::{worsening, WorkloadResult};
use crate::{Args, Ctx};

/// Runs one workload as a child of this executable and reads back the
/// result it wrote. The child ends itself if it outlives its guard.
fn run_child(ctx: &Ctx, workload: &str, traced: bool) -> Result<WorkloadResult, String> {
    let out = ctx.result_file(workload, traced);
    let _ = std::fs::remove_file(&out);
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("--dir")
        .arg(&ctx.dir)
        .args(["--workload", workload])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if ctx.smoke {
        command.arg("--smoke");
    }
    let what = format!("{workload} --trace {}", u8::from(traced));
    println!("--- {what}");
    let status = command.status().map_err(|e| format!("run {what}: {e}"))?;
    let text = std::fs::read_to_string(&out)
        .map_err(|e| format!("{what} wrote no result ({e}); it ended with {status}"))?;
    WorkloadResult::from_json(&Json::parse(&text)?)
        .ok_or_else(|| format!("{what} wrote a result this build cannot read"))
}

/// `workload` and `traced` are what the caller pinned; whatever it left
/// open is run in full.
pub fn run(
    args: &Args,
    ctx: &Ctx,
    workload: Option<&str>,
    traced: Option<bool>,
) -> Result<bool, String> {
    let repeat = args.number("--repeat", 1)?.max(1) as usize;
    let names: Vec<&str> = match workload {
        Some(name) => vec![crate::catalog::workload(name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?
            .name
            .as_str()],
        None => catalog()
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect(),
    };

    let mut all_correct = true;
    // Every child carries the host shape `run.sh` read once.
    let mut degraded = None;
    let mut note = |result: &WorkloadResult| {
        degraded = result.host.degraded.clone();
        result.correct()
    };
    let mut sets: Vec<Vec<WorkloadResult>> = Vec::new();
    if traced != Some(true) {
        for _ in 0..repeat {
            let mut results = Vec::new();
            for name in &names {
                let result = run_child(ctx, name, false)?;
                all_correct &= note(&result);
                results.push(result);
            }
            sets.push(results);
        }
    }
    let mut traced_results = Vec::new();
    if traced != Some(false) {
        for name in &names {
            let result = run_child(ctx, name, true)?;
            all_correct &= note(&result);
            // The traced child already checked itself against an
            // untraced pass of its own; this holds it against the
            // separate untraced process too.
            let reference = sets
                .first()
                .and_then(|s| s.iter().find(|r| r.workload == *name));
            if let Some(reference) = reference.filter(|r| !r.checkpoints.is_empty()) {
                match digest::compare_prefix(&result.checkpoints, &reference.checkpoints) {
                    Ok(n) => println!("{name}: {n} traced checkpoints equal the untraced run's"),
                    Err(why) => {
                        println!("INCORRECT {name}: traced vs untraced process: {why}");
                        all_correct = false;
                    }
                }
            }
            traced_results.push(result);
        }
    }

    let agree = repeat < 2 || compare_sets(&sets);
    let out = ctx.results_file("results.json");
    let document = Json::Obj(vec![
        (
            "sets".to_string(),
            Json::Arr(
                sets.iter()
                    .map(|set| Json::Arr(set.iter().map(WorkloadResult::to_json).collect()))
                    .collect(),
            ),
        ),
        (
            "traced".to_string(),
            Json::Arr(traced_results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ]);
    std::fs::write(&out, document.render() + "\n")
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    if !all_correct {
        println!("FAILED: at least one workload's outputs were incorrect");
    }
    if !agree {
        println!("FAILED: two sets of the same build disagree by more than a bound");
    }
    // Two sets are evidence of agreement only on a host that was quiet.
    let trusted = repeat < 2 || degraded.is_none();
    if let Some(why) = &degraded {
        println!("degraded {why}");
    }
    if !trusted {
        println!("FAILED: --repeat needs a host that is not degraded");
    }
    Ok(all_correct && agree && trusted)
}

/// Prints, per end-to-end metric × workload, the first two sets' values,
/// their relative difference and the bound. `false` when any pair
/// disagrees by more than its bound in either direction.
fn compare_sets(sets: &[Vec<WorkloadResult>]) -> bool {
    let (Some(a), Some(b)) = (sets.first(), sets.get(1)) else {
        return true;
    };
    let mut agree = true;
    println!("--- agreement of two sets of the same build");
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 0", "set 1", "diff", "bound"
    );
    for (ra, rb) in a.iter().zip(b) {
        for metric in &catalog().end_to_end {
            let (Some(va), Some(vb)) = (ra.metrics.get(&metric.name), rb.metrics.get(&metric.name))
            else {
                continue;
            };
            let diff = worsening(metric.better, va.value, vb.value);
            let within = diff.abs() <= metric.bound;
            agree &= within;
            println!(
                "{:<16} {:<20} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%{}",
                ra.workload,
                metric.name,
                va.value,
                vb.value,
                diff * 100.0,
                metric.bound * 100.0,
                if within { "" } else { "  DISAGREE" }
            );
        }
    }
    agree
}
