//! Perf ledger v1. `run.sh` builds this binary and hands it its own
//! arguments. One run is one workload, traced or not:
//!
//! - `--workload NAME --trace 0|1 [--seed N] [--seconds S]` runs it in
//!   this process under a wall-time guard, prints its metrics, writes
//!   `results/NAME.trace<0|1>.json` and prints the driver's result
//!   object last;
//! - with `--workload` or `--trace` left out, every run the rest
//!   selects is made as a child process of that first form (all four
//!   workloads, untraced then traced), the results are gathered into
//!   one file, and `--repeat 2` holds two untraced sets to the bounds;
//! - `--bless` regenerates `expected/*.digest` for seed 1.

mod catalog;
mod client;
mod digest;
mod engine_workload;
mod host;
mod json;
mod layers;
mod results;
mod room_workload;
mod seam;
mod spans;
mod stats;
mod suite;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use host::Host;
use results::WorkloadResult;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Seconds one smoke workload measures.
const SMOKE_SECONDS: u64 = 2;

/// Seconds a run spends outside its measured window (set-ups, drain,
/// checks, standalone rows), generously.
const OVERHEAD_S: u64 = 25;

/// A run that takes three times its expected length is wedged; the
/// driver allows none more than 180 s.
const GUARD_FACTOR: u64 = 3;
const GUARD_MAX_S: u64 = 170;

/// Checkpoints kept per blessed digest file; a run that gets further
/// is only held to this prefix.
const BLESSED_CHECKPOINTS: usize = 128;

/// What every workload run knows about its invocation.
pub struct Ctx {
    /// The benchmark's own directory (`expected/`, `results/`).
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    pub host: Host,
    pub process_start: Instant,
}

impl Ctx {
    /// A path for a temporary file of this process under `results/`;
    /// any stale file of that name is removed first.
    pub fn tmp_file(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.tmp_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(name);
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("remove stale {}: {e}", path.display())),
        }
        Ok(path)
    }

    fn tmp_dir(&self) -> PathBuf {
        self.dir
            .join("results")
            .join(format!("tmp-{}", std::process::id()))
    }

    pub fn results_file(&self, name: &str) -> PathBuf {
        self.dir.join("results").join(name)
    }

    /// Where the run of `workload` leaves its result.
    pub fn result_file(&self, workload: &str, traced: bool) -> PathBuf {
        self.results_file(&format!("{workload}.trace{}.json", u8::from(traced)))
    }

    pub fn expected_file(&self, workload: &str) -> String {
        if self.smoke {
            format!("{workload}.smoke.seed1.digest")
        } else {
            format!("{workload}.seed1.digest")
        }
    }
}

/// `--flag value` pairs and bare `--flag`s, in any order.
pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    pub fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{flag} needs a whole number, got {raw:?}")),
        }
    }

    pub fn flag(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

pub fn run_workload(name: &str, traced: bool, ctx: &Ctx) -> Result<WorkloadResult, String> {
    std::fs::create_dir_all(ctx.dir.join("results"))
        .map_err(|e| format!("create results dir: {e}"))?;
    let outcome = if name == catalog::ROOM_SOCKET {
        if traced {
            room_workload::run_traced(ctx)
        } else {
            room_workload::run_untraced(ctx)
        }
    } else {
        let spec = engine_workload::spec(name, ctx.smoke).ok_or_else(|| {
            format!(
                "unknown workload {name:?}; workloads: {}",
                catalog::catalog()
                    .workloads
                    .iter()
                    .map(|w| w.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
        if traced {
            engine_workload::run_traced(&spec, ctx)
        } else {
            engine_workload::run_untraced(&spec, ctx)
        }
    };
    // Temp oplogs go whether or not the run got as far as its teardown.
    let _ = std::fs::remove_dir_all(ctx.tmp_dir());
    let mut result = outcome?;
    result.seal();
    Ok(result)
}

fn ctx_from(args: &Args, process_start: Instant) -> Result<Ctx, String> {
    let smoke = args.flag("--smoke");
    let default_seconds = if smoke {
        SMOKE_SECONDS
    } else {
        catalog::catalog().run_seconds
    };
    let seconds = args.number("--seconds", default_seconds)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=60, got {seconds}"));
    }
    Ok(Ctx {
        dir: PathBuf::from(args.value("--dir").unwrap_or("benchmark")),
        seed: args.number("--seed", 1)?,
        seconds,
        smoke,
        host: Host::probe(),
        process_start,
    })
}

/// `--trace 0|1`, when given.
fn traced_arg(args: &Args) -> Result<Option<bool>, String> {
    match args.value("--trace") {
        None => Ok(None),
        Some("0") => Ok(Some(false)),
        Some("1") => Ok(Some(true)),
        Some(other) => Err(format!("--trace takes 0 or 1, got {other:?}")),
    }
}

/// Ends the process if the run outlives its guard, so a wedged socket
/// cannot hang whoever waits for it. Never joined: it either fires or
/// dies with the process.
fn start_watchdog(ctx: &Ctx) {
    let guard = (GUARD_FACTOR * (ctx.seconds + OVERHEAD_S)).min(GUARD_MAX_S);
    let tmp = ctx.tmp_dir();
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(guard));
        eprintln!("capmaestro-benchmark: the run exceeded its {guard} s guard");
        let _ = std::fs::remove_dir_all(tmp);
        std::process::exit(3);
    });
}

/// One run in this process.
fn run_command(name: &str, traced: bool, ctx: &Ctx) -> Result<bool, String> {
    start_watchdog(ctx);
    let result = run_workload(name, traced, ctx)?;
    let out = ctx.result_file(name, traced);
    std::fs::write(&out, result.to_json().render() + "\n")
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    print!("{}", result.render_lines());
    println!("{}", result.contract_line());
    Ok(result.correct())
}

fn bless_command(mut ctx: Ctx, args: &Args) -> Result<bool, String> {
    // Seed 1 is the blessed seed; long enough that any run this host
    // can make in `run_seconds` stays inside the blessed prefix.
    ctx.seed = 1;
    ctx.seconds = args.number("--seconds", if ctx.smoke { 4 } else { 45 })?;
    for name in [
        catalog::FLEET_STEADY,
        catalog::FLEET_CHURN,
        catalog::ROOM_SOCKET,
    ] {
        let file = ctx.dir.join("expected").join(ctx.expected_file(name));
        // The runs themselves would compare against the stale file.
        let _ = std::fs::remove_file(&file);
        let bless = |traced: bool| {
            let result = run_workload(name, traced, &ctx)?;
            let others: Vec<&String> = result
                .failures
                .iter()
                .filter(|f| !f.contains("is missing"))
                .collect();
            if others.is_empty() {
                Ok(result)
            } else {
                Err(format!("{name} is incorrect, not blessing: {others:?}"))
            }
        };
        let mut expected = digest::Expected {
            checkpoints: bless(false)?.checkpoints,
            inversions: Vec::new(),
        };
        expected.checkpoints.truncate(BLESSED_CHECKPOINTS);
        // The traced pass of the same schedule counts the inversions.
        if name == catalog::FLEET_CHURN {
            let traced = bless(true)?;
            digest::compare_prefix(&traced.checkpoints, &expected.checkpoints)?;
            expected.inversions = traced.inversions;
            expected.inversions.truncate(expected.checkpoints.len());
        }
        std::fs::create_dir_all(ctx.dir.join("expected")).map_err(|e| e.to_string())?;
        std::fs::write(&file, expected.render(name))
            .map_err(|e| format!("write {}: {e}", file.display()))?;
        println!(
            "blessed {} ({} checkpoints, {} with inversion counts)",
            file.display(),
            expected.checkpoints.len(),
            expected.inversions.len()
        );
    }
    Ok(true)
}

fn command(args: &Args, process_start: Instant) -> Result<bool, String> {
    let ctx = ctx_from(args, process_start)?;
    if args.flag("--bless") {
        return bless_command(ctx, args);
    }
    match (args.value("--workload"), traced_arg(args)?) {
        (Some(name), Some(traced)) => run_command(name, traced, &ctx),
        (workload, traced) => suite::run(args, &ctx, workload, traced),
    }
}

fn main() {
    let process_start = Instant::now();
    let args = Args(std::env::args().skip(1).collect());
    match command(&args, process_start) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(why) => {
            eprintln!("capmaestro-benchmark: {why}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seam list is only a list if nothing outside it names the
    /// product.
    #[test]
    fn only_the_seam_names_product_crates() {
        let src = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        for entry in std::fs::read_dir(src).expect("src dir") {
            let path = entry.expect("dir entry").path();
            if path.file_name().is_some_and(|n| n == "seam.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source file");
            let needle = ["capmaestro", "_"].concat();
            for (i, line) in text.lines().enumerate() {
                assert!(
                    !line.contains(&needle) || line.trim_start().starts_with("//"),
                    "{}:{}: product item named outside seam.rs: {line}",
                    path.display(),
                    i + 1
                );
            }
        }
    }

    fn test_ctx(tag: &str) -> Ctx {
        Ctx {
            dir: std::env::temp_dir().join(format!("capm-bench-test-{}-{tag}", std::process::id())),
            seed: 7,
            seconds: 1,
            smoke: true,
            host: Host::probe(),
            process_start: Instant::now(),
        }
    }

    /// Two in-process runs of the 216-server churn rig under the same
    /// seed walk the same simulated path: same checkpoints, bit for
    /// bit, whatever the wall clock did to the operator's timing.
    #[test]
    fn digest_is_stable_across_two_in_process_runs() {
        let ctx = test_ctx("digest");
        let first = run_workload(catalog::FLEET_CHURN, false, &ctx).expect("first run");
        let second = run_workload(catalog::FLEET_CHURN, false, &ctx).expect("second run");
        assert!(first.correct(), "{:?}", first.failures);
        assert!(second.correct(), "{:?}", second.failures);
        let compared =
            digest::compare_prefix(&first.checkpoints, &second.checkpoints).expect("same digest");
        assert!(compared >= 1);
        let other = Ctx {
            seed: 8,
            ..test_ctx("digest")
        };
        let third = run_workload(catalog::FLEET_CHURN, false, &other).expect("third run");
        assert_ne!(
            first.checkpoints[0], third.checkpoints[0],
            "the seed reaches the inputs"
        );
        let _ = std::fs::remove_dir_all(&ctx.dir);
    }
}
