//! `capmaestro-agent` — one rack worker as an OS process.
//!
//! Connects outbound to a room controller (a `SocketTransport`
//! listener), claims a worker index, and runs the rack loop: gather →
//! metrics, budgets → enforce, advance → step its owned slice of the
//! world. See `capmaestro_serve::agent` for the protocol.

use std::process::ExitCode;
use std::sync::Arc;

use capmaestro_core::obs::{names, MetricsRegistry};
use capmaestro_serve::agent::{run_agent, AgentConfig};
use capmaestro_serve::rig::RigSpec;

const USAGE: &str = "\
capmaestro-agent — CapMaestro rack agent process

USAGE:
    capmaestro-agent --connect HOST:PORT --worker N --workers-total M
                     [--rig fig2|racks:R:S] [--demand-seed SEED]
                     [--max-connect-attempts N]

OPTIONS:
    --connect HOST:PORT        room controller address (required)
    --worker N                 this agent's worker index (required)
    --workers-total M          fleet size; must match the controller (required)
    --rig SPEC                 rig to build: fig2 (default) or racks:R:S
    --demand-seed SEED         apply the seeded demand schedule while advancing
    --max-connect-attempts N   give up after N failed connects (default: never)
";

struct Args {
    config: AgentConfig,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut connect: Option<String> = None;
    let mut worker: Option<usize> = None;
    let mut workers_total: Option<usize> = None;
    let mut rig = RigSpec::Fig2;
    let mut demand_seed: Option<u64> = None;
    let mut max_attempts: Option<u64> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_for = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--connect" => connect = Some(value_for("--connect")?),
            "--worker" => {
                worker = Some(
                    value_for("--worker")?
                        .parse()
                        .map_err(|_| "--worker needs a non-negative integer".to_string())?,
                );
            }
            "--workers-total" => {
                workers_total = Some(
                    value_for("--workers-total")?
                        .parse()
                        .map_err(|_| "--workers-total needs a positive integer".to_string())?,
                );
            }
            "--rig" => rig = RigSpec::parse(&value_for("--rig")?)?,
            "--demand-seed" => {
                demand_seed = Some(
                    value_for("--demand-seed")?
                        .parse()
                        .map_err(|_| "--demand-seed needs a non-negative integer".to_string())?,
                );
            }
            "--max-connect-attempts" => {
                max_attempts = Some(
                    value_for("--max-connect-attempts")?
                        .parse()
                        .map_err(|_| "--max-connect-attempts needs a positive integer".to_string())?,
                );
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }

    let connect = connect.ok_or("--connect is required")?;
    let worker = worker.ok_or("--worker is required")?;
    let workers_total = workers_total.ok_or("--workers-total is required")?;
    let mut config = AgentConfig::new(connect, worker, workers_total, rig);
    config.demand_seed = demand_seed;
    config.max_connect_attempts = max_attempts;
    Ok(Args { config })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let registry = Arc::new(MetricsRegistry::new());
    args.config.recorder = registry.clone();

    match run_agent(&args.config) {
        Ok(report) => {
            // One parseable exit line: the partition bench and the ci
            // smoke read these counters.
            let snapshot = registry.snapshot();
            let rtt_count = snapshot
                .histograms
                .iter()
                .find(|h| h.name == names::AGENT_HEARTBEAT_RTT_SECONDS)
                .map(|h| h.count)
                .unwrap_or(0);
            println!(
                "capmaestro-agent: worker={} rounds_enforced={} advances={} \
                 violations_total={} reconnects={} heartbeats_acked={}",
                args.config.worker,
                report.rounds_enforced,
                report.advances,
                report.violations_total,
                report.reconnects,
                rtt_count,
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("capmaestro-agent: {msg}");
            ExitCode::FAILURE
        }
    }
}
