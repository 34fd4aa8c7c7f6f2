//! `capmaestrod` — the CapMaestro serving daemon.
//!
//! Runs the paper's Table 2 priority rig behind the in-tree HTTP
//! `/v1` endpoints (`/v1/metrics`, `/v1/healthz`, `/v1/report`,
//! `POST /v1/budget`, …). See `capmaestrod --help` and DESIGN.md "Serving
//! mode".

use std::process::ExitCode;

use capmaestro_serve::daemon::{self, DaemonCommand};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match daemon::parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match command {
        DaemonCommand::Run(config) => match daemon::run(&config) {
            Ok(steps) => {
                println!("capmaestrod: stopped after {steps} simulated seconds");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("capmaestrod: {message}");
                ExitCode::FAILURE
            }
        },
        DaemonCommand::Probe(addr) => match daemon::probe(&addr) {
            Ok(transcript) => {
                print!("{transcript}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("capmaestrod probe: {message}");
                ExitCode::FAILURE
            }
        },
    }
}
