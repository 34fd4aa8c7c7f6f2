//! Socket-level test of the room-controller daemon: a real `capmaestrod
//! --agents` process over real `capmaestro-agent` processes, observed
//! through `/v1/healthz`. Killing an agent must surface as HTTP 200 with
//! `"degraded":true` and a non-zero `stale_racks` count; restarting the
//! agent must clear it.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use capmaestro_serve::client;

const SPEC: &str = "racks:2:2";
const AGENTS: usize = 2;

fn spawn_agent(addr: &str, worker: usize) -> Child {
    Command::new(env!("CARGO_BIN_EXE_capmaestro-agent"))
        .args([
            "--connect",
            addr,
            "--worker",
            &worker.to_string(),
            "--workers-total",
            &AGENTS.to_string(),
            "--rig",
            SPEC,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn capmaestro-agent")
}

/// Reads daemon stdout until both announce lines appear, returning
/// `(agent_addr, http_addr)`.
fn read_announcements(stdout: &mut BufReader<ChildStdout>) -> (String, String) {
    let mut agent_addr = None;
    let mut http_addr = None;
    let mut line = String::new();
    while agent_addr.is_none() || http_addr.is_none() {
        line.clear();
        let n = stdout.read_line(&mut line).expect("read daemon stdout");
        assert!(n > 0, "daemon stdout closed before announcing its ports");
        if let Some(rest) = line.trim().strip_prefix("capmaestrod: agents connect to ") {
            agent_addr = Some(rest.to_string());
        } else if let Some(rest) = line.trim().strip_prefix("capmaestrod: listening on http://") {
            http_addr = Some(rest.to_string());
        }
    }
    (agent_addr.unwrap(), http_addr.unwrap())
}

/// Polls `/v1/healthz` until `accept` passes on a 200 body, panicking with
/// the last body on timeout.
fn await_health(addr: &str, what: &str, accept: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = String::new();
    while Instant::now() < deadline {
        if let Ok(resp) = client::get(addr, "/v1/healthz") {
            if resp.status == 200 {
                let body = resp.body_str().unwrap_or_default().to_string();
                if accept(&body) {
                    return body;
                }
                last = body;
            } else {
                last = format!("status {}", resp.status);
            }
        }
        thread::sleep(Duration::from_millis(50));
    }
    panic!("never saw {what}; last /v1/healthz: {last}");
}

#[test]
fn healthz_surfaces_degraded_racks_over_sockets() {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_capmaestrod"))
        .args([
            "--agents",
            &AGENTS.to_string(),
            "--rig",
            SPEC,
            "--addr",
            "127.0.0.1:0",
            "--agent-addr",
            "127.0.0.1:0",
            "--accel",
            "0",
            "--quit-on-stdin",
            "--wall-limit-s",
            "120",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn capmaestrod");
    let mut stdout = BufReader::new(daemon.stdout.take().expect("daemon stdout"));
    let (agent_addr, http_addr) = read_announcements(&mut stdout);

    let mut agent0 = spawn_agent(&agent_addr, 0);
    let mut agent1 = spawn_agent(&agent_addr, 1);

    // With both agents up the fleet converges out of fail-safe.
    await_health(&http_addr, "a healthy, non-degraded fleet", |body| {
        body.contains("\"status\":\"ok\"") && body.contains("\"degraded\":false")
    });

    // Kill one agent: rounds keep completing (200), but the dead rack
    // rides the staleness ladder into fail-safe and /v1/healthz says so.
    agent0.kill().expect("kill agent 0");
    agent0.wait().expect("reap agent 0");
    let body = await_health(&http_addr, "a degraded fleet after the kill", |body| {
        body.contains("\"degraded\":true")
    });
    assert!(
        body.contains("\"stale_racks\":1"),
        "exactly the killed rack should be stale: {body}"
    );
    assert!(
        body.contains("\"status\":\"ok\""),
        "degraded is not unhealthy — rounds still complete: {body}"
    );

    // Restart it: the agent reconnects and the degradation clears.
    let mut agent0b = spawn_agent(&agent_addr, 0);
    await_health(&http_addr, "recovery after the agent restart", |body| {
        body.contains("\"degraded\":false") && body.contains("\"stale_racks\":0")
    });

    // Orderly teardown: quit the daemon; its shutdown stops the agents.
    daemon
        .stdin
        .take()
        .expect("daemon stdin")
        .write_all(b"quit\n")
        .expect("send quit");
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon must exit cleanly");
    agent0b.wait().expect("agent 0b exits");
    agent1.wait().expect("agent 1 exits");
}
