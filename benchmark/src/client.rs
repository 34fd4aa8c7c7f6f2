//! The operator: one thread, one connection at a time, sending on a
//! fixed schedule whether or not the daemon keeps up (an open loop).
//! Every request is timed from the instant it was *due*, so a stall in
//! the daemon is charged to every request it delays, and how late the
//! generator itself ran is reported beside the latencies.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::results::WorkloadResult;
use crate::seam;
use crate::stats::{self, Rng};

/// Connect, read and write deadline of one request. A request that
/// hits it is a failed operation.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// What the operator sends, and where: 40 % keyed tree-budget PUTs at
/// 0.90–0.99 of the tree's initial budget, 10 % replays of an earlier
/// key+body, 5 % group-priority set/clear, 5 % drain/undrain pairs,
/// 40 % reads.
#[derive(Debug, Clone)]
pub struct Plan {
    pub addr: SocketAddr,
    pub rate_hz: f64,
    pub seed: u64,
    pub initial_budgets: Vec<f64>,
    /// Per tree, the arena's `[lo, hi)` range of rack-level groups.
    pub rack_groups: Vec<(usize, usize)>,
    pub server_ids: Vec<u32>,
    /// File the scraped bodies are spilled to, for [`validate_scraped`].
    pub spill: PathBuf,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Write,
    Read,
}

/// One request's timing.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    /// Due time → full response read, seconds; `None` when it failed.
    pub latency_s: Option<f64>,
    /// Due time → first byte sent, seconds.
    pub lag_s: f64,
}

/// What the operator did and saw.
#[derive(Debug, Default)]
pub struct Report {
    pub samples: Vec<Sample>,
    /// `(seq, due)` of every write the log accepted as a new event.
    pub accepted: Vec<(u64, Instant)>,
    /// `seq → idempotency key` of the same writes.
    pub keys: HashMap<u64, String>,
    /// Last budget declared per tree, in log order.
    pub declared: HashMap<u32, f64>,
    pub replays: u64,
    pub failed: u64,
    /// What was wrong with a response, first few only.
    pub failures: Vec<String>,
}

impl Report {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn latencies_ms(&self, class: Class) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.class == class)
            .filter_map(|s| s.latency_s)
            .map(|s| s * 1e3)
            .collect()
    }

    pub fn lags_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.lag_s * 1e3).collect()
    }

    /// The three latency series of the operator plane, under the names
    /// of their `serve.api.*` rows. `boundaries` as for [`put_to_cap_ms`].
    fn series(&self, boundaries: &[(u64, Instant)]) -> [(&'static str, Vec<f64>); 3] {
        [
            ("serve.api.put_ack_ms", self.latencies_ms(Class::Write)),
            ("serve.api.scrape_ms", self.latencies_ms(Class::Read)),
            (
                "serve.api.put_to_cap_ms",
                put_to_cap_ms(&self.accepted, boundaries),
            ),
        ]
    }

    /// Prints each latency series as its median and supportable tail.
    pub fn print_latencies(&self, boundaries: &[(u64, Instant)]) {
        for (name, samples) in self.series(boundaries) {
            println!("{}", stats::tail_line(name, &samples));
        }
        println!(
            "{}",
            stats::tail_line("serve.api.generator_lag_ms", &self.lags_ms())
        );
    }

    /// Sets the `serve.api.*` rows.
    pub fn set_layer_rows(&self, boundaries: &[(u64, Instant)], result: &mut WorkloadResult) {
        for (name, samples) in self.series(boundaries) {
            let sorted = stats::sorted(&samples);
            for (suffix, q) in [("p50", 0.50), ("p95", 0.95)] {
                result.set(
                    &format!("{name}_{suffix}"),
                    stats::percentile(&sorted, q),
                    sorted.len() as u64,
                );
            }
        }
        let lags = stats::sorted(&self.lags_ms());
        result.set(
            "serve.api.generator_lag_ms_p99",
            stats::percentile(&lags, 0.99),
            lags.len() as u64,
        );
        result.set("serve.api.requests", self.samples.len() as f64, 1);
        result.set("serve.api.failed", self.failed as f64, 1);
    }
}

/// One HTTP exchange: status and body. `Connection: close`, as the
/// server speaks it.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    key: Option<&str>,
    body: &str,
) -> Result<(u16, String), String> {
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    if let Some(key) = key {
        request.push_str(&format!("Idempotency-Key: {key}\r\n"));
    }
    request.push_str(&format!(
        "Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    ));
    let mut stream =
        TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("socket options: {e}"))?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut bytes = Vec::new();
    stream
        .read_to_end(&mut bytes)
        .map_err(|e| format!("read: {e}"))?;
    let mut head = String::from_utf8(bytes).map_err(|_| "response is not utf-8".to_string())?;
    let split = head
        .find("\r\n\r\n")
        .ok_or_else(|| "response has no head terminator".to_string())?;
    // The body keeps its buffer: a 25 k-server report is 1.5 MB.
    let body = head.split_off(split + 4);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| "response has no status".to_string())?;
    Ok((status, body))
}

/// Largest `/v1/report` body handed to the product's `json::parse`.
/// That parser re-validates the whole remaining input as UTF-8 for
/// every string character, so it is quadratic: 1.2 s for the 230 KB
/// report of 3 888 servers, 64 s for the 1.5 MB one of 25 272. Of the
/// larger bodies the first and the last scraped go through it all the
/// same; the rest are checked for the same shape with the benchmark's
/// own linear parser, and [`Scraped`] counts both kinds.
const PRODUCT_JSON_LIMIT: usize = 16 * 1024;

fn report_has_its_shape(body: &str) -> Result<(), String> {
    let doc = Json::parse(body.trim())?;
    for section in ["counters", "gauges", "histograms"] {
        let rows = doc
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("report has no {section} array"))?;
        if rows
            .iter()
            .any(|row| row.get("name").and_then(Json::as_str).is_none())
        {
            return Err(format!("report {section} row without a name"));
        }
    }
    let gauges = doc.get("gauges").and_then(Json::as_arr).unwrap_or(&[]);
    if gauges
        .iter()
        .any(|g| g.get("value").and_then(Json::as_f64).is_none())
    {
        return Err("report gauge without a numeric value".to_string());
    }
    Ok(())
}

/// The scraped bodies the product's own validators judge. They are
/// judged after the window, from a spill file: validating between two
/// sends would make the next request late, and holding a window's worth
/// of reports in memory would sit in the daemon's `peak_rss_mb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scrape {
    Metrics = 0,
    Report = 1,
    Trace = 2,
}

/// One record per body: kind, length, bytes.
struct Spill(BufWriter<File>);

impl Spill {
    fn push(&mut self, kind: Scrape, body: &str) -> std::io::Result<()> {
        self.0.write_all(&[kind as u8])?;
        self.0.write_all(&(body.len() as u64).to_le_bytes())?;
        self.0.write_all(body.as_bytes())
    }
}

/// What [`validate_scraped`] judged.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Scraped {
    /// Bodies the product's validator for their kind accepted or refused.
    pub validated: u64,
    /// Large reports only checked for their shape (see
    /// [`PRODUCT_JSON_LIMIT`]).
    pub shape_checked: u64,
    pub failures: Vec<String>,
}

/// Judges every body the operator spilled to `path`:
/// `prometheus::validate` for `/v1/metrics`, `json::parse` for
/// `/v1/report`, `trace::parse` for `/v1/trace`.
pub fn validate_scraped(path: &Path) -> Result<Scraped, String> {
    let bad = |e: std::io::Error| format!("read {}: {e}", path.display());
    let mut file = BufReader::new(File::open(path).map_err(bad)?);
    let mut bodies: Vec<(u8, String)> = Vec::new();
    loop {
        let mut head = [0u8; 9];
        match file.read_exact(&mut head) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(bad(e)),
        }
        let len = u64::from_le_bytes(head[1..].try_into().expect("eight bytes"));
        let mut body = vec![0u8; len as usize];
        file.read_exact(&mut body).map_err(bad)?;
        bodies.push((
            head[0],
            String::from_utf8(body).map_err(|_| "spilled body is not utf-8".to_string())?,
        ));
    }
    let reports: Vec<usize> = (0..bodies.len())
        .filter(|&i| bodies[i].0 == Scrape::Report as u8)
        .collect();
    let mut scraped = Scraped::default();
    for (i, (kind, body)) in bodies.iter().enumerate() {
        let through_product = *kind != Scrape::Report as u8
            || body.len() <= PRODUCT_JSON_LIMIT
            || Some(&i) == reports.first()
            || Some(&i) == reports.last();
        let (what, verdict) = match *kind {
            k if k == Scrape::Metrics as u8 => ("/v1/metrics", seam::validate_prometheus(body)),
            k if k == Scrape::Trace as u8 => ("/v1/trace", seam::validate_trace(body)),
            _ if through_product => ("/v1/report", seam::validate_report(body)),
            _ => ("/v1/report", report_has_its_shape(body)),
        };
        if through_product {
            scraped.validated += 1;
        } else {
            scraped.shape_checked += 1;
        }
        if let Err(why) = verdict {
            scraped
                .failures
                .push(format!("scraped {what} body {i}: {why}"));
        }
    }
    Ok(scraped)
}

/// The `seq` and `replayed` of a `{"status":"staged",…}` answer.
fn staged(body: &str) -> Option<(u64, bool)> {
    let doc = Json::parse(body.trim()).ok()?;
    Some((doc.get("seq")?.as_u64()?, doc.get("replayed")?.as_bool()?))
}

/// The request the operator sends next, and what to do with the answer.
struct Next {
    class: Class,
    method: &'static str,
    path: String,
    key: Option<String>,
    body: String,
    expect: Expect,
}

enum Expect {
    /// A fresh write: remember `(seq, due)`; a tree budget also
    /// updates the declared map.
    Accepted {
        tree_budget: Option<(u32, f64)>,
    },
    /// A replay: must answer the original `seq` with `replayed:true`.
    Replay {
        seq: u64,
    },
    Metrics,
    Report,
    Healthz,
    Events,
    Trace,
}

struct Operator {
    plan: Plan,
    spill: Spill,
    rng: Rng,
    /// `(path, key, body, seq)` of accepted tree-budget PUTs, for replays.
    history: Vec<(String, String, String, u64)>,
    banded: Option<(usize, usize)>,
    drained: Option<u32>,
    reads: u64,
    head: u64,
}

impl Operator {
    fn fresh_key(&self, i: u64) -> String {
        format!("bench-{}-{i}", self.plan.seed)
    }

    fn read(&mut self) -> Next {
        let kind = self.reads % 5;
        self.reads += 1;
        let (path, expect) = match kind {
            0 => ("/v1/metrics".to_string(), Expect::Metrics),
            1 => ("/v1/report".to_string(), Expect::Report),
            2 => ("/v1/healthz".to_string(), Expect::Healthz),
            3 => (format!("/v1/events?since={}", self.head), Expect::Events),
            _ => ("/v1/trace?last_s=16".to_string(), Expect::Trace),
        };
        Next {
            class: Class::Read,
            method: "GET",
            path,
            key: None,
            body: String::new(),
            expect,
        }
    }

    fn write(&self, method: &'static str, path: String, i: u64, body: String) -> Next {
        Next {
            class: Class::Write,
            method,
            path,
            key: Some(self.fresh_key(i)),
            body,
            expect: Expect::Accepted { tree_budget: None },
        }
    }

    fn next(&mut self, i: u64) -> Next {
        match self.rng.below(100) {
            0..=39 => self.tree_budget(i),
            40..=49 if !self.history.is_empty() => {
                let pick = self.rng.below(self.history.len() as u64) as usize;
                let (path, key, body, seq) = self.history[pick].clone();
                Next {
                    class: Class::Write,
                    method: "PUT",
                    path,
                    key: Some(key),
                    body,
                    expect: Expect::Replay { seq },
                }
            }
            40..=49 => self.tree_budget(i),
            50..=54 => {
                let (tree, node, body) = match self.banded.take() {
                    Some((tree, node)) => (tree, node, "{\"priority\": null}"),
                    None => {
                        let tree = self.rng.below(self.plan.rack_groups.len() as u64) as usize;
                        let (lo, hi) = self.plan.rack_groups[tree];
                        let node = lo + self.rng.below((hi - lo) as u64) as usize;
                        self.banded = Some((tree, node));
                        (tree, node, "{\"priority\": 1}")
                    }
                };
                self.write(
                    "PATCH",
                    format!("/v1/groups/{tree}.{node}/priority"),
                    i,
                    body.to_string(),
                )
            }
            55..=59 => {
                let (server, verb) = match self.drained.take() {
                    Some(server) => (server, "undrain"),
                    None => {
                        let pick = self.rng.below(self.plan.server_ids.len() as u64) as usize;
                        let server = self.plan.server_ids[pick];
                        self.drained = Some(server);
                        (server, "drain")
                    }
                };
                self.write(
                    "POST",
                    format!("/v1/servers/{server}:{verb}"),
                    i,
                    String::new(),
                )
            }
            _ => self.read(),
        }
    }

    fn tree_budget(&mut self, i: u64) -> Next {
        let initial = &self.plan.initial_budgets;
        let tree = self.rng.below(initial.len() as u64) as u32;
        let watts = initial[tree as usize] * self.rng.uniform(0.90, 0.99);
        let mut next = self.write(
            "PUT",
            format!("/v1/trees/{tree}/budget"),
            i,
            format!("{{\"watts\": {watts}}}"),
        );
        next.expect = Expect::Accepted {
            tree_budget: Some((tree, watts)),
        };
        next
    }

    /// Judges one answer, or spills it for [`validate_scraped`]; an
    /// `Err` is a wrong output, not a slow one.
    fn judge(
        &mut self,
        next: &Next,
        due: Instant,
        body: &str,
        report: &mut Report,
    ) -> Result<(), String> {
        let mut spill = |kind| {
            self.spill
                .push(kind, body)
                .map_err(|e| format!("spill the body: {e}"))
        };
        match &next.expect {
            Expect::Accepted { tree_budget } => {
                let (seq, replayed) = staged(body).ok_or("write answer is not a staged body")?;
                if replayed {
                    return Err(format!("fresh key answered as a replay of seq {seq}"));
                }
                self.head = self.head.max(seq);
                report.accepted.push((seq, due));
                let key = next.key.clone().unwrap_or_default();
                if let Some((tree, watts)) = tree_budget {
                    report.declared.insert(*tree, *watts);
                    self.history
                        .push((next.path.clone(), key.clone(), next.body.clone(), seq));
                }
                report.keys.insert(seq, key);
                Ok(())
            }
            Expect::Replay { seq } => {
                report.replays += 1;
                match staged(body) {
                    Some((got, true)) if got == *seq => Ok(()),
                    other => Err(format!("replay of seq {seq} answered {other:?}")),
                }
            }
            Expect::Metrics => spill(Scrape::Metrics),
            Expect::Report => spill(Scrape::Report),
            Expect::Trace => spill(Scrape::Trace),
            Expect::Healthz => Json::parse(body.trim())
                .ok()
                .and_then(|doc| doc.get("applied_seq")?.as_u64())
                .map(|_| ())
                .ok_or_else(|| "healthz body has no applied_seq".to_string()),
            Expect::Events => {
                let doc = Json::parse(body.trim())?;
                let head = doc
                    .get("head")
                    .and_then(Json::as_u64)
                    .ok_or("events body has no head")?;
                self.head = self.head.max(head);
                Ok(())
            }
        }
    }
}

/// Starts the operator. It sends until `stop` is set, then returns its
/// report through the handle.
pub fn spawn(plan: Plan, stop: Arc<AtomicBool>) -> Result<JoinHandle<Report>, String> {
    let spill =
        File::create(&plan.spill).map_err(|e| format!("create {}: {e}", plan.spill.display()))?;
    std::thread::Builder::new()
        .name("bench-operator".to_string())
        .spawn(move || run(plan, Spill(BufWriter::new(spill)), &stop))
        .map_err(|e| format!("spawn the operator thread: {e}"))
}

fn run(plan: Plan, spill: Spill, stop: &AtomicBool) -> Report {
    let interval = Duration::from_secs_f64(1.0 / plan.rate_hz);
    let mut operator = Operator {
        rng: Rng::new(plan.seed ^ 0x0b5e_55ed),
        plan,
        spill,
        history: Vec::new(),
        banded: None,
        drained: None,
        reads: 0,
        head: 0,
    };
    let mut report = Report::default();
    let start = Instant::now();
    'send: for i in 0u64.. {
        let due = start + interval * i as u32;
        // Sleep in slices so a stop request is seen within a few ms.
        loop {
            if stop.load(Ordering::SeqCst) {
                break 'send;
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(5)));
        }
        let next = operator.next(i);
        let sent = Instant::now();
        let answer = exchange(
            operator.plan.addr,
            next.method,
            &next.path,
            next.key.as_deref(),
            &next.body,
        );
        let done = Instant::now();
        let mut sample = Sample {
            class: next.class,
            latency_s: None,
            lag_s: (sent - due).as_secs_f64(),
        };
        match answer {
            Ok((status, body)) if (200..300).contains(&status) => {
                sample.latency_s = Some((done - due).as_secs_f64());
                if let Err(why) = operator.judge(&next, due, &body, &mut report) {
                    report.fail(format!("{} {}: {why}", next.method, next.path));
                }
            }
            Ok((status, body)) => report.fail(format!(
                "{} {} answered {status}: {}",
                next.method,
                next.path,
                body.trim()
            )),
            Err(why) => report.fail(format!("{} {}: {why}", next.method, next.path)),
        }
        report.samples.push(sample);
    }
    if let Err(e) = operator.spill.0.flush() {
        report.fail(format!("flush the spilled bodies: {e}"));
    }
    report
}

/// Checks `/v1/events?since=0` against what the operator saw: sequence
/// numbers 1..=head with no gap or repeat, and every accepted write
/// present exactly once under its own key.
pub fn check_events(addr: SocketAddr, report: &Report) -> Result<u64, String> {
    let (status, body) = exchange(addr, "GET", "/v1/events?since=0", None, "")?;
    if status != 200 {
        return Err(format!("/v1/events answered {status}"));
    }
    let doc = Json::parse(body.trim())?;
    let head = doc
        .get("head")
        .and_then(Json::as_u64)
        .ok_or("events body has no head")?;
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("events body has no events")?;
    if events.len() as u64 != head {
        return Err(format!("{} events listed under head {head}", events.len()));
    }
    let mut seen = HashMap::new();
    for (i, event) in events.iter().enumerate() {
        let seq = event
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or("event has no seq")?;
        if seq != i as u64 + 1 {
            return Err(format!("event {i} carries seq {seq}"));
        }
        let key = event.get("key").and_then(Json::as_str).unwrap_or("");
        seen.insert(seq, key.to_string());
    }
    if report.accepted.len() as u64 != head {
        return Err(format!(
            "{} writes were accepted but the log holds {head} events",
            report.accepted.len()
        ));
    }
    for (seq, key) in &report.keys {
        if seen.get(seq) != Some(key) {
            return Err(format!(
                "accepted write seq {seq} key {key:?} is listed as {:?}",
                seen.get(seq)
            ));
        }
    }
    Ok(head)
}

/// For each accepted write, due time → the first boundary return after
/// which the reconciler had applied it, in milliseconds. `boundaries`
/// is `(applied_seq, returned_at)` per control boundary, in order.
pub fn put_to_cap_ms(accepted: &[(u64, Instant)], boundaries: &[(u64, Instant)]) -> Vec<f64> {
    accepted
        .iter()
        .filter_map(|&(seq, due)| {
            let landed = boundaries.partition_point(|&(applied, _)| applied < seq);
            let (_, at) = boundaries.get(landed)?;
            Some(at.saturating_duration_since(due).as_secs_f64() * 1e3)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_to_cap_runs_from_due_time_to_the_first_boundary_that_applied_it() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Boundaries return at 100, 200, 300 ms having applied seqs 0, 2, 3.
        let boundaries = [(0, at(100)), (2, at(200)), (3, at(300))];
        let accepted = [(1, at(50)), (2, at(150)), (3, at(190)), (4, at(250))];
        let ms = put_to_cap_ms(&accepted, &boundaries);
        // seq 4 never landed inside the run: it has no latency.
        assert_eq!(ms.len(), 3);
        assert!((ms[0] - 150.0).abs() < 1e-6, "{ms:?}");
        assert!((ms[1] - 50.0).abs() < 1e-6, "{ms:?}");
        assert!((ms[2] - 110.0).abs() < 1e-6, "{ms:?}");
    }

    /// Spilled bodies come back in order under their kind; a body its
    /// validator refuses is a failure naming the endpoint, and large
    /// reports between the first and the last are only shape-checked.
    #[test]
    fn spilled_bodies_are_judged_by_kind_and_the_exception_is_counted() {
        let path = std::env::temp_dir().join(format!("capm-bench-judge-{}", std::process::id()));
        let mut spill = Spill(BufWriter::new(File::create(&path).expect("create")));
        let big = |rows: usize| {
            let gauges: Vec<String> = (0..rows)
                .map(|i| format!("{{\"name\":\"g{i}\",\"labels\":{{}},\"value\":{i}}}"))
                .collect();
            format!(
                "{{\"counters\":[],\"gauges\":[{}],\"histograms\":[]}}",
                gauges.join(",")
            )
        };
        let large = big(800);
        assert!(large.len() > PRODUCT_JSON_LIMIT);
        for body in [&large, &large, &large] {
            spill.push(Scrape::Report, body).expect("push");
        }
        spill
            .push(Scrape::Report, "{\"counters\":[],\"gauges\":7}")
            .expect("push");
        spill.push(Scrape::Trace, "not a trace").expect("push");
        spill.push(Scrape::Metrics, "").expect("push");
        spill.0.flush().expect("flush");
        let scraped = validate_scraped(&path).expect("readable");
        let _ = std::fs::remove_file(&path);
        // Reports 0 and 3 are first and last; 1 and 2 are shape-checked.
        assert_eq!((scraped.validated, scraped.shape_checked), (4, 2));
        assert_eq!(scraped.failures.len(), 2, "{:?}", scraped.failures);
        assert!(scraped.failures[0].contains("/v1/report body 3"));
        assert!(scraped.failures[1].contains("/v1/trace body 4"));
    }

    /// An open loop charges a stall to everything it delays: with a
    /// server that takes 30 ms per request and a 10 ms schedule, the
    /// k-th request waits for its k predecessors, and the generator's
    /// own lateness grows with it.
    #[test]
    fn open_loop_times_from_due_time_and_reports_generator_lag() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            for stream in listener.incoming().take(6) {
                let mut stream = stream.expect("accept");
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf).expect("read");
                std::thread::sleep(Duration::from_millis(30));
                let body = "{\"status\":\"ok\",\"applied_seq\":0}";
                let _ = stream.write_all(
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                );
            }
        });
        let stop = Arc::new(AtomicBool::new(false));
        let spill = std::env::temp_dir().join(format!("capm-bench-spill-{}", std::process::id()));
        let handle = spawn(
            Plan {
                addr,
                rate_hz: 100.0,
                seed: 1,
                initial_budgets: vec![800_000.0],
                rack_groups: vec![(1, 2)],
                server_ids: vec![0],
                spill: spill.clone(),
            },
            stop.clone(),
        )
        .expect("operator starts");
        server.join().expect("server thread");
        stop.store(true, Ordering::SeqCst);
        let report = handle.join().expect("operator thread");
        let _ = std::fs::remove_file(&spill);
        assert!(report.samples.len() >= 6);
        let timed: Vec<&Sample> = report.samples.iter().take(6).collect();
        // Request k is due at 10k ms but cannot start before 30k ms.
        let last = timed[5];
        assert!(last.lag_s >= 0.090, "lag {}", last.lag_s);
        assert!(
            last.latency_s.is_none_or(|l| l >= 0.120),
            "latency {:?}",
            last.latency_s
        );
        assert!(timed[0].lag_s < 0.020, "first lag {}", timed[0].lag_s);
        // Lateness never shrinks while the server is the bottleneck.
        assert!(timed.windows(2).all(|w| w[1].lag_s >= w[0].lag_s - 0.005));
    }
}
