//! Standalone layer rows: each times one public product function on a
//! fixed input, outside any loop, so a layer has a price of its own
//! next to its share of the workload. Every row is the median of
//! several batches; `samples` is the total call count.

use std::hint::black_box;
use std::time::Instant;

use crate::results::WorkloadResult;
use crate::seam::{
    self, AllocBench, EngineDaemon, EngineRig, OplogBench, RoomRig, SlabBench, TraceBench,
    WireBench, ALLOC_POLICIES,
};
use crate::stats;
use crate::Ctx;

const BATCHES: usize = 5;

/// The room: 630 racks of 40 (`--smoke`: `racks:8:4`).
pub fn room_rig(smoke: bool) -> RoomRig {
    if smoke {
        RoomRig {
            racks: 8,
            servers_per_rack: 4,
        }
    } else {
        RoomRig {
            racks: 630,
            servers_per_rack: 40,
        }
    }
}

pub const ROOM_AGENTS: usize = 2;

/// Seconds per call: the median over [`BATCHES`] batches of `iters`
/// calls each, after one untimed batch.
fn per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    stats::median(&batches)
}

fn samples(iters: usize) -> u64 {
    (BATCHES * iters) as u64
}

/// Fewer iterations under `--smoke`.
fn scale(ctx: &Ctx) -> usize {
    if ctx.smoke {
        10
    } else {
        1
    }
}

/// `core::alloc`: the three policies on one rack's worth of children.
fn alloc_rows(ctx: &Ctx, result: &mut WorkloadResult) {
    let scale = scale(ctx);
    let mut alloc = AllocBench::new(ctx.seed);
    for policy in ALLOC_POLICIES {
        let iters = 2_000 / scale;
        let batch = 10;
        let s = per_call(iters / batch, || {
            black_box(alloc.split_many(policy, batch));
        });
        result.set(
            &format!("core.alloc.{policy}.split_ns_per_child"),
            s / batch as f64 / alloc.children() as f64 * 1e9,
            samples(iters),
        );
    }
}

/// `core::wire`: one agent's real messages for the room rig.
pub fn wire_rows(ctx: &Ctx, result: &mut WorkloadResult) {
    let wire = WireBench::new(room_rig(ctx.smoke), ROOM_AGENTS);
    let iters = 200 / scale(ctx);
    let codec: [(&str, &dyn Fn()); 4] = [
        ("core.wire.encode_up_ns", &|| {
            black_box(wire.encode_up());
        }),
        ("core.wire.decode_up_ns", &|| {
            black_box(wire.decode_up());
        }),
        ("core.wire.encode_down_ns", &|| {
            black_box(wire.encode_down());
        }),
        ("core.wire.decode_down_ns", &|| {
            black_box(wire.decode_down());
        }),
    ];
    for (name, call) in codec {
        result.set(name, per_call(iters, call) * 1e9, samples(iters));
    }
    result.set(
        "core.wire.bytes_per_round",
        wire.bytes_per_round() as f64,
        1,
    );
}

/// `serve::http`, `serve::router`, `core::oplog`: the operator plane's
/// pieces, each called directly. Appends to the live oplog, so it runs
/// after every check that reads the log.
pub fn operator_rows(
    ctx: &Ctx,
    daemon: &EngineDaemon,
    result: &mut WorkloadResult,
) -> Result<(), String> {
    let scale = scale(ctx);
    let put = put_bytes("layers-parse", 812_345.678);
    let iters = 20_000 / scale;
    result.set(
        "serve.http.parse_request_ns",
        per_call(iters, || {
            black_box(seam::parse_request(black_box(&put)).is_some());
        }) * 1e9,
        samples(iters),
    );

    let path = ctx.tmp_file("layers.oplog")?;
    let mut log = OplogBench::open(&path)?;
    let iters = 2_000 / scale;
    let mut n = 0u64;
    let mut failed = None;
    let append = per_call(iters, || {
        n += 1;
        if let Err(e) = log.append(&format!("layers-{n}"), 800_000.0 + n as f64) {
            failed = Some(e);
        }
    });
    let replay = per_call(iters, || {
        black_box(log.append("layers-1", 800_001.0).ok());
    });
    let _ = std::fs::remove_file(&path);
    if let Some(e) = failed {
        return Err(format!("oplog append: {e}"));
    }
    result.set("core.oplog.append_us", append * 1e6, samples(iters));
    result.set("core.oplog.replay_lookup_ns", replay * 1e9, samples(iters));

    // `Handler::handle` without the socket: a keyed tree-budget PUT at
    // the budget the live plane resolves (valid whatever the rig), and
    // `GET /v1/metrics`.
    let budget = daemon.root_budgets_now()[0];
    let handle = |request: &seam::HttpRequest| daemon.handle(request);
    let iters = 200;
    let mut n = 0u64;
    let mut bad = None;
    let put = per_call(iters, || {
        n += 1;
        let request = seam::parse_request(&put_bytes(&format!("layers-{n}"), budget))
            .expect("the benchmark's own request parses");
        let status = handle(&request);
        if status != Some(200) {
            bad = Some(status);
        }
    });
    let get_request = seam::parse_request(GET_METRICS).expect("the benchmark's own request parses");
    let get = per_call(iters, || {
        let status = handle(&get_request);
        if status != Some(200) {
            bad = Some(status);
        }
    });
    if let Some(status) = bad {
        return Err(format!("direct handler call answered {status:?}"));
    }
    result.set("serve.router.put_handler_us", put * 1e6, samples(iters));
    result.set("serve.router.get_handler_us", get * 1e6, samples(iters));
    Ok(())
}

/// A representative keyed tree-budget PUT, as bytes on the wire.
fn put_bytes(key: &str, watts: f64) -> Vec<u8> {
    let body = format!("{{\"watts\": {watts}}}");
    format!(
        "PUT /v1/trees/0/budget HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nIdempotency-Key: {key}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

const GET_METRICS: &[u8] =
    b"GET /v1/metrics HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nConnection: close\r\n\r\n";

fn slab_rows(mut slab: SlabBench, smoke: bool, result: &mut WorkloadResult) {
    let servers = slab.servers() as u64;
    slab.sweep();
    let iters = if smoke { 20 } else { 10 };
    result.set(
        "server.slab.step_us_quiescent",
        per_call(iters, || slab.sweep()) * 1e6,
        servers,
    );
    // Dirtying is set-up, not sweep: only the sweep after it is timed.
    let dirty: Vec<f64> = (0..BATCHES + 2)
        .map(|_| {
            slab.dirty_all();
            let t = Instant::now();
            slab.sweep();
            t.elapsed().as_secs_f64()
        })
        .collect();
    result.set(
        "server.slab.step_us_dirty",
        stats::median(&dirty[2..]) * 1e6,
        servers,
    );
}

/// `core::alloc`, `server::slab`, `core::obs`: what every engine
/// workload runs.
pub fn engine_rows(rig: EngineRig, ctx: &Ctx, daemon: &EngineDaemon, result: &mut WorkloadResult) {
    alloc_rows(ctx, result);
    slab_rows(SlabBench::for_engine(rig, ctx.seed), ctx.smoke, result);
    let iters = 20;
    let metrics = daemon.metrics();
    result.set(
        "core.obs.prometheus.render_us",
        per_call(iters, || {
            black_box(metrics.render_prometheus().len());
        }) * 1e6,
        samples(iters),
    );
    let iters = 5;
    result.set(
        "core.obs.json.report_render_us",
        per_call(iters, || {
            black_box(daemon.render_report().len());
        }) * 1e6,
        samples(iters),
    );
    let iters = 20;
    result.set(
        "core.obs.trace.render_last16_ms",
        per_call(iters, || {
            black_box(daemon.render_trace_tail(16).len());
        }) * 1e3,
        samples(iters),
    );
    let ring = TraceBench::full_ring(6);
    let iters = 3;
    result.set(
        "core.obs.trace.render_ms",
        per_call(iters, || {
            black_box(ring.render(None).len());
        }) * 1e3,
        ring.events() as u64,
    );
}
