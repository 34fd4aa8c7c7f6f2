#!/usr/bin/env bash
# Tier-1 verification plus lints, as run before every merge.
#
#   ./ci.sh          # build + tests + clippy + smokes
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings \
    -D clippy::large_stack_arrays -D clippy::needless_collect

# Rustdoc lane: every intra-doc link in the workspace's own packages
# (`capmaestro` and `capmaestro-*`, not the vendored stand-ins) must
# resolve, so a deleted or private name leaves no dead link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q -p 'capmaestro*'

# Deterministic chaos smoke: seeded telemetry faults against both rigs,
# invariant-checked every simulated second; exits non-zero on violation.
cargo run --release -q -p capmaestro-bench --bin chaos -- \
    --seconds 300 --seed 7 --seeds 1 --out BENCH_chaos_smoke.json

# Policy-arena smoke: every budget-split allocator (waterfall,
# waterfilling, fair_share) races the same seeded diurnal / flash-crowd /
# feed-failure scenarios; exits non-zero if any scored metric leaves its
# sane range.
cargo run --release -q -p capmaestro-bench --bin repro -- \
    policies --smoke --out BENCH_policies_smoke.json

# Observability smoke: 20 instrumented rounds on the Fig. 2 rig, then
# validate the Prometheus page against the exposition grammar, round-trip
# the JSON snapshot, and require all six round phases to have been
# observed; exits non-zero on any failure.
cargo run --release -q --example observability -- --check

# Serving-mode smoke: boot capmaestrod on an ephemeral port (flat-out
# stepping, quit-on-stdin for a clean shutdown), curl all four endpoints
# under /v1, run the daemon's own --probe (which validates the
# Prometheus payload, round-trips the report JSON, POSTs a budget, and
# replays an idempotent PUT), then shut down via stdin. Everything is wall-clock bounded so a wedged daemon fails CI
# instead of hanging it.
cargo build --release -q -p capmaestro-serve --bin capmaestrod
DAEMON_LOG=$(mktemp); DAEMON_FIFO=$(mktemp -u); DAEMON_OPLOG=$(mktemp -u)
DAEMON_TRACE=$(mktemp -u)
mkfifo "$DAEMON_FIFO"
timeout 120s ./target/release/capmaestrod \
    --addr 127.0.0.1:0 --accel 0 --quit-on-stdin --wall-limit-s 90 \
    --oplog "$DAEMON_OPLOG" --trace "$DAEMON_TRACE" \
    <"$DAEMON_FIFO" >"$DAEMON_LOG" 2>&1 &
DAEMON_PID=$!
exec 9>"$DAEMON_FIFO"   # open the write end so the daemon's stdin stays live
for _ in $(seq 1 100); do
    grep -q "listening on" "$DAEMON_LOG" && break
    sleep 0.1
done
DAEMON_ADDR=$(sed -n 's|.*http://||p' "$DAEMON_LOG" | head -1)
[[ -n "$DAEMON_ADDR" ]] || { echo "ci: capmaestrod never announced its port" >&2; cat "$DAEMON_LOG" >&2; exit 1; }
curl -fsS --max-time 10 "http://$DAEMON_ADDR/v1/metrics"  > /dev/null
curl -fsS --max-time 10 "http://$DAEMON_ADDR/v1/healthz"  > /dev/null
curl -fsS --max-time 10 "http://$DAEMON_ADDR/v1/report"   > /dev/null
curl -fsS --max-time 10 -X POST --data '[1240]' "http://$DAEMON_ADDR/v1/budget" > /dev/null
timeout 60s ./target/release/capmaestrod --probe "$DAEMON_ADDR"

# Versioned-API smoke: declare a tree budget through /v1 with an
# idempotency key, see the event in the log, wait for the reconciler to
# converge the live plane at a round boundary, then retry the identical
# request and require an idempotent replay (exactly one event appended).
ci_put_budget() {
    curl -fsS --max-time 10 -X PUT -H "Idempotency-Key: ci-roll-1" \
        --data '{"watts": 1200}' "http://$DAEMON_ADDR/v1/trees/0/budget"
}
FIRST_PUT=$(ci_put_budget)
grep -q '"replayed":false' <<<"$FIRST_PUT" \
    || { echo "ci: first /v1 PUT was not a fresh append: $FIRST_PUT" >&2; exit 1; }
EVENTS=$(curl -fsS --max-time 10 "http://$DAEMON_ADDR/v1/events")
grep -q '"type":"set_tree_budget"' <<<"$EVENTS" \
    || { echo "ci: /v1/events does not show the staged budget: $EVENTS" >&2; exit 1; }
HEAD_BEFORE=$(sed -n 's|^{"head":\([0-9]*\).*|\1|p' <<<"$EVENTS")
APPLIED=""
for _ in $(seq 1 120); do
    APPLIED=$(curl -fsS --max-time 5 "http://$DAEMON_ADDR/v1/report" \
        | sed -n 's|.*tree_root_watts{tree=[^}]*}", "value": \([0-9.]*\)}.*|\1|p')
    [[ "$APPLIED" == "1200" ]] && break
    sleep 0.25
done
[[ "$APPLIED" == "1200" ]] \
    || { echo "ci: reconciler never applied the declared 1200 W budget (saw '$APPLIED')" >&2; exit 1; }
RETRY_PUT=$(ci_put_budget)
grep -q '"replayed":true' <<<"$RETRY_PUT" \
    || { echo "ci: /v1 PUT retry was not replayed: $RETRY_PUT" >&2; exit 1; }
HEAD_AFTER=$(curl -fsS --max-time 10 "http://$DAEMON_ADDR/v1/events" \
    | sed -n 's|^{"head":\([0-9]*\).*|\1|p')
[[ "$HEAD_BEFORE" == "$HEAD_AFTER" ]] \
    || { echo "ci: idempotent retry appended an event ($HEAD_BEFORE -> $HEAD_AFTER)" >&2; exit 1; }
echo "ci: versioned-api smoke ok"

# Trace smoke: pull the live Perfetto document off /v1/trace and run it
# through the strict validator (trace_check --check fails unless the
# document parses, shows slices for all six round phases, and carries at
# least four counter tracks).
TRACE_DOWNLOAD=$(mktemp)
curl -fsS --max-time 10 "http://$DAEMON_ADDR/v1/trace" > "$TRACE_DOWNLOAD"
curl -fsS --max-time 10 "http://$DAEMON_ADDR/v1/trace?last_s=30" > /dev/null
cargo run --release -q --example trace_check -- --check "$TRACE_DOWNLOAD"
echo "ci: trace smoke ok"

echo quit >&9
exec 9>&-
wait "$DAEMON_PID"
[[ -s "$DAEMON_OPLOG" ]] \
    || { echo "ci: --oplog never persisted any events" >&2; exit 1; }
[[ -s "$DAEMON_TRACE" ]] \
    || { echo "ci: --trace never persisted a trace document" >&2; exit 1; }
cargo run --release -q --example trace_check -- --check "$DAEMON_TRACE"
rm -f "$DAEMON_FIFO" "$DAEMON_LOG" "$DAEMON_OPLOG" "$DAEMON_TRACE" "$TRACE_DOWNLOAD"
echo "ci: serving-mode smoke ok"

# Partition-soak smoke: a room controller in-process against 4 real
# capmaestro-agent processes, with a seeded kill/SIGSTOP schedule; the
# bench exits non-zero if any invariant (budget conservation, agent
# world audits, recovery from fail-safe within the quiet tail) breaks.
cargo build --release -q -p capmaestro-serve --bin capmaestro-agent
cargo run --release -q -p capmaestro-bench --bin partition -- \
    --smoke --out BENCH_partition_smoke.json

# Distributed control-plane smoke: capmaestrod as room controller plus
# two rack-agent processes over real sockets, splitting budgets with a
# non-default allocator on both sides of the cut. Kill one agent and the
# fail-safe gauge must rise; restart it and the gauge must clear. Every
# step is wall-clock bounded so a wedged fleet fails CI instead of
# hanging it.
ROOM_LOG=$(mktemp); ROOM_FIFO=$(mktemp -u)
mkfifo "$ROOM_FIFO"
timeout 180s ./target/release/capmaestrod \
    --agents 2 --rig racks:2:2 --policy fair_share \
    --addr 127.0.0.1:0 --agent-addr 127.0.0.1:0 \
    --accel 0 --quit-on-stdin --wall-limit-s 150 \
    <"$ROOM_FIFO" >"$ROOM_LOG" 2>&1 &
ROOM_PID=$!
exec 8>"$ROOM_FIFO"
for _ in $(seq 1 100); do
    grep -q "listening on" "$ROOM_LOG" && break
    sleep 0.1
done
AGENT_ADDR=$(sed -n 's|^capmaestrod: agents connect to ||p' "$ROOM_LOG" | head -1)
ROOM_HTTP=$(sed -n 's|.*listening on http://||p' "$ROOM_LOG" | head -1)
[[ -n "$AGENT_ADDR" && -n "$ROOM_HTTP" ]] || { echo "ci: room controller never announced its ports" >&2; cat "$ROOM_LOG" >&2; exit 1; }
spawn_ci_agent() {
    ./target/release/capmaestro-agent --connect "$AGENT_ADDR" --worker "$1" \
        --workers-total 2 --rig racks:2:2 --max-connect-attempts 60 >/dev/null 2>&1 &
}
await_failsafe_gauge() { # $1: awk condition on the gauge value, $2: description
    for _ in $(seq 1 120); do
        v=$(curl -fsS --max-time 5 "http://$ROOM_HTTP/v1/metrics" \
            | awk '$1 == "capmaestro_worker_failsafe_cuts" {print $2}')
        if [[ -n "$v" ]] && awk -v v="$v" "BEGIN{exit !(v $1)}"; then return 0; fi
        sleep 0.25
    done
    echo "ci: /metrics never showed failsafe_cuts $1 ($2)" >&2
    return 1
}
spawn_ci_agent 0; AGENT0_PID=$!
spawn_ci_agent 1; AGENT1_PID=$!
await_failsafe_gauge "== 0" "healthy fleet after connect"
kill -9 "$AGENT0_PID"; wait "$AGENT0_PID" 2>/dev/null || true
await_failsafe_gauge "> 0" "fail-safe cut after agent kill"
spawn_ci_agent 0; AGENT0_PID=$!
await_failsafe_gauge "== 0" "recovery after agent restart"
echo quit >&8
exec 8>&-
wait "$ROOM_PID"
wait "$AGENT0_PID" 2>/dev/null || true
wait "$AGENT1_PID" 2>/dev/null || true
rm -f "$ROOM_FIFO" "$ROOM_LOG"
echo "ci: distributed control-plane smoke ok"

# Perf-ledger smoke: the four benchmark workloads on small rigs (~20 s);
# exits non-zero unless the seed-1 simulation digests match
# benchmark/expected/*.smoke.seed1.digest and the operator-storm
# exactly-once / replay checks hold.
benchmark/run.sh --smoke > /dev/null
echo "ci: perf-ledger smoke ok"

echo "ci: ok"
