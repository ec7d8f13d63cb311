#!/usr/bin/env bash
# CI gate for the RingSampler workspace. Runs the full verification
# pipeline and stops at the first failure:
#
#   1. release build of every crate
#   2. the complete test suite (unit + integration + property tests), with
#      TMPDIR under target/ so the cold-file engine tests write to the build
#      filesystem: on tmpfs POSIX_FADV_DONTNEED drops nothing, and those
#      tests fail rather than skip when their file stayed cached
#   3. clippy with warnings denied, which also holds the hot-path
#      invariants (DESIGN.md §7): every unsafe block and unsafe fn is
#      documented (workspace-wide); each hot-path file's first line denies
#      locks, channels, blocking I/O, epoch-boundary resource reads,
#      unwrap/expect/panic!/indexing and plain #[allow] outside tests
#      (clippy.toml lists the banned types and calls), and its exemptions
#      are reasoned #[expect]s that fail once stale; crates/io and
#      crates/core also deny discarding a #[must_use] value (`let _ =`,
#      `.ok()`) outside tests
#   4. ringscope smoke — fig4_overall with --serve 127.0.0.1:0, asserting
#      that /metrics serves HTTP 200 with the ringsampler_ metric families,
#      that worker 0's sampled-edge counter and the /progress fleet's
#      sampled_edges rise above 0 before the run and its linger end (a
#      snapshot publishing zeros fails here), and that /healthz reports ok
#      while the run is live
#   5. ringtrace smoke — a small fig4_overall with --trace-events, whose
#      flight-recorder dump is fed through the ringtrace analyzer with
#      --assert-coverage 0.99: per-stage attribution (sample/plan/submit/
#      wait/reap/scatter) sums to the end-to-end batch latency exactly
#      unless the recorder dropped events (see DESIGN.md §12); run once
#      under the default naive plan and once with RS_READ_PLAN=coalesce,
#      so the planner's own stage is held to the ledger too; each dump is
#      also exported with `ringtrace --chrome`, the one producer of a
#      Chrome trace, which must carry traceEvents and a worker-0 lane
#   6. config-surface ratchet — the distinct RS_* / RINGSAMPLER_* names in
#      crates/**/*.rs may not exceed 9 (33 before the ring-mode ladder was
#      removed, 25 before the RS_CONGESTION_* overrides were, 17 before
#      plan_compare and prof_compare were, 10 before RS_TRACE_EVENTS, which
#      duplicated the --trace-events flag, was), the pub fields of SamplerConfig
#      may not exceed 13 (19 before PRs 16-22, 14 before profile_resources
#      became always-on) and those of TelemetryConfig
#      2 (4 before stall_threshold and history_capacity became constants),
#      and the lint exemptions (`#[expect(` in crates/*/src) may not exceed
#      10 (14 allow comments before clippy held the invariants):
#      lower a ceiling when a knob or an exemption goes, never raise it
#   7. ringtop gate — a small fig4_overall with --serve, asserting that
#      /history serves the per-worker time series, /congestion serves
#      verdicts, and `ringtop --once` renders a frame with every worker
#      present and judged ok once the fleet idles (see DESIGN.md §14)
#   8. ringprof gate — a small fig4_overall with profiling on asserting,
#      from one read of /resources once the run has finished, that every
#      worker's time ledger conserves (stage buckets sum exactly to
#      in-batch wall) and the attribution is served, and `ringtop --once`
#      renders the CPU column and the ledger bar (see DESIGN.md §15)
#   9. ringbench gate — benchmark/check.sh (build + every workload at 1/16
#      size, untraced and traced, on seeds 1 and 2: samples checked against
#      the graph, one digest across the epoch_skew_* workloads, metric names
#      checked against BENCHMARK.json), then one `ringbench --quick` pass
#      whose epoch_skew_coalesce peak RSS must stay within 1.5x of
#      epoch_skew_naive's: a planned fetch may not hold more than the
#      naive one (see DESIGN.md §9); whose epoch_skew_naive peak RSS must
#      stay within 1.3x of ondemand_skew_b1's: one-target requests hold no
#      layer-sized scratch, so the ratio is what a worker keeps per layer
#      of a 1024-seed batch, and a worker holds a group of a layer, not the
#      layer (DESIGN.md §9); and whose epoch_skew_cached peak RSS may exceed
#      epoch_skew_coalesce's by at most 1.5x the quick cache budget (2 MiB):
#      the hot set is paid once per sampler, not per thread or epoch
#
# No gate writes a tracked file: the experiment binaries of gates 4-8 run
# with their cwd in a scratch directory (emit_table writes results/<name>.txt
# relative to cwd), so `git status --porcelain` is empty after a pass.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"
ROOT="$PWD"
BIN="$ROOT/target/release"

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
mkdir -p "$ROOT/target/tmp"
TMPDIR="$ROOT/target/tmp" cargo test -q --workspace

echo "==> cargo clippy (-D warnings; hot-path invariants, DESIGN.md §7)"
cargo clippy --workspace --all-targets -- -D warnings

# Launches a small fig4_overall ($1 targets) serving on a free port, in the
# background, and waits for the address it announces: sets SERVE_PID,
# SERVE_LOG and ADDR. `fail` and the EXIT trap stop it; the trap also puts
# back benchmark/Cargo.lock once the ringbench gate has set BENCH_LOCK.
SERVE_PID=""
BENCH_LOCK=""
on_exit() {
    [ -z "$SERVE_PID" ] || kill "$SERVE_PID" 2>/dev/null || true
    [ -z "$BENCH_LOCK" ] || cp "$BENCH_LOCK" "$ROOT/benchmark/Cargo.lock"
}
trap on_exit EXIT
fail() { echo "$1"; exit 1; }
serve_fig4() {
    SERVE_LOG="$(mktemp)"
    RS_SCALE=100000 RS_TARGETS="$1" RS_EPOCHS=1 RS_THREADS=2 \
    RS_SERVE_LINGER=20 RS_DATA_DIR="$(mktemp -d)" \
        "$BIN"/fig4_overall --serve 127.0.0.1:0 >/dev/null 2>"$SERVE_LOG" &
    SERVE_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's#^ringscope listening on http://##p' "$SERVE_LOG" | head -n1)"
        [ -n "$ADDR" ] && break
        kill -0 "$SERVE_PID" 2>/dev/null || { cat "$SERVE_LOG"; fail "fig4_overall exited before serving"; }
        sleep 0.1
    done
    [ -n "$ADDR" ] || { cat "$SERVE_LOG"; fail "no listening announcement"; }
    echo "    ringscope bound at $ADDR"
}
stop_fig4() {
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
    SERVE_PID=""
}

cd "$(mktemp -d)"
echo "==> ringscope smoke (fig4_overall --serve, live /metrics + /healthz)"
serve_fig4 200
METRICS="$(curl -fsS "http://$ADDR/metrics")" || fail "/metrics not serving"
echo "$METRICS" | grep -q "^ringsampler_up 1$" || fail "/metrics missing ringsampler_up"
echo "$METRICS" | grep -q "^# TYPE ringsampler_workers gauge$" || fail "/metrics missing ringsampler_workers family"
# The families alone would pass a snapshot that published zeros: poll until
# worker 0's sampled edges and the fleet's are live, failing once the run
# and its linger have ended.
EDGES=0
FLEET_EDGES=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
    EDGES="$(curl -fsS "http://$ADDR/metrics" | sed -n 's/^ringsampler_worker_sampled_edges_total{worker="0"} //p' || true)"
    FLEET_EDGES="$(curl -fsS "http://$ADDR/progress" | awk '/"fleet"/ { f = 1 } f && /"sampled_edges"/ { gsub(/[^0-9]/, ""); print; exit }' || true)"
    [ "${EDGES:-0}" -gt 0 ] && [ "${FLEET_EDGES:-0}" -gt 0 ] && break
    sleep 0.2
done
[ "${EDGES:-0}" -gt 0 ] || fail "/metrics: worker 0 published no sampled edge before the run ended"
[ "${FLEET_EDGES:-0}" -gt 0 ] || fail "/progress: fleet sampled_edges stayed 0 until the run ended"
HEALTH_CODE="$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/healthz")"
[ "$HEALTH_CODE" = "200" ] || fail "/healthz returned $HEALTH_CODE"
curl -fsS "http://$ADDR/progress" | grep -q '"fleet"' || fail "/progress missing fleet object"
stop_fig4
echo "    ringscope smoke ok (/metrics and /progress counting edges, /healthz)"

echo "==> ringtrace smoke (fig4_overall --trace-events, stage coverage >= 99% and a Chrome export, naive and coalesced plans)"
for PLAN in off coalesce; do
    TRACE_DUMP="$(mktemp -d)/fig4-events.json"
    RS_SCALE=100000 RS_TARGETS=200 RS_EPOCHS=1 RS_THREADS=2 RS_READ_PLAN="$PLAN" \
    RS_DATA_DIR="$(mktemp -d)" \
        "$BIN"/fig4_overall --trace-events "$TRACE_DUMP" >/dev/null
    "$BIN"/ringtrace "$TRACE_DUMP" --assert-coverage 0.99 >/dev/null \
        || fail "ringtrace: stage coverage below 99% under RS_READ_PLAN=$PLAN"
    CHROME_OUT="$(mktemp -d)/fig4-chrome.json"
    "$BIN"/ringtrace "$TRACE_DUMP" --chrome "$CHROME_OUT" >/dev/null \
        || fail "ringtrace --chrome failed under RS_READ_PLAN=$PLAN"
    grep -q '"traceEvents"' "$CHROME_OUT" || fail "ringtrace --chrome: no traceEvents under RS_READ_PLAN=$PLAN"
    grep -q '/worker-0"' "$CHROME_OUT" || fail "ringtrace --chrome: no worker-0 lane under RS_READ_PLAN=$PLAN"
done
echo "    ringtrace smoke ok (stage attribution covers >= 99% of batch time, Chrome export has worker lanes, under both plans)"

echo "==> config-surface ratchet (RS_*/RINGSAMPLER_* names <= 9, SamplerConfig fields <= 13, TelemetryConfig fields <= 2, #[expect( <= 10)"
KNOBS="$(grep -rhoE '\b(RS|RINGSAMPLER)_[A-Z0-9_]*[A-Z0-9]\b' "$ROOT/crates" --include='*.rs' | sort -u)"
[ "$(echo "$KNOBS" | wc -l)" -le 9 ] || { echo "$KNOBS"; fail "more than 9 env knob names under crates/"; }
# pub_fields FILE STRUCT: the `pub` fields declared in STRUCT's body.
pub_fields() {
    awk -v s="pub struct $2 {" '$0 ~ s { on = 1; next } on && /^}/ { exit } on && /^    pub [a-z_0-9]+:/ { n++ } END { print n + 0 }' "$1"
}
N_SAMPLER="$(pub_fields "$ROOT/crates/core/src/config.rs" SamplerConfig)"
N_TELEMETRY="$(pub_fields "$ROOT/crates/core/src/telemetry.rs" TelemetryConfig)"
[ "$N_SAMPLER" -ge 1 ] && [ "$N_TELEMETRY" -ge 1 ] || fail "config-surface ratchet found no SamplerConfig/TelemetryConfig fields"
[ "$N_SAMPLER" -le 13 ] || fail "SamplerConfig has $N_SAMPLER pub fields (ceiling 13)"
[ "$N_TELEMETRY" -le 2 ] || fail "TelemetryConfig has $N_TELEMETRY pub fields (ceiling 2)"
N_EXPECT="$(grep -rhF '#[expect(' "$ROOT"/crates/*/src --include='*.rs' | wc -l || true)"
[ "$N_EXPECT" -le 10 ] || fail "crates/*/src has $N_EXPECT #[expect( exemptions (ceiling 10)"

echo "==> ringtop gate (fig4_overall --serve, /history + /congestion + ringtop --once)"
# 8192 targets = 8 batches of 1024: both workers own batches, so both
# appear in /history and must converge to an ok verdict.
serve_fig4 8192
curl -fsS "http://$ADDR/history?window=32" | grep -q '"workers"' || fail "/history missing workers array"
curl -fsS "http://$ADDR/congestion" | grep -q '"fleet"' || fail "/congestion missing fleet rollup"
# Once the run winds down the fleet idles, and an idle fleet must judge
# all-ok: poll ringtop --once until the frame shows both workers ok.
FRAME=""
for _ in $(seq 1 100); do
    FRAME="$("$BIN"/ringtop --once "$ADDR" 2>/dev/null || true)"
    if echo "$FRAME" | grep -q '^worker 0 \[ok\]' && echo "$FRAME" | grep -q '^worker 1 \[ok\]'; then
        break
    fi
    FRAME=""
    sleep 0.2
done
[ -n "$FRAME" ] || { "$BIN"/ringtop --once "$ADDR" || true; fail "ringtop --once never rendered an all-ok two-worker frame"; }
echo "$FRAME" | grep -q '^fleet:' || fail "ringtop frame missing fleet roll-up"
# Capture rather than pipe: under pipefail an early-exiting grep -q
# would otherwise turn the (large) JSON dump into a SIGPIPE failure.
TOP_JSON="$("$BIN"/ringtop --once --json "$ADDR")"
echo "$TOP_JSON" | grep -q '"history"' || fail "ringtop --json missing history document"
echo "$TOP_JSON" | grep -q '"resources"' || fail "ringtop --json missing resources document"
stop_fig4
echo "    ringtop gate ok (/history, /congestion, ringtop --once all-ok frame)"

echo "==> ringprof gate (fig4_overall /resources ledger + ringtop CPU column)"
serve_fig4 8192
# Wait for the run to finish (it announces its linger), then read the last
# epoch's attribution once: every worker's stage buckets must sum exactly
# to its in-batch wall (the JSON carries the verdict as "conserved").
for _ in $(seq 1 300); do
    grep -q '^ringscope lingering' "$SERVE_LOG" && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$SERVE_LOG"; fail "fig4_overall exited before lingering"; }
    sleep 0.2
done
RES="$(curl -fsS "http://$ADDR/resources")" || fail "/resources not serving"
echo "$RES" | grep -q '"workers"' || { echo "$RES"; fail "/resources missing workers"; }
echo "$RES" | grep -q '"conserved": true' && ! echo "$RES" | grep -q '"conserved": false' \
    || { echo "$RES"; fail "/resources: a ledger does not conserve"; }
echo "$RES" | grep -q '"read_amplification"' || fail "/resources missing read_amplification"
# The dashboard must render the ringprof columns from the live feed.
PROF_FRAME="$("$BIN"/ringtop --once "$ADDR")"
echo "$PROF_FRAME" | grep -q '^  cpu        |' || { echo "$PROF_FRAME"; fail "ringtop frame missing CPU column"; }
echo "$PROF_FRAME" | grep -q '^  ledger     |' || { echo "$PROF_FRAME"; fail "ringtop frame missing ledger bar"; }
stop_fig4
echo "    ringprof gate ok (conserving ledgers, /resources, ringtop CPU column)"

cd "$ROOT"
echo "==> ringbench gate (benchmark/check.sh + quick coalesce/naive, naive/on-demand and cached/coalesce peak RSS)"
# benchmark/ changes only in [benchmark] PRs, so its Cargo.lock can trail the
# crates' manifests (crates/io no longer depends on ringstat); cargo then
# rewrites it while building. The EXIT trap puts the committed bytes back,
# whether or not the gate passes.
LOCK_COPY="$(mktemp)"
cp benchmark/Cargo.lock "$LOCK_COPY"
BENCH_LOCK="$LOCK_COPY"
benchmark/check.sh
QUICK="$("${CARGO_TARGET_DIR:-benchmark/target}/release/ringbench" --quick)" || { echo "$QUICK"; echo "ringbench --quick failed"; exit 1; }
# Every workload's block opens with "<name>: <why>" and lists one metric a line.
rss_of() { echo "$QUICK" | awk -v w="$1:" '$1 == w { on = 1 } on && $1 == "peak_rss_mb" { print $2; exit }'; }
RSS_NAIVE="$(rss_of epoch_skew_naive)"
RSS_COALESCE="$(rss_of epoch_skew_coalesce)"
[ -n "$RSS_NAIVE" ] && [ -n "$RSS_COALESCE" ] || { echo "$QUICK"; echo "ringbench --quick printed no peak_rss_mb"; exit 1; }
awk -v c="$RSS_COALESCE" -v n="$RSS_NAIVE" 'BEGIN { exit !(c <= 1.5 * n) }' \
    || { echo "epoch_skew_coalesce peak RSS $RSS_COALESCE MB > 1.5 x epoch_skew_naive $RSS_NAIVE MB"; exit 1; }
echo "    ringbench gate ok (coalesce $RSS_COALESCE MB vs naive $RSS_NAIVE MB at quick size)"
RSS_ONDEMAND="$(rss_of ondemand_skew_b1)"
[ -n "$RSS_ONDEMAND" ] || { echo "$QUICK"; echo "ringbench --quick printed no ondemand_skew_b1 peak_rss_mb"; exit 1; }
awk -v n="$RSS_NAIVE" -v o="$RSS_ONDEMAND" 'BEGIN { exit !(n <= 1.3 * o) }' \
    || { echo "epoch_skew_naive peak RSS $RSS_NAIVE MB > 1.3 x ondemand_skew_b1 $RSS_ONDEMAND MB: a worker holds a layer"; exit 1; }
echo "    ringbench gate ok (naive $RSS_NAIVE MB vs on-demand $RSS_ONDEMAND MB: a worker holds a group, not a layer)"
# The quick cache budget is CACHE_BYTES / QUICK_DIV = 2 MiB (benchmark/src/spec.rs).
RSS_CACHED="$(rss_of epoch_skew_cached)"
[ -n "$RSS_CACHED" ] || { echo "$QUICK"; echo "ringbench --quick printed no epoch_skew_cached peak_rss_mb"; exit 1; }
awk -v c="$RSS_CACHED" -v k="$RSS_COALESCE" 'BEGIN { exit !(c - k <= 1.5 * 2 * 1048576 / 1e6) }' \
    || { echo "epoch_skew_cached peak RSS $RSS_CACHED MB exceeds epoch_skew_coalesce $RSS_COALESCE MB by more than 1.5 x the 2 MiB cache"; exit 1; }
echo "    ringbench gate ok (cached $RSS_CACHED MB vs coalesce $RSS_COALESCE MB: one 2 MiB hot set)"

echo "CI: all gates passed."
