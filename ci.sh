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
#   4. ringscope smoke — fig4_overall (8192 targets, so both workers own
#      batches) with --serve 127.0.0.1:0, asserting that /metrics serves
#      HTTP 200 with the ringsampler_ metric families, that worker 0's
#      sampled-edge counter and the /progress fleet's sampled_edges rise
#      above 0 before the run and its linger end (a snapshot publishing
#      zeros fails here), that /metrics carries a stage="wait" stage-time
#      sample for worker 0 and for worker 1, that /progress names the
#      dominant stage, and that /healthz reports ok while the run is live
#   5. ringtrace smoke — a small fig4_overall with --trace-events and
#      --stats-json. Its flight-recorder dump is fed through the ringtrace
#      analyzer with --assert-coverage 0.99: per-stage attribution
#      (sample/plan/submit/wait/reap/scatter) sums to the end-to-end batch
#      latency exactly unless the recorder dropped events (see DESIGN.md
#      §12). Its report document must conserve the stage clock: in every
#      report the six stage_nanos sum exactly to
#      histograms.batch_latency.sum_nanos, the in-batch wall, and at least
#      one report's sum is non-zero. Run once under the default naive plan
#      and once with RS_READ_PLAN=coalesce, so the planner's own stage is
#      held to both checks too; each dump is also exported with
#      `ringtrace --chrome`, the one producer of a Chrome trace, which must
#      carry traceEvents and a worker-0 lane
#   6. config-surface ratchet — the distinct RS_* / RINGSAMPLER_* names in
#      crates/**/*.rs may not exceed 7 (33 before the ring-mode ladder was
#      removed, 25 before the RS_CONGESTION_* overrides were, 17 before
#      plan_compare and prof_compare were, 10 before RS_TRACE_EVENTS, which
#      duplicated the --trace-events flag, was, 9 before RS_SERVE, which
#      duplicated --serve, and RS_TRACE_CAPACITY were), the pub fields of
#      SamplerConfig may not exceed 11 (19 before PRs 16-22, 14 before
#      profile_resources became always-on, 13 before the pipeline mode
#      became the constant depth 2, 12 before the flight recorder became
#      always-on at 8192 events) and those of TelemetryConfig
#      2 (4 before stall_threshold and history_capacity became constants),
#      and the lint exemptions (`#[expect(` in crates/*/src) may not exceed
#      9 (14 allow comments before clippy held the invariants, 10 until the
#      ceiling caught up with the count): lower a ceiling when a knob or an
#      exemption goes, never raise it
#   7. ringbench gate — benchmark/check.sh (build + every workload at 1/16
#      size, untraced and traced, on seeds 1 and 2: samples checked against
#      the graph, one digest across the epoch_skew_* workloads, metric names
#      checked against BENCHMARK.json), then one `ringbench --quick` pass
#      whose epoch_skew_coalesce peak RSS must stay within 1.5x of
#      epoch_skew_naive's: a planned fetch may not hold more than the
#      naive one (see DESIGN.md §9); whose epoch_skew_naive peak RSS must
#      stay within 1.3x of ondemand_skew_b1's: one-target requests hold no
#      layer-sized scratch, so the ratio is what a worker keeps per layer
#      of a 1024-seed batch, and a worker holds a group of a layer, not the
#      layer (DESIGN.md §9); whose epoch_skew_cached peak RSS may exceed
#      epoch_skew_coalesce's by at most 1.5x the quick cache budget (2 MiB):
#      the hot set is paid once per sampler, not per thread or epoch; and
#      whose epoch_uniform_cold cpu_ns_per_edge must stay within 1.35x
#      epoch_skew_naive's: a missing page is read once, by one span per
#      same-page run (DESIGN.md §11). Five quick runs per side put the
#      ratio at 1.51-1.81 with one 4-byte read per draw on cold pages and
#      at 0.62-1.10 with spans (EXPERIMENTS.md, "Read a missing page once")
#
# No gate writes a tracked file: the experiment binaries of gates 4-5 run
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
echo "==> ringscope smoke (fig4_overall --serve, live /metrics + /progress + /healthz)"
# 8192 targets = 8 batches of 1024: both workers own batches, so both
# publish stage time.
serve_fig4 8192
METRICS="$(curl -fsS "http://$ADDR/metrics")" || fail "/metrics not serving"
echo "$METRICS" | grep -q "^ringsampler_up 1$" || fail "/metrics missing ringsampler_up"
echo "$METRICS" | grep -q "^# TYPE ringsampler_workers gauge$" || fail "/metrics missing ringsampler_workers family"
# The families alone would pass a snapshot that published zeros: poll until
# worker 0's sampled edges and the fleet's are live and both workers carry
# a wait-stage sample, failing once the run and its linger have ended.
EDGES=0
FLEET_EDGES=0
WAITS=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
    # Capture rather than pipe into grep -q: under pipefail an early exit
    # would turn the write of the rest of the document into a failure.
    METRICS="$(curl -fsS "http://$ADDR/metrics" || true)"
    EDGES="$(echo "$METRICS" | sed -n 's/^ringsampler_worker_sampled_edges_total{worker="0"} //p')"
    WAITS="$(echo "$METRICS" | grep -cE '^ringsampler_worker_stage_nanos_total\{worker="[01]",stage="wait"\} ' || true)"
    FLEET_EDGES="$(curl -fsS "http://$ADDR/progress" | awk '/"fleet"/ { f = 1 } f && /"sampled_edges"/ { gsub(/[^0-9]/, ""); print; exit }' || true)"
    [ "${EDGES:-0}" -gt 0 ] && [ "${FLEET_EDGES:-0}" -gt 0 ] && [ "${WAITS:-0}" -eq 2 ] && break
    sleep 0.2
done
[ "${EDGES:-0}" -gt 0 ] || fail "/metrics: worker 0 published no sampled edge before the run ended"
[ "${FLEET_EDGES:-0}" -gt 0 ] || fail "/progress: fleet sampled_edges stayed 0 until the run ended"
[ "${WAITS:-0}" -eq 2 ] || { echo "$METRICS"; fail "/metrics: no stage=\"wait\" sample for both worker 0 and worker 1"; }
HEALTH_CODE="$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/healthz")"
[ "$HEALTH_CODE" = "200" ] || fail "/healthz returned $HEALTH_CODE"
PROGRESS="$(curl -fsS "http://$ADDR/progress")" || fail "/progress not serving"
echo "$PROGRESS" | grep -q '"fleet"' || fail "/progress missing fleet object"
echo "$PROGRESS" | grep -q '"dominant_stage"' || fail "/progress missing dominant_stage"
stop_fig4
echo "    ringscope smoke ok (/metrics and /progress counting edges, both workers' stage time, /progress dominant stage, /healthz)"

echo "==> ringtrace smoke (fig4_overall --trace-events --stats-json, stage coverage >= 99%, stage_nanos == batch wall and a Chrome export, naive and coalesced plans)"
for PLAN in off coalesce; do
    TRACE_DUMP="$(mktemp -d)/fig4-events.json"
    STATS="$(mktemp -d)/fig4-stats.json"
    RS_SCALE=100000 RS_TARGETS=200 RS_EPOCHS=1 RS_THREADS=2 RS_READ_PLAN="$PLAN" \
    RS_DATA_DIR="$(mktemp -d)" \
        "$BIN"/fig4_overall --trace-events "$TRACE_DUMP" --stats-json "$STATS" >/dev/null
    # The stage clock conserves: every report's six stage sums are exactly
    # its in-batch wall (the identity stage_clock_conserves_exactly holds),
    # and at least one report timed something.
    jq -e '[.reports[].report | {s: ([.stage_nanos[]] | add), w: .histograms.batch_latency.sum_nanos}]
           | all(.s == .w) and any(.s > 0)' "$STATS" >/dev/null \
        || { jq -c '.reports[] | [.label, .report.stage_nanos, .report.histograms.batch_latency.sum_nanos]' "$STATS"; \
             fail "--stats-json: stage_nanos do not sum to the batch wall under RS_READ_PLAN=$PLAN"; }
    "$BIN"/ringtrace "$TRACE_DUMP" --assert-coverage 0.99 >/dev/null \
        || fail "ringtrace: stage coverage below 99% under RS_READ_PLAN=$PLAN"
    CHROME_OUT="$(mktemp -d)/fig4-chrome.json"
    "$BIN"/ringtrace "$TRACE_DUMP" --chrome "$CHROME_OUT" >/dev/null \
        || fail "ringtrace --chrome failed under RS_READ_PLAN=$PLAN"
    grep -q '"traceEvents"' "$CHROME_OUT" || fail "ringtrace --chrome: no traceEvents under RS_READ_PLAN=$PLAN"
    grep -q '/worker-0"' "$CHROME_OUT" || fail "ringtrace --chrome: no worker-0 lane under RS_READ_PLAN=$PLAN"
done
echo "    ringtrace smoke ok (stage attribution covers >= 99% of batch time, stage_nanos sum to the batch wall, Chrome export has worker lanes, under both plans)"

echo "==> config-surface ratchet (RS_*/RINGSAMPLER_* names <= 7, SamplerConfig fields <= 11, TelemetryConfig fields <= 2, #[expect( <= 9)"
KNOBS="$(grep -rhoE '\b(RS|RINGSAMPLER)_[A-Z0-9_]*[A-Z0-9]\b' "$ROOT/crates" --include='*.rs' | sort -u)"
[ "$(echo "$KNOBS" | wc -l)" -le 7 ] || { echo "$KNOBS"; fail "more than 7 env knob names under crates/"; }
# pub_fields FILE STRUCT: the `pub` fields declared in STRUCT's body.
pub_fields() {
    awk -v s="pub struct $2 {" '$0 ~ s { on = 1; next } on && /^}/ { exit } on && /^    pub [a-z_0-9]+:/ { n++ } END { print n + 0 }' "$1"
}
N_SAMPLER="$(pub_fields "$ROOT/crates/core/src/config.rs" SamplerConfig)"
N_TELEMETRY="$(pub_fields "$ROOT/crates/core/src/telemetry.rs" TelemetryConfig)"
[ "$N_SAMPLER" -ge 1 ] && [ "$N_TELEMETRY" -ge 1 ] || fail "config-surface ratchet found no SamplerConfig/TelemetryConfig fields"
[ "$N_SAMPLER" -le 11 ] || fail "SamplerConfig has $N_SAMPLER pub fields (ceiling 11)"
[ "$N_TELEMETRY" -le 2 ] || fail "TelemetryConfig has $N_TELEMETRY pub fields (ceiling 2)"
N_EXPECT="$(grep -rhF '#[expect(' "$ROOT"/crates/*/src --include='*.rs' | wc -l || true)"
[ "$N_EXPECT" -le 9 ] || fail "crates/*/src has $N_EXPECT #[expect( exemptions (ceiling 9)"

cd "$ROOT"
echo "==> ringbench gate (benchmark/check.sh + quick coalesce/naive, naive/on-demand and cached/coalesce peak RSS, cold/naive CPU per edge)"
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
cpu_of() { echo "$QUICK" | awk -v w="$1:" '$1 == w { on = 1 } on && $1 == "cpu_ns_per_edge" { print $2; exit }'; }
CPU_NAIVE="$(cpu_of epoch_skew_naive)"
CPU_COLD="$(cpu_of epoch_uniform_cold)"
[ -n "$CPU_NAIVE" ] && [ -n "$CPU_COLD" ] || { echo "$QUICK"; echo "ringbench --quick printed no cpu_ns_per_edge"; exit 1; }
awk -v c="$CPU_COLD" -v n="$CPU_NAIVE" 'BEGIN { exit !(c <= 1.35 * n) }' \
    || { echo "epoch_uniform_cold $CPU_COLD ns/edge > 1.35 x epoch_skew_naive $CPU_NAIVE ns/edge: cold pages are read per draw"; exit 1; }
echo "    ringbench gate ok (cold $CPU_COLD ns/edge vs naive $CPU_NAIVE ns/edge: a missing page is read once)"

echo "CI: all gates passed."
