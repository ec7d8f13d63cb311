#!/usr/bin/env bash
# CI gate for the RingSampler workspace. Runs the full verification
# pipeline and stops at the first failure:
#
#   1. release build of every crate
#   2. the complete test suite (unit + integration + property tests)
#   3. clippy with warnings denied
#   4. ringlint — the workspace invariant checker (see DESIGN.md §7),
#      whose hot-path scope covers the read planner (crates/core/src/plan.rs)
#   5. ringlint baseline gate — the JSON report diffed against the
#      committed ringlint-baseline.json (see DESIGN.md §11): new
#      violations or stale `ringlint: allow` comments fail CI even if
#      someone grows the baseline by hand
#   6. plan_compare smoke — the read-plan ablation on a tiny graph, with
#      RS_PLAN_ASSERT enforcing the >= 20% SQE-reduction floor and
#      byte-identical samples across all plan modes
#   7. ringscope smoke — fig4_overall with --serve 127.0.0.1:0, asserting
#      that /metrics serves HTTP 200 with the ringsampler_ metric families
#      and /healthz reports ok while the run is live
#   8. ringtrace smoke — a small fig4_overall with --trace-events, whose
#      flight-recorder dump is fed through the ringtrace analyzer with
#      --assert-coverage 0.90: per-stage attribution (sample/plan/submit/
#      wait/reap/scatter) must sum to within 10% of the end-to-end batch
#      latency (see DESIGN.md §12)
#   9. env-surface ratchet — the distinct RS_* / RINGSAMPLER_* names in
#      crates/**/*.rs may not exceed 17 (33 before the ring-mode ladder was
#      removed, 25 before the RS_CONGESTION_* overrides were; ROADMAP item 5
#      wants <= 15): lower the ceiling when a knob goes, never raise it
#  10. ringtop gate — a small fig4_overall with --serve, asserting that
#      /history serves the per-worker time series, /congestion serves
#      verdicts, and `ringtop --once` renders a frame with every worker
#      present and judged ok once the fleet idles (see DESIGN.md §14)
#  11. ringprof gate — prof_compare with RS_PROF_ASSERT (read
#      amplification >= 1.0 uncached, strictly lower cached, and
#      byte-identical samples with profiling on vs off), then a small
#      fig4_overall with profiling on asserting, from one read of
#      /resources once the run has finished, that every worker's time
#      ledger conserves (stage buckets sum exactly to in-batch wall) and
#      the attribution is served, and `ringtop --once` renders the CPU
#      column and the ledger bar (see DESIGN.md §15)
#  12. ringbench gate — benchmark/check.sh (build + every workload at 1/16
#      size, untraced and traced, on seeds 1 and 2: samples checked against
#      the graph, one digest across the epoch_skew_* workloads, metric names
#      checked against BENCHMARK.json), then one `ringbench --quick` pass
#      whose epoch_skew_coalesce peak RSS must stay within 1.5x of
#      epoch_skew_naive's: a planned fetch may not hold more than the
#      naive one (see DESIGN.md §9)
#
# No gate writes a tracked file: the experiment binaries of gates 6-11 run
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
cargo test -q --workspace

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ringlint (workspace, incl. crates/ringstat hot-path recorders)"
cargo run -q -p ringlint

echo "==> ringlint baseline gate (--json --baseline ringlint-baseline.json)"
cargo run -q -p ringlint -- --json --baseline ringlint-baseline.json >/dev/null

cd "$(mktemp -d)"
echo "==> plan_compare smoke (tiny graph, RS_PLAN_ASSERT)"
RS_PLAN_NODES=2000 RS_PLAN_EDGES=20000 RS_TARGETS=500 RS_THREADS=2 \
RS_PLAN_ASSERT=1 RS_DATA_DIR="$(mktemp -d)" \
    "$BIN"/plan_compare

echo "==> ringscope smoke (fig4_overall --serve, live /metrics + /healthz)"
SCOPE_LOG="$(mktemp)"
RS_SCALE=100000 RS_TARGETS=200 RS_EPOCHS=1 RS_THREADS=2 \
RS_SERVE_LINGER=20 RS_DATA_DIR="$(mktemp -d)" \
    "$BIN"/fig4_overall --serve 127.0.0.1:0 >/dev/null 2>"$SCOPE_LOG" &
SCOPE_PID=$!
# The server announces its bound address (port 0 picks a free port).
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's#^ringscope listening on http://##p' "$SCOPE_LOG" | head -n1)"
    [ -n "$ADDR" ] && break
    kill -0 "$SCOPE_PID" 2>/dev/null || { cat "$SCOPE_LOG"; echo "fig4_overall exited before serving"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] && echo "    ringscope bound at $ADDR" || { cat "$SCOPE_LOG"; echo "no listening announcement"; exit 1; }
METRICS="$(curl -fsS "http://$ADDR/metrics")" || { echo "/metrics not serving"; kill "$SCOPE_PID"; exit 1; }
echo "$METRICS" | grep -q "^ringsampler_up 1$" || { echo "/metrics missing ringsampler_up"; kill "$SCOPE_PID"; exit 1; }
echo "$METRICS" | grep -q "^# TYPE ringsampler_workers gauge$" || { echo "/metrics missing ringsampler_workers family"; kill "$SCOPE_PID"; exit 1; }
HEALTH_CODE="$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/healthz")"
[ "$HEALTH_CODE" = "200" ] || { echo "/healthz returned $HEALTH_CODE"; kill "$SCOPE_PID"; exit 1; }
curl -fsS "http://$ADDR/progress" | grep -q '"fleet"' || { echo "/progress missing fleet object"; kill "$SCOPE_PID"; exit 1; }
kill "$SCOPE_PID" 2>/dev/null || true
wait "$SCOPE_PID" 2>/dev/null || true
echo "    ringscope smoke ok (/metrics, /healthz, /progress)"

echo "==> ringtrace smoke (fig4_overall --trace-events, stage coverage >= 90%)"
TRACE_DUMP="$(mktemp -d)/fig4-events.json"
RS_SCALE=100000 RS_TARGETS=200 RS_EPOCHS=1 RS_THREADS=2 \
RS_DATA_DIR="$(mktemp -d)" \
    "$BIN"/fig4_overall --trace-events "$TRACE_DUMP" >/dev/null
"$BIN"/ringtrace "$TRACE_DUMP" --assert-coverage 0.90 >/dev/null
echo "    ringtrace smoke ok (stage attribution covers >= 90% of batch time)"

echo "==> env-surface ratchet (distinct RS_*/RINGSAMPLER_* names in crates/ <= 17)"
KNOBS="$(grep -rhoE '\b(RS|RINGSAMPLER)_[A-Z0-9_]*[A-Z0-9]\b' "$ROOT/crates" --include='*.rs' | sort -u)"
[ "$(echo "$KNOBS" | wc -l)" -le 17 ] || { echo "$KNOBS"; echo "more than 17 env knob names under crates/"; exit 1; }

echo "==> ringtop gate (fig4_overall --serve, /history + /congestion + ringtop --once)"
TOP_LOG="$(mktemp)"
# 8192 targets = 8 batches of 1024: both workers own batches, so both
# appear in /history and must converge to an ok verdict.
RS_SCALE=100000 RS_TARGETS=8192 RS_EPOCHS=1 RS_THREADS=2 \
RS_SERVE_LINGER=20 RS_DATA_DIR="$(mktemp -d)" \
    "$BIN"/fig4_overall --serve 127.0.0.1:0 >/dev/null 2>"$TOP_LOG" &
TOP_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's#^ringscope listening on http://##p' "$TOP_LOG" | head -n1)"
    [ -n "$ADDR" ] && break
    kill -0 "$TOP_PID" 2>/dev/null || { cat "$TOP_LOG"; echo "fig4_overall exited before serving"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] && echo "    ringscope bound at $ADDR" || { cat "$TOP_LOG"; echo "no listening announcement"; exit 1; }
curl -fsS "http://$ADDR/history?window=32" | grep -q '"workers"' || { echo "/history missing workers array"; kill "$TOP_PID"; exit 1; }
curl -fsS "http://$ADDR/congestion" | grep -q '"fleet"' || { echo "/congestion missing fleet rollup"; kill "$TOP_PID"; exit 1; }
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
[ -n "$FRAME" ] || { echo "ringtop --once never rendered an all-ok two-worker frame"; "$BIN"/ringtop --once "$ADDR" || true; kill "$TOP_PID"; exit 1; }
echo "$FRAME" | grep -q '^fleet:' || { echo "ringtop frame missing fleet roll-up"; kill "$TOP_PID"; exit 1; }
# Capture rather than pipe: under pipefail an early-exiting grep -q
# would otherwise turn the (large) JSON dump into a SIGPIPE failure.
TOP_JSON="$("$BIN"/ringtop --once --json "$ADDR")"
echo "$TOP_JSON" | grep -q '"history"' || { echo "ringtop --json missing history document"; kill "$TOP_PID"; exit 1; }
echo "$TOP_JSON" | grep -q '"resources"' || { echo "ringtop --json missing resources document"; kill "$TOP_PID"; exit 1; }
kill "$TOP_PID" 2>/dev/null || true
wait "$TOP_PID" 2>/dev/null || true
echo "    ringtop gate ok (/history, /congestion, ringtop --once all-ok frame)"

echo "==> ringprof gate (prof_compare RS_PROF_ASSERT + fig4_overall /resources ledger)"
RS_PROF_NODES=2000 RS_PROF_EDGES=20000 RS_THREADS=2 \
RS_PROF_ASSERT=1 RS_DATA_DIR="$(mktemp -d)" \
    "$BIN"/prof_compare
PROF_LOG="$(mktemp)"
RS_SCALE=100000 RS_TARGETS=8192 RS_EPOCHS=1 RS_THREADS=2 \
RS_SERVE_LINGER=20 RS_DATA_DIR="$(mktemp -d)" \
    "$BIN"/fig4_overall --serve 127.0.0.1:0 >/dev/null 2>"$PROF_LOG" &
PROF_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's#^ringscope listening on http://##p' "$PROF_LOG" | head -n1)"
    [ -n "$ADDR" ] && break
    kill -0 "$PROF_PID" 2>/dev/null || { cat "$PROF_LOG"; echo "fig4_overall exited before serving"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] && echo "    ringscope bound at $ADDR" || { cat "$PROF_LOG"; echo "no listening announcement"; exit 1; }
# Wait for the run to finish (it announces its linger), then read the last
# epoch's attribution once: every worker's stage buckets must sum exactly
# to its in-batch wall (the JSON carries the verdict as "conserved").
for _ in $(seq 1 300); do
    grep -q '^ringscope lingering' "$PROF_LOG" && break
    kill -0 "$PROF_PID" 2>/dev/null || { cat "$PROF_LOG"; echo "fig4_overall exited before lingering"; exit 1; }
    sleep 0.2
done
RES="$(curl -fsS "http://$ADDR/resources")" || { echo "/resources not serving"; kill "$PROF_PID"; exit 1; }
echo "$RES" | grep -q '"workers"' || { echo "/resources missing workers"; echo "$RES"; kill "$PROF_PID"; exit 1; }
echo "$RES" | grep -q '"conserved": true' && ! echo "$RES" | grep -q '"conserved": false' \
    || { echo "/resources: a ledger does not conserve"; echo "$RES"; kill "$PROF_PID"; exit 1; }
echo "$RES" | grep -q '"read_amplification"' || { echo "/resources missing read_amplification"; kill "$PROF_PID"; exit 1; }
# The dashboard must render the ringprof columns from the live feed.
PROF_FRAME="$("$BIN"/ringtop --once "$ADDR")"
echo "$PROF_FRAME" | grep -q '^  cpu        |' || { echo "ringtop frame missing CPU column"; echo "$PROF_FRAME"; kill "$PROF_PID"; exit 1; }
echo "$PROF_FRAME" | grep -q '^  ledger     |' || { echo "ringtop frame missing ledger bar"; echo "$PROF_FRAME"; kill "$PROF_PID"; exit 1; }
kill "$PROF_PID" 2>/dev/null || true
wait "$PROF_PID" 2>/dev/null || true
echo "    ringprof gate ok (amplification A/B, conserving ledgers, /resources, ringtop CPU column)"

cd "$ROOT"
echo "==> ringbench gate (benchmark/check.sh + quick coalesce/naive peak RSS)"
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

echo "CI: all gates passed."
