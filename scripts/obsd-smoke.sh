#!/usr/bin/env bash
# obsd-smoke: end-to-end check of the live-telemetry path. Builds
# pipeline-stats, starts it in -serve mode on a random port with the
# symbolic detection backend selected, scrapes /metrics and /healthz
# (failing on non-200 or an empty exposition), asserts /debug/phases
# reports the active isl and detection backends, waits for the
# continuous sampler to accumulate at least two samples in
# /debug/series, then interrupts the process and expects a clean
# shutdown. Wired into `make check` as the obsd-smoke target.
set -euo pipefail

GO=${GO:-go}
tmp=$(mktemp -d)
pid=""

cleanup() {
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
    echo "obsd-smoke: FAIL: $*" >&2
    echo "--- server log ---" >&2
    cat "$tmp/serve.log" >&2 || true
    exit 1
}

echo "obsd-smoke: building pipeline-stats"
"$GO" build -o "$tmp/pipeline-stats" ./cmd/pipeline-stats

"$tmp/pipeline-stats" -serve 127.0.0.1:0 -kernel P4 -n 8 -size 2 -work 0 \
    -backend symbolic \
    -serve-period 50ms -sample-interval 50ms >"$tmp/serve.log" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#^serving on http://\([^ ]*\).*#\1#p' "$tmp/serve.log" | head -1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || fail "server exited before binding"
    sleep 0.1
done
[ -n "$addr" ] && echo "obsd-smoke: serving on $addr" || fail "no bound address in server output"

curl -fsS "http://$addr/healthz" >"$tmp/healthz" || fail "/healthz scrape failed"
grep -q ok "$tmp/healthz" || fail "/healthz did not answer ok"

curl -fsS "http://$addr/metrics" >"$tmp/metrics" || fail "/metrics scrape failed"
[ -s "$tmp/metrics" ] || fail "/metrics exposition is empty"
grep -q '^# TYPE detect_statements counter' "$tmp/metrics" || fail "/metrics missing the detect family"
grep -q '^# TYPE runtime_executed counter' "$tmp/metrics" || fail "/metrics missing the runtime family"
grep -q '_bucket{le="+Inf"}' "$tmp/metrics" || fail "/metrics missing histogram buckets"
grep -q '^# TYPE detect_backend_symbolic counter' "$tmp/metrics" || fail "/metrics missing the detect.backend.symbolic counter"

curl -fsS "http://$addr/debug/phases" >"$tmp/phases" || fail "/debug/phases scrape failed"
grep -q '"isl_backend": "' "$tmp/phases" || fail "/debug/phases does not name the isl backend"
grep -q '"detect_backend": "symbolic"' "$tmp/phases" || fail "/debug/phases does not report the symbolic detection backend"

samples=0
for _ in $(seq 1 100); do
    samples=$(curl -fsS "http://$addr/debug/series" | grep -o '"when"' | wc -l)
    [ "$samples" -ge 2 ] && break
    sleep 0.1
done
[ "$samples" -ge 2 ] || fail "/debug/series has $samples samples, want >= 2"

kill -INT "$pid"
wait "$pid" || fail "server exited non-zero on SIGINT"
pid=""
grep -q 'shutting down after' "$tmp/serve.log" || fail "no graceful-shutdown message"

echo "obsd-smoke: OK ($samples samples, $(grep -c '^# TYPE' "$tmp/metrics") metric families)"
