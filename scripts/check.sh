#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite, then
# smoke-test the telemetry surface end to end (CLI --metrics-out JSON
# with the invariants docs/OBSERVABILITY.md promises). CI runs this;
# run it locally before sending a change.
#
#   scripts/check.sh [--skip-build]
#
# BUILD_DIR (default: build) selects the tree; extra cmake options go
# through CMAKE_OPTS.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
CMAKE_OPTS="${CMAKE_OPTS:-}"
SKIP_BUILD=0
[[ "${1:-}" == "--skip-build" ]] && SKIP_BUILD=1

if [[ "$SKIP_BUILD" -eq 0 ]]; then
  echo "== configure + build"
  # shellcheck disable=SC2086  # CMAKE_OPTS is intentionally word-split.
  cmake -B "$BUILD_DIR" -S . $CMAKE_OPTS
  cmake --build "$BUILD_DIR" -j
fi

echo "== tests"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -LE fuzz_replay

# Fuzz replay: each libFuzzer harness, linked with fuzz/replay_main.cc,
# runs every corpus file (fuzz/corpus/*, data/corrupt) plus fixed-seed
# mutations of it, so the harnesses run here without clang's libFuzzer.
echo "== fuzz replay"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L fuzz_replay

echo "== telemetry smoke"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$BUILD_DIR/tools/hematch_cli" --method=all \
  --metrics-out="$tmp/metrics.json" data/dept_a.tr data/dept_b.csv \
  > "$tmp/cli.out"

python3 - "$tmp/metrics.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "hematch.run_metrics.v1", doc.get("schema")
assert doc["runs"], "no runs in metrics document"
for run in doc["runs"]:
    slug = "".join(c.lower() if c.isalnum() else "_" for c in run["method"])
    slug = "_".join(p for p in slug.split("_") if p)
    counters = run["telemetry"]["counters"]
    for field in ("mappings_processed", "nodes_visited"):
        name = f"{slug}.{field}"
        assert counters.get(name) == run[field], (
            f"{run['method']}: {name}={counters.get(name)} "
            f"but MatchResult says {run[field]}")
    assert run["elapsed_ms"] >= 0.0
print(f"ok: {len(doc['runs'])} runs, per-run counters match MatchResult")
EOF

echo "== portfolio smoke"
"$BUILD_DIR/tools/hematch_cli" --portfolio --deadline-ms=2000 \
  --metrics-out="$tmp/portfolio.json" data/dept_a.tr data/dept_b.csv \
  > "$tmp/portfolio.out"

python3 - "$tmp/portfolio.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
run = doc["runs"][0]
assert run["method"] == "portfolio", run["method"]
assert run["stages"], "no per-strategy stages recorded"
counters = run["telemetry"]["counters"]
gauges = run["telemetry"]["gauges"]
assert counters.get("portfolio.launched", 0) >= 1, counters
assert gauges.get("portfolio.strategies") == len(run["stages"]), gauges
assert gauges.get("portfolio.elapsed_ms", -1.0) >= 0.0, gauges
print(f"ok: portfolio raced {len(run['stages'])} strategies")
EOF

# Crash drill: a persistent injected crash in the exact strategy must
# leave the process alive and the race winning with a heuristic result
# (docs/ROBUSTNESS.md, "Hedged portfolio execution").
HEMATCH_FAULT_EXHAUST_AFTER=5 HEMATCH_FAULT_CRASH=1 \
  HEMATCH_FAULT_STRATEGY=pattern-tight \
  "$BUILD_DIR/tools/hematch_cli" --portfolio --deadline-ms=2000 \
  --metrics-out="$tmp/portfolio_crash.json" data/dept_a.tr data/dept_b.csv \
  > "$tmp/portfolio_crash.out"

python3 - "$tmp/portfolio_crash.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
run = doc["runs"][0]
by_method = {s["method"]: s["termination"] for s in run["stages"]}
assert by_method.get("Pattern-Tight") == "failed", by_method
assert "completed" in by_method.values(), by_method
assert run["objective"] > 0.0, "no best-of-strategies result returned"
print("ok: exact strategy crashed in isolation, heuristic result returned")
EOF

# Span-trace smoke: a traced portfolio run must produce a Perfetto-
# loadable Chrome trace whose strategy spans hang under one run root on
# distinct threads, and hematch_trace must profile it (self/total time,
# critical path, thread utilization — docs/OBSERVABILITY.md, "Tracing").
# On a loaded (or single-core) machine a cancelled straggler strategy
# may not be scheduled again before the trace exports, dropping its
# span — that is abandonment working as designed, not a trace bug, so
# the smoke retries a few times rather than flaking.
echo "== span trace smoke"
span_ok=0
for attempt in 1 2 3; do
  "$BUILD_DIR/tools/hematch_cli" --portfolio --deadline-ms=2000 \
    --trace-out="$tmp/trace.json" data/dept_a.tr data/dept_b.csv \
    > "$tmp/trace.out"
  if python3 - "$tmp/trace.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["otherData"]["schema"] == "hematch.trace.v1", doc.get("otherData")
events = doc["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
roots = [e for e in spans if e["name"] == "portfolio.run"]
assert len(roots) == 1, f"expected one portfolio.run root, got {len(roots)}"
root_id = roots[0]["args"]["span_id"]
strategies = [e for e in spans if e["name"].startswith("portfolio.strategy.")]
assert len(strategies) >= 3, [e["name"] for e in strategies]
for s in strategies:
    assert s["args"]["parent_id"] == root_id, s["name"]
tids = {s["tid"] for s in strategies}
assert len(tids) >= 3, f"strategies shared threads: {tids}"
print(f"ok: {len(strategies)} strategy spans under one run root "
      f"on {len(tids)} threads ({len(events)} events)")
EOF
  then
    span_ok=1
    break
  fi
  echo "span trace smoke: straggler span abandoned (attempt $attempt), retrying"
done
[[ "$span_ok" -eq 1 ]]

"$BUILD_DIR/tools/hematch_trace" "$tmp/trace.json" > "$tmp/trace_report.out"
grep -q "hottest spans" "$tmp/trace_report.out"
grep -q "critical path" "$tmp/trace_report.out"
grep -q "thread utilization" "$tmp/trace_report.out"
echo "ok: hematch_trace profiled the run"

# Frequency-engine differential + speedup gate: legacy and vectorized
# modes must agree on every support, and the vectorized engine must hold
# a healthy lead (the committed Release baseline in bench/baselines/
# shows >3x; 1.5x here absorbs debug builds and noisy CI machines).
if [[ -x "$BUILD_DIR/bench/bench_freq" ]]; then
  echo "== frequency engine"
  HEMATCH_BENCH_METRICS_DIR="$tmp" "$BUILD_DIR/bench/bench_freq" 2

  python3 - "$tmp/BENCH_freq.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "hematch.bench_freq.v1", doc.get("schema")
assert doc["supports_match"] is True, "legacy/vectorized supports disagree"
assert doc["speedup"] >= 1.5, f"vectorized speedup only {doc['speedup']:.2f}x"
pre = doc["precompute"]
assert pre["sequential_ms"] >= 0.0 and pre["parallel_ms"] >= 0.0
print(f"ok: vectorized {doc['speedup']:.1f}x over legacy, supports identical")
EOF
fi

# Exact-search differential + speedup gate: the parallel matcher and
# its reductions must certify the sequential baseline's exact objective
# and hold a healthy lead on the Fig. 9/10 bus workload with decoy
# vocabulary (the committed Release baseline in bench/baselines/ shows
# >4x; 1.5x here absorbs noisy and single-core machines).
if [[ -x "$BUILD_DIR/bench/bench_search" ]]; then
  echo "== parallel search"
  HEMATCH_BENCH_METRICS_DIR="$tmp" "$BUILD_DIR/bench/bench_search" 11 8 24

  python3 - "$tmp/BENCH_search.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "hematch.bench_search.v1", doc.get("schema")
assert doc["objectives_match"] is True, "certified objectives disagree"
for mode in ("sequential", "reduced", "parallel"):
    assert doc["modes"][mode]["certified"] is True, f"{mode} not certified"
assert doc["speedup"] >= 1.5, f"parallel speedup only {doc['speedup']:.2f}x"
print(f"ok: parallel exact search {doc['speedup']:.1f}x over sequential "
      f"(reductions alone {doc['reduction_speedup']:.1f}x), objectives match")
EOF
fi

# Noise-recovery gate: sweep corruption rates on the bus workload and
# hold the recovery floor (docs/ROBUSTNESS.md, "Dirty logs and partial
# mappings"): perfect recovery on clean input, >= 0.9 through moderate
# noise, and no cliff before the documented fallback point.
if [[ -x "$BUILD_DIR/bench/bench_noise" ]]; then
  echo "== noise recovery"
  HEMATCH_BENCH_METRICS_DIR="$tmp" "$BUILD_DIR/bench/bench_noise" 400

  python3 - "$tmp/BENCH_noise.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "hematch.bench_noise.v1", doc.get("schema")
points = doc["points"]
assert points, "no sweep points recorded"
assert points[0]["rate"] == 0.0, "first point must be the clean run"
f = [p["pair_f"] for p in points]
assert f[0] >= 0.9, f"clean-run recovery F only {f[0]:.3f}"
for p in points:
    if p["rate"] <= 0.3:
        assert p["pair_f"] >= 0.9, (
            f"recovery F {p['pair_f']:.3f} at low noise rate {p['rate']}")
best = f[0]
for prev, point in zip(points, points[1:]):
    assert point["pair_f"] <= best + 0.1, (
        f"recovery F rose from {prev['pair_f']:.3f} to "
        f"{point['pair_f']:.3f} at rate {point['rate']} — "
        "non-monotone degradation")
    best = max(best, point["pair_f"])
clean = points[0]
assert clean["dropped_events"] == 0, "clean point was corrupted"
assert clean["truth_unmapped"] == 0, "clean point planted nulls"
print(f"ok: recovery F {f[0]:.2f} clean -> {f[-1]:.2f} at rate "
      f"{points[-1]['rate']} across {len(points)} points")
EOF
fi

# Serve overload gate: closed-loop clients at 2x admission capacity
# must lose nothing — every request served or explicitly
# overload-rejected, zero transport failures, p99 inside the
# queue-envelope bound (docs/ROBUSTNESS.md, "Serving and overload").
if [[ -x "$BUILD_DIR/bench/bench_serve" ]]; then
  echo "== serve overload"
  HEMATCH_BENCH_METRICS_DIR="$tmp" "$BUILD_DIR/bench/bench_serve"

  python3 - "$tmp/BENCH_serve.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "hematch.bench_serve.v1", doc.get("schema")
assert doc["all_requests_accounted"] is True, doc
assert doc["transport_failures"] == 0, doc["transport_failures"]
assert doc["rejected_overload"] > 0, "overload was never exercised"
assert doc["p99_within_bound"] is True, (
    f"p99 {doc['p99_ms']:.1f} ms > bound {doc['latency_bound_ms']:.1f} ms")
sc = doc["server_counters"]
assert sc["rejected_overload"] == doc["rejected_overload"], sc
print(f"ok: {doc['served']}/{doc['workload']['requests']} served, "
      f"{doc['rejected_overload']} explicit rejections, "
      f"p99 {doc['p99_ms']:.1f} ms")
EOF
fi

# Bench gate: fail on a >30% regression of this run's headline numbers
# against the committed baselines (override via HEMATCH_BENCH_TOLERANCE
# for noisy machines). Only gates the benches that actually ran above.
# --dry-run: a check run measures whatever is in the working tree, so it
# must not add a point to the tracked bench/history.jsonl.
if compgen -G "$tmp/BENCH_*.json" > /dev/null; then
  echo "== bench gate"
  python3 scripts/bench_history.py --bench-dir "$tmp" --label check --dry-run
fi

# Serve fault drill: a real hematch_serve process with injected crashes
# must answer every request (ok-degraded or INTERNAL, never a hang or
# dropped connection), then drain cleanly on SIGTERM with a final
# telemetry snapshot (docs/ROBUSTNESS.md, "Serving and overload").
echo "== serve fault drill"
HEMATCH_FAULT_EXHAUST_AFTER=5 HEMATCH_FAULT_CRASH=1 \
  "$BUILD_DIR/tools/hematch_serve" --port=0 --workers=2 \
  --port-file="$tmp/serve.port" --final-snapshot="$tmp/serve_final.json" \
  > "$tmp/serve.out" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 50); do
  [[ -s "$tmp/serve.port" ]] && break
  sleep 0.1
done
[[ -s "$tmp/serve.port" ]] || { echo "server never wrote its port"; exit 1; }
SERVE_PORT="$(cat "$tmp/serve.port")"

"$BUILD_DIR/tools/hematch_client" --port="$SERVE_PORT" \
  register log_a data/dept_a.tr > /dev/null
"$BUILD_DIR/tools/hematch_client" --port="$SERVE_PORT" \
  register log_b data/dept_b.csv > /dev/null
MATCH_PIDS=()
for i in 1 2 3 4; do
  "$BUILD_DIR/tools/hematch_client" --port="$SERVE_PORT" \
    --deadline-ms=2000 match log_a log_b > "$tmp/serve_match_$i.json" &
  MATCH_PIDS+=($!)
done
for pid in "${MATCH_PIDS[@]}"; do
  wait "$pid" || true  # Exit 4 = server-side rejection; still an answer.
done

python3 - "$tmp"/serve_match_*.json <<'EOF'
import json
import sys

answered = crashed_isolated = 0
for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.loads(f.read().strip())
    answered += 1
    if doc["ok"]:
        assert doc["termination"], doc
    else:
        assert doc["error"]["code"] == "INTERNAL", doc
        crashed_isolated += 1
assert answered == 4, f"only {answered}/4 requests answered"
print(f"ok: 4/4 answered under fault injection "
      f"({crashed_isolated} isolated crashes)")
EOF

kill -TERM "$SERVE_PID"
if wait "$SERVE_PID"; then SERVE_EXIT=0; else SERVE_EXIT=$?; fi
[[ "$SERVE_EXIT" -eq 0 ]] || { echo "serve exit $SERVE_EXIT"; exit 1; }
grep -q "drained cleanly" "$tmp/serve.out"

python3 - "$tmp/serve_final.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
counters = doc["counters"]
serve = {k: v for k, v in counters.items() if k.startswith("serve.")}
assert serve, "final snapshot has no serve.* counters"
assert counters.get("serve.accepted", 0) >= 4, serve
assert counters.get("serve.connections", 0) >= 6, serve
print(f"ok: drained on SIGTERM, final snapshot has "
      f"{len(serve)} serve counters")
EOF

# Request-scoped observability drill (docs/OBSERVABILITY.md): a live
# server with trace sampling, a structured access log, and a Prometheus
# endpoint under mixed load. Then: recover one request's span tree from
# the trace ring by request id, scrape the endpoint and validate the
# exposition format, and check the sampler kept roughly the configured
# fraction while force-capturing every degraded request.
echo "== serve observability drill"
"$BUILD_DIR/tools/hematch_serve" --port=0 --workers=2 \
  --port-file="$tmp/obs.port" \
  --trace-dir="$tmp/obs_traces" --trace-sample-rate=0.5 \
  --access-log="$tmp/obs_access.jsonl" \
  --metrics-port=0 --metrics-port-file="$tmp/obs.mport" \
  > "$tmp/obs_serve.out" 2>&1 &
OBS_PID=$!
for _ in $(seq 1 50); do
  [[ -s "$tmp/obs.port" && -s "$tmp/obs.mport" ]] && break
  sleep 0.1
done
[[ -s "$tmp/obs.port" && -s "$tmp/obs.mport" ]] || {
  echo "obs server never wrote its ports"; exit 1; }
OBS_PORT="$(cat "$tmp/obs.port")"
OBS_MPORT="$(cat "$tmp/obs.mport")"

"$BUILD_DIR/tools/hematch_client" --port="$OBS_PORT" \
  register log_a data/dept_a.tr > /dev/null
"$BUILD_DIR/tools/hematch_client" --port="$OBS_PORT" \
  register log_b data/dept_b.csv > /dev/null
# Mixed load: 40 clean matches (the sampling population), 4 that budget
# out on a one-expansion cap (degraded, so force-captured), one tagged
# with a correlation id.
"$BUILD_DIR/tools/hematch_client" --port="$OBS_PORT" \
  load log_a log_b --requests=40 --concurrency=4 > "$tmp/obs_load.out"
"$BUILD_DIR/tools/hematch_client" --port="$OBS_PORT" --max-expansions=1 \
  load log_a log_b --requests=4 --concurrency=2 > /dev/null
"$BUILD_DIR/tools/hematch_client" --port="$OBS_PORT" \
  --correlation-id=obs-drill match log_a log_b > "$tmp/obs_match.json"
grep -q '"correlation_id":"obs-drill"' "$tmp/obs_match.json"

python3 - "$tmp/obs_access.jsonl" <<'EOF' > "$tmp/obs_pick"
import json
import os
import sys

entries = []
with open(sys.argv[1]) as f:
    for line in f:
        entry = json.loads(line)
        assert entry["schema"] == "hematch.access.v1", entry
        entries.append(entry)

ids = [e["request_id"] for e in entries]
assert len(ids) == len(set(ids)), "request ids are not unique"
tagged = [e for e in entries
          if e["op"] == "match" and e["correlation_id"] == "obs-drill"]
assert len(tagged) == 1, f"{len(tagged)} entries carry the correlation id"

matches = [e for e in entries
           if e["op"] == "match" and e["admission"] == "admitted"]
clean = [m for m in matches if m["ok"] and m["termination"] == "completed"]
degraded = [m for m in matches
            if not m["ok"] or m["termination"] != "completed"]

# Force capture: every degraded request has a trace on disk.
assert len(degraded) >= 4, f"only {len(degraded)} degraded requests"
for m in degraded:
    assert m["sampled"] and m["trace_file"], m
    assert os.path.exists(m["trace_file"]), m["trace_file"]

# Sampling: ~half the clean requests kept (rate 0.5; the bound is
# > 4 sigma for n = 41, deterministic in the server-assigned ids).
sampled = [m for m in clean if m["sampled"]]
fraction = len(sampled) / len(clean)
assert 0.15 <= fraction <= 0.85, (
    f"sampling rate 0.5 produced {len(sampled)}/{len(clean)}")
for m in sampled:
    assert m["trace_file"] and os.path.exists(m["trace_file"]), m

pick = sampled[0] if sampled else degraded[0]
print(pick["request_id"], pick["trace_file"])
print(f"ok: access log parsed ({len(entries)} entries), "
      f"{len(sampled)}/{len(clean)} clean sampled, "
      f"{len(degraded)} degraded force-captured", file=sys.stderr)
EOF
read -r OBS_REQ OBS_TRACE < "$tmp/obs_pick"

"$BUILD_DIR/tools/hematch_trace" --request "$OBS_REQ" "$OBS_TRACE" \
  > "$tmp/obs_tree.txt"
grep -q "serve.request" "$tmp/obs_tree.txt"
grep -Eq "match\.|pipeline\." "$tmp/obs_tree.txt"
echo "ok: recovered request $OBS_REQ span tree from the trace ring"

# Scrape the live endpoint and validate the exposition text: metric
# name charset, monotone cumulative buckets with a +Inf bucket equal
# to _count, and the windowed p99 / shed-rate series.
python3 - "$OBS_MPORT" <<'EOF'
import re
import sys
import urllib.request

with urllib.request.urlopen(
        f"http://127.0.0.1:{sys.argv[1]}/metrics", timeout=10) as resp:
    assert resp.status == 200, resp.status
    assert resp.headers["Content-Type"].startswith("text/plain"), (
        resp.headers["Content-Type"])
    text = resp.read().decode()

NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")
samples = {}   # name -> value (last wins; no duplicates expected)
buckets = {}   # base -> list of (le, count) in document order
histograms = set()
for line in text.splitlines():
    if not line:
        continue
    if line.startswith("#"):
        parts = line.split()
        assert parts[:2] == ["#", "TYPE"] and len(parts) == 4, line
        assert NAME.match(parts[2]), line
        if parts[3] == "histogram":
            histograms.add(parts[2])
        continue
    m = SAMPLE.match(line)
    assert m, f"unparseable sample line: {line!r}"
    name, labels, value = m.group(1), m.group(2) or "", m.group(3)
    assert name.startswith("hematch_"), name
    if name.endswith("_bucket"):
        le = re.match(r'^\{le="([^"]+)"\}$', labels)
        assert le, line
        bound = float("inf") if le.group(1) == "+Inf" else float(le.group(1))
        buckets.setdefault(name[:-len("_bucket")], []).append(
            (bound, int(value)))
    else:
        assert not labels, f"unexpected labels: {line!r}"
        samples[name] = float(value)

assert histograms, "no histogram series"
for base in histograms:
    series = buckets.get(base)
    assert series, f"{base}: TYPE histogram but no _bucket samples"
    les = [le for le, _ in series]
    counts = [c for _, c in series]
    assert les == sorted(les), f"{base}: le not ascending"
    assert counts == sorted(counts), f"{base}: buckets not cumulative"
    assert les[-1] == float("inf"), f"{base}: missing +Inf bucket"
    assert samples[base + "_count"] == counts[-1], (
        f"{base}: _count {samples[base + '_count']} != +Inf {counts[-1]}")
    assert base + "_sum" in samples, f"{base}: missing _sum"

assert samples.get("hematch_serve_completed_w60_total", 0) > 0
p99 = samples["hematch_serve_latency_ms_w60_p99"]
assert p99 > 0, "windowed p99 is zero after a 40-request load"
shed_rate = samples["hematch_serve_shed_rate_w60"]
assert 0.0 <= shed_rate <= 1.0, shed_rate
assert "hematch_serve_latency_ms_w60" in histograms
print(f"ok: exposition valid ({len(samples)} samples, "
      f"{len(histograms)} histograms), windowed p99 {p99:.2f} ms, "
      f"shed rate {shed_rate:.2f}")
EOF

"$BUILD_DIR/tools/hematch_client" --port="$OBS_PORT" drain > /dev/null
if wait "$OBS_PID"; then OBS_EXIT=0; else OBS_EXIT=$?; fi
[[ "$OBS_EXIT" -eq 0 ]] || { echo "obs serve exit $OBS_EXIT"; exit 1; }
echo "ok: observability drill drained cleanly"

# Noise-drill smoke: the CLI must survive a corrupted input end to end —
# reproducible via --seed, salvaging the dirty CSV, matching under the
# partial objective, and reporting the corruption in the noise.* metrics.
echo "== noise drill"
"$BUILD_DIR/tools/hematch_cli" --method=pattern-tight \
  --corrupt='drop=0.3,dup=0.1,junk=2,junk_rate=0.2' --seed=7 \
  --partial-penalty=0.35 \
  --metrics-out="$tmp/noise_drill.json" data/dept_a.tr data/dept_b.csv \
  > "$tmp/noise_drill.out"

python3 - "$tmp/noise_drill.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
run = doc["runs"][0]
counters = run["telemetry"]["counters"]
noise = {k: v for k, v in counters.items() if k.startswith("noise.")}
assert noise, "corruption drill recorded no noise.* counters"
assert sum(noise.values()) > 0, noise
assert run["elapsed_ms"] >= 0.0
print(f"ok: noise drill survived ({len(noise)} noise counters recorded)")
EOF

echo "all checks passed"
