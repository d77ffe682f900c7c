#!/usr/bin/env bash
# Tier-1 gate: everything a clean checkout must pass, fully offline.
#
# The workspace has zero registry dependencies (see `xplace-testkit`), so
# this script never touches the network. Run it from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> multithreaded leg: pool, ops + fft suites, golden flow with threads > 1"
cargo test -q -p xplace-parallel
cargo test -q -p xplace-ops --test properties
cargo test -q -p xplace-fft --test parallel
cargo test -q --test golden_flow golden_flow_is_thread_count_invariant

echo "==> telemetry smoke: trace determinism across thread counts + artifact checks"
SMOKE=$(mktemp -d)
SERVE_PID=""
trap '[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null; rm -rf "$SMOKE"' EXIT
./target/release/xplace synth ci-smoke 300 --seed 3 --out "$SMOKE" >/dev/null
./target/release/xplace place "$SMOKE/ci-smoke.aux" --max-iters 120 --threads 1 \
    -o "$SMOKE/t1.pl" --trace "$SMOKE/t1.jsonl" --report "$SMOKE/t1.json" >/dev/null
./target/release/xplace place "$SMOKE/ci-smoke.aux" --max-iters 120 --threads 4 \
    -o "$SMOKE/t4.pl" --trace "$SMOKE/t4.jsonl" --report "$SMOKE/t4.json" >/dev/null
cmp "$SMOKE/t1.jsonl" "$SMOKE/t4.jsonl" \
    || { echo "FAIL: traces differ across thread counts" >&2; exit 1; }
./target/release/telemetry_check trace "$SMOKE/t1.jsonl"
./target/release/telemetry_check report "$SMOKE/t1.json"

echo "==> blocked-kernel parity: 5k-cell place, trace and placement across thread counts"
# The 300-cell smoke design fits one 2,048-net / 2,048-node block; this one
# splits the wirelength and density kernels into several blocks.
./target/release/xplace synth ci-blocked 5000 --seed 3 --out "$SMOKE" >/dev/null
for T in 1 2 4; do
    ./target/release/xplace place "$SMOKE/ci-blocked.aux" --max-iters 60 --threads "$T" \
        -o "$SMOKE/blocked-t$T.pl" --trace "$SMOKE/blocked-t$T.jsonl" >/dev/null
done
for T in 2 4; do
    cmp "$SMOKE/blocked-t1.jsonl" "$SMOKE/blocked-t$T.jsonl" \
        || { echo "FAIL: blocked-kernel traces differ at threads $T" >&2; exit 1; }
    cmp "$SMOKE/blocked-t1.pl" "$SMOKE/blocked-t$T.pl" \
        || { echo "FAIL: blocked-kernel placements differ at threads $T" >&2; exit 1; }
done

echo "==> batch smoke: 2-design batch, trace parity, batch gate, failure isolation"
cat > "$SMOKE/suite.json" <<EOF
{"jobs": [
  {"name": "s1", "aux": "$SMOKE/ci-smoke.aux", "max_iters": 120},
  {"name": "s2", "aux": "$SMOKE/ci-smoke.aux", "max_iters": 120, "seed": 7}
]}
EOF
./target/release/xplace batch "$SMOKE/suite.json" --threads 4 \
    --trace-dir "$SMOKE/batch-traces" --report "$SMOKE/batch1.json" >/dev/null
# Job s1 runs the same design/config as the serial place above: the batch
# trace must be byte-identical to the serial trace.
cmp "$SMOKE/batch-traces/s1.jsonl" "$SMOKE/t1.jsonl" \
    || { echo "FAIL: batch trace differs from the serial place trace" >&2; exit 1; }
./target/release/xplace batch "$SMOKE/suite.json" --threads 2 \
    --report "$SMOKE/batch2.json" >/dev/null
./target/release/check_regression "$SMOKE/batch1.json" "$SMOKE/batch2.json"
if ./target/release/check_regression "$SMOKE/batch1.json" "$SMOKE/batch2.json" \
    --inject-hpwl-pct 10 >/dev/null 2>&1; then
    echo "FAIL: the batch gate passed an injected +10% HPWL regression" >&2
    exit 1
fi
cat > "$SMOKE/fail-suite.json" <<EOF
{"jobs": [
  {"name": "fine",  "aux": "$SMOKE/ci-smoke.aux", "max_iters": 120},
  {"name": "crash", "aux": "$SMOKE/ci-smoke.aux", "max_iters": 120}
],
"faults": [{"target": "crash", "kind": "gp_panic", "iteration": 5}]}
EOF
if ./target/release/xplace batch "$SMOKE/fail-suite.json" --threads 2 \
    --report "$SMOKE/batch-fail.json" >"$SMOKE/batch-fail.out" 2>/dev/null; then
    echo "FAIL: a batch with a failing job exited zero" >&2
    exit 1
fi
grep -q "fine .*completed" "$SMOKE/batch-fail.out" \
    || { echo "FAIL: the healthy sibling did not complete" >&2; exit 1; }

echo "==> hostile input: a duplicated .nodes name fails at load time, never retried"
mkdir -p "$SMOKE/dup"
cp "$SMOKE"/ci-smoke.* "$SMOKE/dup/"
# Append a second copy of the first node record.
awk '$1 !~ /^(UCLA|NumNodes|NumTerminals)$/ && NF >= 3 { print; exit }' \
    "$SMOKE/ci-smoke.nodes" >> "$SMOKE/dup/ci-smoke.nodes"
set +e
./target/release/xplace place "$SMOKE/dup/ci-smoke.aux" --max-iters 30 \
    -o "$SMOKE/dup/out.pl" >/dev/null 2>"$SMOKE/dup/place.err"
CODE=$?
set -e
[ "$CODE" -eq 1 ] \
    || { echo "FAIL: place on a duplicated node exited $CODE, want 1" >&2; exit 1; }
grep -q "nodes parse error at line" "$SMOKE/dup/place.err" \
    || { echo "FAIL: place did not name the duplicated node's line" >&2; exit 1; }
cat > "$SMOKE/dup/suite.json" <<EOF
{"jobs": [{"name": "dup", "aux": "$SMOKE/dup/ci-smoke.aux", "max_iters": 30}], "retries": 2}
EOF
if ./target/release/xplace batch "$SMOKE/dup/suite.json" \
    --report "$SMOKE/dup/batch.json" >/dev/null 2>&1; then
    echo "FAIL: a batch with a duplicated node exited zero" >&2
    exit 1
fi
grep -q '"retries":0' "$SMOKE/dup/batch.json" \
    || { echo "FAIL: a load-time input error spent retries" >&2; exit 1; }

echo "==> hostile input: a NaN .wts weight and a zero-height .scl row fail at load time"
# Each poisoned copy: place must exit 1 naming the file kind and line, and
# a batch with a retry budget must spend none of it.
for CASE in wts scl; do
    mkdir -p "$SMOKE/$CASE"
    cp "$SMOKE"/ci-smoke.* "$SMOKE/$CASE/"
    if [ "$CASE" = wts ]; then
        NET=$(awk '$1 == "NetDegree" { print $4; exit }' "$SMOKE/ci-smoke.nets")
        echo "$NET nan" >> "$SMOKE/wts/ci-smoke.wts"
        WANT="wts parse error at line $(wc -l < "$SMOKE/wts/ci-smoke.wts")"
    else
        LINE=$(grep -n "Height" "$SMOKE/ci-smoke.scl" | head -n 1 | cut -d: -f1)
        sed -i "${LINE}s/Height : .*/Height : 0/" "$SMOKE/scl/ci-smoke.scl"
        WANT="scl parse error at line $LINE"
    fi
    set +e
    ./target/release/xplace place "$SMOKE/$CASE/ci-smoke.aux" --max-iters 30 \
        -o "$SMOKE/$CASE/out.pl" >/dev/null 2>"$SMOKE/$CASE/place.err"
    CODE=$?
    set -e
    [ "$CODE" -eq 1 ] \
        || { echo "FAIL: place on a hostile .$CASE exited $CODE, want 1" >&2; exit 1; }
    grep -q "$WANT" "$SMOKE/$CASE/place.err" \
        || { echo "FAIL: place did not report '$WANT'" >&2; exit 1; }
    cat > "$SMOKE/$CASE/suite.json" <<EOF
{"jobs": [{"name": "$CASE", "aux": "$SMOKE/$CASE/ci-smoke.aux", "max_iters": 30}], "retries": 2}
EOF
    if ./target/release/xplace batch "$SMOKE/$CASE/suite.json" \
        --report "$SMOKE/$CASE/batch.json" >/dev/null 2>&1; then
        echo "FAIL: a batch with a hostile .$CASE exited zero" >&2
        exit 1
    fi
    grep -q '"retries":0' "$SMOKE/$CASE/batch.json" \
        || { echo "FAIL: a hostile .$CASE spent retries" >&2; exit 1; }
done

echo "==> hostile input: a terminal_NI node is a fixed terminal, not a movable cell"
# ISPD 2015's non-image terminal: fixed by its .nodes keyword alone (the
# .pl line has no /FIXED), so place must write it where the .pl put it.
NI="$SMOKE/ni"
mkdir -p "$NI"
printf 'RowBasedPlacement : ni.nodes ni.nets ni.pl ni.scl\n' > "$NI/ni.aux"
printf 'UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n a 2 12\n b 2 12\n io 4 4 terminal_NI\n' \
    > "$NI/ni.nodes"
printf 'UCLA nets 1.0\nNumNets : 1\nNumPins : 3\nNetDegree : 3 n0\n a B : 0 0\n b B : 0 0\n io B : 0 0\n' \
    > "$NI/ni.nets"
printf 'UCLA pl 1.0\na 0 0 : N\nb 8 0 : N\nio 20 12 : N\n' > "$NI/ni.pl"
for Y in 0 12; do
    printf 'CoreRow Horizontal\n  Coordinate : %s\n  Height : 12\n  Sitewidth : 1\n  SubrowOrigin : 0 NumSites : 40\nEnd\n' "$Y"
done | { printf 'UCLA scl 1.0\nNumRows : 2\n'; cat; } > "$NI/ni.scl"
./target/release/xplace stats "$NI/ni.aux" | grep -q "(2 movable, 0 fixed, 1 terminals)" \
    || { echo "FAIL: stats does not count the terminal_NI node as a terminal" >&2; exit 1; }
./target/release/xplace place "$NI/ni.aux" --max-iters 30 -o "$NI/out.pl" >/dev/null
grep -q "^io 20.000000 12.000000 " "$NI/out.pl" \
    || { echo "FAIL: place moved the terminal_NI node" >&2; exit 1; }

echo "==> resume determinism: checkpointed place resumes byte-identically (threads 1, 4)"
for T in 1 4; do
    ./target/release/xplace place "$SMOKE/ci-smoke.aux" --max-iters 120 --threads "$T" \
        -o "$SMOKE/full-t$T.pl" --trace "$SMOKE/full-t$T.jsonl" \
        --checkpoint-every 50 --checkpoint-file "$SMOKE/ckpt-t$T.json" >/dev/null
    ./target/release/xplace place "$SMOKE/ci-smoke.aux" --max-iters 120 --threads "$T" \
        -o "$SMOKE/resumed-t$T.pl" --trace "$SMOKE/resumed-t$T.jsonl" \
        --resume-from "$SMOKE/ckpt-t$T.json" >/dev/null
    # Contract: the resumed trace, minus its run_start line, is a byte-exact
    # suffix of the uninterrupted trace, and the placement is identical.
    tail -n +2 "$SMOKE/resumed-t$T.jsonl" > "$SMOKE/resumed-tail-t$T.jsonl"
    N=$(wc -l < "$SMOKE/resumed-tail-t$T.jsonl")
    tail -n "$N" "$SMOKE/full-t$T.jsonl" > "$SMOKE/full-tail-t$T.jsonl"
    cmp "$SMOKE/resumed-tail-t$T.jsonl" "$SMOKE/full-tail-t$T.jsonl" \
        || { echo "FAIL: resumed trace is not a suffix of the full trace (threads $T)" >&2; exit 1; }
    cmp "$SMOKE/resumed-t$T.pl" "$SMOKE/full-t$T.pl" \
        || { echo "FAIL: resumed placement differs from the full run (threads $T)" >&2; exit 1; }
done
cmp "$SMOKE/resumed-t1.jsonl" "$SMOKE/resumed-t4.jsonl" \
    || { echo "FAIL: resumed traces differ across thread counts" >&2; exit 1; }

echo "==> chaos soak: seeded fault injection, retry recovery, client-drop conservation"
./target/release/chaos_soak --smoke

echo "==> serve smoke: daemon round trip, wire-vs-batch parity, soak, graceful drain"
./target/release/xplace serve --addr 127.0.0.1:0 --threads 4 >"$SMOKE/serve.log" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|^serving on http://\([^ ]*\) .*|\1|p' "$SMOKE/serve.log")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: daemon never reported its address" >&2; exit 1; }
./target/release/xplace submit "$SMOKE/suite.json" --addr "$ADDR" --client ci \
    --trace-dir "$SMOKE/wire-traces" --report "$SMOKE/wire.json" >/dev/null
# The serve determinism contract: traces from a wire submission are
# byte-identical to the local batch run's (and so to the serial place's).
cmp "$SMOKE/wire-traces/s1.jsonl" "$SMOKE/batch-traces/s1.jsonl" \
    || { echo "FAIL: wire trace s1 differs from the batch trace" >&2; exit 1; }
cmp "$SMOKE/wire-traces/s2.jsonl" "$SMOKE/batch-traces/s2.jsonl" \
    || { echo "FAIL: wire trace s2 differs from the batch trace" >&2; exit 1; }
cmp "$SMOKE/wire-traces/s1.jsonl" "$SMOKE/t1.jsonl" \
    || { echo "FAIL: wire trace s1 differs from the serial place trace" >&2; exit 1; }
# The regression gate accepts a wire-produced report as the current run.
./target/release/check_regression "$SMOKE/batch1.json" "$SMOKE/wire.json"
# Multi-client soak at smoke scale against the same warm daemon.
./target/release/serve_soak --smoke --addr "$ADDR" >/dev/null
./target/release/xplace servectl stats --addr "$ADDR" | grep -q '"batches_completed"' \
    || { echo "FAIL: /stats is missing completion counters" >&2; exit 1; }
./target/release/xplace servectl shutdown --addr "$ADDR" >/dev/null
wait "$SERVE_PID" || { echo "FAIL: daemon exited non-zero after drain" >&2; exit 1; }
SERVE_PID=""

echo "==> bench regression gate (deterministic metrics vs BENCH_baseline.json)"
scripts/check_regression.sh
echo "==> regression gate self-test: an injected regression must fail"
if ./target/release/check_regression BENCH_baseline.json results/run_report.json \
    --inject-hpwl-pct 10 >/dev/null 2>&1; then
    echo "FAIL: the regression gate passed an injected +10% HPWL regression" >&2
    exit 1
fi

echo "==> spectral bench gate: smoke microbench vs the baseline's spectral section"
./target/release/spectral_bench --smoke --out "$SMOKE/spectral.json"
./target/release/check_regression BENCH_baseline.json "$SMOKE/spectral.json"
echo "==> spectral gate self-test: injected transform-time regression must fail"
if ./target/release/check_regression BENCH_baseline.json "$SMOKE/spectral.json" \
    --inject-spectral-pct 10 >/dev/null 2>&1; then
    echo "FAIL: the spectral gate passed an injected +10% transform-time regression" >&2
    exit 1
fi

echo "==> scaling bench gate: smoke point set vs the baseline's scaling section"
./target/release/scaling_bench --smoke --out "$SMOKE/scaling.json"
./target/release/check_regression BENCH_baseline.json "$SMOKE/scaling.json"
echo "==> scaling gate self-test: injected per-cell-cost regression must fail"
if ./target/release/check_regression BENCH_baseline.json "$SMOKE/scaling.json" \
    --inject-scaling-pct 10 >/dev/null 2>&1; then
    echo "FAIL: the scaling gate passed an injected +10% per-cell-cost regression" >&2
    exit 1
fi

echo "==> explore smoke: --explore 4 place, trace parity across thread counts"
./target/release/xplace place "$SMOKE/ci-smoke.aux" --explore 4 --max-iters 120 --threads 1 \
    -o "$SMOKE/ex1.pl" --trace "$SMOKE/ex1.jsonl" --report "$SMOKE/ex1.json" >/dev/null
./target/release/xplace place "$SMOKE/ci-smoke.aux" --explore 4 --max-iters 120 --threads 4 \
    -o "$SMOKE/ex4.pl" --trace "$SMOKE/ex4.jsonl" --report "$SMOKE/ex4.json" >/dev/null
cmp "$SMOKE/ex1.jsonl" "$SMOKE/ex4.jsonl" \
    || { echo "FAIL: explore traces differ across thread counts" >&2; exit 1; }
cmp "$SMOKE/ex1.pl" "$SMOKE/ex4.pl" \
    || { echo "FAIL: explore placements differ across thread counts" >&2; exit 1; }
# The population report zeroes its wall-clock fields, so it is
# byte-identical across thread counts, not merely equivalent.
cmp "$SMOKE/ex1.json" "$SMOKE/ex4.json" \
    || { echo "FAIL: explore reports differ across thread counts" >&2; exit 1; }

echo "==> explore bench gate: smoke population vs the baseline's explore section"
./target/release/explore_bench --smoke --out "$SMOKE/explore.json"
./target/release/check_regression BENCH_baseline.json "$SMOKE/explore.json"
echo "==> explore gate self-test: injected winner-HPWL regression must fail"
if ./target/release/check_regression BENCH_baseline.json "$SMOKE/explore.json" \
    --inject-explore-pct 10 >/dev/null 2>&1; then
    echo "FAIL: the explore gate passed an injected +10% winner-HPWL regression" >&2
    exit 1
fi

echo "==> multilevel smoke: 100k-cell place, trace parity across thread counts"
./target/release/xplace synth ci-ml 100000 --seed 11 --topology systolic \
    --out "$SMOKE" >/dev/null
./target/release/xplace place "$SMOKE/ci-ml.aux" --multilevel --coarse-iters 60 \
    --max-iters 40 --threads 1 -o "$SMOKE/ml1.pl" --trace "$SMOKE/ml1.jsonl" >/dev/null
./target/release/xplace place "$SMOKE/ci-ml.aux" --multilevel --coarse-iters 60 \
    --max-iters 40 --threads 4 -o "$SMOKE/ml4.pl" --trace "$SMOKE/ml4.jsonl" >/dev/null
cmp "$SMOKE/ml1.jsonl" "$SMOKE/ml4.jsonl" \
    || { echo "FAIL: multilevel traces differ across thread counts" >&2; exit 1; }
cmp "$SMOKE/ml1.pl" "$SMOKE/ml4.pl" \
    || { echo "FAIL: multilevel placements differ across thread counts" >&2; exit 1; }

echo "==> coarsening smoke: 1M-cell hierarchy construction completes"
./target/release/scaling_bench --coarsen-smoke 1000000 --topology systolic

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI gate passed."
