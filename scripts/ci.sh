#!/usr/bin/env bash
# Offline CI gate: formatting, lints, tier-1 build and tests.
# The workspace is std-only; everything here must pass with no network
# and no registry access (CARGO_NET_OFFLINE pins that assumption).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test (three runs; --no-fail-fast so one failing crate"
echo "   cannot hide the results of the crates after it)"
for run in 1 2 3; do
  echo "-- run $run"
  cargo test -q --workspace --no-fail-fast
done

echo "== cargo doc (no deps, warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== doctests (pins docs/QUERYBOOK.md examples)"
cargo test -q --doc --workspace

echo "== decoder fuzz tests (release)"
cargo test -q --release -p hli-core --test fuzz_decode

echo "== latency agreement (scheduler table == simulator table on every target)"
cargo test -q --release -p hli-machine --test latency_agreement

echo "== timing models == their reference loops (stats, function bins, metrics)"
echo "   on corpus traces, fed whole and in chunks"
cargo test -q --release -p hli-machine --test model_reference -- --include-ignored

echo "== interpreter oracle == its golden table (return value, checksum and"
echo "   InterpStats on the suite at both scales and the BENCH_6.json corpus)"
cargo test -q --release -p hli-suite --test oracle_golden -- --include-ignored

echo "== three-target smoke (tiny Table 2 on every registered machine model)"
for m in r4600 r10000 w4; do
  target/release/table2 12 2 --machine "$m" > /dev/null
done

echo "== obsdiff against pinned baseline (tiny suite)"
target/release/table2 12 2 --stats json 2>/dev/null > target/obsdiff-current.txt
target/release/obsdiff tests/baselines/table2-tiny.json target/obsdiff-current.txt

echo "== obsreport attribution gate (Fig.4/Fig.5 fixture: spans, estimates and"
echo "   per-table benefit/cost rollup match the pinned baseline)"
target/release/hlicc build tests/fixtures/fig45.c --cse --licm --stats json \
  --provenance-out target/ci-fig45.jsonl > target/ci-fig45-stats.json 2>/dev/null
target/release/obsreport --stats target/ci-fig45-stats.json \
  --provenance target/ci-fig45.jsonl --json \
  --compare tests/baselines/obsreport-fig45.json > /dev/null

echo "== two-process Figure-3 flow (hlicc front writes the .hli file, hlicc back"
echo "   imports it in a second process; back's per-function loop is --jobs invariant)"
target/release/hlicc front tests/fixtures/fig45.c -o target/ci-fig45.hli > /dev/null
for j in 1 4; do
  target/release/hlicc back tests/fixtures/fig45.c target/ci-fig45.hli \
    --cse --licm --unroll 2 --dump-rtl --time --jobs "$j" \
    --provenance-out "target/ci-fig45-back-j$j.jsonl" > "target/ci-fig45-back-j$j.txt" 2>/dev/null
done
cmp target/ci-fig45-back-j1.txt target/ci-fig45-back-j4.txt
cmp target/ci-fig45-back-j1.jsonl target/ci-fig45-back-j4.jsonl

echo "== a truncated .hli file is refused (hlicc back exits 1 naming the decode"
echo "   error, not 101 from a panic)"
head -c "$(( $(wc -c < target/ci-fig45.hli) / 2 ))" target/ci-fig45.hli > target/ci-fig45-cut.hli
status=0
target/release/hlicc back tests/fixtures/fig45.c target/ci-fig45-cut.hli \
  > /dev/null 2> target/ci-fig45-cut.err || status=$?
if [ "$status" -ne 1 ] || ! grep -q "HLI decode error" target/ci-fig45-cut.err; then
  echo "FAIL: hlicc back on a truncated .hli exited $status:"
  cat target/ci-fig45-cut.err
  exit 1
fi

echo "== counters do not depend on the provenance sink or on tracing (every counter"
echo "   of a plain run reappears unchanged in the same run with --provenance-out,"
echo "   and with --trace-out, which must write span events whose names and counts"
echo "   do not depend on --jobs)"
target/release/table2 12 2 --stats json --provenance-out target/ci-table2.jsonl \
  2>/dev/null > target/ci-table2-prov.txt
target/release/obsdiff target/obsdiff-current.txt target/ci-table2-prov.txt --allow-new > /dev/null
target/release/table2 12 2 --stats json --trace-out target/ci-table2-trace.json \
  2>/dev/null > target/ci-table2-traced.txt
target/release/obsdiff target/obsdiff-current.txt target/ci-table2-traced.txt --allow-new > /dev/null
if ! grep -q '"ph": "X"' target/ci-table2-trace.json; then
  echo "FAIL: table2 --trace-out wrote no span events to target/ci-table2-trace.json"
  exit 1
fi
for j in 1 4; do
  target/release/table2 12 2 --jobs "$j" --trace-out "target/ci-table2-trace-j$j.json" \
    > /dev/null 2>&1
  grep -o '"name": "[^"]*"' "target/ci-table2-trace-j$j.json" | sort | uniq -c \
    > "target/ci-table2-spans-j$j.txt"
done
if [ ! -s target/ci-table2-spans-j1.txt ] \
  || ! cmp -s target/ci-table2-spans-j1.txt target/ci-table2-spans-j4.txt; then
  echo "FAIL: table2 --trace-out span names or counts differ between --jobs 1 and 4:"
  diff target/ci-table2-spans-j1.txt target/ci-table2-spans-j4.txt || true
  exit 1
fi
target/release/hlicc build tests/fixtures/fig45.c --cse --licm --stats json \
  > target/ci-fig45-plain-stats.json 2>/dev/null
target/release/obsdiff target/ci-fig45-plain-stats.json target/ci-fig45-stats.json \
  --allow-new > /dev/null

echo "== faultbench smoke (seeded mutation campaign: no panics, no unsound"
echo "   HLI-justified decisions under corrupted .hli images or tables)"
target/release/faultbench 1500 --table 150 > /dev/null

echo "== quarantine determinism (counters + provenance byte-identical across --jobs)"
target/release/faultbench --quarantine-check --jobs 8

echo "== perfbench smoke (generated corpus, differential oracle, parallel driver)"
target/release/perfbench --seeds 7 --programs 3 --funcs 10 --jobs 4 > /dev/null

echo "== perfbench regression gate (counters exact, times/rates/RSS soft; the"
echo "   checkpoint's worker count, since peak RSS grows with it)"
target/release/perfbench --jobs 2 --compare BENCH_6.json > /dev/null

echo "== servebench check (docs/SERVE.md determinism contract: jobs-1-vs-8 and"
echo "   cold-vs-warm byte identity, steady-state hit rate >= 80%)"
target/release/servebench --programs 2 --funcs 5 --epochs 3 --jobs 4 --check > /dev/null

echo "== benchmark build and self-test (hlibench builds against these crates; no timing)"
python3 hlibench/run.py --test

echo "CI green."
