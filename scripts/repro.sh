#!/usr/bin/env bash
# Regenerates every result in EXPERIMENTS.md from scratch:
# configure, build, run the full test suite (once plain, once under
# ASan/UBSan), then every benchmark harness. Outputs land in
# test_output.txt and bench_output.txt at the repo root.
set -u

cd "$(dirname "$0")/.."

# Static checks first: the linter's own selftest, then the repo rules.
# A lint violation fails the reproduction run before any cycles are spent
# building.
bash scripts/lint.sh --selftest
bash scripts/lint.sh

# Unit tests of the repo benchmark's statistics and metric derivation
# (perfbench/stats.py, perfbench/metrics.py: percentiles, fail rates,
# unattributed shares). Pure Python, no build needed.
python3 -m unittest discover -s perfbench -p 'test_*.py'

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Forced-backend sweep: re-run the bitmap substrate, query and storage
# suites (the storage checksums run on the backend's crc32) once per
# kernel backend this CPU supports, with EBI_FORCE_KERNEL pinned; the
# filter matches the CI kernel-backends legs.
# The differential test's ForcedBackendIsActive asserts each pin took
# effect; an unsupported name would degrade to auto-detection with a
# stderr warning instead of failing, so only supported backends are
# swept here.
for backend in scalar avx2 avx512 neon; do
  echo "=== EBI_FORCE_KERNEL=$backend ===" | tee -a test_output.txt
  EBI_FORCE_KERNEL="$backend" ctest --test-dir build \
    -R 'kernel_differential|bitvector|rle|stored_bitmap|bitmap_kernel_edge|cover|executor|simple_bitmap_index|encoded_bitmap_index|invariant_auditor|storage_engine|wal_recovery|cold_encoded_bitmap_index|dynamic_bitmap_index|groupset_index|join_index|planner|negation|explain|index_manager|bit_sliced_index|aggregates|integration' \
    2>&1 | tee -a test_output.txt
done

# Sanitized pass: same suite, instrumented with ASan + UBSan. A Debug
# build keeps the asserts (the size-contract checks) live as well. GCC's
# `undefined` group leaves out float-cast-overflow (an out-of-range
# double-to-integer cast), so it is named on its own.
cmake -B build-asan -G Ninja -DCMAKE_BUILD_TYPE=Debug \
  -DEBI_SANITIZE=address,undefined,float-cast-overflow
cmake --build build-asan
ctest --test-dir build-asan 2>&1 | tee -a test_output.txt

# ThreadSanitizer pass over the concurrency surface: the thread pool, the
# lock-rank registry, the shared atomic accountant, the serving layer
# (snapshot pins + combining appends under real races), the sharded
# cluster tier (scatter-gather + routed appends + sheds), and the storage
# engine (page reads beside a writer + concurrent WAL appends).
# TSan and ASan cannot share a build, hence the third tree.
cmake -B build-tsan -G Ninja -DCMAKE_BUILD_TYPE=Debug \
  -DEBI_SANITIZE=thread
cmake --build build-tsan
ctest --test-dir build-tsan \
  -R 'thread_pool|lock_rank|io_accountant|query_service|serve_stress|cluster_service|cluster_stress|telemetry|workload_recorder|storage_engine|wal_recovery' \
  2>&1 | tee -a test_output.txt

# Compile-time thread-safety pass: when a clang is available, rebuild
# with Clang's Thread Safety Analysis promoted to an error
# (-Wthread-safety via EBI_THREAD_SAFETY). GCC compiles the capability
# annotations away, so this leg is the one that actually checks them.
if command -v clang++ > /dev/null 2>&1; then
  CC=clang CXX=clang++ cmake -B build-tsa -G Ninja -DEBI_THREAD_SAFETY=ON
  cmake --build build-tsa 2>&1 | tee -a test_output.txt
  ctest --test-dir build-tsa -R 'lock_rank' 2>&1 | tee -a test_output.txt
else
  echo "clang++ not found: skipping the -Wthread-safety leg" \
    | tee -a test_output.txt
fi

# Crash-recovery drill: the storage-engine and WAL suites run once more,
# by name, so torn-page, torn-tail, and kill-mid-publish recovery results
# are visible in the reproduction log even when the full suite above is
# skimmed.
ctest --test-dir build -R 'storage_engine|wal_recovery' \
  2>&1 | tee -a test_output.txt

# Machine-readable export: every bench that writes BENCH_<name>.json must
# emit documents matching the schema in scripts/check_bench_json.sh. The
# default set includes obs_overhead, whose sampling_off throughput ratio
# is gated there (always-on telemetry must stay near-free when idle), and
# serve_cluster, whose 4-shard victim p99 is gated against the
# single-shard p99 (partitioning must keep isolating the adversary).
bash scripts/check_bench_json.sh
mkdir -p bench-json
EBI_BENCH_JSON_DIR=bench-json ./build/bench/serve_throughput > /dev/null
bash scripts/check_bench_json.sh bench-json/BENCH_serve_throughput.json

# Workload-log pipeline smoke: serve_demo records its queries into a
# JSONL workload log; ebi_workload must summarize it without skipping a
# line. (serve_demo writes into the CWD, so run it from bench-json.)
(cd bench-json && ../build/examples/serve_demo > /dev/null \
  && ../build/tools/ebi_workload summary serve_demo.workload.jsonl)

: > bench_output.txt
for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then
    echo "===== $(basename "$b") =====" | tee -a bench_output.txt
    "$b" 2>&1 | tee -a bench_output.txt
    echo | tee -a bench_output.txt
  fi
done

echo "Done: see test_output.txt and bench_output.txt"
