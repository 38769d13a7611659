#!/usr/bin/env bash
# Full gate. The tier-1 suite itself pins every determinism contract
# in-process: thread-count parity of corpus generation, the federated
# runtime (faulty, lossy-codec, async/semi-async and aggregation-tree
# runs), serving and explanation search; the fp64 runtime trace against
# the committed golden (tests/golden/runtime_trace_seed.txt); and the
# CSR propagation engine against the dense test oracle
# (tests/dense_oracle.h). On top of the suite this script runs:
#  - the bit-for-bit contracts without FMA contraction: a
#    -DFEXIOT_NATIVE=OFF build (tests only) of test_kernels, test_sparse,
#    test_explain and test_serving, where ops.cc compiles `c += a*b` as a
#    separate multiply and add. The default -march=native build fuses
#    both the kernel and ReferenceMatMul into FMAs. In both builds the
#    kernel must equal its oracle; the explanation scorer's cached
#    first-layer rows, which rely on SpMM and the kernel computing every
#    output row on its own, must reproduce the induced-subgraph forward;
#    and the serving engine's batched embeddings must equal its
#    one-at-a-time ones, and every snapshot a from-scratch PrepareGraph;
#  - the lazy-state scale smokes on the event runtime: 100k and 1M
#    clients on a 4-thread pool, each with peak RSS below 32 MB (the
#    runtime allocates by the cohort, not the fleet);
#  - a seeded Poisson serving soak against a p99 latency bound;
#  - the end-to-end benchmark smoke (e2ebench/run.py --smoke): builds
#    bench_e2e against the src/ libraries (into $CARGO_TARGET_DIR, or
#    .bench_build by default) and checks that every workload's output
#    digest is the same at 1 thread, at nproc threads and in a traced run;
#  - a ThreadSanitizer pass over the concurrency-bearing binaries (thread
#    pool / parallel facade / concurrent dense products / SpMM row
#    fan-out / corpus fan-out / federated rounds incl.
#    the async policies / lazy-state scale driver / batched serving
#    inference / parallel explanation search with its shared score memo /
#    concurrent online fusion through the process-wide text-feature memo);
#  - the whole tier-1 suite under AddressSanitizer + UndefinedBehavior-
#    Sanitizer (-DFEXIOT_SANITIZE=address,undefined, tests only, in
#    RelWithDebInfo): any out-of-bounds access, use-after-free, leak or
#    undefined behaviour fails the run, and libstdc++'s container bounds
#    assertions are on. This build drops NDEBUG (its RelWithDebInfo flags
#    are "-O2 -g"), so it is the one stage that compiles and runs every
#    assert, the layout and shape checks and the death tests included;
#    the Release builds of stages 1, 3 and 7 define NDEBUG.
#
# Usage: ci/run_tests.sh [build-dir] [tsan-build-dir] [portable-build-dir]
#                        [asan-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
TSAN_DIR="${2:-build-tsan}"
PORTABLE_DIR="${3:-build-portable}"
ASAN_DIR="${4:-build-asan}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "==> [1/8] configure + build (${BUILD_DIR})"
cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "==> [2/8] full test suite"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "==> [3/8] kernel oracle, explanation row cache and serving parity without FMA contraction (${PORTABLE_DIR})"
cmake -B "${PORTABLE_DIR}" -S . \
  -DFEXIOT_NATIVE=OFF \
  -DFEXIOT_BUILD_BENCHMARKS=OFF \
  -DFEXIOT_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${PORTABLE_DIR}" -j "${JOBS}" --target test_kernels test_sparse test_explain test_serving
"${PORTABLE_DIR}/tests/test_kernels" --gtest_brief=1 >/dev/null
"${PORTABLE_DIR}/tests/test_sparse" --gtest_brief=1 >/dev/null
"${PORTABLE_DIR}/tests/test_explain" --gtest_brief=1 >/dev/null
"${PORTABLE_DIR}/tests/test_serving" --gtest_brief=1 >/dev/null
echo "    the kernel equals the Reference* oracle, cached-row scores equal the induced-subgraph forward, and batched serving equals one-at-a-time and PrepareGraph, bit for bit in both build modes"

echo "==> [4/8] scale smoke (100k and 1M clients on the runtime, RSS bounds)"
FEXIOT_SLOW_TESTS=1 "${BUILD_DIR}/tests/test_scale" \
  --gtest_filter='ScaleSmoke.*' --gtest_brief=1
echo "    100k- and 1M-client sampled rounds stay within their RSS bounds"

echo "==> [5/8] serving soak (seeded Poisson load, p99 bound)"
FEXIOT_SERVING_SOAK=1 "${BUILD_DIR}/tests/test_serving" \
  --gtest_filter='ServingSoak.*' --gtest_brief=1
echo "    soak met the latency bound"

echo "==> [6/8] end-to-end benchmark smoke (digests at 1/nproc threads, traced)"
python3 e2ebench/run.py --smoke
echo "    every workload digest held across thread counts and tracing"

echo "==> [7/8] TSAN pass (test_common + test_kernels + test_sparse + test_corpus_determinism + test_runtime + test_scale + test_serving + test_explain + test_fusion)"
cmake -B "${TSAN_DIR}" -S . \
  -DFEXIOT_SANITIZE=thread \
  -DFEXIOT_BUILD_BENCHMARKS=OFF \
  -DFEXIOT_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${TSAN_DIR}" -j "${JOBS}" \
  --target test_common test_kernels test_sparse test_corpus_determinism test_runtime test_scale test_serving test_explain test_fusion
"${TSAN_DIR}/tests/test_common"
"${TSAN_DIR}/tests/test_kernels"
FEXIOT_THREADS=4 "${TSAN_DIR}/tests/test_sparse"
FEXIOT_THREADS=4 "${TSAN_DIR}/tests/test_corpus_determinism"
FEXIOT_THREADS=4 "${TSAN_DIR}/tests/test_runtime"
FEXIOT_THREADS=4 "${TSAN_DIR}/tests/test_scale"
FEXIOT_THREADS=4 "${TSAN_DIR}/tests/test_serving"
FEXIOT_THREADS=4 "${TSAN_DIR}/tests/test_explain"
FEXIOT_THREADS=4 "${TSAN_DIR}/tests/test_fusion"

echo "==> [8/8] ASan+UBSan pass with assertions on (full tier-1 suite, ${ASAN_DIR})"
cmake -B "${ASAN_DIR}" -S . \
  -DFEXIOT_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
  -DFEXIOT_BUILD_BENCHMARKS=OFF \
  -DFEXIOT_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${ASAN_DIR}" -j "${JOBS}"
ctest --test-dir "${ASAN_DIR}" --output-on-failure -j "${JOBS}"
echo "    no memory error, leak, undefined behaviour or failed assert in the suite"

echo "OK: tier-1 suite green (determinism pinned in-process), dense kernel, explanation row cache and serving parity exact in both build modes, TSAN and ASan+UBSan (asserts on) clean"
