#!/usr/bin/env bash
# Tier-1 verification matrix. Stages, in order:
#
#   1. lint           — snb_lint token-level conventions + git-state gates
#                       (scripts/lint.sh builds-or-reuses tools/snb_lint)
#   2. tidy           — clang-tidy curated profile (scripts/tidy.sh)
#   3. dev build      — -Wall -Wextra -Wshadow -Werror (SNB_DEV=ON) + ctest
#   4. UBSan          — full ctest under -fsanitize=undefined, no recover
#   5. TSan           — scheduler, morsel, refresh and recovery tests under
#                       -fsanitize=thread with deadlock detection on: data
#                       races and lock-order inversions both fail the stage
#   6. ASan           — fail-point + crash-recovery tests, the range-scan
#                       and kernel cross-checks (per-block stack buffers,
#                       partial-block slices), the storage, export,
#                       validator, Interactive, columnar, pushdown,
#                       snapshot-sharing (refresh_shadow), bulk-loader
#                       failure and checkpoint-image tests under
#                       -fsanitize=address, then the delete-cascade crash
#                       loop (torn cascades at every graph.delete.* stage)
#                       via ctest so its 600 s TIMEOUT governs the forks
#   7. fuzz smoke     — the parser/decoder fuzz harnesses (WAL, CSV, update
#                       events, column blocks, checkpoint images),
#                       fixed-iteration deterministic replay under
#                       ASan+UBSan
#   8. scale smoke    — datagen at 8000 persons, loaded, validated, and
#                       held to the bytes/edge compression budget
#   9. thread-safety  — clang -Wthread-safety -Werror=thread-safety build
#  10. gcc-analyzer   — gcc -fanalyzer over the tree, opt-in via
#                       SNB_FANALYZER=1 (skipped with a notice otherwise:
#                       GCC's analyzer is still experimental for C++ and
#                       too noisy to gate on)
#
# The pruning gate (bound and zone pruning must fire on every top-k kernel)
# is ctest's pushdown_test PruningGateTest, so stage 3 runs it.
#
# Lock order is checked twice over: statically on every path by snb_lint's
# static-lock-cycle and blocking-while-locked-static (stage 1, and ctest
# snb_lint_repo in stage 3), and at runtime by TSan's lock-order-inversion
# report on the paths stage 5 drives.
#
# Stages 1 and 3–8 run on any GCC machine; 2 and 9 need clang and are
# skipped with a notice when it is absent — the matrix must stay useful on
# the GCC-only tier-1 machines. Run from anywhere; builds land in build*/
# at the repo root.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

echo "== lint: snb_lint token-level conventions + git-state gates =="
"$repo/scripts/lint.sh"

echo "== tidy: clang-tidy curated profile =="
"$repo/scripts/tidy.sh"

echo "== tier-1: configure + build (SNB_DEV warnings as errors) + ctest =="
cmake -B "$repo/build" -S "$repo" -DSNB_DEV=ON
cmake --build "$repo/build" -j
ctest --test-dir "$repo/build" --output-on-failure -j

echo "== UBSan: full ctest under -fsanitize=undefined (no recover) =="
cmake -B "$repo/build-ubsan" -S "$repo" -DSNB_SANITIZE=undefined
cmake --build "$repo/build-ubsan" -j
ctest --test-dir "$repo/build-ubsan" --output-on-failure -j

echo "== TSan: scheduler, morsel, refresh + recovery tests under -fsanitize=thread =="
# detect_deadlocks reports a lock-order inversion (A->B on one path, B->A
# on another) even when the two paths never overlap in time. The refresh
# and recovery cases run readers through a refresh; they are this stage's
# only runs that take GraphHandle::mu_ and the fail-point registry, and
# the only runs where readers share bases with the writer's shadow.
export TSAN_OPTIONS="halt_on_error=1 detect_deadlocks=1"
cmake -B "$repo/build-tsan" -S "$repo" -DSNB_SANITIZE=thread
cmake --build "$repo/build-tsan" -j --target sched_test parallel_test \
  refresh_shadow_test delete_cascade_test wal_recovery_test
"$repo/build-tsan/tests/sched_test"
"$repo/build-tsan/tests/parallel_test"
"$repo/build-tsan/tests/refresh_shadow_test"
"$repo/build-tsan/tests/delete_cascade_test" \
  --gtest_filter='*ConcurrentRefresh*:*RetriesTornCascade*'
"$repo/build-tsan/tests/wal_recovery_test" --gtest_filter='*WhileReadersServe*'
unset TSAN_OPTIONS

echo "== ASan: crash-recovery loop and range-scan kernels under -fsanitize=address =="
# The fail-point crash loop forks, _Exit()s children mid-write and replays
# torn WALs — exactly the code that hides use-after-free and leaks from a
# plain build. ASan children keep the instrumentation across fork. The
# range scan partitions every decoded block into per-family stack buffers;
# parallel_test slices it at widths that split blocks, and
# bi_crossval_test runs every kernel over bulk-loaded and updated graphs.
# Person, forum and message rows live in offset-addressed string and list
# columns; storage_test and recovery_test append, copy and export them,
# and interactive_test reads them through the IC/IS kernels. validate_test
# corrupts the like-count column and other private state through
# TestAccess. columnar_test drives the flat id table's linear probing
# (wrap-around runs, rehashes, copies) and the packed column codecs.
# Snapshot copies share the CSR, index and string bases by pointer:
# refresh_shadow_test publishes, copies and frees snapshots around them,
# and pushdown_test's NoteLike cases scan the shared base refs.
# loader_failure_test feeds the bulk loader relation rows that name
# unknown or duplicate ids (which used to index past an empty table);
# checkpoint_image_test decodes truncated, flipped and resealed images
# straight into graph columns.
cmake -B "$repo/build-asan" -S "$repo" -DSNB_SANITIZE=address
cmake --build "$repo/build-asan" -j --target failpoint_test wal_recovery_test \
  parallel_test bi_crossval_test storage_test recovery_test interactive_test \
  validate_test columnar_test pushdown_test refresh_shadow_test \
  loader_failure_test checkpoint_image_test
"$repo/build-asan/tests/failpoint_test"
"$repo/build-asan/tests/wal_recovery_test"
"$repo/build-asan/tests/parallel_test"
"$repo/build-asan/tests/bi_crossval_test"
"$repo/build-asan/tests/storage_test"
"$repo/build-asan/tests/recovery_test"
"$repo/build-asan/tests/interactive_test"
"$repo/build-asan/tests/validate_test"
"$repo/build-asan/tests/columnar_test"
"$repo/build-asan/tests/pushdown_test"
"$repo/build-asan/tests/refresh_shadow_test"
"$repo/build-asan/tests/loader_failure_test"
"$repo/build-asan/tests/checkpoint_image_test"

echo "== ASan: delete-cascade crash loop =="
# Torn cascades at every graph.delete.* stage: the tests arm each cascade
# fail-point, kill the delete mid-flight, and assert the tombstone
# invariants catch the torn state, refresh retries it as kTransient, and
# recovery replays the WAL delete batch to the identical graph. Runs
# through ctest so the suite's registered 600 s TIMEOUT bounds the forked
# crash children; ASan keeps instrumentation across the forks.
cmake --build "$repo/build-asan" -j --target delete_cascade_test
ctest --test-dir "$repo/build-asan" -R '^delete_cascade_test$' \
  --output-on-failure

echo "== fuzz smoke: parser harnesses, fixed iterations, ASan+UBSan =="
# Deterministic replay (seed corpus + seeded mutations, ~30 s total): the
# harness contract is "any byte string returns a Status, never a crash",
# and the sanitizers turn silent memory corruption into loud failures.
# Identical command lines replay identical byte sequences — a CI failure
# reproduces locally by rerunning the printed invocation.
cmake -B "$repo/build-fuzz" -S "$repo" -DSNB_FUZZ=ON \
  -DSNB_SANITIZE=address+undefined
cmake --build "$repo/build-fuzz" -j \
  --target fuzz_wal_record_smoke fuzz_csv_row_smoke fuzz_update_event_smoke \
           fuzz_column_block_smoke fuzz_checkpoint_image_smoke
for pair in fuzz_wal_record:wal fuzz_csv_row:csv fuzz_update_event:update_event \
            fuzz_column_block:column_block \
            fuzz_checkpoint_image:checkpoint_image; do
  harness="${pair%%:*}"
  corpus="${pair##*:}"
  "$repo/build-fuzz/fuzz/${harness}_smoke" \
    --corpus="$repo/fuzz/corpus/$corpus" --iterations=50000
done

echo "== scale smoke: datagen at 8000 persons =="
# perfbench's storage.bytes_per_edge tracks the compressed store at bench
# scale; this stage writes an 8000-person dataset, loads it into the
# compressed store, holds it to the bytes/edge ceiling (6.0 is the
# regression gate), and runs the full graph-invariant validator on it.
scale_dir="$repo/build/scale-smoke-out"
rm -rf "$scale_dir"
"$repo/build/tools/snb_datagen" "$scale_dir" --persons 8000 \
  --max-bytes-per-edge 6.0
"$repo/build/tools/snb_validate" --load "$scale_dir"
rm -rf "$scale_dir"

echo "== thread-safety: clang -Wthread-safety -Werror=thread-safety =="
if command -v clang++ >/dev/null 2>&1; then
  cmake -B "$repo/build-tsa" -S "$repo" \
    -DCMAKE_CXX_COMPILER=clang++ -DCMAKE_C_COMPILER=clang
  cmake --build "$repo/build-tsa" -j
else
  echo "   SKIPPED: clang++ not installed on this machine" \
       "(annotations compiled as no-ops by GCC; analysis needs clang)"
fi

echo "== gcc-analyzer: -fanalyzer interprocedural paths (opt-in) =="
# GCC's static analyzer explores interprocedural paths the sanitizers only
# see when a test happens to drive them (double-free, use-after-free, fd
# leaks). Its C++ support is still explicitly experimental upstream and
# produces false positives on idiomatic STL code, so the stage is advisory
# and opt-in: diagnostics print but do not fail the matrix.
if [[ "${SNB_FANALYZER:-0}" == "1" ]]; then
  cmake -B "$repo/build-fanalyzer" -S "$repo" \
    -DCMAKE_CXX_FLAGS="-fanalyzer" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$repo/build-fanalyzer" -j || true
else
  echo "   SKIPPED: set SNB_FANALYZER=1 to run (gcc -fanalyzer is" \
       "experimental for C++; advisory output only, never a gate)"
fi

echo "== all active checks passed =="
