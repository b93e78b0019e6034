#!/usr/bin/env bash
# Repo check, split into stages so CI can run them as separate jobs:
#
#   tier1  a layering gate: no header or source under src/net,
#          src/replication, src/openflow or src/core may depend (g++ -MM)
#          on a file under src/sim/ — the control plane reads time through
#          a ClockFn (common/sim_time.h); only the composition root
#          (core/dfi_system.cc) and the simulated testbed's time-of-day PDP
#          (core/pdps/time_of_day.{h,cc}) reach the simulator. Then
#          configure + build + full ctest suite (the 620 tier-1 tests),
#          then the proxy-datapath, scale-out, entity-plane, socket-
#          datapath and failover benches in smoke mode, each gated against
#          its committed baseline under bench/baselines/. Every bench gate
#          runs even when an earlier one fails; the stage then fails naming
#          each gate that failed
#   asan   ASan+UBSan build (-DDFI_SANITIZE=ON) of the memory-sensitive
#          component tests — including the proxy teardown regressions —
#          built as one make goal (asan_stage_tests, tests/CMakeLists.txt)
#   tsan   TSan build (-DDFI_SANITIZE=thread) of the SPSC ring stress, the
#          threaded shard-pool and bus tests, and the policy index's and
#          the ERM's concurrent snapshot readers, built as one make goal
#          (tsan_stage_tests)
#   fuzz   the model-based invariant fuzz campaign (tests/support/
#          fuzz_harness.cc): the full deterministic campaign on the plain
#          build, plus bounded campaigns under ASan+UBSan and TSan.
#          DFI_FUZZ_SCHEDULES / DFI_FUZZ_SEED override campaign size and
#          seed (see tests/fuzz_invariants_test.cc).
#   recovery  the crash-recovery fuzz campaign (tests/
#          crash_recovery_fuzz_test.cc): seeded kill/restart schedules
#          against the journaled control plane, byte-identical recovery
#          asserted against a no-crash oracle, plus the journal and health
#          -monitor component tests — full campaign on the plain build,
#          bounded campaigns under ASan+UBSan and TSan. The same
#          DFI_FUZZ_SCHEDULES / DFI_FUZZ_SEED knobs apply.
#   replication  the two-replica failover campaign (the Replicated*
#          schedules of tests/crash_recovery_fuzz_test.cc): seeded kills of
#          either replica mid-stream over a faulty link, survivor state
#          byte-identical to the no-failure oracle, fenced stand-down of
#          every deposed primary — plus the replication component tests and
#          the failover bench smoke. Full campaign on the plain build,
#          bounded campaigns under ASan+UBSan and TSan
#          (DFI_FUZZ_SCHEDULES / DFI_FUZZ_SEED apply here too).
#   paper  the nine deterministic paper-reproduction benches (Tables I and
#          II, Figs. 4 and 5, four ablations): each one's stdout must match
#          bench/golden/<bench>.txt byte for byte. A change that moves a
#          paper figure on purpose regenerates the goldens from its own
#          build and says why.
#
# Usage: tools/check.sh [--no-sanitize] [stage...]
#   no stages        -> all of tier1 asan tsan fuzz recovery replication paper
#   --no-sanitize    -> tier1 only (kept for compatibility)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

STAGES=()
for arg in "$@"; do
  case "$arg" in
    --no-sanitize) STAGES=(tier1) ;;
    tier1|asan|tsan|fuzz|recovery|replication|paper) STAGES+=("$arg") ;;
    *) echo "unknown stage: $arg (want tier1, asan, tsan, fuzz, recovery, replication, paper)" >&2; exit 2 ;;
  esac
done
if [[ ${#STAGES[@]} -eq 0 ]]; then
  STAGES=(tier1 asan tsan fuzz recovery replication paper)
fi

want() { local s; for s in "${STAGES[@]}"; do [[ "$s" == "$1" ]] && return 0; done; return 1; }

if want tier1; then
  echo "== tier-1: layering gate (nothing under net/replication/openflow/core reaches sim/) =="
  LAYERING_ALLOW=(src/core/dfi_system.cc src/core/pdps/time_of_day.h
    src/core/pdps/time_of_day.cc)
  layering_violations=0
  while IFS= read -r file; do
    [[ " ${LAYERING_ALLOW[*]} " == *" ${file} "* ]] && continue
    deps="$(g++ -std=c++20 -Isrc -x c++ -MM "${file}")"
    if [[ "${deps}" == *src/sim/* ]]; then
      echo "layering: ${file} depends on a file under src/sim/" >&2
      layering_violations=$((layering_violations + 1))
    fi
  done < <(find src/net src/replication src/openflow src/core \( -name '*.h' -o -name '*.cc' \) | sort)
  if (( layering_violations > 0 )); then exit 1; fi

  echo "== tier-1: configure + build =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}"

  echo "== tier-1: ctest =="
  ctest --test-dir build --output-on-failure -j "${JOBS}"

  # Each bench gate runs from build/bench; a failing gate is recorded and
  # the next one still runs, so one red floor hides none of the others.
  failed_gates=()
  bench_gate() {
    local name="$1"
    shift
    echo "== tier-1: ${name} bench (smoke + baseline gate) =="
    if ! (cd build/bench && "$@"); then
      echo "tier-1: ${name} bench gate FAILED" >&2
      failed_gates+=("${name}")
    fi
  }

  # Byte-identity + zero-allocation checks, then speedups vs the committed
  # conservative floors; a >10% regression below a floor fails the gate.
  bench_gate proxy-datapath ./bench_micro_proxy_datapath --smoke \
    --check-baseline ../../bench/baselines/BENCH_proxy_datapath.baseline.json

  # Batch-mode decisions/s for the SPSC-ring datapath vs the committed
  # conservative floors; a >10% shortfall below a floor fails the gate.
  bench_gate scale-out ./bench_ablation_scaleout --smoke \
    --check-baseline ../../bench/baselines/BENCH_scaleout.baseline.json

  # Interned-entity decision latency, incremental-publish throughput, and
  # RSS/binding vs committed floors; policy query and publication (revoke
  # + insert + snapshot_view) at two rule counts vs committed floors;
  # in-process scaling gates (decision latency <=2x, publish <=10x across
  # the entity sweep, policy publication <=4x and policy query <=2x across
  # the rule counts) in every mode.
  bench_gate entity-plane ./bench_erm_scale --smoke \
    --check-baseline ../../bench/baselines/BENCH_erm_scale.baseline.json

  # Loopback TCP echo through the epoll event loop + readv/writev
  # Connections: frames/s and p50/p99 vs committed floors, the best-b64
  # figure vs 50% of the BENCH_proxy_datapath mixed figure, and zero
  # steady-state allocations asserted in-binary.
  bench_gate socket-datapath ./bench_socket_datapath --smoke \
    --check-baseline ../../bench/baselines/BENCH_socket_datapath.baseline.json

  # Warm-standby promotion drill (detection deadline, fenced stand-down,
  # post-promotion FlowMod) and steady-state replication records/s —
  # unreplicated vs in-memory link vs loopback ReplTransport — vs the
  # committed floors; standby byte-identity asserted in-binary.
  bench_gate failover ./bench_failover --smoke \
    --check-baseline ../../bench/baselines/BENCH_failover.baseline.json

  if (( ${#failed_gates[@]} > 0 )); then
    echo "tier-1: ${#failed_gates[@]} bench gate(s) failed: ${failed_gates[*]}" >&2
    exit 1
  fi
fi

if want asan; then
  echo "== sanitizer build (ASan+UBSan) =="
  cmake -B build-asan -S . -DDFI_SANITIZE=ON >/dev/null
  # One aggregate goal (tests/CMakeLists.txt) over the tests run below, so
  # make builds them in parallel rather than one goal after another.
  cmake --build build-asan -j "${JOBS}" --target asan_stage_tests

  echo "== sanitizer tests =="
  ./build-asan/tests/intern_test
  ./build-asan/tests/policy_index_test
  ./build-asan/tests/decision_cache_test
  ./build-asan/tests/policy_manager_test
  ./build-asan/tests/erm_test
  ./build-asan/tests/pcp_test
  ./build-asan/tests/paper_timing_test
  ./build-asan/tests/bus_test
  ./build-asan/tests/proxy_test
  ./build-asan/tests/flush_test
  # Socket datapath: real-fd lifecycle (epoll registration, accept/dial,
  # scatter readv/writev, teardown with frames in flight) is exactly the
  # use-after-free / partial-buffer surface ASan exists for.
  ./build-asan/tests/event_loop_test
  ./build-asan/tests/conman_test
  ./build-asan/tests/fault_socket_test
  ./build-asan/tests/socket_frontend_test
  ./build-asan/tests/secure_channel_test
  ./build-asan/tests/wire_test
fi

if want tsan; then
  echo "== sanitizer build (TSan, threaded backend) =="
  cmake -B build-tsan -S . -DDFI_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target tsan_stage_tests

  echo "== sanitizer tests (TSan) =="
  ./build-tsan/tests/intern_test
  ./build-tsan/tests/spsc_ring_test
  ./build-tsan/tests/shard_pool_test
  ./build-tsan/tests/bus_test
  ./build-tsan/tests/proxy_test
  # The event loop's cross-thread surface: eventfd wakeup + posted-closure
  # handoff (the shard-pool egress injection path), exercised by the
  # loop-thread tests; conman adds timer-wheel reconnect races.
  ./build-tsan/tests/event_loop_test
  ./build-tsan/tests/conman_test
  # Copy-on-write policy index: reader threads query published snapshots
  # while the control thread writes the same bucket and republishes.
  ./build-tsan/tests/policy_index_test
  # Copy-on-write ERM tables: reader threads enrich and validate against
  # published snapshots while the control thread applies logon storms and
  # DHCP rollovers that clone multi-level paths and grow the trees.
  ./build-tsan/tests/erm_test
fi

if want fuzz; then
  echo "== fuzz: full deterministic campaign (plain build) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target fuzz_invariants_test
  ./build/tests/fuzz_invariants_test

  echo "== fuzz: bounded campaign under ASan+UBSan =="
  cmake -B build-asan -S . -DDFI_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "${JOBS}" --target fuzz_invariants_test
  DFI_FUZZ_SCHEDULES="${DFI_FUZZ_ASAN_SCHEDULES:-400}" \
    ./build-asan/tests/fuzz_invariants_test

  echo "== fuzz: bounded campaign under TSan =="
  cmake -B build-tsan -S . -DDFI_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target fuzz_invariants_test
  DFI_FUZZ_SCHEDULES="${DFI_FUZZ_TSAN_SCHEDULES:-200}" \
    ./build-tsan/tests/fuzz_invariants_test
fi

if want recovery; then
  echo "== recovery: journal + health-monitor component tests =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target \
    crash_recovery_fuzz_test journal_test health_monitor_test persistence_test
  ./build/tests/journal_test
  ./build/tests/health_monitor_test
  ./build/tests/persistence_test

  echo "== recovery: full crash-recovery fuzz campaign (plain build) =="
  ./build/tests/crash_recovery_fuzz_test

  echo "== recovery: bounded campaign under ASan+UBSan =="
  cmake -B build-asan -S . -DDFI_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "${JOBS}" --target \
    crash_recovery_fuzz_test journal_test health_monitor_test
  ./build-asan/tests/journal_test
  ./build-asan/tests/health_monitor_test
  DFI_FUZZ_SCHEDULES="${DFI_RECOVERY_ASAN_SCHEDULES:-300}" \
    ./build-asan/tests/crash_recovery_fuzz_test

  echo "== recovery: bounded campaign under TSan =="
  cmake -B build-tsan -S . -DDFI_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target crash_recovery_fuzz_test
  DFI_FUZZ_SCHEDULES="${DFI_RECOVERY_TSAN_SCHEDULES:-150}" \
    ./build-tsan/tests/crash_recovery_fuzz_test
fi

if want replication; then
  echo "== replication: component tests =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target \
    crash_recovery_fuzz_test replication_test conman_test
  ./build/tests/replication_test
  ./build/tests/conman_test

  echo "== replication: full two-replica failover campaign (plain build) =="
  ./build/tests/crash_recovery_fuzz_test \
    --gtest_filter='CrashRecoveryFuzz.Replicated*'

  echo "== replication: bounded campaign under ASan+UBSan =="
  cmake -B build-asan -S . -DDFI_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "${JOBS}" --target \
    crash_recovery_fuzz_test replication_test
  ./build-asan/tests/replication_test
  DFI_FUZZ_SCHEDULES="${DFI_REPLICATION_ASAN_SCHEDULES:-300}" \
    ./build-asan/tests/crash_recovery_fuzz_test \
    --gtest_filter='CrashRecoveryFuzz.Replicated*'

  echo "== replication: bounded campaign under TSan =="
  cmake -B build-tsan -S . -DDFI_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target crash_recovery_fuzz_test
  DFI_FUZZ_SCHEDULES="${DFI_REPLICATION_TSAN_SCHEDULES:-150}" \
    ./build-tsan/tests/crash_recovery_fuzz_test \
    --gtest_filter='CrashRecoveryFuzz.Replicated*'
fi

if want paper; then
  PAPER_BENCHES=(bench_table1_microbench bench_table2_breakdown bench_fig4_ttfb
    bench_fig5a_infection_course bench_fig5b_foothold_hour
    bench_ablation_consistency bench_ablation_binding_time
    bench_ablation_rule_cache bench_ablation_worm_vectors)
  echo "== paper: build the paper-reproduction benches =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target "${PAPER_BENCHES[@]}"

  echo "== paper: stdout byte-identical to bench/golden/ =="
  ROOT="$(pwd)"
  OUT="$(mktemp -d)"
  trap 'rm -rf "${OUT}"' EXIT
  for bench in "${PAPER_BENCHES[@]}"; do
    # Run from a scratch directory: nothing a bench writes lands in the tree.
    (cd "${OUT}" && "${ROOT}/build/bench/${bench}" > "${bench}.txt")
    if ! cmp -s "${OUT}/${bench}.txt" "bench/golden/${bench}.txt"; then
      echo "paper: ${bench} stdout differs from bench/golden/${bench}.txt" >&2
      diff "bench/golden/${bench}.txt" "${OUT}/${bench}.txt" >&2 || true
      exit 1
    fi
    echo "  ${bench}: identical"
  done
fi

echo "== all requested stages passed =="
