#!/usr/bin/env bash
# Full check matrix for ecfault: lint, semantic static analysis, sanitizers.
#
#   tools/run_checks.sh [lint|analyze|units|asan|tsan|bench|all]
#   tools/run_checks.sh analyze --update-baseline
#   tools/run_checks.sh profile paper_suite|scale_1m|codec
#
# lint    : run the ecf_lint ctest from the dev build (token-level rules).
# analyze : run the ecf_analyze ctest from the dev build (layering, call-graph
#           determinism, ECF_GUARDED_BY lock discipline, event-path resource
#           discipline, dimensional safety — see DESIGN.md §9, §13 and §14).
#           Fails on any stale baseline suppression (an entry no longer
#           matched by a finding), so the baseline only ever shrinks with
#           the debt it covers. `analyze --update-baseline` regenerates
#           tools/ecf_analyze_baseline.txt from the current findings instead
#           of failing — review the diff before committing it.
# units   : fast dev loop for the dimensional-safety pass only
#           (`ecf_analyze --only=units`) — seconds instead of the full
#           7-pass run while iterating on unit annotations.
# asan    : configure + build the asan-ubsan preset, run the full tier-1
#           suite under AddressSanitizer + UndefinedBehaviorSanitizer.
# tsan    : configure + build the tsan preset, run the threaded campaign
#           tests (Campaign*/CampaignStress.*) under ThreadSanitizer.
# bench   : run the bench-smoke ctest label from the dev build — codec,
#           fabric, event-core, and scale benches; bench_engine fails if
#           the engine rewrite's 3x schedule/cancel/drain speedup
#           regresses, bench_scale if the shard drain drops below 2x
#           aggregate events/s or the 1M-object campaign leaves its
#           30 s / 2 GiB budget.
# profile : build perfbench_bin with -pg into build-profile/ (perfbench's
#           own CMakeLists.txt, RelWithDebInfo), run one repetition of the
#           workload at --seed 1, and fold gprof's flat profile into layers
#           by the first ecf::<ns>:: in each symbol (gf, ec, sim, nvmeof,
#           cluster, ecfault; anything else is "other"). Prints each layer's
#           share of self time and the top 10 symbols; the full flat profile
#           stays in build-profile/flat-<workload>.txt. Not part of `all`.
# all     : lint, analyze, asan, tsan, bench — the CI order: cheap
#           source-level checks fail fast before any sanitized rebuild
#           starts; perf smoke runs last on the already-built dev tree.
#
# Each sanitizer preset uses its own binary dir (build-asan, build-tsan) so
# sanitized objects never mix with the dev build. Under clang, the dev build
# additionally compiles the ECF_GUARDED_BY annotations with -Wthread-safety
# (ECF_THREAD_SAFETY_ANALYSIS, on by default).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
MODE="${1:-all}"

run_lint() {
  echo "== ecf_lint: project lint pass =="
  cmake --preset dev
  cmake --build --preset dev -j "${JOBS}" --target ecf_lint
  ctest --preset lint
}

run_analyze() {
  echo "== ecf_analyze: semantic static analysis =="
  cmake --preset dev
  cmake --build --preset dev -j "${JOBS}" --target ecf_analyze
  ctest --preset analyze
}

run_units() {
  echo "== ecf_analyze --only=units: dimensional-safety fast loop =="
  cmake --preset dev
  cmake --build --preset dev -j "${JOBS}" --target ecf_analyze
  build/tools/ecf_analyze --only=units \
    --baseline tools/ecf_analyze_baseline.txt \
    --cache build/ecf_analyze_cache .
}

run_analyze_update_baseline() {
  echo "== ecf_analyze: regenerating baseline from current findings =="
  cmake --preset dev
  cmake --build --preset dev -j "${JOBS}" --target ecf_analyze
  build/tools/ecf_analyze \
    --baseline tools/ecf_analyze_baseline.txt --update-baseline \
    --cache build/ecf_analyze_cache .
  git --no-pager diff --stat -- tools/ecf_analyze_baseline.txt || true
}

run_bench() {
  echo "== bench-smoke: perf smoke (codec, fabric, event core, scale) =="
  cmake --preset dev
  cmake --build --preset dev -j "${JOBS}" --target bench_codec_micro \
    bench_fabric bench_engine bench_scale
  ctest --preset bench-smoke
}

run_profile() {
  local workload="${1:-}"
  case "${workload}" in
    paper_suite|scale_1m|codec) ;;
    *)
      echo "usage: $0 profile paper_suite|scale_1m|codec" >&2
      exit 2
      ;;
  esac
  echo "== gprof: perfbench ${workload}, one repetition at --seed 1 =="
  cmake -S perfbench -B build-profile -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg
  cmake --build build-profile -j "${JOBS}" --target perfbench_bin
  rm -f build-profile/gmon.out
  # gmon.out is written to the working directory when the process exits.
  (cd build-profile && ./perfbench_bin "${workload}" --seed 1 --trace 0 >/dev/null)
  local flat="build-profile/flat-${workload}.txt"
  gprof -b -p build-profile/perfbench_bin build-profile/gmon.out > "${flat}"
  python3 - "${flat}" <<'PY'
import re
import sys

LAYERS = ("gf", "ec", "sim", "nvmeof", "cluster", "ecfault")
# %time, cumulative s, self s, [calls, self ms/call, total ms/call], name
ROW = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+"
                 r"(?:(\d+)\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")

rows = []
with open(sys.argv[1]) as flat:
    for line in flat:
        m = ROW.match(line)
        if m:
            rows.append((float(m.group(1)), m.group(2) or "-", m.group(3)))
total = sum(r[0] for r in rows) or 1.0
by_layer = dict.fromkeys(LAYERS + ("other",), 0.0)
for self_s, _, name in rows:
    ns = re.search(r"ecf::(\w+)::", name)
    by_layer[ns.group(1) if ns and ns.group(1) in LAYERS else "other"] += self_s
print("layer    self_s   share")
for layer, self_s in by_layer.items():
    print("%-8s %7.2f  %5.1f%%" % (layer, self_s, 100 * self_s / total))
print("top 10 symbols by self time (%.2f s sampled)" % total)
for self_s, calls, name in sorted(rows, key=lambda r: -r[0])[:10]:
    name = name if len(name) <= 110 else name[:107] + "..."
    print("%5.1f%% %7.2f s %10s  %s" % (100 * self_s / total, self_s, calls,
                                        name))
PY
}

run_asan() {
  echo "== ASan + UBSan: full test suite =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "${JOBS}"
  ctest --preset asan-ubsan -j "${JOBS}"
}

run_tsan() {
  echo "== TSan: threaded campaign stress =="
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}" --target test_ecfault
  ctest --preset tsan -j "${JOBS}"
}

case "${MODE}" in
  lint)    run_lint ;;
  analyze)
    if [[ "${2:-}" == "--update-baseline" ]]; then
      run_analyze_update_baseline
    else
      run_analyze
    fi
    ;;
  units)   run_units ;;
  asan)    run_asan ;;
  tsan)    run_tsan ;;
  bench)   run_bench ;;
  profile) run_profile "${2:-}" ;;
  all)     run_lint; run_analyze; run_asan; run_tsan; run_bench ;;
  *)
    echo "usage: $0 [lint|analyze|units|asan|tsan|bench|profile <workload>|all]" >&2
    exit 2
    ;;
esac
echo "== check matrix (${MODE}) passed =="
