#!/usr/bin/env bash
# Pre-merge verification gate. Stages, in default order:
#
#   lint-diff — bigfish-lint --since=origin/main (HEAD~1 when there is
#               no origin/main): the fast first gate, linting only the
#               files this branch changed while the cross-TU passes
#               still scan the whole tree. Skipped (with a notice) in
#               a repo with no base revision.
#   lint      — bigfish-lint over src/ bench/ examples/ tests/ and
#               tools/bigfish/ with the checked-in config
#               (tools/lint/bigfish-lint.toml): the determinism,
#               error-propagation, layering and concurrency invariants,
#               enforced statically. Fails on any finding.
#   cppcheck  — general C++ static analysis; skipped with a notice when
#               cppcheck is not installed.
#   cli-smoke — `bigfish run --all --smoke`: every registered experiment
#               end-to-end at tiny scale, plus CLI exit-code/usage
#               checks (strict env validation, unknown-flag rejection).
#   resume-smoke — kill -9 a `--cache-dir` run mid-collection, rerun it
#               and require a bit-identical artifact; then force an
#               IO-crash in a two-experiment `--keep-going` run and
#               require exit 1 with a complete suite manifest (crashed
#               + ok).
#   simd      — the DESIGN.md §10 determinism gate: the kernel and
#               ML test binaries (the latter pins a trained model's
#               bits) under BF_SIMD=scalar and avx2; two table1
#               smokes (one per BF_SIMD) whose artifacts must be
#               bit-identical; two background_noise runs at the
#               pipeline's 256 features (table1 --smoke's 32 leave
#               conv2 one window), one per BF_SIMD, whose artifacts
#               must be bit-identical; a BF_SIMD=sse2 smoke that must
#               warn it ignores the value and still match the avx2
#               artifact;
#               and a cache-reuse smoke — two runs with --cache-dir
#               where the second must hit the stage cache and replay a
#               bit-identical artifact.
#   stage-cache — the stage-graph reuse gate: a cold --cache-dir run,
#               then a warm run with only eval folds changed (must skip
#               Collect/Featurize but retrain) and a warm run with only
#               --topk changed (must replay fold scores and skip
#               training entirely), each proven via --explain
#               provenance and bit-identical to a fresh uncached run;
#               then the cold spec with every fold score deleted (must
#               replay each fold model and match the cold artifact).
#   sim-perf  — the simulator perf-counter gate (DESIGN.md §13): the
#               test_sim_perf determinism suite, then a table1 smoke
#               whose --explain table and schemaVersion-4 artifact must
#               carry the per-stage sim counters, with the counter
#               values identical across --threads and BF_SIMD; then a
#               background_noise run at the default 256 features (the
#               only full-size CNN-LSTM training in this script) whose
#               artifact and stage-cache files must match between
#               --threads=1, --threads=4 and BF_SIMD=scalar
#               --threads=4; then table2_noise, table3_isolation and
#               table4_timer_defense smokes (each runs all its configs
#               through one call: three and five timeline groups, and
#               one group for all five Table 4 rows) whose artifacts
#               must match between --threads=1 and --threads=4.
#   address   — full build + ctest under AddressSanitizer.
#   undefined — full build + ctest under UBSan.
#   thread    — full build + ctest under ThreadSanitizer.
#   threads8  — plain build + ctest with BF_THREADS=8 to exercise the
#               parallel execution paths (and the bit-identity tests).
#
# Sanitizer and threads8 stages build with BIGFISH_WERROR=ON so the
# hardened warning set (-Wall -Wextra -Wshadow -Wconversion) gates the
# merge as well. The plain (unsanitized) build stays in build/.
#
# Every run ends with a summary table (stage, result, wall time). A
# stage that cannot run because its tool is missing reports `skipped`;
# with BIGFISH_REQUIRE_TOOLS=1 in the environment (CI), any skipped
# stage fails the gate instead of silently passing.
#
# Usage:
#   scripts/check.sh [lint-diff|lint|cppcheck|cli-smoke|resume-smoke|simd|stage-cache|sim-perf|address|undefined|thread|threads8]...
#   With no arguments, runs every stage.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
    stages=(lint-diff lint cppcheck cli-smoke resume-smoke simd stage-cache
            sim-perf address undefined thread threads8)
fi

jobs="$(nproc 2>/dev/null || echo 4)"

# Temp dirs registered by stages; removed on exit.
tmpdirs=()
cleanup() { [ ${#tmpdirs[@]} -gt 0 ] && rm -rf "${tmpdirs[@]}"; return 0; }

# --- End-of-run summary ------------------------------------------------
# Each completed stage appends (name, result, seconds); the EXIT trap
# prints the table even when a stage aborts the run, marking the stage
# that was in flight as failed.
summary_names=()
summary_states=()
summary_secs=()
current_stage=""
stage_begin=0
stage_state=ok

record_stage() {
    summary_names+=("$1")
    summary_states+=("$2")
    summary_secs+=("$3")
}

finish() {
    rc=$?
    cleanup
    if [ -n "$current_stage" ]; then
        record_stage "$current_stage" failed "$((SECONDS - stage_begin))"
    fi
    if [ ${#summary_names[@]} -gt 0 ]; then
        echo
        echo "== stage summary"
        printf '   %-14s %-8s %8s\n' stage result seconds
        skipped=0
        for i in "${!summary_names[@]}"; do
            printf '   %-14s %-8s %8s\n' "${summary_names[$i]}" \
                "${summary_states[$i]}" "${summary_secs[$i]}"
            [ "${summary_states[$i]}" = skipped ] && skipped=$((skipped + 1))
        done
        if [ "$rc" -eq 0 ] && [ "$skipped" -gt 0 ] &&
           [ "${BIGFISH_REQUIRE_TOOLS:-0}" = "1" ]; then
            echo "== $skipped stage(s) skipped but BIGFISH_REQUIRE_TOOLS=1:" \
                 "failing the gate" >&2
            rc=1
        fi
    fi
    if [ "$rc" -eq 0 ]; then
        echo "== all verification stages passed"
    fi
    exit "$rc"
}
trap finish EXIT

for stage in "${stages[@]}"; do
    current_stage="$stage"
    stage_begin=$SECONDS
    stage_state=ok
    case "$stage" in
      lint-diff)
        echo "== [lint-diff] build bigfish-lint"
        cmake -B "$repo/build" -S "$repo" > /dev/null
        cmake --build "$repo/build" --target bigfish-lint -j "$jobs"
        base=""
        if git -C "$repo" rev-parse --verify -q origin/main > /dev/null
        then
            base=origin/main
        elif git -C "$repo" rev-parse --verify -q HEAD~1 > /dev/null; then
            base=HEAD~1
        fi
        if [ -z "$base" ]; then
            echo "== [lint-diff] no base revision to diff against, skipping"
            stage_state=skipped
        else
            echo "== [lint-diff] bigfish-lint --since=$base"
            "$repo/build/tools/lint/bigfish-lint" \
                --root="$repo" \
                --config="$repo/tools/lint/bigfish-lint.toml" \
                --since="$base" \
                "$repo/src" "$repo/bench" "$repo/examples" "$repo/tests" \
                "$repo/tools/bigfish"
        fi
        ;;
      lint)
        echo "== [lint] build bigfish-lint"
        cmake -B "$repo/build" -S "$repo" > /dev/null
        cmake --build "$repo/build" --target bigfish-lint -j "$jobs"
        echo "== [lint] bigfish-lint over src/ bench/ examples/ tests/" \
             "tools/bigfish/"
        "$repo/build/tools/lint/bigfish-lint" \
            --root="$repo" \
            --config="$repo/tools/lint/bigfish-lint.toml" \
            "$repo/src" "$repo/bench" "$repo/examples" "$repo/tests" \
            "$repo/tools/bigfish"
        ;;
      cppcheck)
        if command -v cppcheck > /dev/null 2>&1; then
            echo "== [cppcheck] src/"
            cppcheck --enable=warning,performance,portability \
                --suppress=missingIncludeSystem --inline-suppr \
                --error-exitcode=1 --quiet -j "$jobs" \
                -I "$repo/src" "$repo/src"
        else
            echo "== [cppcheck] not installed, skipping"
            stage_state=skipped
        fi
        ;;
      cli-smoke)
        builddir="$repo/build"
        echo "== [cli-smoke] build bigfish"
        cmake -B "$builddir" -S "$repo" > /dev/null
        cmake --build "$builddir" --target bigfish -j "$jobs"
        smokedir="$(mktemp -d)"
        tmpdirs+=("$smokedir")
        echo "== [cli-smoke] bigfish run --all --smoke"
        "$builddir/bigfish" run --all --smoke --threads=2 \
            --json-dir="$smokedir" > "$smokedir/run.log"
        # One artifact per experiment; the suite manifest also lands in
        # --json-dir and is not an experiment artifact.
        count="$(ls "$smokedir"/*.json | grep -cv suite-manifest)"
        listed="$("$builddir/bigfish" list | grep -c '\[')"
        echo "== [cli-smoke] $count artifact(s) for $listed experiment(s)"
        [ "$count" -eq "$listed" ]
        echo "== [cli-smoke] usage and validation exit codes"
        # Strict validation: a garbage value is a usage error naming its
        # source, never silently eaten or partially parsed.
        rc=0
        "$builddir/bigfish" run fig7_timer_outputs --sites=abc \
            > /dev/null 2> "$smokedir/err.log" || rc=$?
        if [ "$rc" -ne 2 ]; then
            echo "--sites=abc exited $rc, expected 2" >&2; exit 1
        fi
        grep -q "flag --sites" "$smokedir/err.log"
        # Spec files are JSON only: a TOML file fails and is named.
        printf 'sites = 5\n' > "$smokedir/run.toml"
        if "$builddir/bigfish" run fig7_timer_outputs \
            --spec="$smokedir/run.toml" > /dev/null 2> "$smokedir/err.log"
        then
            echo "a TOML spec file was unexpectedly accepted" >&2; exit 1
        fi
        grep -qF "$smokedir/run.toml" "$smokedir/err.log"
        # Retired run flags are unknown flags, not silently ignored.
        for retired in --isolate --manifest=m.json --resume=ckpt; do
            rc=0
            "$builddir/bigfish" run fig7_timer_outputs "$retired" \
                > /dev/null 2>&1 || rc=$?
            if [ "$rc" -ne 2 ]; then
                echo "$retired exited $rc, expected 2" >&2; exit 1
            fi
        done
        if "$builddir/bigfish" run no_such_experiment > /dev/null 2>&1
        then
            echo "unknown experiment unexpectedly accepted" >&2; exit 1
        fi
        "$builddir/bigfish" list > /dev/null
        "$builddir/bigfish" describe table1_fingerprinting > /dev/null
        ;;
      resume-smoke)
        builddir="$repo/build"
        echo "== [resume-smoke] build bigfish"
        cmake -B "$builddir" -S "$repo" > /dev/null
        cmake --build "$builddir" --target bigfish -j "$jobs"
        rdir="$(mktemp -d)"
        tmpdirs+=("$rdir")
        echo "== [resume-smoke] reference run (no cache)"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --json="$rdir/ref.json" > /dev/null
        echo "== [resume-smoke] kill -9 mid-collection, then rerun"
        # Background the binary DIRECTLY (no compound command): $! must
        # be the bigfish pid itself, or the kill orphans the child and
        # it races the resumed run.
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --cache-dir="$rdir/ckpt" --json="$rdir/out.json" \
            > "$rdir/first.log" 2>&1 &
        pid=$!
        # Kill as soon as at least one collected cell has been committed.
        for _ in $(seq 1 200); do
            if compgen -G "$rdir/ckpt/cell-*.bfc" > /dev/null; then
                break
            fi
            sleep 0.05
        done
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --cache-dir="$rdir/ckpt" --json="$rdir/out.json" \
            > "$rdir/resume.log"
        if ! grep -q 'resuming:' "$rdir/resume.log"; then
            echo "== [resume-smoke] note: first run finished before the" \
                 "kill landed (resume path not exercised this time)"
        fi
        # Timings differ run to run and the config echo names the cache
        # dir (--cache-dir sets it); every result line must be identical.
        if ! diff <(grep -v -e 'Seconds' -e '"cache-dir"' "$rdir/ref.json") \
                  <(grep -v -e 'Seconds' -e '"cache-dir"' "$rdir/out.json"); then
            echo "resumed artifact differs from reference" >&2
            exit 1
        fi
        echo "== [resume-smoke] resumed artifact is bit-identical"
        echo "== [resume-smoke] forced IO crash under --keep-going"
        rc=0
        "$builddir/bigfish" run table1_fingerprinting fig3_traces --smoke \
            --threads=2 --keep-going --cache-dir="$rdir/crash-ckpt" \
            --io-crash-after=1 --json-dir="$rdir/crash" \
            > "$rdir/crash.log" 2>&1 || rc=$?
        manifest="$rdir/crash/suite-manifest.json"
        if [ "$rc" -ne 1 ]; then
            echo "expected suite exit 1 after forced crash, got $rc" >&2
            exit 1
        fi
        grep -q '"state": "crashed"' "$manifest"
        grep -q '"name": "fig3_traces", "state": "ok"' "$manifest"
        echo "== [resume-smoke] manifest records the crash; suite completed"
        ;;
      simd)
        builddir="$repo/build"
        echo "== [simd] build bigfish + test_kernel + test_ml"
        cmake -B "$builddir" -S "$repo" > /dev/null
        cmake --build "$builddir" --target bigfish test_kernel test_ml \
            -j "$jobs"
        sdir="$(mktemp -d)"
        tmpdirs+=("$sdir")
        for isa in scalar avx2; do
            # test_ml carries CnnLstm.TrainedWeightsDigestIsPinned: the
            # bench-shape classifier's trained bits under each ISA.
            for t in kernel ml; do
                echo "== [simd] $t tests under BF_SIMD=$isa"
                BF_SIMD="$isa" "$builddir/tests/test_$t" \
                    > "$sdir/$t-$isa.log" ||
                    { tail -n 40 "$sdir/$t-$isa.log"; exit 1; }
            done
        done
        echo "== [simd] BF_SIMD artifact bit-identity (table1 --smoke)"
        for isa in scalar avx2; do
            BF_SIMD="$isa" "$builddir/bigfish" run table1_fingerprinting \
                --smoke --threads=2 --json="$sdir/t1-$isa.json" > /dev/null
        done
        # Timings are the only run-to-run difference allowed.
        if ! diff <(grep -v 'Seconds' "$sdir/t1-scalar.json") \
                  <(grep -v 'Seconds' "$sdir/t1-avx2.json"); then
            echo "BF_SIMD=avx2 artifact differs from scalar" >&2
            exit 1
        fi
        echo "== [simd] BF_SIMD artifact bit-identity (background_noise, 256 features)"
        # The trained shape: 2 channels x 256 steps, so conv1, both
        # pools and conv2 run their full-width paths.
        for isa in scalar avx2; do
            BF_SIMD="$isa" "$builddir/bigfish" run background_noise \
                --sites=4 --traces=4 --folds=2 --features=256 \
                --threads=2 --json="$sdir/bg-$isa.json" > /dev/null
        done
        if ! diff <(grep -v 'Seconds' "$sdir/bg-scalar.json") \
                  <(grep -v 'Seconds' "$sdir/bg-avx2.json"); then
            echo "BF_SIMD=avx2 background_noise artifact differs" \
                 "from scalar" >&2
            exit 1
        fi
        echo "== [simd] artifacts bit-identical across BF_SIMD values"
        echo "== [simd] retired BF_SIMD value is ignored with a warning"
        BF_SIMD=sse2 "$builddir/bigfish" run table1_fingerprinting \
            --smoke --threads=2 --json="$sdir/t1-retired.json" \
            > /dev/null 2> "$sdir/t1-retired.err"
        grep -qF "ignoring BF_SIMD='sse2' (want scalar or avx2)" \
            "$sdir/t1-retired.err" ||
            { echo "retired BF_SIMD value did not warn" >&2
              cat "$sdir/t1-retired.err" >&2; exit 1; }
        if ! diff <(grep -v 'Seconds' "$sdir/t1-avx2.json") \
                  <(grep -v 'Seconds' "$sdir/t1-retired.json"); then
            echo "retired BF_SIMD value: artifact differs from avx2" >&2
            exit 1
        fi
        echo "== [simd] cache-reuse smoke (two runs, one --cache-dir)"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --cache-dir="$sdir/cache" --json="$sdir/cold.json" \
            > "$sdir/cold.log"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --cache-dir="$sdir/cache" --json="$sdir/warm.json" \
            > "$sdir/warm.log"
        grep -q 'stage cache: hit' "$sdir/warm.log" ||
            { echo "second --cache-dir run did not hit the cache" >&2
              exit 1; }
        if ! diff <(grep -v 'Seconds' "$sdir/cold.json") \
                  <(grep -v 'Seconds' "$sdir/warm.json"); then
            echo "cached replay artifact differs from cold run" >&2
            exit 1
        fi
        echo "== [simd] cached replay is bit-identical"
        ;;
      stage-cache)
        builddir="$repo/build"
        echo "== [stage-cache] build bigfish"
        cmake -B "$builddir" -S "$repo" > /dev/null
        cmake --build "$builddir" --target bigfish -j "$jobs"
        cdir="$(mktemp -d)"
        tmpdirs+=("$cdir")
        echo "== [stage-cache] cold run (populates the cache)"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --folds=3 --cache-dir="$cdir/cache" --explain \
            --json="$cdir/cold.json" > "$cdir/cold.log"
        grep -q 'stage cache: featurized miss' "$cdir/cold.log"
        echo "== [stage-cache] warm run, only eval folds changed"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --folds=2 --cache-dir="$cdir/cache" --explain \
            --json="$cdir/warm-folds.json" > "$cdir/warm-folds.log"
        # Featurized datasets replay, so collection never runs ...
        grep -q 'stage cache: hit' "$cdir/warm-folds.log"
        grep -Eq '/collect +\| collect +\| [0-9a-f]{16} \| skipped' \
            "$cdir/warm-folds.log"
        # ... but the changed fold split forces retraining.
        grep -Eq '/train/[^ ]+ +\| train +\| [0-9a-f]{16} \| stored' \
            "$cdir/warm-folds.log"
        echo "== [stage-cache] warm run, only --topk changed"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --folds=3 --topk=3 --cache-dir="$cdir/cache" --explain \
            --json="$cdir/warm-topk.json" > "$cdir/warm-topk.log"
        # Fold scores replay from the cache; training never runs.
        grep -Eq '/score/[^ ]+ +\| eval +\| [0-9a-f]{16} \| hit' \
            "$cdir/warm-topk.log"
        grep -Eq '/train/[^ ]+ +\| train +\| [0-9a-f]{16} \| skipped' \
            "$cdir/warm-topk.log"
        if grep -Eq '/train/[^ ]+ +\| train +\| [0-9a-f]{16} \| (stored|miss)' \
            "$cdir/warm-topk.log"; then
            echo "a --topk-only change retrained a fold" >&2
            exit 1
        fi
        echo "== [stage-cache] warm artifacts vs fresh uncached runs"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --folds=2 --json="$cdir/fresh-folds.json" > /dev/null
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --folds=3 --topk=3 --json="$cdir/fresh-topk.json" > /dev/null
        for variant in folds topk; do
            # Per-stage rows carry Seconds keys (timing and cache
            # provenance legitimately differ); the cache-dir spec echo
            # differs by construction. Everything else must match.
            if ! diff \
                <(grep -v -e 'Seconds' -e 'cache-dir' \
                    "$cdir/warm-$variant.json") \
                <(grep -v -e 'Seconds' -e 'cache-dir' \
                    "$cdir/fresh-$variant.json"); then
                echo "warm-$variant artifact differs from a fresh run" >&2
                exit 1
            fi
        done
        echo "== [stage-cache] cold spec again, fold scores deleted"
        rm -f "$cdir"/cache/scores-*.bfc
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --folds=3 --cache-dir="$cdir/cache" --explain \
            --json="$cdir/model-replay.json" > "$cdir/model-replay.log"
        # Every fold model decodes from its "model" entry ...
        grep -Eq '/train/[^ ]+ +\| train +\| [0-9a-f]{16} \| hit' \
            "$cdir/model-replay.log"
        if grep -Eq '/train/[^ ]+ +\| train +\| [0-9a-f]{16} \| (stored|miss|skipped)' \
            "$cdir/model-replay.log"; then
            echo "a fold model was not replayed from the cache" >&2
            exit 1
        fi
        # ... and scores back to the cold run's artifact.
        if ! diff \
            <(grep -v -e 'Seconds' -e 'cache-dir' "$cdir/model-replay.json") \
            <(grep -v -e 'Seconds' -e 'cache-dir' "$cdir/cold.json"); then
            echo "model-replay artifact differs from the cold run" >&2
            exit 1
        fi
        echo "== [stage-cache] cached reuse is provenance-clean and" \
             "bit-identical"
        ;;
      sim-perf)
        builddir="$repo/build"
        echo "== [sim-perf] build bigfish + test_sim_perf"
        cmake -B "$builddir" -S "$repo" > /dev/null
        cmake --build "$builddir" --target bigfish test_sim_perf -j "$jobs"
        pdir="$(mktemp -d)"
        tmpdirs+=("$pdir")
        echo "== [sim-perf] counter determinism tests"
        "$builddir/tests/test_sim_perf" > "$pdir/unit.log" ||
            { tail -n 40 "$pdir/unit.log"; exit 1; }
        echo "== [sim-perf] counters surface in --explain and the artifact"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=2 \
            --explain --json="$pdir/t2.json" > "$pdir/explain.log"
        grep -q 'sim_events' "$pdir/explain.log"
        grep -q '"simEvents": ' "$pdir/t2.json"
        grep -q '"simBytesSorted": ' "$pdir/t2.json"
        echo "== [sim-perf] counters identical across threads and BF_SIMD"
        "$builddir/bigfish" run table1_fingerprinting --smoke --threads=1 \
            --json="$pdir/t1.json" > /dev/null
        BF_SIMD=scalar "$builddir/bigfish" run table1_fingerprinting \
            --smoke --threads=2 --json="$pdir/t2s.json" > /dev/null
        # The sim* counters ride on the cpuSeconds stage lines, so the
        # generic 'Seconds'-filtered artifact diffs elsewhere in this
        # script never see them; compare the counter values directly.
        # simEventsPerSec is a timing-derived rate and legitimately
        # varies — only the three work counters must be deterministic.
        counters='"sim(Events|Interrupts|BytesSorted)": [0-9]*'
        for run in t1 t2s; do
            if ! diff \
                <(grep -oE "$counters" "$pdir/t2.json") \
                <(grep -oE "$counters" "$pdir/$run.json"); then
                echo "sim counters differ between t2 and $run" >&2
                exit 1
            fi
        done
        # A counter-free artifact would make the loop above pass
        # vacuously; require at least one nonzero eventsSimulated row.
        grep -Eq '"simEvents": [1-9]' "$pdir/t2.json"
        echo "== [sim-perf] per-stage sim counters are deterministic"
        # Full-size CNN-LSTM training (256 features, not the smoke
        # spec's) with folds running concurrently: every result must be
        # independent of the thread count and of BF_SIMD. The simd
        # stage only compares the smoke spec's tiny model, so the
        # scalar run here is what checks the AVX2 kernels at CNN-LSTM
        # scale. Each run fills its own stage cache, whose model and
        # score entries hold the trained bits: a one-ulp kernel
        # difference that moves no accuracy in the artifact still shows
        # there.
        for t in 1 4; do
            "$builddir/bigfish" run background_noise --sites=4 --traces=4 \
                --folds=3 --threads="$t" --json="$pdir/bg-t$t.json" \
                --cache-dir="$pdir/bg-cache-t$t" > /dev/null
        done
        BF_SIMD=scalar "$builddir/bigfish" run background_noise --sites=4 \
            --traces=4 --folds=3 --threads=4 --json="$pdir/bg-t4s.json" \
            --cache-dir="$pdir/bg-cache-t4s" > /dev/null
        bg_filter=(-e 'Seconds' -e '"threads"' -e '"cache-dir"')
        for run in t4 t4s; do
            if ! diff <(grep -v "${bg_filter[@]}" "$pdir/bg-t1.json") \
                      <(grep -v "${bg_filter[@]}" "$pdir/bg-$run.json") ||
               ! diff -r "$pdir/bg-cache-t1" "$pdir/bg-cache-$run"; then
                echo "background_noise artifact or stage cache differs" \
                     "between t1 and $run" >&2
                exit 1
            fi
        done
        echo "== [sim-perf] background_noise bit-identical at 1 and 4" \
             "threads and BF_SIMD=scalar"
        # Experiments that run several configs through one call: Table
        # 2's three noise conditions and Table 3's five isolation steps
        # each form their own timeline group, and Table 4's five rows
        # share one. Their artifacts must not depend on the thread count.
        for exp in table2_noise table3_isolation table4_timer_defense; do
            for t in 1 4; do
                "$builddir/bigfish" run "$exp" --smoke \
                    --threads="$t" --json="$pdir/$exp-t$t.json" > /dev/null
            done
            if ! diff <(grep -v -e 'Seconds' -e '"threads"' \
                            "$pdir/$exp-t1.json") \
                      <(grep -v -e 'Seconds' -e '"threads"' \
                            "$pdir/$exp-t4.json"); then
                echo "$exp artifact differs between 1 and 4 threads" >&2
                exit 1
            fi
            echo "== [sim-perf] $exp bit-identical at 1 and 4 threads"
        done
        ;;
      address|undefined|thread)
        san="$stage"
        builddir="$repo/build-$san"
        echo "== [$san] configure -> $builddir"
        cmake -B "$builddir" -S "$repo" -DBIGFISH_SANITIZE="$san" \
            -DBIGFISH_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
        echo "== [$san] build"
        cmake --build "$builddir" -j "$jobs"
        echo "== [$san] ctest"
        # Sanitizers only see threading bugs on paths that actually spawn
        # workers, so force a multi-threaded pool even on small machines.
        (cd "$builddir" && BF_THREADS=8 ctest --output-on-failure -j 1)
        ;;
      threads8)
        builddir="$repo/build"
        echo "== [threads8] configure -> $builddir"
        cmake -B "$builddir" -S "$repo" -DBIGFISH_WERROR=ON
        echo "== [threads8] build"
        cmake --build "$builddir" -j "$jobs"
        echo "== [threads8] ctest with BF_THREADS=8"
        (cd "$builddir" && BF_THREADS=8 ctest --output-on-failure -j "$jobs")
        ;;
      *)
        echo "unknown stage '$stage' (want lint-diff, lint, cppcheck," \
             "cli-smoke, resume-smoke, simd, stage-cache, sim-perf," \
             "address, undefined, thread or threads8)" >&2
        exit 2
        ;;
    esac
    record_stage "$stage" "$stage_state" "$((SECONDS - stage_begin))"
    current_stage=""
done
