#!/usr/bin/env bash
# Offline CI gate: tier-1 (release build + full test suite) plus a
# zero-warning clippy sweep over every target. No network access is
# required — the workspace has no external dependencies. The workspace
# `default-members` make the plain tier-1 commands cover every crate:
# the root package, every member crate's unit tests and doctests.
#
# The tier-1 stages are wall-clocked so fault-simulation / test-suite
# perf regressions show up in the CI log itself.
set -euo pipefail
cd "$(dirname "$0")"

t0=$(date +%s)
echo "== tier-1: release build =="
cargo build --release
t1=$(date +%s)
echo "tier-1 build wall clock: $((t1 - t0)) s"

echo "== tier-1: test suite =="
cargo test -q
t2=$(date +%s)
echo "tier-1 test wall clock: $((t2 - t1)) s"
echo "tier-1 total wall clock: $((t2 - t0)) s"

# Fast standalone re-run of the supervisor's fault-injection matrix
# (every stage x every fault kind must recover or fail typed). Already
# covered by the suite above; kept as its own target so a resilience
# regression is named in the CI log.
echo "== resilience: fault-injection smoke =="
cargo test -q --release --test resilience fault_injection_matrix
t3=$(date +%s)
echo "fault-injection smoke wall clock: $((t3 - t2)) s"

# Incremental-STA smoke: replay one (corner, seed) point of the paper's
# ECO history. The test fails if any localized change falls back to a
# full re-annotation, recompiles the engine's snapshot instead of
# patching it from the ECO journal, lets the patched snapshot drift from
# a fresh compile, or spends O(netlist) bookkeeping (levels recomputed,
# fanout entries patched and endpoint recomputes are each asserted well
# below netlist size per change). Evaluation is O(cone); the patch also
# re-sorts the snapshot's (level, id) order with one linear counting
# sort over the instances. Already in the suite above; named here so an
# incremental-STA regression is called out in the CI log.
echo "== eco_sta: incremental-STA smoke =="
cargo test -q --release --test sta_incremental replay_is_bit_identical_typical_corner_seed_a
t4=$(date +%s)
echo "eco_sta smoke wall clock: $((t4 - t3)) s"

# Parallel-kernel smoke: the two kernels parallelized in the routing /
# multi-corner-STA round must stay bit-identical to serial at 1/2/4
# threads, and the full-flow two-corner sign-off must actually engage
# the fan-out (`threads_used` assertions fail if either kernel silently
# drops back to serial). Already in the suite above; named here so a
# determinism or plumbing regression is called out in the CI log.
echo "== par: route + multi-corner STA determinism smoke =="
cargo test -q --release --test par_determinism -- \
    routing_is_thread_count_invariant \
    multi_corner_sta_is_thread_count_invariant
cargo test -q --release --test full_flow \
    two_corner_signoff_on_dsc_engages_parallel_kernels
t5=$(date +%s)
echo "par smoke wall clock: $((t5 - t4)) s"

# Compiled-netlist smoke: the SoA/CSR snapshot must mirror the graph
# adjacency exactly, the STA passes that walk it must match their
# graph-walking test oracle, equivalence must give the same report at
# every thread count, and a journal-patched snapshot must equal a fresh
# compile across the full paper ECO history. Already in the suite
# above; named here so a compiled-core regression is called out in the
# CI log.
echo "== compiled: SoA/CSR bit-identity smoke =="
cargo test -q --release --test compiled_netlist -- \
    csr_adjacency_matches_graph_adjacency \
    equiv_reports_agree_across_threads \
    journal_patched_snapshot_matches_fresh_compile_across_eco_history
cargo test -q --release -p camsoc-sta --lib -- \
    sta_reports_on_compiled_core_match_graph_engine
t6=$(date +%s)
echo "compiled smoke wall clock: $((t6 - t5)) s"

# Serve-farm smoke: enqueue 3 small tapeout jobs, kill the farm mid-run
# (stage-budget simulated kill: ledger frozen at `running`, checkpoints
# on disk), restart it on the same directory, and require all 3 jobs to
# complete with clean sign-off, >= 1 trace recording resumed == true,
# and GDSII bit-identical to uninterrupted supervisor runs. The
# kill-after-every-stage matrix behind it also runs named from the
# suite so a checkpoint-durability regression is called out in the log,
# as does the worker-count sweep: a healthy queue at 1 and 2 workers
# must tape out every job with no retry, quarantine or preemption.
echo "== serve: durable farm kill/restart smoke =="
rm -rf target/ci-serve-smoke
cargo run -q --release -p camsoc-serve --bin serve_smoke target/ci-serve-smoke
rm -rf target/ci-serve-smoke
cargo test -q --release --test serve_farm -- \
    kill_after_every_stage_resumes_bit_identical \
    results_are_worker_count_invariant
t7=$(date +%s)
echo "serve smoke wall clock: $((t7 - t6)) s"

# Serve-farm contention smoke: TWO worker processes on ONE directory.
# Process A is SIGKILLed mid-stage; process B must reclaim A's jobs the
# moment their leases go provably stale (owner lock released by the OS)
# and finish everything with GDSII bit-identical to uninterrupted
# reference runs. A second scenario drives an always-panicking poison
# job to the `quarantined` terminal state after deterministic retries
# while healthy jobs drain normally. The in-process two-farm /
# stale-vs-live-lease / preemption matrix also runs named from the
# suite so a lease-protocol regression is called out in the log.
echo "== serve: two-process contention + quarantine smoke =="
rm -rf target/ci-serve-contention
cargo run -q --release -p camsoc-serve --bin serve_contention target/ci-serve-contention
rm -rf target/ci-serve-contention
cargo test -q --release --test serve_farm -- \
    concurrent_farms_share_one_directory \
    stale_leases_reclaim_but_live_leases_do_not \
    critical_jobs_preempt_running_low_priority_work \
    poison_jobs_quarantine_without_stalling_the_queue
t7b=$(date +%s)
echo "serve contention smoke wall clock: $((t7b - t7)) s"

# Hierarchical-hardening smoke: harden a small tile library in parallel
# through the full flow, integrate the abstracts at top level, and
# re-run against the warm abstract cache — the warm pass must re-harden
# nothing and produce a bit-identical integration (GDSII included), and
# the hierarchical implementation must agree with the flat one on the
# sign-off outcome with worst slack inside the abstract's pessimism
# bound. Reduced-scale tiles keep this bounded; the million-gate
# comparison lives in perf_report. Already in the suite above; named
# here so a hierarchy regression is called out in the CI log.
echo "== hier: bottom-up hardening + warm-cache smoke =="
cargo test -q --release --test hier_hardening -- \
    hier_and_flat_agree_on_signoff \
    warm_cache_rehardens_nothing_and_changes_nothing
cargo test -q --release --test par_determinism \
    macro_hardening_is_thread_count_invariant
t7c=$(date +%s)
echo "hier smoke wall clock: $((t7c - t7b)) s"

# DFT smoke: full-universe ATPG on the scanned DSC block at two seeds
# must reproduce its pinned result exactly — every fault bucket, the
# random/PODEM split, the pattern count, the fault-simulation gate
# evaluations and an FNV-1a digest of the pattern bits. Already in the
# suite above; named here so an ATPG regression is called out in the CI
# log.
echo "== dft: golden ATPG smoke =="
cargo test -q --release --test fsim_cache golden_atpg_on_the_dsc_block
t7d=$(date +%s)
echo "dft smoke wall clock: $((t7d - t7c)) s"

# Docs smoke: the performance/architecture documentation must stay in
# sync with the tree. Fails if any relative markdown link in README,
# docs/ARCHITECTURE.md or docs/PERFORMANCE.md points at a missing file,
# or if a backtick-quoted "key" named in docs/PERFORMANCE.md does not
# appear in BENCH_par.json.
echo "== docs: cross-link + BENCH schema smoke =="
docs_fail=0
for doc in README.md docs/ARCHITECTURE.md docs/PERFORMANCE.md; do
    if [ ! -f "$doc" ]; then
        echo "docs smoke: $doc is missing"
        docs_fail=1
        continue
    fi
    dir=$(dirname "$doc")
    links=$(grep -oE '\]\([^)#]+' "$doc" | sed 's/^](//' \
        | grep -vE '^(https?:|mailto:)' || true)
    for link in $links; do
        if [ ! -e "$dir/$link" ] && [ ! -e "$link" ]; then
            echo "docs smoke: $doc links to missing file: $link"
            docs_fail=1
        fi
    done
done
if [ -f docs/PERFORMANCE.md ] && [ -f BENCH_par.json ]; then
    keys=$(grep -oE '`"[a-z_]+"`' docs/PERFORMANCE.md | tr -d '`' | sort -u || true)
    for key in $keys; do
        if ! grep -qF "$key" BENCH_par.json; then
            echo "docs smoke: PERFORMANCE.md references $key, absent from BENCH_par.json"
            docs_fail=1
        fi
    done
else
    echo "docs smoke: docs/PERFORMANCE.md or BENCH_par.json is missing"
    docs_fail=1
fi
[ "$docs_fail" -eq 0 ]
echo "docs smoke OK"

echo "== clippy (all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "CI OK"
