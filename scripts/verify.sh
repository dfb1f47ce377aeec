#!/usr/bin/env bash
# Tier-1 gate + executor smoke bench.
#
# 1. cargo build --release     — the workspace must build clean, offline,
#    and warning-free (-D warnings promotes any warning to a hard error).
# 2. cargo test -q             — all unit/integration/property tests.
# 3. fixed-seed fuzz slice     — a small deterministic slice of the
#    differential fuzz sweep (tests/fuzz_differential.rs); the full
#    64-case sweep runs as part of step 2, this re-runs a slice with
#    validation forced on even in release builds (FX_VALIDATE=1), once
#    per GEMM engine (FX_SIMD=1 AVX2 microkernels, FX_SIMD=0 portable
#    scalar), as is the fx-tensor kernel suite — in release and again in
#    a debug build, so the debug_assert!s guarding the microkernels'
#    unsafe A windows, packed-B spans and C tiles actually run.
# 3a. GEMM blocking sweep      — the fx-tensor suite and the executor,
#    serve and quant parity suites under a tiny FX_GEMM_KC=64
#    FX_GEMM_NC=32, so the suites' small shapes take the multi-span,
#    multi-KC-block and multi-column-panel paths of the f32 and int8
#    GEMM drivers. Parity holds at any fixed KC (KC changes f32 bits
#    only against a different KC, never within a process).
# 3b. memory-planner parity    — the executor parity suite under both
#    FX_MEMPLAN=0 and FX_MEMPLAN=1, proving the buffer-pool planner is
#    bit-identical to plain allocation on the paper's models.
# 3c. fused-graph parity       — the executor + serve parity suites in
#    release mode, once per GEMM engine: the epilogue-fused graph
#    (fx_backend::fuse_epilogues) and the prepared executor backend
#    answer bit-identically to the solo executor, including under
#    concurrent serve load.
# 3d. quantized parity         — tests/quant_parity.rs under every
#    FX_SIMD × FX_MEMPLAN combination: a PTQ int8 ResNet answers
#    bit-identically across engines, thread counts, planner modes and
#    batch positions, and the serve registry hot-swaps f32↔int8.
# 4. interp_vs_executor bench  — sequential (1-thread) vs parallel
#    plan-cached Executor on ResNet-50; records measured numbers (and the
#    plan-cache counters, allocator and kernel roofline rows) to
#    BENCH_executor.json at the workspace root.
# 5. serve smoke bench         — a few hundred requests from 4 concurrent
#    clients through the fx_serve dynamic batcher vs a one-at-a-time
#    baseline, then the 2-model registry phases (solo baselines,
#    weighted-fair contention, hot swap under load); records throughput
#    and latency percentiles plus the per-model fairness rows to
#    BENCH_serve.json at the workspace root. (fx-serve builds under the
#    same -D warnings as the rest of the workspace in steps 1–2.)
# 6. multi-model serve smoke   — the registry suite in release mode:
#    ResNet-50 hot swap under 4 concurrent clients (zero failures,
#    bit-exact versioning) plus a fixed-seed slice of the concurrent
#    register/swap/unregister/infer schedule fuzz.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-D warnings"

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== tier-1: fixed-seed differential fuzz slice (both SIMD modes) =="
FX_SIMD=1 FX_VALIDATE=1 FX_FUZZ_CASES=8 cargo test -q --release --test fuzz_differential
FX_SIMD=0 FX_VALIDATE=1 FX_FUZZ_CASES=8 cargo test -q --release --test fuzz_differential

echo "== kernel engines: fx-tensor suite under AVX2 (+/- VNNI) and scalar =="
FX_SIMD=1 cargo test -q --release -p fx-tensor
FX_SIMD=1 FX_VNNI=0 cargo test -q --release -p fx-tensor
FX_SIMD=0 cargo test -q --release -p fx-tensor

echo "== kernel safety checks: fx-tensor suite in a debug build (both SIMD modes) =="
FX_SIMD=1 cargo test -q -p fx-tensor
FX_SIMD=0 cargo test -q -p fx-tensor

echo "== GEMM blocking sweep: FX_GEMM_KC=64 FX_GEMM_NC=32 =="
FX_GEMM_KC=64 FX_GEMM_NC=32 cargo test -q --release -p fx-tensor
FX_GEMM_KC=64 FX_GEMM_NC=32 cargo test -q --release \
    --test executor_parity --test serve_parity --test quant_parity

echo "== memory-planner parity: FX_MEMPLAN=0 =="
FX_MEMPLAN=0 cargo test -q --release --test executor_parity --test memplan_estimator

echo "== memory-planner parity: FX_MEMPLAN=1 =="
FX_MEMPLAN=1 cargo test -q --release --test executor_parity --test memplan_estimator

echo "== executor vs fused-graph parity (both SIMD modes) =="
FX_SIMD=1 cargo test -q --release --test executor_parity --test serve_parity
FX_SIMD=0 cargo test -q --release --test executor_parity --test serve_parity

echo "== quantized parity: int8 bit-identity across SIMD x memplan + f32<->int8 hot swap =="
# The suite itself sweeps threads and batch position; the process-level
# axes (GEMM engine, memory planner) are swept here. Every combination
# must produce byte-identical int8 model outputs, and the registry must
# hot-swap between the f32 and int8 versions with zero failed requests.
FX_SIMD=1 FX_MEMPLAN=1 cargo test -q --release --test quant_parity
FX_SIMD=1 FX_MEMPLAN=0 cargo test -q --release --test quant_parity
FX_SIMD=0 FX_MEMPLAN=1 cargo test -q --release --test quant_parity
FX_SIMD=0 FX_MEMPLAN=0 cargo test -q --release --test quant_parity

echo "== smoke bench: interp_vs_executor =="
cargo bench -p fx-bench --bench interp_vs_executor

echo "== BENCH_executor.json =="
cat BENCH_executor.json

echo "== kernel roofline smoke: GEMM/conv GFLOP/s vs host peak recorded =="
grep -q '"kernels"' BENCH_executor.json
grep -q '"fraction_of_peak"' BENCH_executor.json
echo "kernel roofline section present"

echo "== smoke bench: serve (dynamic batching vs one-at-a-time) =="
cargo bench -p fx-bench --bench serve

echo "== BENCH_serve.json =="
cat BENCH_serve.json

echo "== registry smoke: weighted-fair + swap-under-load rows recorded =="
grep -q '"registry"' BENCH_serve.json
grep -q '"fair_share_fraction"' BENCH_serve.json
grep -q '"swap_under_load"' BENCH_serve.json
echo "registry section present (>=80% fair share + zero swap failures asserted in-bench)"

echo "== multi-model serve smoke: hot swap under load + schedule fuzz slice =="
FX_FUZZ_CASES=3 cargo test -q --release --test serve_registry
echo "verify: OK"
