#!/usr/bin/env bash
# The tier-1 gate, runnable anywhere: formatting, then a fully offline
# release build and test run. The workspace has zero external crate
# dependencies, so CARGO_NET_OFFLINE=true must always succeed — any change
# that reintroduces a network-resolved dependency fails here.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --check

# Warnings are errors: the crates carry #![warn(missing_docs)] and
# rust_2018_idioms, and clippy runs over every target including tests.
echo "==> cargo clippy -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -q -- -D warnings
else
    echo "    (clippy not installed; falling back to cargo check)"
    RUSTFLAGS="-D warnings" cargo check --workspace --all-targets -q
fi

# Docs are part of the API surface: #![warn(missing_docs)] everywhere,
# and rustdoc warnings (broken intra-doc links, bad code fences) are
# errors.
echo "==> cargo doc -q (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> cargo build --release (offline)"
cargo build --release --workspace

echo "==> cargo test -q (offline)"
cargo test -q --workspace

# Behaviour lock: FNV digests of every serving runner's Chrome trace and
# metrics JSON over a fixed matrix must match tests/golden/. Run on its own
# so a drift is reported as a lock break, not as one test among hundreds;
# the LIGER_CORE=par full-suite pass below covers it on the parallel core.
echo "==> behaviour lock"
cargo test -q --test behaviour_lock

# Fault-injection and property suites: once with the pinned seed the suite
# is known-green on (reproducible gate), once unpinned (testkit derives a
# fresh seed per process, widening coverage over time). A failure prints
# the LIGER_PROP_SEED to rerun the exact case.
echo "==> fault & property suites (pinned seed)"
LIGER_PROP_SEED=0xfa0175 cargo test -q --test fault_injection --test golden_trace --test recovery
LIGER_PROP_SEED=0xfa0175 cargo test -q -p liger-gpu-sim --test fault_props --test proptests --test core_props
LIGER_PROP_SEED=0xfa0175 cargo test -q -p liger-kvcache --test pool_props --test prefix_props

echo "==> fault & property suites (fresh seed)"
cargo test -q -p liger-gpu-sim --test fault_props --test proptests --test core_props
cargo test -q -p liger-kvcache --test pool_props --test prefix_props
cargo test -q --test recovery

# Parallel event core gate (DESIGN.md §13): the full tier-1 suite must be
# observationally identical on the device-sharded core — LIGER_CORE=par
# reroutes every Simulation::run in the workspace through ParallelCore —
# plus the serving-level invariance suite with a pinned property seed, and
# the bench_simcore smoke run, which cross-checks both cores dispatch
# identical event counts to identical simulated end times.
echo "==> full test suite under LIGER_CORE=par"
LIGER_CORE=par cargo test -q --workspace
LIGER_CORE=par LIGER_PROP_SEED=0xfa0175 \
    cargo test -q -p liger-gpu-sim --test core_props --test fault_props --test proptests

echo "==> cross-core invariance suite"
cargo test -q --test core_invariance

# Prefix/speculation differential gate: the same seeded shared-prefix trace
# with caching and speculation off/on must emit identical token streams,
# sanitize clean healthy and under a device loss, and replay byte-identically
# across event cores.
echo "==> prefix caching differential suite"
cargo test -q --test prefix_caching

# Chaos tier (DESIGN.md §15): >=32 seeded random fault storms — windowed
# outages, rejoins, flaps, stragglers, kernel failures — over continuous
# serving with recovery and re-expansion. Once on the pinned known-green
# seed, once fresh. Release build: each storm runs the real engine against
# a fault-free oracle on both event cores.
echo "==> chaos storm tier (pinned seed)"
LIGER_PROP_SEED=0xfa0175 cargo test -q --release --test chaos
echo "==> chaos storm tier (fresh seed)"
cargo test -q --release --test chaos

echo "==> bench_simcore --smoke"
cargo run --release -q -p liger-bench --bin bench_simcore -- --smoke

# Recovery ablation accounting gate: a short trace through every loss
# scenario x policy; the binary exits non-zero if any request goes missing
# without a recorded shed reason or detection exceeds the watchdog bound.
echo "==> ablation_recovery --smoke"
cargo run --release -q -p liger-bench --bin ablation_recovery -- --smoke

# Batching ablation gate: the same skewed workload through static and
# continuous batching; exits non-zero unless continuous strictly beats
# static on both token throughput and p99 latency, every sequence is
# accounted for, and the healthy + device-loss traces sanitize clean.
echo "==> ablation_batching --smoke"
cargo run --release -q -p liger-bench --bin ablation_batching -- --smoke

# Prefix-caching ablation gate: a skewed shared-prefix workload with the
# cache on must deliver at least 2x the uncached prefill throughput with
# identical outputs, zero sanitizer diagnostics and zero double frees,
# healthy and under a device loss.
echo "==> ablation_prefix --smoke"
cargo run --release -q -p liger-bench --bin ablation_prefix -- --smoke

# Chaos ablation gate: healthy vs degraded vs outage+rejoin on the same
# workload; exits non-zero unless every job is accounted for, outputs match
# the fault-free run, and the rejoin path re-expands back to full width.
echo "==> ablation_chaos --smoke"
cargo run --release -q -p liger-bench --bin ablation_chaos -- --smoke

# Cluster tier (DESIGN.md §17): replica router and disaggregated
# prefill/decode must be byte-identical across event cores (every router
# policy, healthy and degraded NIC), survive a replica-loss storm with
# every job accounted for, and keep every per-replica / per-node trace
# sanitizer-clean.
echo "==> cluster serving tier"
cargo test -q -p liger-verify --test cluster_props

# Disaggregation ablation gate: under mixed prompt lengths, the
# prefill/decode split must cut decode p99 vs the colocated
# continuous-batching arm with both nodes' traces sanitizer-clean and the
# streamed KV blocks fully accounted. Once on the pinned default seed,
# once on a fresh one.
echo "==> ablation_disagg --smoke (pinned seed)"
cargo run --release -q -p liger-bench --bin ablation_disagg -- --smoke
DISAGG_SEED=$((RANDOM * 32768 + RANDOM))
echo "==> ablation_disagg --smoke (fresh seed $DISAGG_SEED)"
cargo run --release -q -p liger-bench --bin ablation_disagg -- --smoke --seed "$DISAGG_SEED"

# Verification gate: the static plan verifier proves the default
# deployments deadlock-free and memory-feasible (healthy and one-loss
# degraded), and the happens-before sanitizer must report zero diagnostics
# on every checked-in golden trace. Any diagnostic is a non-zero exit.
echo "==> liger-verify plans"
cargo run --release -q -p liger-verify --bin liger-verify -- plans

echo "==> liger-verify golden traces"
cargo run --release -q -p liger-verify --bin liger-verify -- tests/golden/*.json

# Model-checker gate (DESIGN.md §16): DPOR exploration of event
# interleavings. The adversarial battery must reproduce every expected
# MC-* verdict (and nothing else); the five ablation launch programs must
# explore exhaustively with zero diagnostics and a DPOR reduction ratio
# of at least 2x (typically 40-54x — the canonical run plus every
# commutable alternative pruned). Also pinned + fresh-seed soundness
# props: pruned exploration must visit exactly the naive terminal set.
# --min-ratio applies to the ablation programs only: battery cases such as
# racy-reprice contain a real (non-commutable) race, so both schedules are
# explored and a reduction floor would be vacuously unmeetable there.
echo "==> liger-verify explore (adversarial battery)"
cargo run --release -q -p liger-verify --bin liger-verify -- \
    explore battery --bound 512
echo "==> liger-verify explore (ablation programs, reduction >= 2x)"
cargo run --release -q -p liger-verify --bin liger-verify -- \
    explore ablation --bound 512 --min-ratio 2.0

echo "==> model-checker soundness props (pinned + fresh seed)"
LIGER_PROP_SEED=0xfa0175 cargo test -q -p liger-verify --test mc_props --test known_bad
cargo test -q -p liger-verify --test mc_props

echo "ci.sh: all checks passed"
