#!/usr/bin/env bash
# Full verification gate: tier-1 build+test, workspace tests, lint, format.
# CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: root package tests =="
cargo test -q

echo "== workspace tests =="
cargo test --workspace -q

echo "== lane/gang bit-identity suites on one worker =="
# The lane kernels, the session gang steppers and BCM training (the
# golden weight-store fingerprints) must be bit-identical across any
# worker count. The workspace run above uses the host default; this
# re-runs the referees with the serial path forced. The fx lane suite
# runs 512 cases here (proptest's default is 64) because the one lane
# body's clipped border loop is the case space it covers; so does the
# float BCM suite (the f32 instance of the same schedule, which every
# float BCM product runs, convs and 1-tap layers alike: every batch
# width bit-identical to width 1, and within 1e-5 of the dense training
# forward).
RPBCM_THREADS=1 PROPTEST_CASES=512 cargo test -q -p hwsim --test fx_lane_bitident
RPBCM_THREADS=1 cargo test -q -p serve --test seq_gang_bitident
RPBCM_THREADS=1 cargo test -q -p serve --test sessions
RPBCM_THREADS=1 cargo test -q -p nn --lib seq::
RPBCM_THREADS=1 cargo test -q -p nn --test weight_store
RPBCM_THREADS=1 PROPTEST_CASES=512 cargo test -q -p nn --test spectral_conv
RPBCM_THREADS=1 cargo test -q -p hwsim --lib recurrent::
RPBCM_THREADS=1 cargo test -q -p serve --lib session::
RPBCM_THREADS=1 cargo test -q -p circulant
RPBCM_THREADS=1 cargo test -q --test properties

echo "== checkpoint and deployment-package codecs under release arithmetic =="
# The test profile traps integer overflow; release wraps silently. The
# decoders' rejection tests on crafted records must hold in both. Both
# codecs store the skip index through rpbcm::skipindex's byte codec.
cargo test --release -q -p nn --lib layers::checkpoint::
cargo test --release -q -p hwsim --lib deploy::
cargo test --release -q -p rpbcm-core --lib skipindex::

echo "== serve tests with telemetry enabled (flight tracing live) =="
# Re-runs the serve suite with the metrics registry and per-request
# flight tracing switched on, so the traced code paths (stage stamps,
# ring pushes, stats snapshots, SLO watchdog) are exercised for real —
# with RPBCM_TELEMETRY unset they compile to near-no-ops.
RPBCM_TELEMETRY=1 cargo test -q -p serve

echo "== serve smoke (loopback load test + 10k-connection open loop) =="
# Quick burst against an in-process sharded server: asserts non-zero
# throughput, zero protocol errors, shedding only under overload, and —
# via a child-process driver — that 10,000 concurrent connections are
# served with bounded p99, zero lost replies and per-shard connection
# imbalance <= 1. Also runs the streaming-session scenario: concurrent
# float + fx sessions whose per-step replies must be bit-identical to
# offline full-sequence references. Does not overwrite the committed
# results/BENCH_serve.json artifact.
cargo run -q --release -p bench --bin exp_serve -- --smoke

echo "== seq smoke (BCM-LSTM train + prune + streaming parity) =="
# Trains a block-circulant LSTM on the delayed-recall task at a reduced
# budget, prunes it with Algorithm 1, then serves the pruned checkpoint
# over real streaming sessions: asserts above-chance accuracy, blocks
# actually pruned, bounded accuracy loss, and bit-identical float + fx
# per-step replies vs the offline forward. Does not overwrite the
# committed results/BENCH_seq.json artifact.
cargo run -q --release -p bench --bin exp_seq -- --smoke

echo "== kernel smoke (lane bit-identity + datapath fingerprint) =="
# Quick scalar-vs-lane run of every vectorized spectral kernel: asserts
# word-for-word agreement with the scalar references and recomputes the
# integer-only datapath fingerprint against the committed
# results/BENCH_kernels.json (byte-identity across hosts and RUSTFLAGS).
# Does not overwrite the committed artifact.
cargo run -q --release -p bench --bin exp_kernels -- --smoke

echo "== train scaling smoke (data-parallel determinism + shard profile) =="
# Seconds-scale Trainer::fit sweep at 1 and 2 workers: asserts the final
# weights are bit-identical across worker counts and that the shard
# telemetry measured a non-zero parallel fraction. Does not overwrite the
# committed results/BENCH_train.json artifact.
cargo run -q --release -p bench --bin exp_train_scaling -- --smoke

echo "== telemetry-enabled experiment run + regression gate =="
# Regenerates results/TELEMETRY_fig10.json (deterministic modeled cycles)
# and a Chrome trace under target/, then runs the regression reporter:
# exp_report parses every results/BENCH_*/TELEMETRY_* artifact (exiting
# non-zero on malformed JSON) and diffs them against results/BASELINE.json,
# failing on any out-of-tolerance metric (--check). The committed
# BENCH_serve.json is covered (protocol_errors/shed/session-parity
# invariants at zero tolerance, the batch-scaling ratio with a
# host-variance allowance), as is BENCH_seq.json (accuracy/sparsity
# with training-variance allowances, parity bits exact).
RPBCM_TELEMETRY=1 RPBCM_TRACE=target/verify_trace.json \
    cargo run -q --release -p bench --bin exp_fig10
cargo run -q --release -p bench --bin exp_report -- --check

echo "== benchmark harness tests =="
# perfbench is a workspace of its own that links the library crates by
# path, so an API change that breaks the benchmark fails here rather
# than only when the benchmark is next run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== prune_pipeline output check, every recorded variant =="
# prune_pipeline trains, prunes and folds a hadaBCM vgg_tiny and checks
# its sparsity, final alpha and folded-weight fingerprint against the
# values recorded for its variant (seed mod 4). The harness tests above
# run seed 7 (variant 3); seeds 4, 5 and 6 cover variants 0-2.
for seed in 4 5 6; do
    line=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload prune_pipeline --seed "$seed" --seconds 1 --trace 0 | tail -n 1)
    echo "prune_pipeline seed $seed: $line"
    case "$line" in
        *'"correct": true,'*'"failed": 0,'*) ;;
        *) echo "verify: prune_pipeline seed $seed failed its output check" >&2; exit 1 ;;
    esac
done

echo "== rustdoc (deny warnings) =="
# Also keeps docs/PROTOCOL.md and docs/OPERATIONS.md honest: both are
# compiled into the serve crate's rustdoc (serve::spec), so broken
# intra-doc links or stale Rust examples fail here / under cargo test.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== markdown link check =="
./scripts/check_docs.sh

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --check

echo "verify: all gates passed"
