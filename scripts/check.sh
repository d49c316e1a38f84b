#!/usr/bin/env bash
# Lint gate: clippy with warnings denied, formatting, rustdoc with warnings
# denied (broken or private intra-doc links), the forbidden-pattern pass
# (scripts/forbidden_patterns.py) and the async-safety lint
# (scripts/analyze_async_safety.py, self-test first). Referenced from
# README "Building and testing"; CI and pre-commit hooks run this.
#
# Optional sanitizer jobs (skipped gracefully when the toolchain pieces
# are not installed; CI runs them as non-blocking matrix entries):
#   CHECK_MIRI=1 scripts/check.sh   — Miri over the ftc-stm unit tests
#   CHECK_TSAN=1 scripts/check.sh   — ThreadSanitizer over ftc-stm tests
#
# Protocol model checker (one explorer, every check on every schedule:
# the exhaustive f=1 gate — 3,360 steady-state and 14,400 handover
# schedules — the 672-schedule f=2 matrix and the buffer sabotage, which
# must trip I1, ~3.5 s in release on 2 vCPUs; then the handover sabotage,
# which must trip I5 and I6, as its own cargo invocation. With
# FTC_EXPLORE_DEEP=1 the 4-monitor matrix — 141,840 schedules, handovers
# under all 720 interleavings — adds ~40 s; CI runs it nightly):
#   scripts/check.sh --explore
#
# Standing-benchmark smoke (benchmark/run.sh --smoke, ~14 s of measuring:
# all four workloads, both passes; its exit code is its output checks —
# exact delivery, no trailer on released packets, head counter ==
# replicated copy == packets released — not its timings):
#   scripts/check.sh --bench-smoke
#
# Async-transport model checker (deterministic interleaving x fault
# schedules over the real socket backend, ~1 second at the PR-gate bound;
# FTC_TRANSPORT_DEEP=1 raises the bound — CI runs the deep sweep nightly):
#   scripts/check.sh --transport-check
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_EXPLORE=0
RUN_BENCH_SMOKE=0
RUN_TRANSPORT=0
for arg in "$@"; do
    case "$arg" in
    --explore) RUN_EXPLORE=1 ;;
    --bench-smoke) RUN_BENCH_SMOKE=1 ;;
    --transport-check) RUN_TRANSPORT=1 ;;
    *)
        echo "check.sh: unknown argument: $arg" >&2
        exit 2
        ;;
    esac
done

cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
python3 scripts/forbidden_patterns.py
python3 scripts/analyze_async_safety.py --self-test
python3 scripts/analyze_async_safety.py

if [[ "$RUN_EXPLORE" == "1" ]]; then
    echo "check.sh: protocol model checker (f=1 and f=2 gates, buffer sabotage, replays; deep matrix if FTC_EXPLORE_DEEP=1)"
    cargo test -q -p ftc-audit --release --test protocol_explorer \
        --test reconfig_explorer -- --nocapture
    # Handover sabotage: a switch that resumes the outgoing instance must
    # trip I5 (one serving instance), and an own group restored from the
    # outgoing instance's store must trip I6 on an in-flight schedule, each
    # with a replayable witness. Separate cargo invocation on purpose —
    # feature unification would poison every other ftc-core test.
    echo "check.sh: handover sabotage fixture (I5 and I6 must fire)"
    cargo test -q -p ftc-audit --release --features reconfig-sabotage \
        --test reconfig_sabotage
fi

if [[ "$RUN_BENCH_SMOKE" == "1" ]]; then
    echo "check.sh: standing benchmark smoke (output checks on all four workloads)"
    bash benchmark/run.sh --smoke
fi

if [[ "$RUN_TRANSPORT" == "1" ]]; then
    if [[ "${FTC_TRANSPORT_DEEP:-0}" == "1" ]]; then
        echo "check.sh: async-transport model checker (deep nightly bound)"
        FTC_TRANSPORT_DEEP=1 cargo test -q -p ftc-audit --release \
            --test async_transport -- --nocapture
    else
        echo "check.sh: async-transport model checker (PR gate bound)"
        FTC_TRANSPORT_GATE=1 cargo test -q -p ftc-audit --release \
            --test async_transport -- --nocapture
    fi
    # Sabotage self-test: the checker must catch the planted reconnect bug
    # with a replayable witness. Separate cargo invocation on purpose —
    # feature unification would poison every other ftc-net test.
    echo "check.sh: async-transport sabotage fixture (T3 must fire)"
    cargo test -q -p ftc-audit --release --features sabotage \
        --test async_sabotage
fi

if [[ "${CHECK_MIRI:-0}" == "1" ]]; then
    if rustup component list --toolchain nightly 2>/dev/null | grep -q 'miri.*(installed)'; then
        echo "check.sh: running Miri on ftc-stm"
        # Isolation off: the wound-wait backstop uses timed condvar waits.
        MIRIFLAGS="-Zmiri-disable-isolation" \
            cargo +nightly miri test -p ftc-stm --lib
    else
        echo "check.sh: Miri not installed; skipping (rustup +nightly component add miri)"
    fi
fi

if [[ "${CHECK_TSAN:-0}" == "1" ]]; then
    if rustup toolchain list 2>/dev/null | grep -q nightly; then
        echo "check.sh: running ThreadSanitizer on ftc-stm"
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -p ftc-stm --lib \
            --target "$(rustc -vV | sed -n 's/host: //p')" ||
            echo "check.sh: TSan run failed (nightly without rust-src?); treat as advisory"
    else
        echo "check.sh: no nightly toolchain; skipping TSan"
    fi
fi

echo "check.sh: clean"
