#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, full test suite.
# Run from the repo root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> fademl-lint self-check suite (unit, property-fuzz, seeded violations)"
cargo test -q -p fademl-lint

echo "==> fademl-lint (8 passes: locks, panics, invariants, unsafe, hot-alloc, lock-io, swallowed, wire-cap)"
lint_started=$(date +%s)
cargo run -p fademl-lint --release
lint_elapsed=$(( $(date +%s) - lint_started ))

echo "==> fademl-lint wall-clock budget (analysis must stay fast enough to never be skipped)"
# Generous bound: the full 8-pass run takes well under a second; the
# budget catches an accidental quadratic blow-up, not normal variance.
if [ "$lint_elapsed" -gt 30 ]; then
  echo "fademl-lint took ${lint_elapsed}s (> 30s budget)" >&2
  exit 1
fi
echo "    ${lint_elapsed}s (budget 30s); per-pass timings in results/lint_stats.txt"

echo "==> fademl-lint artifacts are committed fresh"
git diff --exit-code -- results/lint.json lint.allow || {
  echo "results/lint.json or lint.allow is stale — rerun cargo run -p fademl-lint and commit" >&2
  exit 1
}

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> fabench output checks (benchmark/sut.rs still fits the product API; verdicts bit-identical, engine clean)"
benchmark/run.sh --check

echo "==> fabench unit tests"
(cd benchmark && cargo test -q --offline)

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo test (FADEML_THREADS=2: kernels on the worker pool)"
FADEML_THREADS=2 cargo test -q --workspace

echo "==> results/bits.txt is the committed table (no stray FADEML_BLESS=1)"
git diff --exit-code -- results/bits.txt || {
  echo "results/bits.txt was rewritten by a test pass — a bit moved, or FADEML_BLESS was set; see tests/bits.rs" >&2
  exit 1
}

echo "==> kernel bench smoke (bit-identity gate: 1/2/4/8 threads × every instantiation the host runs — baseline/AVX2/AVX-512F; arena zero-grow gate)"
cargo bench -p fademl-bench --bench kernels -- --test

echo "==> cargo clippy (faults feature, deny warnings)"
cargo clippy -p fademl-serve --features faults --all-targets -- -D warnings

echo "==> fault-injection suite (chaos tests)"
cargo test -q -p fademl-serve --features faults --test faults

echo "==> chaos stress run"
cargo test -q -p fademl-serve --release --features faults --test faults chaos_stress_every_handle_resolves

echo "==> cargo clippy (checkpoint faults feature, deny warnings)"
cargo clippy -p fademl-nn --features faults --all-targets -- -D warnings

echo "==> checkpoint IO fault-injection suite"
cargo test -q -p fademl-nn --features faults --test checkpoint_faults

echo "==> cargo clippy (net faults feature, deny warnings)"
cargo clippy -p fademl-net --features faults --all-targets -- -D warnings

echo "==> network chaos suite (torn frames, drops, slow-loris, replica death)"
cargo test -q -p fademl-net --features faults --test chaos

echo "==> detection triage chaos suite (score panics, blown budgets, fail-open)"
cargo test -q -p fademl-serve --features faults --test triage_chaos

echo "==> detection bench smoke (appends a BENCH_detection.json trajectory entry)"
entries_before=$(python3 -c "
import json, sys
try:
    doc = json.load(open('BENCH_detection.json'))
    print(len(doc.get('trajectory', [])))
except (OSError, ValueError):
    print(0)
")
cargo bench -p fademl-bench --bench detection -- --test

echo "==> BENCH_detection.json gained a fresh trajectory entry"
python3 - "$entries_before" <<'EOF'
import json, sys

before = int(sys.argv[1])
doc = json.load(open("BENCH_detection.json"))
trajectory = doc["trajectory"]
assert len(trajectory) == min(before + 1, 20), (
    f"expected {min(before + 1, 20)} trajectory entries, found {len(trajectory)}"
)
latest = trajectory[-1]
for key in ("unix_time", "mode", "auc", "adaptive", "serving"):
    assert key in latest, f"latest trajectory entry missing {key!r}"
adaptive = latest["adaptive"]
for key in ("static_auc", "adaptive_auc", "budget", "adaptive_clean_flagged_frac",
            "refits_swapped", "final_generation"):
    assert key in adaptive, f"adaptive block missing {key!r}"
assert adaptive["adaptive_auc"] > 0.5, adaptive
print(f"    {len(trajectory)} entries; latest: static AUC {adaptive['static_auc']:.3f} "
      f"vs adaptive {adaptive['adaptive_auc']:.3f}, "
      f"{adaptive['refits_swapped']} refits swapped")
EOF

echo "==> refit chaos suite (torn reservoir writes, bit rot, injected refit panics)"
cargo test -q -p fademl-serve --features faults --test refit_chaos

echo "CI OK"
