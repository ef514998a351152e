#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, full test suite.
# Run from the repo root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> every file tracked under results/ has a row in results/README.md"
unlisted=""
for path in $(git ls-files results); do
  name=${path#results/}
  if [ "$name" != README.md ] && ! grep -qF "| \`$name\` |" results/README.md; then
    unlisted="$unlisted $path"
  fi
done
if [ -n "$unlisted" ]; then
  echo "missing from results/README.md's table (add a row with the command that regenerates it, or delete the file):$unlisted" >&2
  exit 1
fi

echo "==> cargo clippy (deny warnings: the panic surface, discarded Results, unsafe hygiene, std locks, in-place writes, raw threads and sockets, stale #[expect]s)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings: every intra-doc link of the crates/* packages resolves to a public item)"
doc_packages=()
for manifest in crates/*/Cargo.toml; do
  doc_packages+=(-p "$(grep -m1 '^name = ' "$manifest" | cut -d'"' -f2)")
done
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${doc_packages[@]}"

echo "==> unsafe_code opts back in once under crates/, on tensor's mod simd"
unsafe_allows=$(grep -rn --include='*.rs' 'allow(unsafe_code' crates/ || true)
after_allow=$(grep -A1 -F 'allow(unsafe_code' crates/tensor/src/lib.rs | tail -n 1)
if [ "$(grep -c . <<<"$unsafe_allows")" -ne 1 ] || [ "$after_allow" != "pub mod simd;" ]; then
  echo "allow(unsafe_code) must appear exactly once under crates/, on tensor's mod simd; found:" >&2
  echo "$unsafe_allows" >&2
  exit 1
fi

echo "==> parking_lot is named under crates/{serve,net,detect}/src only by serve's sync module"
# Every serving lock is a sync::Leaf (or a Snapshot over one), checked
# where it is taken; a raw parking_lot lock would escape that check.
raw_locks=$(grep -rn --include='*.rs' 'parking_lot' crates/serve/src crates/net/src crates/detect/src \
  | grep -v '^crates/serve/src/sync.rs:' || true)
if [ -n "$raw_locks" ]; then
  echo "parking_lot may be named only in crates/serve/src/sync.rs; use sync::Leaf or sync::Snapshot. Found:" >&2
  echo "$raw_locks" >&2
  exit 1
fi

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

echo "==> cargo clippy (faults feature: serve, nn, net; deny warnings)"
cargo clippy -p fademl-serve -p fademl-nn -p fademl-net --features faults --all-targets -- -D warnings

echo "==> serving chaos suites (panics, worker kills, stalls; triage fail-open)"
cargo test -q -p fademl-serve --features faults --test faults --test triage_chaos

echo "==> chaos stress run"
cargo test -q -p fademl-serve --release --features faults --test faults chaos_stress_every_handle_resolves

echo "==> checkpoint IO fault-injection suite"
cargo test -q -p fademl-nn --features faults --test checkpoint_faults

echo "==> network chaos suite (torn frames, drops, slow-loris, replica death)"
cargo test -q -p fademl-net --features faults --test chaos

echo "==> detection bench smoke (appends a trajectory entry to a copy of BENCH_detection.json under target/detection-smoke/)"
entries_before=$(python3 -c "
import json, sys
try:
    doc = json.load(open('BENCH_detection.json'))
    print(len(doc.get('trajectory', [])))
except (OSError, ValueError):
    print(0)
")
cargo bench -p fademl-bench --bench detection -- --test

echo "==> the smoke copy of BENCH_detection.json gained a fresh trajectory entry"
python3 - "$entries_before" <<'EOF'
import json, sys

before = int(sys.argv[1])
doc = json.load(open("target/detection-smoke/BENCH_detection.json"))
trajectory = doc["trajectory"]
assert len(trajectory) == min(before + 1, 20), (
    f"expected {min(before + 1, 20)} trajectory entries, found {len(trajectory)}"
)
latest = trajectory[-1]
for key in ("unix_time", "mode", "auc", "threshold", "serving"):
    assert key in latest, f"latest trajectory entry missing {key!r}"
serving = latest["serving"]
for key in ("requests", "triage_overhead_us_per_image", "flagged", "hardened_hit_rate",
            "throughput_rps"):
    assert key in serving, f"serving block missing {key!r}"
assert latest["auc"] > 0.5, latest
print(f"    {len(trajectory)} entries; latest: AUC {latest['auc']:.3f} at threshold "
      f"{latest['threshold']:.3f}, {serving['throughput_rps']:.0f} rps triaged")
EOF

echo "CI OK"
