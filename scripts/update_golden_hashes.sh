#!/usr/bin/env bash
# Regenerates tests/golden/state_hashes.txt — the per-config canonical
# state hashes the CI golden-hashes job pins (docs/BENCHMARKS.md).
#
# Run this from the repository root after any change that legitimately
# alters simulation behavior (engine logic, RNG draw order, spec defaults,
# snapshot encoding) and commit the refreshed file together with the
# change. An unexplained diff here means you changed the simulation's
# observable behavior — treat it as a finding, not a chore.
#
#   scripts/update_golden_hashes.sh [build_dir]
#
# The hash is machine-independent by construction (fixed-width integer
# state, explicit little-endian encoding), so a locally generated file
# matches CI.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
GOLDEN=tests/golden/state_hashes.txt

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j --target fi_sim

mkdir -p "$(dirname "$GOLDEN")"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

for cfg in configs/*.cfg; do
  name=$(basename "$cfg" .cfg)
  echo "hashing $name ..." >&2
  hash=$("$BUILD_DIR"/fi_sim --scenario "$cfg" --hash-state --out /dev/null)
  printf '%s %s\n' "$name" "$hash" >> "$tmp"
done

mv "$tmp" "$GOLDEN"
trap - EXIT
echo "wrote $GOLDEN:"
cat "$GOLDEN"
