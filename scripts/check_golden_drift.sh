#!/usr/bin/env bash
# Golden-drift guard for CI: regenerate test/golden/*.golden with the
# current tree's generators and simulator and fail if any pinned byte
# moved or a pin is missing from git. The golden test in test/test_uarch.ml already fails
# when the *simulator* drifts away from the committed pins; this script
# closes the converse hole — a semantic change whose author reran
# gen_golden but forgot to commit the result (or hand-edited a pin)
# would otherwise land with stale goldens and a green test.
#
# Run from the repository root:
#
#   scripts/check_golden_drift.sh
#
# Exit codes: 0 pins match the tree, 1 drift detected (the diff is
# printed), 2 environment problems (not a git checkout, build failure).
set -eu

cd "$(dirname "$0")/.."

if ! git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  echo "check_golden_drift: not inside a git work tree" >&2
  exit 2
fi

if ! git diff --quiet -- test/golden || ! git diff --cached --quiet -- test/golden; then
  echo "check_golden_drift: test/golden already has uncommitted changes; commit or restore them first" >&2
  git status --short -- test/golden >&2
  exit 2
fi

if ! dune build test/gen_golden.exe; then
  echo "check_golden_drift: failed to build test/gen_golden.exe" >&2
  exit 2
fi

dune exec test/gen_golden.exe -- test/golden

untracked=$(git ls-files --others --exclude-standard -- test/golden)
if [ -n "$untracked" ]; then
  echo "check_golden_drift: regeneration produced pins that are not committed:" >&2
  echo "$untracked" >&2
  exit 1
fi

if ! git diff --exit-code -- test/golden; then
  echo "check_golden_drift: committed golden pins are stale — rerun 'dune exec test/gen_golden.exe -- test/golden' and commit the result together with the semantic change that moved them" >&2
  exit 1
fi

echo "check_golden_drift: OK ($(git ls-files -- test/golden | wc -l | tr -d ' ') pins match the tree)"
