#!/usr/bin/env bash
# Docs-drift guard: every `tca ...` command shown in a fenced code block
# of README.md / EXPERIMENTS.md must name a real subcommand, every long
# option it shows must be accepted by that subcommand's --help, and
# every job a `tca run` / `tca profile` command names must be listed by
# `tca list --json`.
#
# This is a --help-level check: it proves the documented surface exists
# (subcommand spelled right, flags not renamed/removed) without running
# the experiments. The pure model commands (modes, model, design; each
# milliseconds) are also run as documented and must exit 0, which
# catches a rejected option value. Run from the repository root:
#
#   dune build bin/tca.exe && scripts/check_docs_cli.sh
#
# TCA overrides the binary under test (default _build/default/bin/tca.exe).
set -u

TCA=${TCA:-_build/default/bin/tca.exe}
DOCS=${DOCS:-"README.md EXPERIMENTS.md"}

if [ ! -x "$TCA" ]; then
  echo "check_docs_cli: $TCA not built (dune build bin/tca.exe first)" >&2
  exit 2
fi

fail=0
checked=0
jobs=$("$TCA" list --json | jq -r '.[].name')

# Lines inside ``` fences that invoke tca, directly or via dune exec;
# normalized to start with "tca ".
extract_commands() {
  awk '
    /^```/ { fence = !fence; next }
    !fence { next }
    { line = $0 }
    line ~ /^(\$ )?dune exec bin\/tca\.exe --( |$)/ {
      sub(/^(\$ )?dune exec bin\/tca\.exe --[ ]?/, "tca ", line); print line; next
    }
    line ~ /^(\$ )?tca([ ]|$)/ {
      sub(/^\$ /, "", line); print line
    }
  ' "$@"
}

while IFS= read -r line; do
  # Drop trailing inline comments and the leading "tca".
  cmd=${line%%#*}
  set -- $cmd
  shift # "tca"
  if [ $# -eq 0 ]; then
    echo "FAIL: bare 'tca' with no subcommand documented" >&2
    fail=1
    continue
  fi
  sub=$1
  shift
  checked=$((checked + 1))
  # An unknown subcommand's --help falls back to the top-level page
  # with exit 0, so existence is read off the NAME line.
  if ! help_out=$("$TCA" "$sub" --help=plain 2>&1) ||
     ! printf '%s' "$help_out" | grep -q "^ *tca-$sub - "; then
    echo "FAIL: documented subcommand does not exist: tca $sub" >&2
    echo "      (from: $line)" >&2
    fail=1
    continue
  fi
  # Every long option the docs show must appear in the help text, and
  # every positional argument of run/profile must be a registered job.
  # An option whose help reads `--opt=VALUE` (or `-o VALUE`) consumes
  # the next token.
  takes_value=0
  for tok in "$@"; do
    if [ "$takes_value" = 1 ]; then
      takes_value=0
      continue
    fi
    case $tok in
      --*=*) flag=${tok%%=*} ;;
      --*)
        flag=$tok
        if printf '%s' "$help_out" | grep -q -- "$flag="; then takes_value=1; fi
        ;;
      -?)
        if printf '%s' "$help_out" | grep -q -- "$tok [A-Z]"; then takes_value=1; fi
        continue
        ;;
      *)
        case $sub in
          run|profile)
            if ! printf '%s\n' "$jobs" | grep -qx -- "$tok"; then
              echo "FAIL: tca $sub names a job that tca list --json does not: $tok" >&2
              echo "      (from: $line)" >&2
              fail=1
            fi
            ;;
        esac
        continue
        ;;
    esac
    if ! printf '%s' "$help_out" | grep -q -- "$flag"; then
      echo "FAIL: tca $sub --help does not mention documented option $flag" >&2
      echo "      (from: $line)" >&2
      fail=1
    fi
  done
  case $sub in
    modes|model|design)
      if ! run_err=$("$TCA" "$sub" "$@" 2>&1 >/dev/null); then
        echo "FAIL: documented command exits non-zero: tca $sub $*" >&2
        printf '%s\n' "$run_err" | sed 's/^/      /' >&2
        fail=1
      fi
      ;;
  esac
done <<EOF
$(extract_commands $DOCS)
EOF

if [ "$checked" -eq 0 ]; then
  echo "check_docs_cli: no fenced tca commands found in $DOCS (extractor broken?)" >&2
  exit 2
fi

if [ "$fail" -ne 0 ]; then
  echo "check_docs_cli: documentation drifted from the CLI (see above)" >&2
  exit 1
fi
echo "check_docs_cli: $checked documented command(s) validated against $TCA"
