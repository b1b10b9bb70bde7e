#!/usr/bin/env bash
# Docs-drift guard for code identifiers: every backtick-quoted
# `Equations.*`, `Params.*`, `Tca_unit.*`, `Sim_stats.*`, `Config.*`,
# `Pipeline.*`, `Trace.*`, `Simulator.*` or `Scheduler.*` value/field
# mentioned in MODEL.md / DESIGN.md must exist in the corresponding
# interface (.mli) — so a rename or a deletion in lib/ can't leave the
# docs pointing at symbols that no longer exist.
#
# This is a lexical check against the .mli files (val names, record
# fields, constructors), deliberately cheap: it proves the documented
# symbol surface exists without compiling anything. Run from the
# repository root:
#
#   scripts/check_docs_symbols.sh
set -u

DOCS=${DOCS:-"MODEL.md DESIGN.md"}

# module prefix -> interface file that must declare the symbol
iface_of() {
  case $1 in
    Equations) echo lib/core/equations.mli ;;
    Params) echo lib/core/params.mli ;;
    Tca_unit) echo lib/uarch/tca_unit.mli ;;
    Sim_stats) echo lib/uarch/sim_stats.mli ;;
    Config) echo lib/uarch/config.mli ;;
    Pipeline) echo lib/uarch/pipeline.mli ;;
    Trace) echo lib/uarch/trace.mli ;;
    Simulator) echo lib/uarch/simulator.mli ;;
    Scheduler) echo lib/engine/scheduler.mli ;;
    *) echo "" ;;
  esac
}

fail=0
checked=0

# Backticked single identifiers like `Params.config_cost` or
# `Equations.config_break_even`. Longer backtick spans (expressions,
# qualified sub-fields, code fragments) are skipped: only the exact
# two-component form is a checkable symbol reference.
refs=$(grep -ohE '`(Equations|Params|Tca_unit|Sim_stats|Config|Pipeline|Trace|Simulator|Scheduler)\.[a-z_][A-Za-z0-9_]*`' $DOCS \
  | tr -d '`' | sort -u)

if [ -z "$refs" ]; then
  echo "check_docs_symbols: no symbol references found in $DOCS (extractor broken?)" >&2
  exit 2
fi

for ref in $refs; do
  module=${ref%%.*}
  symbol=${ref#*.}
  iface=$(iface_of "$module")
  if [ -z "$iface" ] || [ ! -f "$iface" ]; then
    echo "FAIL: no interface mapped for $ref" >&2
    fail=1
    continue
  fi
  checked=$((checked + 1))
  # Accept any of: a val declaration, a record field, or use as a
  # field/val name anywhere in the interface (covers inline records).
  if ! grep -qE "(^|[^A-Za-z0-9_'])${symbol}([^A-Za-z0-9_']|$)" "$iface"; then
    echo "FAIL: $ref documented but '$symbol' does not appear in $iface" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs_symbols: documentation drifted from the interfaces (see above)" >&2
  exit 1
fi
echo "check_docs_symbols: $checked documented symbol(s) validated against the .mli files"
