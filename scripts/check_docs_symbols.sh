#!/usr/bin/env bash
# Docs-drift guard for code identifiers: every backtick-quoted
# `Module.symbol` mentioned in README.md, EXPERIMENTS.md, MODEL.md or
# DESIGN.md, for a module mapped in iface_of below, must exist in that
# module's interface (.mli) — so a rename or a deletion in lib/ can't
# leave the docs pointing at symbols that no longer exist.
#
# This is a lexical check against the .mli files, outside comments,
# deliberately cheap: it proves the documented symbol surface exists
# without compiling anything. A lowercase symbol (`Params.scenario`)
# must be a val, type or record field declaration; a capitalized one
# (`Params.Sync`, `Diag.Error`, `Trace.Decoded`) must be a constructor,
# an exception or a module declaration. Run from the repository root:
#
#   scripts/check_docs_symbols.sh
set -u

DOCS=${DOCS:-"README.md EXPERIMENTS.md MODEL.md DESIGN.md"}

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
    Stats) echo lib/util/stats.mli ;;
    Sweep) echo lib/util/sweep.mli ;;
    Diag) echo lib/util/diag.mli ;;
    Grid) echo lib/core/grid.mli ;;
    Sensitivity) echo lib/core/sensitivity.mli ;;
    Concurrency) echo lib/core/concurrency.mli ;;
    Validate) echo lib/core/validate.mli ;;
    Analysis) echo lib/analysis/analysis.mli ;;
    Drain) echo lib/interval/drain.mli ;;
    Power_law) echo lib/interval/power_law.mli ;;
    Mode) echo lib/core/mode.mli ;;
    *) echo "" ;;
  esac
}

fail=0
checked=0

# Backticked single identifiers like `Params.config_cost`,
# `Equations.config_break_even` or `Params.Sync`. Longer backtick spans
# (expressions, qualified sub-fields, code fragments) are skipped: only
# the exact two-component form is a checkable symbol reference.
modules='Equations|Params|Tca_unit|Sim_stats|Config|Pipeline|Trace|Simulator|Scheduler|Stats|Sweep|Diag|Grid|Sensitivity|Concurrency|Validate|Analysis|Drain|Power_law|Mode'
refs=$(grep -ohE "\`($modules)\.[A-Za-z_][A-Za-z0-9_]*\`" $DOCS \
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
  # Matched in the interface with its comments stripped: a word that
  # only a doc comment mentions is not a symbol.
  case $symbol in
    [A-Z]*)
      # A constructor (after `=` or `|`; `= Foo.t` is a module path, not
      # a constructor), an exception, a module or a module type.
      ctor="[=|][[:space:]]*${symbol}([^A-Za-z0-9_'.]|$)"
      decl="(^|[[:space:]])(exception|module|module[[:space:]]+type)[[:space:]]+${symbol}([^A-Za-z0-9_']|$)"
      pattern="$ctor|$decl"
      ;;
    *)
      # A val, type or record-field declaration (inline records
      # included).
      decl="(^|[[:space:]])(val|type|and)[[:space:]]+('[a-z_]+[[:space:]]+)?${symbol}([^A-Za-z0-9_']|$)"
      field="(^|[{;[:space:]])(mutable[[:space:]]+)?${symbol}[[:space:]]+:"
      pattern="$decl|$field"
      ;;
  esac
  if ! perl -0pe '1 while s/\(\*(?:(?!\(\*|\*\)).)*\*\)//gs' "$iface" \
    | grep -qE "$pattern"; then
    echo "FAIL: $ref documented but '$symbol' is not declared in $iface" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs_symbols: documentation drifted from the interfaces (see above)" >&2
  exit 1
fi
echo "check_docs_symbols: $checked documented symbol(s) validated against the .mli files"
