#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at minimum size.

    python3 perfbench/selftest.py

Runs each workload of BENCHMARK.json once untraced and once traced with
--seconds 1 (one timed pass) and asserts that:
- every metric BENCHMARK.json names is emitted, in the matching mode;
- each carries the unit BENCHMARK.json declares, and a legal name;
- the run is correct and no op failed.
Also checks BENCHMARK.json itself against the benchmark contract's
shape rules. Exits non-zero on the first failure.
"""

import json
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)


def check_manifest(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(len(names) == len(set(names)), "names are used once")
    for n in names:
        check(NAME.match(n), f"legal name {n!r}")
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200, f"workload {w['name']}")
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"keys of {m['name']}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"keys of {m['name']}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"),
              f"unit and direction of {m['name']}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s is declared")
    check(all(m["bound"] < setup[0]["bound"]
              for m in bench["end_to_end"] if m["name"] != "setup_s"),
          "setup_s has the largest bound")


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    check(out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    check_manifest(bench)
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            r = run(w["name"], trace)
            check(set(r) == {"correct", "attempted", "failed", "metrics"},
                  f"{w['name']}: result keys")
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{w['name']} trace={trace}: correct with zero failed ops")
            emitted = r["metrics"]
            want = {m["name"]: m["unit"] for m in declared}
            check(set(emitted) == set(want),
                  f"{w['name']} trace={trace}: metric set differs: "
                  f"{sorted(set(emitted) ^ set(want))}")
            for name, m in emitted.items():
                check(NAME.match(name), f"legal name {name!r}")
                check(m.get("unit") == want[name], f"{name}: unit {m.get('unit')!r}")
                check(isinstance(m.get("value"), (int, float)), f"{name}: numeric value")
            print(f"ok  {w['name']:14s} trace={trace}  {len(emitted)} metrics, "
                  f"{r['attempted']} ops")
    print("selftest passed")


if __name__ == "__main__":
    main()
