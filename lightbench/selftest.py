#!/usr/bin/env python3
"""Self-test of the whole-pipeline benchmark.

    python3 lightbench/selftest.py

Builds the benchmark (as run.py does), then runs every workload at a tiny
size, untraced and traced, and fails when a result line is malformed, a
metric named in BENCHMARK.json is missing or has the wrong unit, an
end-to-end value is not positive, or any check failed. It then runs each
workload's negative control (--negative-control corrupts one artifact per
unit of work) and fails unless every control is caught: correct false,
failed > 0. Finally it checks that metrics.json describes exactly the
metrics BENCHMARK.json declares, with the same units and directions.
Takes about a minute.
"""

import json
import math
import os
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
METRICS = os.path.join(run.HERE, "metrics.json")


def result(binary, workload, trace, *extra):
    """Runs one tiny workload; returns (parsed result line, problems)."""
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds",
           "0.5", "--trace", str(trace), "--tiny", "--work-dir",
           os.path.join(run.build_root(), "work"), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, [f"exit {proc.returncode}: {proc.stderr.strip()}"]
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        return None, [f"last line is not JSON ({err})"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(res.get("failed"), int):
        problems.append("failed must be a whole number")
    return res, problems


def check_metrics(res, declared, positive):
    problems = []
    got = res["metrics"]
    for spec in declared:
        name = spec["name"]
        if name not in got:
            problems.append(f"metric {name} missing")
            continue
        value, unit = got[name].get("value"), got[name].get("unit")
        if not unit or unit != spec["unit"]:
            problems.append(f"metric {name} unit {unit!r}, want "
                            f"{spec['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} value {value!r}")
        elif positive and value <= 0:
            problems.append(f"metric {name} is {value}, must be > 0")
    extra = set(got) - {spec["name"] for spec in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def check_metric_doc(bench):
    with open(METRICS) as f:
        doc = json.load(f)
    problems = []
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    if set(doc) != set(declared):
        problems.append("metrics.json names differ from BENCHMARK.json: "
                        f"{sorted(set(doc) ^ set(declared))}")
    for name, entry in doc.items():
        if name not in declared:
            continue
        for key in ("unit", "better"):
            if entry.get(key) != declared[name][key]:
                problems.append(f"metrics.json {name}.{key} disagrees")
        if not entry.get("layer") or not entry.get("definition"):
            problems.append(f"metrics.json {name} lacks layer/definition")
        if name in {m["name"] for m in bench["per_layer"]} and \
                not entry.get("moves"):
            problems.append(f"metrics.json {name} lacks 'moves'")
    return problems


def main():
    with open(BENCHMARK) as f:
        bench = json.load(f)
    binary = run.build()
    if binary is None:
        print("selftest: build failed")
        return 1
    failures = check_metric_doc(bench)
    for workload in run.WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            res, problems = result(binary, workload, trace)
            if res is not None:
                problems += check_metrics(res, declared, positive=trace == 0)
                if not res["correct"] or res["failed"] != 0:
                    problems.append(f"{res['failed']} of {res['attempted']} "
                                    "checks failed")
            failures += [f"{workload} trace={trace}: {p}" for p in problems]
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not problems else 'FAIL'}")
        res, problems = result(binary, workload, 0, "--negative-control")
        if res is not None and (res["correct"] or res["failed"] == 0):
            problems.append("negative control not caught")
        failures += [f"{workload} negative control: {p}" for p in problems]
        caught = res is not None and not problems
        print(f"{workload} negative control: "
              f"{'caught, failed ' + str(res['failed']) + '/' + str(res['attempted']) if caught else 'FAIL'}")
    for f in failures:
        print("selftest:", f)
    print("selftest:", "PASS" if not failures else "FAIL")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
