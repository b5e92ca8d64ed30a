#!/usr/bin/env python3
"""Smoke test of the query benchmark on the tiny corpus (SemanticData.tinyProfile).

    python3 perfbench/smoke_test.py

Run from the root of a checkout. Runs every workload of BENCHMARK.json with
--smoke, untraced and traced, and checks that each run prints every metric
of BENCHMARK.json by name with its unit, plus error_rate, and that no query
failed or answered wrongly. Then runs once with an engine that throws and
once with one that answers wrongly, and checks that both read
correct: false with every query failed. Exits non-zero on the first failure.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, fault=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--smoke"] + \
        (["--fault", fault] if fault else [])
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError("%s trace=%d fault=%s exited with %d"
                             % (workload, trace, fault, proc.returncode))
    return proc.stdout.strip().splitlines()


def check(workload, trace, expected):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, result
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    got = result["metrics"]
    assert set(got) == set(expected), "metrics differ: %s" % sorted(set(got) ^ set(expected))
    text = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert got[name]["unit"] == unit, (name, got[name])
        assert isinstance(got[name]["value"], (int, float)), (name, got[name])
        assert re.search(r"^%s\s+\S+ %s\b" % (re.escape(name), re.escape(unit)), text, re.M), \
            "%s not printed with unit %s" % (name, unit)
    m = re.search(r"^error_rate\s+(\S+) ratio", text, re.M)
    assert m and float(m.group(1)) == 0.0, "error_rate is not 0"
    print("ok  %-14s trace=%d  %d metrics, %d queries" % (workload, trace, len(got),
                                                           result["attempted"]))


def check_fault(workload, fault):
    result = json.loads(run(workload, 0, fault)[-1])
    assert result["correct"] is False, result
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"], result
    print("ok  %-14s fault=%s  correct: false, %d of %d queries failed"
          % (workload, fault, result["failed"], result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        check(w["name"], 0, end_to_end)
        check(w["name"], 1, per_layer)
    for fault in ("throw", "wrong"):
        check_fault(bench["workloads"][0]["name"], fault)
    print("smoke test passed")


if __name__ == "__main__":
    main()
