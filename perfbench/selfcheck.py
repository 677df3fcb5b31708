#!/usr/bin/env python3
"""The benchmark's own check: short runs on a fixed seed.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py [--seconds S]

For every workload in BENCHMARK.json it asserts that an untraced run prints
every end_to_end metric, and a traced run every per_layer metric, exactly
once and with the unit BENCHMARK.json gives, with correct=true and no
failures. It then flips one byte of a reference digest
(--corrupt-reference 1) and asserts the run fails, so the correctness gate
can really trip. Exits nonzero on the first violation.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload, seconds, trace, corrupt=0):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace),
           "--corrupt-reference", str(corrupt)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (lines[-1] if lines else ""), p


def check_metrics(label, line, expected):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: correct is false"
    assert result["failed"] == 0, f"{label}: {result['failed']} failed"
    assert result["attempted"] >= 1, label
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    assert set(got) == set(want), (
        f"{label}: missing {sorted(set(want) - set(got))}, "
        f"unexpected {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        count = len(re.findall(r'"%s": \{' % re.escape(name), line))
        assert count == 1, f"{label}: {name} printed {count} times"
        assert got[name]["unit"] == unit, f"{label}: {name} unit"
        assert isinstance(got[name]["value"], (int, float)), label


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    a = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} trace={trace}"
            code, line, p = run(w["name"], a.seconds, trace)
            assert code == 0, f"{label}: exit {code}\n{p.stderr[-2000:]}"
            check_metrics(label, line, bench[key])
            print(f"ok   {label}: {len(bench[key])} metrics, each once")
    name = bench["workloads"][0]["name"]
    code, line, p = run(name, 1, 0, corrupt=1)
    assert code != 0, "a corrupted reference did not fail the run"
    assert '"correct": false' in line, "a corrupted reference passed"
    print(f"ok   {name}: a one-byte reference corruption fails the run")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
