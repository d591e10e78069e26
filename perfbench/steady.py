"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 perfbench/steady.py

Runs perfbench/run.py on every workload of BENCHMARK.json, RUNS times per
set for two sets, one run at a time, with seed 1000*set + i for run i,
interleaving the sets so that a change in the machine's load falls on both.
Raw results are appended as JSON lines to `.perfbench/steady/results.jsonl`.
For each workload and end-to-end metric it prints each set's median and
quartiles, the spread (q3 - q1) / median next to the metric's bound, and
how much worse the second set's median is than the first's, also next to
the bound.  The bounds and the run length come from BENCHMARK.json.  A metric is steady when every spread is within
its bound and the two medians differ by no more than the bound, either way;
the share of failed calls must be equal in every set.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench" / "steady" / "results.jsonl"
RUNS = 10


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} seed {seed}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def report(rows, spec):
    """Print the comparison table; returns True when every metric is steady."""
    steady = True
    workloads = sorted({r["workload"] for r in rows}, key=[
        w["name"] for w in spec["workloads"]].index)
    sets = sorted({r["set"] for r in rows})
    print(f"{'workload':10s} {'metric':13s} " + " ".join(
        f"{'set' + str(s) + ' median [q1, q3]':>32s} {'spread':>7s}" for s in sets)
        + f" {'worse':>7s} {'bound':>6s}")
    for w in workloads:
        wrows = [r for r in rows if r["workload"] == w]
        shares = {s: sum(r["failed"] for r in wrows if r["set"] == s)
                  / sum(r["attempted"] for r in wrows if r["set"] == s) for s in sets}
        if len(set(shares.values())) > 1:
            steady = False
            print(f"{w}: failed shares differ between sets: {shares}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians = [], []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in wrows if r["set"] == s]
                med, q1, q3, sp = spread(values)
                medians.append(med)
                cells.append(f"{med:12.5g} [{q1:8.5g}, {q3:8.5g}] {sp:7.2%}")
                if sp > bound:
                    steady = False
            worse = (medians[-1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            if abs(worse) > bound:
                steady = False
            print(f"{w:10s} {name:13s} " + " ".join(cells) + f" {worse:7.2%} {bound:6.0%}")
    print("steady" if steady else "NOT steady")
    return steady


def main():
    spec = load_spec()
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    RESULTS.unlink(missing_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    rows = []
    for i in range(RUNS):
        for s in (1, 2):
            for w in names:
                result = run_once(w, 1000 * s + i, spec["run_seconds"])
                row = {"set": s, "workload": w, "seed": 1000 * s + i, **result}
                rows.append(row)
                with open(RESULTS, "a") as fh:
                    fh.write(json.dumps(row) + "\n")
                print(f"set {s} {w} seed {row['seed']}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                    flush=True)
    return 0 if report(rows, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
