"""Benchmark of the totlat CLI, end to end and per layer.

    python3 perfbench/run.py --workload {corpus,sweep,construct,family,all}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; totlat is imported
from its `src/` directory.  A run repeats whole rounds of the workload's CLI
calls for S seconds.  Each call runs in a fresh single-threaded interpreter
(perfbench/child.py), one at a time, with its output written to a file under
`.perfbench/`; outputs are checked against reference.py only after the timed
rounds.  The first round is checked in full, and every later round must
reproduce it byte for byte.

With --trace 0 the run prints the end-to-end metrics: cpu_s (the sum over
the round's calls of each call's median CPU time after set-up), setup_s (the
median CPU time from interpreter start to the end of `import totlat.cli`, over
every call and SETUP_PROBES_PER_ROUND import-only starts after each round)
and peak_rss_mib (the largest median peak resident set of a call).  The
medians are taken call by call because on a shared host the CPU speed can
flip between two levels within a second: a short call lands on one level,
and its median over rounds is the level that holds most of the time.  With --trace 1 rounds
alternate between untraced and traced, and the run prints the per-layer
metrics of the traced rounds and the tracing overhead.

Every metric is printed as `name value unit`; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  Raw outputs,
spans and the per-layer report of the last traced round stay under
`.perfbench/<workload>/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import outputs
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SETUP_PROBES_PER_ROUND = 2
CHILD_TIMEOUT_S = 120

END_TO_END = {"cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# name -> unit; see the README for which end-to-end metric each should move
PER_LAYER = {
    "lattices.generate.calls": "count",
    "lattices.generate.cpu_s": "s",
    "lattices.generate.self_s": "s",
    "posets.chains.calls": "count",
    "posets.chains.cpu_s": "s",
    "lattices.chain_family.calls": "count",
    "lattices.chain_family.cpu_s": "s",
    "lattices.chain_family.self_s": "s",
    "lattices.chain_family.chains": "count",
    "lattices.opposite.calls": "count",
    "lattices.opposite.cpu_s": "s",
    "morphisms.opposite_morphism.calls": "count",
    "morphisms.enumerate.calls": "count",
    "morphisms.enumerate.cpu_s": "s",
    "morphisms.enumerate.yielded": "count",
    "morphisms.enumerate.candidates": "count",
    "morphisms.enumerate.yield_ratio": "ratio",
    "algebra.idempotent_direct.calls": "count",
    "algebra.idempotent_direct.cpu_s": "s",
    "algebra.idempotent_direct.self_s": "s",
    "algebra.mul.calls": "count",
    "algebra.mul.cpu_s": "s",
    "algebra.mul.term_pairs": "count",
    "morphisms.compose.calls": "count",
    "algebra.add.calls": "count",
    "algebra.add.cpu_s": "s",
    "algebra.idempotent_original.calls": "count",
    "algebra.idempotent_original.cpu_s": "s",
    "algebra.idempotent_original.self_s": "s",
    "algebra.family_terms_raw": "count",
    "algebra.terms_out": "count",
    "algebra.cancellation_ratio": "ratio",
    "serialize.to_json.calls": "count",
    "serialize.to_json.cpu_s": "s",
    "serialize.to_json.bytes_out": "bytes",
    **{f"checks.{c}.cpu_s": "s" for c in workloads.ALL_CHECKS},
    "trace.spans": "count",
    "trace.cpu_s": "s",
    "trace.untraced_cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

COUNTERS = (
    "lattices.chain_family.chains", "morphisms.opposite_morphism.calls",
    "morphisms.enumerate.yielded", "morphisms.enumerate.candidates",
    "algebra.mul.term_pairs", "morphisms.compose.calls",
    "algebra.family_terms_raw", "algebra.terms_out", "serialize.to_json.bytes_out",
)


class ChildFailed(Exception):
    """The child interpreter itself failed (not the CLI call it ran)."""


def child_env():
    """The caller's environment without TOTLAT_* settings, so the default
    gates apply, and with bytecode caching on, as in an installed package."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TOTLAT_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, env):
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"no result within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(proc.stderr.strip() or f"exit status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_round(calls, round_dir, env, traced):
    """Run each call once, in order; returns one record per call."""
    round_dir.mkdir(parents=True)
    records = []
    for i, call in enumerate(calls):
        out = round_dir / f"call{i}.out"
        trace_args = [str(round_dir / f"call{i}.trace.json"),
                      f"{round_dir.name}-call{i}"] if traced else []
        try:
            stats = run_child([str(out), *trace_args, "--", *call.argv], env)
            error = stats["error"] or (
                None if stats["exit"] == 0 else f"exit status {stats['exit']}")
        except ChildFailed as exc:
            stats, error = None, f"child failed: {exc}"
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        records.append({"stats": stats, "error": error, "digest": digest, "out": out})
    return records


def layer_values(round_dir, calls):
    """Per-layer metrics of one traced round, from its calls' trace files."""
    rows, counts, spans = {}, {}, []
    for i in range(len(calls)):
        path = round_dir / f"call{i}.trace.json"
        if not path.exists():  # the call failed; it is counted in `failed`
            continue
        doc = json.loads(path.read_text())
        for name, row in tracing.summarize(doc["spans"]).items():
            acc = rows.setdefault(name, {"calls": 0, "cpu_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
        spans.extend({"call": doc["call"], "id": j, "name": s[0], "start": s[1],
                      "end": s[2], "parent": s[3]} for j, s in enumerate(doc["spans"]))
    values = {}
    for metric in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if metric in COUNTERS:
            values[metric] = counts.get(metric, 0)
        elif field in ("calls", "cpu_s", "self_s") and layer != "trace":
            values[metric] = rows.get(layer, {}).get(field, 0)
    yielded = values["morphisms.enumerate.yielded"]
    tried = values["morphisms.enumerate.candidates"]
    values["morphisms.enumerate.yield_ratio"] = yielded / tried if tried else 0.0
    raw = values["algebra.family_terms_raw"]
    values["algebra.cancellation_ratio"] = 1 - values["algebra.terms_out"] / raw if raw else 0.0
    values["trace.spans"] = len(spans)
    return values, rows, spans


def write_layer_report(path, rows):
    lines = [f"{'span':34s} {'calls':>9s} {'cpu_s':>10s} {'self_s':>10s}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:34s} {row['calls']:9d} {row['cpu_s']:10.4f} {row['self_s']:10.4f}")
    path.write_text("\n".join(lines) + "\n")


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    calls = workloads.calls(workload, seed)
    wdir = OUT / workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    env = child_env()

    run_child(["--probe"], env)  # not counted: compiles bytecode on a first run
    setups = []

    rounds = []  # (traced, records)
    layer_rounds = []  # per-layer values of each traced round
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(rounds) % 2 == 1
        rdir = wdir / f"round{len(rounds)}"
        records = run_round(calls, rdir, env, traced)
        rounds.append((traced, records))
        # set-up probes spread over the run, so their median sees its whole span
        setups.extend(run_child(["--probe"], env)["setup_s"]
                      for _ in range(SETUP_PROBES_PER_ROUND))
        if len(rounds) > 1:
            for rec in records:
                rec["out"].unlink(missing_ok=True)
        if traced:
            # keep the spans of the latest traced round only
            values, rows, spans = layer_values(rdir, calls)
            layer_rounds.append(values)
            last_trace = (rows, spans)
            for i in range(len(calls)):
                (rdir / f"call{i}.trace.json").unlink(missing_ok=True)
        if time.monotonic() >= deadline and (not trace or len(rounds) >= 2):
            break

    with open(wdir / "rounds.json", "w") as fh:
        json.dump([{"traced": traced, "calls": [r["stats"] for r in records]}
                   for traced, records in rounds], fh)

    refs = outputs.References()
    first = rounds[0][1]
    texts = [rec["out"].read_text(encoding="utf-8") if rec["out"].exists() else ""
             for rec in first]
    verdicts = outputs.check_round(calls, texts, refs)
    attempted = failed = 0
    for index, (traced, records) in enumerate(rounds):
        for i, rec in enumerate(records):
            attempted += 1
            problem = rec["error"] or verdicts[i][1]
            if problem is None and rec["digest"] != first[i]["digest"]:
                problem = "output differs from the first round"
            if problem is not None:
                failed += 1
                print(f"FAILED round {index}: {calls[i].label}: {problem}", file=sys.stderr)

    def per_call_median(round_list, key):
        medians = []
        for i, call in enumerate(calls):
            values = [r[i]["stats"][key] for r in round_list if r[i]["stats"]]
            if not values:
                # a figure without this call would read low; print none
                raise SystemExit(f"error: {call.label} gave no {key} in any round")
            medians.append(statistics.median(values))
        return medians

    def cpu(round_list):
        return sum(per_call_median(round_list, "cpu_s"))

    measured = [records for traced, records in rounds if not traced]
    metrics = {}
    if trace:
        traced_rounds = [records for traced, records in rounds if traced]
        for name in layer_rounds[0]:
            metrics[name] = statistics.median(v[name] for v in layer_rounds)
        traced_cpu = cpu(traced_rounds)
        plain_cpu = cpu(measured)
        metrics["trace.cpu_s"] = traced_cpu
        metrics["trace.untraced_cpu_s"] = plain_cpu
        metrics["trace.overhead_s"] = traced_cpu - plain_cpu
        metrics["trace.overhead_ratio"] = (traced_cpu - plain_cpu) / plain_cpu
        rows, spans = last_trace
        write_layer_report(wdir / "layers.txt", rows)
        with open(wdir / "trace.json", "w") as fh:
            json.dump({"workload": workload, "seed": seed, "spans": spans}, fh)
        units = PER_LAYER
    else:
        for _, records in rounds:
            setups.extend(r["stats"]["setup_s"] for r in records if r["stats"])
        metrics["cpu_s"] = cpu(measured)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mib"] = max(per_call_median(measured, "peak_rss_mib"))
        units = END_TO_END
    return failed == 0, attempted, failed, {
        name: {"value": metrics[name], "unit": units[name]} for name in units
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "totlat" / "cli.py").is_file():
        print(f"error: no totlat sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        ok, n, bad, m = measure(workload, args.seed, args.seconds, bool(args.trace))
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        for name, metric in m.items():
            key = name if args.workload != "all" else f"{workload}.{name}"
            metrics[key] = metric
            print(f"{key} {metric['value']:.6g} {metric['unit']}")
        print(f"{workload}: {n} calls, {bad} failed")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
