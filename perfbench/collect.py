"""Repeat benchmark runs over several seeds and summarize their spread.

Usage, from the root of a source checkout:

    python3 perfbench/collect.py --workloads bounds_sweep,mc_ensembles \
        --seeds 1-10 [--traced] [--out FILE]

Each run is a fresh ``perfbench/run.py`` process of ``run_seconds`` from
``BENCHMARK.json``. For every end-to-end metric the summary gives the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median, next to the metric's bound from
``BENCHMARK.json``, and the same spread of the unscaled figure that the
run prints beside it. ``--traced`` adds one traced run per workload on
the first seed. ``--out`` writes every run and the summary as JSON, with
the machine context of each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"with exit code {proc.returncode}")

    def tagged(tag):
        return [line[len(tag):] for line in lines if line.startswith(tag)]

    run = {"seed": seed, "elapsed_s": time.perf_counter() - start,
           "context": json.loads(tagged("context ")[0]),
           "result": json.loads(lines[-1])}
    if not trace:
        run["raw"] = json.loads(tagged("raw ")[0])
        run["raw_pass_walls"] = [float(w) for w in
                                 tagged("  raw pass walls ")[0].split()]
    return run


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def summarize(runs: list[dict], specs: list[dict]) -> dict:
    out = {}
    for spec in specs:
        name = spec["name"]
        med, q1, q3, spread = _spread(
            [r["result"]["metrics"][name]["value"] for r in runs])
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": spec["bound"],
                     "raw_spread": _spread([r["raw"][name] for r in runs])[3]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [_run(workload, s, seconds, 0) for s in _seeds(args.seeds)]
        entry = {"runs": runs, "summary": summarize(runs, spec["end_to_end"])}
        if args.traced:
            entry["traced"] = _run(workload, runs[0]["seed"], seconds, 1)
        report["workloads"][workload] = entry
        print(f"{workload}: {len(runs)} runs, failed items "
              f"{sum(r['result']['failed'] for r in runs)}, longest run "
              f"{max(r['elapsed_s'] for r in runs):.1f} s")
        for name, s in entry["summary"].items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"  {name:<18} median {s['median']:12.4f}  spread "
                  f"{s['spread']:7.4f}  bound {s['bound']:.2f}  {flag}  "
                  f"raw spread {s['raw_spread']:7.4f}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
