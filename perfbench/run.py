"""Benchmark of the szego package: one workload per run, closed loop.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The package is imported from ``src/`` of the checkout; the run fails
without printing a result when it is missing. The seed generates one mix
of requests; a single client issues the whole mix again and again for
about ``--seconds`` (at least once), every output is checked after
the timed section, and the last line printed is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The run exits
nonzero when any output check fails; the failure ratio is
``failed / attempted``.

Request times are reported at reference speed. On a shared machine the
speed of one core changes by half within seconds, with nothing in this
process to show it, so a short fixed loop (``reference_loop``) is timed
before and after every request and each time is scaled by ``REFERENCE_S``
over the loop's mean time around it. A request's time is then the median
over its repeats. Set-up runs in fresh processes, whose speed the loop
does not track (their times do not follow it), so set-up is scaled by the
time a fresh interpreter takes to import numpy, measured next to it. The
unscaled figures are printed on a line of their own, with the raw wall of
every pass.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: time from starting a fresh interpreter to the first timed
  call (interpreter start, ``import szego``, input generation); median of
  ``SETUP_PROBES`` fresh processes, each after a reference process.
* ``wall_s``, ``cpu_s``: wall and CPU time (process plus children) of one
  pass over the mix, as the sum of the requests' times. CPU time of the
  process pool's workers is scaled by the speed measured in this process.
* ``throughput_per_s``: items of one pass divided by ``wall_s``.
* ``latency_p50_ms``, ``latency_tail_ms``: median and tail of the
  requests' times. The tail is the highest of p50, p75, p90, p95, p99 and
  p99.9 with at least ten requests beyond it, or the slowest request when
  the mix has fewer than twenty; the percentile and count are printed.
* ``peak_rss_mb``: peak resident memory of the process plus that of its
  largest child, read before the checks run.

With ``--trace 1`` the untraced repeats run as before, then the mix runs
once more with every layer traced. The metrics are the per-layer ones of
that traced pass, a per-layer table is printed, and the spans are written
to ``.perfbench/``. ``--workload all`` runs each workload untraced and
traced in fresh processes and prints everything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 15
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "throughput_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_tail_ms": "ms", "cpu_s": "s",
    "peak_rss_mb": "MB",
}
#: duration of ``reference_loop`` that reported times are scaled to
REFERENCE_S = 5e-4
#: time to start a fresh interpreter and import numpy, which set-up times
#: are scaled to
REFERENCE_IMPORT_S = 0.15

_REF_Z = np.exp(1j * np.linspace(0.0, 6.0, 64))
_REF_C = np.linspace(-1.0, 1.0, 60) + 0j


def reference_loop() -> float:
    """Time a fixed mix of small numpy operations and interpreted arithmetic."""
    t = time.perf_counter()
    acc = _REF_Z.copy()
    for c in _REF_C:
        acc = acc * _REF_Z + c
    s = 0
    for i in range(4000):
        s += i * i
    return time.perf_counter() - t


@dataclass
class Done:
    """One timed call of request ``index`` of the mix.

    ``scale`` converts its wall and CPU time to reference speed.
    """

    index: int
    latency: float
    cpu: float
    scale: float
    outcome: object


def import_szego():
    src = ROOT / "src"
    if not (src / "szego" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no szego package under {src}")
    sys.path.insert(0, str(src))
    import szego
    import szego.cli  # noqa: F401  (not imported by the package itself)
    if Path(szego.__file__).resolve().parent != (src / "szego").resolve():
        raise SystemExit(f"perfbench: imported szego from {szego.__file__}, "
                         f"not from {src}")
    return szego


def machine_context() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
            "platform": platform.platform()}


def setup_probe(name: str, seed: int, tiny: bool) -> None:
    """Body of one fresh setup process: import, build the mix, print the time."""
    szego = import_szego()
    WORKLOADS[name](szego, seed, tiny, str(ROOT)).requests()
    print(repr(time.perf_counter()))


def _child_seconds(args: list[str]) -> float:
    """Time from starting ``python3 ARGS`` to the time the child prints."""
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable] + args, check=True,
                         capture_output=True, text=True, cwd=ROOT)
    return float(out.stdout.split()[-1]) - t0


def measure_setup(name: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Median set-up time of fresh processes, at reference speed and raw.

    Each probe follows a reference probe, a fresh interpreter that imports
    numpy and nothing of the package; the median probe is scaled by
    ``REFERENCE_IMPORT_S`` over the median reference probe.
    """
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run.setup_probe(sys.argv[2], int(sys.argv[3]), sys.argv[4] == '1')")
    probes, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(_child_seconds(
            ["-c", "import time, numpy; print(repr(time.perf_counter()))"]))
        probes.append(_child_seconds(
            ["-c", code, str(BENCH), name, str(seed), "1" if tiny else "0"]))
    raw = statistics.median(probes)
    return raw * REFERENCE_IMPORT_S / statistics.median(refs), raw


def _cpu_now() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def run_repeats(mix, seconds: float, repeats: int | None = None, tracer=None):
    """Issue the mix again and again; stop after ``repeats`` or ``seconds``.

    Returns every call and the raw wall time of each pass.
    """
    done: list[Done] = []
    walls = []
    start = time.perf_counter()
    ref = reference_loop()
    while True:
        t0 = time.perf_counter()
        for i, req in enumerate(mix):
            c, a = _cpu_now(), time.perf_counter()
            if tracer is None:
                out = req.fn()
            else:
                with tracer.request(len(done), req.label):
                    out = req.fn()
            latency, cpu = time.perf_counter() - a, _cpu_now() - c
            after = reference_loop()
            done.append(Done(i, latency, cpu, 2 * REFERENCE_S / (ref + after),
                             out))
            ref = after
        walls.append(time.perf_counter() - t0)
        if repeats is not None:
            if len(walls) >= repeats:
                break
        # stop at the pass end nearest to ``seconds``
        elif time.perf_counter() - start + walls[-1] / 2 >= seconds:
            break
    return done, walls


def per_request(done: list[Done], count: int, attr: str,
                scaled: bool = True) -> np.ndarray:
    """Median over repeats of each request's wall or CPU time."""
    return np.array([
        statistics.median(getattr(d, attr) * (d.scale if scaled else 1.0)
                          for d in done if d.index == i)
        for i in range(count)])


def timing_metrics(done: list[Done], mix, scaled: bool) -> dict:
    """The end-to-end timings of one pass, from per-request medians."""
    lat = per_request(done, len(mix), "latency", scaled)
    wall = float(np.sum(lat))
    return {
        "wall_s": wall,
        "throughput_per_s": sum(r.items for r in mix) / wall,
        "latency_p50_ms": 1e3 * float(np.median(lat)),
        "latency_tail_ms": 1e3 * float(np.percentile(
            lat, tail_percentile(len(lat)))),
        "cpu_s": float(np.sum(per_request(done, len(mix), "cpu", scaled))),
    }


def tail_percentile(n: int) -> float:
    ok = [p for p in TAIL_GRID if n * (1.0 - p / 100.0) >= 10]
    return ok[-1] if ok else 100.0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Run one workload, print its report, and return its result object.

    The returned dict is the printed JSON line plus, under ``"_trace"``,
    the tracer, the raw wall of the traced pass and the tracing overhead
    ratio (None without tracing).
    """
    context = machine_context()
    szego = import_szego()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        wl = WORKLOADS[name](szego, seed, tiny, work)
        mix = wl.requests()
        done, walls = run_repeats(mix, seconds)
        peak = _peak_rss_mb()
        traced = None
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                tdone, _ = run_repeats(mix, 0, repeats=1, tracer=tracer)
            finally:
                tracer.uninstall()
            traced = (tracer, tdone)
        setup = (None, None) if trace else measure_setup(name, seed, tiny)
        outcomes = [[d.outcome for d in done if d.index == i]
                    for i in range(len(mix))]
        failures = wl.check(mix, outcomes)

    attempted = sum(mix[d.index].items for d in done)
    failed = sum(failures[d.index][0] for d in done if d.index in failures)
    errors = [msg for _, msg in failures.values()]
    e2e = {"setup_s": setup[0], **timing_metrics(done, mix, True),
           "peak_rss_mb": peak}
    raw = {"setup_s": setup[1], **timing_metrics(done, mix, False),
           "peak_rss_mb": peak}
    wall = e2e["wall_s"]
    count = len(mix)
    pct = tail_percentile(count)
    lat = per_request(done, count, "latency")
    beyond = int(np.sum(lat > np.percentile(lat, pct)))

    print("context " + json.dumps(context))
    print(f"workload {name} seed {seed}: mix of {len(mix)} requests "
          f"({sum(r.items for r in mix)} {wl.unit} items) repeated "
          f"{len(walls)} times in {sum(walls):.3f} s; times at reference "
          f"speed, median scale {statistics.median(d.scale for d in done):.3f}")
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh processes",
        "wall_s": f"one pass, median of {len(walls)} repeats per request",
        "cpu_s": f"one pass, median of {len(walls)} repeats per request",
        "latency_p50_ms": f"of {count} requests",
        "latency_tail_ms": f"p{pct:g} of {count} requests, {beyond} beyond",
    }
    for key, value in e2e.items():
        if value is not None:
            note = f"  ({notes[key]})" if key in notes else ""
            print(f"  {key:<18} {value:12.4f} {END_TO_END_UNITS[key]}{note}")
    print(f"  {'fail_ratio':<18} {failed / attempted:12.4f}  "
          f"({failed} of {attempted} items)")
    print("  raw pass walls " + " ".join(f"{w:.3f}" for w in walls))
    print("raw " + json.dumps({k: v for k, v in raw.items() if v is not None}))
    for msg in errors[:20]:
        print(f"  check failed: {msg}")

    if traced is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in e2e.items()}
    else:
        tracer, tdone = traced
        traced_wall = sum(d.latency for d in tdone)
        overhead = sum(d.latency * d.scale for d in tdone) / wall
        print(f"per-layer self time of one traced pass, raw ({traced_wall:.4f} s"
              f" traced; tracing overhead ratio {overhead:.4f})")
        print(tracer.table(traced_wall))
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in tracer.metrics(overhead).items()}
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{name}-seed{seed}.json"
        with open(path, "w") as fh:
            json.dump({"context": context, "workload": name, "seed": seed,
                       "traced_wall_s": traced_wall, "overhead_ratio": overhead,
                       "spans": tracer.dump()}, fh)
        print(f"spans written to {path.relative_to(ROOT)}")
        traced = (tracer, traced_wall, overhead)

    result = {"correct": not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    result["_trace"] = traced
    return result


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    summary = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], cwd=ROOT, capture_output=True,
                text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            if trace == 0 and proc.stdout.rstrip().endswith("}"):
                summary.append((name, json.loads(proc.stdout.splitlines()[-1])))
    print("end-to-end summary")
    keys = list(END_TO_END_UNITS)
    print(f"{'workload':<14}" + "".join(f"{k:>18}" for k in keys)
          + f"{'fail_ratio':>12}")
    for name, res in summary:
        row = "".join(f"{res['metrics'][k]['value']:>18.4f}" for k in keys)
        print(f"{name:<14}{row}{res['failed'] / res['attempted']:>12.4f}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
