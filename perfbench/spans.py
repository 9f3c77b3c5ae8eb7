"""In-memory span tracing of the szego layers, installed from outside.

The tracer wraps the public functions of each package module, plus the
coefficient methods of the series classes, and rebinds every name under
which any ``szego`` module holds them (``szego.cli.find_zeros`` and
``szego.universal.find_zeros`` both become the traced ``find_zeros``).
Calls therefore nest into a span tree, and a layer's self time is its span
durations minus the parts covered by child spans. Nothing inside the
package changes; ``uninstall`` restores every binding.

Spans are kept in memory and written out by the caller when the run ends.
Spans opened in a forked worker process are not recorded: those calls pass
straight through, and ``mc_expected_cdf`` with more than one worker is
recorded as a single span of its own ``pool`` layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("series", "roots", "measures", "bounds", "gauge", "ensembles",
          "universal", "cli")
#: rows of the per-layer table: the benchmark's own request spans, the
#: package layers, and the worker pool that hides its children's spans
TABLE_ROWS = ("bench",) + LAYERS[:6] + ("pool",) + LAYERS[6:]

_RADIUS_SOLVES = {"cauchy_bound", "inner_cauchy_bound", "van_vleck_bound",
                  "inner_van_vleck_bound"}
_SERIES_METHODS = ("values", "log_abs")

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("bounds.calls", "count", "lower"),
    ("bounds.busy_s", "s", "lower"),
    ("bounds.solves", "count", "lower"),
    ("bounds.us_per_solve", "us", "lower"),
    ("roots.calls", "count", "lower"),
    ("roots.busy_s", "s", "lower"),
    ("roots.degree_sum", "count", "lower"),
    ("roots.deg2_sum", "count", "lower"),
    ("roots.ns_per_deg2", "ns", "lower"),
    ("roots.max_degree", "count", "lower"),
    ("roots.failures", "count", "lower"),
    ("gauge.calls", "count", "lower"),
    ("gauge.busy_s", "s", "lower"),
    ("gauge.window_positions", "count", "lower"),
    ("gauge.ns_per_position", "ns", "lower"),
    ("universal.steps", "count", "lower"),
    ("universal.busy_s", "s", "lower"),
    ("universal.final_degree", "count", "lower"),
    ("ensembles.trials", "count", "lower"),
    ("ensembles.busy_s", "s", "lower"),
    ("ensembles.sample_s", "s", "lower"),
    ("ensembles.used_ratio", "ratio", "higher"),
    ("ensembles.pool_s", "s", "lower"),
    ("ensembles.pool_speedup", "ratio", "higher"),
    ("cli.commands", "count", "lower"),
    ("cli.busy_s", "s", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("series.calls", "count", "lower"),
    ("series.busy_s", "s", "lower"),
    ("series.coeffs", "count", "lower"),
    ("measures.calls", "count", "lower"),
    ("measures.busy_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name, None)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


class Tracer:
    """Records one span per traced call while installed.

    A span is ``(id, parent id, request id, layer, name, start, end)``.
    ``request`` opens a root span for one benchmark request, so the spans
    of one request share its identifier.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, str]] = []
        self._request = -1
        self._pid = os.getpid()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        import szego
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"szego.{layer}")
            for name, fn in _public_functions(mod):
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        owners = [m for key, m in sorted(sys.modules.items())
                  if key == "szego" or key.startswith("szego.")]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(owner, attr, value, hit[1])
        series = sys.modules["szego.series"]
        for cls in vars(series).values():
            if inspect.isclass(cls) and issubclass(cls, szego.Series):
                for meth in _SERIES_METHODS:
                    fn = cls.__dict__.get(meth)
                    if fn is not None:
                        self._rebind(cls, meth, fn,
                                     self._wrap("series", meth, fn))

    def _rebind(self, owner, attr, old, new) -> None:
        self._restore.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- recording ----------------------------------------------------
    def request(self, rid: int, name: str):
        """Context manager for the root span of benchmark request ``rid``."""
        tracer = self

        class _Root:
            def __enter__(self):
                tracer._request = rid
                tracer._open("bench", name)
                return self

            def __exit__(self, *exc):
                tracer._close()
                return False

        return _Root()

    def _open(self, layer: str, name: str) -> None:
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        # reserve the slot so ids follow start order
        self.spans.append((sid, parent, self._request, layer, name,
                           time.perf_counter(), None))
        self._stack.append((sid, layer))

    def _close(self) -> float:
        end = time.perf_counter()
        sid, _ = self._stack.pop()
        span = self.spans[sid]
        self.spans[sid] = span[:6] + (end,)
        return end - span[5]

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        sig = inspect.signature(fn)
        hook = getattr(self, f"_hook_{layer}", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs).arguments
            span_layer = layer
            if name == "mc_expected_cdf" and bound.get("workers", 1) > 1:
                span_layer = "pool"
            outer = not tracer._stack or tracer._stack[-1][1] != span_layer
            if outer:
                tracer.counts[f"{span_layer}.calls"] += 1
            tracer._open(span_layer, name)
            result, failed = None, None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                failed = exc
                raise
            finally:
                dur = tracer._close()
                if hook is not None:
                    hook(name, bound, result, failed, dur, outer)
            return result

        return traced

    # -- per-layer counters, called after each traced call -------------
    def _hook_series(self, name, bound, result, failed, dur, outer):
        if not outer or failed is not None:
            return
        if name in _SERIES_METHODS:
            self.counts["series.coeffs"] += len(result)
        elif name == "section":
            self.counts["series.coeffs"] += len(result.coeffs)

    def _hook_roots(self, name, bound, result, failed, dur, outer):
        if name != "find_zeros":
            return
        from szego import ConvergenceError
        if isinstance(failed, ConvergenceError):
            self.counts["roots.failures"] += 1
        d = bound["P"].formal_degree
        self.counts["roots.degree_sum"] += d
        self.counts["roots.deg2_sum"] += d * d
        self.counts["roots.max_degree"] = max(self.counts["roots.max_degree"], d)

    def _hook_bounds(self, name, bound, result, failed, dur, outer):
        if name in _RADIUS_SOLVES:
            self.counts["bounds.solves"] += 1

    def _hook_gauge(self, name, bound, result, failed, dur, outer):
        if name == "window_liminf_from_logs":
            self.counts["gauge.window_positions"] += int(bound["N"])

    def _hook_universal(self, name, bound, result, failed, dur, outer):
        if name == "step" and failed is None:
            self.counts["universal.steps"] += 1
            self.counts["universal.final_degree"] = max(
                self.counts["universal.final_degree"], result.d)

    def _hook_ensembles(self, name, bound, result, failed, dur, outer):
        if name == "sample_coeffs":
            self.counts["ensembles.sample_s"] += dur
        elif name in ("mc_expected_cdf", "reversal_symmetry_check"):
            self.counts["ensembles.trials"] += int(bound["trials"])
            if failed is None:
                self.counts["ensembles.used"] += result.trials_used
            if name == "mc_expected_cdf":
                workers = bound.get("workers", 1)
                key = "w1" if workers == 1 else "wN"
                self.counts[f"ensembles.{key}_s"] += dur

    def _hook_cli(self, name, bound, result, failed, dur, outer):
        if name != "main" or not outer:
            return
        self.counts["cli.commands"] += 1
        argv = list(bound.get("argv") or ())
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                self.counts["cli.bytes_out"] += os.path.getsize(path)

    # -- summary ------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per table row, in seconds."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {row: 0.0 for row in TABLE_ROWS}
        for sid, _, _, layer, _, start, end in self.spans:
            out[layer] += (end - start) - child[sid]
        return out

    def metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric as ``{name: (value, unit)}``."""
        c = self.counts
        busy = self.self_times()

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        values = {
            "bounds.us_per_solve": ratio(busy["bounds"], c["bounds.solves"], 1e6),
            "roots.ns_per_deg2": ratio(busy["roots"], c["roots.deg2_sum"], 1e9),
            "gauge.ns_per_position": ratio(busy["gauge"],
                                           c["gauge.window_positions"], 1e9),
            "ensembles.used_ratio": ratio(c["ensembles.used"],
                                          c["ensembles.trials"]),
            "ensembles.pool_s": busy["pool"],
            "ensembles.pool_speedup": ratio(c["ensembles.w1_s"],
                                            c["ensembles.wN_s"]),
            "trace.overhead_ratio": overhead_ratio,
        }
        for layer in LAYERS:
            values[f"{layer}.busy_s"] = busy[layer]
        out = {}
        for name, unit, _ in PER_LAYER:
            v = values[name] if name in values else c[name]
            out[name] = (float(v), unit)
        return out

    def table(self, traced_wall: float) -> str:
        busy = self.self_times()
        c = self.counts
        extra = {
            "series": f"coeffs={c['series.coeffs']:.0f}",
            "roots": (f"deg_sum={c['roots.degree_sum']:.0f} "
                      f"deg2_sum={c['roots.deg2_sum']:.0f} "
                      f"max_deg={c['roots.max_degree']:.0f} "
                      f"failures={c['roots.failures']:.0f}"),
            "bounds": f"solves={c['bounds.solves']:.0f}",
            "gauge": f"positions={c['gauge.window_positions']:.0f}",
            "ensembles": (f"trials={c['ensembles.trials']:.0f} "
                          f"used={c['ensembles.used']:.0f} "
                          f"sample_s={c['ensembles.sample_s']:.4f}"),
            "universal": (f"steps={c['universal.steps']:.0f} "
                          f"final_degree={c['universal.final_degree']:.0f}"),
            "cli": f"bytes_out={c['cli.bytes_out']:.0f}",
        }
        lines = [f"{'layer':<10} {'calls':>7} {'self_s':>9} {'share':>7}  counts"]
        for row in TABLE_ROWS:
            calls = sum(1 for s in self.spans if s[3] == row and s[1] < 0) \
                if row == "bench" else c[f"{row}.calls"]
            share = 100.0 * busy[row] / traced_wall if traced_wall else 0.0
            lines.append(f"{row:<10} {calls:>7.0f} {busy[row]:>9.4f} "
                         f"{share:>6.1f}%  {extra.get(row, '')}")
        total = sum(busy.values())
        lines.append(f"{'total':<10} {'':>7} {total:>9.4f} "
                     f"{100.0 * total / traced_wall if traced_wall else 0.0:>6.1f}%"
                     f"  traced wall {traced_wall:.4f} s")
        return "\n".join(lines)

    def dump(self) -> list[dict]:
        keys = ("id", "parent", "request", "layer", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]
