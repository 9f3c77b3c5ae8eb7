"""Smoke test of the benchmark at a tiny size.

Run from the root of a source checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _printed(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def _check_units(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in specs}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_end_to_end_metrics_are_printed_with_units(name, capsys):
    run.run_workload(name, seed=5, seconds=0, trace=False, tiny=True)
    lines, result = _printed(capsys)
    _check_units(result, SPEC["end_to_end"])
    for key, value in result["metrics"].items():
        assert value["value"] > 0
        line = next(line.split() for line in lines
                    if line.split()[:1] == [key])
        assert line[2] == value["unit"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_self_times_add_up_to_traced_wall(name, capsys):
    returned = run.run_workload(name, seed=5, seconds=0, trace=True,
                                tiny=True)
    lines, result = _printed(capsys)
    _check_units(result, SPEC["per_layer"])
    assert [m[0] for m in spans.PER_LAYER] == \
        [m["name"] for m in SPEC["per_layer"]]
    for row in spans.TABLE_ROWS:
        assert any(line.split()[:1] == [row] for line in lines)

    tracer, traced_wall, overhead_ratio = returned["_trace"]
    self_times = tracer.self_times()
    assert all(v >= -1e-9 for v in self_times.values())
    total = sum(self_times.values())
    assert total <= traced_wall + 1e-6
    layers = total - self_times["bench"]
    overhead = result["metrics"]["trace.overhead_ratio"]["value"]
    assert overhead == overhead_ratio > 0
    # what the layers do not cover is tracing cost, within timing noise
    allowance = max(0.0, traced_wall - traced_wall / overhead)
    assert traced_wall - layers <= allowance + 0.05 * traced_wall + 0.005


def test_output_checks_can_fail():
    coeffs = np.array([-1.0, 0.0, 1.0])  # zeros at -1 and 1
    zeros = np.array([-1.0, 1.0])
    assert workloads.backward_error(coeffs, zeros) == 0.0
    assert workloads.backward_error(coeffs, zeros + 1e-3) > workloads.BACKWARD_TOL
    moduli = np.abs(workloads.reference_zeros(coeffs))
    assert workloads.containment_ok(moduli, 1.0, 1.0, [1.0, 1.0], [1.0, 1.0])
    assert not workloads.containment_ok(moduli, 0.9, 1.0, [1.0, 1.0], [1.0, 1.0])
    assert not workloads.containment_ok(moduli, 1.0, 1.0, [1.0, 0.9], [1.0, 1.0])
    assert not workloads.containment_ok(moduli, 1.0, 1.0, [1.0, 1.0], [1.0, 1.1])
    # z^2 - 1: every radius solves its equation at 1
    assert workloads.radii_error(coeffs, 1.0, 1.0, [1.0, 1.0], [1.0, 1.0]) \
        < workloads.RADIUS_TOL
    for too_large in ((1.1, 1.0, [1.0, 1.0], [1.0, 1.0]),
                      (1.0, 1.0, [1.1, 1.0], [1.0, 1.0]),
                      (1.0, 1.0, [1.0, 1.0], [1.0, 0.9])):
        assert workloads.radii_error(coeffs, *too_large) > workloads.RADIUS_TOL
    # z + z^3 has no inner radii and V_1 = 0 (the zero at the origin)
    assert workloads.radii_error([0, 1, 0, 1], 1.0, None, [0.0, 1.0, 1.0],
                                 None) < workloads.RADIUS_TOL
    assert workloads.radii_error([0, 1, 0, 1], 1.0, None, [0.1, 1.0, 1.0],
                                 None) == np.inf
    assert workloads.max_match_distance(zeros, zeros[::-1]) == 0.0
    assert workloads.max_match_distance(zeros, zeros + 1e-3) > \
        workloads.ROOTS_MATCH_TOL
    gauge = json.dumps({"gamma_grid": [0.4, 0.5, 0.6], "Gamma_hat": 0.6})
    assert workloads._check_cli_output(["gauge", "--family", "lacunary:2"],
                                       gauge)
