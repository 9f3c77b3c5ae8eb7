"""Command line interface: formats, exit codes, determinism."""

from __future__ import annotations

import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import szego
from szego import cli
from szego.cli import main


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


def test_zeros_csv(capsys):
    rc, out = _run(capsys, ["zeros", "--family", "geometric", "--n", "3"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "re,im,multiplicity"
    assert lines[-1] == "# infinity_count: 0"
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 3
    key = lambda z: (round(z.real, 6), round(z.imag, 6))
    zs = sorted((complex(float(a), float(b)) for a, b, _ in rows), key=key)
    # fourth roots of unity other than 1
    ref = sorted([-1 + 0j, 1j, -1j], key=key)
    for z, w in zip(zs, ref):
        assert abs(z - w) < 1e-8
    assert all(m == "1" for _, _, m in rows)


def test_zeros_csv_deterministic(capsys):
    argv = ["zeros", "--family", "random:gaussian_complex,5", "--n", "20"]
    rc1, out1 = _run(capsys, argv)
    rc2, out2 = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_zeros_multiplicity_and_infinity(capsys):
    # the section of z^2 at n = 4 has a double origin zero and two
    # deferred zeros at infinity
    argv = ["zeros", "--family", "rational:0,0,1|1", "--n", "4"]
    rc, out = _run(capsys, argv)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[1] == "0,0,2"
    assert lines[-1] == "# infinity_count: 2"


def test_zeros_json(capsys):
    rc, out = _run(capsys, ["zeros", "--family", "lacunary:2", "--n", "8",
                            "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["config"]["family"] == "lacunary:2"
    assert doc["config"]["n"] == 8
    assert doc["formal_degree"] == 8
    assert doc["infinity_count"] == 0
    assert len(doc["finite_zeros"]) == 8
    assert all(len(pair) == 2 for pair in doc["finite_zeros"])


def test_measure_counting(capsys):
    rc, out = _run(capsys, ["measure", "--family", "geometric", "--n", "4",
                            "--t-grid", "0.9,1.1"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["counting_fn"] == [0.0, 1.0]
    assert doc["infinity_mass"] == 0.0
    assert sum(doc["weights"]) == pytest.approx(1.0)
    assert all(abs(r - 1.0) < 1e-8 for r in doc["radii"])


def test_bounds_fields(capsys):
    rc, out = _run(capsys, ["bounds", "--family", "geometric", "--n", "6"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["cauchy"] > 1.0 > doc["inner_cauchy"] > 0.0
    assert set(doc["van_vleck"]) == {str(m) for m in range(1, 7)}
    assert doc["van_vleck"]["6"] == pytest.approx(doc["cauchy"])


def test_gauge_fields(capsys):
    rc, out = _run(capsys, ["gauge", "--family", "carlson:0.5,0.5",
                            "--horizon", "512"])
    assert rc == 0
    doc = json.loads(out)
    assert abs(doc["Gamma_hat"] - 0.5) <= 0.05
    assert abs(doc["G_hat"] - 0.5) <= 0.05
    assert doc["horizon"] == 512
    assert len(doc["L_hat"]) == len(doc["gamma_grid"])


def test_random_json_worker_invariance(capsys):
    base = ["random", "--ensemble", "gaussian_complex", "--n", "16",
            "--trials", "12", "--seed", "9", "--t-grid", "0.9,1.1",
            "--weyl-orders", "1"]
    rc1, out1 = _run(capsys, base + ["--workers", "1"])
    rc2, out2 = _run(capsys, base + ["--workers", "2"])
    assert rc1 == rc2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["config"].pop("workers") == 1
    assert doc2["config"].pop("workers") == 2
    assert doc1 == doc2
    assert doc1["conditions"]["szego_expected"] is True
    assert doc1["trials_used"] == 12


def test_random_csv(capsys):
    argv = ["random", "--ensemble", "bernoulli(0.5)", "--n", "12",
            "--trials", "10", "--seed", "4", "--format", "csv"]
    rc1, out1 = _run(capsys, argv)
    rc2, out2 = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0] == "t,phi_hat,stderr"
    assert len(lines) == 7  # default six point grid


def test_universal_json(capsys):
    rc, out = _run(capsys, ["universal", "--targets", '[["3/2","2"]]'])
    assert rc == 0
    doc = json.loads(out)
    step = doc["steps"][0]
    assert (step["N"], step["M"], step["d"]) == (12, 7, 26)
    assert step["levy"] <= 1.0
    assert doc["final_section_index"] == 26


def test_out_file(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    rc, out = _run(capsys, ["zeros", "--family", "geometric", "--n", "3",
                            "--out", str(path)])
    assert rc == 0
    assert out == ""
    rc2, direct = _run(capsys, ["zeros", "--family", "geometric", "--n", "3"])
    assert path.read_text() == direct


def test_out_to_a_missing_directory_exits_1(tmp_path, capsys):
    # open() used to end in a FileNotFoundError traceback
    path = tmp_path / "no_such_dir" / "zeros.csv"
    rc = main(["zeros", "--family", "geometric", "--n", "3",
               "--out", str(path)])
    assert "--out" in _one_error_line(capsys, rc)
    assert not path.parent.exists()


def test_out_to_a_directory_exits_1(tmp_path, capsys):
    rc = main(["zeros", "--family", "geometric", "--n", "3",
               "--out", str(tmp_path)])
    assert "--out" in _one_error_line(capsys, rc)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["zeros", "--family", "geometric", "--n", "4000"],
    ["universal", "--targets", '[["3"],["4"],["3"],["6/5"]]'],
])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_out_is_opened_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                       where):
    # the path used to be opened only after the solve or the build
    for name in ("find_zeros", "build_universal"):
        monkeypatch.setattr(cli, name, _work_started)
    path = tmp_path if where == "directory" else tmp_path / "no_such_dir" / "x"
    rc = main(argv + ["--out", str(path)])
    assert "--out" in _one_error_line(capsys, rc)


def test_a_failing_run_leaves_an_empty_out_file(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    path.write_text("old contents")
    rc = main(["zeros", "--family", "no_such_family", "--n", "4",
               "--out", str(path)])
    _one_error_line(capsys, rc)
    assert path.read_text() == ""


def test_python_dash_m_szego_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "szego", "--version"],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == szego.__version__


def test_exit_codes(capsys):
    assert main(["zeros", "--family", "no_such_family", "--n", "4"]) == 1
    assert main([]) == 1
    assert main(["zeros", "--family", "geometric"]) == 1  # missing --n
    assert main(["random", "--ensemble", "gaussian_complex", "--n", "8",
                 "--trials", "5"]) == 1  # too few trials
    assert main(["universal", "--targets", '[["1000"]]']) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["bounds", "zeros"])
@pytest.mark.parametrize("family", ["explicit:1,nan,1", "explicit:1,inf,1"])
def test_non_finite_coefficients_exit_1(capsys, command, family):
    rc = main([command, "--family", family, "--n", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["zeros", "--n", "4", "--family", "lacunary:x"],
    ["zeros", "--n", "4", "--family", "carlson:a,0.5"],
    ["zeros", "--n", "4", "--family", "explicit:foo"],
    ["zeros", "--n", "4", "--family", "explicit:1/0"],
    ["zeros", "--n", "4", "--family", "zero_one:a"],
    ["zeros", "--n", "4", "--family", "random:gaussian_complex,abc"],
    ["zeros", "--n", "4", "--family", "random:bernoulli(x),1"],
    ["random", "--ensemble", "bernoulli(x)", "--n", "8", "--trials", "10"],
    ["universal", "--targets", '[["abc"]]'],
    ["universal", "--targets", '[["inf"]]'],
    ["universal", "--targets", '[["1/0"]]'],
    ["universal", "--targets", "[[1e400]]"],
    ["random", "--ensemble", "log_heavy_tail(inf)", "--n", "8",
     "--trials", "10", "--t-grid", "1.0"],
    ["random", "--ensemble", "log_heavy_tail(1e-300)", "--n", "8",
     "--trials", "10", "--t-grid", "1.0"],
])
def test_malformed_descriptors_exit_1(capsys, argv):
    # pyproject turns a numpy RuntimeWarning into an error, so a warning
    # printed next to a normal result cannot pass here
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_random_rejects_worker_count_below_one(capsys, monkeypatch, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    rc = main(["random", "--ensemble", "gaussian_complex", "--n", "8",
               "--trials", "10", "--workers", workers])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("family", ["inverse_one_minus_zN:2000",
                                    "zero_one:0,2000,4000"])
def test_zeros_of_sparse_flat_sections(capsys, family):
    # 1 + z^2000 + z^4000 is solved in z^2000; in z it stalled with an
    # overflow warning and exit code 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = _run(capsys, ["zeros", "--family", family, "--n", "4000"])
    assert rc == 0
    rows = [line for line in out.split("\n") if line and line[0] != "#"]
    assert len(rows) == 4001  # header and 4000 zeros


def test_zeros_of_tiny_coefficients(capsys):
    rc, out = _run(capsys, ["zeros", "--family", "explicit:1e-301,1e-301",
                            "--n", "1"])
    assert rc == 0
    assert out.split("\n")[1:3] == ["-1,0,1", "# infinity_count: 0"]


def test_gauge_overflow_saturates_to_infinity(capsys):
    # heavy-tailed window maxima pass e^709; under the RuntimeWarning
    # filter an overflow warning would fail this test
    rc = main(["gauge", "--family", "random:log_heavy_tail(0.2),3",
               "--horizon", "256"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    doc = json.loads(captured.out)
    tail = [L for g, L in zip(doc["gamma_grid"], doc["L_raw"]) if g >= 0.2]
    assert tail and all(L == math.inf for L in tail)


class _WorkStarted(Exception):
    pass


def _work_started(*args, **kwargs):
    raise _WorkStarted


@pytest.mark.parametrize("option, argv", [
    ("n", ["zeros", "--family", "geometric", "--n"]),
    ("n", ["measure", "--family", "geometric", "--n"]),
    ("n", ["bounds", "--family", "geometric", "--n"]),
    ("horizon", ["gauge", "--family", "geometric", "--horizon"]),
    ("n", ["random", "--ensemble", "gaussian_complex", "--trials", "10",
           "--n"]),
    ("trials", ["random", "--ensemble", "gaussian_complex", "--n", "8",
                "--trials"]),
])
def test_size_limits_stop_before_any_work(capsys, monkeypatch, option, argv):
    def started(*args, **kwargs):
        raise _WorkStarted

    for name in ("parse_family", "section", "find_zeros", "bounds_report",
                 "gauge_and_index", "as_ensemble", "mc_expected_cdf"):
        monkeypatch.setattr(cli, name, started)
    limit = cli._LIMITS[option]
    rc = main(argv + [str(limit + 1)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    # at the limit itself the command goes on to its work
    with pytest.raises(_WorkStarted):
        main(argv + [str(limit)])


def _one_error_line(capsys, rc):
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("command", ["zeros", "measure"])
@pytest.mark.parametrize("tol", ["nan", "inf", "1", "0"])
def test_tol_outside_unit_interval_exits_1(capsys, command, tol):
    # the solver works its tolerance out from the degree and takes none, so
    # any --tol exits 1 as an unknown argument
    rc = main([command, "--family", "geometric", "--n", "64", "--tol", tol])
    assert "unrecognized arguments: --tol" in _one_error_line(capsys, rc)


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


_RANDOM = ["random", "--ensemble", "gaussian_complex", "--n", "8",
           "--trials", "10"]


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_random_rejects_a_bad_szego_workers(capsys, monkeypatch, value):
    monkeypatch.setenv("SZEGO_WORKERS", value)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
    assert "SZEGO_WORKERS" in _one_error_line(capsys, main(_RANDOM))


def test_szego_workers_is_read_by_random_only(capsys, monkeypatch):
    monkeypatch.setenv("SZEGO_WORKERS", "abc")
    assert _run(capsys, ["zeros", "--family", "geometric", "--n", "3"])[0] == 0
    # an explicit --workers wins over the environment
    rc, out = _run(capsys, _RANDOM + ["--workers", "1"])
    assert rc == 0
    assert json.loads(out)["config"]["workers"] == 1
    monkeypatch.setenv("SZEGO_WORKERS", "3")
    real = cli.mc_expected_cdf
    seen = []

    def spy(*args, workers, **kwargs):
        seen.append(workers)
        return real(*args, workers=1, **kwargs)

    monkeypatch.setattr(cli, "mc_expected_cdf", spy)
    rc, out = _run(capsys, _RANDOM)
    assert rc == 0
    assert seen == [3]
    assert json.loads(out)["config"]["workers"] == 3


@pytest.mark.parametrize("orders", ["1.5", "1,2.5", "0", "1,-1", "1e19",
                                    "9223372036854775808"])
def test_random_rejects_non_integer_weyl_orders(capsys, monkeypatch, orders):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
    rc = main(_RANDOM + ["--workers", "2", "--weyl-orders", orders])
    _one_error_line(capsys, rc)


def test_random_csv_rejects_weyl_orders(capsys, monkeypatch):
    # the CSV table has no Weyl columns, so the sums used to be dropped
    def no_trials(*args, **kwargs):
        raise AssertionError("trials were started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(cli, "mc_expected_cdf", no_trials)
    rc = main(_RANDOM + ["--workers", "2", "--format", "csv",
                         "--weyl-orders", "1,2"])
    assert "--weyl-orders" in _one_error_line(capsys, rc)


def test_random_reports_the_exact_weyl_order(capsys):
    # 2^53 + 1 has no float of its own
    rc = main(_RANDOM + ["--weyl-orders", "9007199254740993"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert json.loads(captured.out)["weyl_orders"] == [9007199254740993]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_random_accepts_the_largest_weyl_order(capsys):
    rc = main(_RANDOM + ["--weyl-orders", "9223372036854775807"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    doc = json.loads(captured.out, parse_constant=_reject_constant)
    assert doc["weyl_orders"] == [2 ** 63 - 1]
    assert max(doc["weyl_mean_abs"][0], doc["weyl_abs_mean"][0]) <= 1


@pytest.mark.parametrize("argv", [
    _RANDOM + ["--t-grid", "1", "--seed", "-1"],
    _RANDOM + ["--t-grid", "1", "--seed", "-1", "--workers", "2"],
    ["gauge", "--family", "random:gaussian_complex,-3", "--horizon", "64"],
    ["zeros", "--family", "random:gaussian_complex,-3", "--n", "8"],
])
def test_negative_seed_exits_1(capsys, monkeypatch, argv):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
    assert "seed" in _one_error_line(capsys, main(argv))


@pytest.mark.parametrize("grid", ["nan", "0.5,nan", ",,", " , "])
def test_measure_rejects_a_nan_or_empty_t_grid(capsys, grid):
    rc = main(["measure", "--family", "geometric", "--n", "8",
               "--t-grid", grid])
    _one_error_line(capsys, rc)


@pytest.mark.parametrize("option, value", [
    ("--t-grid", ",,"), ("--weyl-orders", ","),
])
def test_random_rejects_a_grid_with_no_numbers(capsys, monkeypatch, option,
                                               value):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
    rc = main(_RANDOM + ["--workers", "2", option, value])
    _one_error_line(capsys, rc)


def test_gauge_rejects_a_grid_with_no_numbers(capsys):
    # an empty gamma grid used to end in an IndexError traceback
    rc = main(["gauge", "--family", "lacunary:2", "--horizon", "64",
               "--grid", ",,"])
    _one_error_line(capsys, rc)


@pytest.mark.parametrize("grid", ["nan", "0.5,nan", ",,", " , ", "-1",
                                  "0.9,-0.5"])
def test_measure_checks_the_t_grid_before_the_solve(capsys, monkeypatch,
                                                     grid):
    monkeypatch.setattr(cli, "find_zeros", _work_started)
    rc = main(["measure", "--family", "geometric", "--n", "4096",
               "--t-grid", grid])
    _one_error_line(capsys, rc)


def test_measure_counts_the_whole_grid_in_one_call(capsys, monkeypatch):
    calls = []

    def spy(Z, t):
        calls.append(t)
        return szego.counting_fn(Z, t)

    monkeypatch.setattr(cli, "counting_fn", spy)
    grid = [0.5, 0.9, 1.0, 1.1, math.inf]
    rc, out = _run(capsys, ["measure", "--family", "inverse_one_minus_zN:3",
                            "--n", "40", "--t-grid",
                            ",".join(map(str, grid))])
    assert rc == 0 and len(calls) == 1
    Z = szego.find_zeros(szego.section(szego.parse_family(
        "inverse_one_minus_zN:3"), 40))
    doc = json.loads(out)
    assert doc["t_grid"] == grid
    assert doc["counting_fn"] == [szego.counting_fn(Z, t) for t in grid]


def _readme_cli_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## CLI usage\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    assert commands and all(c[0] == "szego" for c in commands)
    return [c[1:] for c in commands]


@pytest.mark.parametrize("argv", _readme_cli_commands(),
                         ids=lambda argv: " ".join(argv[:3]))
def test_readme_cli_examples_run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert captured.out.strip()
