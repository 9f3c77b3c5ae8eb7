"""Command line interface: formats, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

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


def test_zeros_of_tiny_coefficients(capsys):
    rc, out = _run(capsys, ["zeros", "--family", "explicit:1e-301,1e-301",
                            "--n", "1"])
    assert rc == 0
    assert out.split("\n")[1:3] == ["-1,0,1", "# infinity_count: 0"]
