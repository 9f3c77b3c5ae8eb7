"""The package's exported names, the README's list of family strings, a
dead-code check over the sources, the mutation catalogue's snippets, and
the error type of malformed arguments across the modules."""

from __future__ import annotations

import ast
import importlib.util
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

import szego
from szego.ensembles import _KINDS
from szego.series import _FAMILIES

ROOT = Path(__file__).resolve().parent.parent

REMOVED = {
    "geometric", "lacunary", "inverse_one_minus_zN", "factorial_gaps",
    "rational", "zero_one", "carlson", "explicit", "random_series",
    "gaussian_complex", "gaussian_real", "uniform_disk", "bernoulli",
    "bernoulli_inv_n", "log_heavy_tail", "distribution_function",
    "window_root_liminf", "infinite_gap_diagnostic", "path_window_liminf",
    "StepRecord", "DROP_TOL", "UNIMODULAR_TOL",
}


def test_all_lists_only_submodule_definitions():
    modules = [m for m in vars(szego).values()
               if isinstance(m, types.ModuleType)
               and m.__name__.startswith("szego.")]
    owner = {name: m for m in modules for name in getattr(m, "__all__", ())}
    assert len(szego.__all__) == len(set(szego.__all__))
    for name in szego.__all__:
        assert name in owner, name
        obj = getattr(szego, name)
        assert obj is getattr(owner[name], name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == owner[name].__name__, name
        else:
            assert name.isupper(), f"{name} is neither a class, a function " \
                                   "nor a constant"
    assert not REMOVED & set(szego.__all__)
    assert not any(hasattr(szego, name) for name in REMOVED)


def test_readme_lists_every_family_and_ensemble_kind():
    text = (ROOT / "README.md").read_text()
    families = re.search(r"Family strings:(.*?)\n\n", text, re.S).group(1)
    ensembles = re.search(r"Ensemble strings(.*?)\n\n", text, re.S).group(1)
    for kind in _FAMILIES:
        assert f"`{kind}" in families, kind
    for kind in _KINDS:
        assert f"`{kind}" in ensembles, kind


def _long_options(parser) -> set[str]:
    """Every ``--option`` of a parser and of its subparsers."""
    import argparse

    out = set()
    for action in parser._actions:
        out.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _long_options(sub)
    return out


def test_readme_and_the_parser_agree_on_cli_options():
    from szego.cli import build_parser

    accepted = _long_options(build_parser())
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                           (ROOT / "README.md").read_text()))
    # pip's flag in the install instructions is not a szego option
    named.discard("--no-build-isolation")
    assert accepted - named == set(), "options the README never names"
    assert named - accepted == set(), "README options the parser rejects"


def _sources():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "szego").glob("*.py"))}


def _loaded_names(tree):
    """Every name a module reads: bare names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_module_imports_are_used():
    # the package __init__ imports to re-export, and __future__ imports
    # change the compiler, so both are left out
    unused = []
    for stem, tree in _sources().items():
        if stem == "__init__":
            continue
        used = _loaded_names(tree)
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{stem}: {name}")
    assert unused == []


def test_private_module_names_are_referenced():
    # a private function, class or constant defined at module level must
    # be read somewhere in the package beyond its own definition
    trees = _sources()
    used = set().union(*map(_loaded_names, trees.values()))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{stem}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in used]
    assert unused == []


def test_horner_layout_stays_inside_series():
    # other modules evaluate through `_horner_rows` and build tables with
    # `_horner_layout`; the layout's fields and the kernel are series' own
    private = {"_HornerLayout", "_horner"}
    named = []
    for stem, tree in _sources().items():
        if stem == "series":
            continue
        names = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        named += [f"{stem}: {name}" for name in sorted(private & names)]
    assert named == []


def test_mutation_catalogue_matches_the_sources(monkeypatch):
    # every snippet occurs exactly once, so a change that orphans a mutant
    # must update it; every test module the catalogue names exists
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tests" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "mutants", mutants)  # for @dataclass
    spec.loader.exec_module(mutants)
    assert mutants.catalogue_faults() == []
    assert len(mutants.CATALOGUE) >= 45


@pytest.mark.parametrize("call", [
    lambda: szego.Polynomial(["x"], 0),
    lambda: szego.ZeroSet(["x"], 0, 1),
    lambda: szego.ZeroSet([1], "a", 1),
    lambda: szego.TargetMeasure(("x",)),
    lambda: szego.gauge_and_index(szego.Geometric(), 0.5),
    lambda: szego.mc_expected_cdf("gaussian_complex", 8, [1.0], 10, 0,
                                  weyl_orders=5),
    lambda: szego.Explicit(5),
    lambda: szego.ZeroOne(5),
    lambda: szego.Rational(1, [1, -1]),
    lambda: szego.TargetMeasure(5),
    lambda: szego.build_universal(5),
    lambda: szego.cycle_targets(5, 2),
    lambda: szego.build_universal([5]),
    lambda: szego.cycle_targets([5], 2),
    lambda: szego.load_explicit_csv(ROOT / "tests" / "no such file.csv"),
    lambda: szego.load_explicit_csv(ROOT / "tests"),
    lambda: szego.ZeroSet([1, 2, 3], -1, 2),
    lambda: szego.RadialMeasure([], []),
    lambda: szego.cauchy_bound(szego.Polynomial([0, 0], 1)),
    lambda: szego.weak_jensen_check(szego.Polynomial([1], 0),
                                    szego.ZeroSet([], 0, 0), 2.0),
    lambda: szego.counting_fn(szego.ZeroSet([], 0, 0), 1.0),
    lambda: szego.as_ensemble("?"),
    lambda: szego.Ensemble("bernoulli"),
    lambda: szego.mc_expected_cdf("gaussian_complex", 8, [], 10, 0),
    lambda: szego.dyadic_empty_window_probe("gaussian_complex", 0.5, 1, 0),
    lambda: szego.coeff_root_range(szego.Geometric(), 63),
    lambda: szego.InverseOneMinusZN(0),
    lambda: szego.Explicit([]),
    lambda: szego.carlson_indices(2, 10),
    lambda: szego.choose_N(szego.TargetMeasure.of(3), 0, 0, 0.0),
    lambda: szego.choose_N(szego.TargetMeasure.of(3), 1, -1, 0.0),
    lambda: szego.choose_M(szego.TargetMeasure.of(3), 0, 1, 0),
    lambda: szego.choose_M(szego.TargetMeasure.of(3), 1, 1, -1),
    lambda: szego.cycle_targets([[3]], 0),
    lambda: szego.cycle_targets([], 2),
], ids=["polynomial coeffs", "zero set zeros", "zero set count",
        "target radii", "gamma grid", "weyl orders",
        "explicit coeffs", "zero-one indices", "rational numerator",
        "target radius list", "universal targets", "cycled targets",
        "universal target radii", "cycled target radii", "missing csv",
        "csv directory", "negative infinity count", "measure without atoms",
        "cauchy bound of zero",
        "weak jensen at degree 0", "counting at degree 0",
        "ensemble descriptor", "ensemble parameter missing", "empty t grid",
        "dyadic probe below 2", "root range below 64", "inverse N 0",
        "empty explicit list", "carlson t above 1", "choose_N step 0",
        "choose_N negative index", "choose_M step 0",
        "choose_M negative index", "no cycled steps", "empty cycle base"])
def test_malformed_arguments_raise_domain_error(call):
    # a text where a number is expected, a number where a list is, a value
    # outside its range, or a path that names no readable file
    with pytest.raises(szego.DomainError):
        call()
