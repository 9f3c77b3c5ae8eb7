"""The package's exported names and the README's list of family strings."""

from __future__ import annotations

import inspect
import re
import types
from pathlib import Path

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
    "StepRecord",
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
