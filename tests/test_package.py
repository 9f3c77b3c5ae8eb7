"""The package's exported names, the README's list of family strings, and
a dead-code check over the sources."""

from __future__ import annotations

import ast
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
