"""A mutation catalogue: every entry breaks one check of the package, and
the test modules it names must fail on the broken copy.

Run from anywhere, with numpy and pytest installed:

    python tests/mutants.py

The runner copies ``src/`` and ``tests/``, with the README, the demos and
``pyproject.toml`` that some tests read, to a temporary directory. It
first runs every named test module on the unmutated copy, which must
pass. It then applies one mutant at a time and runs only the modules that
mutant names, with ``-x``. A mutant is killed when pytest reports a
failing test or runs out of time. The exit status is nonzero if a mutant
survives, if pytest cannot run its modules, if the unmutated copy fails,
or if a snippet does not occur exactly once in its file.

The file's name keeps it out of pytest's collection; ``test_package.py``
checks the snippets and modules of the catalogue against the sources.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: copied next to ``src/`` and ``tests/``: the tests read these too
_ALSO_COPIED = ("README.md", "pyproject.toml", "demos")

#: the tier-1 test of the catalogue itself, never run on a mutant
_CATALOGUE_TEST = ("tests/test_package.py::"
                   "test_mutation_catalogue_matches_the_sources")

#: a module run that takes longer is stopped; a mutant that hangs is killed
_TIMEOUT_S = 120


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    snippet: str
    replacement: str
    modules: tuple[str, ...]
    reason: str


CATALOGUE = (
    Mutant("order check", "src/szego/bounds.py",
           "if not 1 <= m <= n:", "if not 1 <= m <= n + 1:",
           ("test_bounds.py",),
           "a van Vleck order above the degree reads past the coefficients"),
    Mutant("b_0 check", "src/szego/bounds.py",
           "    if c[0] == 0:\n        raise DomainError(\"constant",
           "    if False:\n        raise DomainError(\"constant",
           ("test_bounds.py",),
           "an inner radius with b_0 = 0 has no meaning"),
    Mutant("inner radius of an outer radius 0", "src/szego/bounds.py",
           "return math.inf if x == 0 else 1.0 / x", "return 1.0 / x",
           ("test_bounds.py",),
           "no upper term in the inner equation means every radius works"),
    Mutant("Viete bottom guard", "src/szego/bounds.py",
           "bottom, top = c[0] > 0 and at0 == 0,",
           "bottom, top = c[0] > 0,",
           ("test_bounds.py",),
           "a zero at the origin put there for a tiny b_0 enters the sums"),
    Mutant("Viete top guard", "src/szego/bounds.py",
           "top = c[0] > 0 and at0 == 0, c[n] > 0 and atinf == 0",
           "top = c[0] > 0 and at0 == 0, c[n] > 0",
           ("test_bounds.py",),
           "a zero at infinity put there for a tiny b_n enters the sums"),
    Mutant("Viete large sums past the origin zeros", "src/szego/bounds.py",
           "if top and k >= at0:", "if top:",
           ("test_bounds.py",),
           "the n - k largest moduli take in a zero at the origin"),
    Mutant("Viete small sums past the infinity zeros", "src/szego/bounds.py",
           "if bottom and k <= n - atinf:", "if bottom:",
           ("test_bounds.py",),
           "the k smallest moduli take in a zero at infinity"),
    Mutant("Jensen zero-set check", "src/szego/bounds.py",
           " or Z.infinity_count or not np.all(moduli):", ":",
           ("test_bounds.py",),
           "a zero at 0 or infinity makes the identity's lhs infinite"),
    Mutant("Jensen nodes stuck at 4096", "src/szego/bounds.py",
           "            nodes *= 2\n", "            break\n",
           ("test_bounds.py",),
           "zeros near the circle get the same nodes as zeros far from it"),
    Mutant("Jensen cap warning removed", "src/szego/bounds.py",
           "if bound > target:", "if False:",
           ("test_bounds.py",),
           "an rhs off by more than the target is returned without a word"),
    Mutant("Jensen bound left out of the weak slack", "src/szego/bounds.py",
           "lhs > rhs + bound / n + 1e-9", "lhs > rhs + 1e-9",
           ("test_bounds.py",),
           "the quadrature's own error reads as a violated inequality"),
    Mutant("target reader", "src/szego/universal.py",
           'return TargetMeasure.of(*_items(phi, "target radii"))',
           "return TargetMeasure.of(*phi)",
           ("test_package.py",),
           "a number where a list of radii is expected raises TypeError"),
    Mutant("merge order", "src/szego/measures.py",
           "np.add.at(merged, inverse, w)",
           "np.add.at(merged, inverse[::-1], w[::-1])",
           ("test_measures.py",),
           "an atom's weights are summed in another order than given"),
    Mutant("binomial phase dropped", "src/szego/roots.py",
           "phase = np.angle(-core[i] / core[j])", "phase = 0.0",
           ("test_roots.py",),
           "binomial edges lose the starts at the binomial's zeros"),
    Mutant("g forced to 1", "src/szego/roots.py",
           "g = int(np.gcd.reduce(np.nonzero(core)[0])) if deg > low else 1",
           "g = 1",
           ("test_roots.py",),
           "a sparse core is solved without the z^g reduction"),
    Mutant("forward limit +inf", "src/szego/roots.py",
           "np.array([math.exp((_LOG_MAX - 2.0 * math.log(d + 1)) / d)\n"
           "                               for d in self.d.tolist()])",
           "np.full(len(self.d), math.inf)",
           ("test_roots.py",),
           "points past the overflow limit stay on the forward table"),
    Mutant("reversed layout built eagerly", "src/szego/roots.py",
           "self.rev = None",
           "self.rev = _horner_layout([c[::-1] for c in cores])",
           ("test_roots.py",),
           "every stack pays for a reversed table few of them use"),
    Mutant("triangle column sums not negated", "src/szego/roots.py",
           "sums[stop:] -= diff[:, b: m - start].sum(axis=0)",
           "sums[stop:] += diff[:, b: m - start].sum(axis=0)",
           ("test_roots.py",),
           "1/(w_j - w_i) is the negated 1/(w_i - w_j)"),
    Mutant("lone-point pairing removed", "src/szego/series.py",
           "lone = z.shape[1] == 1", "lone = False",
           ("test_roots.py",),
           "a one-column einsum sums in another order than a wider one"),
    Mutant("drop rule removed", "src/szego/roots.py",
           "mags > _DROP_TOL * cmax", "mags > 0",
           ("test_roots.py",),
           "a coefficient 1e-300 below the largest is solved as nonzero"),
    Mutant("forward limit 0", "src/szego/roots.py",
           "np.array([math.exp((_LOG_MAX - 2.0 * math.log(d + 1)) / d)\n"
           "                               for d in self.d.tolist()])",
           "np.zeros(len(self.d))",
           ("test_roots.py",),
           "every point goes to the reversed table, even near the origin"),
    Mutant("imaginary rows zeroed", "src/szego/series.py",
           "np.concatenate([blocks.real, blocks.imag], axis=1)",
           "np.concatenate([blocks.real, 0.0 * blocks.imag], axis=1)",
           ("test_series.py",),
           "complex coefficients lose their imaginary parts in Horner"),
    Mutant("uniform starts", "src/szego/roots.py",
           "angles = _GOLDEN_ANGLE * np.arange(d) + 0.4",
           "angles = 2.0 * math.pi * np.arange(d) / d + 0.4",
           ("test_roots.py",),
           "dense flat edges stall or slow down without the golden spread"),
    Mutant("stall isolation removed", "src/szego/roots.py",
           "stalled = np.bincount(owner[~done], minlength=len(ds)) > 0",
           "stalled = np.ones(len(ds), dtype=bool)",
           ("test_roots.py",),
           "one stalled core fails every core of its batch"),
    Mutant("lone-vector shortcut removed", "src/szego/series.py",
           "    if len(layout.vals) == 1:\n        return _horner(layout, z)\n",
           "",
           ("test_roots.py",),
           "a one-vector layout pays for the scatter into a padded table"),
    Mutant("one reversed call per crossing core", "src/szego/roots.py",
           "q, dq, s[outer] = _horner_rows(stack.rev, to, v)",
           "q, dq, s[outer] = map(np.concatenate, zip(*(\n"
           "            _horner_rows(stack.rev, to[to == t], v[to == t])\n"
           "            for t in np.unique(to).tolist())))",
           ("test_roots.py",),
           "every crossing core pays for its own reversed Horner call"),
    Mutant("scatter columns reversed", "src/szego/series.py",
           "table[tr, col] = z", "table[tr, col[::-1]] = z",
           ("test_roots.py",),
           "ragged points land in another point's column of the table"),
    Mutant("far-field zone widened to 1.2 block radii", "src/szego/roots.py",
           "- R[:, None] <= _FAR_ETA * R", "- R[:, None] <= 1.2 * R",
           ("test_roots.py",),
           "a block 1.2 radii away needs far more terms than p"),
    Mutant("far-field terms halved", "src/szego/roots.py",
           "    / math.log(_FAR_ETA))", "    / math.log(_FAR_ETA)) // 2",
           ("test_roots.py",),
           "half the terms leave a truncation of about eta^(-p/2)"),
    Mutant("self pair kept in the near sums", "src/szego/roots.py",
           "            diff[np.arange(j - i), mine[i:j]] = np.inf\n", "",
           ("test_roots.py",),
           "every row meets a zero difference and is summed again"),
    Mutant("far-field fallback to the triangle removed", "src/szego/roots.py",
           "            > m * N - m * m / 2:", "            > 2 * m * N:",
           ("test_roots.py",),
           "a thick annulus keeps the far field, whose near work is larger"),
    Mutant("circle-table terms cut by one", "src/szego/roots.py",
           "_TABLE_TERMS = next(", "_TABLE_TERMS = -1 + next(",
           ("test_roots.py",),
           "the truncation bound of the Taylor sums is then above eps"),
    Mutant("circle-table reach doubled", "src/szego/roots.py",
           "reach = _TABLE_REACH / self.c",
           "reach = 2 * _TABLE_REACH / self.c",
           ("test_roots.py",),
           "points past the reach its term count was chosen for take it"),
    Mutant("centring factor dropped from the table's sum",
           "src/szego/roots.py",
           "return ex * S, dS, np.exp(xr) * sums", "return ex * S, dS, sums",
           ("test_roots.py",),
           "the sum is off by e^(Re x), up to e^(+-1), and the stop test too"),
    Mutant("gauge level fold", "src/szego/gauge.py",
           "best[j] = np.minimum(best[j], np.min(tops / n))",
           "best[j] = np.min(tops / n)",
           ("test_gauge.py",),
           "each window level overwrites the minimum of the shorter ones"),
    Mutant("stack alignment", "src/szego/series.py",
           "row[: len(c)] = c if cplx else c.real",
           "row[-len(c):] = c if cplx else c.real",
           ("test_roots.py",),
           "a shorter vector of a stack is shifted up to the longest one"),
    Mutant("symmetry inside columns swapped", "src/szego/ensembles.py",
           "inside, inside_inverse, above, below = np.array(rows).T",
           "inside_inverse, inside, above, below = np.array(rows).T",
           ("test_ensembles.py",),
           "F(t) and F(1/t) trade places in the reversal check"),
    Mutant("symmetry band columns swapped", "src/szego/ensembles.py",
           "inside, inside_inverse, above, below = np.array(rows).T",
           "inside, inside_inverse, below, above = np.array(rows).T",
           ("test_ensembles.py",),
           "the boundary band reads its lower edge as its upper one"),
    Mutant("reversed layout rebuilt per call", "src/szego/roots.py",
           "if stack.rev is None:", "if True:",
           ("test_roots.py",),
           "every crossing sweep builds the reversed table again"),
    Mutant("ensemble descriptor rounded to six digits",
           "src/szego/ensembles.py",
           "if float(text) != p:", "if False:",
           ("test_ensembles.py",),
           "log_heavy_tail(1.0000001) prints as alpha = 1 and reads back so"),
    Mutant("bool ensemble parameter", "src/szego/ensembles.py",
           "(isinstance(self.param, bool)\n                            or ",
           "(",
           ("test_package.py",),
           "bernoulli(True) passes as the probability 1"),
    Mutant("pool sized by the worker count", "src/szego/ensembles.py",
           "ProcessPoolExecutor(max_workers=size)",
           "ProcessPoolExecutor(max_workers=workers)",
           ("test_ensembles.py",),
           "--workers 100000 asks the fork pool for 100000 processes"),
    Mutant("batch finite filter", "src/szego/ensembles.py",
           "if np.any(c) and np.all(np.isfinite(c))", "if np.any(c)",
           ("test_ensembles.py",),
           "a trial with a non-finite coefficient stops the whole run"),
    Mutant("batch convergence filter", "src/szego/ensembles.py",
           "for Z in _zero_sets(kept) if not isinstance(Z, ConvergenceError)]",
           "for Z in _zero_sets(kept)]",
           ("test_ensembles.py",),
           "a stalled solve stops the whole run instead of counting"),
    Mutant("negative infinity count", "src/szego/roots.py",
           "if at_inf < 0:", "if False:",
           ("test_roots.py", "test_package.py"),
           "a negative count balances extra finite zeros"),
    Mutant("formal degree read as given", "src/szego/series.py",
           "n = _integer(self.formal_degree)", "n = self.formal_degree",
           ("test_roots.py",),
           "a float degree is stored and passed on to the zero set"),
    Mutant("measure without atoms", "src/szego/measures.py",
           "if len(r) == 0:", "if False:",
           ("test_measures.py", "test_package.py"),
           "an empty measure is accepted and its cdf raises IndexError"),
    Mutant("annuli overlap audit", "src/szego/universal.py",
           "if a + Fraction(a, M) > b - Fraction(b, M):", "if False:",
           ("test_universal.py",),
           "overlapping ring annuli pass the audit"),
    Mutant("junk ratio audit", "src/szego/universal.py",
           "if not k * (N + d_prev) < m * M:", "if False:",
           ("test_universal.py",),
           "a step with too many junk zeros passes the audit"),
    Mutant("two-disk claim audit", "src/szego/universal.py",
           "if np.any(claimed & hit):", "if False:",
           ("test_universal.py",),
           "one zero counts for a disk of two rings"),
    Mutant("Levy audit bound", "src/szego/universal.py",
           "if lv > 1.0 / k:", "if lv > 1.0:",
           ("test_universal.py",),
           "a section far from its target passes from step 2 on"),
)


def catalogue_faults(root: Path = ROOT) -> list[str]:
    """Entries whose snippet does not occur exactly once in its file or
    that name a test module that does not exist, and a catalogue test
    that the runner cannot deselect."""
    faults = []
    for mut in CATALOGUE:
        count = (root / mut.path).read_text().count(mut.snippet)
        if count != 1:
            faults.append(f"{mut.name}: snippet occurs {count} times")
        faults += [f"{mut.name}: no module tests/{m}" for m in mut.modules
                   if not (root / "tests" / m).is_file()]
    path, name = _CATALOGUE_TEST.split("::")
    if f"def {name}(" not in (root / path).read_text():
        faults.append(f"no test {_CATALOGUE_TEST} to deselect")
    return faults


def _pytest(work: Path, modules) -> tuple[int | None, list[str]]:
    """pytest's exit code on the named modules in ``work``, None on a
    timeout, and its output lines."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    # a mutated snippet no longer occurs in the sources, so the catalogue
    # check would kill every mutant that names its module
    cmd = [sys.executable, "-m", "pytest", "-x", "-q",
           "-p", "no:cacheprovider", "--deselect", _CATALOGUE_TEST]
    cmd += [f"tests/{m}" for m in modules]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                              text=True, timeout=_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"timed out after {_TIMEOUT_S} s"]
    return proc.returncode, proc.stdout.splitlines() or [""]


def _run(mut: Mutant, work: Path) -> tuple[str, str]:
    """('killed', 'survived' or 'error', the first failing test or the
    output's last line) for one mutant applied in ``work``."""
    target = work / mut.path
    original = target.read_text()
    target.write_text(original.replace(mut.snippet, mut.replacement))
    try:
        code, lines = _pytest(work, mut.modules)
    finally:
        target.write_text(original)
    failed = [ln.split(" - ")[0][len("FAILED "):] for ln in lines
              if ln.startswith("FAILED ")]
    # pytest exits 1 when a test failed; 2-5 mean it could not run them
    outcome = {0: "survived", 1: "killed", None: "killed"}.get(code, "error")
    return outcome, failed[0] if failed else lines[-1]


def main() -> int:
    faults = catalogue_faults()
    for fault in faults:
        print(f"catalogue: {fault}")
    if faults:
        return 2
    outcomes = []
    with tempfile.TemporaryDirectory(prefix="szego-mutants-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests") + _ALSO_COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, work / name, ignore=skip)
            else:
                shutil.copy2(ROOT / name, work / name)
        modules = sorted({m for mut in CATALOGUE for m in mut.modules})
        code, lines = _pytest(work, modules)
        if code != 0:
            print(f"unmutated copy fails {', '.join(modules)}: {lines[-1]}")
            return 2
        for mut in CATALOGUE:
            start = time.perf_counter()
            outcome, detail = _run(mut, work)
            outcomes.append(outcome)
            print(f"{outcome:8} {time.perf_counter() - start:5.1f} s  "
                  f"{mut.name} ({mut.path}): {detail}", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(outcomes)} mutants killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
