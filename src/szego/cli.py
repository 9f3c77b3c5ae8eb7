"""Command line front end.

Subcommands map one-to-one onto the library's main entry points: section
zeros, radial measures, coefficient bound reports, window gauge estimates,
Monte Carlo ensembles, and the universal construction. All structured
output is JSON (or CSV where a flat table is natural) and embeds the
resolved configuration plus the package version, so runs can be diffed.
Exit codes: 0 on success, 1 for domain errors including bad arguments,
2 when a computation fails to converge or verify.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from itertools import groupby

import numpy as np

from . import __version__
from .bounds import bounds_report
from .ensembles import as_ensemble, check_conditions, mc_expected_cdf
from .exceptions import (CoefficientOverflowError, ConvergenceError,
                         DomainError, VerificationError)
from .gauge import gauge_and_index
from .measures import _check_radii, counting_fn, radial_projection
from .roots import find_zeros
from .series import _integer, parse_family, section
from .universal import build_universal, cycle_targets, parse_targets


#: upper limits on the size options, checked before any work starts; each
#: sits far above every size in the README, the demos and the tests
_LIMITS = {"n": 2 ** 16, "horizon": 2 ** 22, "trials": 10 ** 5}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through DomainError
    # so the documented exit code mapping holds
    def error(self, message):
        raise DomainError(message)


def _numbers(text: str, parse=float) -> list:
    try:
        values = [parse(x) for x in text.split(",") if x.strip() != ""]
    except DomainError:
        raise
    except ValueError:
        values = []
    if not values:
        raise DomainError(f"expected comma separated numbers, got {text!r}")
    return values


def _open_out(out: str | None):
    """The ``--out`` file, truncated before any work like a shell ``>``."""
    if not out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w")
    except OSError as exc:
        raise DomainError(f"cannot write --out {out!r}: "
                          f"{exc.strerror or exc}") from None


def _json_doc(config: dict, payload: dict) -> str:
    doc = {"version": __version__, "config": config}
    doc.update(payload)
    return json.dumps(doc, indent=2)


def _check_limits(args) -> None:
    for name, limit in _LIMITS.items():
        value = getattr(args, name, None)
        if value is not None and value > limit:
            raise DomainError(f"--{name} {value} exceeds the limit {limit}")


def _cmd_zeros(args) -> str:
    Z = find_zeros(section(parse_family(args.family), args.n))
    if args.format == "csv":
        lines = ["re,im,multiplicity"]
        for z, grp in groupby(Z.finite_zeros):
            mult = sum(1 for _ in grp)
            lines.append(f"{z.real:.17g},{z.imag:.17g},{mult}")
        lines.append(f"# infinity_count: {Z.infinity_count}")
        return "\n".join(lines) + "\n"
    payload = {
        "finite_zeros": [[z.real, z.imag] for z in Z.finite_zeros],
        "infinity_count": Z.infinity_count,
        "formal_degree": Z.formal_degree,
    }
    config = {"command": "zeros", "family": args.family, "n": args.n}
    return _json_doc(config, payload)


def _cmd_measure(args) -> str:
    # checked before the solve, by the rule counting_fn applies
    ts = _check_radii(_numbers(args.t_grid)).tolist() if args.t_grid else []
    Z = find_zeros(section(parse_family(args.family), args.n))
    mu = radial_projection(Z)
    payload = {
        "radii": [float(r) for r in mu.radii],
        "weights": [float(w) for w in mu.weights],
        "infinity_mass": mu.infinity_mass,
    }
    if ts:
        payload["t_grid"] = ts
        payload["counting_fn"] = counting_fn(Z, ts).tolist()
    config = {"command": "measure", "family": args.family, "n": args.n}
    return _json_doc(config, payload)


def _cmd_bounds(args) -> str:
    report = bounds_report(section(parse_family(args.family), args.n))
    config = {"command": "bounds", "family": args.family, "n": args.n}
    return _json_doc(config, report.to_dict())


def _cmd_gauge(args) -> str:
    stream = parse_family(args.family)
    grid = _numbers(args.grid) if args.grid else None
    report = gauge_and_index(stream, gamma_grid=grid, N=args.horizon)
    config = {"command": "gauge", "family": args.family,
              "horizon": args.horizon}
    return _json_doc(config, report.to_dict())


def _cmd_random(args) -> str:
    E = as_ensemble(args.ensemble)
    ts = _numbers(args.t_grid) if args.t_grid else [0.5, 0.9, 0.99, 1.01, 1.1, 2.0]
    orders = _numbers(args.weyl_orders, _integer) if args.weyl_orders else []
    if orders and args.format == "csv":
        # the CSV table has one row per t and no column for the Weyl sums
        raise DomainError("--weyl-orders needs --format json")
    report = mc_expected_cdf(E, args.n, ts, args.trials, args.seed,
                             weyl_orders=orders, workers=args.workers)
    payload = report.to_dict()
    payload["conditions"] = dataclasses.asdict(check_conditions(E))
    config = {"command": "random", "ensemble": E.descriptor(), "n": args.n,
              "trials": args.trials, "seed": args.seed,
              "workers": args.workers}
    if args.format == "csv":
        lines = ["t,phi_hat,stderr"]
        for t, p, s in zip(report.t_grid, report.phi_hat, report.stderr):
            lines.append(f"{t:.17g},{p:.17g},{s:.17g}")
        return "\n".join(lines) + "\n"
    return _json_doc(config, payload)


def _cmd_universal(args) -> str:
    targets = parse_targets(args.targets)
    if args.steps is not None:
        targets = cycle_targets(targets, args.steps)
    state, reports = build_universal(targets, verify=not args.no_verify)
    payload = {
        "steps": [r.to_dict() for r in reports],
        "final_section_index": state.d,
        "final_degree": int(np.flatnonzero(state.P.coeffs)[-1]),
    }
    config = {"command": "universal", "targets": args.targets,
              "steps": len(targets), "verify": not args.no_verify}
    return _json_doc(config, payload)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="szego", description=__doc__.split("\n")[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, family=True):
        if family:
            sp.add_argument("--family", required=True,
                            help="series family, e.g. lacunary:2 or geometric")
        sp.add_argument("--out", default=None, help="write output to a file")

    sp = sub.add_parser("zeros", help="zeros of one polynomial section")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.set_defaults(func=_cmd_zeros)

    sp = sub.add_parser("measure", help="radial zero measure of a section")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t-grid", default=None)
    sp.set_defaults(func=_cmd_measure)

    sp = sub.add_parser("bounds", help="coefficient bound report for a section")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("gauge", help="window gauge and index estimates")
    common(sp)
    sp.add_argument("--horizon", type=int, default=1024)
    sp.add_argument("--grid", default=None,
                    help="comma separated gamma grid")
    sp.set_defaults(func=_cmd_gauge)

    sp = sub.add_parser("random", help="Monte Carlo zero statistics")
    common(sp, family=False)
    sp.add_argument("--ensemble", required=True,
                    help="e.g. gaussian_complex or bernoulli(0.5)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--t-grid", default=None)
    sp.add_argument("--weyl-orders", default=None)
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_random)

    sp = sub.add_parser("universal", help="run the universal construction")
    common(sp, family=False)
    sp.add_argument("--targets", required=True,
                    help='JSON list of radius lists, e.g. [["3/2","2"]]')
    sp.add_argument("--steps", type=int, default=None,
                    help="cycle the targets to this many steps")
    sp.add_argument("--no-verify", action="store_true")
    sp.set_defaults(func=_cmd_universal)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_limits(args)
        with _open_out(args.out) as fh:
            text = args.func(args)
            fh.write(text if args.out or text.endswith("\n") else text + "\n")
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, VerificationError, CoefficientOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
