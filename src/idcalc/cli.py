"""Command-line front end.

Subcommands: ``exponent`` (evaluate a measure's exponent on a grid),
``map`` (apply a mapping and evaluate), ``factor`` (compute the
background factor and verify the factorization), ``verify`` (run named
identity checks or the full matrix), ``simulate`` (sample a random
integral and test its ecf), ``levy-area`` (stochastic-area closed
forms).  Each one loads its input, calls one verifier or report builder
and writes that report; ``exponent`` is ``map`` without a mapping.

Exit codes: 0 success and all requested verifications pass, 2 input or
validation problem, 3 numerical failure (non-convergent quadrature or a
failed verification).  Reports are UTF-8 JSON validating against the
schema shipped with the package; CSV output is optional and plot-ready.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .core import _as_grid
from .errors import DomainError, IdcalcError, QuadratureError, ValidationError
from .families import load_measure
from .levyarea import AreaParams, nu_exponent, verify_levy_area
from .factorization import verify_prop1
from .reports import VerificationReport, exponent_report, validate_report
from .simulate import S_MAX, PathConfig, write_samples_csv
from .verify import IDENTITIES, INTEGRALS, MAPPINGS, mc_check, run_all, verify_identity

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _grid_from_args(args, dim: int) -> np.ndarray:
    if args.grid and dim != 1:
        raise ValidationError("--grid accepts scalars, available for 1-d measures")
    return _as_grid(args.grid, dim)


def _path_config(args) -> PathConfig:
    return PathConfig(step=args.mc_step, small_jump_cutoff=args.mc_cutoff)


def _write_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _y_cell(y: list):
    """A point's frequency as one CSV cell: the number on 1-d grids, else the vector."""
    return y[0] if len(y) == 1 else y


def _finish(reports: list[VerificationReport], out) -> int:
    """Validate, write and print the reports; exit 0 only if all passed."""
    docs = [r.to_dict() for r in reports]
    for doc in docs:
        validate_report(doc)
    if out:
        payload = docs[0] if len(docs) == 1 else {"reports": docs, "pass": all(d["pass"] for d in docs)}
        Path(out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    for r in reports:
        print(r.summary())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_NUMERICAL


def _add_measure_arg(p, required=True):
    p.add_argument("--measure", required=required, help="path to a measure-spec JSON file")


def _add_outputs(p, with_csv=True):
    p.add_argument("--grid", type=float, nargs="+", help="frequency grid (1-d measures)")
    p.add_argument("--out", help="write the JSON report here")
    if with_csv:
        p.add_argument("--csv", help="write plot-ready CSV here")


def _add_mc(p):
    p.add_argument("--mc.n", dest="mc_n", type=int, default=100_000,
                   help="Monte Carlo sample count (0 disables the MC layer)")
    p.add_argument("--mc.step", dest="mc_step", type=float, default=1e-3)
    p.add_argument("--mc.cutoff", dest="mc_cutoff", type=float, default=1e-3)
    p.add_argument("--mc.smax", dest="mc_smax", type=float, default=S_MAX)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="idcalc",
        description="calculus and Monte Carlo for infinitely divisible laws "
        "under random-integral mappings",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponent", help="evaluate a measure's exponent on a grid")
    _add_measure_arg(p)
    _add_outputs(p)
    p.set_defaults(mapping=None, beta=None)

    p = sub.add_parser("map", help="apply a mapping and evaluate the result")
    _add_measure_arg(p)
    p.add_argument("--mapping", choices=sorted(MAPPINGS), default="jbeta")
    p.add_argument("--beta", type=float, default=1.0)
    _add_outputs(p)

    p = sub.add_parser("factor", help="background factor and factorization check")
    _add_measure_arg(p)
    p.add_argument("--beta", type=float, default=1.0)
    _add_outputs(p)

    p = sub.add_parser("verify", help="run identity verifications")
    _add_measure_arg(p, required=False)
    p.add_argument("--identity", choices=sorted(IDENTITIES))
    p.add_argument("--all", action="store_true", help="full identity/beta matrix")
    # None marks an unset flag, which --all requires; --identity reads it as 1
    p.add_argument("--beta", type=float, help="mapping index (default 1)")
    p.add_argument("--u", type=float, help="conditioning time for levyarea (default 1)")
    _add_mc(p)
    _add_outputs(p, with_csv=False)

    p = sub.add_parser("simulate", help="sample a random integral, test its ecf")
    _add_measure_arg(p)
    p.add_argument("--integral", choices=sorted(INTEGRALS), default="jbeta")
    p.add_argument("--beta", type=float, default=1.0)
    _add_mc(p)
    _add_outputs(p)

    p = sub.add_parser("levy-area", help="stochastic-area closed forms and check")
    p.add_argument("--u", type=float, default=1.0)
    _add_outputs(p)

    return ap


def _cmd_map(args) -> int:
    mu = load_measure(args.measure)
    grid = _grid_from_args(args, mu.dim)
    mapped, beta, notes = mu, None, [f"measure {mu.label}"]
    if args.mapping is not None:
        beta = MAPPINGS[args.mapping].index(args.beta)
        mapped = MAPPINGS[args.mapping].law(mu, beta)
        notes.append(f"result {mapped.label}")
    report = exponent_report("exponent" if args.mapping is None else f"map:{args.mapping}",
                             mapped, grid, beta=beta, notes=notes)
    if args.csv:
        _write_csv(args.csv, ["y", "re", "im"],
                   [(_y_cell(p["y"]), p["re"], p["im"]) for p in report.points])
    return _finish([report], args.out)


def _cmd_factor(args) -> int:
    mu = load_measure(args.measure)
    grid = _grid_from_args(args, mu.dim)
    report = verify_prop1(mu, args.beta, grid)
    if args.csv:
        _write_csv(args.csv, ["y", "rho_re", "rho_im"],
                   [(_y_cell(p["y"]), *p["rho"]) for p in report.points])
    return _finish([report], args.out)


def _cmd_verify(args) -> int:
    mu = load_measure(args.measure) if args.measure else None
    cfg = _path_config(args)
    if args.all:
        for flag, value in (("--grid", args.grid), ("--beta", args.beta), ("--u", args.u)):
            if value is not None:
                raise ValidationError(
                    f"{flag} applies to --identity; --all runs on its own grids, betas and u"
                )
        reports = run_all(
            measure=mu, mc_cfg=cfg, mc_n=args.mc_n, mc_s_max=args.mc_smax, seed=args.seed
        )
    else:
        if not args.identity:
            raise ValidationError("verify needs --identity NAME or --all")
        # a row with its own check reads a 1-d grid (levyarea's t; cor5 reads none)
        dim = mu.dim if mu is not None and IDENTITIES[args.identity].run is None else 1
        reports = verify_identity(
            args.identity,
            measure=mu,
            beta=args.beta,
            grid=_grid_from_args(args, dim) if args.grid else None,
            mc_cfg=cfg,
            mc_n=args.mc_n,
            mc_s_max=args.mc_smax,
            seed=args.seed,
            u=args.u,
        )
    return _finish(reports, args.out)


def _cmd_simulate(args) -> int:
    mu = load_measure(args.measure)
    mapping = INTEGRALS[args.integral]
    beta = mapping.index(args.beta)
    spec = mapping.spec(beta, args.mc_smax)
    samples, report = mc_check(
        f"simulate:{args.integral}", mu, spec, mapping.law, beta, _grid_from_args(args, mu.dim),
        _path_config(args), max(args.mc_n, 2), args.seed,
        notes=[f"measure {mu.label}", f"target {spec.target}"],
    )
    if args.csv:
        write_samples_csv(args.csv, samples)
    return _finish([report], args.out)


def _cmd_levy_area(args) -> int:
    params = AreaParams(u=args.u)
    grid = _grid_from_args(args, 1)
    report = verify_levy_area(params, grid)
    if args.csv:
        _write_csv(
            args.csv, ["t", "background_exponent", "log_sinh_factor", "mapped", "abs_diff"],
            [(p["t"], bg, p["log_sinh_factor"][0], p["mapped"][0], p["abs_diff"])
             for p, bg in zip(report.points, nu_exponent(params, grid[:, 0]).real)],
        )
    return _finish([report], args.out)


_COMMANDS = {
    "exponent": _cmd_map,
    "map": _cmd_map,
    "factor": _cmd_factor,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "levy-area": _cmd_levy_area,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except QuadratureError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except IdcalcError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
