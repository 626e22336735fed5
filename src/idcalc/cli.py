"""Command-line front end.

Subcommands: ``exponent`` (evaluate a measure's exponent on a grid),
``map`` (apply a mapping and evaluate), ``factor`` (compute the
background factor and verify the factorization), ``verify`` (run named
identity checks or the full matrix), ``simulate`` (sample a random
integral and test its ecf), ``levy-area`` (stochastic-area closed
forms).

Exit codes: 0 success and all requested verifications pass, 2 input or
validation problem, 3 numerical failure (non-convergent quadrature or a
failed verification).  Reports are UTF-8 JSON validating against the
schema shipped with the package; CSV output is optional and plot-ready.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .core import default_grid
from .errors import DomainError, IdcalcError, QuadratureError, ValidationError
from .families import load_measure
from .levyarea import AreaParams, area_csv_rows, verify_levy_area
from .mappings import corollary1a_kernel, i_map, i_of_j_beta, j_beta, j_beta_inverse
from .factorization import factor_rho, verify_prop1
from .reports import VerificationReport, validate_report
from .simulate import (
    PathConfig,
    cf_distance_test,
    clocked_integral_spec,
    cor1a_integral_spec,
    ecf,
    imap_integral_spec,
    jbeta_integral_spec,
    sample_integral,
    write_samples_csv,
)
from .verify import IDENTITIES, run_all, verify_identity

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_MAPPINGS = {
    "jbeta": lambda mu, b: j_beta(mu, b),
    "jbeta-inv": lambda mu, b: j_beta_inverse(mu, b),
    "imap": lambda mu, b: i_map(mu),
    "i-of-jbeta": lambda mu, b: i_of_j_beta(mu, b),
    "cor1a": lambda mu, b: corollary1a_kernel(mu, b),
}

_INTEGRALS = {
    "jbeta": lambda b, s_max: jbeta_integral_spec(b),
    "imap": lambda b, s_max: imap_integral_spec(s_max),
    "clocked": lambda b, s_max: clocked_integral_spec(b, s_max),
    "cor1a": lambda b, s_max: cor1a_integral_spec(b),
}


def _grid_from_args(args, dim: int) -> np.ndarray:
    if getattr(args, "grid", None):
        if dim != 1:
            raise ValidationError("--grid accepts scalars, available for 1-d measures")
        return np.asarray(args.grid, dtype=float).reshape(-1, 1)
    return default_grid(dim)


def _path_config(args) -> PathConfig:
    return PathConfig(
        step=args.mc_step,
        horizon=args.mc_horizon,
        small_jump_cutoff=args.mc_cutoff,
        gaussian_correction=not args.mc_no_correction,
    )


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _emit_reports(reports: list[VerificationReport], out) -> None:
    docs = [r.to_dict() for r in reports]
    for doc in docs:
        validate_report(doc)
    if out:
        payload = docs[0] if len(docs) == 1 else {"reports": docs, "pass": all(d["pass"] for d in docs)}
        _write_json(out, payload)
    for r in reports:
        print(r.summary())


def _add_measure_arg(p, required=True):
    p.add_argument("--measure", required=required, help="path to a measure-spec JSON file")


def _add_common(p):
    p.add_argument("--grid", type=float, nargs="+", help="frequency grid (1-d measures)")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--csv", help="write plot-ready CSV here")


def _add_mc(p):
    p.add_argument("--mc.n", dest="mc_n", type=int, default=100_000,
                   help="Monte Carlo sample count (0 disables the MC layer)")
    p.add_argument("--mc.step", dest="mc_step", type=float, default=1e-3)
    p.add_argument("--mc.horizon", dest="mc_horizon", type=float, default=1.0)
    p.add_argument("--mc.cutoff", dest="mc_cutoff", type=float, default=1e-3)
    p.add_argument("--mc.smax", dest="mc_smax", type=float, default=20.0)
    p.add_argument("--mc.no-correction", dest="mc_no_correction", action="store_true",
                   help="disable the small-jump Gaussian correction")
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
    _add_common(p)

    p = sub.add_parser("map", help="apply a mapping and evaluate the result")
    _add_measure_arg(p)
    p.add_argument("--mapping", choices=sorted(_MAPPINGS), default="jbeta")
    p.add_argument("--beta", type=float, default=1.0)
    _add_common(p)

    p = sub.add_parser("factor", help="background factor and factorization check")
    _add_measure_arg(p)
    p.add_argument("--beta", type=float, default=1.0)
    _add_common(p)

    p = sub.add_parser("verify", help="run identity verifications")
    _add_measure_arg(p, required=False)
    p.add_argument("--identity", choices=sorted(IDENTITIES))
    p.add_argument("--all", action="store_true", help="full identity/beta matrix")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--u", type=float, default=1.0, help="conditioning time for levyarea")
    _add_mc(p)
    _add_common(p)

    p = sub.add_parser("simulate", help="sample a random integral, test its ecf")
    _add_measure_arg(p)
    p.add_argument("--integral", choices=sorted(_INTEGRALS), default="jbeta")
    p.add_argument("--beta", type=float, default=1.0)
    _add_mc(p)
    _add_common(p)

    p = sub.add_parser("levy-area", help="stochastic-area closed forms and check")
    p.add_argument("--u", type=float, default=1.0)
    _add_common(p)

    return ap


def _exponent_points(exponent, grid: np.ndarray) -> list:
    """Report points of an exponent evaluated on the grid as one batch."""
    return [
        {"y": [float(v) for v in y], "re": float(z.real), "im": float(z.imag)}
        for y, z in zip(grid, exponent(grid))
    ]


def _cmd_exponent(args) -> int:
    mu = load_measure(args.measure)
    grid = _grid_from_args(args, mu.dim)
    points = _exponent_points(mu.exponent, grid)
    report = VerificationReport(
        identity="exponent",
        grid_max_abs=0.0,
        passed=True,
        tolerance=None,
        points=points,
        notes=[f"measure {mu.label}"],
    )
    _emit_reports([report], args.out)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["y", "re", "im"])
            for p in points:
                w.writerow([p["y"][0] if len(p["y"]) == 1 else p["y"], p["re"], p["im"]])
    return EXIT_OK


def _cmd_map(args) -> int:
    mu = load_measure(args.measure)
    mapped = _MAPPINGS[args.mapping](mu, args.beta)
    grid = _grid_from_args(args, mu.dim)
    points = _exponent_points(mapped.exponent, grid)
    report = VerificationReport(
        identity=f"map:{args.mapping}",
        grid_max_abs=0.0,
        passed=True,
        beta=args.beta if args.mapping != "imap" else None,
        points=points,
        notes=[f"measure {mu.label}", f"result {mapped.label}"],
    )
    _emit_reports([report], args.out)
    return EXIT_OK


def _cmd_factor(args) -> int:
    mu = load_measure(args.measure)
    grid = _grid_from_args(args, mu.dim)
    rho = factor_rho(mu, args.beta)
    report = verify_prop1(mu, args.beta, grid)
    report.notes.append(f"factor {rho.label}")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["y", "rho_re", "rho_im"])
            for y, z in zip(grid, rho.exponent(grid)):
                w.writerow([y[0] if len(y) == 1 else list(y), z.real, z.imag])
    _emit_reports([report], args.out)
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def _cmd_verify(args) -> int:
    mu = load_measure(args.measure) if args.measure else None
    cfg = _path_config(args)
    if args.all:
        reports = run_all(measure=mu, mc_cfg=cfg, mc_n=args.mc_n, seed=args.seed)
    else:
        if not args.identity:
            raise ValidationError("verify needs --identity NAME or --all")
        grid = _grid_from_args(args, mu.dim) if mu is not None else None
        reports = verify_identity(
            args.identity,
            measure=mu,
            beta=args.beta,
            grid=grid,
            mc_cfg=cfg,
            mc_n=args.mc_n,
            mc_s_max=args.mc_smax,
            seed=args.seed,
            u=args.u,
        )
    _emit_reports(reports, args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_NUMERICAL


def _cmd_simulate(args) -> int:
    mu = load_measure(args.measure)
    if mu.triplet is None:
        raise ValidationError(f"{mu.label} has no triplet; cannot simulate")
    cfg = _path_config(args)
    spec = _INTEGRALS[args.integral](args.beta, args.mc_smax)
    n = max(args.mc_n, 2)
    samples = sample_integral(mu.triplet, spec, cfg, n, args.seed)
    if args.csv:
        write_samples_csv(args.csv, samples)
    reference = {
        "jbeta": lambda: j_beta(mu, args.beta),
        "imap": lambda: i_map(mu),
        "clocked": lambda: i_of_j_beta(mu, args.beta),
        "cor1a": lambda: corollary1a_kernel(mu, args.beta),
    }[args.integral]()
    grid = _grid_from_args(args, mu.dim)
    est = ecf(samples, grid)
    det_band = 8.0 * cfg.step * (1.0 + float(np.abs(grid).max()))
    res = cf_distance_test(est, reference.exponent, det_tol=det_band)
    report = VerificationReport(
        identity=f"simulate:{args.integral}",
        grid_max_abs=res.max_z if np.isfinite(res.max_z) else float("inf"),
        passed=res.passed,
        beta=args.beta,
        tolerance=4.0,
        metric="z_score",
        points=[
            {"y": [float(v) for v in y], "z": None if not np.isfinite(z) else float(z)}
            for y, z in zip(grid, res.z_scores)
        ],
        notes=[f"status={res.status}", f"measure {mu.label}", f"target {spec.target}"],
        extra={"n_samples": n, "seed": args.seed, "step": cfg.step},
    )
    _emit_reports([report], args.out)
    return EXIT_OK if res.passed else EXIT_NUMERICAL


def _cmd_levy_area(args) -> int:
    params = AreaParams(u=args.u)
    report = verify_levy_area(params)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "background_exponent", "log_sinh_factor", "mapped", "abs_diff"])
            for row in area_csv_rows(params):
                w.writerow(row)
    _emit_reports([report], args.out)
    return EXIT_OK if report.passed else EXIT_NUMERICAL


_COMMANDS = {
    "exponent": _cmd_exponent,
    "map": _cmd_map,
    "factor": _cmd_factor,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "levy-area": _cmd_levy_area,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
