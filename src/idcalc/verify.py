"""The identity table, its Monte Carlo route and the full matrix, shared
by the CLI and the test suite.

Identity names: lemma1c (commutation), lemma1d (convolution/power
homomorphism), lemma1e (double-map identity), prop1 (factorization),
cor1a (one-shot kernel for the twice-mapped class), cor1b (image round
trip), cor5 (spectral-measure factorization), prop2 (clocked
composition, quadrature pair plus Monte Carlo), cor3 (index-1 clocked
representation, Monte Carlo), levyarea (stochastic-area closed forms).
Each is one :class:`idcalc.reports.Identity` row of ``IDENTITIES``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .core import IdMeasure, conv_power, convolve, default_grid
from .errors import ValidationError
from .factorization import COR1B, LEMMA1E, PROP1, verify_corollary5
from .families import gamma, gaussian, dirac, poisson
from .levyarea import AreaParams, verify_levy_area
from .mappings import corollary1a_kernel, i_map, i_of_j_beta, j_beta, j_beta_inverse
from .reports import Identity, VerificationReport, to_points
from .simulate import (
    Z_MAX,
    KernelIntegralSpec,
    PathConfig,
    cf_distance_test,
    clocked_integral_spec,
    cor1a_integral_spec,
    ecf,
    imap_integral_spec,
    jbeta_integral_spec,
    sample_integral,
)

__all__ = [
    "IDENTITIES",
    "MAPPINGS",
    "INTEGRALS",
    "default_seed_measures",
    "mc_check",
    "verify_identity",
    "run_all",
]

BETA_SET = (0.5, 1.0, 2.0)

# each mapping by name: its law (mu, beta) -> measure, and the random
# integral with that law, as its name and sampling spec (beta, s_max) ->
# KernelIntegralSpec; a law looks its mapping up when called, so a
# wrapper put on the module's name is seen
MAPPINGS = {
    "jbeta": (lambda mu, b: j_beta(mu, b), "jbeta", lambda b, s_max: jbeta_integral_spec(b)),
    "jbeta-inv": (lambda mu, b: j_beta_inverse(mu, b), None, None),
    "imap": (lambda mu, b: i_map(mu), "imap", lambda b, s_max: imap_integral_spec(s_max)),
    "i-of-jbeta": (lambda mu, b: i_of_j_beta(mu, b), "clocked", clocked_integral_spec),
    "cor1a": (lambda mu, b: corollary1a_kernel(mu, b), "cor1a",
              lambda b, s_max: cor1a_integral_spec(b)),
}
# each random integral by name: (sampling spec, law)
INTEGRALS = {name: (spec, law) for law, name, spec in MAPPINGS.values() if name}


def _cor5(mu, beta, grid, u) -> VerificationReport:
    if mu is None or mu.triplet is None:
        raise ValidationError("cor5 needs a measure with a spectral part")
    return verify_corollary5(mu.triplet.M, beta)


_ROWS = (
    Identity("lemma1c", 1e-8, lambda mu, b: [
        (j_beta(j_beta(mu, b), b2), j_beta(j_beta(mu, b2), b),
         [f"second index {b2:g}", f"seed {mu.label}"])
        for b2 in BETA_SET
    ]),
    Identity("lemma1d", 1e-10, lambda mu, b: [
        (j_beta(convolve(mu, mu), b), convolve(j_beta(mu, b), j_beta(mu, b)),
         ["convolution homomorphism", f"seed {mu.label}"]),
        *((conv_power(j_beta(mu, b), c), j_beta(conv_power(mu, c), b),
           [f"convolution power c={c:g}", f"seed {mu.label}"]) for c in (0.5, 2.0)),
    ]),
    LEMMA1E,
    PROP1,
    Identity("cor1a", 1e-8, lambda mu, b: [
        (corollary1a_kernel(mu, b), j_beta(j_beta(mu, b), 2.0 * b), [f"seed {mu.label}"]),
    ]),
    COR1B,
    Identity("cor5", reads=(), run=_cor5),
    Identity("prop2", 1e-8, lambda mu, b: [
        (i_map(j_beta(mu, b)), i_of_j_beta(mu, b),
         ["two-stage vs clocked quadrature", f"seed {mu.label}"]),
    ], mc=("clocked", lambda mu, b: i_of_j_beta(mu, b))),
    Identity("cor3", mc=("clocked", lambda mu, b: i_map(j_beta(mu, b))), index=1.0),
    Identity("levyarea", index=1.0, reads=("grid", "u"), run=lambda mu, beta, grid, u:
             verify_levy_area(AreaParams(u=1.0 if u is None else u), grid)),
)
IDENTITIES = {row.name: row for row in _ROWS}


def default_seed_measures() -> dict[str, IdMeasure]:
    """The standard seed families used across verifications."""
    return {
        "gaussian": gaussian(var=1.0),
        "shift": dirac([1.0]),
        "poisson": poisson(rate=1.0, jump=2.0),
        "gamma": gamma(shape=1.0, rate=1.0),
    }


def mc_check(
    identity: str,
    measure: IdMeasure,
    spec: KernelIntegralSpec,
    law: Callable[[IdMeasure, float], IdMeasure],
    beta: float,
    grid: np.ndarray,
    cfg: PathConfig,
    n: int,
    seed: int,
    notes: Sequence[str] = (),
) -> tuple[np.ndarray, VerificationReport]:
    """Samples of the random integral ``spec`` driven by the Levy process
    of ``measure``, and their Monte Carlo report: the samples' ecf tested
    against the exponent of ``law(measure, beta)`` on the grid, one
    z-score per point."""
    if measure.triplet is None:
        raise ValidationError(f"{measure.label} has no triplet; cannot simulate")
    samples = sample_integral(measure.triplet, spec, cfg, n, seed)
    est = ecf(samples, grid)
    # a deterministic seed law leaves no statistical band; judge those
    # points against the left-point discretization allowance instead
    det_band = 8.0 * cfg.step * (1.0 + float(np.abs(est.grid).max()))
    res = cf_distance_test(est, law(measure, beta).exponent, det_tol=det_band)
    z = [float(v) if np.isfinite(v) else None for v in res.z_scores]
    return samples, VerificationReport(
        identity=identity,
        grid_max_abs=res.max_z if np.isfinite(res.max_z) else float("inf"),
        passed=res.passed,
        beta=beta,
        tolerance=Z_MAX,
        metric="z_score",
        points=to_points({"y": est.grid, "z": z}),
        notes=[f"monte carlo, status={res.status}", *notes],
        extra={
            "n_samples": est.n_samples,
            "seed": seed,
            "step": cfg.step,
            "s_max": spec.s_max,
            "status": res.status,
            "frac_above_2": res.frac_above_2,
        },
    )


def verify_identity(
    name: str,
    measure: Optional[IdMeasure] = None,
    beta: Optional[float] = None,
    grid: Optional[np.ndarray] = None,
    mc_cfg: Optional[PathConfig] = None,
    mc_n: int = 100_000,
    mc_s_max: float = 20.0,
    seed: int = 0,
    u: Optional[float] = None,
) -> list[VerificationReport]:
    """Run one named identity check; returns one report per sub-check.
    ``beta`` and ``u`` default to 1; a row refuses a ``beta`` when it fixes
    its index, and a ``grid`` or ``u`` it does not read."""
    row = IDENTITIES.get(name)
    if row is None:
        raise ValidationError(f"unknown identity {name!r}; choose from {tuple(IDENTITIES)}")
    if beta is not None and row.index is not None:
        raise ValidationError(f"{name} runs at index {row.index:g}; it reads no --beta")
    for flag, value in (("grid", grid), ("u", u)):
        if value is not None and flag not in row.reads:
            raise ValidationError(f"{name} reads no --{flag}")
    if beta is None:
        beta = 1.0 if row.index is None else row.index
    if row.run is not None:
        return [row.run(measure, beta, grid, u)]
    if measure is None:
        raise ValidationError(f"identity {name!r} needs a measure")
    if row.checks is None and mc_n <= 0:
        raise ValidationError(f"{name}'s only route is Monte Carlo, so --mc.n must be > 0")
    grid = np.asarray(default_grid(measure.dim) if grid is None else grid, dtype=float)
    grid = grid.reshape(-1, measure.dim)
    reports = row(measure, beta, grid) if row.checks is not None else []
    if row.mc is not None and mc_n > 0:
        integral, law = row.mc
        spec = INTEGRALS[integral][0](beta, mc_s_max)
        reports.append(mc_check(
            name, measure, spec, law, beta, grid, mc_cfg or PathConfig(), mc_n, seed,
            notes=[f"seed measure {measure.label}"],
        )[1])
    return reports


def run_all(
    measure: Optional[IdMeasure] = None,
    mc_cfg: Optional[PathConfig] = None,
    mc_n: int = 100_000,
    seed: int = 0,
    mc_s_max: float = 20.0,
) -> list[VerificationReport]:
    """Full verification matrix: the table's grid identities crossed with
    the beta set, over the given measure or the default seed families.  ``mc_s_max``
    is the clock horizon of the prop2 and cor3 Monte Carlo layers."""
    seeds = {"measure": measure} if measure is not None else default_seed_measures()
    mc = dict(mc_cfg=mc_cfg, mc_n=mc_n, mc_s_max=mc_s_max, seed=seed)
    reports: list[VerificationReport] = []
    for fam, mu in seeds.items():
        for beta in BETA_SET:
            for name, row in IDENTITIES.items():
                if row.checks is not None:
                    reports.extend(verify_identity(name, mu, beta=beta, **mc))
        if mu.triplet is not None and not mu.triplet.M.is_empty:
            for beta in (1.0, 2.0):
                reports.extend(verify_identity("cor5", mu, beta=beta))
        if mc_n > 0 and fam in ("gamma", "poisson"):
            reports.extend(verify_identity("cor3", mu, **mc))
    reports.extend(verify_identity("levyarea", u=1.0))
    return reports
