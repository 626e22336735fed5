"""One verifier per named identity, and the Monte Carlo report builder,
shared by the CLI and the test suite.

Identity names: lemma1c (commutation), lemma1d (convolution/power
homomorphism), lemma1e (double-map identity), prop1 (factorization),
cor1a (one-shot kernel for the twice-mapped class), cor1b (image round
trip), cor5 (spectral-measure factorization), prop2 (clocked
composition, quadrature pair plus Monte Carlo), cor3 (index-1 clocked
representation, Monte Carlo), levyarea (stochastic-area closed forms).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .core import IdMeasure, conv_power, convolve, default_grid
from .errors import ValidationError
from .factorization import verify_cor1b, verify_corollary5, verify_lemma1e, verify_prop1
from .families import gamma, gaussian, dirac, poisson
from .levyarea import AreaParams, verify_levy_area
from .mappings import corollary1a_kernel, i_map, i_of_j_beta, j_beta
from .reports import VerificationReport, grid_check
from .simulate import (
    Z_MAX,
    KernelIntegralSpec,
    PathConfig,
    cf_distance_test,
    clocked_integral_spec,
    ecf,
    sample_integral,
)

__all__ = [
    "IDENTITIES",
    "default_seed_measures",
    "sample_measure",
    "mc_report",
    "verify_identity",
    "run_all",
]

IDENTITIES = (
    "lemma1c",
    "lemma1d",
    "lemma1e",
    "prop1",
    "cor1a",
    "cor1b",
    "cor5",
    "prop2",
    "cor3",
    "levyarea",
)

BETA_SET = (0.5, 1.0, 2.0)
# pass thresholds on the largest absolute exponent difference
LEMMA1C_TOL = 1e-8
LEMMA1D_TOL = 1e-10
COR1A_TOL = 1e-8
PROP2_TOL = 1e-8


def default_seed_measures() -> dict[str, IdMeasure]:
    """The standard seed families used across verifications."""
    return {
        "gaussian": gaussian(var=1.0),
        "shift": dirac([1.0]),
        "poisson": poisson(rate=1.0, jump=2.0),
        "gamma": gamma(shape=1.0, rate=1.0),
    }


def sample_measure(
    measure: IdMeasure, spec: KernelIntegralSpec, cfg: PathConfig, n: int, seed: int
) -> np.ndarray:
    """Samples of a random integral driven by the Levy process of ``measure``."""
    if measure.triplet is None:
        raise ValidationError(f"{measure.label} has no triplet; cannot simulate")
    return sample_integral(measure.triplet, spec, cfg, n, seed)


def mc_report(
    identity: str,
    samples: np.ndarray,
    spec: KernelIntegralSpec,
    reference: IdMeasure,
    grid: np.ndarray,
    cfg: PathConfig,
    beta: float,
    seed: int,
    notes: Sequence[str] = (),
) -> VerificationReport:
    """Monte Carlo report: the ecf of ``samples`` tested against the
    reference exponent on the grid, one z-score per point."""
    est = ecf(samples, grid)
    # a deterministic seed law leaves no statistical band; judge those
    # points against the left-point discretization allowance instead
    det_band = 8.0 * cfg.step * (1.0 + float(np.abs(est.grid).max()))
    res = cf_distance_test(est, reference.exponent, det_tol=det_band)
    points = [
        {"y": [float(v) for v in y], "z": (None if not np.isfinite(z) else float(z))}
        for y, z in zip(est.grid, res.z_scores)
    ]
    return VerificationReport(
        identity=identity,
        grid_max_abs=res.max_z if np.isfinite(res.max_z) else float("inf"),
        passed=res.passed,
        beta=beta,
        tolerance=Z_MAX,
        metric="z_score",
        points=points,
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


def _clocked_mc(
    identity: str,
    mu: IdMeasure,
    beta: float,
    reference: IdMeasure,
    grid: np.ndarray,
    cfg: Optional[PathConfig],
    n: int,
    seed: int,
    s_max: float,
) -> VerificationReport:
    """Sample the clocked integral and test it against ``reference``."""
    cfg = cfg or PathConfig()
    spec = clocked_integral_spec(beta, s_max=s_max)
    samples = sample_measure(mu, spec, cfg, n, seed)
    return mc_report(
        identity, samples, spec, reference, grid, cfg, beta, seed,
        notes=[f"seed measure {mu.label}"],
    )


def verify_identity(
    name: str,
    measure: Optional[IdMeasure] = None,
    beta: float = 1.0,
    grid: Optional[np.ndarray] = None,
    mc_cfg: Optional[PathConfig] = None,
    mc_n: int = 100_000,
    mc_s_max: float = 20.0,
    seed: int = 0,
    u: float = 1.0,
) -> list[VerificationReport]:
    """Run one named identity check; returns one report per sub-check."""
    if name not in IDENTITIES:
        raise ValidationError(f"unknown identity {name!r}; choose from {IDENTITIES}")
    if name == "levyarea":
        return [verify_levy_area(AreaParams(u=u), grid)]
    if measure is None:
        raise ValidationError(f"identity {name!r} needs a measure")
    if grid is None:
        grid = default_grid(measure.dim)
    mu = measure

    if name == "lemma1c":
        worstr = []
        for b2 in BETA_SET:
            lhs = j_beta(j_beta(mu, beta), b2)
            rhs = j_beta(j_beta(mu, b2), beta)
            worstr.append(
                grid_check(
                    "lemma1c", lhs.exponent, rhs.exponent, grid, LEMMA1C_TOL, beta=beta,
                    notes=[f"second index {b2:g}", f"seed {mu.label}"],
                )
            )
        return worstr

    if name == "lemma1d":
        reports = []
        lhs = j_beta(convolve(mu, mu), beta)
        rhs = convolve(j_beta(mu, beta), j_beta(mu, beta))
        reports.append(
            grid_check(
                "lemma1d", lhs.exponent, rhs.exponent, grid, LEMMA1D_TOL, beta=beta,
                notes=["convolution homomorphism", f"seed {mu.label}"],
            )
        )
        for c in (0.5, 2.0):
            lhs = conv_power(j_beta(mu, beta), c)
            rhs = j_beta(conv_power(mu, c), beta)
            reports.append(
                grid_check(
                    "lemma1d", lhs.exponent, rhs.exponent, grid, LEMMA1D_TOL, beta=beta,
                    notes=[f"convolution power c={c:g}", f"seed {mu.label}"],
                )
            )
        return reports

    if name == "lemma1e":
        return [verify_lemma1e(mu, beta, grid)]

    if name == "prop1":
        return [verify_prop1(mu, beta, grid)]

    if name == "cor1a":
        lhs = corollary1a_kernel(mu, beta)
        rhs = j_beta(j_beta(mu, beta), 2.0 * beta)
        return [
            grid_check(
                "cor1a", lhs.exponent, rhs.exponent, grid, COR1A_TOL, beta=beta,
                notes=[f"seed {mu.label}"],
            )
        ]

    if name == "cor1b":
        return [verify_cor1b(mu, beta, grid)]

    if name == "cor5":
        if measure.triplet is None:
            raise ValidationError("cor5 needs a measure with a spectral part")
        return [verify_corollary5(measure.triplet.M, beta)]

    if name == "prop2":
        two_stage = i_map(j_beta(mu, beta))
        one_shot = i_of_j_beta(mu, beta)
        reports = [
            grid_check(
                "prop2", two_stage.exponent, one_shot.exponent, grid, PROP2_TOL, beta=beta,
                notes=["two-stage vs clocked quadrature", f"seed {mu.label}"],
            )
        ]
        if mc_n > 0:
            reports.append(
                _clocked_mc("prop2", mu, beta, one_shot, grid, mc_cfg, mc_n, seed, mc_s_max)
            )
        return reports

    if name == "cor3":
        reference = i_map(j_beta(mu, 1.0))
        return [_clocked_mc("cor3", mu, 1.0, reference, grid, mc_cfg, mc_n, seed, mc_s_max)]

    raise AssertionError(f"unhandled identity {name}")


def run_all(
    measure: Optional[IdMeasure] = None,
    mc_cfg: Optional[PathConfig] = None,
    mc_n: int = 100_000,
    seed: int = 0,
    mc_s_max: float = 20.0,
) -> list[VerificationReport]:
    """Full verification matrix: the identity list crossed with the beta
    set, over the given measure or the default seed families.  ``mc_s_max``
    is the clock horizon of the prop2 and cor3 Monte Carlo layers."""
    seeds = {"measure": measure} if measure is not None else default_seed_measures()
    reports: list[VerificationReport] = []
    for fam, mu in seeds.items():
        for beta in BETA_SET:
            for name in ("lemma1c", "lemma1d", "lemma1e", "prop1", "cor1a", "cor1b"):
                reports.extend(
                    verify_identity(name, mu, beta=beta, mc_n=0, seed=seed)
                )
            reports.extend(
                verify_identity(
                    "prop2", mu, beta=beta, mc_cfg=mc_cfg, mc_n=mc_n,
                    mc_s_max=mc_s_max, seed=seed,
                )
            )
        if mu.triplet is not None and not mu.triplet.M.is_empty:
            for beta in (1.0, 2.0):
                reports.extend(verify_identity("cor5", mu, beta=beta))
        if mc_n > 0 and fam in ("gamma", "poisson"):
            reports.extend(
                verify_identity(
                    "cor3", mu, mc_cfg=mc_cfg, mc_n=mc_n, mc_s_max=mc_s_max, seed=seed
                )
            )
    reports.extend(verify_identity("levyarea", u=1.0))
    return reports
