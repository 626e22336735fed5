"""Factorization of the mapped classes and its verification.

The central fact: the mapped law ``j_beta(nu)`` factors as
``j_beta(rho) * rho`` (convolution) for exactly one background measure
``rho``, namely ``rho = j_beta(conv_power(nu, 1/2), 2*beta)``, and that
``rho`` always lies in the image of the index-``2*beta`` mapping.  The
verifiers here check the factorization on exponent grids, the companion
algebraic identity

    J^{2b}( J^b(rho) * rho ) = J^b( rho^{*2} ),

a round trip certifying the image characterization, and the same
factorization restated at the level of spectral measures on radial
test intervals.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .core import IdMeasure, SpectralMeasure, conv_power, convolve, default_grid
from .mappings import check_beta, j_beta, j_beta_inverse, smear_spectral
from .reports import VerificationReport, grid_check

__all__ = [
    "factor_rho",
    "verify_prop1",
    "verify_lemma1e",
    "verify_cor1b",
    "verify_corollary5",
    "dyadic_mesh",
]

S_SELFDEC_NOTE = "beta=1: s-selfdecomposable case"
# pass thresholds of the verifiers on their worst absolute difference
PROP1_TOL = 1e-8
LEMMA1E_TOL = 1e-8
COR1B_TOL = 1e-7
COR5_TOL = 1e-6


def factor_rho(nu: IdMeasure, beta: float) -> IdMeasure:
    """Background factor of ``j_beta(nu)``: the half convolution power of
    ``nu`` pushed through the index-``2*beta`` mapping."""
    b = check_beta(beta)
    return replace(j_beta(conv_power(nu, 0.5), 2.0 * b), label=f"rho[{b:g}]({nu.label})")


def verify_prop1(
    nu: IdMeasure,
    beta: float,
    grid: Optional[np.ndarray] = None,
) -> VerificationReport:
    """Check ``j_beta(rho) * rho = j_beta(nu)`` for the constructed factor.

    Each point also records the factor's exponent as ``rho``.
    """
    b = check_beta(beta)
    if grid is None:
        grid = default_grid(nu.dim)
    grid = np.asarray(grid, dtype=float).reshape(-1, nu.dim)
    rho = factor_rho(nu, b)
    rho_vals = rho.exponent(grid)
    lhs = j_beta(rho, b).exponent(grid) + rho_vals
    notes = [f"factor {rho.label} of {nu.label}"]
    if b == 1.0:
        notes.append(S_SELFDEC_NOTE)
    report = grid_check("prop1", lhs, j_beta(nu, b).exponent, grid, PROP1_TOL, beta=b, notes=notes)
    for pt, z in zip(report.points, rho_vals):
        pt["rho"] = [float(z.real), float(z.imag)]
    return report


def verify_lemma1e(
    rho: IdMeasure,
    beta: float,
    grid: Optional[np.ndarray] = None,
) -> VerificationReport:
    """Check ``J^{2b}(J^b(rho) * rho) = J^b(rho^{*2})`` on the grid."""
    b = check_beta(beta)
    if grid is None:
        grid = default_grid(rho.dim)
    lhs = j_beta(convolve(j_beta(rho, b), rho), 2.0 * b)
    rhs = j_beta(conv_power(rho, 2.0), b)
    notes = [f"seed {rho.label}"]
    if b == 1.0:
        notes.append(S_SELFDEC_NOTE)
    return grid_check("lemma1e", lhs.exponent, rhs.exponent, grid, LEMMA1E_TOL, beta=b, notes=notes)


def verify_cor1b(
    seed: IdMeasure,
    beta: float,
    grid: Optional[np.ndarray] = None,
) -> VerificationReport:
    """Forward image check: for ``rho`` in the index-``2b`` image,
    ``j_beta(rho) * rho`` lies in the index-``b`` image.

    Certified by inverting the mapping on the convolution and mapping
    back; the round trip must reproduce the exponent.
    """
    b = check_beta(beta)
    if grid is None:
        grid = default_grid(seed.dim)
    grid = np.asarray(grid, dtype=float).reshape(-1, seed.dim)
    rho = j_beta(seed, 2.0 * b)
    mu = convolve(j_beta(rho, b), rho)
    back = j_beta(j_beta_inverse(mu, b), b)
    # back first: its large batches commit rho's rays, which mu's small
    # reads then answer from the fits instead of reading rho directly
    back_vals = back.exponent(grid)
    notes = [f"seed {seed.label}"]
    return grid_check("cor1b", mu.exponent(grid), back_vals, grid, COR1B_TOL, beta=b, notes=notes)


# ---------------------------------------------------------------------------
# measure-level factorization on radial test sets
# ---------------------------------------------------------------------------


def dyadic_mesh(k_lo: int = -3, k_hi: int = 6) -> list[tuple[float, float]]:
    """Radial intervals ``(2^-k, 2^-k+1]`` for k in [k_lo, k_hi]."""
    return [(2.0**-k, 2.0 ** (-k + 1)) for k in range(k_lo, k_hi + 1)]


def smeared_interval_mass(M: SpectralMeasure, beta: float, ray: int, r1, r2):
    """Mass the mapped measure puts on ``(r1, r2]`` of one ray; arrays of
    ends give the masses of all the intervals at once.

    The mapped measure is ``A -> int_0^1 M(t^(-1/beta) A) dt``.  A radius
    ``s`` of ``M`` lies above ``r`` after the map for the ``t`` in
    ``((r/s)^beta, 1)``; integrating over ``t`` first leaves

        M((r1, r2]) + T(r2) - T(r1),   T(r) = r^beta int_(r,inf) s^(-beta) M(ds),

    weighted ray integrals of ``M`` itself (no closed-form smearing
    involved).
    """
    b = check_beta(beta)
    ends = np.array([r1, r2], dtype=float)
    T = ends**b * M.ray_integral(ray, ends, math.inf, lambda s: s**-b)
    return M.ray_integral(ray, r1, r2) + T[1] - T[0]


def verify_corollary5(
    G: SpectralMeasure,
    beta: float,
    mesh: Optional[Sequence[tuple[float, float]]] = None,
) -> VerificationReport:
    """Spectral-measure form of the factorization.

    From a source measure ``G`` build ``M`` as half the index-``2*beta``
    smear of ``G``; then on every radial test interval

        (smear of M at beta) + M  =  (smear of G at beta).

    Both smears on the test intervals are :func:`smeared_interval_mass`,
    the definition of the mapped measure with its ``t``-integral done in
    closed form; ``M`` itself comes from the closed-form smear of ``G``,
    so the two sides are computed by different routes.
    """
    b = check_beta(beta)
    if mesh is None:
        mesh = dyadic_mesh()
    M = smear_spectral(G, 2.0 * b).scaled(0.5) if not G.is_empty else G
    r1, r2 = np.array(mesh, dtype=float).reshape(-1, 2).T
    points = []
    worst = 0.0
    for ray in range(len(G.rays)):
        lhs = smeared_interval_mass(M, b, ray, r1, r2) + M.interval_mass(ray, r1, r2)
        rhs = smeared_interval_mass(G, b, ray, r1, r2)
        for x1, x2, left, right in zip(r1, r2, lhs.tolist(), rhs.tolist()):
            diff = abs(left - right)
            worst = max(worst, diff)
            points.append({"ray": ray, "interval": [float(x1), float(x2)], "lhs": left,
                           "rhs": right, "abs_diff": diff})
    if not G.rays:
        points.append({"ray": None, "interval": None, "lhs": 0.0, "rhs": 0.0, "abs_diff": 0.0})
    return VerificationReport(
        identity="cor5",
        grid_max_abs=worst,
        passed=worst < COR5_TOL,
        beta=b,
        tolerance=COR5_TOL,
        metric="mass_diff",
        points=points,
        notes=["radial test sets, measure-level factorization"],
    )
