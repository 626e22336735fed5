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
from typing import Optional, Sequence

import numpy as np

from .core import IdMeasure, SpectralMeasure, conv_power, convolve, default_grid
from .mappings import check_beta, j_beta, j_beta_inverse, smear_spectral
from .quadrature import quad_real
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


def factor_rho(nu: IdMeasure, beta: float) -> IdMeasure:
    """Background factor of ``j_beta(nu)``: the half convolution power of
    ``nu`` pushed through the index-``2*beta`` mapping."""
    b = check_beta(beta)
    rho = j_beta(conv_power(nu, 0.5), 2.0 * b)
    return IdMeasure(
        dim=rho.dim,
        exponent=rho.exponent,
        triplet=rho.triplet,
        log_moment_known=rho.log_moment_known,
        label=f"rho[{b:g}]({nu.label})",
    )


def verify_prop1(
    nu: IdMeasure,
    beta: float,
    grid: Optional[np.ndarray] = None,
    tol: float = 1e-8,
) -> VerificationReport:
    """Check ``j_beta(rho) * rho = j_beta(nu)`` for the constructed factor."""
    b = check_beta(beta)
    if grid is None:
        grid = default_grid(nu.dim)
    rho = factor_rho(nu, b)
    lhs = convolve(j_beta(rho, b), rho)
    rhs = j_beta(nu, b)
    notes = [f"factor of {nu.label}"]
    if b == 1.0:
        notes.append(S_SELFDEC_NOTE)
    report = grid_check("prop1", lhs.exponent, rhs.exponent, grid, tol, beta=b, notes=notes)
    return report


def verify_lemma1e(
    rho: IdMeasure,
    beta: float,
    grid: Optional[np.ndarray] = None,
    tol: float = 1e-8,
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
    return grid_check("lemma1e", lhs.exponent, rhs.exponent, grid, tol, beta=b, notes=notes)


def verify_cor1b(
    seed: IdMeasure,
    beta: float,
    grid: Optional[np.ndarray] = None,
    tol: float = 1e-7,
) -> VerificationReport:
    """Forward image check: for ``rho`` in the index-``2b`` image,
    ``j_beta(rho) * rho`` lies in the index-``b`` image.

    Certified by inverting the mapping on the convolution and mapping
    back; the round trip must reproduce the exponent.
    """
    b = check_beta(beta)
    if grid is None:
        grid = default_grid(seed.dim)
    rho = j_beta(seed, 2.0 * b)
    mu = convolve(j_beta(rho, b), rho)
    recovered = j_beta(j_beta_inverse(mu, b), b)
    notes = [f"seed {seed.label}"]
    return grid_check("cor1b", mu.exponent, recovered.exponent, grid, tol, beta=b, notes=notes)


# ---------------------------------------------------------------------------
# measure-level factorization on radial test sets
# ---------------------------------------------------------------------------


def dyadic_mesh(k_lo: int = -3, k_hi: int = 6) -> list[tuple[float, float]]:
    """Radial intervals ``(2^-k, 2^-k+1]`` for k in [k_lo, k_hi]."""
    return [(2.0**-k, 2.0 ** (-k + 1)) for k in range(k_lo, k_hi + 1)]


def _smear_breakpoints(M: SpectralMeasure, ray: int, r1: float, r2: float, beta: float):
    """Outer-integral kinks of ``t -> M((r1, r2] / t^{1/beta})``."""
    pts = []
    comp = M.rays[ray]
    radii = [at.r for at in comp.atoms]
    for seg in comp.densities:
        radii.extend(seg.kinks)
        if seg.lo > 0:
            radii.append(seg.lo)
        if math.isfinite(seg.hi):
            radii.append(seg.hi)
    for r0 in radii:
        for r in (r1, r2):
            t = (r / r0) ** beta
            if 0.0 < t < 1.0:
                pts.append(t)
    return sorted(set(pts))


def smeared_interval_mass(
    M: SpectralMeasure, beta: float, ray: int, r1: float, r2: float,
    rel_tol: float = 1e-9,
) -> float:
    """Mass the mapped measure puts on ``(r1, r2]`` of one ray, computed
    directly as the t-integral of dilated interval masses (the oracle
    route; no closed-form smearing involved)."""
    b = check_beta(beta)
    pts = _smear_breakpoints(M, ray, r1, r2, b)

    def integrand(t: float) -> float:
        if t <= 0.0:
            return 0.0
        try:
            scale = t ** (-1.0 / b)
        except OverflowError:
            return 0.0  # interval dilated past any float-representable radius
        if not math.isfinite(scale):
            return 0.0
        return M.interval_mass(ray, r1 * scale, r2 * scale)

    return quad_real(integrand, 0.0, 1.0, points=pts, rel_tol=rel_tol, abs_tol=1e-12)


def verify_corollary5(
    G: SpectralMeasure,
    beta: float,
    mesh: Optional[Sequence[tuple[float, float]]] = None,
    tol: float = 1e-6,
) -> VerificationReport:
    """Spectral-measure form of the factorization.

    From a source measure ``G`` build ``M`` as half the index-``2*beta``
    smear of ``G``; then on every radial test interval

        (smear of M at beta) + M  =  (smear of G at beta).

    Both sides are evaluated by direct t-quadrature of interval masses.
    """
    b = check_beta(beta)
    if mesh is None:
        mesh = dyadic_mesh()
    M = smear_spectral(G, 2.0 * b).scaled(0.5) if not G.is_empty else G
    points = []
    worst = 0.0
    for ray in range(len(G.rays)):
        for (r1, r2) in mesh:
            lhs = smeared_interval_mass(M, b, ray, r1, r2) + M.interval_mass(ray, r1, r2)
            rhs = smeared_interval_mass(G, b, ray, r1, r2)
            diff = abs(lhs - rhs)
            worst = max(worst, diff)
            points.append(
                {"ray": ray, "interval": [r1, r2], "lhs": lhs, "rhs": rhs, "abs_diff": diff}
            )
    if not G.rays:
        points.append({"ray": None, "interval": None, "lhs": 0.0, "rhs": 0.0, "abs_diff": 0.0})
    return VerificationReport(
        identity="cor5",
        grid_max_abs=worst,
        passed=worst < tol,
        beta=b,
        tolerance=tol,
        metric="mass_diff",
        points=points,
        notes=["radial test sets, measure-level factorization"],
    )
