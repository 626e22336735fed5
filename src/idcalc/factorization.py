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

from .core import IdMeasure, SpectralMeasure, conv_power, convolve
from .mappings import check_beta, j_beta, j_beta_inverse, smear_spectral
from .reports import Identity, VerificationReport, to_points

__all__ = [
    "factor_rho",
    "verify_prop1",
    "verify_lemma1e",
    "verify_cor1b",
    "verify_corollary5",
    "dyadic_mesh",
]

# pass threshold of the measure-level check on its worst absolute difference
COR5_TOL = 1e-6


def factor_rho(nu: IdMeasure, beta: float) -> IdMeasure:
    """Background factor of ``j_beta(nu)``: the half convolution power of
    ``nu`` pushed through the index-``2*beta`` mapping."""
    b = check_beta(beta)
    return replace(j_beta(conv_power(nu, 0.5), 2.0 * b), label=f"rho[{b:g}]({nu.label})")


def _selfdec(b: float) -> list[str]:
    return ["beta=1: s-selfdecomposable case"] if b == 1.0 else []


def _prop1(nu: IdMeasure, b: float) -> list:
    rho = factor_rho(nu, b)
    notes = [f"factor {rho.label} of {nu.label}", *_selfdec(b)]
    # the lhs is the convolution as its terms: the rho column is its read of rho
    return [((j_beta(rho, b), rho), j_beta(nu, b), notes, {"rho": 1})]


def _cor1b(seed: IdMeasure, b: float) -> list:
    rho = j_beta(seed, 2.0 * b)
    mu = convolve(j_beta(rho, b), rho)
    # back is the rhs, read first: its large batches commit rho's rays,
    # which mu's small reads then answer from the fits
    return [(mu, j_beta(j_beta_inverse(mu, b), b), [f"seed {seed.label}"])]


PROP1 = Identity("prop1", 1e-8, _prop1)
LEMMA1E = Identity("lemma1e", 1e-8, lambda rho, b: [(
    j_beta(convolve(j_beta(rho, b), rho), 2.0 * b), j_beta(conv_power(rho, 2.0), b),
    [f"seed {rho.label}", *_selfdec(b)],
)])
COR1B = Identity("cor1b", 1e-7, _cor1b)


def verify_prop1(
    nu: IdMeasure, beta: float, grid: Optional[np.ndarray] = None
) -> VerificationReport:
    """Check ``j_beta(rho) * rho = j_beta(nu)`` for the constructed factor;
    each point also records the factor's exponent as ``rho``."""
    return PROP1(nu, beta, grid)[0]


def verify_lemma1e(
    rho: IdMeasure, beta: float, grid: Optional[np.ndarray] = None
) -> VerificationReport:
    """Check ``J^{2b}(J^b(rho) * rho) = J^b(rho^{*2})`` on the grid."""
    return LEMMA1E(rho, beta, grid)[0]


def verify_cor1b(
    seed: IdMeasure, beta: float, grid: Optional[np.ndarray] = None
) -> VerificationReport:
    """Forward image check: for ``rho`` in the index-``2b`` image,
    ``j_beta(rho) * rho`` lies in the index-``b`` image, certified by a
    round trip through the inverse mapping."""
    return COR1B(seed, beta, grid)[0]


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
    mesh = np.array(dyadic_mesh() if mesh is None else mesh, dtype=float).reshape(-1, 2)
    M = smear_spectral(G, 2.0 * b).scaled(0.5) if not G.is_empty else G
    r1, r2 = mesh.T
    rays = range(len(G.rays))
    lhs = np.array([smeared_interval_mass(M, b, ray, r1, r2) + M.interval_mass(ray, r1, r2)
                    for ray in rays]).ravel()
    rhs = np.array([smeared_interval_mass(G, b, ray, r1, r2) for ray in rays]).ravel()
    cols = {"ray": np.repeat(rays, len(mesh)), "interval": np.tile(mesh, (len(rays), 1))}
    if not G.rays:  # one placeholder point
        cols, lhs, rhs = {"ray": [None], "interval": [None]}, np.zeros(1), np.zeros(1)
    diffs = np.abs(lhs - rhs)
    worst = float(diffs.max(initial=0.0))
    return VerificationReport(
        identity="cor5",
        grid_max_abs=worst,
        passed=worst < COR5_TOL,
        beta=b,
        tolerance=COR5_TOL,
        metric="mass_diff",
        points=to_points({**cols, "lhs": lhs, "rhs": rhs, "abs_diff": diffs}),
        notes=["radial test sets, measure-level factorization"],
    )
