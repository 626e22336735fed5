"""Closed forms for the planar Brownian stochastic-area example.

Conditioned on the endpoint ``(sqrt(u), sqrt(u))``, the characteristic
function of the stochastic area at time ``u`` factors as

    chi(t) = (t u / sinh(t u)) * exp(-(t u coth(t u) - 1)).

The second factor is the characteristic function of an infinitely
divisible background law ``nu``; applying the exponential-kernel mapping
to ``nu`` reproduces the first factor exactly:

    integral over s in (0, inf) of phi_nu(exp(-s) t) ds
        = log(t u / sinh(t u)),

which is the analytic oracle verified here.  The hyperbolic cotangent in
``phi_nu`` is the reading that makes ``chi(0) = 1`` and the oracle hold;
the cosh variant fails both and is rejected (see report notes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import IdMeasure, batched_exponent, default_grid
from .errors import ValidationError
from .mappings import i_map, i_of_j_beta, j_beta
from .reports import VerificationReport, to_points

__all__ = [
    "AreaParams",
    "nu_exponent",
    "sinh_factor_exponent",
    "area_measure",
    "chi",
    "verify_levy_area",
]

COTH_NOTE = (
    "background exponent uses t*u*coth(t*u) - 1; the cosh variant violates "
    "chi(0) = 1 and the log(t*u/sinh(t*u)) mapping identity"
)

_SERIES_CUT = 1e-2
LEVY_AREA_TOL = 1e-8


@dataclass(frozen=True)
class AreaParams:
    """Conditioning time of the stochastic-area law."""

    u: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.u) and self.u > 0):
            raise ValidationError(f"conditioning time must be finite and > 0, got {self.u}")


def _x_coth_x_minus_1(x: np.ndarray) -> np.ndarray:
    """x coth x - 1 with the removable singularity at 0."""
    x2 = x * x
    small = np.abs(x) < _SERIES_CUT
    # x coth x = 1 + x^2/3 - x^4/45 + 2 x^6/945 - ...
    series = x2 / 3.0 - x2 * x2 / 45.0 + 2.0 * x2 * x2 * x2 / 945.0
    safe = np.where(small, 1.0, x)
    return np.where(small, series, safe / np.tanh(safe) - 1.0)


def _scalar_or_array(out: np.ndarray):
    return complex(out) if out.ndim == 0 else out


def nu_exponent(params: AreaParams, t):
    """Exponent of the background law: ``-(t u coth(t u) - 1)``.

    Real valued (the law is symmetric), vanishing at 0, asymptotically
    ``-(|t| u - 1)`` for large frequencies.  ``t`` is a number (returns a
    complex) or an array (returns complex values of its shape).
    """
    x = np.asarray(t, dtype=float) * params.u
    return _scalar_or_array(-_x_coth_x_minus_1(x) + 0j)


def sinh_factor_exponent(params: AreaParams, t):
    """Log of the selfdecomposable factor: ``log(t u / sinh(t u))``, for a
    number or elementwise for an array ``t``."""
    x = np.abs(np.asarray(t, dtype=float)) * params.u
    x2 = x * x
    # log(sinh x / x) = x^2/6 - x^4/180 + x^6/2835 - ...
    series = -(x2 / 6.0 - x2 * x2 / 180.0 + x2 * x2 * x2 / 2835.0)
    mid = np.clip(x, _SERIES_CUT, 30.0)
    # sinh overflows long before x does; use sinh x = exp(x)(1 - exp(-2x))/2
    big = np.maximum(x, 30.0)
    out = np.where(
        x < _SERIES_CUT,
        series,
        np.where(
            x < 30.0,
            np.log(mid / np.sinh(mid)),
            np.log(big) - big + math.log(2.0) - np.log1p(-np.exp(-2.0 * big)),
        ),
    )
    return _scalar_or_array(out + 0j)


def area_measure(params: AreaParams) -> IdMeasure:
    """The background law as a one-dimensional measure (exponent only)."""
    return IdMeasure.from_exponent(
        dim=1,
        exponent=batched_exponent(lambda Y, p=params: nu_exponent(p, Y[:, 0])),
        log_moment_known=True,
        label=f"area-background(u={params.u:g})",
    )


def chi(params: AreaParams, t):
    """Full conditional characteristic function of the stochastic area,
    for a number or elementwise for an array ``t``."""
    val = np.exp(sinh_factor_exponent(params, t) + nu_exponent(params, t)).real
    return float(val) if np.ndim(val) == 0 else val


def verify_levy_area(
    params: AreaParams,
    grid: Optional[np.ndarray] = None,
) -> VerificationReport:
    """Three-part check of the stochastic-area factorization.

    (i) the exponential-kernel mapping of the background law matches the
    log-sinh factor on the grid; (ii) the exponent sum reproduces the
    product form of the full characteristic function, with chi(0) = 1
    and chi in (0, 1]; (iii) the index-1 clocked representation route:
    mapping the background law equals the clocked composition plus the
    once-shrunk exponent, the decomposition that certifies the factor
    stays selfdecomposable.  Each part evaluates the grid as one batch.
    """
    if grid is None:
        grid = default_grid(1)
    grid = np.asarray(grid, dtype=float).reshape(-1, 1)
    t = grid[:, 0]
    nu = area_measure(params)
    mapped = i_map(nu)
    notes = [COTH_NOTE]

    lhs = mapped.exponent(grid)
    rhs = sinh_factor_exponent(params, t)
    diff = np.abs(lhs - rhs)
    worst = float(diff.max(initial=0.0))

    # (ii) product form and bounds of the full characteristic function
    chi0 = chi(params, 0.0)
    vals = chi(params, t)
    product_ok = chi0 == 1.0 and bool(np.all((vals > 0.0) & (vals <= 1.0)))
    x = t * params.u
    mid = (np.abs(x) >= _SERIES_CUT) & (np.abs(x) < 30.0)
    xm = x[mid]
    direct = (xm / np.sinh(xm)) * np.exp(-(xm / np.tanh(xm) - 1.0))
    if np.any(np.abs(vals[mid] - direct) > 1e-12 * np.maximum(1.0, np.abs(direct))):
        product_ok = False
    if not product_ok:
        notes.append("product-form cross-check failed")

    # (iii) clocked decomposition at index 1
    shrunk = j_beta(nu, 1.0)
    clocked = i_of_j_beta(nu, 1.0)
    decomp = np.abs(lhs - (clocked.exponent(grid) + shrunk.exponent(grid)))
    worst_decomp = float(decomp.max(initial=0.0))
    decomp_ok = worst_decomp < LEVY_AREA_TOL

    passed = worst < LEVY_AREA_TOL and product_ok and decomp_ok
    return VerificationReport(
        identity="levyarea",
        grid_max_abs=worst,
        passed=passed,
        beta=None,
        tolerance=LEVY_AREA_TOL,
        metric="abs_diff",
        points=to_points({"t": t, "mapped": lhs, "log_sinh_factor": rhs, "abs_diff": diff}),
        notes=notes,
        extra={
            "u": params.u,
            "chi_at_zero": chi0,
            "clocked_decomposition_max_abs": worst_decomp,
        },
    )

