"""Adaptive quadrature helpers for the exponent calculus.

Finite intervals go through QUADPACK's adaptive Gauss-Kronrod rules
(``scipy.integrate.quad``) at relative tolerance 1e-10 with an absolute
floor of 1e-14.  Integrals over unbounded tails, and integrals whose
convergence at an endpoint is itself in question, are evaluated on a
growing (or shrinking) sequence of cutoffs so that non-convergence is
detected and reported instead of silently trusted.

:func:`gk21` is QUADPACK's 21-point Gauss-Kronrod rule with its error
heuristic, applied to many panels at once; the batched radial transform
of ``mappings`` refines with it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate

from .errors import QuadratureError

REL_TOL = 1e-10
ABS_TOL = 1e-14

# QUADPACK returns an explanation string as a 4th element when it is unhappy.
_MSG_SLOT = 3

# QUADPACK's qk21 (Piessens et al., QUADPACK, 1983): Kronrod abscissae on
# [0, 1) from the outside in, their weights, and the weights of the
# embedded 10-point Gauss rule at the odd-indexed abscissae
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
)
_WGK_CENTER = 0.149445554002916905664936468389821
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651146,
)
# the 21 nodes on [-1, 1] in increasing order, with both rules' weights
GK21_NODES = np.array([-x for x in _XGK] + [0.0] + list(reversed(_XGK)))
_K21 = np.array(list(_WGK) + [_WGK_CENTER] + list(reversed(_WGK)))
_half_g = [0.0 if i % 2 == 0 else _WG[i // 2] for i in range(10)]
_G10 = np.array(_half_g + [0.0] + list(reversed(_half_g)))
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def gk21(values: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integral and error estimate of real integrands on many panels.

    ``values`` is ``(p, 21)``: each row holds the integrand at the
    :data:`GK21_NODES` mapped onto one panel of half-length ``half``.  The
    error estimate is QUADPACK's qk21 heuristic.
    """
    # row sums rather than matrix products, so that a panel's result does
    # not depend on the other rows of the batch
    resk = (values * _K21).sum(axis=1)
    resg = (values * _G10).sum(axis=1)
    resabs = (np.abs(values) * _K21).sum(axis=1) * half
    resasc = (np.abs(values - 0.5 * resk[:, None]) * _K21).sum(axis=1) * half
    err = np.abs((resk - resg) * half)
    scaled = (resasc != 0.0) & (err != 0.0)
    ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=scaled)
    err = np.where(scaled, resasc * np.minimum(1.0, ratio) ** 1.5, err)
    err = np.where(resabs > _UFLOW / (50.0 * _EPMACH), np.maximum(50.0 * _EPMACH * resabs, err), err)
    return resk * half, err


def quad_real(
    f: Callable[[float], float],
    a: float,
    b: float,
    points: Optional[Sequence[float]] = None,
    rel_tol: float = REL_TOL,
    abs_tol: float = ABS_TOL,
) -> float:
    """Integrate a real-valued integrand, raising on non-convergence."""
    pts = None
    if points is not None and np.isfinite(a) and np.isfinite(b):
        pts = sorted(p for p in points if a < p < b)
        if not pts:
            pts = None
    out = integrate.quad(
        f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=300, points=pts, full_output=1
    )
    value, err = out[0], out[1]
    if len(out) > _MSG_SLOT:
        allowed = 10.0 * max(abs_tol, rel_tol * abs(value))
        if not np.isfinite(value) or err > allowed:
            raise QuadratureError(
                f"quadrature on ({a!r}, {b!r}) did not converge: "
                f"achieved abs error {err:.3e}, value {value:.6e}",
                achieved=err,
                requested=allowed,
            )
    return value


def quad_complex(f: Callable[[float], complex], a: float, b: float) -> complex:
    """Integrate a complex-valued integrand part by part.

    The integrand value is cached per node so the real and imaginary
    passes share evaluations wherever their subdivisions coincide.
    """
    cache: dict[float, complex] = {}

    def ev(t: float) -> complex:
        z = cache.get(t)
        if z is None:
            z = complex(f(t))
            cache[t] = z
        return z

    re = quad_real(lambda t: ev(t).real, a, b)
    im = quad_real(lambda t: ev(t).imag, a, b)
    return complex(re, im)


# each stage moves the open end of a staged integral by this factor
_STAGE_FACTOR = 4.0
_MAX_STAGES = 40


def _staged_quad(f, lo: float, hi: float, next_piece) -> tuple[float, bool]:
    """Sum ``f`` over the piece ``(lo, hi)`` and the pieces that
    ``next_piece(lo, hi)`` yields after it, until two increments in a row
    are negligible.  Returns ``(value, converged)``."""
    try:
        total = quad_real(f, lo, hi)
    except QuadratureError:
        return np.nan, False
    small_streak = 0
    for _ in range(_MAX_STAGES):
        lo, hi = next_piece(lo, hi)
        try:
            inc = quad_real(f, lo, hi)
        except QuadratureError:
            return total, False
        total += inc
        if not np.isfinite(total) or abs(total) > 1e12:
            return total, False
        if abs(inc) <= max(10.0 * ABS_TOL, REL_TOL * abs(total)):
            small_streak += 1
            if small_streak >= 2:
                return total, True
        else:
            small_streak = 0
    return total, False


def tail_quad(f: Callable[[float], float], a: float) -> tuple[float, bool]:
    """Integrate ``f`` over ``(a, inf)`` on a growing cutoff sequence.

    Returns ``(value, converged)``.  ``converged`` is False when the
    partial integrals fail to stabilize, which is how callers detect a
    (numerically) divergent tail without pretending to prove divergence.
    """
    return _staged_quad(f, a, max(2.0 * a, 10.0), lambda lo, hi: (hi, _STAGE_FACTOR * hi))


def head_quad(f: Callable[[float], float], b: float) -> tuple[float, bool]:
    """Integrate ``f`` over ``(0, b]`` on a shrinking cutoff sequence.

    Same convergence contract as :func:`tail_quad`, used to probe
    integrability at the origin.
    """
    return _staged_quad(f, b / _STAGE_FACTOR, b, lambda lo, hi: (lo / _STAGE_FACTOR, lo))
