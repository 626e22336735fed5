"""Adaptive quadrature helpers for the exponent calculus.

Finite intervals go through QUADPACK's adaptive Gauss-Kronrod rules
(``scipy.integrate.quad``) at relative tolerance 1e-10 with an absolute
floor of 1e-14.  Integrals over unbounded tails, and integrals whose
convergence at an endpoint is itself in question, are evaluated on a
growing (or shrinking) sequence of cutoffs so that non-convergence is
detected and reported instead of silently trusted.

:func:`quad_complex` is the one complex integrator: QUADPACK's 21-point
Gauss-Kronrod rule with its error heuristic (:func:`gk21`), applied to the
panels of a whole batch of rows at once, each row bisecting on its own.
Both the radial transform of ``mappings`` and the density segments of
``core.char_exponent`` integrate with it; their unbounded supports run on
the same staged cutoffs as :func:`tail_quad`.
"""

from __future__ import annotations

import math
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


def gk21(values: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integral, error estimate and rounding floor of real integrands on
    many panels.

    ``values`` is ``(p, 21)``: each row holds the integrand at the
    :data:`GK21_NODES` mapped onto one panel of half-length ``half``.  The
    error estimate is QUADPACK's qk21 heuristic, which never reads below
    the floor ``50 eps int |f|``.
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
    floor = np.where(resabs > _UFLOW / (50.0 * _EPMACH), 50.0 * _EPMACH * resabs, 0.0)
    return resk * half, np.maximum(floor, err), floor


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


# points per call to an integrand; nested maps multiply their batches by 21
# per level, and the cap keeps each level's working set fixed
ROW_CAP = 2048
# subintervals one row may use, QUADPACK's limit in quad_real
PANEL_LIMIT = 300
_PANELS_PER_CALL = ROW_CAP // GK21_NODES.size


def _panel_rules(f, elem, a, b):
    """GK21 value, error and rounding floor ``(p, 3, 2)``, real and
    imaginary part, of each panel ``(a, b)`` of row ``elem``."""
    out = np.empty((len(elem), 3, 2))
    for start in range(0, len(elem), _PANELS_PER_CALL):
        sl = slice(start, start + _PANELS_PER_CALL)
        half = 0.5 * (b[sl] - a[sl])
        z = f(elem[sl], (a[sl] + half)[:, None] + half[:, None] * GK21_NODES)
        # real parts, then imaginary parts, as one batch of panels
        rules = gk21(np.concatenate([z.real, z.imag]), np.concatenate([half, half]))
        for q, rule in enumerate(rules):
            out[sl, q] = rule.reshape(2, -1).T
    return out


def quad_complex(f, a, b, n: int, where=lambda i: "") -> np.ndarray:
    """Integrals ``(n,)`` of a complex integrand over ``(a_i, b_i)`` for
    the rows ``i < n``; rows with ``b <= a`` give 0.

    ``f(rows, t)`` gives the integrand of rows ``rows (p,)`` at the nodes
    ``t (p, 21)``, at most ``ROW_CAP`` nodes per call.  ``a`` and ``b``
    are scalars or ``(n,)`` arrays.  Each row refines on its own: while its
    real or imaginary part misses ``max(ABS_TOL, REL_TOL |part|)`` (or the
    rule's rounding floor ``50 eps int |f|``, which no bisection lowers),
    it bisects the panels whose error in that part exceeds their length's
    share of the tolerance; the pending panels of all rows go to ``f``
    together.  A row that needs more than ``PANEL_LIMIT`` panels raises
    :class:`QuadratureError`, where ``where(i)`` describes row ``i``.  An
    infinite ``b`` (with a scalar ``a``) runs on the growing cutoffs of
    :func:`tail_quad`, under the same convergence contract.
    """
    if math.isinf(b):

        def piece(rows, lo, hi):
            g = lambda i, t: f(rows[i], t)
            return quad_complex(g, lo, hi, len(rows), lambda i: where(rows[i]))

        return _staged_quad(piece, n, a, max(2.0 * a, 10.0), _grow, where)
    a, b = np.zeros(n) + a, np.zeros(n) + b
    span = b - a
    out = np.zeros(n, dtype=complex)
    # settled panels of unfinished rows, then the panels to evaluate
    elem, lo, hi, rules = np.zeros(0, dtype=int), np.zeros(0), np.zeros(0), np.zeros((0, 3, 2))
    new_elem = np.flatnonzero(span > 0)
    new_lo, new_hi = a[new_elem], b[new_elem]
    while len(new_elem):
        elem = np.concatenate([elem, new_elem])
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        rules = np.concatenate([rules, _panel_rules(f, new_elem, new_lo, new_hi)])

        # per-row sums of the 6 rule columns, in one pass
        sums = np.bincount((6 * elem[:, None] + np.arange(6)).ravel(), rules.ravel(), 6 * n)
        total, total_err, floor = sums.reshape(n, 3, 2).transpose(1, 0, 2)
        tol = np.maximum(np.maximum(ABS_TOL, REL_TOL * np.abs(total)), floor)
        short = ~(total_err <= tol)  # a NaN error is short too
        done = ~short.any(axis=1)
        finished = np.unique(elem[done[elem]])
        out[finished] += total[finished, 0] + 1j * total[finished, 1]

        pending = ~done[elem]
        share = (hi - lo) / span[elem]
        split = pending & (short[elem] & ~(rules[:, 1] <= tol[elem] * share[:, None])).any(axis=1)
        count = np.bincount(elem[pending], minlength=n) + np.bincount(elem[split], minlength=n)
        finite = np.isfinite(total).all(axis=1) & np.isfinite(total_err).all(axis=1)
        stuck = np.flatnonzero((count > PANEL_LIMIT) | ~finite)
        if len(stuck):
            i = stuck[0]
            part = int(np.argmax(np.nan_to_num(total_err[i] / tol[i], nan=np.inf)))
            raise QuadratureError(
                f"quadrature on ({a[i]:.6g}, {b[i]:.6g}){where(i)} did not converge: "
                f"achieved abs error {total_err[i, part]:.3e}, requested "
                f"{tol[i, part]:.3e}, with at most {PANEL_LIMIT} subintervals",
                achieved=float(total_err[i, part]),
                requested=float(tol[i, part]),
            )
        stay = pending & ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_elem = np.repeat(elem[split], 2)
        new_lo = np.stack([lo[split], mid], 1).ravel()
        new_hi = np.stack([mid, hi[split]], 1).ravel()
        elem, lo, hi, rules = elem[stay], lo[stay], hi[stay], rules[stay]
    return out


# each stage moves the open end of a staged integral by this factor
_STAGE_FACTOR = 4.0
_MAX_STAGES = 40


def _grow(lo: float, hi: float) -> tuple[float, float]:
    return hi, _STAGE_FACTOR * hi


def _staged_quad(integrate, n: int, lo: float, hi: float, next_piece, where=lambda i: ""):
    """Sums ``(n,)`` of ``integrate(rows, lo, hi)`` over the piece
    ``(lo, hi)`` and the pieces that ``next_piece(lo, hi)`` yields after it.
    A row stops after two increments in a row whose parts are each within
    ``max(10 ABS_TOL, REL_TOL |part of its sum|)``, and raises
    :class:`QuadratureError` if it has not after ``_MAX_STAGES`` pieces."""
    rows = np.arange(n)
    total = integrate(rows, lo, hi)
    streak = np.zeros(n, dtype=int)
    for _ in range(_MAX_STAGES):
        lo, hi = next_piece(lo, hi)
        inc = integrate(rows, lo, hi)
        total[rows] += inc
        now = total[rows]
        inc2 = np.abs(np.stack([inc.real, inc.imag], 1))
        tol = np.maximum(10.0 * ABS_TOL, REL_TOL * np.abs(np.stack([now.real, now.imag], 1)))
        streak[rows] = np.where((inc2 <= tol).all(axis=1), streak[rows] + 1, 0)
        keep = streak[rows] < 2
        rows, inc2, tol = rows[keep], inc2[keep], tol[keep]
        if not len(rows):
            return total
    part = int(np.argmax(inc2[0] / tol[0]))
    raise QuadratureError(
        f"staged quadrature{where(rows[0])} did not settle by ({lo:.6g}, {hi:.6g}): "
        f"last increment {inc2[0, part]:.3e}, requested {tol[0, part]:.3e}",
        achieved=float(inc2[0, part]),
        requested=float(tol[0, part]),
    )


def _staged_real(f, lo: float, hi: float, next_piece) -> tuple[float, bool]:
    piece = lambda rows, a, b: np.array([quad_real(f, a, b)])
    try:
        total = _staged_quad(piece, 1, lo, hi, next_piece)
    except QuadratureError:
        return np.nan, False
    return float(total[0]), True


def tail_quad(f: Callable[[float], float], a: float) -> tuple[float, bool]:
    """Integrate ``f`` over ``(a, inf)`` on a growing cutoff sequence.

    Returns ``(value, converged)``.  ``converged`` is False when the
    partial integrals fail to stabilize, which is how callers detect a
    (numerically) divergent tail without pretending to prove divergence.
    """
    return _staged_real(f, a, max(2.0 * a, 10.0), _grow)


def head_quad(f: Callable[[float], float], b: float) -> tuple[float, bool]:
    """Integrate ``f`` over ``(0, b]`` on a shrinking cutoff sequence.

    Same convergence contract as :func:`tail_quad`, used to probe
    integrability at the origin.
    """
    return _staged_real(f, b / _STAGE_FACTOR, b, lambda lo, hi: (lo / _STAGE_FACTOR, lo))
