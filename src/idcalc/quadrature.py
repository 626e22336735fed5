"""Adaptive quadrature for the exponent calculus: one batched rule.

:func:`quad_complex` is the package's integrator: QUADPACK's 21-point
Gauss-Kronrod rule with its error heuristic (:func:`gk21`; Piessens et
al., QUADPACK, 1983), applied to the panels of a whole batch of rows at
once, each row bisecting on its own until its error estimate meets
``max(1e-14, 1e-10 |value|)``, ``|value|`` the complex modulus.  A
radial transform of ``mappings`` whose weight is bounded at 0 has a
bounded integrand and calls it alone.  Every other integral over radii goes through
:func:`quad_cut`, which cuts rows at break points, substitutes pieces
from 0 and stages unbounded tails on growing cutoffs, so that a tail that
does not settle is reported instead of silently trusted.
:func:`quad_real` is its real entry point, and :func:`tail_quad` and
:func:`head_quad` flag non-convergence on ``(a, inf)`` and ``(0, b)``.
The package calls none of the three: every integral over a density
segment, validation included, is ``core._segment_integral``.  They remain
because the benchmark's tracer (``bench/tracing.py``) wraps them by name.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import QuadratureError

REL_TOL = 1e-10
ABS_TOL = 1e-14

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
    """Integral, error estimate and rounding floor of real or complex
    integrands on many panels.

    ``values`` is ``(p, 21)``: each row holds the integrand at the
    :data:`GK21_NODES` mapped onto one panel of half-length ``half``.  The
    error estimate is QUADPACK's qk21 heuristic with ``|.|`` the modulus,
    and it never reads below the floor ``50 eps int |f|``.
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


# points per call to an integrand; nested maps multiply their batches by 21
# per level, and the cap keeps each level's working set fixed
ROW_CAP = 2048
# subintervals one row may use
PANEL_LIMIT = 300
_PANELS_PER_CALL = ROW_CAP // GK21_NODES.size
_FOUR = np.arange(4)


def _panel_rules(f, elem, a, b, where):
    """GK21 value (real and imaginary part), error and rounding floor,
    ``(p, 4)``, of each panel ``(a, b)`` of row ``elem``; an integrand
    that is not finite at a node raises :class:`QuadratureError` naming
    the panel, described by ``where(row)``."""
    out = np.zeros((len(elem), 4))
    for start in range(0, len(elem), _PANELS_PER_CALL):
        sl = slice(start, start + _PANELS_PER_CALL)
        half = 0.5 * (b[sl] - a[sl])
        z = f(elem[sl], (a[sl] + half)[:, None] + half[:, None] * GK21_NODES)
        if not np.isfinite(z).all():
            k = start + int(np.argmin(np.isfinite(z).all(axis=1)))
            raise QuadratureError(
                f"integrand is not finite at a node of the panel ({a[k]:.6g}, {b[k]:.6g})"
                f"{where(elem[k])}"
            )
        value, err, floor = gk21(z, half)
        out[sl] = np.column_stack([value.real, value.imag, err, floor])
    return out


def quad_complex(f, a, b, n: int, where=lambda i: "") -> np.ndarray:
    """Integrals ``(n,)`` of a complex integrand over ``(a_i, b_i)`` for
    the rows ``i < n``; rows with ``b <= a`` give 0.

    ``f(rows, t)`` gives the integrand of rows ``rows (p,)`` at the nodes
    ``t (p, 21)``, at most ``ROW_CAP`` nodes per call.  ``a`` and ``b``
    are scalars or ``(n,)`` arrays.  Each row refines on its own: while its
    error estimate misses ``max(ABS_TOL, REL_TOL |total|)``, ``|total|``
    the modulus of its complex value (or the rule's rounding floor ``50 eps
    int |f|``, which no bisection lowers), it bisects the panels whose
    error exceeds their length's share of the tolerance; the pending panels
    of all rows go to ``f`` together.  A row that needs more than
    ``PANEL_LIMIT`` panels, or whose integrand is not finite at a node,
    raises :class:`QuadratureError`, where ``where(i)`` describes row
    ``i``.  The ends are finite; :func:`quad_cut` reaches an infinite one.
    """
    a, b = np.zeros(n) + a, np.zeros(n) + b
    span = b - a
    out = np.zeros(n, dtype=complex)
    # the panels of unfinished rows: row, ends and rules
    elem = np.flatnonzero(span > 0)
    lo, hi = a[elem], b[elem]
    rules = _panel_rules(f, elem, lo, hi, where)
    while len(elem):
        # per-row sums of the 4 rule columns, in one pass
        sums = np.bincount((4 * elem[:, None] + _FOUR).ravel(), rules.ravel(), 4 * n)
        re, im, total_err, floor = sums.reshape(n, 4).T
        total = re + 1j * im
        tol = np.maximum(np.maximum(ABS_TOL, REL_TOL * np.abs(total)), floor)
        done = total_err <= tol  # a NaN error is not
        # rows finished before have no panels left, and sums of 0
        out[done] += total[done]
        finite = np.isfinite(total) & np.isfinite(total_err)
        if done.all() and finite.all():
            return out

        pending = ~done[elem]
        share = (hi - lo) / span[elem]
        split = pending & ~(rules[:, 2] <= tol[elem] * share)
        count = np.bincount(elem[pending], minlength=n) + np.bincount(elem[split], minlength=n)
        stuck = np.flatnonzero((count > PANEL_LIMIT) | ~finite)
        if len(stuck):
            i = stuck[0]
            raise QuadratureError(
                f"quadrature on ({a[i]:.6g}, {b[i]:.6g}){where(i)} did not converge: "
                f"achieved abs error {total_err[i]:.3e}, requested {tol[i]:.3e}, "
                f"with at most {PANEL_LIMIT} subintervals",
                achieved=float(total_err[i]),
                requested=float(tol[i]),
            )
        stay = pending & ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_elem = np.repeat(elem[split], 2)
        new_lo = np.stack([lo[split], mid], 1).ravel()
        new_hi = np.stack([mid, hi[split]], 1).ravel()
        rules = np.concatenate([rules[stay], _panel_rules(f, new_elem, new_lo, new_hi, where)])
        elem = np.concatenate([elem[stay], new_elem])
        lo, hi = np.concatenate([lo[stay], new_lo]), np.concatenate([hi[stay], new_hi])
    return out


# each stage moves the open end of a staged integral by this factor
_STAGE_FACTOR = 4.0
_MAX_STAGES = 40
# pieces integrated per call; each row of a piece refines on its own, so
# the pieces past a row's stop cost work but change no value
_STAGE_BLOCK = 4


def _staged_quad(f, n: int, lo: np.ndarray, where=lambda i: ""):
    """Integrals ``(n,)`` of ``f(rows, t)``, as in :func:`quad_complex`,
    over ``(lo_i, inf)``: the pieces ``(lo, max(2 lo, 10))``, each next one
    ``_STAGE_FACTOR`` times as far out.  A row stops after two increments
    in a row whose modulus is within ``max(10 ABS_TOL, REL_TOL |sum|)``,
    and raises :class:`QuadratureError` if it has not after ``_MAX_STAGES``
    pieces."""
    pieces = [(lo, np.maximum(2.0 * lo, 10.0))]
    for _ in range(_MAX_STAGES):
        pieces.append((pieces[-1][1], _STAGE_FACTOR * pieces[-1][1]))
    rows = np.arange(n)
    total = np.zeros(n, dtype=complex)
    streak = np.zeros(n, dtype=bool)  # the last increment was small
    for start in range(0, len(pieces), _STAGE_BLOCK):
        # one quad_complex row per pair of a row and a piece, (row, piece)
        lo, hi = np.array(pieces[start : start + _STAGE_BLOCK])[:, :, rows].transpose(1, 2, 0)
        r = np.repeat(rows, lo.shape[1])
        incs = quad_complex(lambda i, t: f(r[i], t), lo.ravel(), hi.ravel(), len(r),
                            lambda i: where(r[i])).reshape(lo.shape)
        # running sums, added one piece at a time
        sums = np.cumsum(np.concatenate([total[rows, None], incs], axis=1), axis=1)[:, 1:]
        size = np.abs(incs)
        tol = np.maximum(10.0 * ABS_TOL, REL_TOL * np.abs(sums))
        small = size <= tol
        if start == 0:
            small[:, 0] = False  # the first piece is no increment
        stop = small & np.concatenate([streak[rows, None], small[:, :-1]], axis=1)
        last = np.where(stop.any(axis=1), stop.argmax(axis=1), lo.shape[1] - 1)
        total[rows] = sums[np.arange(len(rows)), last]
        streak[rows] = small[:, -1]
        live = ~stop.any(axis=1)
        rows = rows[live]
        if not len(rows):
            return total
    lo, hi = pieces[-1][0][rows[0]], pieces[-1][1][rows[0]]
    size, tol = size[live][0, -1], tol[live][0, -1]
    raise QuadratureError(
        f"staged quadrature{where(rows[0])} did not settle by ({lo:.6g}, {hi:.6g}): "
        f"last increment {size:.3e}, requested {tol:.3e}",
        achieved=float(size),
        requested=float(tol),
    )


def power_at_origin(f, rows: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Power ``q`` of ``f(rows, r) ~ C r**q`` at 0 per row, read off ``f``
    at ``r0 2**-100`` and ``r0 2**-99`` (NaN where it is not finite), so
    deep that a next term ``r**(q+1/2)`` biases it by about 1e-15."""
    with np.errstate(all="ignore"):  # f may not be finite at 0
        v = np.abs(f(rows, r0[:, None] * np.array([2.0**-100, 2.0**-99])))
        return np.log2(v[:, 1] / v[:, 0])


def quad_cut(f, a, b, points: Sequence[float] = (), power=None, where=lambda i: "") -> np.ndarray:
    """Integrals ``(n,)`` of ``f(rows, r)`` over ``(a_i, b_i)``, ends that
    broadcast to ``(n,)``: the one rule for integrals over radii.  Each row
    is cut at the ``points`` inside it, its pieces added in order; the
    finite pieces of all rows are the rows of one :func:`quad_complex`
    call.  A piece ``(0, r0)`` whose integrand is ``~ r**q``, ``-1 < q <
    -1e-9``, is integrated over ``u`` after ``r = r0 u**(1/(q+1))``, which
    leaves it bounded where bisection could not meet its tolerance; a read
    closer to 0 is the next term's bias on a bounded integrand.
    ``power(rows, r0)`` gives ``q``, by default read off ``f``.  An
    unbounded row's last piece runs from its last cut on growing cutoffs
    (:func:`_staged_quad`).  ``where(i)`` describes row ``i`` in the
    :class:`QuadratureError` of a row that does not converge.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    n, b = a.size, np.maximum(a, b)
    # each row's cuts: a, then the points inside, absent points repeating a
    pts = np.asarray(points, dtype=float)
    inner = np.where((pts > a[:, None]) & (pts < b[:, None]), pts, a[:, None])
    cuts = np.sort(np.column_stack([a, inner]), axis=1)
    tail = np.isinf(b)
    ends = np.column_stack([cuts, np.where(tail, cuts[:, -1], b)])
    lo, hi = ends[:, :-1].ravel(), ends[:, 1:].ravel()
    row = np.repeat(np.arange(n), ends.shape[1] - 1)
    g = lambda i, t: f(row[i], t)
    m = np.ones(lo.size)
    origin = np.flatnonzero((lo == 0.0) & (hi > 0.0))
    if len(origin):
        rows, r0 = row[origin], hi[origin]
        q = np.zeros(len(origin)) + (power(rows, r0) if power else power_at_origin(f, rows, r0))
        with np.errstate(all="ignore"):
            m[origin] = np.where((q > -1.0) & (q < -1e-9), 1.0 / (q + 1.0), 1.0)
    if (m > 1.0).any():
        s, h, hi = np.where(m > 1.0, hi, 1.0), g, np.where(m > 1.0, 1.0, hi)

        def g(i, u):
            r, k = s[i, None], m[i, None]
            return h(i, r * u**k) * (k * r * u ** (k - 1.0))

    val = quad_complex(g, lo, hi, lo.size, lambda i: where(row[i])).reshape(n, -1)
    out = np.zeros(n, dtype=complex)
    for piece in val.T:
        out += piece
    if tail.any():
        rows = np.flatnonzero(tail)
        out[rows] += _staged_quad(lambda i, t: f(rows[i], t), len(rows), cuts[rows, -1],
                                  lambda i: where(rows[i]))
    return out


def quad_real(f: Callable[[np.ndarray], np.ndarray], a, b,
              points: Optional[Sequence[float]] = None):
    """Integral of a real integrand ``f``, which maps an array of abscissae
    to the array of its values, over ``(a, b)`` (0 when ``b <= a``); for
    arrays of ends, the integrals over each ``(a_i, b_i)``.  This is
    :func:`quad_cut` with the break points ``points`` and the power of
    ``f`` at 0 read off ``f``; ``b`` may be infinite.  Raises
    :class:`QuadratureError` on non-convergence.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    val = quad_cut(lambda rows, t: f(t), a.ravel(), b.ravel(), points or ()).real.reshape(a.shape)
    return float(val) if val.ndim == 0 else val


def tail_quad(f: Callable[[np.ndarray], np.ndarray], a: float) -> tuple[float, bool]:
    """``(value, converged)`` of :func:`quad_real` on ``(a, inf)``: its
    growing cutoffs leave ``converged`` False when the partial integrals
    fail to stabilize, which is how callers detect a (numerically)
    divergent tail without pretending to prove divergence."""
    try:
        return quad_real(f, a, math.inf), True
    except QuadratureError:
        return math.nan, False


def head_quad(f: Callable[[np.ndarray], np.ndarray], b: float) -> tuple[float, bool]:
    """``(value, converged)`` of :func:`quad_real` on ``(0, b]``, which
    probes integrability at the origin: ``f ~ r**q`` converges after the
    substitution when ``q > -1``, and runs out of panels when ``q <= -1``."""
    try:
        return quad_real(f, 0.0, b), True
    except QuadratureError:
        return math.nan, False
