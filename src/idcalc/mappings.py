"""Random-integral mappings as exponent and triplet transforms.

The two basic mappings act on an infinitely divisible law ``nu`` through
its Levy process ``Y_nu``:

* ``j_beta``: law of the integral of ``t**(1/beta)`` against ``dY_nu(t)``
  over (0, 1]; on exponents, ``phi_out(y)`` is the integral over t in
  (0, 1) of ``phi(t**(1/beta) y)``.
* ``i_map``: law of the integral of ``exp(-s)`` against ``dY_nu(s)`` over
  (0, inf); on exponents, the integral over u in (0, 1] of ``phi(u y)/u``.

``i_of_j_beta`` is the one-shot composition with weight
``u**-1 - u**(beta-1)``, equivalently the integral of ``phi(exp(-s) y)``
against the inner clock ``sigma_beta``; agreeing with
``i_map(j_beta(...))`` is one of the package's central cross-checks.
Each of these and ``corollary1a_kernel`` is one :func:`radial_map` of
the integral's weight and kernel power.

The mapped measures carry exponents only.  The closed-form triplet of
``j_beta(nu)`` (shift contraction ``beta/(beta+1)``, covariance
contraction ``beta/(beta+2)``, radially smeared spectral measure) is a
separate route: :func:`smear_triplet`, and :func:`smear_spectral` for its
spectral part, from which the measure-level check of Corollary 5 builds
its measure.  Agreement of the two routes is a tested invariant.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import (
    DensitySegment,
    IdMeasure,
    LevyTriplet,
    RadialComponent,
    SpectralMeasure,
    _log_moment_flag,
    _segment_mass,
    batched_exponent,
    callable_segment,
    power_segment,
)
from . import rays
from .errors import DomainError, ValidationError
from .quadrature import power_at_origin, quad_complex, quad_cut

__all__ = [
    "check_beta",
    "sigma_clock",
    "radial_map",
    "j_beta",
    "j_beta_inverse",
    "i_map",
    "i_of_j_beta",
    "corollary1a_kernel",
    "smear_spectral",
    "smear_triplet",
]

# finite-difference step of j_beta_inverse
FD_STEP = 1e-5


def check_beta(beta: float) -> float:
    beta = float(beta)
    if not (math.isfinite(beta) and beta > 0):
        raise ValidationError(f"beta must be finite and > 0, got {beta}")
    return beta


# ---------------------------------------------------------------------------
# inner clock
# ---------------------------------------------------------------------------


def sigma_clock(beta: float, s):
    """Deterministic inner clock ``s + exp(-beta*s)/beta - 1/beta``.

    Vanishes at 0, is nondecreasing, and approaches ``s - 1/beta`` from
    above as s grows.
    """
    b = check_beta(beta)
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValidationError("clock argument must be >= 0")
    # expm1 keeps accuracy where s + (exp(-b s) - 1)/b nearly cancels
    out = s + np.expm1(-b * s) / b
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# spectral smearing (closed-form triplet route)
# ---------------------------------------------------------------------------


def _smear_segment(seg: DensitySegment, beta: float) -> DensitySegment:
    """Smear of one density: ``beta rho^(beta-1)`` times the integral of
    ``s^-beta g(s)`` over ``s > rho`` within the support, the inner
    integrals of a batch of radii one :func:`_segment_mass` call."""
    lo, hi = seg.lo, seg.hi

    def g_out(rho):
        rho = np.asarray(rho, dtype=float)
        out = np.zeros(rho.shape)
        inside = (rho > 0) & (rho < hi)
        r = rho[inside]
        if r.size:
            out[inside] = beta * r ** (beta - 1.0) * _segment_mass(seg, r, hi, -beta)
        return out

    p = seg.small_r_power
    return callable_segment(
        g_out,
        lo=0.0,
        hi=hi,
        small_r_power=beta - 1.0 if lo > 0 else (None if p is None else min(p, beta - 1.0)),
        # the smear never increases mass outside a neighborhood of zero
        tail_mass_finite=True if seg.tail_mass_finite else seg.tail_mass_finite,
        # its log moment is int_{s>1} g(s) (log s - (1 - s^-beta)/beta) ds,
        # finite exactly when the source's is
        log_tail=seg.log_tail,
        # the inner integral stops moving below the source's lower end
        kinks=(*seg.kinks, lo) if lo > 0 else seg.kinks,
    )


def smear_spectral(M: SpectralMeasure, beta: float) -> SpectralMeasure:
    """Spectral measure of the mapped law: ``A -> integral over t in (0,1)
    of M(t^{-1/beta} A)``, acting radius by radius.

    An atom ``(r0, w)`` becomes the radial density
    ``w beta r^{beta-1} / r0^beta`` on (0, r0]; a density ``g`` becomes
    ``beta rho^{beta-1}`` times the integral of ``s^{-beta} g(s)`` over
    ``s > rho`` within the support.
    """
    b = check_beta(beta)
    rays = []
    for ray in M.rays:
        segs = []
        for at in ray.atoms:
            segs.append(power_segment(at.w * b / at.r**b, b - 1.0, 0.0, at.r))
        segs += [_smear_segment(seg, b) for seg in ray.densities]
        rays.append(RadialComponent(ray.direction, atoms=(), densities=tuple(segs)))
    return SpectralMeasure(tuple(rays))


def smear_triplet(triplet: LevyTriplet, beta: float) -> LevyTriplet:
    """Closed-form triplet of the mapped law."""
    b = check_beta(beta)
    a_out = (b / (b + 1.0)) * (triplet.a + triplet.M.tail_power_vector(b))
    S_out = (b / (b + 2.0)) * triplet.S
    M_out = smear_spectral(triplet.M, b)
    return LevyTriplet(a_out, S_out, M_out)


# ---------------------------------------------------------------------------
# the batched radial transform
# ---------------------------------------------------------------------------


def radial_map(mu: IdMeasure, weight, power: float = 1.0):
    """Batched exponent ``y -> int_0^1 w(t) phi(t**power y) dt``.

    ``weight`` maps an array of ``t`` to ``w(t)`` (``None`` for 1).  A power
    below 1 leaves the integrand's derivative unbounded at 0, so the
    transform integrates over ``u = t**power`` instead, with the weight
    ``w(u**b) b u**(b-1)``, ``b = 1/power``; a power of at least 1 keeps
    the kernel ``t**power``, which is C^1 there.  With a weight bounded at
    0 the integrand is bounded, as ``phi(0) = 0``, and one
    :func:`idcalc.quadrature.quad_complex` call integrates it.  Against a
    weight that blows up there (``1/u``), a stable-like ``phi`` leaves an
    integrand ``~ u**q``, ``-1 < q < 0``: :func:`idcalc.quadrature.quad_cut`
    reads ``q`` off it and substitutes, as for a density from radius 0.

    The result is a :class:`idcalc.rays.RayFits` of this quadrature: it
    keeps fits of itself on the rays it is read on and answers its
    readers from them, or directly, by its per-ray rule.  So the integrand
    just reads ``phi`` at ``u y``, and a composite ``phi`` answers from its
    own fits.  Nothing is evaluated until the result is called.
    """
    src = mu.exponent
    if power < 1.0:
        b, w = 1.0 / power, weight
        weight = lambda u: b * u ** (b - 1.0) * (1.0 if w is None else w(u**b))
        power = 1.0
    unbounded = weight is not None and power_at_origin(
        lambda rows, t: weight(t), np.zeros(1, dtype=int), np.ones(1)
    )[0] < 0.0

    def phi(Y):
        def integrand(rows, t):
            u = t if power == 1.0 else t**power
            x = u[:, :, None] * Y[rows][:, None, :]
            f = src(x.reshape(-1, Y.shape[1])).reshape(t.shape)
            return f if weight is None else f * weight(t)

        where = lambda i: f" of the radial transform at y={Y[i].tolist()}"
        if unbounded:
            return quad_cut(integrand, np.zeros(len(Y)), 1.0, where=where)
        return quad_complex(integrand, 0.0, 1.0, len(Y), where)

    return batched_exponent(rays.RayFits(batched_exponent(phi)))


# ---------------------------------------------------------------------------
# the mappings on exponents
# ---------------------------------------------------------------------------


def _random_integral(mu: IdMeasure, name: str, weight, power: float = 1.0,
                     gate: Optional[str] = None) -> IdMeasure:
    """The law of a random integral against ``dY_mu``, labelled
    ``name(mu.label)``: its exponent is :func:`radial_map` of the
    integral's weight and kernel power.  A ``gate`` names a mapping that
    requires a finite log moment (``mu.log_moment_known``, or its
    triplet's when unset) and says nothing of its output's; otherwise the
    output carries the source's flag, which the mapping preserves in both
    directions."""
    flag = _log_moment_flag(mu)
    if gate is not None and flag is not True:
        why = (f"that of {mu.label} is infinite" if flag is False else
               f"unknown for {mu.label} (set log_moment_known=True on the measure to override)")
        raise DomainError(f"{gate} requires a finite log moment; {why}")
    return IdMeasure(
        dim=mu.dim,
        exponent=radial_map(mu, weight, power),
        log_moment_known=None if gate is not None else flag,
        label=f"{name}({mu.label})",
    )


def j_beta(mu: IdMeasure, beta: float) -> IdMeasure:
    """Generalized shrinking mapping at index ``beta``: the integral of
    ``phi(t**(1/beta) y)`` over t in (0, 1).

    The result carries no triplet; :func:`smear_triplet` is the closed-form
    route.  Its log-moment flag is the source's, read from the source
    triplet when unset.
    """
    b = check_beta(beta)
    return _random_integral(mu, f"jbeta[{b:g}]", None, 1.0 / b)


def j_beta_inverse(mu: IdMeasure, beta: float) -> IdMeasure:
    """Inverse of :func:`j_beta` on exponents.

    Recovers ``phi_nu(y)`` as the derivative at s = 1 of
    ``s * phi_mu(s**(1/beta) y)``, by central differences of step
    ``FD_STEP`` with one Richardson extrapolation level; the four points
    go to ``mu`` as one batch, which a composite ``mu`` answers from its
    fits.  No triplet is produced; the log-moment flag is the source's,
    as for :func:`j_beta`.
    """
    b = check_beta(beta)
    src = mu.exponent
    s = 1.0 + FD_STEP * np.array([1.0, -1.0, 0.5, -0.5])
    scale = s ** (1.0 / b)

    def phi(Y):
        g = s[:, None] * src((scale[:, None, None] * Y).reshape(-1, Y.shape[1])).reshape(4, -1)
        d1 = (g[0] - g[1]) / (2.0 * FD_STEP)
        d2 = (g[2] - g[3]) / FD_STEP
        return (4.0 * d2 - d1) / 3.0

    return IdMeasure(
        dim=mu.dim,
        exponent=batched_exponent(phi),
        log_moment_known=_log_moment_flag(mu),
        label=f"jbeta-inv[{b:g}]({mu.label})",
    )


def i_map(mu: IdMeasure) -> IdMeasure:
    """Selfdecomposability mapping: exponential kernel over (0, inf).

    Exponent: integral over u in (0, 1] of ``phi(u y)/u``, from 0.

    Requires a finite log moment: ``mu.log_moment_known``, or its
    triplet's when unset.
    """
    return _random_integral(mu, "imap", lambda u: 1.0 / u, gate="i_map")


def i_of_j_beta(mu: IdMeasure, beta: float) -> IdMeasure:
    """Composition of ``i_map`` after ``j_beta`` in a single quadrature.

    Exponent: integral over u in (0, 1) of
    ``phi(u y) (u**-1 - u**(beta-1))``, the inner-clock form; used to
    cross-validate the two-stage composition.
    """
    b = check_beta(beta)
    return _random_integral(mu, f"i-of-jbeta[{b:g}]", lambda u: 1.0 / u - u ** (b - 1.0),
                            gate="i_of_j_beta")


def corollary1a_kernel(mu: IdMeasure, beta: float) -> IdMeasure:
    """Law of the integral of ``(1 - sqrt(t))**(1/beta)`` against ``dY(t)``.

    Exponent: after v = 1 - sqrt(t), the integral of
    ``2 (1 - v) phi(v**(1/beta) y)`` over v in (0, 1).  Equals the
    twice-applied shrinking map at indices beta then 2*beta, which is a
    tested identity.  The log-moment flag is the source's, as for
    :func:`j_beta`.
    """
    b = check_beta(beta)
    return _random_integral(mu, f"cor1a-kernel[{b:g}]", lambda v: 2.0 * (1.0 - v), 1.0 / b)
