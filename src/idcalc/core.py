"""Types and exact algebra for infinitely divisible measures.

A law is represented by its generating triplet -- shift vector ``a``,
Gaussian covariance ``S``, and spectral jump measure ``M`` -- and/or by
its characteristic exponent ``Phi``, the distinguished logarithm of the
characteristic function:

    Phi(y) = i<y, a> - <y, S y>/2
             + integral of [exp(i<y, x>) - 1 - i<y, x> 1{||x|| <= 1}] M(dx).

All calculus in this package happens on exponents; characteristic
function values are only ever produced by exponentiating, never by
taking logs, so no branch-cut choices arise.

Spectral measures are stored as finite collections of rays: a unit
direction together with radial atoms and radial density segments.  The
random-integral mappings act radially, so this family is closed under
every transform in the package.

The compensator truncation set is the *closed* unit ball; an atom at
radius exactly 1 is compensated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import QuadratureError, ValidationError
from .quadrature import ROW_CAP, power_at_origin, quad_cut

UNIT_BALL_RADIUS = 1.0

__all__ = [
    "UNIT_BALL_RADIUS",
    "RadialAtom",
    "DensitySegment",
    "power_segment",
    "exp_segment",
    "callable_segment",
    "scale_segment",
    "RadialComponent",
    "SpectralMeasure",
    "LevyTriplet",
    "IdMeasure",
    "batched_exponent",
    "SpectralCheck",
    "char_exponent",
    "validate_spectral",
    "log_moment",
    "convolve",
    "conv_power",
    "default_grid",
]


def _as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValidationError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValidationError(f"expected dimension {dim}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("vector has non-finite components")
    return v


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# spectral measure building blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialAtom:
    """Point mass of weight ``w`` at radius ``r > 0`` along a ray."""

    r: float
    w: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValidationError(f"atom radius must be finite and > 0, got {self.r}")
        if not (math.isfinite(self.w) and self.w > 0):
            raise ValidationError(f"atom weight must be finite and > 0, got {self.w}")


@dataclass(frozen=True)
class DensitySegment:
    """Radial density ``g(r) >= 0`` supported on ``(lo, hi)``.

    ``fn`` maps an array of radii to the array of density values, as an
    exponent maps a batch of frequencies: every radial integral evaluates
    it on whole panels of quadrature nodes.  ``kind`` tags densities with
    a closed form ("power", "exp") so that integrability questions can be
    answered symbolically.  Generic callables may carry analytic hints
    instead:

    * ``small_r_power`` -- p such that g(r) ~ C r^p as r -> 0 (only
      meaningful when lo == 0; radial integrals from the origin read the
      density off at two small radii when it is absent),
    * ``tail_mass_finite`` -- whether the mass on (1, hi) is finite,
    * ``log_tail`` -- "finite"/"divergent" for the integral of
      log(r) g(r) over the tail beyond radius 1.

    ``kinks`` lists interior radii where ``g`` is not smooth (a smeared
    density bends where its source support starts); radial integrals
    split there.

    A hint vouches only for the end it describes: :func:`validate_spectral`
    integrates min(1, r^2) against a callable density once, over all of
    its support but a tail declared finite, and reports an integral that
    does not converge, never asserting divergence.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    kind: str = "callable"
    coef: Optional[float] = None
    exponent: Optional[float] = None
    rate: Optional[float] = None
    small_r_power: Optional[float] = None
    tail_mass_finite: Optional[bool] = None
    log_tail: Optional[str] = None
    kinks: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "kinks", tuple(self.kinks))
        if not (self.lo >= 0 and self.hi > self.lo):
            raise ValidationError(
                f"segment support must satisfy 0 <= lo < hi, got ({self.lo}, {self.hi})"
            )
        if self.log_tail not in (None, "finite", "divergent"):
            raise ValidationError(f"unknown log_tail hint {self.log_tail!r}")
        if self.exponent is not None and not math.isfinite(self.exponent):
            raise ValidationError(f"density exponent must be finite, got {self.exponent}")


def power_segment(coef: float, exponent: float, lo: float, hi: float) -> DensitySegment:
    """Density ``coef * r**exponent`` on ``(lo, hi)``: :func:`exp_segment`
    at rate 0."""
    return _closed_segment(coef, exponent, 0.0, lo, hi)


def exp_segment(coef: float, exponent: float, rate: float, lo: float, hi: float) -> DensitySegment:
    """Density ``coef * r**exponent * exp(-rate*r)`` on ``(lo, hi)``."""
    if not (math.isfinite(rate) and rate > 0):
        raise ValidationError(f"rate must be > 0, got {rate}")
    return _closed_segment(coef, exponent, rate, lo, hi)


def _closed_segment(coef, exponent, rate, lo, hi) -> DensitySegment:
    """The ``exp`` segment, or at rate 0 the ``power`` one; its hints are
    its parameters."""
    if not (math.isfinite(coef) and coef >= 0):
        raise ValidationError(f"coefficient must be >= 0, got {coef}")
    tail_ok = rate > 0 or math.isfinite(hi) or exponent < -1
    return DensitySegment(
        fn=(lambda r, c=coef, p=exponent, lam=rate: c * r**p * np.exp(-lam * r)) if rate
        else (lambda r, c=coef, p=exponent: c * r**p),
        lo=lo,
        hi=hi,
        kind="exp" if rate else "power",
        coef=coef,
        exponent=exponent,
        rate=rate or None,
        small_r_power=exponent,
        tail_mass_finite=tail_ok,
        log_tail="finite" if tail_ok else "divergent",
    )


def callable_segment(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    small_r_power: Optional[float] = None,
    tail_mass_finite: Optional[bool] = None,
    log_tail: Optional[str] = None,
    kinks: Sequence[float] = (),
) -> DensitySegment:
    """Generic density segment with optional analytic hints; ``fn`` maps
    an array of radii to an array of density values."""
    return DensitySegment(
        fn=fn,
        lo=lo,
        hi=hi,
        kind="callable",
        small_r_power=small_r_power,
        tail_mass_finite=tail_mass_finite,
        log_tail=log_tail,
        kinks=kinks,
    )


def scale_segment(seg: DensitySegment, c: float) -> DensitySegment:
    """Segment for the density ``c * g``, preserving closed forms and hints."""
    if c <= 0 or not math.isfinite(c):
        raise ValidationError(f"scale factor must be positive and finite, got {c}")
    if seg.kind != "callable":
        return _closed_segment(c * seg.coef, seg.exponent, seg.rate or 0.0, seg.lo, seg.hi)
    return replace(seg, fn=lambda r, g=seg.fn, c=c: c * g(r))


def _segment_integral(seg: DensitySegment, a, b, weight=None, where=lambda i: ""):
    """Integrals ``(n,)``, complex, of ``weight(rows, r) g(r)`` (``g`` for
    ``None``) over ``(a_i, b_i)`` clipped to the support: every quadrature
    over a density segment is one call of
    :func:`idcalc.quadrature.quad_cut`, cut at radius 1 and the kinks.  A
    piece from 0 takes the power of its integrand from ``small_r_power``
    plus the weight's power, read off the weight alone; only a segment
    without the hint has its density read off.  A row that does not
    converge raises :class:`QuadratureError`, described by ``where(i)``.
    """
    a, b = np.maximum(a, seg.lo), np.minimum(b, seg.hi)
    g, p = seg.fn, seg.small_r_power
    if weight is None:
        f, power = (lambda rows, r: g(r)), (None if p is None else lambda rows, r0: p)
    else:
        f = lambda rows, r: weight(rows, r) * g(r)
        power = None if p is None else (lambda rows, r0: p + power_at_origin(weight, rows, r0))
    return quad_cut(f, a, b, (UNIT_BALL_RADIUS, *seg.kinks), power, where)


def _segment_mass(seg: DensitySegment, a, b, weight=None) -> np.ndarray:
    """Real :func:`_segment_integral` of ``weight(r)`` (1 for ``None``) on
    ``(a_i, b_i)``; a clipped lower end of 0 must leave the integrand
    integrable.  One that does not converge raises :class:`QuadratureError`:
    a numerical failure, not a proof of infinite mass.  A ``power`` or
    ``exp`` segment's own mass is a closed form where it is finite."""
    if weight is None and seg.kind != "callable":
        mass = _closed_mass(seg, a, b)
        if np.isfinite(mass).all():
            return mass
    w = None if weight is None else (lambda rows, r: weight(r))
    return _segment_integral(seg, a, b, w).real


def _closed_mass(seg: DensitySegment, a, b) -> np.ndarray:
    """``c int r^(q-1) e^(-rate r) dr``, ``q = exponent + 1``, over each ``(a_i,
    b_i)`` clipped to the support: ``inf`` where it diverges."""
    a = np.atleast_1d(np.maximum(a, seg.lo))
    b, q = np.maximum(np.minimum(b, seg.hi), a), seg.exponent + 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if seg.rate:  # _power_exp's series from 0 needs q > 0
            m = np.where((a > 0.0) | (q > 0.0), _power_exp(q, seg.rate, a, b).real, np.inf)
        else:
            L = np.log(b / a)
            m = L if q == 0.0 else b**q * -np.expm1(-q * L) / q
            m = np.where(np.isinf(b), -(a**q) / q if q < 0.0 else np.inf, m)
    return seg.coef * m


# ---------------------------------------------------------------------------
# rays and spectral measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialComponent:
    """One ray of a spectral measure: unit direction plus radial content."""

    direction: np.ndarray
    atoms: tuple[RadialAtom, ...] = ()
    densities: tuple[DensitySegment, ...] = ()

    def __post_init__(self):
        d = _as_vector(self.direction)
        norm = float(np.linalg.norm(d))
        if norm <= 0 or abs(norm - 1.0) > 1e-9:
            raise ValidationError(f"ray direction must be a unit vector, got norm {norm}")
        object.__setattr__(self, "direction", _freeze(d / norm))
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "densities", tuple(self.densities))

    @property
    def dim(self) -> int:
        return self.direction.size


@dataclass(frozen=True)
class SpectralMeasure:
    """Levy spectral measure as a finite union of rays."""

    rays: tuple[RadialComponent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(self.rays))
        dims = {ray.dim for ray in self.rays}
        if len(dims) > 1:
            raise ValidationError(f"rays disagree on dimension: {sorted(dims)}")

    @property
    def dim(self) -> Optional[int]:
        return self.rays[0].dim if self.rays else None

    @property
    def is_empty(self) -> bool:
        return not self.rays or all(
            not ray.atoms and not ray.densities for ray in self.rays
        )

    def merged(self, other: "SpectralMeasure") -> "SpectralMeasure":
        return SpectralMeasure(self.rays + other.rays)

    def scaled(self, c: float) -> "SpectralMeasure":
        rays = tuple(
            RadialComponent(
                ray.direction,
                tuple(RadialAtom(at.r, c * at.w) for at in ray.atoms),
                tuple(scale_segment(seg, c) for seg in ray.densities),
            )
            for ray in self.rays
        )
        return SpectralMeasure(rays)

    # -- radial integrals used by the calculus and the sampler ------------

    def ray_integral(self, ray_index: int, a, b, weight: Optional[Callable] = None):
        """Integral of ``weight(r)`` (1 when ``None``) over the radii in
        ``(a, b]`` of one ray: its atoms, then its density segments.  For
        arrays of ends, the integrals over each ``(a_i, b_i]``, with each
        segment's intervals integrated in one call."""
        ray = self.rays[ray_index]
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        shape, a, b = a.shape, a.ravel(), b.ravel()
        total = np.zeros(a.size)
        for at in ray.atoms:
            w = at.w if weight is None else at.w * weight(at.r)
            total += np.where((a < at.r) & (at.r <= b), w, 0.0)
        for seg in ray.densities:
            total += _segment_mass(seg, a, b, weight)
        return float(total[0]) if not shape else total.reshape(shape)

    def interval_mass(self, ray_index: int, r1: float, r2: float) -> float:
        """Mass of the radial interval ``(r1, r2]`` on one ray."""
        return self.ray_integral(ray_index, r1, r2)

    def mass_above(self, eps: float) -> float:
        """Total mass at radii greater than ``eps``."""
        return sum(self.ray_integral(i, eps, math.inf) for i in range(len(self.rays)))

    def mean_between(self, eps: float) -> np.ndarray:
        """Vector integral of ``x`` over ``eps < ||x|| <= UNIT_BALL_RADIUS``."""
        out = np.zeros(self.dim or 1)
        for i, ray in enumerate(self.rays):
            out += self.ray_integral(i, eps, UNIT_BALL_RADIUS, lambda r: r) * ray.direction
        return out

    def second_moment_below(self, eps: float) -> np.ndarray:
        """Matrix integral of ``x x^T`` over ``0 < ||x|| <= eps``."""
        d = self.dim or 1
        out = np.zeros((d, d))
        for i, ray in enumerate(self.rays):
            out += self.ray_integral(i, 0.0, eps, lambda r: r * r) * np.outer(
                ray.direction, ray.direction
            )
        return out

    def tail_power_vector(self, beta: float) -> np.ndarray:
        """Vector integral of ``x ||x||^(-1-beta)`` over ``||x|| > 1``."""
        out = np.zeros(self.dim or 1)
        for i, ray in enumerate(self.rays):
            out += self.ray_integral(i, 1.0, math.inf, lambda r: r**-beta) * ray.direction
        return out


# ---------------------------------------------------------------------------
# validation and log-moment checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralCheck:
    ok: bool
    violations: tuple[str, ...] = ()

    def describe(self) -> str:
        return "ok" if self.ok else "; ".join(self.violations)


def _segment_violation(seg: DensitySegment) -> Optional[str]:
    """Why the min(1, r^2) integral of one segment is not finite, if it is
    not.  A hint decides only what it states: ``small_r_power <= -3`` from
    radius 0 and ``tail_mass_finite`` False on an unbounded support are
    violations; a ``power`` or ``exp`` segment, whose hints are its
    parameters and whose density is continuous, is otherwise valid.  A
    callable one is integrated once, up to ``max(lo, 1)`` when its hint
    vouches for an unbounded tail, and a failure to converge is the
    violation."""
    p, tail = seg.small_r_power, seg.tail_mass_finite
    if seg.lo == 0 and p is not None and p <= -3:
        return f"min(1, r^2) integral diverges at 0: density ~ r^{p:g} needs exponent > -3"
    if math.isinf(seg.hi) and tail is False:
        return "infinite mass on the tail (declared by segment metadata)"
    if seg.kind != "callable":
        return None
    top = max(seg.lo, UNIT_BALL_RADIUS) if math.isinf(seg.hi) and tail else seg.hi
    try:
        _segment_mass(seg, np.array([seg.lo]), np.array([top]), lambda r: np.minimum(1.0, r * r))
    except QuadratureError as err:
        return f"min(1, r^2) integral on ({seg.lo:g}, {top:g}) failed: {err}"
    return None


def validate_spectral(M: SpectralMeasure) -> SpectralCheck:
    """Check the Levy condition, a finite min(1, r^2) radial integral on
    every density segment (Sato 1999, Thm 8.1); atoms always meet it.
    Returns a result instead of raising.
    """
    violations = tuple(
        f"ray {i} density {j}: {v}"
        for i, ray in enumerate(M.rays)
        for j, seg in enumerate(ray.densities)
        if (v := _segment_violation(seg))
    )
    return SpectralCheck(ok=not violations, violations=violations)


def log_moment(M: SpectralMeasure) -> Optional[bool]:
    """Whether ``log ||x||`` has a finite integral over ``||x|| > 1``
    against ``M``: True, False, or None when that is unknown.

    Atoms and bounded segments have a finite one, as ``M`` is a Levy
    measure.  An unbounded segment's ``log_tail`` hint decides it; every
    ``power`` and ``exp`` segment and every smear of a hinted one has the
    hint.  A segment without it is integrated once, and an integral that
    does not converge gives None, never a proof of divergence.
    """
    tails = [seg for ray in M.rays for seg in ray.densities if math.isinf(seg.hi)]
    if any(seg.log_tail == "divergent" for seg in tails):
        return False
    try:
        for seg in tails:
            if seg.log_tail is None:
                _segment_integral(seg, np.ones(1), math.inf, lambda rows, r: np.log(r))
    except QuadratureError:
        return None
    return True


# ---------------------------------------------------------------------------
# triplets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyTriplet:
    """Generating triplet ``[a, S, M]`` of an infinitely divisible law."""

    a: np.ndarray
    S: np.ndarray
    M: SpectralMeasure = field(default_factory=SpectralMeasure)

    def __post_init__(self):
        a = _as_vector(self.a)
        S = np.asarray(self.S, dtype=float)
        if S.shape != (a.size, a.size):
            raise ValidationError(
                f"covariance shape {S.shape} does not match dimension {a.size}"
            )
        if not np.all(np.isfinite(S)):
            raise ValidationError("covariance has non-finite entries")
        scale = max(float(np.abs(S).max()), 1.0)
        if float(np.abs(S - S.T).max()) > 1e-12 * scale:
            raise ValidationError("covariance is not symmetric")
        eigs = np.linalg.eigvalsh(0.5 * (S + S.T))
        floor = -1e-12 * max(float(np.trace(S)), 0.0)
        if eigs.min() < floor - 1e-300:
            raise ValidationError(
                f"covariance is not positive semi-definite (min eigenvalue {eigs.min():.3e})"
            )
        if self.M.dim is not None and self.M.dim != a.size:
            raise ValidationError(
                f"spectral dimension {self.M.dim} does not match {a.size}"
            )
        check = validate_spectral(self.M)
        if not check.ok:
            raise ValidationError(f"invalid spectral measure: {check.describe()}")
        object.__setattr__(self, "a", _freeze(a))
        object.__setattr__(self, "S", _freeze(S))

    @property
    def dim(self) -> int:
        return self.a.size


def _atom_terms(r, c) -> np.ndarray:
    """``exp(i r c) - 1 - i r c 1{r <= 1}``, the compensated jump term on
    a ray, with ``r`` and ``c`` broadcast.  ``cos x - 1 = -2 sin^2(x/2)``,
    and ``sin x - x`` from its Taylor series where ``|x| < 1``, keep small
    ``x = r c`` free of cancellation."""
    x = np.asarray(r * c, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    h = np.sin(0.5 * x)
    out.real = -2.0 * h * h
    out.imag = np.sin(x)
    near = (np.abs(x) < 1.0) & (r <= UNIT_BALL_RADIUS)
    far = (r <= UNIT_BALL_RADIUS) & ~near
    out.imag[far] -= x[far]
    s = x[near]
    s2, series = s * s, 1.0
    for k in range(19, 3, -2):  # Horner over the terms s^3 .. s^19
        series = 1.0 - s2 / (k * (k - 1)) * series
    out.imag[near] = -(s**3) / 6.0 * series
    return out


def _as_batch(y, dim: int) -> np.ndarray:
    """Frequencies as an ``(n, dim)`` array of finite values."""
    Y = np.asarray(y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != dim:
        raise ValidationError(f"expected frequencies of shape (n, {dim}), got {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise ValidationError("frequencies have non-finite components")
    return Y


def _as_grid(grid, dim: int) -> np.ndarray:
    """A grid of frequencies as ``(n, dim)`` finite values: ``None`` is
    :func:`default_grid`, and a 1-d array is a column when ``dim`` is 1.
    Any other shape, or a non-finite entry, raises ValidationError."""
    if grid is None:
        return default_grid(dim)
    Y = np.asarray(grid, dtype=float)
    return _as_batch(Y[:, None] if Y.ndim == 1 and dim == 1 else Y, dim)


def char_exponent(triplet: LevyTriplet, y):
    """Characteristic exponent of a triplet at frequency ``y``.

    ``y`` is one ``(dim,)`` vector (returns a complex) or a batch
    ``(n, dim)`` (returns ``(n,)`` complex).  Shift, Gaussian and atom
    terms are evaluated on the whole batch.  A ``power`` or ``exp``
    density's term is in closed form (:func:`_density_exponent`), on any
    support and at any frequency.  A callable density's term is one
    segment integral, as masses are, of the jump term ``exp(i r c) - 1 -
    i r c 1{r <= 1}`` of every projection ``c``, cut at radius 1 and the
    kinks, to an error of ``max(1e-14, 1e-10 |value|)``: its piece from 0 is
    substituted by its ``small_r_power`` plus 2, and an unbounded support
    is integrated on growing cutoffs until the increments settle, and
    raises :class:`QuadratureError` when they do not.
    """
    one = np.ndim(y) != 2
    Y = _as_vector(y, triplet.dim)[None, :] if one else _as_batch(y, triplet.dim)
    val = 1j * (Y @ triplet.a) - 0.5 * ((Y @ triplet.S) * Y).sum(axis=1)
    for k, ray in enumerate(triplet.M.rays):
        c = Y @ ray.direction
        for at in ray.atoms:
            val += at.w * _atom_terms(at.r, c)
        rows = np.flatnonzero(c != 0.0)
        c = c[rows]
        jump = lambda i, r: _atom_terms(r, c[i, None])
        for seg in ray.densities:
            if seg.kind in ("power", "exp"):
                val[rows] += _density_exponent(seg, c)
                continue
            where = f" of ray {k}'s {seg.kind} density on ({seg.lo:g}, {seg.hi:g}) at y="
            val[rows] += _segment_integral(seg, np.zeros(c.size), math.inf, jump,
                                           lambda i: where + str(Y[rows[i]].tolist()))
    return complex(val[0]) if one else val


# closed-form density exponents: r^(q-1) e^(-zr) is integrated term by term where
# (|z| + Re z) r <= _REACH (the terms' moduli add up to at most e^_REACH times the
# sum), through Gamma(q, zr) beyond; the powers _N leave out under 4^34/34! < 4e-18
_REACH, _N = 4.0, np.arange(34)
_FACT = np.cumprod(np.r_[1.0, _N[1:]])


def _taylor(x) -> np.ndarray:
    """``x^k / k!`` for ``k`` in ``_N``, a row for each value of ``x``."""
    t = np.ones((x.size, _N.size), dtype=x.dtype)
    np.divide(x[:, None], _N[1:], out=t[:, 1:])
    return np.cumprod(t, axis=1, out=t)


def _series(t, q, a, b) -> np.ndarray:
    """``sum_n t_n b^-n int_a^b r^(q+n-1) dr`` for rows of ``t``, ``q`` and ``0
    <= a <= b < inf``; ``expm1`` keeps the digits of ``q + n`` near 0."""
    Q = np.asarray(q)[..., None] + _N[: t.shape[1]]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        L = np.log(a / b)[..., None]
        pd = 1.0 / Q if np.all(a == 0) else np.where(Q == 0, -L, -np.expm1(Q * L) / Q)
        return b**q * (t * pd).sum(1)


def _gamma_upper(s, w):
    """``(g, low)``, ``Gamma(s, w) = g + low Gamma(s)``, for real ``s``, ``Re w
    >= 0``, ``|w| >= 1`` (*Numerical Recipes*, 3rd ed., 5.2, 6.2): Legendre's
    continued fraction (DLMF 8.9.2) by modified Lentz where ``|w| >= s - 1``,
    else ``g = -w^s e^-w sum_n w^n / (s (s+1) ... (s+n))`` (DLMF 8.7.1).  A
    call's steps cost the same for one argument as for many."""
    s0, (s, w) = s, np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(w, dtype=complex))
    low = np.abs(w) < s - 1.0
    out, idx = np.empty(w.shape, dtype=complex), np.flatnonzero(~low)
    q = s[~low] if np.ndim(s0) else s0  # one s: a scalar recurrence
    b = w[~low] + 1.0 - q
    h = d = 1.0 / np.where(b == 0.0, 1e-300, b)
    c = np.full(idx.size, 1e300, dtype=complex)
    for k in range(1, 2000):
        if not idx.size:
            break
        b, an = b + 2.0, k * (q - k)
        d, c = 1.0 / (b + an * d), b + an / c
        step = c * d
        h = h * step
        if k % 4 == 0 and (done := np.abs(step - 1.0) <= 4.5e-16).any():
            out[idx[done]], live = h[done], ~done
            idx, b, c, d, h = idx[live], b[live], c[live], d[live], h[live]
            q = q[live] if np.ndim(q) else q
    else:
        raise QuadratureError(f"continued fraction of Gamma(s, w) did not settle at w={w[idx[0]]}")
    q, x = s[low], w[low]
    term = total = 1.0 / q
    for n in range(1, 2000):
        if not (np.abs(term) > 2.2e-16 * np.abs(total)).any():
            break
        term = term * x / (q + n)
        total = total + term
    out[low] = -total
    return out * np.exp(s * np.log(w) - w), low


def _power_exp(q, z, a, b) -> np.ndarray:
    """``int_a^b r^(q-1) e^(-zr) dr`` for rows of ``q``, ``Re z >= 0`` and ``0
    <= a <= b <= inf`` (``b`` finite if ``z = 0``): term by term up to ``r0 =
    _REACH / (|z| + Re z)``, and ``z^-q (Gamma(q, z r0) - Gamma(q, z b))``
    beyond (principal branch): moments, tails and smears."""
    q, z, a, b = np.broadcast_arrays(q, np.atleast_1d(np.asarray(z, dtype=complex)), a, b)
    with np.errstate(divide="ignore"):
        r0 = np.clip(_REACH / (np.abs(z) + z.real), a, b)
    out = np.zeros(z.shape, dtype=complex)
    i = np.flatnonzero(a < r0)
    out[i] = _series(_taylor(-z[i] * r0[i]), q[i], a[i], r0[i])
    i = np.flatnonzero(r0 < b)
    if not i.size:
        return out
    fin = i[np.isfinite(b[i])]  # Gamma(q, inf) = 0
    g, low = _gamma_upper(np.r_[q[i], q[fin]], np.r_[z[i] * r0[i], z[fin] * b[fin]])
    j, low = np.searchsorted(i, fin), low.astype(float)
    g[j], low[j] = g[j] - g[i.size :], low[j] - low[i.size :]
    k = np.flatnonzero(low[: i.size])
    g[k] += low[k] * [math.gamma(v) for v in q[i[k]]]
    out[i] += z[i] ** -q[i] * g[: i.size]
    return out


@functools.lru_cache(maxsize=256)
def _piece(s: float, lam: float, a: float, b: float, k0: int) -> tuple:
    """What the rows of a piece ``(a, b)`` of :func:`_density_exponent` share,
    kept for later calls: the near cut ``h``; Horner coefficients in ``(c/h)^2``
    of the moments ``h^k int_a^b r^(s+k-1) e^(-lam r) dr / k!``, ``k >= k0`` (in
    units of ``l = b`` where ``lam b <= 2``, else ``1 / lam``); ``R`` and the
    parts of ``int_r0^b r^(q-1) e^(-lam r) dr``, ``q = s, s+1``, free of ``r0``;
    the far rows' jump series from 0 (its coefficients, for ``power`` its value
    at ``icr0 = 4i``); and ``Gamma(s, -4i)`` as ``(g, low)`` for ``power``."""
    fit = math.isfinite(b) and lam * b <= 2.0
    h, l = (_REACH / b, b) if fit else (lam / (4.0 + max(s, 0.0)), 1.0 / (lam or 1.0))
    m, k = np.zeros(_N.size), _N[k0:]
    if h > 0.0:  # a power tail has no near rows
        m[k0:] = (h * l) ** k * l**s * _power_exp(s + k, lam * l, a / l, b / l).real / _FACT[k0:]
    m *= (-1.0) ** (_N // 2)  # the sign of i^k, a factor i aside for odd k
    R, tails, jump = min(max(2.0 / lam, a), b) if lam else b, {}, 1.0 / (_FACT[2:] * (s + _N[2:]))
    for q in (s, s + 1.0):  # int_R^b, and (-lam)^k (R^(q+k) - r0^(q+k)) / (k! (q+k)) over k
        ks, p = max(0, round(-q)) if lam else 0, np.zeros(1)
        if lam and R > a:  # Horner in -lam r0 for k != k*, the k nearest -q
            p = np.divide(1.0, _FACT * (q + _N), out=np.zeros(_N.size), where=_N != ks)[::-1]
        tail = _power_exp(q, lam, R, b).real[0] if lam and R < b else 0.0
        C = tail + (R**q * np.polyval(p, -lam * R) if lam else 0.0)
        tails[q] = C, p, q + ks, (-lam) ** ks / _FACT[ks]
    if lam:
        return h, m[-2::-2], m[::-2], R, tails, (jump[::-1], (jump * _N[2:])[::-1]), (0j, 0.0)
    g, low = _gamma_upper(s, np.array([-_REACH * 1j]))
    return h, m[-2::-2], m[::-2], R, tails, (_REACH * 1j) ** _N[2:] @ jump, (g[0], float(low[0]))


def _density_exponent(seg: DensitySegment, c: np.ndarray) -> np.ndarray:
    """``int coef r^(s-1) e^(-lam r) (e^(icr) - 1 - icr 1{r <= 1}) dr`` of a
    ``power`` (``lam = 0``) or ``exp`` segment, rows of ``c != 0``, on its
    pieces inside and beyond radius 1, with the constants of :func:`_piece`.
    Rows with ``|c| <= h`` sum the Taylor series in ``c`` of the moments as two
    real Horner sums.  The others sum the jump term's series up to ``r0 =
    _REACH / (|c| + 2 lam)`` (from 0 by Horner, else by :func:`_series`) less
    ``int_r0^b r^(s-1) e^(-lam r) (1 + icr 1{r <= 1}) dr`` (by Horner in ``lam
    r0`` up to ``R = 2 / lam``), where ``|c| r >= 4/9 _REACH`` keeps the three
    from cancelling.  A row far inside radius 1 is far beyond it from ``r0 =
    1``, so each far row adds one ``z^-s (Gamma(s, z r0) - Gamma(s, z hi))``,
    ``z = lam - ic``, from its first ``r0``: all rows in one :func:`_gamma_upper`
    call, bar a ``power`` row's cached ``z r0 = -+4i``."""
    s, lam, hi = seg.exponent + 1.0, seg.rate or 0.0, seg.hi
    out, start = np.zeros(c.size, dtype=complex), np.full(c.size, np.inf)
    cached = np.zeros(c.size, dtype=bool)
    for a, b, k0 in ((seg.lo, min(hi, UNIT_BALL_RADIUS), 2),
                     (max(seg.lo, UNIT_BALL_RADIUS), hi, 1)):
        if a >= b:
            continue
        h, even, odd, R, tails, jump, four = _piece(s, lam, a, b, k0)
        near = np.abs(c) <= (min(h, _REACH / a) if a > 0.0 else h)
        if near.any():
            x = c[near] / h
            out[near] += np.polyval(even, x * x) + 1j * x * np.polyval(odd, x * x)
        if not (i := np.flatnonzero(~near)).size:
            continue
        ci, r0 = c[i], np.clip(_REACH / (np.abs(c[i]) + 2.0 * lam), a, b)
        ic, v, L, first = 1j * ci, -lam * r0, np.log(R / r0), np.isinf(start[i])
        start[i[first]], cached[i[first]] = r0[first], (r0[first] > a) & (lam == 0.0)
        val = np.zeros(i.size, dtype=complex)
        for q, f in ((s, 1.0), (s + 1.0, ic))[:k0]:
            C, p, e, gam = tails[q]  # (R^e - r0^e) / e from its larger end, then the rest
            d = -R**e * np.expm1(-e * L) if e > 0.0 else r0**e * np.expm1(e * L)
            val -= f * (C - r0**q * np.polyval(p, v) + gam * (d / e if e else L))
        if a == 0.0 and lam == 0.0:
            val += r0**s * np.where(ci > 0, jump, np.conj(jump))
        elif a == 0.0:
            x, w, (qc, rc) = (ic - lam) * r0, ic * r0, jump
            val += r0**s * x * x * np.polyval(qc, x)
            val -= r0**s * v * (v * np.polyval(qc, v) + w * np.polyval(rc, v))
        elif (k := np.flatnonzero(a < r0)).size:
            e = _taylor(v[k]) if lam else np.eye(1, _N.size)
            t = _taylor((ic[k] - lam) * r0[k]) - e
            if k0 == 2:
                t[:, 1:] -= (ic[k] * r0[k])[:, None] * e[:, :-1]
            val[k] += _series(t[:, k0:], s + k0, a, r0[k]) * r0[k] ** -k0
        out[i] += val
    if (f := np.flatnonzero(start < np.inf)).size:
        z, cut, n = lam - 1j * c[f], cached[f], np.count_nonzero(~cached[f])
        g, low = _gamma_upper(s, np.r_[z[~cut] * start[f[~cut]], z * hi if hi < np.inf else []])
        up, lows = np.where(c[f] > 0, four[0], np.conj(four[0])), np.full(f.size, four[1])
        up[~cut], lows[~cut] = g[:n], low[:n]
        if g.size > n:
            up, lows = up - g[n:], lows - low[n:]
        if (k := np.flatnonzero(lows)).size:
            up[k] += lows[k] * math.gamma(s)
        out[f] += z**-s * up
    return seg.coef * out


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def batched_exponent(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Exponent evaluator from ``fn``, which maps ``Y (n, dim)`` to ``(n,)``
    complex values: the package's one exponent contract.

    The evaluator also takes one ``(dim,)`` vector and returns a complex,
    and hands ``fn`` at most ``ROW_CAP`` rows per call, so that nested
    transforms keep a fixed working set.  ``fn`` may be a
    :class:`idcalc.rays.RayFits`, which answers from fits on rays.
    """

    def exponent(y):
        Y = np.asarray(y, dtype=float)
        if Y.ndim == 1:
            return complex(fn(Y[None, :])[0])
        if len(Y) <= ROW_CAP:
            return fn(Y)
        return np.concatenate([fn(Y[i : i + ROW_CAP]) for i in range(0, len(Y), ROW_CAP)])

    return exponent


@dataclass(frozen=True)
class IdMeasure:
    """An infinitely divisible law: dimension, exponent, optional triplet.

    ``exponent`` is an evaluator made by :func:`batched_exponent`: a batch
    ``Y (n, dim)`` gives ``(n,)`` complex values, one ``(dim,)`` vector
    gives a complex.  When a triplet is given the evaluator defaults to
    :func:`char_exponent` on that triplet, but constructors may install a
    cheaper closed form; agreement of the two is part of the test suite,
    not of construction.

    The constructor trusts its exponent to follow the contract and to
    vanish at 0, as the package's transforms do by construction.
    :meth:`from_exponent` and :meth:`from_triplet` take a caller's batched
    callable, wrap it with :func:`batched_exponent` and check that it maps
    ``np.zeros((1, dim))`` to one value that vanishes.
    """

    dim: int
    exponent: Callable[[np.ndarray], complex]
    triplet: Optional[LevyTriplet] = None
    log_moment_known: Optional[bool] = None
    label: str = "measure"

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.dim}")

    def _vanishing(self) -> "IdMeasure":
        """``self`` after checking that a caller's exponent maps the batch
        ``np.zeros((1, dim))`` to one value that vanishes."""
        try:  # a one-vector callable fails on a batch, or maps it to a scalar
            z = self.exponent(np.zeros((1, self.dim)))
            if np.shape(z) != (1,):
                raise ValueError(f"got shape {np.shape(z)}")
        except (TypeError, ValueError, IndexError) as e:
            raise ValidationError(f"exponent must map rows (n, {self.dim}) to (n,): {e}") from e
        if not abs(z[0]) <= 1e-9:  # NaN fails this too
            raise ValidationError(f"exponent does not vanish at 0: {z[0]}")
        return self

    @staticmethod
    def from_triplet(
        triplet: LevyTriplet,
        exponent: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        log_moment_known: Optional[bool] = None,
        label: str = "measure",
    ) -> "IdMeasure":
        fn = (lambda Y, t=triplet: char_exponent(t, Y)) if exponent is None else exponent
        mu = IdMeasure(triplet.dim, batched_exponent(fn), triplet, log_moment_known, label)
        return mu if exponent is None else mu._vanishing()

    @staticmethod
    def from_exponent(
        dim: int,
        exponent: Callable[[np.ndarray], np.ndarray],
        log_moment_known: Optional[bool] = None,
        label: str = "measure",
    ) -> "IdMeasure":
        mu = IdMeasure(dim, batched_exponent(exponent), None, log_moment_known, label)
        return mu._vanishing()


def _log_moment_flag(mu: IdMeasure) -> Optional[bool]:
    """``mu.log_moment_known``, or when unset the finiteness of the log
    moment of ``mu``'s triplet by :func:`log_moment` (``None`` if it has
    none)."""
    if mu.log_moment_known is not None or mu.triplet is None:
        return mu.log_moment_known
    return log_moment(mu.triplet.M)


def convolve(mu: IdMeasure, nu: IdMeasure) -> IdMeasure:
    """Convolution: exponents add, each operand read on the same rows (a
    composite one answers from its own fits); triplets add componentwise
    when present."""
    if mu.dim != nu.dim:
        raise ValidationError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    triplet = None
    if mu.triplet is not None and nu.triplet is not None:
        triplet = LevyTriplet(
            mu.triplet.a + nu.triplet.a,
            mu.triplet.S + nu.triplet.S,
            mu.triplet.M.merged(nu.triplet.M),
        )
    # infinite if either side's is, finite if both are, else unknown
    flags = (_log_moment_flag(mu), _log_moment_flag(nu))
    lm = False if False in flags else (True if flags == (True, True) else None)
    f, g = mu.exponent, nu.exponent
    return IdMeasure(
        dim=mu.dim,
        exponent=batched_exponent(lambda Y: f(Y) + g(Y)),
        triplet=triplet,
        log_moment_known=lm,
        label=f"({mu.label} * {nu.label})",
    )


def conv_power(mu: IdMeasure, c: float) -> IdMeasure:
    """Convolution power ``mu^{*c}``: exponent ``c * phi``, triplet scaled."""
    if not (math.isfinite(c) and c > 0):
        raise ValidationError(f"convolution power must be finite and > 0, got {c}")
    triplet = None
    if mu.triplet is not None:
        triplet = LevyTriplet(
            c * mu.triplet.a, c * mu.triplet.S, mu.triplet.M.scaled(c)
        )
    f = mu.exponent
    return IdMeasure(
        dim=mu.dim,
        exponent=batched_exponent(lambda Y: c * f(Y)),
        triplet=triplet,
        log_moment_known=mu.log_moment_known,
        label=f"{mu.label}^*{c:g}",
    )


# ---------------------------------------------------------------------------
# evaluation grids
# ---------------------------------------------------------------------------

_AXIS_VALUES = (0.1, 0.5, 1.0, 2.0, 5.0)
_GRID_CAP = 64


def default_grid(dim: int = 1) -> np.ndarray:
    """Frequency grid for identity checking, shape ``(n_points, dim)``.

    Tensor product of ``+-{0.1, 0.5, 1, 2, 5}`` per axis, thinned
    deterministically to at most 64 points for ``dim > 1``.
    """
    axis = np.array(sorted((-v for v in _AXIS_VALUES)) + list(_AXIS_VALUES))
    if dim == 1:
        return axis.reshape(-1, 1)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    if len(pts) > _GRID_CAP:
        idx = np.unique(np.linspace(0, len(pts) - 1, _GRID_CAP).round().astype(int))
        pts = pts[idx]
    return pts
