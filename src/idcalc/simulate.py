"""Monte Carlo layer: random-integral sampling, empirical characteristic
functions, and distributional equality tests.

The sampler discretizes the driving process on a uniform mesh in the
integration variable, applies the deterministic time change through the
inner clock, and uses left-point kernel weights.  Within each mesh cell
the increment law splits into independent pieces (drift, Gaussian part,
compensated jumps above the cutoff, small-jump Gaussian correction), so
the kernel-weighted sum is drawn piece by piece in closed form: the
Gaussian contribution from its exact normal law, jumps from a marked
Poisson process mapped onto mesh cells.  This reproduces the law of the
stepwise scheme exactly while keeping runtime flat in the step count.

The jumps above the cutoff form one table of cells; a jump's cell there and
its time's mesh cell are both guide-table lookups (Chen & Asau 1974).  A
chunk works through cache-sized blocks of whole samples, each drawing its own
uniforms: jump times from the chunk's stream, masses from a copy of it moved
past all the chunk's times.  So the draws do not depend on the block size,
and memory is bounded by it.

Randomness comes from counter-based Philox streams keyed by ``(seed, chunk
index)``, so results are reproducible; Philox reaches any position in O(1)
(Salmon et al. 2011).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import LevyTriplet, SpectralMeasure, _segment_mass
from .errors import QuadratureError, ValidationError
from .mappings import check_beta, sigma_clock

__all__ = [
    "PathConfig",
    "KernelIntegralSpec",
    "jbeta_integral_spec",
    "imap_integral_spec",
    "clocked_integral_spec",
    "cor1a_integral_spec",
    "sample_integral",
    "EcfEstimate",
    "ecf",
    "CfTestResult",
    "cf_distance_test",
    "write_samples_csv",
]

_CHUNK = 8192
# jumps per block: its arrays, uniforms included, fit in the L2 cache
_BLOCK = 1 << 16
# kernel tail of the exponential integrand must contribute < 1e-4
_TAIL_BUDGET = 1e-4


def _stream(seed: int, index: int) -> np.random.Generator:
    key = (int(seed) << 64) + int(index)
    return np.random.Generator(np.random.Philox(key=key))


def _ahead(bit_gen: np.random.Philox, k: int) -> np.random.Generator:
    """A generator on a copy of ``bit_gen`` that starts ``k`` 64-bit outputs
    later.  Philox makes four outputs per counter step and buffers the rest
    of a step; ``advance`` counts steps and drops the buffer."""
    copy = np.random.Philox(key=0)
    copy.state = bit_gen.state
    left = 4 - copy.state["buffer_pos"]
    if k > left:
        copy.advance((k - left) // 4)
        k = (k - left) % 4
    copy.random_raw(k)
    return np.random.Generator(copy)


@dataclass(frozen=True)
class PathConfig:
    """Discretization of the driving Levy process: the mesh step, and the
    radius below which jumps are replaced by their Gaussian correction."""

    step: float = 1e-3
    small_jump_cutoff: float = 1e-3

    def __post_init__(self):
        if not (0 < self.step <= 1.0):
            raise ValidationError(f"mesh step must lie in (0, 1], got {self.step}")
        if not (0 < self.small_jump_cutoff <= 1.0):
            raise ValidationError(
                f"small-jump cutoff must lie in (0, 1], got {self.small_jump_cutoff}"
            )


@dataclass(frozen=True)
class KernelIntegralSpec:
    """A deterministic-kernel random integral against ``dY(tau(s))``.

    ``kernel`` is evaluated at left mesh points over ``(0, s_max]``;
    ``clock`` is an optional nondecreasing time change with clock(0)=0.
    """

    kernel: Callable[[np.ndarray], np.ndarray]
    s_max: float
    clock: Optional[Callable[[np.ndarray], np.ndarray]] = None
    target: str = "integral"

    def __post_init__(self):
        if not (math.isfinite(self.s_max) and self.s_max > 0):
            raise ValidationError(f"s_max must be finite and > 0, got {self.s_max}")


def jbeta_integral_spec(beta: float) -> KernelIntegralSpec:
    """Kernel ``t**(1/beta)`` on (0, 1]."""
    b = check_beta(beta)
    return KernelIntegralSpec(
        kernel=lambda t: np.power(t, 1.0 / b), s_max=1.0, target=f"jbeta[{b:g}]"
    )


def imap_integral_spec(s_max: float = 20.0) -> KernelIntegralSpec:
    """Kernel ``exp(-s)`` on (0, s_max], s_max chosen so the dropped tail
    is below the exponent-norm budget."""
    if math.exp(-s_max) >= _TAIL_BUDGET:
        raise ValidationError(
            f"s_max={s_max} leaves kernel tail exp(-s_max) >= {_TAIL_BUDGET}"
        )
    return KernelIntegralSpec(kernel=lambda s: np.exp(-s), s_max=s_max, target="imap")


def clocked_integral_spec(beta: float, s_max: float = 20.0) -> KernelIntegralSpec:
    """Kernel ``exp(-s)`` with the inner clock of index ``beta``."""
    b = check_beta(beta)
    if math.exp(-s_max) >= _TAIL_BUDGET:
        raise ValidationError(
            f"s_max={s_max} leaves kernel tail exp(-s_max) >= {_TAIL_BUDGET}"
        )
    return KernelIntegralSpec(
        kernel=lambda s: np.exp(-s),
        s_max=s_max,
        clock=lambda s, b=b: sigma_clock(b, s),
        target=f"i-of-jbeta[{b:g}]",
    )


def cor1a_integral_spec(beta: float) -> KernelIntegralSpec:
    """Kernel ``(1 - sqrt(t))**(1/beta)`` on (0, 1]."""
    b = check_beta(beta)
    return KernelIntegralSpec(
        kernel=lambda t: np.power(np.clip(1.0 - np.sqrt(t), 0.0, None), 1.0 / b),
        s_max=1.0,
        target=f"cor1a[{b:g}]",
    )


# ---------------------------------------------------------------------------
# jump model
# ---------------------------------------------------------------------------

_TABLE_NODES = 4097


class _Guide:
    """``self(q)``, ``x[0] <= q <= x[-1]``, is the ``j`` with ``x[j] <= q < x[j+1]``
    (the last cell of positive width for ``q = x[-1]``), from ``2 (len(x) - 1)``
    equal buckets and a forward walk of at most two cells (Chen & Asau 1974;
    Devroye 1986, §III.2.4)."""

    def __init__(self, x: np.ndarray):
        nb = 2 * (len(x) - 1)
        self._x0, self._scale = x[0], nb / (x[-1] - x[0])
        # each bucket starts at the cell of the least double that the lookup's
        # own arithmetic puts in it, so the walk only goes forward
        k = np.arange(nb)
        edges, at = x[0] + k / self._scale, lambda q: (q - self._x0) * self._scale >= k
        while not (ok := at(edges)).all():
            edges[~ok] = np.nextafter(edges[~ok], np.inf)
        while (down := at(below := np.nextafter(edges, -np.inf))).any():
            edges[down] = below[down]
        start = np.maximum(np.searchsorted(x, edges, "right") - 1, 0)
        # q = x[-1] may land in bucket nb, which starts where bucket nb - 1 does
        self._start = np.append(start, start[-1])
        self._right = np.append(x[1:], np.inf)
        self._top = int(np.searchsorted(x, x[-1], "left")) - 1

    def __call__(self, q: np.ndarray) -> np.ndarray:
        b = q - self._x0
        b *= self._scale
        j = self._start[b.astype(np.intp)]
        del b
        walk = walked = np.flatnonzero(self._right[j] <= q)
        for _ in range(2):
            j[walk] += 1
            walk = walk[self._right[j[walk]] <= q[walk]]
        # a binary search for the rare longer walks, each step a numpy pass
        j[walk] = np.searchsorted(self._right, q[walk], "right")
        j[walked] = np.minimum(j[walked], self._top)
        return j


class _JumpModel:
    """The jump part above the cutoff as one table of cells: a cell of zero
    width per atom, the inverse-CDF cells of each density segment.

    Cell ``j`` spans ``[cum[j], cum[j+1])``, component ``c``'s nodes sitting
    at ``offset_c + mass_c * cdf_c``, with left radius ``r0``, ``slope =
    width / mass`` (0 for no mass; the mass is the component's own ``mass_c
    * diff(cdf_c)``, free of the rounding of its offset) and a ray
    direction, kept as one row of ``dirs`` per coordinate.  A jump is one
    uniform ``q`` on the total mass, its cell ``j`` by guide-table lookup
    and ``(r0[j] + slope[j] (q - cum[j])) dirs[:, j]``: the mixture of the
    components' piecewise-linear inverse CDFs.
    """

    def __init__(self, M: SpectralMeasure, eps: float):
        masses, cum, cell_mass, radii, dirs = [], [np.zeros(1)], [], [], []
        for ray in M.rays:
            comps = [(at.w, np.array([at.r, at.r]), np.array([0.0, 1.0]))
                     for at in ray.atoms if at.r > eps]
            for seg in ray.densities:
                lo = max(seg.lo, eps)
                if lo < seg.hi:
                    mass = _segment_mass(seg, np.array([lo]), np.array([math.inf]))[0]
                    if mass > 0.0:
                        comps.append((mass, *self._build_table(seg, lo, mass)))
            for mass, r, cdf in comps:
                cum.append(sum(masses) + mass * cdf[1:])
                cell_mass.append(mass * np.diff(cdf))
                masses.append(mass)
                radii.append(r)
                dirs.append(np.repeat(ray.direction[None, :], len(r) - 1, axis=0))
        self.rate = float(sum(masses))
        if self.rate > 0.0:
            self._cum = np.concatenate(cum)
            cell_mass = np.concatenate(cell_mass)
            width = np.concatenate([np.diff(r) for r in radii])
            self._slope = np.divide(width, cell_mass, out=np.zeros_like(width),
                                    where=cell_mass > 0.0)
            self._r0 = np.concatenate([r[:-1] for r in radii])
            self._dirs = np.vstack(dirs).T.copy()
            self._cells = _Guide(self._cum)

    @staticmethod
    def _build_table(seg, lo: float, mass: float):
        """Inverse-CDF table on a geometric grid of the truncated density."""
        hi = seg.hi
        if math.isinf(hi):
            # the first cutoff of a doubling ladder whose tail is negligible
            ladder = max(2.0 * lo, 1.0) * 2.0 ** np.arange(64)
            ladder = ladder[: max(1, np.count_nonzero(ladder <= 1e15))]
            try:
                tails = _segment_mass(seg, ladder, math.inf)
            except QuadratureError:  # a rung whose tail does not settle
                tails = np.full(len(ladder), np.nan)
            small = np.flatnonzero(tails <= 1e-12 * mass)
            if not len(small):
                raise ValidationError("segment tail decays too slowly to sample")
            hi = float(ladder[small[0]])
        r = np.geomspace(lo, hi, _TABLE_NODES)
        g = seg.fn(r)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(r))])
        if cdf[-1] <= 0:
            raise ValidationError("segment has no mass to sample")
        return r, cdf / cdf[-1]

    def sample(self, q: np.ndarray) -> list:
        """The jump vectors of the uniforms ``q`` on ``[0, 1)``, one array per
        coordinate; the rate must be positive, and ``q`` becomes the radii."""
        q *= self._cum[-1]
        j = self._cells(q)
        q -= self._cum[j]
        q *= self._slope[j]
        q += self._r0[j]
        return [col[j] * q for col in self._dirs]


def _psd_factor(S: np.ndarray) -> np.ndarray:
    """Factor ``F`` with ``F F^T = S`` for a (possibly singular) PSD matrix."""
    vals, vecs = np.linalg.eigh(0.5 * (S + S.T))
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


# ---------------------------------------------------------------------------
# random integral sampler
# ---------------------------------------------------------------------------


def _integral_chunk(
    m: int,
    seed: int,
    chunk_index: int,
    det: np.ndarray,
    factor: np.ndarray,
    jumps: _JumpModel,
    cells: Optional[_Guide],
    tau: np.ndarray,
    f_left: np.ndarray,
) -> np.ndarray:
    rng = _stream(seed, chunk_index)
    x = rng.standard_normal((m, det.size)) @ factor.T
    x += det
    if cells is None:
        return x
    counts = rng.poisson(jumps.rate * tau[-1], m)
    edges = np.zeros(m + 1, dtype=np.intp)  # sample i owns jumps edges[i]:edges[i+1]
    np.cumsum(counts, out=edges[1:])
    # the stream holds all the jump times, then all the masses: a block
    # reads its times on, its masses from a copy positioned past the times
    marks = _ahead(rng.bit_generator, int(edges[-1]))
    # blocks of whole samples with about _BLOCK jumps each, so that each
    # sample's jumps add up in the same order at any block size
    lo = 0
    while lo < m:
        hi = max(int(np.searchsorted(edges, edges[lo] + _BLOCK, "right")) - 1, lo + 1)
        k = edges[hi] - edges[lo]
        if k:
            u = rng.random(k)
            u *= tau[-1]
            weight = f_left[cells(u)]
            owner = np.repeat(np.arange(hi - lo, dtype=np.int32), counts[lo:hi])
            for i, v in enumerate(jumps.sample(marks.random(k))):
                v *= weight
                x[lo:hi, i] += np.bincount(owner, weights=v, minlength=hi - lo)
        lo = hi
    return x


def sample_integral(
    triplet: LevyTriplet,
    spec: KernelIntegralSpec,
    cfg: PathConfig,
    n: int,
    seed: int,
) -> np.ndarray:
    """Draw ``n`` realizations of the kernel-weighted increment sum.

    Equal in law to accumulating ``kernel(s_k) * (Y(tau(s_{k+1})) -
    Y(tau(s_k)))`` over the mesh; the time change enters through the
    transformed cell lengths.  Returns an array of shape ``(n, dim)``.
    """
    if n < 1:
        raise ValidationError("need at least one sample")
    n_steps = max(1, int(round(spec.s_max / cfg.step)))
    s = np.linspace(0.0, spec.s_max, n_steps + 1)
    tau = np.asarray(spec.clock(s), dtype=float) if spec.clock is not None else s
    if abs(tau[0]) > 1e-12:
        raise ValidationError("clock must vanish at 0")
    dtau = np.diff(tau)
    if dtau.min() < -1e-12:
        raise ValidationError("clock must be nondecreasing")
    np.clip(dtau, 0.0, None, out=dtau)
    f_left = np.asarray(spec.kernel(s[:-1]), dtype=float)
    if not np.all(np.isfinite(f_left)):
        raise ValidationError("kernel is unbounded on the mesh")

    # drift net of the compensator over (eps, 1], and the Gaussian part
    # plus the small-jump correction; jumps above eps are drawn one by one
    M, eps = triplet.M, cfg.small_jump_cutoff
    det = math.fsum(f_left * dtau) * (triplet.a - M.mean_between(eps))
    cov = np.asarray(triplet.S, dtype=float) + M.second_moment_below(eps)
    factor = _psd_factor(math.fsum(f_left**2 * dtau) * cov)
    jumps = _JumpModel(M, eps)
    # the mesh cell of a jump time u: tau[k] <= u < tau[k+1]
    cells = _Guide(tau) if jumps.rate * tau[-1] > 0 else None

    chunks = [(_CHUNK, i) for i in range(n // _CHUNK)]
    if n % _CHUNK:
        chunks.append((n % _CHUNK, n // _CHUNK))

    return np.vstack([
        _integral_chunk(m, seed, idx, det, factor, jumps, cells, tau, f_left) for m, idx in chunks
    ])


# ---------------------------------------------------------------------------
# empirical characteristic functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EcfEstimate:
    """Empirical characteristic function on a frequency grid."""

    grid: np.ndarray  # (n_points, dim)
    values: np.ndarray  # complex, (n_points,)
    n_samples: int
    std_error: np.ndarray  # (n_points,)


def ecf(samples: np.ndarray, grid: np.ndarray) -> EcfEstimate:
    """Average of ``exp(i <y, X>)`` per grid point with its standard error.

    Cosines and sines are taken once per row up to sign; the value at ``-y``
    is the exact conjugate of the one at ``y``, as for any real sample."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[1] != samples.shape[1]:
        raise ValidationError(
            f"grid dimension {grid.shape[1]} does not match samples {samples.shape[1]}"
        )
    n = samples.shape[0]
    if n < 2:
        raise ValidationError("need at least two samples for an ecf estimate")
    lead = grid[np.arange(len(grid)), np.argmax(grid != 0.0, axis=1)]
    sign = np.where(lead < 0.0, -1.0, 1.0)
    rows, back = np.unique(grid * sign[:, None], axis=0, return_inverse=True)
    phases = samples @ rows.T
    cos, sin = np.cos(phases), np.sin(phases)
    # two passes: 1 - |mean|^2 is not 0 on constant samples
    var = cos.var(axis=0, ddof=1) + sin.var(axis=0, ddof=1)
    values = cos.mean(axis=0)[back] + 1j * (sign * sin.mean(axis=0)[back])
    return EcfEstimate(
        grid=grid, values=values, n_samples=n, std_error=np.sqrt(var[back] / n)
    )


@dataclass(frozen=True)
class CfTestResult:
    """Outcome of the ecf-versus-exponent distance test."""

    status: str  # "pass" | "fail" | "inconclusive"
    z_scores: np.ndarray
    max_z: float
    frac_above_2: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"


# cf_distance_test: fewer samples are inconclusive; a standard error at or
# below SE_FLOOR is degenerate; a difference at or below DIFF_FLOOR scores 0;
# a run passes with every z-score below Z_MAX
N_MIN = 100
Z_MAX = 4.0
SE_FLOOR = 1e-13
DIFF_FLOOR = 1e-12


def cf_distance_test(
    est: EcfEstimate,
    exponent: Callable[[np.ndarray], np.ndarray],
    det_tol: float = 0.0,
) -> CfTestResult:
    """Per-point z-scores of the ecf against ``exp(exponent)``.

    Passes when the largest z is below ``Z_MAX`` and fewer than 10% of points
    exceed 2.  A degenerate standard error (deterministic samples)
    leaves no statistical band; such points are judged against
    ``det_tol`` when the caller supplies a discretization allowance,
    otherwise the whole run comes back "inconclusive".  Sample counts
    below ``N_MIN`` are always inconclusive.  The exponent is evaluated
    on the whole grid as one batch.
    """
    target = np.exp(exponent(est.grid))
    diff = np.abs(est.values - target)
    z = np.zeros(len(diff))
    degenerate = False
    for i, (d, se) in enumerate(zip(diff, est.std_error)):
        if d <= DIFF_FLOOR:
            z[i] = 0.0
        elif se <= SE_FLOOR:
            if det_tol > 0.0:
                z[i] = 0.0 if d <= det_tol else np.inf
            else:
                degenerate = True
                z[i] = np.inf
        else:
            z[i] = d / se
    max_z = float(z.max()) if len(z) else 0.0
    frac = float(np.mean(z > 2.0)) if len(z) else 0.0
    if est.n_samples < N_MIN or degenerate:
        status = "inconclusive"
    else:
        status = "pass" if (max_z < Z_MAX and frac < 0.10) else "fail"
    return CfTestResult(status=status, z_scores=z, max_z=max_z, frac_above_2=frac)


def write_samples_csv(path, samples: np.ndarray) -> None:
    """One sample per line, dimension many columns."""
    np.savetxt(path, np.atleast_2d(samples), delimiter=",", fmt="%.17g")
