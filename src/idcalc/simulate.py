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

Randomness comes from counter-based Philox streams keyed by
``(seed, chunk index)``, so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import LevyTriplet, SpectralMeasure, _segment_mass, as_batched
from .errors import ValidationError
from .mappings import check_beta, sigma_clock
from .quadrature import tail_quad

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
# kernel tail of the exponential integrand must contribute < 1e-4
_TAIL_BUDGET = 1e-4


def _stream(seed: int, index: int) -> np.random.Generator:
    key = (int(seed) << 64) + int(index)
    return np.random.Generator(np.random.Philox(key=key))


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


class _JumpModel:
    """Sampling representation of the jump part above the cutoff."""

    def __init__(self, M: SpectralMeasure, eps: float, dim: int):
        masses: list[float] = []
        dirs: list[np.ndarray] = []
        radii: list[float] = []  # fixed radius for atoms, nan for segments
        tables: list[Optional[tuple[np.ndarray, np.ndarray]]] = []
        for ray in M.rays:
            for at in ray.atoms:
                if at.r > eps:
                    masses.append(at.w)
                    dirs.append(ray.direction)
                    radii.append(at.r)
                    tables.append(None)
            for seg in ray.densities:
                lo = max(seg.lo, eps)
                if lo >= seg.hi:
                    continue
                mass = _segment_mass(seg, np.array([lo]), np.array([math.inf]))[0]
                if mass <= 0.0:
                    continue
                masses.append(mass)
                dirs.append(ray.direction)
                radii.append(math.nan)
                tables.append(self._build_table(seg, lo, mass))
        self.rate = float(sum(masses))
        self.dim = dim
        if masses:
            self._cum = np.cumsum(masses)
            self._dirs = np.vstack(dirs)
            self._radii = np.array(radii)
            self._tables = tables
        else:
            self._cum = np.zeros(0)

    @staticmethod
    def _build_table(seg, lo: float, mass: float):
        """Inverse-CDF table on a geometric grid of the truncated density."""
        hi = seg.hi
        if math.isinf(hi):
            # grow the cutoff until the remaining tail is negligible
            hi = max(2.0 * lo, 1.0)
            while True:
                tail, ok = tail_quad(seg.fn, hi)
                if ok and tail <= 1e-12 * mass:
                    break
                hi *= 2.0
                if hi > 1e15:
                    raise ValidationError("segment tail decays too slowly to sample")
        r = np.geomspace(lo, hi, _TABLE_NODES)
        g = seg.fn(r)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(r))])
        if cdf[-1] <= 0:
            raise ValidationError("segment has no mass to sample")
        return r, cdf / cdf[-1]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` jump vectors from the normalized restriction."""
        if count == 0 or self.rate == 0.0:
            return np.zeros((0, self.dim))
        u = rng.random(count) * self._cum[-1]
        comp = np.searchsorted(self._cum, u, side="right")
        comp = np.minimum(comp, len(self._cum) - 1)
        radii = self._radii[comp]
        needs = np.isnan(radii)
        if needs.any():
            v = rng.random(int(needs.sum()))
            out_r = np.empty(int(needs.sum()))
            idx = np.flatnonzero(needs)
            for c in np.unique(comp[idx]):
                sel = comp[idx] == c
                nodes, cdf = self._tables[c]
                out_r[sel] = np.interp(v[sel], cdf, nodes)
            radii = radii.copy()
            radii[idx] = out_r
        return radii[:, None] * self._dirs[comp]


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
    tau: np.ndarray,
    f_left: np.ndarray,
) -> np.ndarray:
    rng = _stream(seed, chunk_index)
    d = det.size
    x = rng.standard_normal((m, d)) @ factor.T
    x += det
    lam = jumps.rate * tau[-1]
    if lam > 0:
        counts = rng.poisson(lam, m)
        total = int(counts.sum())
        if total:
            u = rng.random(total) * tau[-1]
            k = np.searchsorted(tau, u, side="left") - 1
            np.clip(k, 0, len(f_left) - 1, out=k)
            vecs = jumps.sample(rng, total) * f_left[k][:, None]
            np.add.at(x, np.repeat(np.arange(m), counts), vecs)
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
    det = float(f_left @ dtau) * (triplet.a - M.mean_between(eps))
    cov = np.asarray(triplet.S, dtype=float) + M.second_moment_below(eps)
    factor = _psd_factor(float((f_left**2) @ dtau) * cov)
    jumps = _JumpModel(M, eps, triplet.dim)

    chunks = [(_CHUNK, i) for i in range(n // _CHUNK)]
    if n % _CHUNK:
        chunks.append((n % _CHUNK, n // _CHUNK))

    return np.vstack([
        _integral_chunk(m, seed, idx, det, factor, jumps, tau, f_left) for m, idx in chunks
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
    """Average of ``exp(i <y, X>)`` per grid point with its standard error."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[1] != samples.shape[1]:
        raise ValidationError(
            f"grid dimension {grid.shape[1]} does not match samples {samples.shape[1]}"
        )
    n = samples.shape[0]
    if n < 2:
        raise ValidationError("need at least two samples for an ecf estimate")
    phases = samples @ grid.T
    vals = np.exp(1j * phases)
    mean = vals.mean(axis=0)
    var = vals.real.var(axis=0, ddof=1) + vals.imag.var(axis=0, ddof=1)
    return EcfEstimate(
        grid=grid, values=mean, n_samples=n, std_error=np.sqrt(var / n)
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
# below SE_FLOOR is degenerate; a difference at or below DIFF_FLOOR scores 0
N_MIN = 100
SE_FLOOR = 1e-13
DIFF_FLOOR = 1e-12


def cf_distance_test(
    est: EcfEstimate,
    exponent: Callable[[np.ndarray], complex],
    det_tol: float = 0.0,
) -> CfTestResult:
    """Per-point z-scores of the ecf against ``exp(exponent)``.

    Passes when the largest z is below 4 and fewer than 10% of points
    exceed 2.  A degenerate standard error (deterministic samples)
    leaves no statistical band; such points are judged against
    ``det_tol`` when the caller supplies a discretization allowance,
    otherwise the whole run comes back "inconclusive".  Sample counts
    below ``N_MIN`` are always inconclusive.  The exponent is evaluated
    on the whole grid as one batch.
    """
    target = np.exp(as_batched(exponent)(est.grid))
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
        status = "pass" if (max_z < 4.0 and frac < 0.10) else "fail"
    return CfTestResult(status=status, z_scores=z, max_z=max_z, frac_above_2=frac)


def write_samples_csv(path, samples: np.ndarray) -> None:
    """One sample per line, dimension many columns."""
    np.savetxt(path, np.atleast_2d(samples), delimiter=",", fmt="%.17g")
