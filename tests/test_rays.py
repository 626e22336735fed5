"""Reading composite exponents from per-ray Chebyshev fits (``idcalc.rays``):
the fitted route against the direct one, and the fits' own contract."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from idcalc import (
    IdMeasure,
    QuadratureError,
    batched_exponent,
    corollary1a_kernel,
    default_grid,
    gamma,
    gaussian,
    i_map,
    i_of_j_beta,
    j_beta,
    j_beta_inverse,
    measure_from_spec,
    poisson,
    rays,
    verify_identity,
)
from idcalc import mappings
from idcalc.factorization import verify_cor1b
from idcalc.quadrature import ROW_CAP, power_at_origin

# an atom (r 0.5, w 1) and the one-sided 1/2-stable density r^-1.5 on (0, inf)
HALF_STABLE_SPEC = {
    "dim": 1, "shift": [0.0], "cov": [[0.0]],
    "spectral": {"rays": [{"direction": [1.0], "atoms": [{"r": 0.5, "w": 1.0}],
                           "densities": [{"lo": 0, "hi": "inf", "kind": "power",
                                          "coef": 1.0, "exponent": -1.5}]}]},
}
# shift, Gaussian part, an atom and an exp density on (0, inf)
BASELINE_SPEC = {
    "dim": 1, "shift": [-1.62], "cov": [[0.27]],
    "spectral": {"rays": [{"direction": [1.0], "atoms": [{"r": 0.648, "w": 0.406}],
                           "densities": [{"lo": 0, "hi": "inf", "kind": "exp", "coef": 0.298,
                                          "exponent": -0.0377, "rate": 0.520}]}]},
}
GRID_1D = np.linspace(-6.0, 6.0, 24).reshape(-1, 1)
# 2-d rows on three rays, so that the fits pay
GRID_2D = np.concatenate([s * np.array([[1.0, 0.3], [-0.4, 1.0], [0.7, -0.7]])
                          for s in np.linspace(0.1, 6.0, 12)])


@pytest.fixture
def direct(monkeypatch):
    """``direct(f, *fits)`` runs ``f`` with the given fits, or every
    :class:`rays.RayFits`, reading their exponent directly: the reference
    the fitted route is held to."""
    call = rays.RayFits.__call__

    def run(f, *fits):
        read = lambda self, Y: self.exponent(Y) if not fits or self in fits else call(self, Y)
        with monkeypatch.context() as m:
            m.setattr(rays.RayFits, "__call__", read)
            return f()

    return run


@pytest.fixture
def answered(monkeypatch):
    """The ``(fits, rows)`` of every read the fits answer."""
    reads = []
    series = rays.RayFits._series

    def spy(self, leaf, t):
        reads.append((self, len(t)))
        return series(self, leaf, t)

    monkeypatch.setattr(rays.RayFits, "_series", spy)
    return reads


@pytest.fixture
def made(monkeypatch):
    """Every :class:`rays.RayFits` made, in order: one per radial transform."""
    fits = []
    init = rays.RayFits.__init__

    def record(self, exponent):
        init(self, exponent)
        fits.append(self)

    monkeypatch.setattr(rays.RayFits, "__init__", record)
    return fits


def rows_of(reads, fits=None):
    """Rows the fits answered, all or those of ``fits``."""
    return sum(n for f, n in reads if fits is None or f is fits)


def counted(mu):
    """A leaf copy of ``mu`` and the list of the batches it was called on."""
    batches = []
    src = mu.exponent

    def f(Y):
        batches.append(len(Y))
        return src(Y)

    return IdMeasure(mu.dim, batched_exponent(f), log_moment_known=True), batches


def assert_rel(got, want, tol):
    assert np.all(np.abs(got - want) <= tol * np.abs(want)), np.max(np.abs(got / want - 1))


# ---------------------------------------------------------------------------
# the fitted route against the direct one
# ---------------------------------------------------------------------------

# the inner maps of each chain; the last one reads them
CHAINS = {
    "depth3": ([lambda m: j_beta(m, 1.0), lambda m: j_beta(m, 2.0)],
               lambda m: i_map(replace(m, log_moment_known=True))),
    "depth4": ([lambda m: j_beta(m, 0.5), lambda m: i_map(replace(m, log_moment_known=True)),
                lambda m: j_beta(m, 2.0)],
               lambda m: corollary1a_kernel(m, 1.0)),
}
SEEDS = {
    "gamma": lambda: gamma(1.0, 1.0),
    "poisson": lambda: poisson(1.0, 2.0),
    "gaussian-2d": lambda: gaussian(cov=[[2.0, 0.5], [0.5, 1.0]], shift=[0.3, -0.2]),
    "baseline-spec": lambda: measure_from_spec(BASELINE_SPEC),
}


@pytest.mark.parametrize("chain", sorted(CHAINS))
@pytest.mark.parametrize("seed", sorted(SEEDS))
def test_sampled_route_matches_direct_route(seed, chain, direct, answered, made):
    mu = SEEDS[seed]()
    grid = GRID_2D if mu.dim == 2 else GRID_1D
    inner, last = CHAINS[chain]
    for m in inner:
        mu = m(mu)
    source = made[-1]
    out = last(mu)
    got = out.exponent(grid)
    assert rows_of(answered, source) > 0
    assert_rel(got, direct(lambda: out.exponent(grid), source), 1e-12)


def test_sampled_route_on_2d_gaussian_meets_closed_form(answered, made):
    # every transform reads its source's fits; the closed form checks them:
    # j_1, j_2 and i scale the covariance by 1/3, 1/2, 1/2 and the shift
    # by 1/2, 2/3, 1
    S, a = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.2])
    out = i_map(j_beta(j_beta(gaussian(cov=S, shift=a), 1.0), 2.0))
    want = -0.5 * np.einsum("ni,ij,nj->n", GRID_2D, S / 12.0, GRID_2D) + 1j * GRID_2D @ a / 3.0
    assert_rel(out.exponent(GRID_2D), want, 1e-12)
    assert rows_of(answered, made[0]) > 0 and rows_of(answered, made[1]) > 0


@pytest.mark.parametrize("beta", (0.5, 2.0))
def test_inverse_round_trip_on_sampled_route(beta, answered, made):
    # j_beta reads j_beta_inverse of a composite, which reads it at s^(1/beta) y
    inner = j_beta(gamma(1.0, 1.0), 1.0)
    back = j_beta(j_beta_inverse(inner, beta), beta)
    assert np.abs(back.exponent(GRID_1D) - inner.exponent(GRID_1D)).max() < 1e-8
    assert rows_of(answered, made[0]) > 0


def test_sampled_route_matches_direct_route_on_half_stable_spec(direct, answered, made):
    # the exponent ~ y^(1/2) at 0: each head fails over to dyadic pieces;
    # 292,215 leaf rows is what deciding once per radial transform call read
    mu, batches = counted(measure_from_spec(HALF_STABLE_SPEC))
    grid = np.linspace(0.5, 6.0, 10).reshape(-1, 1)
    out = j_beta(j_beta(j_beta(mu, 2.0), 2.0), 2.0)
    got = out.exponent(grid)
    assert rows_of(answered, made[1]) > 0 and sum(batches) <= 292_215
    assert_rel(got, direct(lambda: out.exponent(grid), made[1]), 1e-12)
    assert made[0].headless.all()


@pytest.mark.parametrize("seed", ("gamma", "poisson"))
def test_batch_equals_pointwise_on_sampled_route(seed, direct, answered):
    # the batch reads the fits, which on |y| up to 100 bisect poisson's
    # oscillation; each row alone is read directly
    out = j_beta(j_beta(SEEDS[seed](), 1.0), 2.0)
    batch = np.concatenate([[-100.0, -20.0, 0.0, 20.0, 100.0], np.linspace(-5.0, 5.0, 30)])
    batch = batch.reshape(-1, 1)
    values = out.exponent(batch)
    assert rows_of(answered) > 0
    for y, z in zip(batch, values):
        assert abs(z - direct(lambda: out.exponent(y))) <= 1e-13


def test_cor1b_on_baseline_spec_reads_few_leaf_rows():
    # the nested direct route read 3.02M leaf rows here
    mu, batches = counted(measure_from_spec(BASELINE_SPEC))
    report = verify_cor1b(mu, 1.0)
    assert report.passed
    assert sum(batches) <= 50_000


def test_cor1b_reads_mu_after_back_commits_rho():
    # read first, mu's small batches would find no committed ray of rho
    # and read it directly: 38,178 leaf rows, 20,748 of them before any commit
    mu, batches = counted(measure_from_spec(BASELINE_SPEC))
    assert verify_cor1b(mu, 1.0).passed
    assert sum(batches) <= 20_000


def test_committed_ray_answers_a_small_read_from_its_fits(answered):
    # a 10-row read on two rays makes 210 reads of the inner exponent in
    # its first round, too few to commit a ray, but answered from the fits
    # once a larger batch committed both rays
    mu, batches = counted(gamma(1.0, 1.0))
    outer = j_beta(j_beta(mu, 1.0), 2.0)
    outer.exponent(GRID_1D)
    batches.clear()
    outer.exponent(default_grid(1))
    assert batches == [] and rows_of(answered) > 0


# ---------------------------------------------------------------------------
# independence: a wrong weight on the fitted route fails the identities
# ---------------------------------------------------------------------------

MUTATIONS = {
    # the power of the kernel t**power off by 1e-6
    "power": lambda weight, power: (weight, power + 1e-6),
    # the weight times u**1e-6
    "weight": lambda weight, power: (
        lambda t: (1.0 if weight is None else weight(t)) * t**1e-6, power),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_wrong_weight_on_sampled_route_fails_identities(mutation, monkeypatch, answered):
    # every transform that reads another's output takes the wrong weight;
    # the grid's reads of the outer ones are too few to commit a ray, so
    # the fits that answer are those of the inner transforms they read
    plain = mappings.radial_map
    made = set()

    def radial_map(mu, weight, power=1.0):
        if mu.exponent in made:
            weight, power = MUTATIONS[mutation](weight, power)
        out = plain(mu, weight, power)
        made.add(out)
        return out

    mu = gamma(1.0, 1.0)
    grid = np.linspace(-5.0, 5.0, 30).reshape(-1, 1)
    for name in ("lemma1c", "prop1", "cor1a", "prop2"):
        assert all(r.passed for r in verify_identity(name, mu, grid=grid, mc_n=0)), name
    monkeypatch.setattr(mappings, "radial_map", radial_map)
    for name in ("lemma1c", "prop1", "cor1a", "prop2"):
        answered.clear()
        reports = verify_identity(name, mu, grid=grid, mc_n=0)
        assert rows_of(answered) > 0, name
        assert not all(r.passed for r in reports), name


# ---------------------------------------------------------------------------
# the fits' contract
# ---------------------------------------------------------------------------


def test_fits_are_lazy_and_respect_the_row_cap():
    mu, batches = counted(gamma(1.0, 1.0))
    out = i_of_j_beta(j_beta(j_beta(mu, 1.0), 2.0), 1.0)
    assert batches == []
    grid = np.linspace(-50.0, 50.0, 300).reshape(-1, 1)
    out.exponent(grid)
    assert batches and max(batches) <= ROW_CAP


def test_zero_rows_read_exactly_zero(answered):
    inner = j_beta(gamma(1.0, 1.0), 1.0)
    grid = np.concatenate([np.zeros((3, 1)), GRID_1D])
    values = i_map(inner).exponent(grid)
    assert rows_of(answered) > 0
    assert values[:3].tolist() == [0j, 0j, 0j]
    assert inner.exponent(np.zeros((40, 1))).tolist() == [0j] * 40


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_row_is_read_directly_and_raises(value):
    # a row that is not on any ray must not read 0 like the origin
    with pytest.raises(QuadratureError, match="not finite"):
        j_beta(gaussian(1.0), 1.0).exponent(np.array([[value], [1.0]]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_row_with_a_non_finite_entry_is_on_no_ray(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keys, ray, norm = rays._rays(np.array([[value], [1.0], [2.0]]))
    assert keys.tolist() == [[1.0]]
    assert ray[1:].tolist() == [0, 0]
    assert norm[1:].tolist() == [1.0, 2.0]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("committed", [False, True], ids=["large-batch", "committed-ray"])
def test_a_row_with_an_infinite_entry_is_read_directly_and_raises(committed):
    # either way the batch is read by rays, not directly as a whole
    mu, line = j_beta(gaussian(1.0), 1.0), np.linspace(-5.0, 5.0, 400)[:, None]
    if committed:
        mu.exponent(line)
        grid = np.array([[np.inf], [1.0]])
    else:
        grid = np.concatenate([line, [[np.inf]]])
    with pytest.raises(QuadratureError, match="not finite"):
        mu.exponent(grid)


def test_positive_multiples_share_one_ray(made):
    y = np.array([0.3, 0.7])
    rows = np.array([c * y for c in (1.0, 3.0, 7.0, 1 / 3, 0.1, 11.0)])
    units = rows / np.linalg.norm(rows, axis=1)[:, None]
    assert len({u.tobytes() for u in units}) > 1  # they differ in the last bits
    assert len(rays._rays(rows)[0]) == 1
    inner = j_beta(gaussian(cov=[[1.0, 0.2], [0.2, 2.0]]), 1.0)
    grid = np.concatenate([rows, -rows, 2 * rows, 5 * rows])
    j_beta(inner, 2.0).exponent(grid)
    assert len(made[0].rays) == 2


def test_power_read_below_the_floor_sees_the_source(answered, made):
    # j_beta(., 1) of -|y|^(1/2) is -|y|^(1/2)/1.5: power 1/2 at 0, which
    # no fit resolves there; i_map of it is -|y|^(1/2)/0.75
    stable = IdMeasure.from_exponent(1, lambda Y: -np.abs(Y[:, 0]) ** 0.5 + 0j,
                                     log_moment_known=True)
    mid = j_beta(stable, 1.0)
    got = i_map(mid).exponent(GRID_1D)
    assert rows_of(answered) > 0
    assert_rel(got, -np.abs(GRID_1D[:, 0]) ** 0.5 / 0.75, 1e-10)
    # the read committed the ray; its radii at or below the floor stay direct
    assert made[0].committed.all()
    inner = mid.exponent
    f = lambda rows, r: inner(r.reshape(-1, 1)).reshape(r.shape)
    assert abs(power_at_origin(f, np.zeros(1, dtype=int), np.array([3.0]))[0] - 0.5) < 1e-9


def test_fit_cache_is_bounded(direct, answered, made):
    # batches of 40 rays each, two radii per ray inside the head piece
    inner = j_beta(gaussian(cov=[[1.0, 0.2], [0.2, 2.0]]), 1.0)
    fits = made[0]
    outer = j_beta(inner, 2.0)
    for start in range(5):
        angle = np.pi * (start + np.arange(40) / 40.0) / 5.0
        unit = np.column_stack([np.cos(angle), np.sin(angle)])
        grid = np.concatenate([0.05 * unit, 0.1 * unit])
        answered.clear()
        got = outer.exponent(grid)
        assert rows_of(answered, fits) > 0
        assert_rel(got, direct(lambda: outer.exponent(grid)), 1e-12)
        assert len(fits.rays) <= rays.RAY_CACHE
    # a batch on more rays than the cache holds is read directly
    angle = np.linspace(0.0, np.pi, rays.RAY_CACHE + 1, endpoint=False)
    unit = np.column_stack([np.cos(angle), np.sin(angle)])
    answered.clear()
    inner.exponent(np.concatenate([0.05 * unit] * 4))
    assert rows_of(answered) == 0


def test_noise_ends_a_rays_commitment():
    # a tail at 1e-11 stays above the chop, and no bisection lowers it
    rng = np.random.default_rng(1)
    fits = rays.RayFits(batched_exponent(
        lambda Y: -Y[:, 0] ** 2 * (1.0 + 1e-11 * rng.standard_normal(len(Y))) + 0j))
    grid = np.linspace(0.2, 4.0, 400).reshape(-1, 1)
    assert_rel(fits(grid), -grid[:, 0] ** 2, 1e-10)
    assert fits.committed.tolist() == [False]
    assert fits.length.size == 0
