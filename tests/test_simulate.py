import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcalc import (
    KernelIntegralSpec,
    PathConfig,
    RadialComponent,
    SpectralMeasure,
    ValidationError,
    cf_distance_test,
    clocked_integral_spec,
    cor1a_integral_spec,
    default_grid,
    dirac,
    ecf,
    gamma,
    gaussian,
    imap_integral_spec,
    j_beta,
    jbeta_integral_spec,
    measure_from_spec,
    poisson,
    power_segment,
    sample_integral,
    sigma_clock,
    smear_triplet,
)
from idcalc import simulate
from idcalc.core import _segment_mass
from idcalc.simulate import (
    _CHUNK,
    SE_FLOOR,
    _Guide,
    _JumpModel,
    _ahead,
    _psd_factor,
    _stream,
)

CFG = PathConfig()  # step 1e-3, cutoff 1e-3, correction on


# ---------------------------------------------------------------------------
# configuration invariants
# ---------------------------------------------------------------------------


def test_path_config_validation():
    with pytest.raises(ValidationError):
        PathConfig(step=2.0)
    with pytest.raises(ValidationError):
        PathConfig(small_jump_cutoff=0.0)
    with pytest.raises(ValidationError):
        PathConfig(small_jump_cutoff=1.5)


def test_truncation_rule_for_infinite_horizon_kernels():
    # exp(-s_max) must stay under the 1e-4 exponent-norm budget
    with pytest.raises(ValidationError):
        imap_integral_spec(s_max=5.0)
    with pytest.raises(ValidationError):
        clocked_integral_spec(1.0, s_max=8.0)
    imap_integral_spec(s_max=10.0)
    clocked_integral_spec(1.0, s_max=20.0)


# ---------------------------------------------------------------------------
# the driving process: under the unit kernel on (0, 1] a sample is Y(1)
# ---------------------------------------------------------------------------

UNIT = KernelIntegralSpec(kernel=np.ones_like, s_max=1.0)


def test_gaussian_increments_match_step_variance():
    x = sample_integral(gaussian(1.0).triplet, UNIT, CFG, 100_000, seed=3)[:, 0]
    n = x.size
    # sample variance of N(0, 1) over 1e5 draws, 3 sigma band
    assert abs(x.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)
    assert abs(x.mean()) < 3.0 / math.sqrt(n)


def test_shift_increments_deterministic():
    x = sample_integral(dirac([2.0]).triplet, UNIT, CFG, 3, seed=0)
    assert x.shape == (3, 1)
    assert np.all(x == 2.0)


def test_increments_deterministic_given_seed():
    a = sample_integral(gamma(1.0, 1.0).triplet, UNIT, CFG, 50, seed=7)
    b = sample_integral(gamma(1.0, 1.0).triplet, UNIT, CFG, 50, seed=7)
    assert np.array_equal(a, b)
    c = sample_integral(gamma(1.0, 1.0).triplet, UNIT, CFG, 50, seed=8)
    assert not np.array_equal(a, c)


def test_poisson_jump_rate():
    x = sample_integral(poisson(1.0, 2.0).triplet, UNIT, CFG, 100_000, seed=11)[:, 0]
    # every jump moves the path by exactly 2: Y(1) = 2 N with N ~ Poisson(1)
    counts = x / 2.0
    assert np.all(counts == np.round(counts)) and counts.min() >= 0.0
    assert abs(x.mean() - 2.0) < 3.0 * 2.0 / math.sqrt(x.size)


def test_compensated_small_jump_atom_is_centered():
    # an atom inside the unit ball is compensated: with the matching shift
    # in the family constructor, the mean of Y(1) stays at rate*jump
    mu = poisson(1.0, 0.5)
    x = sample_integral(mu.triplet, UNIT, CFG, 50_000, seed=5)[:, 0]
    band = 3.0 * x.std() / math.sqrt(x.size)
    assert abs(x.mean() - 0.5) < band


# ---------------------------------------------------------------------------
# random integral sampler
# ---------------------------------------------------------------------------


def test_jbeta_integral_gaussian_variance():
    samples = sample_integral(gaussian(1.0).triplet, jbeta_integral_spec(1.0), CFG, 100_000, seed=42)
    # discretized variance: sum (k step)^2 step = 1/3 - step/2 + O(step^2)
    assert abs(samples.var() - 1.0 / 3.0) < 5e-3


def test_clocked_integral_gaussian_variance():
    spec = clocked_integral_spec(1.0, s_max=20.0)
    samples = sample_integral(gaussian(1.0).triplet, spec, CFG, 100_000, seed=42)
    assert abs(samples.var() - 1.0 / 6.0) < 4e-3


def test_imap_integral_shift_deterministic():
    spec = imap_integral_spec(s_max=20.0)
    samples = sample_integral(dirac([1.0]).triplet, spec, CFG, 200, seed=1)
    assert np.all(samples == samples[0, 0])
    # left-point Riemann value of the kernel integral, step 1e-3
    assert samples[0, 0] == pytest.approx(1.0005000812711476, abs=1e-12)
    assert abs(samples[0, 0] - 1.0) < 2e-3


def test_integral_deterministic_and_thread_invariant():
    spec = jbeta_integral_spec(1.0)
    a = sample_integral(gamma(1.0, 1.0).triplet, spec, CFG, 20_000, seed=9)
    b = sample_integral(gamma(1.0, 1.0).triplet, spec, CFG, 20_000, seed=9)
    assert np.array_equal(a, b)
    c = sample_integral(gamma(1.0, 1.0).triplet, spec, CFG, 20_000, seed=10)
    assert not np.array_equal(a, c)


def test_mesh_refinement_stays_in_statistical_band():
    # halving the step moves the ecf by less than the combined band
    grid = np.array([[0.5], [1.0], [2.0]])
    spec = jbeta_integral_spec(1.0)
    cfg1 = PathConfig(step=2e-3)
    cfg2 = PathConfig(step=1e-3)
    e1 = ecf(sample_integral(gaussian(1.0).triplet, spec, cfg1, 20_000, seed=5), grid)
    e2 = ecf(sample_integral(gaussian(1.0).triplet, spec, cfg2, 20_000, seed=6), grid)
    band = 4.0 * np.sqrt(e1.std_error**2 + e2.std_error**2)
    assert np.all(np.abs(e1.values - e2.values) < band)


# ---------------------------------------------------------------------------
# empirical characteristic functions
# ---------------------------------------------------------------------------


def test_ecf_constant_samples():
    est = ecf(np.zeros((50, 1)), np.array([[0.5], [2.0]]))
    assert np.allclose(est.values, 1.0)
    assert np.allclose(est.std_error, 0.0)


def test_ecf_gaussian_value():
    rng = np.random.Generator(np.random.Philox(key=123))
    x = rng.standard_normal((100_000, 1))
    est = ecf(x, np.array([[1.0]]))
    assert abs(est.values[0] - math.exp(-0.5)) < 3.0 * est.std_error[0]


def test_ecf_at_zero_is_exactly_one():
    rng = np.random.Generator(np.random.Philox(key=5))
    x = rng.standard_normal((500, 1))
    est = ecf(x, np.array([[0.0]]))
    assert est.values[0] == pytest.approx(1.0, abs=1e-15)


def test_ecf_magnitude_bound():
    rng = np.random.Generator(np.random.Philox(key=17))
    x = rng.exponential(size=(2000, 1))
    est = ecf(x, np.array([[0.3], [1.0], [4.0]]))
    assert np.all(np.abs(est.values) <= 1.0 + 3.0 * est.std_error)


def test_ecf_needs_two_samples():
    with pytest.raises(ValidationError):
        ecf(np.zeros((1, 1)), np.array([[1.0]]))


def _ecf_direct(x, grid):
    """The ecf from ``exp(i X Y^T)`` on every grid row, two-pass variance."""
    vals = np.exp(1j * x @ grid.T)
    var = vals.real.var(axis=0, ddof=1) + vals.imag.var(axis=0, ddof=1)
    return vals.mean(axis=0), np.sqrt(var / len(x))


ECF_GRIDS = {
    "zero-row": np.array([[0.0], [-1.5], [0.5], [1.5], [-0.0]]),
    "duplicates": np.array([[2.0], [-2.0], [2.0], [0.7], [-2.0]]),
    "no-pairs": np.array([[0.3], [1.0], [4.0]]),
    "default2d": default_grid(2),
    "plane-pairs": np.array([[0.0, 1.0], [0.0, -1.0], [-0.5, 2.0], [0.5, -2.0], [0.0, 0.0]]),
}


@pytest.mark.parametrize("name", sorted(ECF_GRIDS))
def test_ecf_matches_the_direct_mean_and_is_conjugate_at_minus_y(name):
    grid = ECF_GRIDS[name]
    rng = np.random.Generator(np.random.Philox(key=41))
    x = rng.standard_normal((3000, grid.shape[1])) + rng.exponential(size=(3000, grid.shape[1]))
    est = ecf(x, grid)
    values, se = _ecf_direct(x, grid)
    assert np.max(np.abs(est.values - values)) <= 1e-15
    assert np.all(np.abs(est.std_error - se) <= 1e-15 * se)
    for i, j in zip(*np.nonzero(np.all(grid[:, None, :] == -grid[None, :, :], axis=2))):
        assert est.values[i] == np.conj(est.values[j])
        assert est.std_error[i] == est.std_error[j]


@pytest.mark.parametrize("value", [0.25, 1.7, -3.1])
def test_ecf_of_constant_samples_stays_degenerate(value):
    # a one-pass 1 - |mean|^2 would read about 2e-16 here, se about 6e-11
    grid = default_grid(1)
    est = ecf(np.full((50_000, 1), value), grid)
    assert np.all(est.std_error <= SE_FLOOR)
    res = cf_distance_test(est, lambda Y: 1.01j * value * Y[:, 0])
    assert res.status == "inconclusive"


# ---------------------------------------------------------------------------
# distance test
# ---------------------------------------------------------------------------


def _gauss_samples(n, seed=99):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal((n, 1))


def test_cf_distance_same_law_passes():
    est = ecf(_gauss_samples(100_000), np.array([[0.5], [1.0], [2.0]]))
    res = cf_distance_test(est, lambda Y: -0.5 * Y[:, 0] ** 2)
    assert res.status == "pass"
    assert res.max_z < 4.0


def test_cf_distance_wrong_variance_fails():
    est = ecf(_gauss_samples(100_000), np.array([[1.0]]))
    res = cf_distance_test(est, lambda Y: -Y[:, 0] ** 2)  # variance 2
    assert res.status == "fail"
    assert res.max_z > 10.0


def test_cf_distance_small_n_inconclusive():
    est = ecf(_gauss_samples(10), np.array([[1.0]]))
    res = cf_distance_test(est, lambda Y: -0.5 * Y[:, 0] ** 2)
    assert res.status == "inconclusive"


def test_cf_distance_degenerate_se_without_band_inconclusive():
    est = ecf(np.full((5000, 1), 0.25), np.array([[1.0]]))
    res = cf_distance_test(est, lambda Y: 0.26j * Y[:, 0])
    assert res.status == "inconclusive"


def test_cf_distance_degenerate_se_with_band():
    est = ecf(np.full((5000, 1), 0.25), np.array([[1.0]]))
    close = cf_distance_test(est, lambda Y: 0.2501j * Y[:, 0], det_tol=1e-3)
    assert close.status == "pass"
    far = cf_distance_test(est, lambda Y: 0.35j * Y[:, 0], det_tol=1e-3)
    assert far.status == "fail"


# ---------------------------------------------------------------------------
# three-layer agreement, thinned (the acceptance suite runs the full matrix)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,beta", [("gaussian", 0.5), ("poisson", 2.0)])
def test_sampler_matches_quadrature_exponent(family, beta):
    mu = {"gaussian": gaussian(1.0), "poisson": poisson(1.0, 2.0)}[family]
    spec = jbeta_integral_spec(beta)
    samples = sample_integral(mu.triplet, spec, CFG, 50_000, seed=21)
    est = ecf(samples, np.array([[0.5], [1.0], [2.0], [5.0]]))
    res = cf_distance_test(est, j_beta(mu, beta).exponent)
    assert res.status == "pass", res


def test_cor1a_sampler_matches_twice_mapped():
    mu = gaussian(1.0)
    spec = cor1a_integral_spec(1.0)
    samples = sample_integral(mu.triplet, spec, CFG, 50_000, seed=23)
    est = ecf(samples, np.array([[0.5], [1.0], [2.0]]))
    res = cf_distance_test(est, j_beta(j_beta(mu, 1.0), 2.0).exponent)
    assert res.status == "pass", res


# ---------------------------------------------------------------------------
# the jump table and its guide-table lookups
# ---------------------------------------------------------------------------

EPS = CFG.small_jump_cutoff

# atoms and densities on two rays, like the benchmark's plane2d spec
PLANE2D = measure_from_spec({
    "dim": 2, "shift": [0.2, -0.3], "cov": [[0.5, 0.1], [0.1, 0.4]],
    "spectral": {"rays": [
        {"direction": [math.cos(0.7), math.sin(0.7)],
         "atoms": [{"r": 0.5, "w": 0.6}, {"r": 1.5, "w": 0.4}],
         "densities": [{"lo": 0.1, "hi": 1.5, "kind": "power",
                        "coef": 0.6, "exponent": -0.5}]},
        {"direction": [math.cos(2.9), math.sin(2.9)],
         "atoms": [{"r": 2.0, "w": 0.5}]},
    ]},
})
EXP_TAIL = measure_from_spec({
    "dim": 1, "shift": [-0.25], "cov": [[0.3]],
    "spectral": {"rays": [
        {"direction": [1.0],
         "atoms": [{"r": 0.7, "w": 0.6}],
         "densities": [{"lo": 0.0, "hi": "inf", "kind": "exp", "coef": 0.6,
                        "exponent": -0.5, "rate": 1.5}]},
        {"direction": [-1.0], "atoms": [{"r": 1.6, "w": 0.5}]},
    ]},
})
# the CI triplet spec: an exp density after an atom of mass 0.5
TRIPLET = measure_from_spec({"dim": 1, "spectral": {"rays": [{
    "direction": [1.0], "atoms": [{"r": 0.7, "w": 0.5}],
    "densities": [{"lo": 0, "hi": "inf", "kind": "exp", "coef": 0.6,
                   "exponent": 0, "rate": 2}]}]}})
TABLE_MEASURES = {"gamma": gamma(1.0, 1.0), "poisson": poisson(1.0, 2.0),
                  "plane2d": PLANE2D, "exp-tail": EXP_TAIL, "triplet": TRIPLET}


def _components(M, eps):
    """``(mass, direction, radius nodes, normalized cdf)`` of each atom and
    density segment above ``eps``, each ray's atoms before its densities:
    the mixture the sampler draws from, one component at a time."""
    out = []
    for ray in M.rays:
        for at in ray.atoms:
            if at.r > eps:
                out.append((at.w, ray.direction, np.array([at.r, at.r]), np.array([0.0, 1.0])))
        for seg in ray.densities:
            lo = max(seg.lo, eps)
            if lo < seg.hi:
                mass = _segment_mass(seg, np.array([lo]), np.array([math.inf]))[0]
                out.append((mass, ray.direction, *_JumpModel._build_table(seg, lo, mass)))
    return out


@st.composite
def _sorted_meshes(draw):
    kind = draw(st.sampled_from(["uniform", "clock", "gaps"]))
    if kind != "gaps":
        # the time meshes: the uniform one in s, and tau = sigma_clock(beta, s)
        s = np.linspace(0.0, draw(st.floats(1.0, 20.0)), draw(st.integers(2, 3000)))
        if kind == "uniform":
            return s
        return sigma_clock(draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])), s)
    # zero gaps give ties and flat runs; the others span six decades
    gaps = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 1e2)),
                         min_size=1, max_size=80).filter(lambda g: max(g) > 0.0))
    return draw(st.floats(-100.0, 100.0)) + np.cumsum([0.0] + gaps)


@settings(max_examples=200, deadline=None)
@given(_sorted_meshes())
def test_guide_matches_binary_search(x):
    # nodes, just below them, midway between them, x[0] and just below x[-1];
    # then each bucket's nominal edge and three doubles either side, among
    # them the least query of each bucket and its predecessor
    inner, guide = x[x < x[-1]], _Guide(x)
    q = np.concatenate([inner, np.nextafter(inner[inner > x[0]], -np.inf),
                        0.5 * (inner + np.minimum(x[1:len(inner) + 1], x[-1])),
                        [x[0], np.nextafter(x[-1], -np.inf)]])
    edge = x[0] + np.arange(2 * (len(x) - 1)) / guide._scale
    near = [edge]
    for direction in (np.inf, -np.inf):
        step = edge
        for _ in range(3):
            step = np.nextafter(step, direction)
            near.append(step)
    q = np.concatenate([q, *near])
    q = q[(q >= x[0]) & (q < x[-1])]
    assert np.array_equal(guide(q), np.searchsorted(x, q, "right") - 1)


def test_guide_walks_rarely_on_a_uniform_mesh():
    # bucket starts pulled 1e-12 low sent half of these lookups walking
    x = np.linspace(0.0, 20.0, 20001)
    guide, q = _Guide(x), _stream(7, 0).uniform(0.0, 20.0, 65536)
    bucket = np.clip((q - x[0]) * guide._scale, 0, len(guide._start) - 1).astype(np.intp)
    assert np.mean(guide._right[guide._start[bucket]] <= q) < 0.10
    assert np.array_equal(guide(q), np.searchsorted(x, q, "right") - 1)


@pytest.mark.parametrize("name", sorted(TABLE_MEASURES))
def test_jump_table_is_the_component_cdfs_end_to_end(name):
    mu = TABLE_MEASURES[name]
    model = _JumpModel(mu.triplet.M, EPS)
    offset, start = 0.0, 0
    for mass, direction, r, cdf in _components(mu.triplet.M, EPS):
        n = len(r) - 1
        got = model._cum[start:start + n + 1]
        assert np.max(np.abs(got - (offset + mass * cdf))) <= 1e-15 * model.rate
        assert np.array_equal(model._r0[start:start + n], r[:-1])
        # each cell's mass is its component's own, free of the offset's rounding
        cell = mass * np.diff(cdf)
        slope = np.divide(np.diff(r), cell, out=np.zeros(n), where=cell > 0.0)
        assert np.array_equal(model._slope[start:start + n], slope)
        assert np.all(model._dirs[:, start:start + n].T == direction)
        offset += mass
        start += n
    assert start == len(model._r0)
    assert model.rate == offset


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["gamma", "exp-tail"])
def test_jump_radii_are_finite_and_inside_the_table(name):
    M = TABLE_MEASURES[name].triplet.M
    model = _JumpModel(M, EPS)
    cell_mass = np.diff(model._cum)
    if name == "gamma":
        # beyond r ~ 29 the density underflows in the normalized cdf
        assert np.count_nonzero(cell_mass == 0.0) > 0
    own = np.concatenate([m * np.diff(cdf) for m, _, _, cdf in _components(M, EPS)])
    assert np.all(np.isfinite(model._slope))
    assert np.all(model._slope[own == 0.0] == 0.0)
    hi = max(r[-1] for _, _, r, _ in _components(M, EPS))
    radii = np.abs(model.sample(_stream(3, 0).random(200_000))[0])
    assert np.all(np.isfinite(radii))
    assert radii.min() >= EPS and radii.max() <= hi
    # a uniform that rounds up to the total mass still finds a cell of mass
    top = model._cum[-1]
    j = model._cells(np.array([top, np.nextafter(top, 0.0)]))
    assert np.all(cell_mass[j] > 0.0)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_sampler_draws_from_a_smeared_triplet(beta):
    # the smear of gamma's density is ~ 1/r at 0: the small-jump second
    # moment below the cutoff integrates it from 0
    triplet = smear_triplet(gamma(1.0, 1.0).triplet, beta)
    samples = sample_integral(triplet, jbeta_integral_spec(1.0), CFG, 500, seed=5)
    assert samples.shape == (500, 1)
    assert np.all(np.isfinite(samples))


def test_jump_table_rejects_a_tail_that_never_gets_negligible():
    # r^-1.5 has a finite tail mass, but at the last cutoff, 1e15, the mass
    # beyond is still 6e-8
    M = SpectralMeasure(
        (RadialComponent(np.array([1.0]), densities=(power_segment(1.0, -1.5, 1.0, math.inf),)),)
    )
    with pytest.raises(ValidationError, match="decays too slowly"):
        _JumpModel(M, EPS)


def _reference_sample(triplet, spec, cfg, n, seed):
    """The stepwise scheme on the same Philox streams, drawn through binary
    searches, ``np.interp`` per component and ``np.add.at``."""
    s = np.linspace(0.0, spec.s_max, max(1, int(round(spec.s_max / cfg.step))) + 1)
    tau = spec.clock(s) if spec.clock is not None else s
    dtau = np.clip(np.diff(tau), 0.0, None)
    f_left = spec.kernel(s[:-1])
    M, eps = triplet.M, cfg.small_jump_cutoff
    det = math.fsum(f_left * dtau) * (triplet.a - M.mean_between(eps))
    factor = _psd_factor(math.fsum(f_left**2 * dtau) * (triplet.S + M.second_moment_below(eps)))
    comps = _components(M, eps)
    offsets = np.concatenate([[0.0], np.cumsum([c[0] for c in comps])])
    rate = float(sum(c[0] for c in comps))
    out = []
    for idx in range(-(-n // _CHUNK)):
        m = min(_CHUNK, n - idx * _CHUNK)
        rng = _stream(seed, idx)
        x = rng.standard_normal((m, triplet.dim)) @ factor.T + det
        counts = rng.poisson(rate * tau[-1], m)
        total = int(counts.sum())
        u = rng.random(total) * tau[-1]
        k = np.clip(np.searchsorted(tau, u, "left") - 1, 0, len(f_left) - 1)
        q = rng.random(total) * offsets[-1]
        c = np.minimum(np.searchsorted(offsets, q, "right") - 1, len(comps) - 1)
        vecs = np.empty((total, triplet.dim))
        for i, (mass, direction, r, cdf) in enumerate(comps):
            sel = c == i
            vecs[sel] = np.interp(q[sel], offsets[i] + mass * cdf, r)[:, None] * direction
        np.add.at(x, np.repeat(np.arange(m), counts), vecs * f_left[k][:, None])
        out.append(x)
    return np.vstack(out)


@pytest.mark.parametrize("name,spec,n", [
    ("gamma", clocked_integral_spec(1.0, 20.0), _CHUNK + 300),
    ("exp-tail", imap_integral_spec(20.0), 2000),
    ("plane2d", jbeta_integral_spec(2.0), 5000),
    ("poisson", cor1a_integral_spec(0.5), 5000),
])
def test_sampler_matches_reference_draws(name, spec, n):
    triplet = TABLE_MEASURES[name].triplet
    got = sample_integral(triplet, spec, CFG, n, seed=31)
    want = _reference_sample(triplet, spec, CFG, n, seed=31)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(got))


@pytest.mark.parametrize("name,spec,n", [
    ("gamma", clocked_integral_spec(1.0, 20.0), _CHUNK + 300),
    ("plane2d", jbeta_integral_spec(2.0), 5000),
    ("exp-tail", imap_integral_spec(20.0), 2000),
    ("poisson", cor1a_integral_spec(0.5), 5000),
])
def test_draws_do_not_depend_on_the_block_size(name, spec, n, monkeypatch):
    triplet = TABLE_MEASURES[name].triplet
    want = sample_integral(triplet, spec, CFG, n, seed=31)
    for block in (1, 4097, 1 << 22):
        monkeypatch.setattr(simulate, "_BLOCK", block)
        assert np.array_equal(sample_integral(triplet, spec, CFG, n, seed=31), want), block


@pytest.mark.parametrize("skip", [0, 1, 3, 4, 5, 13, 65_537])
@pytest.mark.parametrize("start", ["raw0", "raw1", "raw2", "raw3", "poisson"])
def test_a_positioned_stream_continues_one_long_draw(start, skip):
    # Philox buffers four outputs per counter step: every buffer position
    # the chunk stream can be in, before skips within and across steps
    rng = _stream(11, 2)
    if start == "poisson":
        rng.poisson(3.7, 5)
    else:
        rng.bit_generator.random_raw(int(start[-1]))
    ahead = _ahead(rng.bit_generator, skip).random(9)
    # the long draw comes from the stream itself, which stays where it was
    assert np.array_equal(ahead, rng.random(skip + 9)[skip:])


# about 11,000 jumps per sample: the chunk's uniforms alone would be 1.4 GB
STABLE_09 = measure_from_spec({"dim": 1, "spectral": {"rays": [{
    "direction": [1.0], "atoms": [{"r": 0.5, "w": 1.0}],
    "densities": [{"lo": 0, "hi": "inf", "kind": "power", "coef": 1.0,
                   "exponent": -1.9}]}]}})


@pytest.mark.parametrize("n", [1024, 4096])
def test_sampler_memory_is_bounded_by_the_block(n):
    spec = imap_integral_spec(20.0)
    tracemalloc.start()
    try:
        x = sample_integral(STABLE_09.triplet, spec, CFG, n, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (n, 1) and np.all(np.isfinite(x))
    assert peak < 16e6, peak


# six draws at seed 2024, pinned before the sampler became one table:
# neither family draws from a density segment or chooses between atoms.
# The mesh sums are exactly rounded (math.fsum), so the draws do not depend
# on BLAS threads; gaussian-clocked was re-pinned when they became so, its
# variance 2 ulp lower
PINNED = {
    ('gaussian', 'jbeta'): [0.8123309507889227, 0.5954864511897293, 0.2699236800496034, -0.5445120791337754, 0.16696133665604385, 0.20402007459175006],
    ('gaussian', 'imap'): [0.9961427946164634, 0.7302313632987651, 0.33100121165719176, -0.6677226611690202, 0.20474085386987528, 0.25018513336751297],
    ('gaussian', 'clocked'): [0.5751234064769776, 0.4215993444377741, 0.19110367050296884, -0.38550992242157084, 0.11820720679707827, 0.1444444781710445],
    ('gaussian', 'cor1a'): [0.5757199725805854, 0.4220366625426579, 0.19130189921495167, -0.38590980555922644, 0.11832982119945369, 0.14459430806591525],
    ('poisson', 'jbeta'): [0.858, 0.0, 0.9740000000000001, 0.0, 0.0, 1.392],
    ('poisson', 'imap'): [1.9868673796800862, 0.9148626600909765, 1.3096139086884169, 0.58640189347653, 5.177998720280768, 3.2643862157709442],
    ('poisson', 'clocked'): [0.9653878997182761, 0.420285002456556, 0.6134533386410537, 0.256020311527154, 2.8110298130129383, 1.8886016599943236],
    ('poisson', 'cor1a'): [0.6900381684949748, 0.0, 2.3448886118061303, 0.0, 0.0, 1.7128949733771446],
}


@pytest.mark.parametrize("family,kernel", sorted(PINNED))
def test_gaussian_and_poisson_draws_are_pinned(family, kernel):
    mu = {"gaussian": gaussian(1.0), "poisson": poisson(1.0, 2.0)}[family]
    spec = {"jbeta": jbeta_integral_spec(1.0), "imap": imap_integral_spec(20.0),
            "clocked": clocked_integral_spec(1.0, 20.0),
            "cor1a": cor1a_integral_spec(1.0)}[kernel]
    x = sample_integral(mu.triplet, spec, CFG, 6, seed=2024)[:, 0]
    assert np.array_equal(x, PINNED[family, kernel])
