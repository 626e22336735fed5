import math

import numpy as np
import pytest

from idcalc import (
    KernelIntegralSpec,
    PathConfig,
    ValidationError,
    cf_distance_test,
    clocked_integral_spec,
    cor1a_integral_spec,
    dirac,
    ecf,
    gamma,
    gaussian,
    imap_integral_spec,
    j_beta,
    jbeta_integral_spec,
    poisson,
    sample_integral,
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


# ---------------------------------------------------------------------------
# distance test
# ---------------------------------------------------------------------------


def _gauss_samples(n, seed=99):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal((n, 1))


def test_cf_distance_same_law_passes():
    est = ecf(_gauss_samples(100_000), np.array([[0.5], [1.0], [2.0]]))
    res = cf_distance_test(est, lambda y: -0.5 * float(y[0]) ** 2)
    assert res.status == "pass"
    assert res.max_z < 4.0


def test_cf_distance_wrong_variance_fails():
    est = ecf(_gauss_samples(100_000), np.array([[1.0]]))
    res = cf_distance_test(est, lambda y: -float(y[0]) ** 2)  # variance 2
    assert res.status == "fail"
    assert res.max_z > 10.0


def test_cf_distance_small_n_inconclusive():
    est = ecf(_gauss_samples(10), np.array([[1.0]]))
    res = cf_distance_test(est, lambda y: -0.5 * float(y[0]) ** 2)
    assert res.status == "inconclusive"


def test_cf_distance_degenerate_se_without_band_inconclusive():
    est = ecf(np.full((5000, 1), 0.25), np.array([[1.0]]))
    res = cf_distance_test(est, lambda y: 0.26j * float(y[0]))
    assert res.status == "inconclusive"


def test_cf_distance_degenerate_se_with_band():
    est = ecf(np.full((5000, 1), 0.25), np.array([[1.0]]))
    close = cf_distance_test(est, lambda y: 0.2501j * float(y[0]), det_tol=1e-3)
    assert close.status == "pass"
    far = cf_distance_test(est, lambda y: 0.35j * float(y[0]), det_tol=1e-3)
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
