"""The batched exponent contract and the radial transform behind every mapping."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import spence

from idcalc import (
    IdMeasure,
    QuadratureError,
    ValidationError,
    batched_exponent,
    conv_power,
    convolve,
    corollary1a_kernel,
    default_grid,
    dirac,
    factor_rho,
    gamma,
    gaussian,
    i_map,
    i_of_j_beta,
    j_beta,
    j_beta_inverse,
    measure_from_spec,
    poisson,
    radial_map,
    verify_identity,
)
from idcalc.quadrature import ABS_TOL, REL_TOL

BETAS = (0.5, 1.0, 2.0)
MAPPINGS = {
    "jbeta": lambda mu, b: j_beta(mu, b),
    "jbeta-inv": lambda mu, b: j_beta_inverse(mu, b),
    "imap": lambda mu, b: i_map(mu),
    "i-of-jbeta": lambda mu, b: i_of_j_beta(mu, b),
    "cor1a": lambda mu, b: corollary1a_kernel(mu, b),
}
# wide enough that some rows refine further than others
BATCH = np.array([-100.0, -5.0, -1.0, -0.1, 0.0, 0.1, 0.5, 2.0, 20.0]).reshape(-1, 1)


def counted(mu):
    """``mu`` with an exponent that records every batch it is called on."""
    batches = []
    src = mu.exponent

    def f(Y):
        batches.append(np.array(Y))
        return src(Y)

    return IdMeasure(mu.dim, batched_exponent(f), log_moment_known=True), batches


# ---------------------------------------------------------------------------
# batch versus point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MAPPINGS))
@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("seed", ("gamma", "poisson"))
def test_batch_equals_pointwise(name, beta, seed):
    mu = {"gamma": gamma(1.0, 1.0), "poisson": poisson(1.0, 2.0)}[seed]
    out = MAPPINGS[name](mu, beta)
    batch = out.exponent(BATCH)
    assert batch.shape == (len(BATCH),)
    for y, z in zip(BATCH, batch):
        assert abs(z - out.exponent(y)) <= 1e-13


def test_batch_equals_pointwise_nested_2d():
    mu = gaussian(cov=[[2.0, 0.5], [0.5, 1.0]], shift=[0.3, -0.2])
    out = i_map(j_beta(mu, 2.0))
    grid = default_grid(2)[::7]
    batch = out.exponent(grid)
    for y, z in zip(grid, batch):
        assert abs(z - out.exponent(y)) <= 1e-13


def test_easy_element_pays_what_it_pays_alone():
    # rows of the easy y are the negative ones; the hard y=+100 refines more
    mu, batches = counted(gamma(1.0, 1.0))
    out = i_map(mu)
    alone = out.exponent(np.array([[-0.1]]))
    easy_alone = sum(int((Y[:, 0] < 0).sum()) for Y in batches)
    batches.clear()
    both = out.exponent(np.array([[-0.1], [100.0]]))
    easy_mixed = sum(int((Y[:, 0] < 0).sum()) for Y in batches)
    hard = sum(int((Y[:, 0] > 0).sum()) for Y in batches)
    assert both[0] == alone[0]
    assert easy_mixed == easy_alone
    assert hard > easy_alone


# ---------------------------------------------------------------------------
# accuracy and failure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k, lam", [(1.0, 1.0), (2.5, 0.5)])
def test_imap_gamma_dilogarithm(k, lam):
    # I(gamma(k, lam))(y) = k Li2(i y/lam), and Li2(z) = spence(1 - z)
    y = np.array([-100.0, -30.0, -5.0, -0.1, 0.1, 1.0, 2.0, 5.0, 10.0, 60.0, 100.0])
    got = i_map(gamma(k, lam)).exponent(y.reshape(-1, 1))
    want = k * spence(1.0 - 1j * y / lam)
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(got) - part(want)) <= np.maximum(ABS_TOL, REL_TOL * np.abs(part(want))))


def test_nonintegrable_integrand_raises_with_errors():
    # phi(u y) = i u y against 1/u^2: the integrand i y/u is not integrable at 0
    phi = radial_map(dirac([1.0]), lambda u: 1.0 / u**2)
    with pytest.raises(QuadratureError) as info:
        phi(np.array([[1.0], [0.5]]))
    err = info.value
    assert err.achieved is not None and err.requested is not None
    assert err.achieved > err.requested > 0


# exponents whose i_map integrand phi(u y)/u ~ u**(alpha-1) blows up at u = 0
ALPHAS = (0.3, 0.5, 1.5, 1.9)
STABLE_Y = np.array([-50.0, -5.0, -1.0, -0.1, 0.1, 1.0, 5.0, 50.0]).reshape(-1, 1)
# an atom (r 0.5, w 1) and the one-sided 1/2-stable density r^-1.5 on (0, inf)
HALF_STABLE_SPEC = {
    "dim": 1, "shift": [0.0], "cov": [[0.0]],
    "spectral": {"rays": [{"direction": [1.0], "atoms": [{"r": 0.5, "w": 1.0}],
                           "densities": [{"lo": 0, "hi": "inf", "kind": "power",
                                          "coef": 1.0, "exponent": -1.5}]}]},
}


def symmetric_stable(alpha):
    """The exponent ``-|y|**alpha`` (Sato 1999, section 14)."""
    fn = batched_exponent(lambda Y: -np.abs(Y[:, 0]) ** alpha + 0j)
    return IdMeasure.from_exponent(1, fn, log_moment_known=True)


def assert_rel(got, want, tol=1e-10):
    assert np.all(np.abs(got - want) <= tol * np.abs(want)), np.max(np.abs(got / want - 1))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_imap_of_symmetric_stable(alpha):
    # I(phi)(y) = int_0^1 -|u y|^alpha du/u = -|y|^alpha/alpha
    got = i_map(symmetric_stable(alpha)).exponent(STABLE_Y)
    assert_rel(got, -np.abs(STABLE_Y[:, 0]) ** alpha / alpha)


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_i_of_j_beta_of_symmetric_stable(alpha, beta):
    # weight u^-1 - u^(beta-1): -|y|^alpha (1/alpha - 1/(alpha+beta))
    got = i_of_j_beta(symmetric_stable(alpha), beta).exponent(STABLE_Y)
    assert_rel(got, -np.abs(STABLE_Y[:, 0]) ** alpha * (1.0 / alpha - 1.0 / (alpha + beta)))


def test_imap_of_log_exponent_is_dilogarithm():
    # int_0^1 -log(1 + u|y|) du/u = Li2(-|y|), and Li2(z) = spence(1 - z)
    fn = batched_exponent(lambda Y: -np.log1p(np.abs(Y[:, 0])) + 0j)
    mu = IdMeasure.from_exponent(1, fn, log_moment_known=True)
    got = i_map(mu).exponent(STABLE_Y)
    assert_rel(got, spence(1.0 + np.abs(STABLE_Y[:, 0])))


def test_imap_of_half_stable_spec():
    mp = pytest.importorskip("mpmath")
    mu = measure_from_spec(HALF_STABLE_SPEC)
    got = i_map(replace(mu, log_moment_known=True)).exponent(STABLE_Y)
    for y, z in zip(STABLE_Y[:, 0], got):
        # the density's exponent Gamma(-1/2)(-iy)^(1/2) - 2iy is homogeneous
        # of degree 1/2 past its compensator; the atom's by mpmath quadrature
        stable = mp.gamma(-0.5) * mp.sqrt(-1j * y) / 0.5 - 2j * y
        atom = mp.quad(lambda u: (mp.expj(u * y / 2) - 1 - 0.5j * u * y) / u, [0, 1])
        want = complex(stable + atom)
        assert abs(z - want) <= 1e-10 * abs(want), (y, z, want)


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("seed", ("half-stable-spec", 0.3, 0.5))
def test_prop2_on_stable_like_measures(seed, beta):
    if seed == "half-stable-spec":
        mu = measure_from_spec(HALF_STABLE_SPEC)
    else:
        mu = symmetric_stable(seed)
    (report,) = verify_identity("prop2", mu, beta=beta, mc_n=0)
    assert report.passed, report


# two rays, atoms and a power density (the benchmark's plane2d spec at seed 7)
PLANE_SPEC = {
    "dim": 2, "shift": [0.2, -0.3],
    "cov": [[0.688228088636939, 0.06778850119862961],
            [0.06778850119862961, 0.30445961606090804]],
    "spectral": {"rays": [
        {"direction": [-0.9996940109277227, -0.024736299546260235],
         "atoms": [{"r": 0.5, "w": 0.6}, {"r": 1.5, "w": 0.4}],
         "densities": [{"lo": 0.1, "hi": 1.5, "kind": "power", "coef": 0.6, "exponent": -0.5}]},
        {"direction": [0.6083202515713982, -0.7936916728353087],
         "atoms": [{"r": 2.0, "w": 0.5}]}]},
}


def test_i_of_j_beta_on_plane_spec_with_a_small_imaginary_part():
    # the value is about -5.32 - 5.2e-5 i: its imaginary part alone cannot
    # meet 1e-10 of itself, the modulus can
    mu = measure_from_spec(PLANE_SPEC)
    y = np.array([[-5.582, -3.462]])
    got = i_of_j_beta(mu, 1.5).exponent(y)
    assert_rel(got, i_map(j_beta(mu, 1.5)).exponent(y))


def test_row_cap_bounds_every_source_call():
    from idcalc.quadrature import ROW_CAP

    mu, batches = counted(gamma(1.0, 1.0))
    j_beta(j_beta(mu, 1.0), 2.0).exponent(default_grid(1))
    assert batches and max(len(Y) for Y in batches) <= ROW_CAP


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def transforms(mu):
    for b in BETAS:
        yield j_beta(mu, b)
        yield j_beta_inverse(mu, b)
        yield i_of_j_beta(replace(mu, log_moment_known=True), b)
        yield corollary1a_kernel(mu, b)
        yield factor_rho(mu, b)
    yield i_map(replace(mu, log_moment_known=True))
    yield convolve(mu, mu)
    yield conv_power(mu, 0.5)


@pytest.mark.parametrize("mu", [gamma(1.0, 1.0), poisson(1.0, 2.0), gaussian(cov=[[1.0, 0.2], [0.2, 2.0]])])
def test_every_transform_vanishes_at_zero(mu):
    for out in transforms(mu):
        assert out.exponent(np.zeros(mu.dim)) == 0, out.label
        assert out.exponent(np.zeros((2, mu.dim))).tolist() == [0j, 0j], out.label


def test_nested_build_makes_no_leaf_calls():
    mu, batches = counted(gamma(1.0, 1.0))
    mu = IdMeasure.from_exponent(1, mu.exponent, log_moment_known=True)
    batches.clear()
    for _ in range(4):
        mu = j_beta(mu, 1.0)
    assert batches == []
    mu.exponent(np.array([1.0]))
    assert batches


def test_nested_build_on_a_triplet_runs_no_quadrature(monkeypatch):
    # the mapped measures carry no closed-form triplet, so building four
    # levels on a triplet-bearing measure smears and validates nothing
    from idcalc import quadrature

    # integrand evaluations: panels of the one GK21 rule times its nodes
    evals = [0]
    plain = quadrature._panel_rules

    def counting(f, elem, a, b, where):
        evals[0] += len(elem) * quadrature.GK21_NODES.size
        return plain(f, elem, a, b, where)

    monkeypatch.setattr(quadrature, "_panel_rules", counting)
    mu = gamma(1.0, 1.0)
    for _ in range(4):
        mu = j_beta(mu, 1.0)
    assert evals[0] == 0
    assert mu.triplet is None
    assert mu.log_moment_known is True


def test_supplied_exponents_are_checked():
    ones = lambda Y: np.ones(len(Y), dtype=complex)
    with pytest.raises(ValidationError, match="vanish"):
        IdMeasure.from_exponent(1, ones)
    with pytest.raises(ValidationError, match="vanish"):
        IdMeasure.from_triplet(gamma(1.0, 1.0).triplet, exponent=ones)
    # a one-vector callable is rejected, whether it fails on a batch or
    # maps it to a scalar
    for one_vector in (lambda y: 1j * float(y[0]), lambda y: 0j):
        with pytest.raises(ValidationError, match="rows"):
            IdMeasure.from_exponent(1, one_vector)
        with pytest.raises(ValidationError, match="rows"):
            IdMeasure.from_triplet(gamma(1.0, 1.0).triplet, exponent=one_vector)
