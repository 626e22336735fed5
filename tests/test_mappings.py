import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcalc import (
    DomainError,
    IdMeasure,
    LevyTriplet,
    RadialAtom,
    RadialComponent,
    SpectralMeasure,
    callable_segment,
    char_exponent,
    conv_power,
    convolve,
    corollary1a_kernel,
    default_grid,
    dirac,
    gamma,
    gaussian,
    i_map,
    i_of_j_beta,
    j_beta,
    j_beta_inverse,
    log_moment,
    measure_from_spec,
    poisson,
    power_segment,
    sigma_clock,
    smear_spectral,
    smear_triplet,
    verify_identity,
)
from idcalc.factorization import smeared_interval_mass
from idcalc.mappings import check_beta
from idcalc.errors import ValidationError

BETAS = (0.5, 1.0, 2.0)
GRID = default_grid(1)

FAMILIES = {
    "gaussian": gaussian(1.0),
    "shift": dirac([1.0]),
    "poisson": poisson(1.0, 2.0),
    "gamma": gamma(1.0, 1.0),
}


def max_grid_diff(mu, nu, grid=GRID):
    return max(abs(complex(mu.exponent(y)) - complex(nu.exponent(y))) for y in grid)


# ---------------------------------------------------------------------------
# shrinking map
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", BETAS)
def test_jbeta_gaussian_variance_factor(beta):
    out = j_beta(gaussian(1.0), beta)
    factor = beta / (beta + 2.0)
    for y in GRID:
        want = -0.5 * factor * float(y[0]) ** 2
        assert complex(out.exponent(y)) == pytest.approx(want, abs=1e-10)
    # closed-form triplet carries the same contraction
    assert smear_triplet(gaussian(1.0).triplet, beta).S[0, 0] == pytest.approx(factor, abs=1e-14)


@pytest.mark.parametrize("beta", BETAS)
def test_jbeta_shift_factor(beta):
    out = j_beta(dirac([1.0]), beta)
    factor = beta / (beta + 1.0)
    for y in GRID:
        assert complex(out.exponent(y)) == pytest.approx(
            1j * factor * float(y[0]), abs=1e-10
        )
    assert smear_triplet(dirac([1.0]).triplet, beta).a[0] == pytest.approx(factor, abs=1e-14)


def test_jbeta_atom_smear_against_mesh_oracle():
    # atom (r0=1, w=1) at beta=1 must smear to the flat density on (0, 1];
    # oracle: measure of {t in (0,1): t*r0 in (a, b]} on a radial mesh
    M = SpectralMeasure((RadialComponent(np.array([1.0]), atoms=(RadialAtom(1.0, 1.0),)),))
    smeared = smear_spectral(M, 1.0)
    tgrid = np.linspace(0.0, 1.0, 200_001)[1:]
    for a, b in [(0.1, 0.3), (0.5, 0.9), (0.05, 1.0)]:
        oracle = np.mean((tgrid > a) & (tgrid <= b))
        assert smeared.interval_mass(0, a, b) == pytest.approx(oracle, abs=1e-4)
        assert smeared.interval_mass(0, a, b) == pytest.approx(b - a, abs=1e-12)
    seg = smeared.rays[0].densities[0]
    assert seg.fn(0.4) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("beta", (0.5, 2.0))
def test_smear_density_closed_form_vs_direct(beta):
    # uniform density smeared two ways: transformed-measure object versus
    # the definition of the mapped measure, integrated over t in closed form
    M = SpectralMeasure(
        (RadialComponent(np.array([1.0]), densities=(power_segment(1.0, 0.0, 0.0, 1.0),)),)
    )
    smeared = smear_spectral(M, beta)
    for a, b in [(0.125, 0.25), (0.5, 1.0), (0.25, 2.0)]:
        direct = smeared_interval_mass(M, beta, 0, a, b)
        assert smeared.interval_mass(0, a, b) == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("beta", (1.0, 2.0))
def test_smeared_triplet_of_singular_power_density_from_zero(beta):
    # the smear of r^-2.5 on (0, 1) is ~ r^-2.5 at 0, so char_exponent's
    # integrand ~ r^-0.5 there; it converges only after r = u^2
    seg = power_segment(1.0, -2.5, 0.0, 1.0)
    M = SpectralMeasure((RadialComponent(np.array([1.0]), densities=(seg,)),))
    mu = IdMeasure.from_triplet(LevyTriplet(np.zeros(1), np.zeros((1, 1)), M))
    y = np.array([0.5])
    triplet_route = char_exponent(smear_triplet(mu.triplet, beta), y)
    assert abs(triplet_route - complex(j_beta(mu, beta).exponent(y))) < 1e-10


@pytest.mark.parametrize("beta", BETAS)
def test_smeared_gamma_second_moment_below_against_mpmath(beta):
    # the smear of e^-r/r is b r^(b-1) Gamma(-b, r) ~ 1/r at 0; its hint
    # gives r^2 g(r) the power 1, so no radius near 0 is probed.  Oracle,
    # with the t-integral done first: b/(b+2) (gamma(2, eps) + eps^(b+2)
    # Gamma(-b, eps))
    mp = pytest.importorskip("mpmath")
    eps = 1e-3
    with mp.workdps(40):
        want = float(beta / (beta + 2) * (mp.gammainc(2, 0, eps)
                                          + mp.mpf(eps) ** (beta + 2) * mp.gammainc(-beta, eps)))
    got = smear_spectral(gamma(1.0, 1.0).triplet.M, beta).second_moment_below(eps)[0, 0]
    assert abs(got - want) <= max(1e-14, 1e-10 * abs(want))


def test_kink_of_smeared_density_cuts_the_exponent(monkeypatch):
    # a power density on (0.2, 3) smears to a density that bends at 0.2;
    # cut there, its exponent costs no more than the same density's from 0
    from idcalc import quadrature

    # integrand evaluations: panels of the one GK21 rule times its nodes
    evals = [0]
    plain = quadrature._panel_rules

    def counting(f, elem, a, b, where):
        evals[0] += len(elem) * quadrature.GK21_NODES.size
        return plain(f, elem, a, b, where)

    monkeypatch.setattr(quadrature, "_panel_rules", counting)
    for beta in (1.0, 2.0):
        cost = {}
        for lo in (0.2, 0.0):
            seg = power_segment(0.6, 0.5, lo, 3.0)
            M = SpectralMeasure((RadialComponent(np.array([1.0]), densities=(seg,)),))
            triplet = smear_triplet(LevyTriplet(np.zeros(1), np.zeros((1, 1)), M), beta)
            assert triplet.M.rays[0].densities[0].kinks == ((lo,) if lo else ())
            evals[0] = 0
            char_exponent(triplet, GRID)
            cost[lo] = evals[0]
        assert cost[0.2] <= cost[0.0], (beta, cost)


@pytest.mark.parametrize("mu", list(FAMILIES.values()), ids=list(FAMILIES))
@pytest.mark.parametrize("beta", BETAS)
def test_jbeta_triplet_matches_quadrature(mu, beta):
    out = j_beta(mu, beta)
    triplet = smear_triplet(mu.triplet, beta)
    for y in GRID:
        quad_route = complex(out.exponent(y))
        triplet_route = char_exponent(triplet, y)
        assert abs(quad_route - triplet_route) < 1e-8


def test_jbeta_gaussian_dimension_2():
    mu = gaussian(cov=[[2.0, 1.0], [1.0, 2.0]])
    out = j_beta(mu, 1.0)
    y = np.array([1.0, -2.0])
    assert complex(out.exponent(y)) == pytest.approx(-1.0, abs=1e-10)


@pytest.mark.parametrize("b1", BETAS)
@pytest.mark.parametrize("b2", BETAS)
def test_jbeta_commutes(b1, b2):
    mu = poisson(1.0, 2.0)
    lhs = j_beta(j_beta(mu, b1), b2)
    rhs = j_beta(j_beta(mu, b2), b1)
    assert max_grid_diff(lhs, rhs) < 1e-8


@pytest.mark.parametrize("beta", BETAS)
def test_jbeta_homomorphism(beta):
    mu, nu = gamma(1.0, 1.0), poisson(1.0, 2.0)
    lhs = j_beta(convolve(mu, nu), beta)
    rhs = convolve(j_beta(mu, beta), j_beta(nu, beta))
    assert max_grid_diff(lhs, rhs) < 1e-10
    for c in (0.5, 2.0):
        lhs = conv_power(j_beta(mu, beta), c)
        rhs = j_beta(conv_power(mu, c), beta)
        assert max_grid_diff(lhs, rhs) < 1e-10


def test_check_beta_rejects_bad_values():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            check_beta(bad)


# ---------------------------------------------------------------------------
# inverse map
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu", list(FAMILIES.values()), ids=list(FAMILIES))
@pytest.mark.parametrize("beta", BETAS)
def test_jbeta_inverse_round_trip(mu, beta):
    recovered = j_beta_inverse(j_beta(mu, beta), beta)
    assert max_grid_diff(recovered, mu) < 1e-7


def test_jbeta_inverse_gaussian_contraction():
    # inverse of the contracted Gaussian recovers unit variance
    beta = 1.0
    mu = gaussian(beta / (beta + 2.0))
    recovered = j_beta_inverse(mu, beta)
    for y in GRID:
        want = -0.5 * float(y[0]) ** 2
        assert complex(recovered.exponent(y)) == pytest.approx(want, abs=1e-8)


def test_jbeta_inverse_shift_doubles():
    # phi(y) = i c y gives g(s) = i c s^2 y, so the derivative at 1 is 2 i c y
    c = 0.7
    mu = IdMeasure.from_exponent(1, lambda Y: 1j * c * Y[:, 0])
    out = j_beta_inverse(mu, 1.0)
    for y in GRID:
        assert complex(out.exponent(y)) == pytest.approx(
            2j * c * float(y[0]), abs=1e-9
        )


# ---------------------------------------------------------------------------
# exponential-kernel map
# ---------------------------------------------------------------------------


def test_imap_gaussian_halves_variance():
    out = i_map(gaussian(1.0))
    for y in GRID:
        assert complex(out.exponent(y)) == pytest.approx(
            -0.25 * float(y[0]) ** 2, abs=1e-10
        )


def test_imap_fixes_shift():
    out = i_map(dirac([1.3]))
    for y in GRID:
        assert complex(out.exponent(y)) == pytest.approx(
            1.3j * float(y[0]), abs=1e-10
        )


def test_imap_requires_log_moment():
    mu = IdMeasure.from_exponent(1, lambda Y: -np.abs(Y[:, 0]))  # no flag, no triplet
    with pytest.raises(DomainError):
        i_map(mu)
    out = i_map(replace(mu, log_moment_known=True))  # the flag overrides
    assert abs(complex(out.exponent(np.array([1.0])))) > 0


def test_imap_rejects_known_infinite_log_moment():
    mu = IdMeasure.from_exponent(1, lambda Y: -np.abs(Y[:, 0]), log_moment_known=False)
    with pytest.raises(DomainError):
        i_map(mu)


def test_imap_gate_uses_triplet_when_unflagged():
    seg = callable_segment(
        lambda r: 1.0 / (r * np.log(r) ** 2), math.e, math.inf,
        tail_mass_finite=True, log_tail="divergent",
    )
    M = SpectralMeasure((RadialComponent(np.array([1.0]), densities=(seg,)),))
    t = LevyTriplet(np.zeros(1), np.zeros((1, 1)), M)
    mu = IdMeasure.from_triplet(t)
    with pytest.raises(DomainError, match="infinite"):
        i_map(mu)


@pytest.mark.parametrize("beta", BETAS)
def test_i_of_jbeta_gaussian_factor(beta):
    out = i_of_j_beta(gaussian(1.0), beta)
    factor = beta / (2.0 * (beta + 2.0))
    for y in GRID:
        assert complex(out.exponent(y)) == pytest.approx(
            -0.5 * factor * float(y[0]) ** 2, abs=1e-10
        )


def test_i_of_jbeta_shift_halves_at_beta_1():
    out = i_of_j_beta(dirac([1.0]), 1.0)
    for y in GRID:
        assert complex(out.exponent(y)) == pytest.approx(0.5j * float(y[0]), abs=1e-10)


@pytest.mark.parametrize("mu", list(FAMILIES.values()), ids=list(FAMILIES))
@pytest.mark.parametrize("beta", BETAS)
def test_composition_agreement(mu, beta):
    two_stage = i_map(j_beta(mu, beta))
    one_shot = i_of_j_beta(mu, beta)
    assert max_grid_diff(two_stage, one_shot) < 1e-8


# ---------------------------------------------------------------------------
# inner clock
# ---------------------------------------------------------------------------


def test_sigma_clock_values():
    assert sigma_clock(1.0, 0.0) == 0.0
    for s in (0.5, 2.0, 10.0):
        assert sigma_clock(1.0, s) == pytest.approx(s + math.exp(-s) - 1.0, rel=1e-14)
    assert sigma_clock(2.0, 3.0) == pytest.approx(3.0 + math.exp(-6.0) / 2.0 - 0.5, rel=1e-14)


@given(
    beta=st.floats(min_value=0.1, max_value=5.0),
    s1=st.floats(min_value=0.0, max_value=50.0),
    s2=st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=80, deadline=None)
def test_sigma_clock_monotone_and_asymptotic(beta, s1, s2):
    lo, hi = sorted((s1, s2))
    assert sigma_clock(beta, lo) <= sigma_clock(beta, hi) + 1e-15
    # approaches s - 1/beta from above, gap exp(-beta s)/beta; the gap is
    # computed by subtraction so allow an eps-level absolute slack
    gap = sigma_clock(beta, hi) - (hi - 1.0 / beta)
    assert gap == pytest.approx(math.exp(-beta * hi) / beta, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# the twice-shrunk kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", BETAS)
def test_cor1a_gaussian_factor(beta):
    out = corollary1a_kernel(gaussian(1.0), beta)
    factor = beta**2 / ((beta + 2.0) * (beta + 1.0))
    for y in GRID:
        assert complex(out.exponent(y)) == pytest.approx(
            -0.5 * factor * float(y[0]) ** 2, abs=1e-10
        )


def test_cor1a_beta1_specialization():
    out = corollary1a_kernel(gaussian(1.0), 1.0)
    assert complex(out.exponent(np.array([1.0]))) == pytest.approx(-1.0 / 12.0, abs=1e-11)


@pytest.mark.parametrize("mu", list(FAMILIES.values()), ids=list(FAMILIES))
@pytest.mark.parametrize("beta", BETAS)
def test_cor1a_equals_double_jbeta(mu, beta):
    lhs = corollary1a_kernel(mu, beta)
    rhs = j_beta(j_beta(mu, beta), 2.0 * beta)
    assert max_grid_diff(lhs, rhs) < 1e-8


# ---------------------------------------------------------------------------
# log-moment preservation under the smear
# ---------------------------------------------------------------------------


def test_log_moment_preserved_finite_examples():
    # both directions on the finite examples: source and smear agree on status
    for mu in (gamma(1.0, 1.0), poisson(1.0, 2.0)):
        for beta in (0.5, 1.0):
            assert log_moment(mu.triplet.M) is True
            assert log_moment(smear_spectral(mu.triplet.M, beta)) is True


def test_log_moment_smeared_values_match_oracle():
    # frozen from an mpmath double integral of the smeared densities
    img = smear_spectral(gamma(1.0, 1.0).triplet.M, 1.0)
    assert img.ray_integral(0, 1.0, math.inf, np.log) == pytest.approx(
        0.0269547695970720, abs=1e-9)
    img = smear_spectral(poisson(1.0, 2.0).triplet.M, 0.5)
    assert img.ray_integral(0, 1.0, math.inf, np.log) == pytest.approx(
        0.1073607429330404, abs=1e-10)


def test_log_moment_divergence_survives_smear():
    seg = callable_segment(
        lambda r: 1.0 / (r * np.log(r) ** 2), math.e, math.inf, tail_mass_finite=True
    )
    M = SpectralMeasure((RadialComponent(np.array([1.0]), densities=(seg,)),))
    assert log_moment(M) is None
    assert log_moment(smear_spectral(M, 1.0)) is None


def spec_measure(atom, density):
    ray = {"direction": [1.0], "atoms": [atom], "densities": [density]}
    return measure_from_spec({"dim": 1, "spectral": {"rays": [ray]}})


def test_heavy_power_tail_is_in_the_domain_of_imap():
    # stable-like, alpha = 0.1: log moment 1/0.1^2, read from the segment's hint
    mu = spec_measure({"r": 0.5, "w": 1.0}, {"lo": 0, "hi": "inf", "kind": "power",
                                             "coef": 1.0, "exponent": -1.1})
    assert log_moment(mu.triplet.M) is True
    (report,) = verify_identity("prop2", mu, beta=2.0, mc_n=0)
    assert report.passed, report.summary()


def test_every_shrinking_map_carries_the_flag_of_its_source():
    # the CI triplet spec: unflagged, with a triplet whose log moment is finite
    mu = spec_measure({"r": 0.7, "w": 0.5}, {"lo": 0, "hi": "inf", "kind": "exp",
                                             "coef": 0.6, "exponent": 0, "rate": 2})
    assert mu.log_moment_known is None
    for out in (j_beta(mu, 1.0), j_beta_inverse(mu, 1.0), corollary1a_kernel(mu, 1.0)):
        assert out.log_moment_known is True
        assert i_map(out).label == f"imap({out.label})"


def test_jbeta_propagates_log_moment_flag():
    out = j_beta(gamma(1.0, 1.0), 1.0)
    assert out.log_moment_known is True
    # so the composed map is constructible without re-deriving the gate
    i_map(out)
