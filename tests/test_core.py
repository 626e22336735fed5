import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcalc import core
from idcalc import (
    IdMeasure,
    LevyTriplet,
    QuadratureError,
    RadialAtom,
    RadialComponent,
    SpectralMeasure,
    ValidationError,
    callable_segment,
    char_exponent,
    conv_power,
    convolve,
    default_grid,
    dirac,
    exp_segment,
    gamma,
    gaussian,
    log_moment,
    poisson,
    power_segment,
    smear_spectral,
    validate_spectral,
)

GRID_1D = default_grid(1)


def atom_measure(r, w, direction=(1.0,)):
    ray = RadialComponent(np.asarray(direction, dtype=float), atoms=(RadialAtom(r, w),))
    return SpectralMeasure((ray,))


# ---------------------------------------------------------------------------
# characteristic exponent
# ---------------------------------------------------------------------------


def test_pure_gaussian_exponent():
    t = LevyTriplet(np.zeros(1), np.array([[1.0]]))
    assert char_exponent(t, np.array([2.0])) == pytest.approx(-2.0, abs=1e-14)


def test_jump_outside_ball_no_compensator():
    t = LevyTriplet(np.zeros(1), np.zeros((1, 1)), atom_measure(2.0, 1.0))
    val = char_exponent(t, np.array([math.pi / 2]))
    assert val == pytest.approx(-2.0, abs=1e-12)  # exp(i pi) - 1


def test_pure_shift_exponent():
    t = LevyTriplet(np.array([1.0]), np.zeros((1, 1)))
    assert char_exponent(t, np.array([3.0])) == pytest.approx(3j, abs=1e-14)


def test_atom_on_unit_sphere_is_compensated():
    # closed-ball convention: radius exactly 1 gets the drift correction
    t = LevyTriplet(np.zeros(1), np.zeros((1, 1)), atom_measure(1.0, 1.0))
    y = 1.3
    expect = complex(math.cos(y) - 1.0, math.sin(y) - y)
    assert char_exponent(t, np.array([y])) == pytest.approx(expect, abs=1e-14)


def test_density_exponent_matches_atom_limit():
    # a narrow density around r=2 behaves like the atom there
    seg = power_segment(coef=1.0 / 0.02, exponent=0.0, lo=1.99, hi=2.01)
    ray = RadialComponent(np.array([1.0]), densities=(seg,))
    t = LevyTriplet(np.zeros(1), np.zeros((1, 1)), SpectralMeasure((ray,)))
    ta = LevyTriplet(np.zeros(1), np.zeros((1, 1)), atom_measure(2.0, 1.0))
    y = np.array([0.7])
    assert char_exponent(t, y) == pytest.approx(char_exponent(ta, y), abs=2e-4)


def test_exponent_dimension_2():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    t = LevyTriplet(np.zeros(2), S)
    y = np.array([1.0, -2.0])
    assert char_exponent(t, y) == pytest.approx(-3.0, abs=1e-13)


def test_invalid_triplet_rejected():
    with pytest.raises(ValidationError):
        LevyTriplet(np.zeros(1), np.array([[-1.0]]))
    with pytest.raises(ValidationError):
        LevyTriplet(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# spectral validation
# ---------------------------------------------------------------------------


def test_validate_atom_ok():
    assert validate_spectral(atom_measure(2.0, 1.0)).ok


def test_validate_power_divergent_at_zero():
    seg = power_segment(1.0, -3.0, 0.0, 1.0)
    M = SpectralMeasure((RadialComponent(np.array([1.0]), densities=(seg,)),))
    check = validate_spectral(M)
    assert not check.ok
    assert "min(1, r^2)" in check.describe()


def test_validate_power_integrable_at_zero():
    seg = power_segment(1.0, -2.0, 0.0, 1.0)
    M = SpectralMeasure((RadialComponent(np.array([1.0]), densities=(seg,)),))
    assert validate_spectral(M).ok


def test_validate_callable_probed_without_hints():
    bad = callable_segment(lambda r: r**-3, 0.0, 1.0)
    M = SpectralMeasure((RadialComponent(np.array([1.0]), densities=(bad,)),))
    assert not validate_spectral(M).ok
    good = callable_segment(lambda r: r**-1.5, 0.0, 1.0)
    M = SpectralMeasure((RadialComponent(np.array([1.0]), densities=(good,)),))
    assert validate_spectral(M).ok


@pytest.mark.parametrize("p", (-1.5, -2.5, -2.9))
def test_second_moment_below_of_power_densities_from_zero(p):
    # r^2 r^p is integrable at 0 for p > -3; at p <= -2 the integrand of
    # (0, eps) is singular and only converges after r = eps u^m
    eps = 1e-3
    M = SpectralMeasure(
        (RadialComponent(np.array([1.0]), densities=(power_segment(1.0, p, 0.0, 1.0),)),)
    )
    assert M.second_moment_below(eps)[0, 0] == pytest.approx(eps ** (p + 3) / (p + 3), rel=1e-10)


def test_second_moment_below_of_gamma():
    eps = 1e-3
    # 1 - (1 + eps) e^-eps, free of the cancellation of that form
    want = -math.expm1(-eps) - eps * math.exp(-eps)
    got = gamma(1.0, 1.0).triplet.M.second_moment_below(eps)[0, 0]
    assert got == pytest.approx(want, rel=1e-10)


def test_validate_tail_mass():
    fat = power_segment(1.0, -0.5, 1.0, math.inf)  # infinite tail mass
    M = SpectralMeasure((RadialComponent(np.array([1.0]), densities=(fat,)),))
    assert not validate_spectral(M).ok


def test_validate_lets_a_density_callables_own_error_through():
    # only a quadrature that does not converge is a violation
    def broken(r):
        raise TypeError("density wants a scalar")

    seg = callable_segment(broken, 0.5, 2.0)
    M = SpectralMeasure((RadialComponent(np.array([1.0]), densities=(seg,)),))
    with pytest.raises(TypeError, match="wants a scalar"):
        validate_spectral(M)


def one_segment_measure(seg, direction=(1.0,)):
    return SpectralMeasure((RadialComponent(np.array(direction), densities=(seg,)),))


def pole_at_half(r):
    # not integrable across r = 1/2, on whatever side of radius 1 the support ends
    with np.errstate(divide="ignore"):
        return np.exp(-r) / np.abs(r - 0.5)


@pytest.mark.parametrize("lo, hi, hints", [
    (0.25, math.inf, {}),
    (0.25, math.inf, {"tail_mass_finite": True}),
    (0.0, math.inf, {"small_r_power": 0.0}),
    (0.0, 2.0, {"small_r_power": 0.0}),
    (0.25, 3.0, {}),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_validate_rejects_a_pole_that_no_hint_covers(lo, hi, hints):
    # a hint vouches only for the end it describes, so the pole at 1/2 is
    # inside the one min(1, r^2) integral in every case
    M = one_segment_measure(callable_segment(pole_at_half, lo, hi, **hints))
    check = validate_spectral(M)
    assert not check.ok
    # from 0, the first panel's centre node is the pole itself
    said = "not finite at a node of the panel (0, 1)" if lo == 0 else "requested"
    assert f"on ({lo:g}, " in check.describe() and said in check.describe()
    with pytest.raises(ValidationError, match="min\\(1, r\\^2\\)"):
        LevyTriplet(np.zeros(1), np.zeros((1, 1)), M)


@pytest.mark.filterwarnings("error")
def test_an_integrand_not_finite_at_a_node_names_its_panel():
    # the user's division is theirs to silence; the quadrature warns of nothing
    M = one_segment_measure(callable_segment(pole_at_half, 0.0, 2.0, small_r_power=0.0))
    check = validate_spectral(M)
    assert not check.ok
    assert "integrand is not finite at a node of the panel (0, 1)" in check.describe()


def test_a_failed_mass_integral_is_a_quadrature_error():
    # the piece (0.25, 1) fails, away from any tail: no claim of infinite mass
    M = one_segment_measure(callable_segment(pole_at_half, 0.25, math.inf))
    with pytest.raises(QuadratureError, match=r"on \(0\.25, 1\)"):
        M.mass_above(0.25)


def test_validate_trusts_a_tail_hint_beyond_radius_1():
    assert validate_spectral(divergent_log_tail_measure(False)).ok
    # without the hint, its tail of mass 1/log(R) does not settle on growing cutoffs
    seg = divergent_log_tail_measure(False).rays[0].densities[0]
    check = validate_spectral(one_segment_measure(replace(seg, tail_mass_finite=None)))
    assert "did not settle" in check.describe()


def counting_quad_cut(monkeypatch):
    calls = []
    real = core.quad_cut

    def spy(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "quad_cut", spy)
    return calls


# the benchmark specs' densities: power1d, exp1d and plane2d
BENCH_SEGMENTS = [(power_segment(0.6, 0.5, 0.2, 3.0), (1.0,)),
                  (power_segment(0.6, -0.5, 0.1, 1.5), (0.6, 0.8)),
                  (power_segment(0.6, -1.2, 0.0, 1.5), (1.0,)),
                  (exp_segment(0.6, -0.5, 1.5, 0.0, math.inf), (1.0,))]


def test_validate_runs_no_quadrature_on_closed_form_segments(monkeypatch):
    calls = counting_quad_cut(monkeypatch)
    for seg, direction in BENCH_SEGMENTS:
        LevyTriplet(np.zeros(len(direction)), np.eye(len(direction)),
                    one_segment_measure(seg, direction))
    assert calls == []


@pytest.mark.parametrize("seg", [seg for seg, _ in BENCH_SEGMENTS]
                         + [gamma(1.0, 1.0).triplet.M.rays[0].densities[0]],
                         ids=["power1d-ray1", "plane2d", "power1d-ray0", "exp1d", "gamma"])
def test_closed_segment_masses_match_quadrature(seg, monkeypatch):
    # the sampler's cutoff to infinity, inner and outer intervals, and
    # intervals that miss a bounded support
    a = np.array([1e-3, 0.25, 0.5, 1.0, 2.0, 0.1, 3.0, 7.0])
    b = np.array([math.inf, 0.5, 2.0, math.inf, 4.0, 1.5, math.inf, 9.0])
    want = core._segment_integral(seg, a, b).real
    calls = counting_quad_cut(monkeypatch)
    np.testing.assert_allclose(core._segment_mass(seg, a, b), want, rtol=1e-13, atol=0.0)
    assert calls == []


def test_a_divergent_closed_segment_mass_is_still_a_quadrature_error():
    # r^-1.2 is not integrable at 0: the closed form is inf, and the
    # quadrature reports the failure as before
    with pytest.raises(QuadratureError, match="did not converge"):
        core._segment_mass(BENCH_SEGMENTS[2][0], np.array([0.0]), np.array([1.0]))
    with pytest.raises(QuadratureError, match="did not settle"):
        core._segment_mass(power_segment(1.0, -0.5, 0.0, math.inf), np.array([1.0]),
                           np.array([math.inf]))


def test_validate_integrates_a_callable_segment_once(monkeypatch):
    calls = counting_quad_cut(monkeypatch)
    assert validate_spectral(one_segment_measure(callable_segment(np.exp, 0.0, 3.0))).ok
    assert len(calls) == 1
    hinted = callable_segment(lambda r: r**-2.5, 0.0, math.inf, small_r_power=-2.5,
                              tail_mass_finite=True)
    assert validate_spectral(one_segment_measure(hinted)).ok
    assert len(calls) == 2 and calls[1][1].tolist() == [1.0]


# ---------------------------------------------------------------------------
# log moments
# ---------------------------------------------------------------------------


def test_log_moment_atom():
    M = atom_measure(math.e, 2.0)
    assert log_moment(M) is True
    assert M.ray_integral(0, 1.0, math.inf, np.log) == pytest.approx(2.0, abs=1e-12)


def test_log_moment_empty():
    assert log_moment(SpectralMeasure(())) is True


def divergent_log_tail_measure(with_hint):
    seg = callable_segment(
        lambda r: 1.0 / (r * np.log(r) ** 2),
        math.e,
        math.inf,
        tail_mass_finite=True,
        log_tail="divergent" if with_hint else None,
    )
    return SpectralMeasure((RadialComponent(np.array([1.0]), densities=(seg,)),))


def test_log_moment_divergent_with_analytic_hint():
    # partial integrals grow like log log R (checked below), so the tail
    # integral of log(r) g(r) diverges; the hint lets us assert it
    mp = pytest.importorskip("mpmath")

    partials = [
        float(mp.quad(lambda r: mp.log(r) / (r * mp.log(r) ** 2), [math.e, R]))
        for R in (1e2, 1e6, 1e12)
    ]
    assert partials[0] == pytest.approx(math.log(math.log(1e2)), rel=1e-9)
    assert partials[2] - partials[1] > 0.5  # still growing at R = 1e12
    assert log_moment(divergent_log_tail_measure(True)) is False


def test_log_moment_divergent_without_hint_is_inconclusive():
    assert log_moment(divergent_log_tail_measure(False)) is None


def test_log_moment_gamma_value():
    # oracle: mpmath quad of log(r) exp(-r)/r over (1, inf)
    M = gamma(1.0, 1.0).triplet.M
    assert log_moment(M) is True
    value = M.ray_integral(0, 1.0, math.inf, np.log)
    assert value == pytest.approx(0.0978431972166702, abs=1e-10)


def test_log_moment_reads_hints_without_quadrature(monkeypatch):
    calls = counting_quad_cut(monkeypatch)
    families = [mu.triplet.M for mu in (gamma(1.0, 1.0), poisson(1.0, 2.0))]
    measures = families + [smear_spectral(M, b) for M in families for b in (0.5, 1.0, 2.0)]
    # and a stable-like tail r^-1.1, whose log moment 1/0.1^2 no staged quadrature reaches
    segments = [seg for seg, _ in BENCH_SEGMENTS] + [power_segment(1.0, -1.1, 0.0, math.inf)]
    measures += [one_segment_measure(seg) for seg in segments]
    assert all(log_moment(M) is True for M in measures)
    assert log_moment(one_segment_measure(power_segment(1.0, -0.9, 2.0, math.inf))) is False
    assert calls == []


def test_log_moment_integrates_an_unhinted_tail_once(monkeypatch):
    calls = counting_quad_cut(monkeypatch)
    seg = callable_segment(lambda r: np.exp(-r), 0.5, math.inf)
    assert log_moment(one_segment_measure(seg)) is True
    assert len(calls) == 1 and calls[0][0].tolist() == [1.0]


# ---------------------------------------------------------------------------
# convolution algebra
# ---------------------------------------------------------------------------


def test_convolve_gaussians():
    out = convolve(gaussian(1.0), gaussian(2.0))
    for y in GRID_1D:
        assert out.exponent(y) == pytest.approx(gaussian(3.0).exponent(y), abs=1e-12)


def test_convolve_with_identity():
    mu = poisson(1.0, 2.0)
    out = convolve(mu, dirac([0.0]))
    for y in GRID_1D:
        assert out.exponent(y) == pytest.approx(mu.exponent(y), abs=1e-14)


def test_convolve_exponent_sum():
    mu, nu = gamma(1.0, 1.0), poisson(0.5, 2.0)
    out = convolve(mu, nu)
    for y in GRID_1D:
        assert out.exponent(y) == pytest.approx(mu.exponent(y) + nu.exponent(y), abs=1e-14)


def test_convolve_dim_mismatch():
    with pytest.raises(ValidationError):
        convolve(gaussian(1.0, dim=1), gaussian(1.0, dim=2))


def test_conv_power_examples():
    assert conv_power(gaussian(1.0), 0.5).exponent(np.array([2.0])) == pytest.approx(-1.0, abs=1e-14)
    mu = gamma(2.0, 1.0)
    for y in GRID_1D:
        assert conv_power(mu, 1.0).exponent(y) == pytest.approx(mu.exponent(y), abs=1e-14)
        assert conv_power(mu, 2.0).exponent(y) == pytest.approx(
            convolve(mu, mu).exponent(y), abs=1e-14
        )


def test_conv_power_rejects_nonpositive():
    with pytest.raises(ValidationError):
        conv_power(gaussian(1.0), 0.0)
    with pytest.raises(ValidationError):
        conv_power(gaussian(1.0), -1.0)


@given(
    c1=st.floats(min_value=0.1, max_value=3.0),
    c2=st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_conv_power_ring_law(c1, c2):
    mu = poisson(1.0, 2.0)
    lhs = conv_power(mu, c1 + c2)
    rhs = convolve(conv_power(mu, c1), conv_power(mu, c2))
    for y in (np.array([0.5]), np.array([2.0])):
        assert abs(lhs.exponent(y) - rhs.exponent(y)) < 1e-12


# ---------------------------------------------------------------------------
# measure-level invariants
# ---------------------------------------------------------------------------


@given(
    shift=st.floats(min_value=-2.0, max_value=2.0),
    var=st.floats(min_value=0.0, max_value=3.0),
    r=st.floats(min_value=0.05, max_value=3.0),
    w=st.floats(min_value=0.05, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_exponent_invariants(shift, var, r, w):
    t = LevyTriplet(np.array([shift]), np.array([[var]]), atom_measure(r, w))
    mu = IdMeasure.from_triplet(t)
    assert mu.exponent(np.array([0.0])) == 0.0
    for y in (np.array([0.1]), np.array([1.0]), np.array([5.0])):
        a, b = mu.exponent(y), mu.exponent(-y)
        assert abs(b - a.conjugate()) < 1e-12
        assert abs(np.exp(a)) <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "mu",
    [gaussian(1.0), dirac([0.7]), poisson(1.0, 2.0), poisson(1.5, 0.5), gamma(1.0, 1.0), gamma(2.5, 3.0)],
    ids=["gauss", "shift", "poisson-big", "poisson-small", "gamma11", "gamma253"],
)
def test_triplet_exponent_consistency(mu):
    # the installed closed form must match the quadrature route
    for y in default_grid(mu.dim):
        direct = char_exponent(mu.triplet, y)
        assert abs(mu.exponent(y) - direct) < 1e-10


def test_consistency_dimension_2():
    direction = np.array([0.6, 0.8])
    M = SpectralMeasure((RadialComponent(direction, atoms=(RadialAtom(2.5, 1.0),)),))
    t = LevyTriplet(np.array([0.1, -0.2]), np.array([[2.0, 1.0], [1.0, 2.0]]), M)
    mu = IdMeasure.from_triplet(t)
    for y in default_grid(2)[:10]:
        a, b = mu.exponent(y), mu.exponent(-y)
        assert abs(b - a.conjugate()) < 1e-12
        assert abs(np.exp(a)) <= 1.0 + 1e-12


def test_default_grid_shapes():
    assert default_grid(1).shape == (10, 1)
    assert default_grid(2).shape[0] <= 64
    assert default_grid(3).shape == (64, 3)
    assert default_grid(3).shape[1] == 3


def test_idmeasure_rejects_nonvanishing_exponent():
    with pytest.raises(ValidationError, match="vanish"):
        IdMeasure.from_exponent(1, lambda Y: np.ones(len(Y), dtype=complex))


def test_idmeasure_rejects_exponent_that_is_nan_at_zero():
    # 2y/sinh(2y) - 1 read naively is 0/0 at y = 0
    def naive(Y):
        with np.errstate(invalid="ignore"):
            return 2.0 * Y[:, 0] / np.sinh(2.0 * Y[:, 0]) - 1.0 + 0j

    with pytest.raises(ValidationError, match="vanish"):
        IdMeasure.from_exponent(1, naive)
    with pytest.raises(ValidationError, match="vanish"):
        IdMeasure.from_exponent(1, lambda Y: np.full(len(Y), np.nan + 0j))


def test_exponents_safe_under_concurrent_evaluation():
    # evaluators are pure closures over immutable state; quadrature keeps
    # its working set per call, so threads must not interfere
    from concurrent.futures import ThreadPoolExecutor

    mu = gamma(1.0, 1.0)
    quad_mu = IdMeasure.from_triplet(mu.triplet)  # quadrature-backed evaluator
    ys = [np.array([v]) for v in np.linspace(0.3, 4.0, 24)]
    serial = [quad_mu.exponent(y) for y in ys]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(quad_mu.exponent, ys * 4))
    assert threaded[:24] == serial
    assert threaded == serial * 4
