"""Density terms of ``char_exponent`` against mpmath closed forms.

The reference values never touch adaptive quadrature: a power density on
``(0, 1)`` is summed term by term in high precision, exp densities and
power densities on ``(0, inf)`` use their gamma-function closed forms, and
any other support its incomplete gammas (``mpmath.gammainc``).  A
``power`` or ``exp`` density's term is in closed form and meets
``max(1e-14, 1e-10 |part|)`` per part at every frequency; the adaptive
quadrature that callable densities use is checked against it.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idcalc import (LevyTriplet, QuadratureError, char_exponent, default_grid, gamma, j_beta,
                    measure_from_spec)
from idcalc import core
from idcalc.core import (
    RadialAtom,
    RadialComponent,
    SpectralMeasure,
    _atom_terms,
    _segment_integral,
    callable_segment,
    exp_segment,
    power_segment,
)

mp = pytest.importorskip("mpmath")

FREQUENCIES = (1e-4, 0.1, 1.0, 5.0, 50.0)


def power_unit_interval(p, c):
    """int_0^1 r^p (e^{icr} - 1 - icr) dr = sum_{m>=2} (ic)^m / (m! (p+m+1))."""
    with mp.workdps(60):
        p, z, total, m = mp.mpf(p), 1j * mp.mpf(c), mp.mpc(0), 2
        term = z * z / 2
        while abs(term) > mp.mpf(10) ** -40 or m < 2 * abs(c) + 10:
            total += term / (p + m + 1)
            m += 1
            term *= z / m
        return complex(total)


def exp_half_line(coef, p, lam, c):
    """int_0^inf coef r^p e^{-lam r} (e^{icr} - 1 - icr 1{r <= 1}) dr."""
    with mp.workdps(40):
        p, lam, ic = mp.mpf(p), mp.mpf(lam), 1j * mp.mpf(c)
        if p == -1:
            whole = -mp.log(1 - ic / lam) - ic / lam
        else:
            whole = mp.gamma(p + 1) * ((lam - ic) ** -(p + 1) - lam ** -(p + 1))
            whole -= ic * mp.gamma(p + 2) * lam ** -(p + 2)
        # the compensator stops at radius 1
        return complex(coef * (whole + ic * mp.gammainc(p + 2, lam) * lam ** -(p + 2)))


def power_half_line(p, c):
    """int_0^inf r^p (e^{icr} - 1 - icr 1{r <= 1}) dr for -3 < p < -1, p != -2."""
    with mp.workdps(40):
        p, ic = mp.mpf(p), 1j * mp.mpf(c)
        return complex(mp.gamma(p + 1) * (-ic) ** -(p + 1) - ic / (p + 2))


def leaf(seg, c):
    M = SpectralMeasure((RadialComponent(np.array([1.0]), densities=(seg,)),))
    return char_exponent(LevyTriplet(np.zeros(1), np.zeros((1, 1)), M), np.array([c]))


CASES = [
    *[(f"power{p}", power_segment(1.0, p, 0.0, 1.0), lambda c, p=p: power_unit_interval(p, c))
      for p in (-1.5, -2.0, -2.5, -2.9)],
    ("exp-0.5", exp_segment(0.6, -0.5, 1.5, 0.0, math.inf),
     lambda c: exp_half_line(0.6, -0.5, 1.5, c)),
    ("gamma", exp_segment(1.0, -1.0, 1.0, 0.0, math.inf),
     lambda c: exp_half_line(1.0, -1.0, 1.0, c)),
    *[(f"power{p}-tail", power_segment(1.0, p, 0.0, math.inf), lambda c, p=p: power_half_line(p, c))
      for p in (-1.5, -2.5)],
    # exponents above |w| + 1, where Gamma(s, w) needs the series of gamma(s, w)
    ("exp10", exp_segment(1.0, 10.0, 1.0, 0.0, math.inf), lambda c: exp_half_line(1.0, 10.0, 1.0, c)),
    ("power6-bounded", power_segment(1.0, 6.0, 0.5, 3.0),
     lambda c: gammainc_oracle(6.0, 0.0, 0.5, 3.0, c)),
]


@pytest.mark.parametrize("c", FREQUENCIES)
@pytest.mark.parametrize("name, seg, oracle", CASES, ids=[case[0] for case in CASES])
def test_density_leaf_meets_its_tolerance_or_raises(name, seg, oracle, c):
    # power and exp densities are in closed form: they may no longer raise
    got = leaf(seg, c)
    want = oracle(c)
    for part in (np.real, np.imag):
        assert abs(part(got) - part(want)) <= max(1e-14, 1e-10 * abs(part(want))), (got, want)


@pytest.mark.parametrize("p", [-2.5, -2.9])
def test_near_critical_power_leaf_evaluates(p):
    # these raised or came back 1e-6 off; the series near 0 carries them
    seg = power_segment(1.0, p, 0.0, 1.0)
    for c in FREQUENCIES:
        want = power_unit_interval(p, c)
        got = leaf(seg, c)
        assert abs(got - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_atom_terms_keep_their_digits_at_small_frequencies(r):
    # cos x - 1 and sin x - x computed directly lose digits as x -> 0
    M = SpectralMeasure((RadialComponent(np.array([1.0]), atoms=(RadialAtom(r, 1.0),)),))
    triplet = LevyTriplet(np.zeros(1), np.zeros((1, 1)), M)
    for c in FREQUENCIES:
        got = char_exponent(triplet, np.array([c]))
        with mp.workdps(40):
            x = mp.mpf(r) * mp.mpf(c)
            want = complex(mp.expj(x) - 1 - (1j * x if r <= 1 else 0))
        for part in (np.real, np.imag):
            assert abs(part(got) - part(want)) <= 1e-14 * abs(part(want)), (c, got, want)


ATOM_X = (1e-8, 0.3, 0.999, 1.0, 1.001, 30.0)
ATOM_R = (0.5, 1.0, 2.0)


def atom_term(r, x):
    """exp(ix) - 1 - ix 1{r <= 1} at the double x, in 40 digits."""
    with mp.workdps(40):
        x = mp.mpf(float(x))
        return complex(mp.expj(x) - 1 - (1j * x if r <= 1 else 0))


def test_atom_terms_against_mpmath_scalar_and_broadcast():
    # both sides of the series cut |x| = 1 and of the compensator's r = 1
    c = np.array([s * v for v in ATOM_X for s in (1.0, -1.0)])
    rs = np.array(ATOM_R)
    broadcast = _atom_terms(rs[:, None], c[None, :] / rs[:, None])
    for i, r in enumerate(rs):
        cr = c / r
        for got in (_atom_terms(r, cr), broadcast[i]):
            assert got.shape == c.shape
            for g, x in zip(got, r * cr):
                want = atom_term(r, x)
                for part in (np.real, np.imag):
                    assert abs(part(g) - part(want)) <= 2e-15 * abs(part(want)), (r, x, g, want)


STABLE_FREQUENCIES = (1e-6, 0.1, 1.0, 5.0, 50.0, 1e4)


def stable(p, c):
    """int_0^inf r^p (e^{icr} - 1 - icr 1{r <= 1}) dr, -3 < p < -1 (Sato 1999,
    section 14), with its log limit at p = -2."""
    with mp.workdps(40):
        c = mp.mpf(c)
        if p == -2:
            return complex(-mp.pi / 2 * abs(c) - 1j * c * (mp.log(abs(c)) + mp.euler - 1))
        return complex(mp.gamma(p + 1) * (-1j * c) ** -(p + 1) - 1j * c / (p + 2))


@pytest.mark.parametrize("p", [-1.5, -2.0, -2.5, -2.0 + 1e-9, -2.0 - 1e-9])
def test_one_sided_stable_density_matches_its_closed_form(p):
    # every one of these raised before the closed form; next to p = -2 the
    # terms of the tail's series have powers next to 0
    seg = power_segment(1.0, p, 0.0, math.inf)
    for c in STABLE_FREQUENCIES:
        for y in (c, -c):
            want = stable(p, y)
            assert abs(leaf(seg, y) - want) <= 1e-12 * abs(want), (p, y)


def test_gamma_triplet_matches_log_up_to_high_frequency():
    # the triplet's shift i y a and the compensator -i y int_0^1 r M(dr), each
    # about 0.63 |y|, cancel to O(log |y|): their rounding, |y| eps, bounds
    # any evaluation through the triplet, so the oracle takes the stored a
    # and the bound adds that floor to the 1e-13 (which it meets to |y| ~ 5e3)
    t = gamma(1.0, 1.0).triplet
    ys = np.array([1e-6, 0.1, 1.0, 5.0, 50.0, 300.0, 1e3, 1e4, 1e5, 1e6])
    ys = np.concatenate([ys, -ys])
    for y, got in zip(ys, char_exponent(t, ys[:, None])):
        with mp.workdps(40):
            y_ = mp.mpf(y)
            want = complex(-mp.log(1 - 1j * y_) + 1j * y_ * (mp.mpf(t.a[0]) - 1 + mp.exp(-1)))
        assert abs(got - want) <= max(1e-13 * abs(want), 2 * np.finfo(float).eps * abs(y)), y


# spec-cli's four densities (bench/workloads.py), as (p, rate, lo, hi)
BENCH_DENSITIES = [(-1.2, None, 0.0, 1.5), (0.5, None, 0.2, 3.0),
                   (-0.5, 1.5, 0.0, math.inf), (-0.5, None, 0.1, 1.5)]


@pytest.mark.parametrize("p, rate, lo, hi", BENCH_DENSITIES)
def test_quadrature_route_agrees_with_closed_form(p, rate, lo, hi):
    # the adaptive quadrature of a callable copy is an independent route
    seg = exp_segment(0.6, p, rate, lo, hi) if rate else power_segment(0.6, p, lo, hi)
    twin = callable_segment(seg.fn, lo, hi, small_r_power=p, tail_mass_finite=True)
    c = np.array([s * v for v in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 80.0) for s in (1, -1)])
    M = SpectralMeasure((RadialComponent(np.array([1.0]), densities=(seg,)),))
    want = char_exponent(LevyTriplet(np.zeros(1), np.zeros((1, 1)), M), c[:, None])
    checked = 0
    for ci, w in zip(c, want):
        try:
            got = _segment_integral(twin, np.zeros(1), math.inf,
                                    lambda rows, r, ci=ci: _atom_terms(r, ci))[0]
        except QuadratureError:
            continue
        checked += 1
        for part in (np.real, np.imag):
            assert abs(part(got) - part(w)) <= max(1e-14, 1e-10 * abs(part(w))), (ci, got, w)
    assert checked >= c.size // 2


def gammainc_oracle(p, lam, lo, hi, c):
    """int_lo^hi r^p e^{-lam r} (e^{icr} - 1 - icr 1{r <= 1}) dr in 40 digits:
    on each piece the jump term's series up to r0 = 1/(|c| + lam), beyond it
    z^-s (Gamma(s, z r0) - Gamma(s, z b)), z = lam - ic, less the same at
    z = lam (and at s + 1, times ic, inside radius 1), by mpmath.gammainc."""
    with mp.workdps(40):
        s, lam, ic = mp.mpf(p) + 1, mp.mpf(lam), 1j * mp.mpf(c)

        def real(q, a, b):  # int_a^b r^(q-1) e^(-lam r) dr
            if lam == 0:
                return (mp.log(b / a) if q == 0 else ((b**q if b != mp.inf else 0) - a**q) / q)
            return lam**-q * mp.gammainc(q, lam * a, lam * b)

        total = mp.mpc(0)
        for a, b, k0 in ((lo, min(hi, 1), 2), (max(lo, 1), hi, 1)):
            if a >= b:
                continue
            a, b = mp.mpf(a), mp.inf if b == math.inf else mp.mpf(b)
            r0 = min(b, max(a, 1 / (abs(ic) + lam)))
            m, term, part = k0, ic**k0 / mp.factorial(k0), mp.mpc(0)
            while r0 > a:
                t = term * real(s + m, a, r0)
                part += t
                if m > k0 + 8 and abs(t) < mp.mpf(10) ** -45 * abs(part):
                    break
                m, term = m + 1, term * ic / (m + 1)
            total += part
            if r0 < b:
                z = lam - ic
                up = mp.gammainc(s, z * r0) - (0 if b == mp.inf else mp.gammainc(s, z * b))
                total += z**-s * up - real(s, r0, b) - (ic * real(s + 1, r0, b) if k0 == 2 else 0)
        return complex(total)


def switch_frequencies(p, lam, lo, hi):
    """Frequencies where the leaf switches rule on a piece (a, b): |c| at the
    near/far cut h (4/b, or lam/(4 + max(p+1, 0)) past lam b = 2) and 4/a, and
    where r0 = 4/(|c| + 2 lam) is clipped to a or reaches b; each with the next
    double up, the other side of the leaf's comparisons.  Power densities, whose
    far rows at r0 = 4/|c| take a cached Gamma(s, -+4i), get both signs and the
    double below as well; exp ones alternate the sign (mpmath is slow there)."""
    out = []
    for a, b in ((lo, min(hi, 1.0)), (max(lo, 1.0), hi)):
        if a >= b:
            continue
        fit = math.isfinite(b) and lam * b <= 2.0
        cuts = [4.0 / b if fit else lam / (4.0 + max(p + 1.0, 0.0))]
        cuts += [4.0 / a, 4.0 / a - 2.0 * lam] if a > 0 else []
        cuts += [4.0 / b - 2.0 * lam] if math.isfinite(b) else []
        for x in (x for x in cuts if x > 0):
            out += [x, -np.nextafter(x, np.inf)]
            if lam == 0:
                out += [-x, np.nextafter(x, np.inf), np.nextafter(x, 0), -np.nextafter(x, 0)]
    return sorted(set(out))


# p = -1 and p = -2 make s + n = 0 for n = 0 and n = 1; lam = 0 needs a finite
# tail mass
SWITCH_CASES = [(p, lam, lo, hi) for p in (-1.0, -2.0, -2.0 + 1e-9, -2.0 - 1e-9)
                for lam in (0.0, 0.01, 1.0)
                for lo, hi in ((0.0, 1.0), (0.0, math.inf), (0.5, 3.0), (2.0, math.inf))
                if lam or math.isfinite(hi) or p < -1]


@pytest.mark.parametrize("p, lam, lo, hi", SWITCH_CASES)
def test_closed_form_leaf_at_its_switch_points(p, lam, lo, hi):
    # the sweep below draws log y uniformly and seldom lands on these
    seg = exp_segment(1.0, p, lam, lo, hi) if lam else power_segment(1.0, p, lo, hi)
    for y in switch_frequencies(p, lam, lo, hi):
        try:
            got = leaf(seg, y)
        except QuadratureError:
            continue
        want = gammainc_oracle(p, lam, lo, hi, y)
        assert abs(got - want) <= 1e-12 * abs(want), (y, got, want)


# spec-cli's exp1d and plane2d specs at seed 7 (bench/workloads.py); POWER1D is below
EXP1D = {"dim": 1, "shift": [-0.25], "cov": [[0.7623493591159143]], "spectral": {"rays": [
    {"direction": [1.0], "atoms": [{"r": 0.7, "w": 0.6}], "densities": [
        {"lo": 0.0, "hi": "inf", "kind": "exp", "coef": 0.6, "exponent": -0.5, "rate": 1.5}]},
    {"direction": [-1.0], "atoms": [{"r": 1.6, "w": 0.5}]}]}}
PLANE2D = {"dim": 2, "shift": [0.2, -0.3],
           "cov": [[0.688228088636939, 0.06778850119862961],
                   [0.06778850119862961, 0.30445961606090804]],
           "spectral": {"rays": [
               {"direction": [-0.9996940109277227, -0.024736299546260235],
                "atoms": [{"r": 0.5, "w": 0.6}, {"r": 1.5, "w": 0.4}],
                "densities": [{"lo": 0.1, "hi": 1.5, "kind": "power", "coef": 0.6,
                               "exponent": -0.5}]},
               {"direction": [0.6083202515713982, -0.7936916728353087],
                "atoms": [{"r": 2.0, "w": 0.5}]}]}}


@pytest.mark.parametrize("name", ["power1d", "exp1d", "plane2d"])
def test_one_gamma_loop_per_density(name, monkeypatch):
    # each density's far rows, inside and beyond radius 1, share one continued
    # fraction; the first call fills the per-piece constants, which take their own
    spec = {"power1d": POWER1D, "exp1d": EXP1D, "plane2d": PLANE2D}[name]
    triplet = measure_from_spec(spec).triplet
    line = np.linspace(-300.0, 300.0, 61)[:, None] * np.ones(triplet.dim)
    Y = np.concatenate([default_grid(triplet.dim), line])
    char_exponent(triplet, Y)
    calls, gamma_upper = [], core._gamma_upper
    monkeypatch.setattr(core, "_gamma_upper",
                        lambda s, w: calls.append(w.size) or gamma_upper(s, w))
    char_exponent(triplet, Y)
    assert 0 < len(calls) <= sum(len(ray.densities) for ray in triplet.M.rays)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.floats(-3.0, 1.0, exclude_min=True, exclude_max=True),
       support=st.sampled_from([(0.0, 1.0), (0.0, math.inf), (0.5, 3.0), (2.0, math.inf)]),
       lam=st.sampled_from([0.0, 0.01, 1.0]), log_y=st.floats(-8.0, 6.0),
       sign=st.sampled_from([1.0, -1.0]))
def test_closed_form_leaf_against_gammainc(p, support, lam, log_y, sign):
    lo, hi = support
    assume(lam > 0 or math.isfinite(hi) or p < -1)  # else the tail mass is infinite
    seg = exp_segment(1.0, p, lam, lo, hi) if lam else power_segment(1.0, p, lo, hi)
    c = sign * 10.0**log_y
    try:
        got = leaf(seg, c)
    except QuadratureError:
        return
    want = gammainc_oracle(p, lam, lo, hi, c)
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


# spec-cli's power1d spec at seed 7 (bench/workloads.py)
POWER1D = {"dim": 1, "shift": [0.25], "cov": [[0.5602717788790682]], "spectral": {"rays": [
    {"direction": [1.0], "atoms": [{"r": 0.5, "w": 0.6}, {"r": 2.0, "w": 0.5}],
     "densities": [{"lo": 0.0, "hi": 1.5, "kind": "power", "coef": 0.6, "exponent": -1.2}]},
    {"direction": [-1.0], "atoms": [{"r": 1.2, "w": 0.8}],
     "densities": [{"lo": 0.2, "hi": 3.0, "kind": "power", "coef": 0.6, "exponent": 0.5}]}]}}
# j_beta(power1d, 1) where the quadrature leaf converged, from that leaf
POWER1D_JBETA = {-100.0: -941.9172823777624 + 25.97359517892136j,
                 -5.0: -7.212098674603215 + 0.048705682714228066j,
                 0.5: -0.4954337615429088 - 0.6553060828333511j,
                 12.0: -19.172169521569717 - 2.123337360685447j}


def test_jbeta_of_power_spec_evaluates_at_high_frequency():
    # the quadrature leaf raised near y = 141.7, at its 300-panel cap
    phi = j_beta(measure_from_spec(POWER1D), 1.0).exponent
    assert np.isfinite(phi(np.linspace(-300.0, 300.0, 61)[:, None])).all()
    ys = np.array(list(POWER1D_JBETA))
    for y, got in zip(ys, phi(ys[:, None])):
        assert abs(got - POWER1D_JBETA[y]) <= 1e-10 * abs(POWER1D_JBETA[y]), y
