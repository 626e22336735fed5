"""Density terms of ``char_exponent`` against mpmath closed forms.

The reference values never touch adaptive quadrature: a power density on
``(0, 1)`` is summed term by term in high precision, exp densities and
power densities on ``(0, inf)`` use their gamma-function closed forms.
Each case meets ``max(1e-14, 1e-10 |part|)`` per part or raises
``QuadratureError``; it is never silently worse.
"""

import math

import numpy as np
import pytest

from idcalc import LevyTriplet, QuadratureError, char_exponent
from idcalc.core import (
    RadialAtom,
    RadialComponent,
    SpectralMeasure,
    _atom_terms,
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
]


@pytest.mark.parametrize("c", FREQUENCIES)
@pytest.mark.parametrize("name, seg, oracle", CASES, ids=[case[0] for case in CASES])
def test_density_leaf_meets_its_tolerance_or_raises(name, seg, oracle, c):
    try:
        got = leaf(seg, c)
    except QuadratureError as e:
        assert e.achieved is not None and e.requested is not None
        return
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
