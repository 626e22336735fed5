import math

import numpy as np
import pytest

from idcalc.errors import QuadratureError
from idcalc.quadrature import head_quad, power_at_origin, quad_complex, quad_cut, quad_real, tail_quad


def test_quad_real_polynomial():
    assert quad_real(lambda x: 3 * x * x, 0.0, 2.0) == pytest.approx(8.0, abs=1e-12)


def test_quad_real_sqrt_endpoint_singularity():
    # integrable endpoint singularities: x**-0.5 converges after the
    # substitution x = u**2
    assert quad_real(lambda x: np.sqrt(x), 0.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert quad_real(lambda x: x**-0.5, 0.0, 1.0) == pytest.approx(2.0, abs=1e-10)


def test_quad_real_honors_breakpoints():
    f = lambda x: np.where(x < 0.3, 1.0, 2.0)
    assert quad_real(f, 0.0, 1.0, points=[0.3]) == pytest.approx(1.7, abs=1e-12)


def test_quad_complex_unit_circle():
    # integral of exp(it) over (0, pi) is 2i
    val = quad_complex(lambda rows, t: np.exp(1j * t), 0.0, math.pi, 1)
    assert val.shape == (1,)
    assert val[0] == pytest.approx(2j, abs=1e-12)


def test_quad_complex_accepts_a_row_on_its_modulus():
    # a small imaginary part with a kink: its error meets 1e-10 |total| but
    # not 1e-10 of the imaginary part alone
    val = quad_complex(lambda rows, t: np.exp(t) + 1e-8j * np.abs(t - 1 / 3) ** -0.5, 0.0, 1.0, 1)
    want = (math.e - 1) + 2e-8j * ((2 / 3) ** 0.5 + (1 / 3) ** 0.5)
    assert abs(val[0] - want) <= 1e-10 * abs(want)


def test_quad_real_raises_on_nonconvergence():
    with pytest.raises(QuadratureError) as exc:
        quad_real(lambda x: np.sin(1.0 / x), 0.0, 1.0)
    assert exc.value.achieved is not None


def test_tail_quad_convergent():
    val, ok = tail_quad(lambda r: np.exp(-r), 1.0)
    assert ok
    assert val == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_tail_quad_flags_slow_divergence():
    # integral of 1/(r log r) grows like log log R: never stabilizes
    val, ok = tail_quad(lambda r: 1.0 / (r * np.log(r)), math.e)
    assert not ok


def test_head_quad_convergent():
    val, ok = head_quad(lambda r: r**-0.5, 1.0)
    assert ok
    assert val == pytest.approx(2.0, rel=1e-8)


def test_head_quad_flags_divergence_at_zero():
    val, ok = head_quad(lambda r: 1.0 / r, 1.0)
    assert not ok


def test_quad_real_on_arrays_of_intervals_matches_one_call_each():
    # intervals from 0 (x**-0.5 after x = u**2), across break points, and empty
    f = lambda x: x**-0.5 + np.where(x < 0.3, 1.0, 2.0)
    a = np.array([0.0, 0.1, 0.5, 0.9])
    b = np.array([1.0, 0.6, 2.0, 0.4])
    got = quad_real(f, a, b, points=[0.3, 1.0])
    want = [quad_real(f, x, y, points=[0.3, 1.0]) if y > x else 0.0 for x, y in zip(a, b)]
    assert got.shape == (4,)
    assert got == pytest.approx(want, abs=1e-12)
    assert got[0] == pytest.approx(2.0 + 0.3 + 1.4, abs=1e-10)


def test_power_at_origin_sees_past_a_next_term():
    # r**-0.5 plus a drift: the next term r**0.5 times larger must not bias
    # the read, or the substituted integrand keeps a power to bisect down to
    f = lambda rows, r: 3.0 * r**-0.5 + 1.0
    q = power_at_origin(f, np.arange(2), np.array([1.0, 50.0]))
    assert np.all(np.abs(q + 0.5) <= 1e-12)


def test_quad_cut_substitutes_only_at_a_singularity():
    # a power read a hair below 0 is the next term's bias on a bounded
    # integrand: the piece from 0 keeps its plain nodes
    def nodes(power):
        seen = []

        def f(rows, r):
            seen.append(np.array(r))
            return np.cos(r) + 0j

        quad_cut(f, np.zeros(3), np.array([0.5, 1.0, 2.0]), power=power)
        return seen

    plain = nodes(lambda rows, r0: 0.0)
    assert plain
    for a, b in zip(plain, nodes(lambda rows, r0: -1e-12), strict=True):
        assert np.array_equal(a, b)
