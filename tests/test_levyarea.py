import math

import numpy as np
import pytest

from idcalc import (
    AreaParams,
    ValidationError,
    area_measure,
    i_map,
    nu_exponent,
    sinh_factor_exponent,
    verify_levy_area,
)
from idcalc import levyarea
from idcalc.cli import main
from idcalc.levyarea import chi


def test_params_validation():
    with pytest.raises(ValidationError):
        AreaParams(0.0)
    with pytest.raises(ValidationError):
        AreaParams(-1.0)


def test_nu_exponent_values():
    p = AreaParams(1.0)
    assert nu_exponent(p, 0.0) == 0.0
    coth1 = math.cosh(1.0) / math.sinh(1.0)
    assert nu_exponent(p, 1.0) == pytest.approx(-(coth1 - 1.0), abs=1e-14)
    assert nu_exponent(p, 1.0).real == pytest.approx(-0.313035285499331, abs=1e-12)


def test_nu_exponent_even():
    p = AreaParams(2.0)
    for t in (0.1, 0.7, 3.0, 40.0):
        assert nu_exponent(p, t) == nu_exponent(p, -t)


def test_nu_exponent_series_agrees_with_direct_form_at_cut():
    p = AreaParams(1.0)
    # just below the cut the series is used; the direct coth form at the
    # same point is still accurate to ~1e-15 absolute there
    x = 0.009999
    series = nu_exponent(p, x).real
    direct = -(x / math.tanh(x) - 1.0)
    assert series == pytest.approx(direct, abs=5e-15)
    exact = -(0.02 / math.tanh(0.02) - 1.0)
    assert nu_exponent(p, 0.02).real == pytest.approx(exact, rel=1e-13)


def test_nu_exponent_linear_asymptote():
    p = AreaParams(1.0)
    for t in (50.0, 200.0):
        assert nu_exponent(p, t).real == pytest.approx(-(t - 1.0), rel=1e-12)


def test_sinh_factor_values():
    p = AreaParams(1.0)
    assert sinh_factor_exponent(p, 0.0) == 0.0
    assert sinh_factor_exponent(p, 1.0).real == pytest.approx(
        math.log(1.0 / math.sinh(1.0)), abs=1e-14
    )
    assert sinh_factor_exponent(p, 1.0).real == pytest.approx(-0.161439361571196, abs=1e-12)
    for t in (0.3, 2.0):
        assert sinh_factor_exponent(p, t) == sinh_factor_exponent(p, -t)


def test_sinh_factor_large_argument_stable():
    p = AreaParams(1.0)
    # sinh overflows near 710; the log form must not
    v = sinh_factor_exponent(p, 5000.0)
    assert math.isfinite(v.real)
    assert v.real == pytest.approx(math.log(5000.0) - 5000.0 + math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("u", (0.5, 1.0, 2.0))
def test_mapping_identity_oracle(u):
    # analytic oracle: integral of (coth v - 1/v) over (0, x) equals
    # log(sinh x / x); verified here by mpmath quadrature, then against i_map
    mp = pytest.importorskip("mpmath")

    p = AreaParams(u)
    x = 1.7 * u
    oracle = float(mp.quad(lambda v: mp.coth(v) - 1 / v, [0, x]))
    assert oracle == pytest.approx(math.log(math.sinh(x) / x), abs=1e-11)

    mapped = i_map(area_measure(p))
    for t in (0.1, 0.5, 1.0, 2.0, 5.0):
        got = complex(mapped.exponent(np.array([t])))
        want = sinh_factor_exponent(p, t)
        assert abs(got - want) < 1e-8


def test_chi_is_a_genuine_symmetric_cf():
    p = AreaParams(1.0)
    assert chi(p, 0.0) == 1.0
    for t in (0.1, 0.5, 1.0, 2.0, 5.0, 25.0):
        v = chi(p, t)
        assert 0.0 < v <= 1.0
        assert chi(p, -t) == v
        # product form of the two factors
        x = t * p.u
        if x >= 1e-2:
            direct = (x / math.sinh(x)) * math.exp(-(x / math.tanh(x) - 1.0))
            assert v == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("u", (0.5, 1.0, 2.0))
def test_verify_levy_area_report(u):
    rep = verify_levy_area(AreaParams(u))
    assert rep.passed, rep.summary()
    assert rep.grid_max_abs < 1e-8
    assert rep.extra["chi_at_zero"] == 1.0
    assert rep.extra["clocked_decomposition_max_abs"] < 1e-8
    assert any("coth" in n for n in rep.notes)


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "levyarea", "--grid", "380"],
    ["verify", "--identity", "levyarea", "--u", "2", "--grid", "200"],
    ["levy-area", "--grid", "1", "380"],
])
def test_levy_area_passes_where_chi_underflows(argv):
    # chi(t) underflows to 0.0 once |t| u is above about 375; its bounds are read on log chi
    assert chi(AreaParams(1.0), 380.0) == 0.0
    assert main(argv) == 0


def test_a_log_chi_above_zero_fails_the_product_form(monkeypatch):
    real = levyarea.nu_exponent
    monkeypatch.setattr(levyarea, "nu_exponent", lambda p, t: real(p, t) + 2.0 * np.abs(t))
    rep = verify_levy_area(AreaParams(1.0), np.array([380.0]))
    assert not rep.passed
    assert "product-form cross-check failed" in rep.notes


def test_area_csv_rows():
    # the levy-area CSV rows: one per default grid point, taken from the report
    p = AreaParams(1.0)
    rep = verify_levy_area(p)
    assert len(rep.points) == 10
    first = rep.points[0]
    assert first["t"] == -5.0
    phi_nu = nu_exponent(p, first["t"]).real
    assert phi_nu == pytest.approx(-(5.0 / math.tanh(5.0) - 1.0), rel=1e-12)
    assert first["mapped"][0] == pytest.approx(first["log_sinh_factor"][0], abs=1e-8)
    assert all(q["abs_diff"] < 1e-8 for q in rep.points)
