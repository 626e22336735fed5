import json
import math

import numpy as np
import pytest

from idcalc import (
    RadialAtom,
    RadialComponent,
    SpectralMeasure,
    conv_power,
    convolve,
    default_grid,
    dirac,
    factor_rho,
    gamma,
    gaussian,
    j_beta,
    measure_from_spec,
    poisson,
    power_segment,
    validate_report,
    verify_cor1b,
    verify_corollary5,
    verify_lemma1e,
    verify_prop1,
)
from idcalc import core
from idcalc.factorization import dyadic_mesh, smeared_interval_mass
from idcalc.mappings import smear_spectral, smear_triplet

BETAS = (0.5, 1.0, 2.0)
GRID = default_grid(1)


def rho_triplet(nu, beta):
    """Closed-form triplet of ``factor_rho(nu, beta)``."""
    return smear_triplet(conv_power(nu, 0.5).triplet, 2.0 * beta)


@pytest.mark.parametrize("beta", BETAS)
def test_factor_rho_gaussian_variance(beta):
    rho = factor_rho(gaussian(1.0), beta)
    want = beta / (2.0 * (beta + 1.0))
    assert rho_triplet(gaussian(1.0), beta).S[0, 0] == pytest.approx(want, abs=1e-14)
    assert complex(rho.exponent(np.array([1.0]))) == pytest.approx(-0.5 * want, abs=1e-11)


def test_factor_rho_identity_measure():
    rho = factor_rho(dirac([0.0]), 1.0)
    for y in GRID:
        assert abs(complex(rho.exponent(y))) < 1e-12


def test_factor_rho_beta1_quarter_variance():
    rho = rho_triplet(gaussian(1.0), 1.0)
    assert rho.S[0, 0] == pytest.approx(0.25, abs=1e-14)
    # and the factorization closes the variance budget: 1/4 * 1/3 + 1/4 = 1/3
    lhs_var = rho.S[0, 0] * (1.0 / 3.0) + rho.S[0, 0]
    assert lhs_var == pytest.approx(1.0 / 3.0, abs=1e-14)


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize(
    "seed", ["gaussian", "shift", "poisson", "gamma"]
)
def test_prop1_seed_matrix(beta, seed):
    from idcalc import gamma as gamma_family

    measures = {
        "gaussian": gaussian(1.0),
        "shift": dirac([1.0]),
        "poisson": poisson(1.0, 2.0),
        "gamma": gamma_family(1.0, 1.0),
    }
    rep = verify_prop1(measures[seed], beta)
    assert rep.passed, rep.summary()
    assert rep.grid_max_abs < 1e-8


def test_prop1_gaussian_tight():
    rep = verify_prop1(gaussian(1.0), 1.0)
    assert rep.grid_max_abs < 1e-10


def test_prop1_dirac_zero():
    rep = verify_prop1(dirac([0.0]), 1.0)
    assert rep.passed
    assert rep.grid_max_abs < 1e-15


# the bench's 1-d power spec: atoms and bounded power densities on two rays
POWER_SPEC = {
    "dim": 1, "shift": [0.25], "cov": [[0.5]],
    "spectral": {"rays": [
        {"direction": [1.0], "atoms": [{"r": 0.5, "w": 0.6}, {"r": 2.0, "w": 0.5}],
         "densities": [{"lo": 0.0, "hi": 1.5, "kind": "power", "coef": 0.6, "exponent": -1.2}]},
        {"direction": [-1.0], "atoms": [{"r": 1.2, "w": 0.8}],
         "densities": [{"lo": 0.2, "hi": 3.0, "kind": "power", "coef": 0.6, "exponent": 0.5}]},
    ]},
}


def test_prop1_reads_rho_once(monkeypatch):
    # the rho column is the lhs's own read of rho: a second 10-row read of
    # rho would be a direct radial quadrature over the leaf, two more calls
    calls = []
    plain = core.char_exponent
    monkeypatch.setattr(core, "char_exponent", lambda t, y: calls.append(1) or plain(t, y))
    assert verify_prop1(measure_from_spec(POWER_SPEC), 1.0).passed
    assert len(calls) == 8


def test_prop1_notes_beta1_labeled():
    rep = verify_prop1(gaussian(1.0), 1.0)
    assert any("s-selfdecomposable" in n for n in rep.notes)


@pytest.mark.parametrize("beta", BETAS)
def test_prop1_perturbed_factor_breaks_identity(beta):
    # uniqueness sensitivity: a convolved shift of 0.01 must show up
    nu = gaussian(1.0)
    rho = convolve(factor_rho(nu, beta), dirac([0.01]))
    lhs = convolve(j_beta(rho, beta), rho)
    rhs = j_beta(nu, beta)
    worst = max(
        abs(complex(lhs.exponent(y)) - complex(rhs.exponent(y))) for y in GRID
    )
    assert worst >= 1e-3


def test_factor_rho_deterministic():
    a = factor_rho(poisson(1.0, 2.0), 1.0)
    b = factor_rho(poisson(1.0, 2.0), 1.0)
    for y in GRID:
        assert complex(a.exponent(y)) == complex(b.exponent(y))


# ---------------------------------------------------------------------------
# the double-map identity
# ---------------------------------------------------------------------------


def test_lemma1e_gaussian_both_sides_analytic():
    # each side contracts the variance by 2 beta/(beta+2)
    for beta in BETAS:
        rep = verify_lemma1e(gaussian(1.0), beta)
        assert rep.passed
        want = -0.5 * 2.0 * beta / (beta + 2.0)
        lhs_at_1 = next(
            complex(*p["lhs"]) for p in rep.points if p["y"] == [1.0]
        )
        assert lhs_at_1 == pytest.approx(want, abs=1e-9)


def test_lemma1e_shift():
    rep = verify_lemma1e(dirac([1.0]), 1.0)
    assert rep.passed, rep.summary()
    lhs_at_1 = next(complex(*p["lhs"]) for p in rep.points if p["y"] == [1.0])
    assert lhs_at_1 == pytest.approx(1j, abs=1e-9)


def test_lemma1e_compound_poisson_small_beta():
    rep = verify_lemma1e(poisson(1.0, 1.0), 0.5)
    assert rep.passed, rep.summary()
    assert rep.grid_max_abs < 1e-8


# ---------------------------------------------------------------------------
# image round trip
# ---------------------------------------------------------------------------


def test_cor1b_round_trip_gaussian():
    rep = verify_cor1b(gaussian(1.0), 1.0, grid=GRID[::2])
    assert rep.passed
    assert rep.grid_max_abs < 1e-7


def test_cor1b_round_trip_poisson_beta_half():
    rep = verify_cor1b(poisson(1.0, 2.0), 0.5, grid=GRID[::5])
    assert rep.passed
    assert rep.grid_max_abs < 1e-7


# ---------------------------------------------------------------------------
# measure-level factorization
# ---------------------------------------------------------------------------


def atom_source():
    return SpectralMeasure(
        (RadialComponent(np.array([1.0]), atoms=(RadialAtom(1.0, 2.0),)),)
    )


@pytest.mark.parametrize("beta", BETAS)
def test_cor5_atom_frozen_values(beta):
    # hand computation for A = (0.25, 0.5], source atom (r=1, w=2): M is the
    # density 2 beta r^(2 beta - 1) on (0, 1], so M(A) = 0.5^(2 beta) -
    # 0.25^(2 beta), and the source's smear puts 2 (0.5^beta - 0.25^beta) on A
    mass, rhs = {
        0.5: (0.25, math.sqrt(2.0) - 1.0),
        1.0: (0.1875, 0.5),
        2.0: (0.05859375, 0.375),
    }[beta]
    G = atom_source()
    M = smear_spectral(G, 2.0 * beta).scaled(0.5)
    assert M.interval_mass(0, 0.25, 0.5) == pytest.approx(mass, abs=1e-12)
    assert smeared_interval_mass(G, beta, 0, 0.25, 0.5) == pytest.approx(rhs, abs=1e-9)
    lhs = smeared_interval_mass(M, beta, 0, 0.25, 0.5) + M.interval_mass(0, 0.25, 0.5)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("beta", BETAS)
def test_smeared_interval_mass_on_a_mesh_matches_head_and_tail_form(beta):
    # one call for the whole mesh, M((r1, r2]) + T(r2) - T(r1), against the
    # per-interval Fubini form int_(r1,r2] (1 - (r1/s)^b) M(ds)
    # + (r2^b - r1^b) int_(r2,inf) s^-b M(ds), on a smeared and an atomic ray
    for G in (smear_spectral(gamma(1.0, 1.0).triplet.M, 2.0 * beta), atom_source()):
        mesh = dyadic_mesh()
        r1, r2 = np.array(mesh).T
        got = smeared_interval_mass(G, beta, 0, r1, r2)
        for (x1, x2), value in zip(mesh, got):
            head = G.ray_integral(0, x1, x2, lambda s: 1.0 - (x1 / s) ** beta)
            tail = G.ray_integral(0, x2, math.inf, lambda s: s**-beta)
            assert value == pytest.approx(head + (x2**beta - x1**beta) * tail, abs=1e-12)


@pytest.mark.parametrize("beta", (1.0, 2.0))
def test_cor5_atom_passes_mesh(beta):
    rep = verify_corollary5(atom_source(), beta)
    assert rep.passed, rep.summary()
    assert rep.grid_max_abs < 1e-6


@pytest.mark.parametrize("beta", (1.0, 2.0))
def test_cor5_uniform_density(beta):
    G = SpectralMeasure(
        (RadialComponent(np.array([1.0]), densities=(power_segment(1.0, 0.0, 0.0, 1.0),)),)
    )
    rep = verify_corollary5(G, beta)
    assert rep.passed, rep.summary()


def test_cor5_empty_source():
    rep = verify_corollary5(SpectralMeasure(()), 1.0)
    assert rep.passed
    assert rep.grid_max_abs == 0.0


@pytest.mark.parametrize("beta", (0.5, 1.0))
def test_cor5_heavy_tail_source(beta):
    # unbounded support: the tail term of the smeared mass integrates
    # s^-beta against the heavy tail over (r2, inf), which must converge
    G = SpectralMeasure(
        (RadialComponent(np.array([1.0]),
                         densities=(power_segment(1.0, -2.5, 1.0, math.inf),)),)
    )
    rep = verify_corollary5(G, beta)
    assert rep.passed, rep.summary()


def test_cor5_kink_of_smeared_density_is_a_break_point(monkeypatch):
    # an exp density starting at lo > 0 smears to a density that bends at
    # lo; the test intervals and the tails beyond them cross the bend, and
    # must cost about what the same density from 0 costs (neither 0.3 nor
    # 0.7 is an end of the mesh)
    from idcalc import measure_from_spec, quadrature

    # integrand evaluations: panels of the one GK21 rule times its nodes
    evals = [0]
    plain = quadrature._panel_rules

    def counting(f, elem, a, b, where):
        evals[0] += len(elem) * quadrature.GK21_NODES.size
        return plain(f, elem, a, b, where)

    monkeypatch.setattr(quadrature, "_panel_rules", counting)
    cost = {}
    for lo in (0.3, 0.7, 0.0):
        dens = {"lo": lo, "hi": "inf", "kind": "exp", "coef": 0.6, "exponent": 0, "rate": 2}
        ray = {"direction": [1.0], "atoms": [{"r": 0.7, "w": 0.5}], "densities": [dens]}
        G = measure_from_spec({"dim": 1, "spectral": {"rays": [ray]}}).triplet.M
        evals[0] = 0
        rep = verify_corollary5(G, 1.0, mesh=dyadic_mesh(2, 3))
        assert rep.passed, rep.summary()
        cost[lo] = evals[0]
    assert max(cost[0.3], cost[0.7]) <= 2 * cost[0.0], cost


def test_dyadic_mesh_span():
    mesh = dyadic_mesh()
    assert len(mesh) == 10
    assert mesh[0] == (8.0, 16.0)
    assert mesh[-1] == (2.0**-6, 2.0**-5)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_serialization_and_schema():
    rep = verify_lemma1e(gaussian(1.0), 1.0)
    doc = json.loads(json.dumps(rep.to_dict()))
    validate_report(doc)
    assert doc["identity"] == "lemma1e"
    assert doc["beta"] == 1.0
    assert doc["pass"] is True
    assert isinstance(doc["grid_max_abs"], float)
    assert len(doc["points"]) == len(GRID)


def test_report_schema_rejects_missing_fields():
    import jsonschema

    # the validator is built on the first report and kept for the next ones
    validate_report(verify_lemma1e(gaussian(1.0), 1.0).to_dict())
    with pytest.raises(jsonschema.ValidationError):
        validate_report({"identity": "x", "pass": True})
    with pytest.raises(jsonschema.ValidationError):
        validate_report({**verify_lemma1e(gaussian(1.0), 1.0).to_dict(), "pass": "yes"})


def _layout(value):
    """A point's keys in order with the type of each value, lists entry by entry."""
    if isinstance(value, dict):
        return tuple((k, _layout(v)) for k, v in value.items())
    return tuple(map(_layout, value)) if isinstance(value, list) else type(value).__name__


F, PAIR = "float", ("float", "float")


@pytest.fixture(scope="module")
def report_kinds():
    from idcalc import AreaParams, SpectralMeasure, verify_levy_area
    from idcalc.reports import exponent_report
    from idcalc.simulate import PathConfig, jbeta_integral_spec
    from idcalc.verify import mc_check

    # the samples of a unit shift's jbeta integral sit near 0.5; against a
    # shift of 0.52 the far points leave the deterministic band, z = None
    _, mc = mc_check("mc", dirac([1.0]), jbeta_integral_spec(1.0), lambda mu, b: dirac([0.52]),
                     1.0, GRID, PathConfig(), 200, 0)
    return {
        "grid": (verify_lemma1e(gaussian(1.0), 1.0),
                 {(("y", (F,)), ("lhs", PAIR), ("rhs", PAIR), ("abs_diff", F))}),
        "factor": (verify_prop1(gaussian(1.0), 1.0),
                   {(("y", (F,)), ("lhs", PAIR), ("rhs", PAIR), ("abs_diff", F), ("rho", PAIR))}),
        "exponent": (exponent_report("exponent", gaussian(1.0), GRID),
                     {(("y", (F,)), ("re", F), ("im", F))}),
        "mc": (mc, {(("y", (F,)), ("z", F)), (("y", (F,)), ("z", "NoneType"))}),
        "cor5": (verify_corollary5(gamma(1.0, 1.0).triplet.M, 1.0),
                 {(("ray", "int"), ("interval", PAIR), ("lhs", F), ("rhs", F), ("abs_diff", F))}),
        "cor5-no-ray": (verify_corollary5(SpectralMeasure(()), 1.0), {(
            ("ray", "NoneType"), ("interval", "NoneType"), ("lhs", F), ("rhs", F),
            ("abs_diff", F))}),
        "levyarea": (verify_levy_area(AreaParams(1.0)),
                     {(("t", F), ("mapped", PAIR), ("log_sinh_factor", PAIR), ("abs_diff", F))}),
    }


@pytest.mark.parametrize("kind", ["grid", "factor", "exponent", "mc", "cor5", "cor5-no-ray",
                                  "levyarea"])
def test_report_point_layout_is_pinned(kind, report_kinds):
    # key order and value types of each report kind's points, as written to JSON
    report, layouts = report_kinds[kind]
    assert {_layout(p) for p in report.points} == layouts
    validate_report(report.to_dict())
