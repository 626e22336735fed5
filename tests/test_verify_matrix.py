import numpy as np
import pytest

from idcalc import (
    IdMeasure,
    PathConfig,
    ValidationError,
    default_grid,
    gaussian,
    j_beta,
    jbeta_integral_spec,
    verify_prop1,
)
from idcalc.cli import build_parser
from idcalc.verify import (
    IDENTITIES,
    MAPPINGS,
    default_seed_measures,
    mc_check,
    run_all,
    verify_identity,
)

SEED_LABELS = ("gaussian(var=1)", "dirac([1.])", "poisson(rate=1, jump=2)", "gamma(1,1)")
LEVYAREA_NOTE = (
    "background exponent uses t*u*coth(t*u) - 1; the cosh variant violates chi(0) = 1 "
    "and the log(t*u/sinh(t*u)) mapping identity"
)


def test_identity_names_align_with_cli_contract():
    assert set(IDENTITIES) == {
        "lemma1c", "lemma1d", "lemma1e", "prop1", "cor1a",
        "cor1b", "cor5", "prop2", "cor3", "levyarea",
    }


def test_cli_identity_choices_are_the_table_keys():
    sub = build_parser()._subparsers._group_actions[0].choices["verify"]
    (identity,) = [a for a in sub._actions if a.dest == "identity"]
    assert sorted(identity.choices) == sorted(IDENTITIES)


def _expected_matrix() -> list:
    """(identity, beta, notes) of each run_all(mc_n=0) report, in order."""
    rows = []
    for seed in SEED_LABELS:
        s = [f"seed {seed}"]
        for b in (0.5, 1.0, 2.0):
            selfdec = ["beta=1: s-selfdecomposable case"] if b == 1.0 else []
            rows += [("lemma1c", b, [f"second index {b2:g}", *s]) for b2 in (0.5, 1.0, 2.0)]
            rows += [("lemma1d", b, [n, *s]) for n in (
                "convolution homomorphism", "convolution power c=0.5", "convolution power c=2")]
            rows += [
                ("lemma1e", b, [*s, *selfdec]),
                ("prop1", b, [f"factor rho[{b:g}]({seed}) of {seed}", *selfdec]),
                ("cor1a", b, s),
                ("cor1b", b, s),
                ("prop2", b, ["two-stage vs clocked quadrature", *s]),
            ]
        if seed.startswith(("poisson", "gamma")):
            rows += [("cor5", b, ["radial test sets, measure-level factorization"])
                     for b in (1.0, 2.0)]
    rows.append(("levyarea", None, [LEVYAREA_NOTE]))
    return rows


def test_run_all_report_structure_is_pinned():
    # every report of the matrix is on a 10-point grid or mesh
    got = [(r.identity, r.beta, r.notes, len(r.points)) for r in run_all(mc_n=0)]
    assert len(got) == 137
    assert got == [(*row, 10) for row in _expected_matrix()]


def test_cor3_without_monte_carlo_names_its_only_route():
    with pytest.raises(ValidationError, match=r"cor3's only route is Monte Carlo, so --mc.n"):
        verify_identity("cor3", gaussian(1.0), mc_n=0)


def test_monte_carlo_reads_the_grid_the_grid_check_reads():
    # a flat 1-d grid is one frequency per value for both sub-checks
    reports = verify_identity("prop2", gaussian(1.0), grid=np.array([0.5, 1.0]), mc_n=2000)
    assert [[p["y"] for p in r.points] for r in reports] == [[[0.5], [1.0]]] * 2


BARE = IdMeasure.from_exponent(1, lambda Y: -Y[:, 0] ** 2 + 0j, label="bare")


@pytest.mark.parametrize("measure", [None, BARE], ids=["none", "exponent-only"])
def test_cor5_refuses_a_measure_without_a_spectral_part(measure):
    with pytest.raises(ValidationError, match="cor5 needs a measure with a spectral part"):
        verify_identity("cor5", measure)


def test_mc_check_refuses_a_measure_without_a_triplet():
    with pytest.raises(ValidationError, match="bare has no triplet; cannot simulate"):
        mc_check("jbeta", BARE, jbeta_integral_spec(1.0), MAPPINGS["jbeta"].law, 1.0,
                 default_grid(1), PathConfig(), 200, 0)


def test_unknown_identity_rejected():
    with pytest.raises(ValidationError):
        verify_identity("lemma9", gaussian(1.0))


def test_identity_requires_measure():
    with pytest.raises(ValidationError):
        verify_identity("prop1")


def test_seed_families():
    fams = default_seed_measures()
    assert set(fams) == {"gaussian", "shift", "poisson", "gamma"}
    for mu in fams.values():
        assert mu.triplet is not None


def test_run_all_gaussian_light():
    # full matrix over a single seed with a small Monte Carlo budget;
    # every report must pass, including the deterministic-free MC layers
    reports = run_all(measure=gaussian(1.0), mc_n=5000, seed=3)
    assert len(reports) > 20
    for rep in reports:
        assert rep.passed, rep.summary()
    identities = {r.identity for r in reports}
    assert {"lemma1c", "lemma1d", "lemma1e", "prop1", "cor1a", "cor1b",
            "prop2", "levyarea"} <= identities


def test_three_dimensional_measures():
    mu = gaussian(cov=np.diag([1.0, 2.0, 3.0]))
    out = j_beta(mu, 1.0)
    grid = default_grid(3)
    assert grid.shape == (64, 3)
    for y in grid[:8]:
        want = -0.5 / 3.0 * float(y @ np.diag([1.0, 2.0, 3.0]) @ y)
        assert complex(out.exponent(y)) == pytest.approx(want, abs=1e-10)
        assert abs(complex(out.exponent(-y)) - complex(out.exponent(y)).conjugate()) < 1e-12


# ---------------------------------------------------------------------------
# the grid rule: a grid that does not fit the measure is refused
# ---------------------------------------------------------------------------

PLANE = gaussian(cov=[[1.0, 0.0], [0.0, 2.0]])
COLUMN = np.array([[1.0], [2.0], [3.0], [4.0]])


def test_a_column_grid_on_a_2d_measure_is_refused_not_paired():
    with pytest.raises(ValidationError, match=r"shape \(n, 2\), got \(4, 1\)"):
        verify_prop1(PLANE, 1.0, grid=COLUMN)
    with pytest.raises(ValidationError, match=r"shape \(n, 2\), got \(4, 1\)"):
        verify_identity("prop2", PLANE, grid=COLUMN, mc_n=0)


@pytest.mark.parametrize("name,measure", [("prop2", gaussian(1.0)), ("levyarea", None)])
def test_a_wide_grid_on_a_1d_row_is_refused(name, measure):
    with pytest.raises(ValidationError, match=r"shape \(n, 1\), got \(1, 2\)"):
        verify_identity(name, measure, grid=np.array([[1.0, 2.0]]), mc_n=0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_grid_is_refused(value):
    with pytest.raises(ValidationError, match="non-finite"):
        verify_identity("prop2", gaussian(1.0), grid=np.array([value, 1.0]), mc_n=0)


def test_a_flat_grid_on_a_2d_measure_is_refused():
    with pytest.raises(ValidationError, match=r"shape \(n, 2\), got \(4,\)"):
        verify_identity("prop1", PLANE, grid=COLUMN[:, 0], mc_n=0)
