"""The benchmark's closed forms against plain mpmath quadrature.

Nothing here imports idcalc: these tests show that the oracles are right
on their own, so that a benchmark failure points at the program.
"""

import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import oracles
import workloads

MAPPINGS = ["jbeta", "imap", "i-of-jbeta", "cor1a", "jbeta-inv", "exponent"]
BETAS = [0.5, 1.0, 2.0]


def mp_close(a, b, tol=1e-11):
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(b)))


def test_oracles_do_not_import_idcalc():
    code = ("import sys, oracles; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'idcalc']")
    subprocess.run([sys.executable, "-c", code], cwd=Path(oracles.__file__).parent, check=True)


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("mapping", MAPPINGS)
def test_mellin_multipliers_match_radial_quadrature(mapping, beta):
    """On phi homogeneous of degree s the transform is M(s) phi."""
    for degree, phi in ((2.0, lambda y: -0.5 * y * y), (1.0, lambda y: 1j * y)):
        terms = oracles.transform_terms(mapping, beta)
        y = 1.3
        want = oracles.radial_value(terms, phi, y)
        assert mp_close(oracles.homogeneous_value(terms, degree, complex(phi(y))), want)


@pytest.mark.parametrize("b1, b2", [(0.5, 1.0), (1.0, 2.0), (2.0, 0.5), (1.0, 1.0)])
def test_composed_shrinking_maps_are_one_radial_weight(b1, b2):
    """J_b2 o J_b1 by nested mpmath quadrature equals its partial fractions."""
    phi = oracles.gamma_phi(1.0, 1.0)
    inner = lambda y: b1 * mp.quad(lambda u: u ** (b1 - 1) * phi(u * y), [0, 1])
    nested = b2 * mp.quad(lambda u: u ** (b2 - 1) * inner(u * 0.7), [0, 1])
    assert mp_close(oracles.radial_value(oracles.compose_jj(b1, b2), phi, 0.7), nested, 1e-9)


@pytest.mark.parametrize("beta", BETAS)
def test_identity_terms_reduce_the_compositions(beta):
    """Each identity's sides, as Mellin products, equal the oracle terms."""
    b = beta
    m = lambda a, s: a / (a + s)
    for s in (0.5, 1.0, 2.0, 3.7):
        M = lambda name, i=0: oracles.mellin(oracles.identity_terms(name, b)[i], s)
        for i, b2 in enumerate(oracles.BETA_SET):
            assert M("lemma1c", i) == pytest.approx(m(b, s) * m(b2, s), rel=1e-13)
        rho = 0.5 * m(2 * b, s)
        assert M("prop1") == pytest.approx(m(b, s) * rho + rho, rel=1e-13)
        assert M("lemma1e") == pytest.approx(m(2 * b, s) * (m(b, s) + 1), rel=1e-13)
        assert M("cor1b") == pytest.approx((m(b, s) + 1) * m(2 * b, s), rel=1e-13)
        assert M("cor1a") == pytest.approx(m(b, s) * m(2 * b, s), rel=1e-13)
        assert M("prop2") == pytest.approx(m(b, s) / s, rel=1e-13)
        assert M("lemma1d", 1) == pytest.approx(0.5 * m(b, s), rel=1e-13)


@pytest.mark.parametrize("y", [0.1, 1.0, 5.0, 40.0])
def test_gamma_imap_dilogarithm(y):
    phi = oracles.gamma_phi(1.5, 0.8)
    want = mp.quad(lambda u: phi(u * y) / u, [0, 1])
    assert mp_close(oracles.gamma_imap(1.5, 0.8, y), want)


@pytest.mark.parametrize("y", [-3.0, 0.2, 1.0, 7.5])
def test_poisson_imap_sine_cosine_integrals(y):
    phi = oracles.poisson_phi(0.7, 2.0)
    want = mp.quad(lambda u: phi(u * y) / u, [0, 0.5, 1])
    assert mp_close(oracles.poisson_imap(0.7, 2.0, y), want)


@pytest.mark.parametrize("mapping", ["jbeta", "imap", "i-of-jbeta", "cor1a", "jbeta-inv", "exponent"])
@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_kernel_series_and_closed_forms(mapping, beta):
    terms = oracles.transform_terms(mapping, beta)
    kern = oracles.Kernel(terms)
    for x in (-0.3, 0.99, 1.01, -4.0, 40.0):
        want = mp.mpc(0)
        for c, kind, k in terms:
            e = lambda u: mp.expj(u * x) - 1
            if kind == "mono":
                want += c * mp.quad(lambda u: u**k * e(u), [0, 1])
            elif kind == "inv":
                want += c * mp.quad(lambda u: e(u) / u, mp.linspace(0, 1, 9))
            elif kind == "delta":
                want += c * e(1)
            elif kind == "ddelta":
                want += c * 1j * x * mp.expj(x)
        assert mp_close(kern(x, False), want), x
        assert mp_close(kern(x, True), want - 1j * x * oracles.mellin(terms, 1)), x


GAMMA_SPEC = {
    "dim": 1, "shift": [1.2 * (1 - math.exp(-0.9)) / 0.9], "cov": [[0.0]],
    "spectral": {"rays": [{"direction": [1.0], "densities": [
        {"lo": 0.0, "hi": "inf", "kind": "exp", "coef": 1.2, "exponent": -1.0, "rate": 0.9}]}]},
}


@pytest.mark.parametrize("y", [-2.0, 0.5, 1.0, 4.0])
@pytest.mark.parametrize("mapping", ["exponent", "jbeta", "imap", "i-of-jbeta", "cor1a"])
def test_spec_transform_of_the_gamma_triplet(mapping, y):
    """The swapped-integral route on a triplet equals the closed-form route."""
    terms = oracles.transform_terms(mapping, 2.0)
    fam = oracles.FamilyOracle("gamma", {"shape": 1.2, "rate": 0.9})
    assert mp_close(oracles.spec_transform(GAMMA_SPEC, terms, [y]), fam.value(terms, y), 1e-10)


def test_spec_transform_against_nested_mpmath():
    """J_2 of a spec with atoms and a power density, by nested quadrature."""
    spec = {"dim": 2, "shift": [0.3, -0.1], "cov": [[0.5, 0.1], [0.1, 0.4]],
            "spectral": {"rays": [
                {"direction": [0.6, 0.8], "atoms": [{"r": 0.5, "w": 0.7}, {"r": 1.7, "w": 0.3}],
                 "densities": [{"lo": 0.0, "hi": 1.5, "kind": "power", "coef": 0.8,
                                "exponent": -1.2}]}]}}
    y = [0.9, -1.4]
    delta = oracles.transform_terms("exponent")
    phi = lambda u: oracles.spec_transform(spec, delta, [u * v for v in y])
    nested = mp.quad(lambda u: 2 * u * phi(float(u)), [0, 1])
    got = oracles.spec_transform(spec, oracles.transform_terms("jbeta", 2.0), y)
    assert mp_close(got, nested, 1e-9)


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_smeared_interval_masses(beta):
    gamma_ray = GAMMA_SPEC["spectral"]["rays"][0]
    g = lambda r: 1.2 * mp.exp(-0.9 * r) / r
    for r1, r2 in workloads.cor5_mesh(-1, 2):
        mass = lambda a, c: mp.quad(g, [a, c])
        want = mp.quad(lambda t: mass(r1 * t ** (-1 / beta), r2 * t ** (-1 / beta)), [0, 1])
        assert oracles.smeared_interval_mass(gamma_ray, beta, r1, r2) == pytest.approx(
            float(want), rel=1e-10, abs=1e-13)
    atom_ray = {"direction": [1.0], "atoms": [{"r": 2.0, "w": 0.7}]}
    for r1, r2 in workloads.cor5_mesh(-1, 2):
        lo, hi = (min(1.0, (r / 2.0) ** beta) for r in (r1, r2))
        assert oracles.smeared_interval_mass(atom_ray, beta, r1, r2) == pytest.approx(
            0.7 * (hi - lo), abs=1e-13)


def test_interval_mass_closed_forms():
    ray = {"direction": [1.0], "densities": [
        {"lo": 0.2, "hi": 3.0, "kind": "power", "coef": 0.5, "exponent": 0.5},
        {"lo": 0.0, "hi": "inf", "kind": "exp", "coef": 0.6, "exponent": -0.5, "rate": 1.5}]}
    want = (mp.quad(lambda r: 0.5 * r**0.5, [0.3, 2.5])
            + mp.quad(lambda r: 0.6 * r**-0.5 * mp.exp(-1.5 * r), [0.3, 2.5]))
    assert oracles._interval_mass(ray, 0.3, 2.5) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("kernel", ["jbeta", "imap", "clocked", "cor1a"])
@pytest.mark.parametrize("beta", BETAS)
def test_kernel_moments(kernel, beta):
    f = {
        "jbeta": (lambda t: t ** (1 / beta), [0, 1], lambda s: 1),
        "imap": (lambda s: mp.exp(-s), [0, mp.inf], lambda s: 1),
        "clocked": (lambda s: mp.exp(-s), [0, mp.inf], lambda s: 1 - mp.exp(-beta * s)),
        "cor1a": (lambda t: (1 - mp.sqrt(t)) ** (1 / beta), [0, 1], lambda s: 1),
    }[kernel]
    fn, interval, dclock = f
    for j in (1, 2, 4):
        want = mp.quad(lambda s: fn(s) ** j * dclock(s), interval)
        assert oracles.kernel_moment(kernel, beta, j) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("family, params", [
    ("gamma", {"shape": 1.5, "rate": 0.8}),
    ("poisson", {"rate": 0.7, "jump": 2.0}),
])
def test_family_cumulants(family, params):
    phi = (oracles.gamma_phi(params["shape"], params["rate"]) if family == "gamma"
           else oracles.poisson_phi(params["rate"], params["jump"]))
    for j in (1, 2, 4):
        want = mp.re(mp.diff(phi, 0, j) / (1j) ** j)
        assert oracles.family_cumulant(family, params, j) == pytest.approx(float(want), rel=1e-8)


def test_levyarea_log_sinh():
    for t in (-5.0, 0.1, 2.0):
        x = abs(t)
        assert oracles.levyarea_log_sinh(t) == pytest.approx(math.log(x / math.sinh(x)), rel=1e-14)
