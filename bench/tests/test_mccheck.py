"""The benchmark's Monte Carlo check: it accepts the sampler's output at
the right index and rejects samples drawn at the wrong one."""

import numpy as np
import pytest

import mccheck
import oracles
import workloads

N = workloads.MC_N
GRID = np.array([-5.0, -2.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0, 5.0])
GAMMA = {"shape": 1.0, "rate": 1.0}


def expected(kernel, beta):
    fam = oracles.FamilyOracle("gamma", GAMMA)
    terms = oracles.transform_terms(oracles.KERNEL_MAPPING[kernel], beta)
    kj = lambda j: oracles.family_cumulant("gamma", GAMMA, j) * oracles.kernel_moment(kernel, beta, j)
    moments = {"mean": kj(1), "var": kj(2), "k4": kj(4)}
    return moments, [fam.cf(terms, y) for y in GRID]


def sample(kernel, beta, seed, rate=1.0):
    idcalc = pytest.importorskip("idcalc")
    from idcalc.simulate import PathConfig

    spec = {
        "jbeta": lambda b: idcalc.jbeta_integral_spec(b),
        "cor1a": lambda b: idcalc.cor1a_integral_spec(b),
        "imap": lambda b: idcalc.imap_integral_spec(workloads.MC_S_MAX),
        "clocked": lambda b: idcalc.clocked_integral_spec(b, workloads.MC_S_MAX),
    }[kernel](beta)
    return idcalc.sample_integral(idcalc.gamma(1.0, rate).triplet, spec, PathConfig(), N, seed)


@pytest.mark.parametrize("kernel", workloads.MC_KERNELS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_accepts_the_right_index(kernel, seed):
    moments, cf = expected(kernel, 1.0)
    assert mccheck.check_sample(sample(kernel, 1.0, seed), moments, GRID, cf).ok


@pytest.mark.parametrize("kernel", ["jbeta", "cor1a"])
@pytest.mark.parametrize("drawn, claimed", [(2.0, 1.0), (0.5, 1.0), (1.0, 2.0), (1.5, 1.0)])
def test_rejects_samples_drawn_at_the_wrong_beta(kernel, drawn, claimed):
    moments, cf = expected(kernel, claimed)
    res = mccheck.check_sample(sample(kernel, drawn, 3), moments, GRID, cf)
    assert not res.ok, res.describe()


@pytest.mark.parametrize("kernel", workloads.MC_KERNELS)
def test_rejects_jump_sizes_scaled_by_five_percent(kernel):
    """gamma(1, 1/1.05) is gamma(1, 1) with every jump 5% larger."""
    moments, cf = expected(kernel, 1.0)
    res = mccheck.check_sample(sample(kernel, 1.0, 4, rate=1 / 1.05), moments, GRID, cf)
    assert not res.ok, res.describe()


def test_exact_normal_sample_passes_and_shifted_fails():
    rng = np.random.default_rng(5)
    var = 0.5
    x = rng.normal(0.0, np.sqrt(var), N)
    cf = np.exp(-0.5 * var * GRID**2)
    moments = {"mean": 0.0, "var": var, "k4": 0.0}
    assert mccheck.check_sample(x, moments, GRID, cf).ok
    assert not mccheck.check_sample(x + 0.05, moments, GRID, cf).ok


def test_hoeffding_radius_bounds_the_false_rejection_chance():
    n, parts = N, 20
    r = mccheck.hoeffding_radius(n, parts)
    assert 2 * parts * np.exp(-n * r * r / 2) == pytest.approx(mccheck.ECF_DELTA, rel=1e-9)
