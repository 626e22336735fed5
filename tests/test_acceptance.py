"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np

from idcalc import (
    PathConfig,
    RadialAtom,
    RadialComponent,
    SpectralMeasure,
    callable_segment,
    cf_distance_test,
    clocked_integral_spec,
    convolve,
    corollary1a_kernel,
    default_grid,
    dirac,
    ecf,
    factor_rho,
    gamma,
    gaussian,
    i_map,
    i_of_j_beta,
    j_beta,
    j_beta_inverse,
    log_moment,
    poisson,
    power_segment,
    sample_integral,
    smear_spectral,
    verify_corollary5,
    verify_lemma1e,
    verify_prop1,
)

BETAS = (0.5, 1.0, 2.0)
GRID = default_grid(1)
MC_CFG = PathConfig(step=1e-3, small_jump_cutoff=1e-3)
MC_N = 100_000
S_MAX = 20.0


def seed_families():
    return {
        "gaussian": gaussian(1.0),
        "shift": dirac([1.0]),
        "poisson": poisson(1.0, 2.0),
        "gamma": gamma(1.0, 1.0),
    }


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _max_diff(lhs, rhs, grid=GRID):
    return max(abs(complex(lhs.exponent(y)) - complex(rhs.exponent(y))) for y in grid)


def test_criterion_01_gaussian_closed_forms():
    t0 = time.monotonic()
    worst = 0.0
    g = gaussian(1.0)
    for b in BETAS:
        jb = j_beta(g, b)
        io = i_of_j_beta(g, b)
        for y in GRID:
            yy = float(y[0]) ** 2
            worst = max(worst, abs(complex(jb.exponent(y)) - (-0.5 * b / (b + 2.0) * yy)))
            worst = max(
                worst,
                abs(complex(io.exponent(y)) - (-0.5 * b / (2.0 * (b + 2.0)) * yy)),
            )
    im = i_map(g)
    for y in GRID:
        worst = max(
            worst, abs(complex(im.exponent(y)) - (-0.25 * float(y[0]) ** 2))
        )
    elapsed = time.monotonic() - t0
    _report(
        1,
        worst < 1e-10 and elapsed < 1.0,
        f"gaussian closed-form matrix: max err {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_lemma1e_matrix():
    t0 = time.monotonic()
    worst = 0.0
    for name, mu in seed_families().items():
        for b in BETAS:
            rep = verify_lemma1e(mu, b, GRID)
            worst = max(worst, rep.grid_max_abs)
            assert rep.passed, f"{name} beta={b}: {rep.grid_max_abs:.2e}"
    elapsed = time.monotonic() - t0
    _report(
        2,
        worst < 1e-8 and elapsed < 30.0,
        f"double-map identity on 4 seeds x 3 betas: max {worst:.2e} (tol 1e-8), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_03_prop1_and_uniqueness():
    t0 = time.monotonic()
    worst = 0.0
    for name, mu in seed_families().items():
        for b in BETAS:
            rep = verify_prop1(mu, b, GRID)
            worst = max(worst, rep.grid_max_abs)
            assert rep.passed, f"{name} beta={b}: {rep.grid_max_abs:.2e}"
    # perturbing the factor by a 0.01 shift must break the identity
    breaks = []
    for b in BETAS:
        nu = gaussian(1.0)
        rho = convolve(factor_rho(nu, b), dirac([0.01]))
        lhs = convolve(j_beta(rho, b), rho)
        breaks.append(_max_diff(lhs, j_beta(nu, b)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and min(breaks) >= 1e-3 and elapsed < 30.0
    _report(
        3,
        ok,
        f"factorization: max {worst:.2e} (tol 1e-8), perturbation response "
        f">= {min(breaks):.2e} (needs 1e-3), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_04_cor1a_kernel():
    worst_id = 0.0
    for name, mu in seed_families().items():
        for b in BETAS:
            worst_id = max(
                worst_id,
                _max_diff(corollary1a_kernel(mu, b), j_beta(j_beta(mu, b), 2.0 * b)),
            )
    worst_gauss = 0.0
    for b in BETAS:
        out = corollary1a_kernel(gaussian(1.0), b)
        factor = b**2 / ((b + 2.0) * (b + 1.0))
        for y in GRID:
            want = -0.5 * factor * float(y[0]) ** 2
            worst_gauss = max(worst_gauss, abs(complex(out.exponent(y)) - want))
    _report(
        4,
        worst_id < 1e-8 and worst_gauss < 1e-10,
        f"one-shot kernel: identity max {worst_id:.2e} (tol 1e-8), "
        f"gaussian factor max {worst_gauss:.2e} (tol 1e-10)",
    )


def test_criterion_05_prop2_three_layer():
    det_band = 8.0 * MC_CFG.step * (1.0 + float(np.abs(GRID).max()))
    all_ok = True
    details = []
    for name, mu in seed_families().items():
        t0 = time.monotonic()
        worst_quad = 0.0
        worst_z = 0.0
        for b in BETAS:
            one_shot = i_of_j_beta(mu, b)
            worst_quad = max(worst_quad, _max_diff(i_map(j_beta(mu, b)), one_shot))
            samples = sample_integral(
                mu.triplet, clocked_integral_spec(b, S_MAX), MC_CFG, MC_N, seed=1234
            )
            res = cf_distance_test(ecf(samples, GRID), one_shot.exponent, det_tol=det_band)
            assert res.status in ("pass", "fail")
            worst_z = max(worst_z, res.max_z)
        elapsed = time.monotonic() - t0
        ok = worst_quad < 1e-8 and worst_z < 4.0 and elapsed < 120.0
        all_ok = all_ok and ok
        details.append(f"{name}: quad {worst_quad:.1e}, max z {worst_z:.2f}, {elapsed:.0f}s")
    _report(5, all_ok, "clocked composition three-layer; " + "; ".join(details))


def test_criterion_06_class_lf_clock():
    t0 = time.monotonic()
    worst_z = 0.0
    for mu in (gamma(1.0, 1.0), poisson(1.0, 2.0)):
        reference = i_map(j_beta(mu, 1.0))
        samples = sample_integral(
            mu.triplet, clocked_integral_spec(1.0, S_MAX), MC_CFG, MC_N, seed=777
        )
        res = cf_distance_test(ecf(samples, GRID), reference.exponent)
        assert res.status == "pass", res
        worst_z = max(worst_z, res.max_z)
    elapsed = time.monotonic() - t0
    _report(
        6,
        worst_z < 4.0 and elapsed < 120.0,
        f"index-1 clock vs two-stage mapping: max z {worst_z:.2f} (< 4), {elapsed:.0f}s (< 2min)",
    )


def test_criterion_07_spectral_factorization():
    atom = SpectralMeasure(
        (RadialComponent(np.array([1.0]), atoms=(RadialAtom(1.0, 2.0),)),)
    )
    uniform = SpectralMeasure(
        (RadialComponent(np.array([1.0]), densities=(power_segment(1.0, 0.0, 0.0, 1.0),)),)
    )
    worst = 0.0
    for G in (atom, uniform):
        for b in (1.0, 2.0):
            rep = verify_corollary5(G, b)
            worst = max(worst, rep.grid_max_abs)
            assert rep.passed, rep.summary()
    _report(7, worst < 1e-6, f"measure-level identity on dyadic mesh: max {worst:.2e} (tol 1e-6)")


def test_criterion_08_log_moment_preservation():
    ok = True
    for mu in (gamma(1.0, 1.0), poisson(1.0, 2.0)):
        for b in (0.5, 1.0, 2.0):
            src = log_moment(mu.triplet.M).status
            img = log_moment(smear_spectral(mu.triplet.M, b)).status
            ok = ok and src == "finite" and img == "finite"
    seg = callable_segment(
        lambda r: 1.0 / (r * np.log(r) ** 2),
        math.e,
        math.inf,
        tail_mass_finite=True,
        log_tail="divergent",
    )
    M = SpectralMeasure((RadialComponent(np.array([1.0]), densities=(seg,)),))
    src = log_moment(M).status
    img = log_moment(smear_spectral(M, 1.0)).status
    ok = ok and src == "infinite" and img in ("infinite", "inconclusive-divergent")
    _report(
        8,
        ok,
        f"log-moment finiteness preserved; divergent example: source {src}, smear {img}",
    )


def test_criterion_09_levy_area():
    t0 = time.monotonic()
    from idcalc import sinh_factor_exponent, area_measure
    from idcalc.levyarea import AreaParams, chi

    worst = 0.0
    for u in (0.5, 1.0, 2.0):
        p = AreaParams(u)
        mapped = i_map(area_measure(p))
        for y in GRID:
            t = float(y[0])
            worst = max(
                worst,
                abs(complex(mapped.exponent(y)) - complex(sinh_factor_exponent(p, t))),
            )
        assert chi(p, 0.0) == 1.0
    elapsed = time.monotonic() - t0
    _report(
        9,
        worst < 1e-8 and elapsed < 5.0,
        f"stochastic-area identity: max {worst:.2e} (tol 1e-8), chi(0)=1, {elapsed:.1f}s (< 5s)",
    )


def test_criterion_10_inverse_round_trip():
    worst = 0.0
    for name, mu in seed_families().items():
        for b in BETAS:
            recovered = j_beta_inverse(j_beta(mu, b), b)
            worst = max(worst, _max_diff(recovered, mu))
    _report(10, worst < 1e-7, f"inverse round trip: max {worst:.2e} (tol 1e-7)")
