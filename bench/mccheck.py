"""The benchmark's own check of a Monte Carlo sample of a random integral.

It replaces the program's pass flag, whose outcome depends on the seed.
A sample of ``X = int f dY(tau)`` is accepted when all three hold:

* mean z-score ``|xbar - k1 F1| / sqrt(k2 F2 / n) <= Z_MAX``;
* variance z-score ``|s2 - k2 F2| / sqrt((k4 F4 + 2 (k2 F2)^2) / n) <= Z_MAX``;
* at every grid frequency, the real and imaginary parts of the empirical
  characteristic function lie within ``hoeffding_radius + bias_allowance``
  of the oracle ``exp(phi_out(y))``.

``k_j`` are the cumulants of the driving law at time 1 and ``F_j`` the
closed-form kernel moments ``int f^j dtau``.  Under a correct sampler
each z-score is close to standard normal, and ``Z_MAX`` is its two-sided
1e-9 quantile.  The ecf parts are means of values in [-1, 1], so
Hoeffding's inequality bounds the chance that any of the ``2 G`` parts
leaves its radius by ``ECF_DELTA`` = 1e-9, whatever the law.  So a correct
sample is rejected with chance at most about 3e-9.
The allowance covers the sampler's left-point discretization, which
moves the exponent by at most ``step * |y| * E|X|``-sized amounts; it is
``2 * step * (1 + |y|)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Z_MAX = 6.11  # 2 * P(Z > 6.11) = 1.0e-9
ECF_DELTA = 1e-9
MESH_STEP = 1e-3


@dataclass(frozen=True)
class McCheck:
    ok: bool
    z_mean: float
    z_var: float
    ecf_excess: float  # worst ecf deviation minus its allowed radius

    def describe(self) -> str:
        return (
            f"z_mean={self.z_mean:.2f} z_var={self.z_var:.2f} "
            f"ecf_excess={self.ecf_excess:.4f}"
        )


def hoeffding_radius(n: int, parts: int, delta: float = ECF_DELTA) -> float:
    """Radius r with P(any of ``parts`` means of [-1, 1] values strays > r) <= delta."""
    return math.sqrt(2.0 * math.log(2.0 * parts / delta) / n)


def check_sample(samples, moments: dict, grid, target_cf, step: float = MESH_STEP) -> McCheck:
    """Check a 1-d sample against oracle moments and characteristic function.

    ``moments`` holds the oracle mean, variance and fourth cumulant of X
    under keys ``mean``, ``var``, ``k4``; ``target_cf`` the oracle
    ``exp(phi_out(y))`` at each grid frequency.
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    n = x.size
    mean, var, k4 = moments["mean"], moments["var"], moments["k4"]
    z_mean = abs(x.mean() - mean) / math.sqrt(var / n)
    z_var = abs(x.var(ddof=1) - var) / math.sqrt((k4 + 2.0 * var * var) / n)
    y = np.asarray(grid, dtype=float).reshape(-1)
    phases = np.outer(x, y)
    emp = np.cos(phases).mean(axis=0) + 1j * np.sin(phases).mean(axis=0)
    target = np.asarray(target_cf, dtype=complex)
    radius = hoeffding_radius(n, 2 * y.size) + 2.0 * step * (1.0 + np.abs(y))
    dev = np.maximum(np.abs(emp.real - target.real), np.abs(emp.imag - target.imag))
    excess = float(np.max(dev - radius))
    ok = z_mean <= Z_MAX and z_var <= Z_MAX and excess <= 0.0
    return McCheck(ok=ok, z_mean=float(z_mean), z_var=float(z_var), ecf_excess=excess)
