"""Per-layer probes of the traced run, the same in every workload.

* ``mappings.depth{1..4}``: ``j_beta`` (beta 1) nested 1 to 4 times on
  the gamma(1, 1) exponent, evaluated at y = 1: leaf calls per value and
  ms per value.  The measure is built before counting starts, so
  construction is not included; it carries no triplet, since smearing
  and validating the triplet at every level takes minutes at depth 4.
* ``core.char_exponent_us.{atom,power,exp,gauss}``: microseconds per
  ``char_exponent`` call on a triplet holding one kind of component, over
  y in {0.5, 1, 2}.
"""

from __future__ import annotations

import math
import time

DEPTHS = (1, 2, 3, 4)
PROBE_Y = 1.0
MIN_PROBE_S = 0.2


def _per_call(fn, min_s: float = MIN_PROBE_S) -> float:
    """Seconds per call of ``fn``, repeated until ``min_s`` has passed."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return elapsed / calls


def depth_probe() -> dict:
    import idcalc
    import numpy as np

    y = np.array([PROBE_Y])
    gamma = idcalc.gamma(1.0, 1.0)
    out = {}
    for depth in DEPTHS:
        # exponent-only, so that j_beta does not also smear the triplet
        counted = idcalc.IdMeasure.from_exponent(1, gamma.exponent, log_moment_known=True)
        plain = idcalc.IdMeasure.from_exponent(1, gamma.exponent, log_moment_known=True)
        calls = [0]
        leaf = counted.exponent

        def counting(v, leaf=leaf):
            calls[0] += 1
            return leaf(v)

        object.__setattr__(counted, "exponent", counting)
        for _ in range(depth):
            counted = idcalc.j_beta(counted, 1.0)
            plain = idcalc.j_beta(plain, 1.0)
        calls[0] = 0
        counted.exponent(y)
        out[f"mappings.depth{depth}.leaf_calls_per_value"] = (calls[0], "count")
        out[f"mappings.depth{depth}.ms_per_value"] = (
            1e3 * _per_call(lambda: plain.exponent(y)), "ms")
    return out


def char_exponent_probe() -> dict:
    import idcalc
    import numpy as np
    from idcalc import LevyTriplet, RadialAtom, RadialComponent, SpectralMeasure

    def ray(**kw):
        return SpectralMeasure((RadialComponent(np.array([1.0]), **kw),))

    triplets = {
        "atom": LevyTriplet([0.0], [[0.0]], ray(atoms=(RadialAtom(0.5, 0.7), RadialAtom(2.0, 0.4)))),
        "power": LevyTriplet([0.0], [[0.0]], ray(densities=(idcalc.power_segment(0.8, -1.2, 0.0, 1.5),))),
        "exp": LevyTriplet([0.0], [[0.0]],
                           ray(densities=(idcalc.exp_segment(0.6, -0.5, 1.5, 0.0, math.inf),))),
        "gauss": LevyTriplet([0.0], [[0.5]]),
    }
    ys = [np.array([v]) for v in (0.5, 1.0, 2.0)]
    out = {}
    for kind, trip in triplets.items():
        per = _per_call(lambda: [idcalc.char_exponent(trip, y) for y in ys]) / len(ys)
        out[f"core.char_exponent_us.{kind}"] = (1e6 * per, "us")
    return out


def run_all() -> dict:
    return {**depth_probe(), **char_exponent_probe()}
