"""Named measure families and the JSON measure-spec format.

The full JSON form mirrors the triplet:

    {"dim": 1, "shift": [0.0], "cov": [[1.0]],
     "spectral": {"rays": [{"direction": [1.0],
                            "atoms": [{"r": 2.0, "w": 1.0}],
                            "densities": [{"lo": 0.0, "hi": 1.0,
                                           "kind": "power",
                                           "coef": 1.0, "exponent": -1.5}]}]}}

Shorthand families:

    {"family": "gaussian", "var": 1.0}
    {"family": "poisson", "rate": 1.0, "jump": 2.0}
    {"family": "gamma", "shape": 1.0, "rate": 1.0}

Each family constructor installs a closed-form exponent, evaluated on
whole batches of frequencies, next to the triplet; agreement of the two
routes is covered by the test suite.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    IdMeasure,
    LevyTriplet,
    RadialAtom,
    RadialComponent,
    SpectralMeasure,
    batched_exponent,
    exp_segment,
    power_segment,
)
from .errors import ValidationError

__all__ = [
    "gaussian",
    "dirac",
    "poisson",
    "gamma",
    "measure_from_spec",
    "load_measure",
]


def gaussian(var: float = 1.0, dim: int = 1, cov=None, shift=None) -> IdMeasure:
    """Centered Gaussian law; ``cov`` overrides the isotropic ``var``."""
    S = np.asarray(cov, dtype=float) if cov is not None else var * np.eye(dim)
    dim = S.shape[0]
    a = np.zeros(dim) if shift is None else np.asarray(shift, dtype=float)
    triplet = LevyTriplet(a, S)

    @batched_exponent
    def phi(Y, a=a, S=S):
        return -0.5 * ((Y @ S) * Y).sum(axis=1) + 1j * (Y @ a)

    return IdMeasure.from_triplet(
        triplet, exponent=phi, log_moment_known=True, label=f"gaussian(var={var:g})"
    )


def dirac(shift) -> IdMeasure:
    """Point mass at ``shift``; the identity for convolution is dirac(0)."""
    a = np.atleast_1d(np.asarray(shift, dtype=float))
    triplet = LevyTriplet(a, np.zeros((a.size, a.size)))
    return IdMeasure.from_triplet(
        triplet,
        exponent=batched_exponent(lambda Y: 1j * (Y @ a)),
        log_moment_known=True,
        label=f"dirac({np.array2string(a, precision=4)})",
    )


def poisson(rate: float = 1.0, jump=2.0) -> IdMeasure:
    """Compound Poisson with a single deterministic jump vector."""
    if not (math.isfinite(rate) and rate > 0):
        raise ValidationError(f"poisson rate must be > 0, got {rate}")
    x0 = np.atleast_1d(np.asarray(jump, dtype=float))
    r = float(np.linalg.norm(x0))
    if r <= 0:
        raise ValidationError("poisson jump must be nonzero")
    direction = x0 / r
    M = SpectralMeasure((RadialComponent(direction, atoms=(RadialAtom(r, rate),)),))
    # no extra drift: the compensator of a small jump is cancelled in the shift
    a = rate * x0 if r <= 1.0 else np.zeros_like(x0)
    triplet = LevyTriplet(a, np.zeros((x0.size, x0.size)), M)

    @batched_exponent
    def phi(Y, lam=rate, x0=x0):
        t = Y @ x0
        return lam * ((np.cos(t) - 1.0) + 1j * np.sin(t))

    return IdMeasure.from_triplet(
        triplet, exponent=phi, log_moment_known=True,
        label=f"poisson(rate={rate:g}, jump={r:g})",
    )


def gamma(shape: float = 1.0, rate: float = 1.0) -> IdMeasure:
    """Gamma law on the positive half line (dimension 1).

    Spectral density ``shape * exp(-rate*r)/r`` on (0, inf); the shift
    ``shape*(1-exp(-rate))/rate`` restores the plain gamma law under the
    unit-ball compensator convention.
    """
    if not (math.isfinite(shape) and shape > 0):
        raise ValidationError(f"gamma shape must be > 0, got {shape}")
    if not (math.isfinite(rate) and rate > 0):
        raise ValidationError(f"gamma rate must be > 0, got {rate}")
    seg = exp_segment(coef=shape, exponent=-1.0, rate=rate, lo=0.0, hi=math.inf)
    M = SpectralMeasure((RadialComponent(np.array([1.0]), densities=(seg,)),))
    a = np.array([shape * (1.0 - math.exp(-rate)) / rate])
    triplet = LevyTriplet(a, np.zeros((1, 1)), M)

    @batched_exponent
    def phi(Y, k=shape, lam=rate):
        # principal log is safe: Re(1 - i y/lam) = 1 > 0
        return -k * np.log(1.0 - 1j * Y[:, 0] / lam)

    return IdMeasure.from_triplet(
        triplet, exponent=phi, log_moment_known=True,
        label=f"gamma({shape:g},{rate:g})",
    )


# ---------------------------------------------------------------------------
# JSON measure specs
# ---------------------------------------------------------------------------


def _segment_from_spec(d: dict):
    kind = d.get("kind", "power")
    lo = float(d.get("lo", 0.0))
    hi = float(d["hi"]) if d.get("hi") not in (None, "inf") else math.inf
    if kind == "power":
        return power_segment(float(d["coef"]), float(d["exponent"]), lo, hi)
    if kind == "exp":
        return exp_segment(
            float(d["coef"]), float(d.get("exponent", 0.0)), float(d["rate"]), lo, hi
        )
    raise ValidationError(f"unknown density kind {kind!r}")


def _spectral_from_spec(d: dict) -> SpectralMeasure:
    rays = []
    for ray in d.get("rays", []):
        atoms = tuple(RadialAtom(float(a["r"]), float(a["w"])) for a in ray.get("atoms", []))
        densities = tuple(_segment_from_spec(s) for s in ray.get("densities", []))
        rays.append(RadialComponent(np.asarray(ray["direction"], dtype=float), atoms, densities))
    return SpectralMeasure(tuple(rays))


def measure_from_spec(spec: dict, label: Optional[str] = None) -> IdMeasure:
    """Build a measure from a parsed JSON spec (full or family form)."""
    if not isinstance(spec, dict):
        raise ValidationError("measure spec must be a JSON object")
    family = spec.get("family")
    if family is not None:
        if family == "gaussian":
            return gaussian(var=float(spec.get("var", 1.0)))
        if family == "poisson":
            return poisson(rate=float(spec.get("rate", 1.0)), jump=spec.get("jump", 2.0))
        if family == "gamma":
            return gamma(shape=float(spec.get("shape", 1.0)), rate=float(spec.get("rate", 1.0)))
        raise ValidationError(f"unknown family {family!r}")
    if "dim" not in spec:
        raise ValidationError("measure spec needs 'dim' or 'family'")
    dim = int(spec["dim"])
    a = np.asarray(spec.get("shift", np.zeros(dim)), dtype=float)
    S = np.asarray(spec.get("cov", np.zeros((dim, dim))), dtype=float)
    M = _spectral_from_spec(spec.get("spectral", {}))
    triplet = LevyTriplet(a, S, M)
    return IdMeasure.from_triplet(triplet, label=label or "measure-spec")


def load_measure(path) -> IdMeasure:
    """Load a measure spec from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(
            f"malformed JSON in {path}: {e.msg} at line {e.lineno} column {e.colno}"
        ) from e
    return measure_from_spec(spec, label=Path(path).stem)
