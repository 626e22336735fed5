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
        exponent=lambda Y: 1j * (Y @ a),
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


_array = lambda v: np.asarray(v, dtype=float)


def _field(d, key: str, where: str, default=None, cast=float):
    """``cast(d[key])``, or ``default`` when absent; a missing required field
    or a value of the wrong type raises a :class:`ValidationError` that
    names ``where`` and the field."""
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be a JSON object, got {d!r}")
    if key not in d and default is None:
        raise ValidationError(f"{where} needs the field {key!r}")
    try:
        return cast(d[key]) if key in d else default
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: field {key!r} has the wrong type: {d[key]!r}") from None


def _segment_from_spec(d, where: str):
    kind = _field(d, "kind", where, "power", str)
    if kind not in ("power", "exp"):
        raise ValidationError(f"{where}: unknown density kind {kind!r}")
    args = [_field(d, "coef", where), _field(d, "exponent", where, 0.0 if kind == "exp" else None)]
    if kind == "exp":
        args.append(_field(d, "rate", where))
    lo = _field(d, "lo", where, 0.0)
    hi = _field(d, "hi", where, math.inf, lambda v: math.inf if v is None else float(v))
    try:
        return (power_segment if kind == "power" else exp_segment)(*args, lo, hi)
    except ValidationError as e:  # a value the segment rejects
        raise ValidationError(f"{where}: {e}") from None


def _spectral_from_spec(d) -> SpectralMeasure:
    rays = []
    for i, ray in enumerate(_field(d, "rays", "spectral", [], list)):
        where = f"ray {i}"
        atoms = tuple(RadialAtom(*(_field(a, key, f"{where} atom {k}") for key in "rw"))
                      for k, a in enumerate(_field(ray, "atoms", where, [], list)))
        densities = tuple(_segment_from_spec(s, f"{where} density {j}")
                          for j, s in enumerate(_field(ray, "densities", where, [], list)))
        direction = _field(ray, "direction", where, cast=_array)
        rays.append(RadialComponent(direction, atoms, densities))
    return SpectralMeasure(tuple(rays))


def measure_from_spec(spec: dict, label: Optional[str] = None) -> IdMeasure:
    """Build a measure from a parsed JSON spec (full or family form)."""
    if not isinstance(spec, dict):
        raise ValidationError("measure spec must be a JSON object")
    family = spec.get("family")
    if family is not None:
        num = lambda key, default, cast=float: _field(spec, key, f"{family} spec", default, cast)
        if family == "gaussian":
            return gaussian(var=num("var", 1.0))
        if family == "poisson":
            return poisson(rate=num("rate", 1.0), jump=num("jump", 2.0, _array))
        if family == "gamma":
            return gamma(shape=num("shape", 1.0), rate=num("rate", 1.0))
        raise ValidationError(f"unknown family {family!r}")
    if "dim" not in spec:
        raise ValidationError("measure spec needs 'dim' or 'family'")
    dim = _field(spec, "dim", "measure spec", cast=int)
    if dim < 1:
        raise ValidationError(f"measure spec: field 'dim' must be >= 1, got {dim}")
    a = _field(spec, "shift", "measure spec", np.zeros(dim), _array)
    S = _field(spec, "cov", "measure spec", np.zeros((dim, dim)), _array)
    M = _spectral_from_spec(_field(spec, "spectral", "measure spec", {}, dict))
    triplet = LevyTriplet(a, S, M)
    return IdMeasure.from_triplet(triplet, label=label or "measure-spec")


def load_measure(path) -> IdMeasure:
    """Load a measure spec from a JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read measure spec {path}: {e}") from None
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(
            f"malformed JSON in {path}: {e.msg} at line {e.lineno} column {e.colno}"
        ) from e
    return measure_from_spec(spec, label=Path(path).stem)
