"""Verification reports and their JSON serialization."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Optional, Sequence

import numpy as np

from .core import IdMeasure, default_grid
from .mappings import check_beta

__all__ = [
    "Identity",
    "VerificationReport",
    "exponent_report",
    "grid_check",
    "report_schema",
    "validate_report",
]


@dataclass
class VerificationReport:
    """Outcome of one identity check over an evaluation grid.

    ``grid_max_abs`` is the maximum discrepancy in the report metric
    (absolute exponent difference for quadrature checks, z-score for
    Monte Carlo checks).
    """

    identity: str
    grid_max_abs: float
    passed: bool
    beta: Optional[float] = None
    tolerance: Optional[float] = None
    metric: str = "abs_diff"
    points: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "beta": self.beta,
            "grid_max_abs": float(self.grid_max_abs),
            "pass": bool(self.passed),
            "tolerance": self.tolerance,
            "metric": self.metric,
            "points": self.points,
            "notes": list(self.notes),
            "extra": self.extra,
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        beta = f" beta={self.beta:g}" if self.beta is not None else ""
        return (
            f"[{status}] {self.identity}{beta}: max {self.metric} = "
            f"{self.grid_max_abs:.3e} (tol {self.tolerance})"
        )


def grid_check(
    identity: str,
    lhs: Callable[[np.ndarray], np.ndarray],
    rhs: Callable[[np.ndarray], np.ndarray],
    grid: Sequence[np.ndarray],
    tol: float,
    beta: Optional[float] = None,
    notes: Sequence[str] = (),
) -> VerificationReport:
    """Compare two exponent evaluators pointwise over a grid.

    Each side maps the whole grid ``(n, dim)`` to ``(n,)`` values in one
    call; a side given as an array is taken as its values on the grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:
        grid = grid.reshape(-1, 1)
    lhs_vals, rhs_vals = (
        side if isinstance(side, np.ndarray) else side(grid) for side in (lhs, rhs)
    )
    diffs = np.abs(lhs_vals - rhs_vals)
    worst = float(diffs.max(initial=0.0))
    points = [
        {
            "y": [float(v) for v in y],
            "lhs": [float(a.real), float(a.imag)],
            "rhs": [float(b.real), float(b.imag)],
            "abs_diff": float(d),
        }
        for y, a, b, d in zip(grid, lhs_vals, rhs_vals, diffs)
    ]
    return VerificationReport(
        identity=identity,
        grid_max_abs=worst,
        passed=worst < tol,
        beta=beta,
        tolerance=tol,
        metric="abs_diff",
        points=points,
        notes=list(notes),
    )


@dataclass(frozen=True)
class Identity:
    """One identity, declared as data: a row of the identity table.

    ``checks(mu, beta)`` builds the sub-checks from the mapping and core
    operators, as ``(lhs, rhs, notes)`` with two measures per side; a
    fourth entry ``{column: measure}`` adds each measure's exponent to
    every point.  ``mc`` names the random integral a Monte Carlo sub-check
    samples and the law ``(mu, beta) -> measure`` it is tested against.
    ``index`` fixes the mapping index of a row that reads no beta.  ``run``
    reaches a separate check instead, ``(mu, beta, grid, u) -> report``.
    """

    name: str
    tol: Optional[float] = None
    checks: Optional[Callable[[IdMeasure, float], list]] = None
    mc: Optional[tuple] = None
    index: Optional[float] = None
    run: Optional[Callable] = None

    def __call__(self, mu: IdMeasure, beta: float, grid=None) -> list[VerificationReport]:
        """Each sub-check on the grid, its rhs evaluated before its lhs: an
        rhs that commits a shared input's rays lets the lhs answer from
        their fits (cor1b's round trip), and no side is rewritten."""
        b = check_beta(beta)
        grid = np.asarray(default_grid(mu.dim) if grid is None else grid, dtype=float)
        grid = grid.reshape(-1, mu.dim)
        reports = []
        for lhs, rhs, notes, *columns in self.checks(mu, b):
            rhs_vals = rhs.exponent(grid)
            report = grid_check(
                self.name, lhs.exponent, rhs_vals, grid, self.tol, beta=b, notes=notes
            )
            for col, measure in (columns[0] if columns else {}).items():
                for pt, z in zip(report.points, measure.exponent(grid)):
                    pt[col] = [float(z.real), float(z.imag)]
            reports.append(report)
        return reports


def exponent_report(
    identity: str,
    measure: IdMeasure,
    grid: np.ndarray,
    beta: Optional[float] = None,
    notes: Sequence[str] = (),
) -> VerificationReport:
    """A measure's exponent on the grid, evaluated as one batch.  It
    compares nothing, so it passes whenever the evaluation succeeds."""
    points = [
        {"y": [float(v) for v in y], "re": float(z.real), "im": float(z.imag)}
        for y, z in zip(grid, measure.exponent(grid))
    ]
    return VerificationReport(
        identity=identity,
        grid_max_abs=0.0,
        passed=True,
        beta=beta,
        points=points,
        notes=list(notes),
    )


def report_schema() -> dict:
    """The JSON schema every emitted report must validate against."""
    text = resources.files("idcalc").joinpath("report.schema.json").read_text("utf-8")
    return json.loads(text)


def validate_report(doc: dict) -> None:
    """Raise ``jsonschema.ValidationError`` when a report is malformed."""
    _report_validator().validate(doc)


@functools.cache
def _report_validator():
    """The schema's validator, checked against its meta-schema once."""
    from jsonschema.validators import validator_for
    cls = validator_for(schema := report_schema())
    cls.check_schema(schema)
    return cls(schema)
