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


def to_points(columns: dict) -> list[dict]:
    """Named columns of equal length as report points, one per row, keys
    in column order: a complex value becomes ``[re, im]``, a row of a 2-d
    column a list, and a float, an int or ``None`` stays as it is."""
    cells = [
        np.stack([c.real, c.imag], axis=-1).tolist() if np.iscomplexobj(c) else c.tolist()
        for c in map(np.asarray, columns.values())
    ]
    return [dict(zip(columns, row)) for row in zip(*cells)]


def grid_check(
    identity: str,
    lhs: np.ndarray,
    rhs: np.ndarray,
    grid: np.ndarray,
    tol: float,
    beta: Optional[float] = None,
    notes: Sequence[str] = (),
    columns: Optional[dict] = None,
) -> VerificationReport:
    """Compare two sides' values on the grid ``(n, dim)`` pointwise; each
    of ``columns`` adds its values to the points after the difference."""
    diffs = np.abs(lhs - rhs)
    worst = float(diffs.max(initial=0.0))
    return VerificationReport(
        identity=identity,
        grid_max_abs=worst,
        passed=worst < tol,
        beta=beta,
        tolerance=tol,
        metric="abs_diff",
        points=to_points({"y": grid, "lhs": lhs, "rhs": rhs, "abs_diff": diffs, **(columns or {})}),
        notes=list(notes),
    )


@dataclass(frozen=True)
class Identity:
    """One identity, declared as data: a row of the identity table.

    ``checks(mu, beta)`` builds the sub-checks from the mapping and core
    operators, as ``(lhs, rhs, notes)`` with two measures per side; an lhs
    given as a tuple of measures is their convolution, its terms summed
    in order, and a fourth entry ``{column: i}`` adds lhs term ``i``'s
    values to every point.  ``mc`` names the random integral a Monte Carlo
    sub-check samples and the law ``(mu, beta) -> measure`` it is tested
    against.  ``index`` fixes the mapping index of a row that reads no
    beta, and ``reads`` names the other inputs, ``grid`` and ``u``, that the
    row reads.  ``run`` reaches a separate check instead,
    ``(mu, beta, grid, u) -> report``.
    """

    name: str
    tol: Optional[float] = None
    checks: Optional[Callable[[IdMeasure, float], list]] = None
    mc: Optional[tuple] = None
    index: Optional[float] = None
    reads: tuple = ("grid",)
    run: Optional[Callable] = None

    def __call__(self, mu: IdMeasure, beta: float, grid=None) -> list[VerificationReport]:
        """Each sub-check on the grid, every measure read once, the rhs
        before the lhs: an rhs that commits a shared input's rays lets the
        lhs answer from their fits (cor1b's round trip), and no side is
        rewritten."""
        b = check_beta(beta)
        grid = np.asarray(default_grid(mu.dim) if grid is None else grid, dtype=float)
        grid = grid.reshape(-1, mu.dim)
        reports = []
        for lhs, rhs, notes, *columns in self.checks(mu, b):
            rhs_vals = rhs.exponent(grid)
            terms = [t.exponent(grid) for t in (lhs if isinstance(lhs, tuple) else (lhs,))]
            named = {col: terms[i] for col, i in (columns[0] if columns else {}).items()}
            reports.append(grid_check(
                self.name, sum(terms[1:], terms[0]), rhs_vals, grid, self.tol,
                beta=b, notes=notes, columns=named,
            ))
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
    z = measure.exponent(grid)
    return VerificationReport(
        identity=identity,
        grid_max_abs=0.0,
        passed=True,
        beta=beta,
        points=to_points({"y": grid, "re": z.real, "im": z.imag}),
        notes=list(notes),
    )


def validate_report(doc: dict) -> None:
    """Raise ``jsonschema.ValidationError`` when a report is malformed."""
    _report_validator().validate(doc)


@functools.cache
def _report_validator():
    """The shipped schema's validator, checked against its meta-schema once."""
    from jsonschema.validators import validator_for
    text = resources.files("idcalc").joinpath("report.schema.json").read_text("utf-8")
    cls = validator_for(schema := json.loads(text))
    cls.check_schema(schema)
    return cls(schema)
