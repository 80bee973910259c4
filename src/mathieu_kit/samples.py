"""Shared sample containers for solutions of second-order linear ODEs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, RangeLimitError


def as_grid(points, name: str = "grid") -> np.ndarray:
    """points as a float array, checked to be 1-d, non-empty and finite."""
    grid = np.asarray(points, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise InvalidParameterError(f"{name} must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(grid)):
        raise InvalidParameterError(f"{name} must be finite")
    return grid


def require_finite(what: str, grid: np.ndarray, y, dy, d2y) -> None:
    """Raise RangeLimitError naming the first grid point where y, y' or y'' is not finite."""
    finite = np.isfinite(y) & np.isfinite(dy) & np.isfinite(d2y)
    if not finite.all():
        raise RangeLimitError(f"{what} overflows at t = {grid[np.argmin(finite)]:.6g}")


@dataclass(frozen=True)
class SolutionSample:
    """Value and first two derivatives of a scalar solution at one time."""

    t: float
    y: complex
    dy: complex
    d2y: complex


@dataclass(frozen=True)
class TimeSeries:
    """Solution sampled on a finite, strictly increasing grid (struct-of-arrays)."""

    grid: np.ndarray
    y: np.ndarray
    dy: np.ndarray
    d2y: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        n = len(self.grid)
        if not (len(self.y) == len(self.dy) == len(self.d2y) == n):
            raise InvalidParameterError("grid and sample arrays must have equal length")
        if not np.all(np.isfinite(self.grid)):
            raise InvalidParameterError("grid must be finite")
        if n > 1 and not np.all(np.diff(self.grid) > 0):
            raise InvalidParameterError("grid must be strictly increasing")

    def __getitem__(self, i: int) -> SolutionSample:
        return SolutionSample(
            float(self.grid[i]), complex(self.y[i]), complex(self.dy[i]), complex(self.d2y[i])
        )
