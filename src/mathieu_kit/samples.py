"""Shared sample containers for solutions of second-order linear ODEs, the chain rule
of an e^{-rt} prefactor (decayed), and the two rules for numbers.  One admits a number
from outside: a finite Python or numpy int, float or complex (a real field refuses a
complex value, even one with a zero imaginary part).  representable refuses a derived
number that leaves double precision, with a RangeLimitError naming it."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, RangeLimitError

# the most points a grid may hold (a CLI job's --t0/--t1/--dt, residual's --n or
# sweep's nh x ntheta, interior_grid's n): one float column of it takes 80 MB and
# a job holds several, so a larger grid would exhaust memory before it answered
MAX_GRID_POINTS = 10**7

_REAL_TYPES = (int, float, np.integer, np.floating)
_NUMBER_TYPES = _REAL_TYPES + (complex, np.complexfloating)


def real_number(name: str, value) -> float:
    """value as a finite float, or InvalidParameterError naming the field."""
    return _admit(name, value, _REAL_TYPES, "real", float)


def complex_number(name: str, value) -> complex:
    """value as a finite complex, or InvalidParameterError naming the field."""
    return _admit(name, value, _NUMBER_TYPES, "a number", complex)


def _admit(name: str, value, types: tuple, what: str, kind: type):
    if not isinstance(value, types):
        raise InvalidParameterError(f"{name} must be {what}, got {value!r}")
    try:
        number = kind(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not cmath.isfinite(number):
        raise InvalidParameterError(f"{name} must be finite, got {number!r}")
    return number


def representable(name: str, formula):
    """formula(), or RangeLimitError naming it when it leaves double precision: an
    overflow, a divisor that underflowed to 0, or any inf or NaN in what it returns
    (a scalar, a tuple or an array)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            value = formula()
        except (OverflowError, ZeroDivisionError):
            value = math.inf
    for part in value if isinstance(value, tuple) else (value,):
        if not (np.isfinite(part).all() if isinstance(part, np.ndarray) else cmath.isfinite(part)):
            raise RangeLimitError(f"{name} leaves double precision")
    return value


def admit_fields(instance, admit, *names: str) -> None:
    """Set each named field of a frozen dataclass to admit(name, its value)."""
    for name in names:
        object.__setattr__(instance, name, admit(name, getattr(instance, name)))


def as_grid(points, name: str = "grid", kind: type = float) -> np.ndarray:
    """points as a float array, checked to be real numbers, 1-d, non-empty and finite
    (with kind=complex, a complex array of numbers, such as a series' coefficients)."""
    try:
        grid = np.asarray(points)
    except ValueError:  # nested sequences of unequal lengths
        raise InvalidParameterError(f"{name} must be a non-empty 1-d sequence") from None
    what = "real numbers" if kind is float else "numbers"
    if grid.dtype.kind not in ("biuf" if kind is float else "biufc"):  # text, None, complex if real
        raise InvalidParameterError(f"{name} must be {what}, got {grid.dtype} values")
    grid = grid.astype(kind, copy=False)
    if grid.ndim != 1 or len(grid) == 0:
        raise InvalidParameterError(f"{name} must be a non-empty 1-d sequence")
    if not np.isfinite(grid).all():
        raise InvalidParameterError(f"{name} must be finite")
    return grid


def decayed(r: float, t, y, dy, d2y) -> tuple:
    """e^{-r t} y with its first two derivatives, from y, y' and y'' at t."""
    pref = np.exp(-r * t)
    return pref * y, pref * (dy - r * y), pref * (d2y - 2.0 * r * dy + r * r * y)


@dataclass(frozen=True)
class SolutionSample:
    """Value and first two derivatives of a scalar solution at one time."""

    t: float
    y: complex
    dy: complex
    d2y: complex


@dataclass(frozen=True)
class TimeSeries:
    """Solution sampled on a finite, strictly increasing grid (struct-of-arrays), every sample finite."""

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
        finite = np.isfinite(self.y) & np.isfinite(self.dy) & np.isfinite(self.d2y)
        if not finite.all():
            raise RangeLimitError(
                f"the sampled solution overflows at t = {self.grid[np.argmin(finite)]:.6g}")

    def __getitem__(self, i: int) -> SolutionSample:
        return SolutionSample(
            float(self.grid[i]), complex(self.y[i]), complex(self.dy[i]), complex(self.d2y[i])
        )
