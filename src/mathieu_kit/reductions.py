"""Changes of variables taking the catalogued source families to Mathieu form.

Each reduction states the target parameters (h, theta) of
w'' + (h - 2 theta cos 2z) w = 0, the variable map, and enough metadata for
pullback() to reconstruct a source-variable solution (with derivatives) from a
reduced-variable one, so the oracle can measure the source-equation residual
directly.

Each map is stated once: _source_time gives its t, dt/dz and d2t/dz2 at z, and
_BRANCHES each cosine map's principal branch (interior_grid's z-interval, the
t-interval pullback admits).  pullback applies the damped family's e^{-eta t/2m}
by samples.decayed, as the closed form does (rate 0 for the other families).

Families:

  damped     m y'' + eta y' + (k0 + k cos(omega t)) y = 0        tau = omega t / 2
  eq11       (1 - t^2) y'' - t y' + (2 a t^2 + b) y = 0          t = cos z
  eq13       2 t (t-1) y'' + (2t - 1) y' + (a t + b) y = 0       t = cos^2 z
  eq15       y'' + (a sin(lambda t) + b) y = 0                   lambda t = 2z + pi/2
  eq17-sin   y'' + (a sin^2 t + b) y = 0                         identity
  eq17-cos   y'' + (a cos^2 t + b) y = 0                         identity

The half-angle identities fix the eq17 signs (2 sin^2 t = 1 - cos 2t pulls the
cosine in with a minus, 2 cos^2 t = 1 + cos 2t with a plus), and the linear
map fixes eq15's (sin(lambda t) = cos 2z exactly); the stated mappings are the
ones under which the pullback residual actually vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .closed_form import DampedParams, homogeneous_ode
from .errors import InvalidParameterError, MapDomainError
from .floquet import GeneralParams
from .oracle import LinearODE, equation
from .samples import MAX_GRID_POINTS, TimeSeries, admit_fields, as_grid, decayed, real_number
from .samples import representable

FAMILIES = ("eq11", "eq13", "eq15", "eq17-sin", "eq17-cos", "damped")

MAP_COS = "t = cos z"
MAP_COS_SQ = "t = cos²z"
MAP_LINEAR = "λt = 2z + π/2"
MAP_RESCALE = "identity-time-rescale"

_DERIVATIVE_FLOOR = 1e-12

# each cosine map's principal branch: the z-interval interior_grid spans (5 %
# trimmed from both ends) and the open t-interval pullback's samples must lie in
_BRANCHES = {
    MAP_COS: ((0.05 * math.pi, 0.95 * math.pi), (-1.0, 1.0)),
    MAP_COS_SQ: ((0.05 * (math.pi / 2.0), 0.95 * (math.pi / 2.0)), (0.0, 1.0)),
}


@dataclass(frozen=True)
class ReductionInput:
    """Source-family selector with its coefficients.

    ``lam`` renders the lambda coefficient of the eq15 family (the word itself
    is reserved in Python).  ``params`` is required exactly for the damped
    family, where the coefficients live in a DampedParams instead of (a, b).
    """

    family: str
    a: float = 0.0
    b: float = 0.0
    lam: float = 0.0
    params: Optional[DampedParams] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameterError(
                f"unknown family {self.family!r}: expected one of {FAMILIES}"
            )
        admit_fields(self, real_number, "a", "b", "lam")
        if self.family == "eq15" and self.lam == 0.0:
            raise InvalidParameterError("eq15 requires a nonzero lambda coefficient")
        if (self.family == "damped") != (self.params is not None):
            raise InvalidParameterError(
                "params must be present exactly when family is 'damped'"
            )


@dataclass(frozen=True)
class ReductionResult:
    """Mathieu-form parameters plus the map data pullback() needs.

    time_scale is dt/dz of the affine part of the map (1.0 for the cosine
    maps, whose derivative is not constant); prefactor_rate is the exponential
    peeled off the damped family (0 elsewhere).
    """

    gp: GeneralParams
    variable_map: str
    prefactor_rate: float = 0.0
    time_scale: float = 1.0

    def __post_init__(self):
        admit_fields(self, real_number, "prefactor_rate", "time_scale")

    def to_source_time(self, z):
        """Forward map: reduced variable z (a real number or a 1-d array) -> source variable."""
        z = real_number("z", z) if np.ndim(z) == 0 else as_grid(z, "z")
        return _source_time(self, z)[0]


def damped_to_general(params: DampedParams) -> ReductionResult:
    """Peel off exp(-eta t / 2m) and rescale time to tau = omega t / 2.

    The remaining equation is Mathieu form with
    h = (4/omega^2)(k0/m - eta^2/(4 m^2)) and theta = -2k/(m omega^2); either
    beyond double precision raises RangeLimitError.
    """
    m, eta, omega = params.m, params.eta, params.omega
    h = representable("h = (4/omega^2)(k0/m - eta^2/(4 m^2))",
                      lambda: (4.0 / omega ** 2) * (params.k0 / m - eta ** 2 / (4.0 * m ** 2)))
    theta = representable("theta = -2k/(m omega^2)", lambda: -2.0 * params.k / (m * omega ** 2))
    return ReductionResult(
        gp=GeneralParams(h=h, theta=theta),
        variable_map=MAP_RESCALE,
        prefactor_rate=eta / (2.0 * m),
        time_scale=2.0 / omega,
    )


def reduce(inp: ReductionInput) -> ReductionResult:
    """Mathieu-form parameters for the selected source family.

    A derived quantity (h, theta, eq15's lambda^2) beyond double precision
    raises RangeLimitError that names it.
    """
    a, b = inp.a, inp.b
    if inp.family == "damped":
        return damped_to_general(inp.params)
    if inp.family == "eq11":
        return ReductionResult(gp=GeneralParams(h=a + b, theta=-a / 2.0), variable_map=MAP_COS)
    if inp.family == "eq13":
        return ReductionResult(gp=GeneralParams(h=-(a + 2.0 * b), theta=a / 2.0),
                               variable_map=MAP_COS_SQ)
    if inp.family == "eq15":
        lam = inp.lam
        # lam is nonzero, so a square of 0 has underflowed
        lam_sq = representable(f"lambda^2 = ({lam:g})^2", lambda: lam ** 2 or math.inf)
        h = representable("h = 4b/lambda^2", lambda: 4.0 * b / lam_sq)
        theta = representable("theta = -2a/lambda^2", lambda: -2.0 * a / lam_sq)
        return ReductionResult(gp=GeneralParams(h=h, theta=theta), variable_map=MAP_LINEAR,
                               time_scale=2.0 / lam)
    # eq17: cos 2t enters with opposite signs for the two squared carriers
    theta = a / 4.0 if inp.family == "eq17-sin" else -a / 4.0
    return ReductionResult(gp=GeneralParams(h=b + a / 2.0, theta=theta), variable_map=MAP_RESCALE)


def source_ode(inp: ReductionInput) -> LinearODE:
    """The source family as a LinearODE in its own variable (normal form)."""
    a, b = inp.a, inp.b
    if inp.family == "damped":
        return homogeneous_ode(inp.params)
    # rational coefficients read an array as they read a float
    if inp.family == "eq11":
        return equation(p=lambda t, xp=None: -t / (1.0 - t * t),
                        q=lambda t, xp=None: (2.0 * a * t * t + b) / (1.0 - t * t))
    if inp.family == "eq13":
        return equation(p=lambda t, xp=None: (2.0 * t - 1.0) / (2.0 * t * (t - 1.0)),
                        q=lambda t, xp=None: (a * t + b) / (2.0 * t * (t - 1.0)))
    if inp.family == "eq15":
        lam = inp.lam
        return equation(q=lambda t, xp=math: a * xp.sin(lam * t) + b)
    # squared as s * s, exactly as numpy's ** 2 squares; libm's pow behind a
    # scalar ** 2 is not correctly rounded
    if inp.family == "eq17-sin":
        return equation(q=lambda t, xp=math: a * _square(xp.sin(t)) + b)
    return equation(q=lambda t, xp=math: a * _square(xp.cos(t)) + b)


def _square(s: float) -> float:
    return s * s


def _source_time(result: ReductionResult, z):
    """t, dt/dz and d2t/dz2 of the variable map at z."""
    if result.variable_map == MAP_COS:
        return np.cos(z), -np.sin(z), -np.cos(z)
    if result.variable_map == MAP_COS_SQ:
        return np.cos(z) ** 2, -np.sin(2.0 * z), -2.0 * np.cos(2.0 * z)
    if result.variable_map == MAP_LINEAR:
        t = (2.0 * z + math.pi / 2.0) / (2.0 / result.time_scale)
    else:
        t = result.time_scale * z
    return t, np.full_like(z, result.time_scale), np.zeros_like(z)


def pullback(result: ReductionResult, z_solution: TimeSeries) -> TimeSeries:
    """Transport a reduced-variable solution back to the source variable.

    A solution of general_mathieu_ode(result.gp) comes back as one of
    source_ode(inp), for the inp that reduce() took to result.
    Derivatives are chained through the inverse map analytically; samples at
    points where the map derivative vanishes, or outside a cosine map's
    principal branch, raise MapDomainError, since the chain rule degenerates
    there.
    """
    z = as_grid(z_solution.grid)
    w = np.asarray(z_solution.y, dtype=complex)
    wz = np.asarray(z_solution.dy, dtype=complex)
    wzz = np.asarray(z_solution.d2y, dtype=complex)

    t, dtdz, d2tdz2 = _source_time(result, z)
    if np.any(np.abs(dtdz) < _DERIVATIVE_FLOOR):
        bad = float(z[np.argmin(np.abs(dtdz))])
        raise MapDomainError(
            f"map derivative vanishes at z = {bad:.6g}: sample outside the usable domain"
        )
    if result.variable_map in _BRANCHES:
        lo, hi = _BRANCHES[result.variable_map][1]
        if np.any((t <= lo) | (t >= hi)):
            raise MapDomainError(f"{result.variable_map} samples must satisfy {lo:g} < t < {hi:g}")
    # t = f(z): y_t = w_z / f',  y_tt = w_zz / f'^2 - w_z f'' / f'^3
    with np.errstate(over="ignore", invalid="ignore"):  # refused by TimeSeries
        yt = wz / dtdz
        ytt = wzz / dtdz ** 2 - wz * d2tdz2 / dtdz ** 3
        y, yt, ytt = decayed(result.prefactor_rate, t, w, yt, ytt)

    order = np.argsort(t)
    return TimeSeries(
        grid=np.ascontiguousarray(t[order]),
        y=np.ascontiguousarray(y[order]),
        dy=np.ascontiguousarray(yt[order]),
        d2y=np.ascontiguousarray(ytt[order]),
    )


def interior_grid(result: ReductionResult, n: int = 201, span: float = 4.0 * math.pi) -> np.ndarray:
    """Reduced-variable verification grid avoiding singular map points.

    Cosine maps get the interior of their principal branch with 5 % trimmed
    from both ends; unrestricted maps get [0, span].
    """
    if not (isinstance(n, (int, np.integer)) and 1 <= n <= MAX_GRID_POINTS):
        raise InvalidParameterError(f"n must be an int from 1 to {MAX_GRID_POINTS:,}, got {n!r}")
    span = real_number("span", span)
    if span <= 0.0:
        raise InvalidParameterError(f"span must be positive, got {span!r}")
    lo, hi = _BRANCHES[result.variable_map][0] if result.variable_map in _BRANCHES else (0.0, span)
    return np.linspace(lo, hi, n)
