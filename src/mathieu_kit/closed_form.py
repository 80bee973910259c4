"""Closed-form cylinder-function solutions of the damped modulated oscillator.

The homogeneous equation

    m y'' + eta y' + (k0 + k cos(omega t)) y = 0

splits, when the cosine is replaced by a single complex exponential, into

    y'' + (eta/m) y' + (k0/m + (k/m) e^{i omega t}) y = 0

and substituting y = e^{-eta t / 2m} Z_nu(u) with u proportional to
e^{i omega t / 2} turns this into the cylinder equation for Z_nu.  Two
placements of the parameter ratios circulate:

  * ``corrected``     -- index nu from the stiffness ratio k0/m, argument
                         scale from the modulation ratio k/m.  This is the
                         placement that actually satisfies the equation.
  * ``paper-literal`` -- the transposed placement (k/m in the index, k0/m in
                         the argument), kept as a first-class variant so the
                         two can be adjudicated side by side against the same
                         equation.  The token is a fixed interface string.

The pair e^{-eta t/2m} J_{+-nu}(z(t)) solves the split equation at any index,
but the Bessel core evaluates integer orders only, hence the admissibility
gate.  Evaluation follows the Bessel argument around its circular path in the
complex plane, applying the analytic-continuation correction for the second
kind when the path winds across the standard branch cut.

evaluate_grid(spec, grid) is the one evaluation body: it needs nothing but the
spec, and returns a TimeSeries that oracle.residual(ode, series) checks on its
own grid; evaluate() is its single-point wrapper.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from . import bessel
from .bessel import bessel_j, bessel_y  # noqa: F401  (not called; perfbench's trace wraps them here)
from .errors import AdmissibilityError, InvalidParameterError, SingularityError
from .oracle import LinearODE, ResidualReport, equation, residual
from .samples import SolutionSample, TimeSeries, as_grid, decayed
from .samples import admit_fields, complex_number, real_number, representable

ADMISSIBILITY_TOL = 1e-9


class Variant(str, Enum):
    """Placement of the two parameter ratios in the closed form."""

    CORRECTED = "corrected"
    LITERAL = "paper-literal"


def _coerce_variant(variant) -> Variant:
    if isinstance(variant, Variant):
        return variant
    try:
        return Variant(variant)
    except ValueError:
        raise InvalidParameterError(
            f"unknown variant {variant!r}: expected 'corrected' or 'paper-literal'"
        ) from None


@dataclass(frozen=True)
class DampedParams:
    """Coefficients of m y'' + eta y' + (k0 + k cos(omega t)) y = 0."""

    m: float
    eta: float
    k0: float
    k: float
    omega: float

    def __post_init__(self):
        admit_fields(self, real_number, "m", "eta", "k0", "k", "omega")
        if self.m <= 0:
            raise InvalidParameterError(f"mass must be positive, got {self.m!r}")
        if self.eta < 0:
            raise InvalidParameterError(f"damping must be nonnegative, got {self.eta!r}")
        if self.omega == 0:
            raise InvalidParameterError("modulation frequency must be nonzero")

    @property
    def damping_rate(self) -> float:
        return self.eta / self.m

    @property
    def stiffness_ratio(self) -> float:
        return self.k0 / self.m

    @property
    def modulation_ratio(self) -> float:
        return self.k / self.m


def _integer_index(nu: complex) -> Optional[int]:
    """The integer nearest nu when nu is within ADMISSIBILITY_TOL of it, else None."""
    nearest = int(round(nu.real))
    return nearest if abs(nu - nearest) <= ADMISSIBILITY_TOL else None


@dataclass(frozen=True)
class ClosedFormSpec:
    """A fully determined closed-form solution, ready to evaluate on its own.

    The solution reads

        y(t) = exp(-decay_rate * t) * [ c1 * J_n(z(t)) + c2 * Y_n(z(t)) ],
        z(t) = argument_scale * exp(exponent_rate * t),

    with n = order(), nu rounded.  ``admissible_nu`` is n when nu is within
    ADMISSIBILITY_TOL of it; None marks the gate overridden, and results then
    approximate by construction.  Both are worked out from nu, never stored.
    """

    variant: Variant
    nu: complex
    c1: complex
    c2: complex
    decay_rate: float
    argument_scale: complex
    exponent_rate: complex

    def __post_init__(self):
        admit_fields(self, complex_number, "nu", "c1", "c2", "argument_scale", "exponent_rate")
        admit_fields(self, real_number, "decay_rate")

    @property
    def admissible_nu(self) -> Optional[int]:
        return _integer_index(self.nu)

    def order(self) -> int:
        return int(round(self.nu.real))


def index(params: DampedParams, variant=Variant.CORRECTED) -> complex:
    """Cylinder-function index nu for the given placement (principal branch).

    An index beyond double precision raises RangeLimitError.
    """
    variant = _coerce_variant(variant)
    a = params.damping_rate
    ratio = params.stiffness_ratio if variant is Variant.CORRECTED else params.modulation_ratio
    return representable("the index nu = sqrt(a^2 - 4 ratio)/(i omega)",
                         lambda: cmath.sqrt(complex(a * a - 4.0 * ratio)) / (1j * params.omega))


def argument_scale(params: DampedParams, variant=Variant.CORRECTED) -> complex:
    """Scale of the Bessel argument z(t) = scale * exp(i omega t / 2).

    A scale beyond double precision raises RangeLimitError.
    """
    variant = _coerce_variant(variant)
    ratio = params.modulation_ratio if variant is Variant.CORRECTED else params.stiffness_ratio
    return representable("the argument scale = 2 sqrt(ratio)/(i omega)",
                         lambda: 2.0 * cmath.sqrt(complex(ratio)) / (1j * params.omega))


def general_solution(params: DampedParams, variant=Variant.CORRECTED,
                     c1: complex = 1.0, c2: complex = 0.0, *,
                     allow_inadmissible: bool = False) -> ClosedFormSpec:
    """One spec, c1 J + c2 Y under the decay prefactor; c1 and c2 must be finite.

    At an admissible index the corrected variant solves split_ode(params),
    the e^{i omega t} equation, and the cosine equation homogeneous_ode(params)
    only at k = 0; the paper-literal variant misses split_ode (see adjudicate).
    """
    variant = _coerce_variant(variant)
    spec = ClosedFormSpec(variant=variant, nu=index(params, variant), c1=c1, c2=c2,
                          decay_rate=params.eta / (2.0 * params.m),
                          argument_scale=argument_scale(params, variant),
                          exponent_rate=0.5j * params.omega)
    if spec.admissible_nu is None and not allow_inadmissible:
        raise AdmissibilityError(spec.nu, spec.order(), ADMISSIBILITY_TOL)
    return spec


def fundamental_pair(params: DampedParams, variant=Variant.CORRECTED,
                     c1: complex = 1.0, c2: complex = 1.0) -> tuple[ClosedFormSpec, ClosedFormSpec]:
    """The (second-kind, first-kind) pair spanning the solution space.

    The first member carries only the Y branch with weight c2, the second only
    the J branch with weight c1; in the corrected variant both solve
    split_ode(params).  Inadmissible indices raise AdmissibilityError.
    """
    return (general_solution(params, variant, 0.0, c2),
            general_solution(params, variant, c1, 0.0))


def mirror(spec: ClosedFormSpec) -> ClosedFormSpec:
    """The companion spec solving the conjugate-exponential equation.

    Where spec solves split_ode(params), its mirror solves
    split_ode(params, conjugate=True).  Negating the exponent rate sends
    e^{+i omega t} to e^{-i omega t}; the argument flips sign along with it
    and the integer-order reflection J_{-n} = (-1)^n J_n contributes the
    parity sign to both constants.
    """
    if spec.admissible_nu is None:
        raise AdmissibilityError(spec.nu, spec.order(), ADMISSIBILITY_TOL)
    sign = -1.0 if spec.order() % 2 else 1.0
    return replace(spec, c1=sign * spec.c1, c2=sign * spec.c2,
                   argument_scale=-spec.argument_scale, exponent_rate=-spec.exponent_rate)


def evaluate_grid(spec: ClosedFormSpec, grid) -> TimeSeries:
    """The closed form with analytic derivatives on a strictly increasing grid.

    The spec alone fixes it: a corrected spec from general_solution(params)
    solves split_ode(params), and its mirror the conjugate twin.  Derivatives
    chain through z(t); the cylinder bracket's second derivative comes from
    its own differential equation, and the second-kind branch is continued
    across the log cut as the argument winds.  One Bessel call per grid,
    bessel_jy when the second kind is present and bessel_j otherwise
    (bessel's array path); the rest is array arithmetic.  A value or
    derivative that overflows double precision (say, from constants near
    1e308) raises RangeLimitError at its first t; an exponent rate whose
    square leaves it (|omega| above about 2.7e154) raises one naming that.
    """
    grid = as_grid(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        y, dy, d2y = _rows(spec, grid)
    return TimeSeries(grid=grid, y=y, dy=dy, d2y=d2y)


def _rows(spec: ClosedFormSpec, grid: np.ndarray) -> tuple:
    """y, y', y'' of evaluate_grid, overflow left as inf or nan."""
    n = spec.order()
    r = spec.decay_rate

    if spec.argument_scale == 0:
        if spec.c2 != 0:
            raise SingularityError("second-kind branch diverges at identically zero argument")
        # a constant bracket: y = c e^{-rt} (decayed's products would round differently)
        y = np.exp(-r * grid) * (spec.c1 * (1.0 if n == 0 else 0.0))
        return y, -r * y, r ** 2 * y

    z = spec.argument_scale * np.exp(spec.exponent_rate * grid)
    j, y = bessel.bessel_jy(n, z) if spec.c2 != 0 else (bessel.bessel_j(n, z), None)
    b = spec.c1 * j.value
    db = spec.c1 * j.derivative
    if spec.c2 != 0:
        # The path z(t) = scale * e^{i s t} leaves the principal branch when the
        # accumulated angle passes +-pi; Y_n picks up 4 i w J_n per full turn.
        angle = cmath.phase(spec.argument_scale) + spec.exponent_rate.imag * grid
        w4 = 4.0j * np.round((angle - np.angle(z)) / (2.0 * math.pi))
        b += spec.c2 * (y.value + w4 * j.value)
        db += spec.c2 * (y.derivative + w4 * j.derivative)
    # cylinder equation: B'' = -B'/z + (n^2/z^2 - 1) B
    d2b = -db / z + (n * n / (z * z) - 1.0) * b

    dz = spec.exponent_rate * z
    d2z = representable("the exponent rate squared", lambda: spec.exponent_rate ** 2) * z
    return decayed(r, grid, b, db * dz, d2b * dz * dz + db * d2z)


def evaluate(spec: ClosedFormSpec, t: float) -> SolutionSample:
    """The closed form and its first two derivatives at one time (see evaluate_grid)."""
    return evaluate_grid(spec, [t])[0]


def split_ode(params: DampedParams, conjugate: bool = False) -> LinearODE:
    """The single-exponential equation the closed form is checked against.

    y'' + (eta/m) y' + (k0/m + (k/m) e^{+-i omega t}) y = 0; conjugate=True
    selects the e^{-i omega t} twin.
    """
    b0 = params.stiffness_ratio
    c0 = params.modulation_ratio
    s = -1.0 if conjugate else 1.0
    return equation(p=params.damping_rate,
                    q=lambda t, xp=cmath: b0 + c0 * xp.exp(s * 1j * params.omega * t))


def homogeneous_ode(params: DampedParams) -> LinearODE:
    """The real cosine-modulated homogeneous equation itself."""
    b0 = params.stiffness_ratio
    c0 = params.modulation_ratio
    return equation(p=params.damping_rate,
                    q=lambda t, xp=math: b0 + c0 * xp.cos(params.omega * t))


@dataclass(frozen=True)
class AdjudicationReport:
    """Side-by-side residuals of the two variants against the same equation.

    nu is the corrected variant's index, as general_solution derived it.
    """

    corrected: ResidualReport
    literal: ResidualReport
    passing_variant: Optional[str]
    nu: complex


def adjudicate(params: DampedParams, grid, *,
               allow_inadmissible: bool = False) -> AdjudicationReport:
    """Evaluate both variants (c1 = c2 = 1) on grid against the single-exponential equation.

    Both residuals are always computed and reported; passing_variant names the
    smaller-residual variant among those whose verdict passes, or None if
    neither does.  No smallness is asserted here: this is a measurement.
    """
    ode = split_ode(params)
    specs, reports = {}, {}
    for variant in (Variant.CORRECTED, Variant.LITERAL):
        specs[variant] = spec = general_solution(params, variant, 1.0, 1.0,
                                                 allow_inadmissible=allow_inadmissible)
        reports[variant] = residual(ode, evaluate_grid(spec, grid))
    passing = [v for v in (Variant.CORRECTED, Variant.LITERAL) if reports[v].verdict]
    winner = None
    if passing:
        winner = min(passing, key=lambda v: reports[v].linf).value
    return AdjudicationReport(
        corrected=reports[Variant.CORRECTED],
        literal=reports[Variant.LITERAL],
        passing_variant=winner,
        nu=specs[Variant.CORRECTED].nu,
    )
