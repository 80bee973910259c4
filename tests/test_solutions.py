"""Every public solution meets the equation its docstring names.

One table holds a row per public callable that returns a solution: the
callable, a seeded box to draw its inputs from, the check that holds it to
its equation, and the bound.  A check is the oracle's scaled residual against
that equation, or, where a residual would be vacuous (integrate and
simulate_full take y'' from the equation itself), the distance from a known
solution.  A completeness check requires a row for every callable in
mathieu_kit.__all__ whose return annotation names a solution type, so a new
public solution with no row fails here.  A last test holds the residual
itself to a tight stepper started from each solution's own state.
"""

from __future__ import annotations

import inspect
import math
import re
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np
import pytest

import mathieu_kit
from mathieu_kit.closed_form import (
    DampedParams,
    Variant,
    evaluate,
    evaluate_grid,
    fundamental_pair,
    general_solution,
    mirror,
    split_ode,
)
from mathieu_kit.floquet import (
    GeneralParams,
    characteristic_exponent,
    coefficients,
    eval_floquet,
    eval_floquet_grid,
    general_mathieu_ode,
    second_solution,
    solve,
)
from mathieu_kit.flux import (
    FluxParams,
    SinusoidalResponse,
    closed_form_motion,
    field_from_motion,
    full_ode,
    linearized_delta,
    particular_k0,
    simulate_full,
    symmetric_case_solution,
)
from mathieu_kit.oracle import PASS_TOL, LinearODE, equation, integrate, residual
from mathieu_kit.reductions import (
    FAMILIES,
    ReductionInput,
    interior_grid,
    pullback,
    reduce,
    source_ode,
)
from mathieu_kit.samples import TimeSeries

# a check maps a series to its scaled defect, which the row's bound holds
Check = Callable[[TimeSeries], float]
Draw = Callable[[np.random.Generator], Iterator[tuple[TimeSeries, Check]]]


@dataclass(frozen=True)
class Row:
    solution: Callable  # the public callable held to its equation
    case: str
    draw: Draw
    draws: int = 4
    bound: float = PASS_TOL

    @property
    def id(self) -> str:
        return f"{self.solution.__qualname__}[{self.case}]"


def meets(ode: LinearODE) -> Check:
    """The scaled residual against ode."""
    return lambda series: residual(ode, series).linf


def matches(y: np.ndarray, dy: np.ndarray) -> Check:
    """Distance of a series' y and y' from a known solution's, scaled like a residual."""
    scale = max(1.0, float(np.max(np.abs(y))), float(np.max(np.abs(dy))))
    return lambda s: max(float(np.max(np.abs(s.y - y))), float(np.max(np.abs(s.dy - dy)))) / scale


def sampled(at: Callable, grid: np.ndarray) -> TimeSeries:
    """A single-point evaluator's samples on a grid, as one series."""
    points = [at(t) for t in grid.tolist()]
    return TimeSeries(grid=grid, y=np.array([p.y for p in points]),
                      dy=np.array([p.dy for p in points]), d2y=np.array([p.d2y for p in points]))


def summed(a: TimeSeries, b: TimeSeries) -> TimeSeries:
    return TimeSeries(grid=a.grid, y=a.y + b.y, dy=a.dy + b.dy, d2y=a.d2y + b.d2y)


def constant(rng: np.random.Generator) -> complex:
    return complex(*rng.normal(size=2))


# ---------------------------------------------------------------- closed form

CLOSED_FORM_GRID = np.linspace(0.0, 10.0, 201)


def damped(rng: np.random.Generator) -> DampedParams:
    """Admissible parameters as perfbench's closed_form_residual builds them.

    The corrected index is an integer n in 0..12, and |z| = 2 sqrt(k/m)/omega
    is log-uniform in [0.5, 40].
    """
    n = int(rng.integers(0, 13))
    zabs = math.exp(rng.uniform(math.log(0.5), math.log(40.0)))
    m = float(rng.choice([0.5, 1.0, 2.0]))
    eta, omega = rng.uniform(0.0, 3.0), rng.uniform(0.5, 3.0)
    a = eta / m
    return DampedParams(m=m, eta=eta, k0=m * (a * a + (n * omega) ** 2) / 4.0,
                        k=m * (zabs * omega / 2.0) ** 2, omega=omega)


def _general_solution(rng):
    p = damped(rng)
    spec = general_solution(p, Variant.CORRECTED, constant(rng), constant(rng))
    yield evaluate_grid(spec, CLOSED_FORM_GRID), meets(split_ode(p))


def _fundamental_pair(rng):
    p = damped(rng)
    for spec in fundamental_pair(p, Variant.CORRECTED, constant(rng), constant(rng)):
        yield evaluate_grid(spec, CLOSED_FORM_GRID), meets(split_ode(p))


def _evaluate_grid(rng):
    # the first kind alone: one bessel_j call, no continued second kind
    p = damped(rng)
    spec = general_solution(p, Variant.CORRECTED, constant(rng), 0.0)
    yield evaluate_grid(spec, CLOSED_FORM_GRID), meets(split_ode(p))


def _evaluate(rng):
    p = damped(rng)
    spec = general_solution(p, Variant.CORRECTED, constant(rng), constant(rng))
    yield sampled(lambda t: evaluate(spec, t), CLOSED_FORM_GRID[::10]), meets(split_ode(p))


def _mirror(rng):
    p = damped(rng)
    spec = mirror(general_solution(p, Variant.CORRECTED, constant(rng), constant(rng)))
    yield evaluate_grid(spec, CLOSED_FORM_GRID), meets(split_ode(p, conjugate=True))


# -------------------------------------------------------------------- floquet

PERIODS = np.linspace(0.0, 2.0 * math.pi, 81)


def general(rng: np.random.Generator) -> GeneralParams:
    """floquet_sweep's box: h in [-2, 10], theta in [-2, 2]."""
    return GeneralParams(rng.uniform(-2.0, 10.0), rng.uniform(-2.0, 2.0))


def _solve(rng):
    gp = general(rng)
    yield eval_floquet_grid(solve(gp), PERIODS), meets(general_mathieu_ode(gp))


def _coefficients(rng):
    # any member of the exponent class
    gp = general(rng)
    sign, shift = float(rng.choice([-1.0, 1.0])), int(rng.integers(-2, 3))
    mu = sign * characteristic_exponent(gp) + 2j * shift
    yield eval_floquet_grid(coefficients(gp, mu), PERIODS), meets(general_mathieu_ode(gp))


def _second_solution(rng):
    # the box, and its theta = 0 line (a one-term series)
    gp = general(rng)
    for point in (gp, GeneralParams(gp.h, 0.0)):
        other = second_solution(solve(point))
        yield eval_floquet_grid(other, PERIODS), meets(general_mathieu_ode(point))


def _eval_floquet_grid(rng):
    # before t = 0 and past one period too
    gp = general(rng)
    grid = np.linspace(-math.pi, 3.0 * math.pi, 81)
    yield eval_floquet_grid(solve(gp), grid), meets(general_mathieu_ode(gp))


def _eval_floquet(rng):
    gp = general(rng)
    sol = solve(gp)
    yield sampled(lambda t: eval_floquet(sol, t), PERIODS[::4]), meets(general_mathieu_ode(gp))


# --------------------------------------------------------------------- oracle

def _integrate(rng):
    # theta = 0: y0 cos(w t) + dy0 sin(w t) / w with w = sqrt(h)
    h = rng.uniform(0.5, 10.0)
    y0, dy0 = constant(rng), constant(rng)
    grid = np.linspace(0.0, 4.0 * math.pi, 81)
    w = math.sqrt(h)
    cos, sin = np.cos(w * grid), np.sin(w * grid)
    series = integrate(general_mathieu_ode(GeneralParams(h, 0.0)), y0, dy0,
                       (0.0, grid[-1]), 1e-10, t_eval=grid)
    yield series, matches(y0 * cos + dy0 * sin / w, dy0 * cos - y0 * w * sin)


# ----------------------------------------------------------------------- flux

FLUX_GRID = np.linspace(0.0, 60.0, 301)


def flux_params(rng: np.random.Generator) -> FluxParams:
    """flux_demod's box: k/k0 = omega/Omega = m Omega^2/k0 = r in [0.012, 0.02]."""
    r = rng.uniform(0.012, 0.02)
    return FluxParams(base=DampedParams(m=1.0, eta=2.0, k0=1.0 / r, k=1.0, omega=r),
                      B=1.0, J0=1.0, Omega=1.0, c_light=1.0)


def _closed_form_motion(rng):
    fp = flux_params(rng)
    yield closed_form_motion(fp, 0.0, FLUX_GRID), meets(full_ode(fp))


def _simulate_full(rng):
    fp = flux_params(rng)
    motion = closed_form_motion(fp, 0.0, FLUX_GRID)
    series = simulate_full(fp, (0.0, FLUX_GRID[-1]), 1e-10, t_eval=FLUX_GRID)
    yield series, matches(motion.y, motion.dy)


def _field_from_motion(rng):
    # E = -(B/c) y', so E' = -(B/c) y''
    fp = replace(flux_params(rng), B=rng.uniform(0.5, 2.0), c_light=rng.uniform(0.5, 2.0))
    motion = closed_form_motion(fp, 0.0, FLUX_GRID)
    scale = -fp.B / fp.c_light
    yield field_from_motion(fp, motion), matches(scale * motion.dy, scale * motion.d2y)


def _particular_k0(rng):
    # m x'' + eta x' + k0 x = (B J0 / c) cos(Omega t)
    fp = flux_params(rng)
    unmodulated = replace(fp, base=replace(fp.base, k=0.0))
    yield particular_k0(fp).evaluate(FLUX_GRID), meets(full_ode(unmodulated))


def _linearized_delta(rng):
    # m d'' + eta d' + k0 d = -k cos(omega t) y0(t), with y0 = particular_k0
    fp = flux_params(rng)
    b, y0 = fp.base, particular_k0(fp)

    def drive(t, xp=math):
        return (-b.k / b.m) * xp.cos(b.omega * t) * y0.amplitude * xp.cos(y0.frequency * t - y0.phase)

    upper, lower = (side.evaluate(FLUX_GRID) for side in linearized_delta(fp))
    yield summed(upper, lower), meets(equation(p=b.eta / b.m, q=b.k0 / b.m, f=drive))


def balance(fp: FluxParams) -> Check:
    """The first-order balance eta y' = (B J0 / 2c) cos(Omega t), scaled like a residual."""
    force = fp.drive_amplitude / 2.0

    def defect(s: TimeSeries) -> float:
        terms = (fp.base.eta * s.dy, force * np.cos(fp.Omega * s.grid))
        return float(np.max(np.abs(terms[0] - terms[1]))) / max(
            1.0, *(float(np.max(np.abs(v))) for v in terms))

    return defect


def _symmetric_case_solution(rng):
    fp = flux_params(rng)
    yield symmetric_case_solution(fp, rng.uniform(-1.0, 1.0), FLUX_GRID), balance(fp)


# ----------------------------------------------------------------- reductions

def source(rng: np.random.Generator, family: str) -> ReductionInput:
    """reduction_pullback's box: a, b in [-2, 2], lambda in [0.8, 2.5], and its damped box."""
    if family == "damped":
        return ReductionInput("damped", params=DampedParams(
            m=rng.uniform(0.5, 2.0), eta=rng.uniform(0.0, 1.0), k0=rng.uniform(0.5, 3.0),
            k=rng.uniform(-1.0, 1.0), omega=rng.uniform(1.0, 2.5)))
    lam = rng.uniform(0.8, 2.5) if family == "eq15" else 0.0
    return ReductionInput(family, a=rng.uniform(-2.0, 2.0), b=rng.uniform(-2.0, 2.0), lam=lam)


def _pullback(family: str) -> Draw:
    # the Floquet pair on the reduced equation, pulled back to the source variable
    def draw(rng):
        inp = source(rng, family)
        result = reduce(inp)
        u = solve(result.gp)
        z = interior_grid(result, n=81)
        for member in (u, second_solution(u)):
            yield pullback(result, eval_floquet_grid(member, z)), meets(source_ode(inp))
    return draw


ROWS = [
    Row(general_solution, "c1 J + c2 Y", _general_solution),
    Row(fundamental_pair, "both members", _fundamental_pair),
    Row(evaluate_grid, "first kind", _evaluate_grid),
    Row(evaluate, "one point at a time", _evaluate),
    Row(mirror, "conjugate twin", _mirror),
    Row(solve, "one period", _solve),
    Row(coefficients, "any class member", _coefficients),
    Row(second_solution, "box and theta = 0", _second_solution),
    Row(eval_floquet_grid, "[-pi, 3 pi]", _eval_floquet_grid),
    Row(eval_floquet, "one point at a time", _eval_floquet),
    Row(integrate, "theta = 0 cosines", _integrate),
    Row(closed_form_motion, "ratio box", _closed_form_motion),
    Row(simulate_full, "against closed_form_motion", _simulate_full, draws=1),
    Row(field_from_motion, "E = -(B/c) y'", _field_from_motion, draws=2),
    Row(SinusoidalResponse.evaluate, "particular_k0", _particular_k0),
    Row(SinusoidalResponse.evaluate, "linearized_delta", _linearized_delta),
    Row(symmetric_case_solution, "first-order balance", _symmetric_case_solution),
    *(Row(pullback, family, _pullback(family), draws=2) for family in FAMILIES),
]

SOLUTION_TYPES = re.compile(r"\b(TimeSeries|SolutionSample|ClosedFormSpec|FloquetSolution)\b")


def public_solutions() -> set:
    """The public callables whose return annotation names a solution type.

    SinusoidalResponse.evaluate is one too: particular_k0 and linearized_delta
    return responses, and a response is a solution once evaluated.
    """
    found = {SinusoidalResponse.evaluate}
    for name in mathieu_kit.__all__:
        fn = getattr(mathieu_kit, name)
        returns = inspect.signature(fn).return_annotation if inspect.isfunction(fn) else ""
        if SOLUTION_TYPES.search(str(returns)):
            found.add(fn)
    return found


def test_every_public_solution_has_a_row():
    rows = {row.solution for row in ROWS}
    assert sorted(f.__qualname__ for f in public_solutions() - rows) == []
    assert sorted(f.__qualname__ for f in rows - public_solutions()) == []


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_public_solution_meets_its_equation(row):
    rng = np.random.default_rng(26)
    figures = [check(series) for _ in range(row.draws) for series, check in row.draw(rng)]
    assert len(figures) >= row.draws
    assert max(figures) <= row.bound


# ------------------------------------------------- the residual against a stepper

STEPPER_TOL = 1e-13


def reversed_ode(ode: LinearODE) -> LinearODE:
    """The equation in s = -t: Y(s) = y(-s) solves Y'' - p(-s) Y' + q(-s) Y = f(-s)."""
    def flipped(c, sign):
        return None if c is None else (lambda s: sign * c(-s))
    return LinearODE(flipped(ode.p, -1.0), flipped(ode.q, 1.0), flipped(ode.f, 1.0))


def stepper_disagreement(ode: LinearODE, series: TimeSeries) -> float:
    """Worst distance of a tol-1e-13 stepper from the series, relative to the local size.

    Over each grid interval the stepper starts from the series' own state at
    the end where the series is smaller and runs to the other end, so it
    follows the solution that grows there and its own error stays small.  The
    local size is the residual's scale less |y''|, over Q: |y| + (P + sqrt Q)
    |y'| / Q + F / Q, with P, Q and F the grid maxima of |p|, |q| and |f|.
    """
    grid, y, dy = series.grid, series.y, series.dy
    big_p, big_q, big_f = (float(np.max(np.abs(c))) for c in ode.coefficients_on(grid))
    rate = (big_p + math.sqrt(big_q)) / big_q
    size = np.abs(y) + rate * np.abs(dy) + big_f / big_q
    backward, worst = reversed_ode(ode), 0.0
    for i in range(len(grid) - 1):
        # (the equation, its span, sign of t, start index, end index)
        ahead = size[i] <= size[i + 1]
        eq, span, sign, a, b = ((ode, (grid[i], grid[i + 1]), 1.0, i, i + 1) if ahead else
                                (backward, (-grid[i + 1], -grid[i]), -1.0, i + 1, i))
        end = integrate(eq, y[a], sign * dy[a], span, STEPPER_TOL)
        miss = abs(end.y[-1] - y[b]) + rate * abs(sign * end.dy[-1] - dy[b])
        worst = max(worst, miss / size[b])
    return worst


def _far_off_the_chart(rng):
    # the Floquet scan box: theta log-uniform in [100, 1e4], h uniform in [-2 theta, 4 theta]
    theta = math.exp(rng.uniform(math.log(100.0), math.log(1e4)))
    gp = GeneralParams(rng.uniform(-2.0 * theta, 4.0 * theta), theta)
    return general_mathieu_ode(gp), eval_floquet_grid(solve(gp), np.linspace(0.0, math.pi, 41))


def _closed_form_box(rng):
    p = damped(rng)
    spec = general_solution(p, Variant.CORRECTED, constant(rng), constant(rng))
    return split_ode(p), evaluate_grid(spec, CLOSED_FORM_GRID)


def _flux_box(rng):
    fp = flux_params(rng)
    return full_ode(fp), closed_form_motion(fp, 0.0, FLUX_GRID)


@pytest.mark.parametrize("draw, draws", [(_far_off_the_chart, 8), (_closed_form_box, 2),
                                         (_flux_box, 2)], ids=["floquet", "closed form", "flux"])
def test_no_solution_passes_the_residual_while_a_tight_stepper_disagrees(draw, draws):
    # the floquet box's draws 4 and 5 (of 0-7) miss their equation where |y| is
    # small, and are refused; a residual scaled by the grid's largest term passed them
    rng = np.random.default_rng(1)
    passed = 0
    for _ in range(draws):
        ode, series = draw(rng)
        if residual(ode, series).verdict:
            passed += 1
            assert stepper_disagreement(ode, series) <= 1e-6
    assert passed
