"""Independent verification machinery for second-order linear ODEs.

Everything here checks other results rather than producing them: one
Dormand-Prince 5(4) stepper for y'' + p y' + q y = f (PI step controller) that
advances one solution and streams each step's classical quartic interpolant to
the requested times, keeping nothing per step (integrate is one sweep, the
monodromy period map two, one per column); the one residual, each point's
defect over its own scale; and the Abel/Liouville Wronskian reference.

The stepper's tableau is unrolled on Python scalars, because a state of two
numbers is too small for numpy to pay off: y, y' and y'' are local variables,
each step evaluates p, q and f once per stage time (stage 7 shares stage 6's,
the step end), and arrays appear only in what it returns.  Its step control
compares where it would call min and max (the same values, ties and NaN
included), carries each step end's |y| and |y'| into the next step's error
norm, and looks up the requested times only on a step that passes the next
one.  It does only the arithmetic the problem has: a state component with a
zero imaginary part enters as a float, so a real equation runs on floats and
a complex coefficient value promotes the state by itself; an absent
coefficient is 0.0 at every stage, without a call.  Float arithmetic gives
the real parts complex arithmetic gives, so the values do not depend on the
typing (only an overflow may show as inf where complex arithmetic makes
NaN); the returned arrays are complex either way.

Results cross layer boundaries as TimeSeries arrays: integrate returns one
(the step-end states when no times are requested), and residual(ode, series)
checks one on its own grid (a per-point callable plus a grid is accepted too,
and is sampled into arrays first).  Each library equation writes a coefficient
once, as c(t, xp): the stepper calls c(t), xp defaulting to math, cmath or
none as its values need, and a grid calls c(grid, np) with no per-point call; a
LinearODE given only scalar callables is sampled one point at a time.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError, RangeLimitError, StiffnessError
from .exponent_class import normalize_exponent
from .samples import SolutionSample, TimeSeries, as_grid, complex_number, real_number, representable

Coefficient = Callable[[float], float | complex]

TOL_MIN = 1.0e-14
TOL_MAX = 1.0e-3
# a residual passes when its largest per-point figure, linf, is below this
PASS_TOL = 1.0e-8

_MAX_STEPS = 1_000_000
# monodromy_exponent refuses a multiplier rho with tol/|rho| above this: twice
# the loosest tolerance, so an undamped map (|rho| >= 1) is never refused
_FLOOR_MAX = 2.0 * TOL_MAX

# Dormand-Prince 5(4) tableau (HNW, Solving ODEs I, II.5), unrolled: stage i
# sits at t + _Ci h, and its state adds h * sum_j _Aij k_j to the step's start
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63 = 9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0
_A64, _A65 = 49.0 / 176.0, -5103.0 / 18656.0
# 5th-order weights (k2's is 0); stage 7 sits at the step end on this state
_B1, _B3, _B4 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0
_B5, _B6 = -2187.0 / 6784.0, 11.0 / 84.0
# difference between the 5th- and embedded 4th-order weights
_E1, _E3, _E4 = 71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0
_E5, _E6, _E7 = -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0
# weights of the extra interpolation polynomial
_D1, _D3 = -12715105075.0 / 11282082432.0, 87487479700.0 / 32700410799.0
_D4, _D5 = -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0
_D6, _D7 = -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0

_SAFETY = 0.9
_BETA = 0.04
_ALPHA = 0.2 - 0.75 * _BETA
_FAC_MIN = 0.2
_FAC_MAX = 10.0
# a step of at most 16 roundoff units of |t| is an underflow (Hairer's rule: none at t = 0)
_H_UNDERFLOW = 16.0 * float(np.finfo(float).eps)


def validate_tolerance(tol: float) -> float:
    tol = real_number("tolerance", tol)
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise InvalidParameterError(
            f"tolerance {tol:g} outside supported range [{TOL_MIN:g}, {TOL_MAX:g}]"
        )
    return tol


@dataclass(frozen=True)
class LinearODE:
    """y'' + p(t) y' + q(t) y = f(t); None stands for the zero function.

    on_grid is the same equation on arrays (a grid in; p, q and f out as arrays
    or broadcastable scalars, 0.0 for an absent term); equation() derives both
    from one expression per coefficient.  The stepper calls p, q and f.
    """

    p: Coefficient | None
    q: Coefficient | None
    f: Coefficient | None = None
    on_grid: Callable[[np.ndarray], tuple] | None = None

    def coefficients_on(self, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """p, q and f on a grid (zeros for None): on_grid's in their own dtypes, sampled complex."""
        if self.on_grid is None:
            return _sample(self.p, grid), _sample(self.q, grid), _sample(self.f, grid)
        return tuple(np.full(np.shape(grid), v) for v in self.on_grid(grid))


def equation(p=None, q=None, f=None) -> LinearODE:
    """The LinearODE of one expression c(t, xp) per coefficient (a number is a constant, 0 none).

    The stepper calls c(t), with xp at its default; on_grid calls c(grid, np).
    """
    p, q, f = (c if c is None or callable(c) else _constant(c) for c in (p, q, f))
    return LinearODE(p, q, f, on_grid=lambda t: tuple(0.0 if c is None else c(t, np) for c in (p, q, f)))


def _constant(value):
    return (lambda t, xp=None: value) if value != 0 else None


def _sample(fn: Coefficient | None, points: np.ndarray) -> np.ndarray:
    # a coefficient without an array form (a user's callable, wronskian_abel's
    # p) is called once per point
    out = np.zeros(np.shape(points), dtype=complex)
    if fn is not None:
        out.flat[:] = [fn(t) for t in np.ravel(points).tolist()]
    return out


@dataclass(frozen=True)
class MonodromyResult:
    """Floquet exponent extracted from the one-period fundamental matrix."""

    mu: complex
    mu_raw: complex
    multiplier: complex
    det_m: complex
    branch_ambiguous: bool
    floor: float  # tol/|multiplier|: Re mu is off by about 0.03-0.12 times it


@dataclass(frozen=True)
class ResidualReport:
    """A candidate's per-point defect figures (see residual): linf their max, l2 their RMS."""

    linf: float
    l2: float
    verdict: bool  # linf < PASS_TOL
    pointwise: np.ndarray = field(repr=False, compare=False)


# an absent coefficient's values at a step's five stage times after its start
_ABSENT = (0.0,) * 5


def _stiff(reason: str, t: float, y, v) -> StiffnessError:
    return StiffnessError(f"{reason} t={t:.6g}", t_last=t,
                          state_last=np.array([y, v], dtype=complex))


def _scaled_rms(y, v, sy: float, sv: float) -> float:
    """Root mean square of y / sy and v / sv (the step controller's norm)."""
    ry, iy, rv, iv = y.real / sy, y.imag / sy, v.real / sv, v.imag / sv
    return math.sqrt(((ry * ry + iy * iy) + (rv * rv + iv * iv)) / 2)


def _initial_step(coefficients, t0: float, y, v, a, t1: float, tol: float) -> float:
    sy, sv = tol + tol * abs(y), tol + tol * abs(v)
    d0 = _scaled_rms(y, v, sy, sv)
    d1 = _scaled_rms(v, a, sy, sv)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t1 - t0)
    if h0 == 0.0:
        # d1 overflowed: no trial step exists, and the stepper raises
        return h0
    pv, qv, fv = (0.0 if fn is None else fn(t0 + h0) for fn in coefficients)
    y1 = y + h0 * v
    v1 = v + h0 * a
    d2 = _scaled_rms(v1 - v, (fv - pv * v1 - qv * y1) - a, sy, sv) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t1 - t0)


def _quartic(h: float, a, b, g1, g3, g4, g5, g6, g7) -> tuple:
    """Coefficients of one component's quartic interpolant over a step of size h.

    a and b are its values at the step ends, g1, g3..g7 its stages (k2's
    interpolation weight is 0).
    """
    delta = b - a
    c = h * g1 - delta
    e = h * (_D1 * g1 + _D3 * g3 + _D4 * g4 + _D5 * g5 + _D6 * g6 + _D7 * g7)
    return a, delta, c, delta - h * g7 - c, e


def _dense_rows(t: float, h: float, times, y, y7, v, v3, v4, v5, v6, v7,
                a, a3, a4, a5, a6, a7):
    """Rows (y, y') of the step [t, t + h]'s interpolant at times.

    y runs from y to y7 with stages v, v3..v7, and y' from v to v7 with
    stages a, a3..a7.
    """
    y0, y1, y2, y3, y4 = _quartic(h, y, y7, v, v3, v4, v5, v6, v7)
    v0, v1, v2, v3, v4 = _quartic(h, v, v7, a, a3, a4, a5, a6, a7)
    for tk in times:
        theta = (tk - t) / h
        rest = 1.0 - theta
        yield (y0 + theta * (y1 + rest * (y2 + theta * (y3 + rest * y4))),
               v0 + theta * (v1 + rest * (v2 + theta * (v3 + rest * v4))))


def _integrate_raw(ode: LinearODE, t0: float, t1: float, u0: Sequence[complex], tol: float, tq):
    """Adaptive DOPRI5 sweep of y'' + p y' + q y = f for one solution.

    u0 is the start (y, y'); the state y, v = y' and its acceleration
    a = f - p v - q y live on Python scalars: floats where u0 is real, so a
    real equation stays on floats.  A step evaluates p, q and f once at each
    of its five stage times after t (the times do not depend on the state,
    and stage 7 shares stage 6's, the step end; an absent one is 0.0): the
    stages of y are the stage values of v, and those of v are f - p v - q y,
    formed at all six stages.  Each accepted step evaluates its interpolant at
    the ascending times tq below its end (the last step takes the rest); tq
    None records the step-end states.  Returns sample times, samples (rows y,
    y') and final state (complex arrays) and stats.
    """
    # the callables' float or complex values enter the arithmetic as is: on
    # real parts, float arithmetic gives what complex arithmetic gives, and a
    # complex value makes the state complex from that stage on
    p, q, f = ode.p, ode.q, ode.f
    t = t0
    y, v = (x.real if x.imag == 0.0 else x for x in u0)
    p1, q1, f1 = (0.0 if fn is None else fn(t) for fn in (p, q, f))
    a = f1 - p1 * v - q1 * y  # first stage, reused (FSAL)
    if not cmath.isfinite(a):
        raise _stiff("derivative is not finite at", t, y, v)
    h = _initial_step((p, q, f), t0, y, v, a, t1, tol)
    if h == 0.0:
        raise _stiff("scaled derivative norm overflows double precision at", t, y, v)
    err_old = 1e-4
    last_rejected = False
    # |y| and |y'| at the step's start: the last step's |y7| and |v7|
    y_mod, v_mod = abs(y), abs(v)
    times, rows = ([t0], [(y, v)]) if tq is None else (tq, [])
    n_accept = n_reject = 0
    while t < t1:
        if n_accept + n_reject > _MAX_STEPS:
            raise _stiff("step budget exhausted at", t, y, v)
        h = t1 - t if t1 - t < h else h
        if h <= _H_UNDERFLOW * abs(t):
            raise _stiff("step size underflow at", t, y, v)
        t2, t3, t4, t5, t6 = t + _C2 * h, t + _C3 * h, t + _C4 * h, t + _C5 * h, t + h
        # one coefficient evaluation per stage time: stages 6 and 7 both sit
        # at the step end, so stage 7 reuses stage 6's values
        p2, p3, p4, p5, p6 = _ABSENT if p is None else (p(t2), p(t3), p(t4), p(t5), p(t6))
        q2, q3, q4, q5, q6 = _ABSENT if q is None else (q(t2), q(t3), q(t4), q(t5), q(t6))
        f2, f3, f4, f5, f6 = _ABSENT if f is None else (f(t2), f(t3), f(t4), f(t5), f(t6))
        y2 = y + h * (_A21 * v)
        v2 = v + h * (_A21 * a)
        a2 = f2 - p2 * v2 - q2 * y2
        y3 = y + h * (_A31 * v + _A32 * v2)
        v3 = v + h * (_A31 * a + _A32 * a2)
        a3 = f3 - p3 * v3 - q3 * y3
        y4 = y + h * (_A41 * v + _A42 * v2 + _A43 * v3)
        v4 = v + h * (_A41 * a + _A42 * a2 + _A43 * a3)
        a4 = f4 - p4 * v4 - q4 * y4
        y5 = y + h * (_A51 * v + _A52 * v2 + _A53 * v3 + _A54 * v4)
        v5 = v + h * (_A51 * a + _A52 * a2 + _A53 * a3 + _A54 * a4)
        a5 = f5 - p5 * v5 - q5 * y5
        y6 = y + h * (_A61 * v + _A62 * v2 + _A63 * v3 + _A64 * v4 + _A65 * v5)
        v6 = v + h * (_A61 * a + _A62 * a2 + _A63 * a3 + _A64 * a4 + _A65 * a5)
        a6 = f6 - p6 * v6 - q6 * y6
        # stage 7 sits on the 5th-order result, which is the step's end state
        y7 = y + h * (_B1 * v + _B3 * v3 + _B4 * v4 + _B5 * v5 + _B6 * v6)
        v7 = v + h * (_B1 * a + _B3 * a3 + _B4 * a4 + _B5 * a5 + _B6 * a6)
        a7 = f6 - p6 * v7 - q6 * y7
        ey = h * (_E1 * v + _E3 * v3 + _E4 * v4 + _E5 * v5 + _E6 * v6 + _E7 * v7)
        ev = h * (_E1 * a + _E3 * a3 + _E4 * a4 + _E5 * a5 + _E6 * a6 + _E7 * a7)
        y7_mod, v7_mod = abs(y7), abs(v7)
        ey /= tol + tol * (y7_mod if y7_mod > y_mod else y_mod)
        ev /= tol + tol * (v7_mod if v7_mod > v_mod else v_mod)
        err = math.sqrt(
            (ey.real * ey.real + ey.imag * ey.imag + ev.real * ev.real + ev.imag * ev.imag) / 2)
        if err != err:
            raise _stiff("derivative is not finite in the step from", t, y, v)
        if err <= 1.0:
            t_new = t + h
            if tq is None:
                times.append(t_new)
                rows.append((y7, v7))
            else:
                # a time equal to a step end goes to the next step, at theta = 0;
                # only a step that passes the next time, or ends the span, samples
                done = len(rows)
                if done < len(tq) and (t_new >= t1 or tq[done] < t_new):
                    stop = len(tq) if t_new >= t1 else bisect_left(tq, t_new, done + 1)
                    rows += _dense_rows(t, h, tq[done:stop], y, y7, v, v3, v4, v5, v6, v7,
                                        a, a3, a4, a5, a6, a7)
            n_accept += 1
            t, y, v, a, y_mod, v_mod = t_new, y7, v7, a7, y7_mod, v7_mod
            fac = _SAFETY * err ** (-_ALPHA) * err_old ** _BETA if err > 0.0 else _FAC_MAX
            fac = fac if fac > _FAC_MIN else _FAC_MIN
            fac = fac if fac < _FAC_MAX else _FAC_MAX
            if last_rejected and fac > 1.0:
                fac = 1.0
            h *= fac
            err_old = 1e-4 if err < 1e-4 else err
            last_rejected = False
        else:
            h *= max(_FAC_MIN, _SAFETY * err ** (-_ALPHA))
            n_reject += 1
            last_rejected = True
    # the right-hand side is formed at a step's six stages; the first state
    # and the initial step size's trial evaluation count too
    nfev = 2 + 6 * (n_accept + n_reject)
    stats = {"steps": n_accept, "rejected": n_reject, "rhs_evaluations": nfev}
    return times, np.array(rows, dtype=complex), np.array([y, v], dtype=complex), stats


def integrate(
    ode: LinearODE,
    y0: complex,
    dy0: complex,
    span: tuple[float, float],
    tol: float,
    t_eval: Sequence[float] | None = None,
) -> TimeSeries:
    """Solve ode's initial value problem over span, adaptively.

    Without t_eval the step-end states are returned on t0 and the step ends;
    t_eval, checked before the sweep, is sampled from each step's interpolant
    as it is accepted.  y'' comes from the equation, not numerical differences.
    The step controller scales each component's error by tol + tol |y|, so a
    component below tol is accurate to about tol in absolute terms, not
    relative ones.
    """
    tol = validate_tolerance(tol)
    y0, dy0 = complex_number("y0", y0), complex_number("dy0", dy0)
    t0, t1 = real_number("span start", span[0]), real_number("span end", span[1])
    if t1 <= t0:
        raise InvalidParameterError(f"span must be a finite increasing pair, got {span!r}")
    tq = None
    if t_eval is not None:
        grid = as_grid(t_eval, "t_eval")
        if np.any(np.diff(grid) <= 0.0):
            raise InvalidParameterError("t_eval must be strictly increasing")
        slack = 1e-12 * (t1 - t0)
        if grid[0] < t0 - slack or grid[-1] > t1 + slack:
            raise InvalidParameterError("t_eval must lie within the integration span")
        tq = np.clip(grid, t0, t1).tolist()
    times, samples, _, stats = _integrate_raw(ode, t0, t1, (y0, dy0), tol, tq)
    grid = np.array(times) if tq is None else grid
    ys, dys = samples.T
    pv, qv, fv = ode.coefficients_on(grid)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by TimeSeries
        d2ys = fv - pv * dys - qv * ys
    return TimeSeries(grid=grid, y=ys, dy=dys, d2y=d2ys, meta=stats)


def monodromy_exponent(ode: LinearODE, period: float, tol: float) -> MonodromyResult:
    """Floquet exponent from direct integration of both fundamental columns.

    The period map's columns are two sweeps over one period, from (y, y') =
    (1, 0) and from (0, 1); a StiffnessError names the column that failed and
    carries its state.  The larger-modulus eigenvalue rho of the period
    map gives mu_raw = Log(rho)/period; mu is its canonical class
    representative.  branch_ambiguous flags rho so close to the negative real
    axis that the principal log's imaginary part is not trustworthy.

    The stepper's accuracy is absolute below tol (see integrate), so rho is
    accurate to about tol absolutely: Re mu is off by about 0.03-0.12 x
    tol/|rho| (measured on y'' + p y' + q y = 0 over pi), the figure the
    result carries as floor.  A floor above 2e-3 (twice TOL_MAX, which no
    undamped map, |rho| >= 1, reaches) raises RangeLimitError naming it.
    """
    tol = validate_tolerance(tol)
    if ode.f is not None:
        raise InvalidParameterError("monodromy requires a homogeneous equation")
    period = real_number("period", period)
    if period <= 0.0:
        raise InvalidParameterError(f"period must be finite and positive, got {period!r}")
    columns = []
    for name, u0 in (("(1, 0)", (1.0, 0.0)), ("(0, 1)", (0.0, 1.0))):
        try:
            columns.append(_integrate_raw(ode, 0.0, period, u0, tol, ())[2])
        except StiffnessError as exc:
            exc.args = (f"period map column {name}: {exc}",)
            raise
    (y1, dy1), (y2, dy2) = columns
    # trace^2 - 4 det without its cancellation where the map is +-I (a double multiplier)
    trace, det_m, disc_sq = representable(
        f"the period map over {period:g} (its trace, determinant and discriminant)",
        lambda: (y1 + dy2, y1 * dy2 - y2 * dy1, (y1 - dy2) * (y1 - dy2) + 4.0 * y2 * dy1))
    disc = cmath.sqrt(disc_sq)
    # add the root branch that avoids cancellation, recover the other via the product
    if (trace.conjugate() * disc).real >= 0.0:
        r_big = (trace + disc) / 2.0
    else:
        r_big = (trace - disc) / 2.0
    if r_big == 0.0:
        raise InvalidParameterError("degenerate period map: both multipliers vanish")
    r_other = det_m / r_big
    rho = r_big if abs(r_big) >= abs(r_other) else r_other
    floor = tol / abs(rho)
    if floor > _FLOOR_MAX:
        raise RangeLimitError(
            f"the period map over {period:g} has multiplier |rho| = {abs(rho):.3g}, at the "
            f"stepper's absolute floor: tol/|rho| = {floor:.3g} exceeds {_FLOOR_MAX:g}")
    mu_raw = cmath.log(rho) / period
    on_cut = bool(rho.real < 0.0 and abs(rho.imag) <= 1e-9 * abs(rho))
    im_modulus = 2.0 * math.pi / period
    return MonodromyResult(
        mu=normalize_exponent(mu_raw, im_modulus=im_modulus),
        mu_raw=mu_raw,
        multiplier=rho,
        det_m=det_m,
        branch_ambiguous=on_cut,
        floor=floor,
    )


def residual(
    ode: LinearODE,
    candidate: TimeSeries | Callable[[float], SolutionSample],
    grid: Sequence[float] | None = None,
) -> ResidualReport:
    """Defect of a candidate solution, each point relative to its own scale.

    The candidate is a TimeSeries, checked on its own grid, or a callable
    t -> SolutionSample, sampled on grid first; either way one array
    expression gives the defect d = y'' + p y' + q y - f.  Each point's |d| is
    divided by that point's scale |y''| + (P + sqrt Q)|y'| + Q|y| + F, where
    P, Q and F are the grid maxima of |p|, |q| and |f|: sqrt Q is the
    equation's own frequency, so at a zero of y, where y' is near its
    largest, the figure still sees the solution's size.  The figure is at
    most 1, reads the same for any multiple of a homogeneous candidate, huge
    or tiny, and reads 0 where every term is 0.  verdict is the one pass rule,
    linf < PASS_TOL.  A coefficient not finite on the grid (NaN, or inf at a singular
    point) fails it with NaN figures and no numpy warning; a defect of finite
    terms beyond double precision (say, q y) raises RangeLimitError naming it.
    """
    series = isinstance(candidate, TimeSeries)
    if series and grid is not None:
        raise InvalidParameterError("a TimeSeries is checked on its own grid")
    grid = as_grid(candidate.grid if series else grid)
    if series:
        y, dy, d2y = candidate.y, candidate.dy, candidate.d2y
    else:
        samples = [candidate(t) for t in grid.tolist()]
        y, dy, d2y = np.array([(s.y, s.dy, s.d2y) for s in samples], dtype=complex).T
    with np.errstate(all="ignore"):
        pv, qv, fv = ode.coefficients_on(grid)
    big_p, big_q, big_f = (np.max(np.abs(v)) for v in (pv, qv, fv))
    if not np.isfinite([big_p, big_q, big_f]).all():
        return ResidualReport(math.nan, math.nan, False, np.full(len(grid), math.nan))
    mags = [np.abs(v) for v in (y, dy, d2y)]
    size = np.max([big_f, *(np.max(v) for v in mags)])
    # finite terms must give a finite defect
    formula = lambda: d2y + pv * dy + qv * y - fv
    defect = (representable("the defect y'' + p y' + q y - f", formula)
              if np.isfinite(size) else formula())
    # magnitudes over the largest keep the scale's sum below the overflow edge
    unit = size if size > 0.0 else 1.0
    y_mag, dy_mag, d2y_mag, defect = (v / unit for v in (*mags, np.abs(defect)))
    scale = d2y_mag + (big_p + np.sqrt(big_q)) * dy_mag + big_q * y_mag + big_f / unit
    # a point whose every term is 0 has a defect of 0, divided by 1
    figure = defect / np.where(scale > 0.0, scale, 1.0)
    linf = float(np.max(figure))
    return ResidualReport(linf, float(np.sqrt(np.mean(figure * figure))), linf < PASS_TOL, figure)


def wronskian_abel(p: Coefficient | None, w0: complex, grid: Sequence[float]) -> np.ndarray:
    """Abel/Liouville reference W(t) = W(t0) exp(-int p) on an ascending grid.

    The integral is a running sum of 10-point Gauss-Legendre quadratures,
    one per grid interval.  A W beyond double precision raises RangeLimitError.
    """
    w0, grid = complex_number("w0", w0), as_grid(grid)
    if np.any(np.diff(grid) <= 0.0):
        raise InvalidParameterError("grid must be strictly increasing")
    if p is None:
        return np.full(len(grid), w0)
    nodes, weights = np.polynomial.legendre.leggauss(10)
    mid = 0.5 * (grid[1:] + grid[:-1])
    rad = 0.5 * np.diff(grid)
    acc = np.cumsum(rad * (_sample(p, mid[:, None] + rad[:, None] * nodes) @ weights))
    with np.errstate(over="ignore", invalid="ignore"):
        w = w0 * np.exp(-np.concatenate(([0.0], acc)))
    finite = np.isfinite(w)
    if not finite.all():
        raise RangeLimitError(f"Abel's Wronskian overflows at t = {grid[np.argmin(finite)]:.6g}")
    return w
