"""Floquet machinery for the general Mathieu equation y'' + (h - 2 theta cos 2t) y = 0.

The exponent mu is seeded by Hill's closed formula, cosh(pi mu) =
1 - 2 Delta(0) sin^2(pi sqrt(h)/2), from one determinant at mu = 0; no
equation is integrated.  Coefficients of the series y = sum
c_n e^{(mu+2in)t} come from backward continued fractions on both sides of
n = 0, run together in one sweep on Python scalars, which satisfies every
off-center row of the recurrence exactly.  fourier_series decides where every
series ends: the sweep starts at a depth that grows with sqrt|theta| and
doubles until its last terms are negligible (a depth past MAX_DEPTH, like a
Hill truncation past MAX_HILL_TRUNCATION, raises ConvergenceError); then a
secant polish of mu on the center-row defect runs once, at that depth, and
stops at the defect's rounding floor (a seed already there is not polished);
the series is cut where |c_n| falls below SERIES_TAIL of its peak.  flux's
sideband series, the same recurrence at the drive exponent, ends by the same
rule.  The truncated Hill determinant (rows scaled by smooth mu-independent
weights so the infinite product converges) vanishes at the same mu and is
kept as an independent check, as is the oracle's period map.
exponential_sum sums every series on a grid as a Fourier series, by Horner's
rule centred on c_0.

A solve keeps its working figures on the Python scalars the sweep returns:
the ratios, their running products c_{+-n} (whose moduli decide where a
series ends), and Hill's determinant recursion.  The coefficient array
returned is built from those same products, by one np.array per series;
numpy otherwise builds only the few reductions long enough to pay for a
call: Hill's tail sum, the |diagonal| of the rows searched for the centre,
and their stable sort when the first row fails.

The exponent stored on a FloquetSolution is the working one (the class member
the coefficients are centered on); characteristic_exponent reports the
canonical class representative instead.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidParameterError, RangeLimitError, SingularityError
from .exponent_class import class_distance, normalize_exponent
from .oracle import LinearODE, equation
from .oracle import monodromy_exponent  # noqa: F401  (not called; perfbench's trace wraps it here)
from .samples import SolutionSample, TimeSeries, admit_fields, as_grid, complex_number, representable

# a sweep is deep enough once its last terms are below CONVERGED_TAIL of the
# peak; a series ends where |c_n| falls below SERIES_TAIL of it
CONVERGED_TAIL = 1e-34
SERIES_TAIL = 1e-19
# a series and its reflection are a general solution where their Wronskian at
# t = 0 is at least this fraction of the product of their states' norms
_PAIR_BOUND = 4e-6
MAX_DEPTH = 4096
# the largest truncation N of Hill's formula (2N + 1 rows, 3N more in its tail)
MAX_HILL_TRUNCATION = 65536
HILL_DETERMINANT_TRUNCATION = 25


@dataclass(frozen=True)
class GeneralParams:
    """Parameters of the general Mathieu equation; complex values are allowed."""

    h: complex
    theta: complex

    def __post_init__(self):
        admit_fields(self, complex_number, "h", "theta")


@dataclass(frozen=True)
class FloquetSolution:
    """Truncated series y(t) = sum c_n exp((mu + 2 i n) t), coeffs c_{-N..N}, c_0 = 1."""

    mu: complex
    coeffs: np.ndarray

    def __post_init__(self):
        admit_fields(self, complex_number, "mu")
        object.__setattr__(self, "coeffs", as_grid(self.coeffs, "coeffs", complex))
        if len(self.coeffs) % 2 == 0:
            raise InvalidParameterError(f"coeffs must have odd length, got {len(self.coeffs)}")

    @property
    def truncation(self) -> int:
        """N, fixed by the coefficients."""
        return len(self.coeffs) // 2


def general_mathieu_ode(gp: GeneralParams) -> LinearODE:
    """The equation as a LinearODE for the verification oracle.

    q is one expression, h - 2 theta cos 2t: on h's and theta's real parts and
    math.cos when both are real, so the oracle integrates a real equation in
    real arithmetic, and on cmath.cos otherwise.
    """
    h, theta, xp = gp.h, gp.theta, cmath
    if h.imag == 0.0 and theta.imag == 0.0:
        h, theta, xp = h.real, theta.real, math
    return equation(q=lambda t, xp=xp: h - 2.0 * theta * xp.cos(2.0 * t))


def _continuant(diag: list, off: list) -> complex:
    """Determinant of the tridiagonal matrix with diagonal diag and off[i] = a[i, i+1] a[i+1, i]."""
    det_prev, det = 1.0, diag[0]
    for d, e in zip(diag[1:], off):
        det_prev, det = det, d * det - e * det_prev
    return det


def hill_determinant(gp: GeneralParams, mu: complex) -> complex:
    """Truncated Hill determinant with rows scaled by w_n = 4n^2 + |h| + 1.

    The scaling is independent of mu, so roots are preserved while the
    determinant stays bounded as the truncation grows.  One that overflows
    (|mu| or |theta| far beyond that reach) raises RangeLimitError.
    """
    mu = complex_number("mu", mu)
    ns = range(-HILL_DETERMINANT_TRUNCATION, HILL_DETERMINANT_TRUNCATION + 1)
    w = [4.0 * n * n + abs(gp.h) + 1.0 for n in ns]
    shifted = [mu + 2.0j * n for n in ns]
    diag = [(gp.h + s * s) / wn for s, wn in zip(shifted, w)]
    off = [gp.theta * gp.theta / (wn * w_prev) for wn, w_prev in zip(w[1:], w)]
    return representable(f"the Hill determinant at mu = {mu!r}", lambda: _continuant(diag, off))


def _hill_seed(gp: GeneralParams) -> complex:
    """One member of the exponent class from Hill's formula, without integration.

    A truncation above MAX_HILL_TRUNCATION (|theta| beyond about 3e7, or |h|
    beyond about 4e9) raises ConvergenceError, as does a formula that overflows.
    """
    try:
        cosh_pi_mu = _hill_cosh_pi_mu(gp)
    except OverflowError:
        cosh_pi_mu = complex(math.inf)
    if not (math.isfinite(cosh_pi_mu.real) and math.isfinite(cosh_pi_mu.imag)):
        raise ConvergenceError(
            f"Hill's formula overflowed for h={gp.h!r}, theta={gp.theta!r}: cosh(pi mu) = {cosh_pi_mu!r}"
        )
    return cmath.acosh(cosh_pi_mu) / math.pi


def _hill_cosh_pi_mu(gp: GeneralParams) -> complex:
    """Hill's formula cosh(pi mu) = 1 - 2 Delta(0) sin^2(pi sqrt(h)/2).

    Whittaker & Watson 19.42; Delta(0) is the determinant at mu = 0 whose row
    n is divided by s_n = h - 4n^2.  The rows +-r nearest sqrt(h)/2 stay
    unscaled and their factor is folded into the sine, so the product stays
    finite where s_r vanishes; the truncated tail is restored as
    exp(-2 theta^2 sum_{n>N} 1/(s_n s_{n-1})).
    The w-scaled hill_determinant would carry a factor sinh^2(pi sqrt(|h|+1)/2)
    into this subtraction and cancel badly at large |h|.
    """
    h, th = gp.h, gp.theta
    x = cmath.sqrt(h)
    r = round(x.real / 2.0)
    x -= 2.0 * r
    half = math.pi * x / 2.0
    if abs(half) < 1e-3:
        sinc = math.pi / 2.0 * (1.0 - half * half / 6.0 + half**4 / 120.0)
    else:
        sinc = cmath.sin(half) / x
    g = sinc if r == 0 else sinc / (x + 4.0 * r)

    # N grows with sqrt|theta| so the neglected second-order tail stays below
    # ~1e-9 in this seed mu out to theta ~ 1e4 (6 sqrt|theta| leaves 1e-7 at
    # theta = 8000); the Fourier series built on it runs out of digits far
    # sooner (see solve)
    big_n = 20 + 12.0 * math.sqrt(abs(th)) + math.sqrt(abs(h))
    if big_n > MAX_HILL_TRUNCATION:
        raise ConvergenceError(f"Hill's formula needs truncation N={big_n:.3g} for h={h!r}, "
                               f"theta={th!r}: above {MAX_HILL_TRUNCATION}")
    big_n = int(big_n)
    rows = _hill_rows if big_n <= _CACHED_HILL_ROWS else _hill_rows.__wrapped__
    four_n2, four_m2, four_m1_2 = rows(big_n)
    s = h - four_n2
    # the pinned rows n = +-r (one row when r = 0): diagonal s_n, divisor 1
    diag = [1.0 + 0.0j] * len(s)
    for i in {big_n - r, big_n + r}:
        diag[i] = complex(s[i])
        s[i] = 1.0
    det = _continuant(diag, (th * th / (s[1:] * s[:-1])).tolist())
    # sum over m > N: exact to 4N, then the midpoint-rule integral of 1/(16 m^4)
    tail = np.sum(1.0 / ((four_m2 - h) * (four_m1_2 - h)))
    tail += 1.0 / (48.0 * (4 * big_n) ** 3)
    return 1.0 - 2.0 * det * cmath.exp(-2.0 * th * th * tail) * g * g


# _hill_rows keeps at most 64 truncations, each of N up to this many rows
_CACHED_HILL_ROWS = 1024


@functools.lru_cache(maxsize=64)
def _hill_rows(big_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mu-independent constants of Hill's formula at truncation N, read-only.

    4n^2 for |n| <= N (the rows of Delta(0)), then 4m^2 and 4(m-1)^2 for
    N < m <= 4N (the exact part of the tail sum).
    """
    n = np.arange(-big_n, big_n + 1)
    m = np.arange(big_n + 1, 4 * big_n + 1)
    rows = (4.0 * n * n, 4.0 * m * m, 4.0 * (m - 1) ** 2)
    for a in rows:
        a.flags.writeable = False
    return rows


def _secant(f, x0: complex, e0: tuple, xtol: float) -> tuple[complex, tuple]:
    """Secant search for a root of the value f(x)[0], started from x0 with e0 = f(x0).

    f returns (value, floor, ...): it stops once |value| is at its rounding
    floor, or once the step falls below xtol relative to the iterate.  Returns
    the last iterate and its evaluation, so nothing is evaluated twice.
    """
    x1 = x0 + 1e-9 * (1.0 + abs(x0))
    e1 = f(x1)
    stop = "after 80 iterations"
    for taken in range(80):
        f0, f1 = e0[0], e1[0]
        if f1 == f0:
            stop = f"on two equal values after {taken} iterations"
            break
        x_new = x1 - f1 * (x1 - x0) / (f1 - f0)
        if x_new == x1:
            return x1, e1
        x0, e0 = x1, e1
        x1 = x_new
        e1 = f(x1)
        if abs(e1[0]) <= e1[1] or abs(x1 - x0) <= xtol * max(1.0, abs(x1)):
            return x1, e1
    if abs(e1[0]) <= 1e-9:
        return x1, e1
    raise ConvergenceError(
        f"root search stalled: last iterate {x1!r}, |f|={abs(e1[0]):.3g} {stop}"
    )


def _sweep(gp: GeneralParams, mu: complex, depth: int) -> tuple[list, list]:
    """Coefficient ratios on both sides from one backward continued-fraction pass.

    Returns [r_1..r_depth] with r_n = c_n/c_{n-1} and [s_1..s_depth] with
    s_n = c_{-n}/c_{-(n-1)}; both satisfy ratio_n = theta / (d_{+-n} -
    theta*ratio_{n+1}), started from ratio_{depth+1} = 0, where d_n =
    h + (mu + 2in)^2 is the diagonal of row n.
    """
    h, th = gp.h, gp.theta
    r = s = 0j
    rs, ss = [], []
    for n in range(depth, 0, -1):
        up = mu + 2.0j * n
        down = mu - 2.0j * n
        denom = h + up * up - th * r
        r = th / (denom if denom != 0 else 1e-300)
        denom = h + down * down - th * s
        s = th / (denom if denom != 0 else 1e-300)
        rs.append(r)
        ss.append(s)
    rs.reverse()
    ss.reverse()
    return rs, ss


def _center_row(gp: GeneralParams, mu: complex, depth: int) -> tuple[complex, float, list, list]:
    """Centre-row defect d_0 - theta (r_1 + s_1) at mu, its rounding floor, and the ratios.

    The floor is a few ulps of |d_0| + |theta r_1| + |theta s_1|, the terms the
    defect cancels: below it the defect is noise, and so is its secant slope.
    """
    r, s = _sweep(gp, mu, depth)
    th = gp.theta
    d0 = gp.h + mu * mu
    floor = 8e-16 * (abs(d0) + abs(th * r[0]) + abs(th * s[0]))
    return d0 - th * (r[0] + s[0]), floor, r, s


def _shift_order(gp: GeneralParams, mu: complex, window: int):
    """Shifts n of mu + 2in, |n| <= window, in the order they are tried as the centre row.

    Listed 0, 1, -1, 2, -2, ... and stably sorted by |diagonal|, so ties keep
    that order; the smallest diagonal comes first, a tie with it within 1e-14
    relative going to the earlier shift (so theta = 0 degeneracies resolve
    deterministically).  A generator: the first shift costs one |diagonal|
    array and its minimum; the stable sort behind the rest is made only when
    _centre asks for a second row.  The listing is built once per window
    (_listed_shifts).
    """
    shifts = _listed_shifts(window)
    rows = mu + 2.0j * shifts
    diag = np.abs(gp.h + rows * rows)
    least = diag.min()
    first = int(np.argmax(diag <= least + 1e-14 * (1.0 + least)))
    yield int(shifts[first])
    order = np.argsort(diag, kind="stable")
    yield from shifts[order[order != first]].tolist()


@functools.lru_cache(maxsize=64)
def _listed_shifts(window: int) -> np.ndarray:
    """0, 1, -1, 2, -2, ..., window, -window, read-only."""
    n = np.arange(1, window + 1)
    shifts = np.zeros(2 * window + 1, dtype=int)
    shifts[1::2], shifts[2::2] = n, -n
    shifts.flags.writeable = False
    return shifts


def _centre(gp: GeneralParams, mu: complex, depth: int) -> tuple[complex, tuple | None]:
    """mu moved onto the first row whose centre-row defect passes the gate.

    One row can fail with mu exact: when a neighbouring diagonal makes one
    continued fraction sit next to a pole, theta*(r_1 + s_1) cancels to a
    large defect (at (h, theta) = (200, 50) row +7 shows 54.5 where row -7
    shows 1.7e-6).  The rows searched reach past n = -+sqrt(h)/2, where
    h + (mu + 2in)^2 nearly vanishes.  Returns the working exponent and its
    _center_row evaluation at depth (None for theta = 0, where nothing is swept).
    """
    first = None
    for shift in _shift_order(gp, mu, 40 + int(math.sqrt(abs(gp.h)) / 2)):
        mu_work = mu + 2.0j * shift
        if gp.theta == 0:
            return mu_work, None
        ev = _center_row(gp, mu_work, depth)
        d0 = abs(ev[0])
        if d0 <= 1e-4 * max(1.0, abs(gp.h + mu_work * mu_work)):
            return mu_work, ev
        first = d0 if first is None else first
    raise InvalidParameterError(
        f"mu={mu!r} does not solve the truncated system (center-row defect {first:.3g})"
    )


def _sweep_depth(gp: GeneralParams) -> int:
    """The depth the first sweep at (h, theta) starts from.

    A depth above MAX_DEPTH (|theta| above 4080^2, about 1.7e7) raises
    ConvergenceError before anything is swept.
    """
    depth = 16 + math.ceil(math.sqrt(abs(gp.theta)))
    if depth > MAX_DEPTH:
        raise ConvergenceError(
            f"first sweep depth N={depth:.3g} for theta={gp.theta!r} is above MAX_DEPTH={MAX_DEPTH}"
        )
    return depth


def fourier_series(gp: GeneralParams, mu: complex, ev: tuple | None = None,
                   polish: bool = False) -> tuple[complex, np.ndarray]:
    """Where a series of the recurrence at mu ends: mu and c_{-N..N}, c_0 = 1.

    ev, when given, is _center_row(gp, mu, _sweep_depth(gp)).  The sweep
    doubles its depth until the terms it reaches fall below CONVERGED_TAIL of
    the peak, where cutting it no longer moves the ratios.  With polish, mu is
    then moved once, at that depth, by a secant search on the centre-row
    defect that stops at the defect's rounding floor, and is not started when
    the defect is already there.  The series is cut where |c_n| falls below
    SERIES_TAIL of its peak.  A series whose terms leave double precision
    raises RangeLimitError; one still above CONVERGED_TAIL past MAX_DEPTH,
    or whose first depth is already above it, raises ConvergenceError.

    Each pass forms the running products of the ratios, c_1, c_2, ... and
    c_{-1}, c_{-2}, ..., once on Python scalars and reads these tests from
    their moduli, each divided by the peak; the array c_{-N..N} returned is
    built from the same products by one np.array.
    """
    ev = _center_row(gp, mu, _sweep_depth(gp)) if ev is None else ev
    while True:
        depth = len(ev[2])
        c_up, c_down = (list(itertools.accumulate(ratios, operator.mul)) for ratios in ev[2:])
        try:
            ups, downs = [abs(c) for c in c_up], [abs(c) for c in c_down]
        except OverflowError:  # a finite product whose modulus overflows
            ups = downs = [math.inf]
        # a product that leaves the finite numbers never returns, so the last
        # term on each side shows whether any did
        if not (math.isfinite(ups[-1]) and math.isfinite(downs[-1])):
            raise RangeLimitError(
                f"coefficient recursion degenerated for h={gp.h!r}, theta={gp.theta!r}, mu={mu!r}"
            )
        peak = max(1.0, max(ups), max(downs))
        tail = max(downs[-1] / peak, ups[-1] / peak)
        if tail > CONVERGED_TAIL:
            if depth >= MAX_DEPTH:
                raise ConvergenceError(
                    f"coefficient tail |c_N|/max = {tail:.3g} above {CONVERGED_TAIL:g} at N={depth}"
                )
            ev = _center_row(gp, mu, 2 * depth)
        elif polish and abs(ev[0]) > ev[1]:
            mu, ev = _secant(lambda m: _center_row(gp, m, depth), mu, ev, 5e-16)
            polish = False
        else:
            n = max(_reach(ups, peak), _reach(downs, peak))
            return mu, np.array(c_down[:n][::-1] + [1.0] + c_up[:n], dtype=complex)


def _reach(moduli: list, peak: float) -> int:
    """The largest n with |c_n|/peak above SERIES_TAIL on one side, 0 if there is none."""
    for n in range(len(moduli), 0, -1):
        if moduli[n - 1] / peak > SERIES_TAIL:
            return n
    return 0


def coefficients(gp: GeneralParams, mu: complex) -> FloquetSolution:
    """Series coefficients around the class member of mu that admits c_0 = 1.

    The series solves general_mathieu_ode(gp).  Any representative of the
    exponent class may be passed; the working exponent is recentered (on the
    smallest-diagonal row whose center-row defect passes the gate), then
    fourier_series deepens the sweep until it has converged, polishes mu once
    at that depth and ends the series, so all rows of the recurrence hold to
    machine accuracy at the returned mu.  Each exponent tried costs one
    two-sided sweep at each depth.
    """
    mu = complex_number("mu", mu)
    mu_work, ev = _centre(gp, mu, _sweep_depth(gp))
    if gp.theta == 0:
        # decoupled system: the exact exponent satisfies h + mu^2 = 0
        target = 1j * cmath.sqrt(gp.h)
        polished = target if abs(target - mu_work) <= abs(-target - mu_work) else -target
        if abs(polished - mu_work) > 1e-6 * max(1.0, abs(mu_work)):
            raise InvalidParameterError(f"mu={mu!r} does not solve the decoupled system for theta=0")
        return FloquetSolution(mu=polished, coeffs=np.ones(1, dtype=complex))
    polished, c = fourier_series(gp, mu_work, ev, polish=True)
    if class_distance(polished, mu_work) > 1e-5 * max(1.0, abs(mu_work)):
        raise InvalidParameterError(f"mu={mu!r} drifted to a different root during polishing")
    return FloquetSolution(mu=polished, coeffs=c)


def solve(gp: GeneralParams) -> FloquetSolution:
    """Exponent and series solving general_mathieu_ode(gp): Hill seed, then center-row polish.

    Hill's formula seeds the exponent without integrating the equation;
    coefficients() recenters it, polishes it on the center-row defect and
    builds the series.  A seed that does not polish to a root raises
    ConvergenceError.

    Supported range: at large |theta| with h below about 2|theta| the series
    runs out of double-precision digits (Re mu is 24-48 at (1, 2000)-(1, 8000),
    so |y| spans tens of decades over one period), and no error says so.
    Measured on 41 points of [0, pi], the residual of the returned series is
    8.3e-14 at (h, theta) = (1, 100), 9.8e-10 at (1, 500), 2.0e-6 at
    (1, 1000), 0.50 at (1, 2000), 0.40 at (1, 3000), 0.74 at (1, 4000) and 1
    at (1, 8000).  Check a series in that region with
    oracle.residual(general_mathieu_ode(gp), eval_floquet_grid(sol, grid)).
    """
    seed = _hill_seed(gp)
    try:
        sol = coefficients(gp, seed)
    except InvalidParameterError as exc:
        # the seed is this function's own, so a rejected seed is a failed solve
        raise ConvergenceError(f"Hill seed was not polished to a root: {exc}") from exc
    # canonical orientation: a purely oscillatory exponent points upward
    # (reflection t -> -t maps solutions to solutions, so this is free)
    if abs(sol.mu.real) <= 1e-12 and sol.mu.imag < -1e-12:
        sol = FloquetSolution(mu=-sol.mu, coeffs=sol.coeffs[::-1].copy())
    return sol


def characteristic_exponent(gp: GeneralParams) -> complex:
    """Canonical class representative of the Floquet exponent."""
    return normalize_exponent(solve(gp).mu)


def exponential_sum(coeffs: np.ndarray, rate: complex, frequency: float,
                    grid: np.ndarray) -> np.ndarray:
    """Rows y, y', y'' of sum_{n=-N..N} c_n e^{(rate + i n frequency) t} on a grid.

    coeffs holds c_{-N..N}, and the real frequency makes the sum a Fourier
    series times e^{rate t}.  The sum is centred on c_0: one Horner pass in
    x = e^{i frequency t} over c_1..c_N, one in 1/x = conj(x) over
    c_{-1}..c_{-N}, each starting at its outermost term (c_N x and
    c_{-N} conj(x)), then one prefactor e^{rate t}, so no exponent is scaled
    by N and no (points x terms) matrix is built.  Overflow is left to the
    caller as inf or nan.
    """
    n = (len(coeffs) - 1) // 2
    step = 1j * frequency
    with np.errstate(over="ignore", invalid="ignore"):
        rates = rate + step * np.arange(-n, n + 1)
        # one (3, 1) column per term, c_{-N} first; a pass starts at 0 + its first
        # column, so a -0 part of it sums as +0
        cols = np.stack([coeffs, rates * coeffs, rates * rates * coeffs], axis=1)[:, :, None]
        if n == 0:
            return (cols[0] + 0.0) * np.exp(rate * grid)
        x = np.exp(step * grid)
        up = (cols[-1] + 0.0) * x
        for col in cols[-2:n:-1]:
            up += col
            up *= x
        x_inv = x.conj()
        down = (cols[0] + 0.0) * x_inv
        for col in cols[1:n]:
            down += col
            down *= x_inv
        up += down
        up += cols[n]
        up *= np.exp(rate * grid)
    return up


def eval_floquet_grid(sol: FloquetSolution, grid) -> TimeSeries:
    """The series and its first two derivatives on a grid, solving general_mathieu_ode(gp)."""
    grid = as_grid(grid)
    y, dy, d2y = exponential_sum(sol.coeffs, sol.mu, 2.0, grid)
    return TimeSeries(grid=grid, y=y, dy=dy, d2y=d2y)


def eval_floquet(sol: FloquetSolution, t: float) -> SolutionSample:
    """The series and its first two derivatives at one time (see eval_floquet_grid)."""
    return eval_floquet_grid(sol, [t])[0]


def second_solution(sol: FloquetSolution) -> FloquetSolution:
    """The reflected solution exp(-mu t) P(-t): exponent -mu, coefficients reversed.

    It solves general_mathieu_ode(gp) where sol does, and the two are a general
    solution: their Wronskian at t = 0, W = -2 u(0) u'(0), is at least
    _PAIR_BOUND of the product of the two states' norms, u' measured in units
    of max(1, |mu|).  A pair below the bound (a tongue edge, where Ince's
    theorem leaves one periodic solution, or theta = 0 with |mu| below about
    2e-6) is dependent and raises SingularityError.
    """
    u, du = (abs(v) for v in exponential_sum(sol.coeffs, sol.mu, 2.0, np.zeros(1))[:2, 0].tolist())
    du /= max(1.0, float(abs(sol.mu)))
    # |W| / norm^2 = 2 |u| |u'| / (|u|^2 + |u'|^2), as a ratio r of the two so nothing overflows
    r = min(u, du) / max(u, du) if u + du > 0.0 else 0.0
    figure = 2.0 * r / (1.0 + r * r)
    if not figure >= _PAIR_BOUND:
        raise SingularityError(
            f"u(t) and u(-t) are dependent at mu = {sol.mu!r}: their Wronskian at t = 0 is "
            f"{figure:.3g} of the product of their norms (bound {_PAIR_BOUND:g})"
        )
    return FloquetSolution(mu=-sol.mu, coeffs=sol.coeffs[::-1].copy())


def classify_stability(mu: complex) -> str:
    """Stability chart semantics: growth means unstable, periodic edges are boundary.

    Growing solutions (|Re mu| above 1e-8) are unstable; bounded solutions
    whose multiplier sits at +-1 (Im mu within 1e-8 of an integer) lie on a
    tongue boundary; everything else is stable.  A non-finite mu raises
    InvalidParameterError.
    """
    mu = complex_number("mu", mu)
    if abs(mu.real) > 1e-8:
        return "unstable"
    if abs(mu.imag - round(mu.imag)) <= 1e-8:
        return "boundary"
    return "stable"
