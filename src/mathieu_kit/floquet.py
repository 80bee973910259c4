"""Floquet machinery for the general Mathieu equation y'' + (h - 2 theta cos 2t) y = 0.

The exponent mu is seeded by the integrator's period-map estimate, so it
lands in the physically selected class.  Coefficients of the series y = sum
c_n e^{(mu+2in)t} come from two one-sided backward continued fractions
meeting at n = 0, which satisfies every off-center row of the recurrence
exactly; polishing mu on the center-row defect makes the remaining row
machine-small.  The truncated Hill determinant (rows scaled by smooth
mu-independent weights so the infinite product converges) vanishes at the
same mu and is kept as an independent check.

The exponent stored on a FloquetSolution is the working one (the class member
the coefficients are centered on); characteristic_exponent reports the
canonical class representative instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DegeneracyError,
    DegenerateParametersError,
    InvalidParameterError,
)
from .exponent_class import class_distance, normalize_exponent
from .oracle import LinearODE, monodromy_exponent
from .samples import SolutionSample

DEFAULT_TRUNCATION = 25
MAX_TRUNCATION = 400
TAIL_RATIO = 1e-12
_CF_EXTRA = 25
_DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class GeneralParams:
    """Parameters of the general Mathieu equation; complex values are allowed."""

    h: complex
    theta: complex

    def __post_init__(self):
        for name in ("h", "theta"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise InvalidParameterError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class FloquetSolution:
    """Truncated series solution y(t) = sum c_n exp((mu + 2 i n) t), c_0 = 1."""

    mu: complex
    coeffs: np.ndarray
    truncation: int

    def coefficient(self, n: int) -> complex:
        if abs(n) > self.truncation:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.truncation])


def general_mathieu_ode(gp: GeneralParams) -> LinearODE:
    """The equation as a LinearODE for the verification oracle."""
    h, theta = gp.h, gp.theta
    return LinearODE(p=None, q=lambda t: h - 2.0 * theta * cmath.cos(2.0 * t))


def _diagonal(gp: GeneralParams, mu: complex, n: int) -> complex:
    shifted = mu + 2.0j * n
    return gp.h + shifted * shifted


def hill_determinant(gp: GeneralParams, mu: complex, trunc: int = DEFAULT_TRUNCATION) -> complex:
    """Truncated Hill determinant with rows scaled by w_n = 4n^2 + |h| + 1.

    The scaling is independent of mu, so roots are preserved while the
    determinant stays bounded as the truncation grows.
    """
    if trunc < 1:
        raise InvalidParameterError("truncation must be at least 1")
    w = lambda n: 4.0 * n * n + abs(gp.h) + 1.0
    th = gp.theta
    d_prev2 = 1.0 + 0.0j
    d_prev = _diagonal(gp, mu, -trunc) / w(-trunc)
    for n in range(-trunc + 1, trunc + 1):
        cur = (_diagonal(gp, mu, n) / w(n)) * d_prev - (th * th / (w(n) * w(n - 1))) * d_prev2
        d_prev2, d_prev = d_prev, cur
    return d_prev


def _secant(f, x0: complex, x1: complex, xtol: float, max_iter: int = 80) -> complex:
    f0, f1 = f(x0), f(x1)
    for _ in range(max_iter):
        if f1 == f0:
            break
        step = f1 * (x1 - x0) / (f1 - f0)
        x0, f0 = x1, f1
        x1 = x1 - step
        f1 = f(x1)
        if abs(x1 - x0) <= xtol * max(1.0, abs(x1)):
            return x1
    if abs(f1) <= 1e-9:
        return x1
    raise ConvergenceError(
        f"root search stalled: last iterate {x1!r}, |f|={abs(f1):.3g} after {max_iter} iterations"
    )


def _cf_ratios(gp: GeneralParams, mu: complex, side: int, count: int, depth: int) -> np.ndarray:
    """Backward continued fraction for the coefficient ratios on one side.

    side=+1 gives r_n = c_n/c_{n-1}, side=-1 gives s_n = c_{-n}/c_{-(n-1)};
    both satisfy ratio_n = theta / (d_{side*n} - theta*ratio_{n+1}).
    """
    th = gp.theta
    if th == 0:
        return np.zeros(count, dtype=complex)
    ratio = th / _diagonal(gp, mu, side * depth)
    for n in range(depth - 1, 0, -1):
        denom = _diagonal(gp, mu, side * n) - th * ratio
        if denom == 0:
            denom = 1e-300
        ratio = th / denom
        if n <= count:
            if n == count:
                out = np.empty(count, dtype=complex)
            out[n - 1] = ratio
    return out


def _center_row_defect(gp: GeneralParams, mu: complex, depth: int) -> complex:
    r = _cf_ratios(gp, mu, +1, 1, depth)
    s = _cf_ratios(gp, mu, -1, 1, depth)
    return _diagonal(gp, mu, 0) - gp.theta * (r[0] + s[0])


def _best_shift(gp: GeneralParams, mu: complex, trunc: int) -> int:
    # recenter so the smallest diagonal sits on row 0; ties prefer the
    # positive shift so theta=0 degeneracies resolve deterministically
    best_n = 0
    best = abs(_diagonal(gp, mu, 0))
    for n in range(1, trunc + 1):
        for cand in (n, -n):
            val = abs(_diagonal(gp, mu, cand))
            if val < best - 1e-14 * (1.0 + best):
                best = val
                best_n = cand
    return best_n


def coefficients(gp: GeneralParams, mu: complex, trunc: int = DEFAULT_TRUNCATION) -> FloquetSolution:
    """Series coefficients around the class member of mu that admits c_0 = 1.

    Any representative of the exponent class may be passed; the working
    exponent is recentered and then polished on the center-row defect, so all
    rows of the recurrence hold to machine accuracy at the returned mu.
    """
    if trunc < 5:
        raise InvalidParameterError("truncation must be at least 5")
    mu = complex(mu)
    shift = _best_shift(gp, mu, max(trunc, 40))
    mu_work = mu + 2.0j * shift

    n_work = trunc
    while True:
        depth = n_work + _CF_EXTRA
        polished = mu_work
        if gp.theta != 0:
            defect = lambda m: _center_row_defect(gp, m, depth)
            d0 = abs(defect(mu_work))
            scale = max(1.0, abs(_diagonal(gp, mu_work, 0)))
            if d0 > 1e-4 * scale:
                raise InvalidParameterError(
                    f"mu={mu!r} does not solve the truncated system (center-row defect {d0:.3g})"
                )
            if d0 > 0.0:
                polished = _secant(defect, mu_work, mu_work + 1e-9 * (1.0 + abs(mu_work)), 5e-16)
            if class_distance(polished, mu_work) > 1e-5 * max(1.0, abs(mu_work)):
                raise InvalidParameterError(
                    f"mu={mu!r} drifted to a different root during polishing"
                )
        else:
            # decoupled system: the exact exponent satisfies h + mu^2 = 0
            target = 1j * cmath.sqrt(gp.h)
            polished = target if abs(target - mu_work) <= abs(-target - mu_work) else -target
            if abs(polished - mu_work) > 1e-6 * max(1.0, abs(mu_work)):
                raise InvalidParameterError(
                    f"mu={mu!r} does not solve the decoupled system for theta=0"
                )
        r = _cf_ratios(gp, polished, +1, n_work, depth)
        s = _cf_ratios(gp, polished, -1, n_work, depth)
        c = np.zeros(2 * n_work + 1, dtype=complex)
        c[n_work] = 1.0
        c[n_work + 1 :] = np.cumprod(r)
        c[:n_work] = np.cumprod(s)[::-1]
        if not np.all(np.isfinite(c.view(float))):
            raise DegenerateParametersError(
                f"coefficient recursion degenerated for h={gp.h!r}, theta={gp.theta!r}, mu={polished!r}"
            )
        peak = float(np.max(np.abs(c)))
        tail = max(abs(c[0]), abs(c[-1]))
        if tail <= TAIL_RATIO * peak:
            return FloquetSolution(mu=polished, coeffs=c, truncation=n_work)
        if n_work >= MAX_TRUNCATION:
            raise ConvergenceError(
                f"coefficient tail |c_N|/max = {tail / peak:.3g} above {TAIL_RATIO:g} at N={n_work}"
            )
        n_work = min(2 * n_work, MAX_TRUNCATION)


def solve(gp: GeneralParams, trunc: int = DEFAULT_TRUNCATION) -> FloquetSolution:
    """Exponent and coefficients together: oracle seed, then center-row polish.

    The period-map estimate seeds the exponent; coefficients() recenters it,
    polishes it on the center-row defect and builds the series.
    """
    if trunc < 5:
        raise InvalidParameterError("truncation must be at least 5")
    seed = monodromy_exponent(general_mathieu_ode(gp), math.pi, 1e-12).mu
    try:
        sol = coefficients(gp, seed, trunc)
    except InvalidParameterError as exc:
        # the seed is this function's own, so a rejected seed is a failed solve
        raise ConvergenceError(f"oracle seed was not polished to a root: {exc}") from exc
    # canonical orientation: a purely oscillatory exponent points upward
    # (reflection t -> -t maps solutions to solutions, so this is free)
    if abs(sol.mu.real) <= 1e-12 and sol.mu.imag < -1e-12:
        sol = FloquetSolution(mu=-sol.mu, coeffs=sol.coeffs[::-1].copy(),
                              truncation=sol.truncation)
    return sol


def characteristic_exponent(gp: GeneralParams, trunc: int = DEFAULT_TRUNCATION) -> complex:
    """Canonical class representative of the Floquet exponent."""
    return normalize_exponent(solve(gp, trunc).mu)


def exponent_details(gp: GeneralParams) -> tuple[complex, complex]:
    """(canonical representative, working exponent) for the same solution."""
    sol = solve(gp)
    return normalize_exponent(sol.mu), sol.mu


def eval_floquet(sol: FloquetSolution, t: float) -> SolutionSample:
    """Evaluate the truncated series with analytic first and second derivatives."""
    t = float(t)
    n = np.arange(-sol.truncation, sol.truncation + 1)
    rates = sol.mu + 2.0j * n
    terms = sol.coeffs * np.exp(rates * t)
    y = complex(np.sum(terms))
    dy = complex(np.sum(rates * terms))
    d2y = complex(np.sum(rates * rates * terms))
    return SolutionSample(t=t, y=y, dy=dy, d2y=d2y)


def second_solution(sol: FloquetSolution) -> FloquetSolution:
    """The reflected solution exp(-mu t) P(-t): exponent -mu, coefficients reversed.

    Fails when i*mu is an integer (exponent class self-paired), where the
    reflected series is not guaranteed independent.
    """
    mu = sol.mu
    if abs(mu.real) <= _DEGENERACY_TOL and abs(mu.imag - round(mu.imag)) <= _DEGENERACY_TOL:
        raise DegeneracyError(
            f"i*mu = {1j * mu:.6g} is an integer: the reflected solution is not independent"
        )
    return FloquetSolution(mu=-mu, coeffs=sol.coeffs[::-1].copy(), truncation=sol.truncation)


def classify_stability(mu: complex) -> str:
    """Stability chart semantics: growth means unstable, periodic edges are boundary.

    Growing solutions (|Re mu| above 1e-8) are unstable; bounded solutions
    whose multiplier sits at +-1 (Im mu within 1e-8 of an integer) lie on a
    tongue boundary; everything else is stable.
    """
    mu = complex(mu)
    if abs(mu.real) > 1e-8:
        return "unstable"
    if abs(mu.imag - round(mu.imag)) <= 1e-8:
        return "boundary"
    return "stable"
