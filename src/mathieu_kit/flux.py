"""Flux-lattice oscillator: driven responses, induced field, and its modulation.

The displacement obeys m y'' + eta y' + (k0 + k cos(omega t)) y =
(B J0 / c) cos(Omega t): a damped oscillator with slowly modulated stiffness
under a fast microwave drive.  In the separated-scales regime (k << |k0|,
omega << Omega, m Omega^2 << |k0|) the induced electric field is an
amplitude-modulated carrier whose modulation depth is the stiffness-modulation
ratio epsilon = k/k0.  This module carries the closed-form steady states, the
induced-field model, and the modulation figures two ways:

- steady_state_modulation, exact: the steady field's carrier amplitude and
  modulation depth and phase, read off its sideband amplitudes with no time
  grid.  `mathieu-kit flux --analyze` reports these;
- modulation_analysis and identify_frequencies, the quadrature demodulation
  and spectrum of a sampled field: the independent measurement the exact
  figures are tested against.

It also carries two independent solutions of the full equation from rest:

- closed_form_motion, with no stepper: the sideband steady state (floquet's
  recurrence at the drive exponent, with the source on its centre row) plus
  the Floquet transient from floquet.solve.  It refuses (a typed error) a
  transient whose parts exceed the motion by more than CANCELLATION_BOUND,
  whose fit to rest would cancel the digits it needs, and a motion whose
  oracle.residual on the grid exceeds RESIDUAL_BOUND, so its accuracy does not
  depend on a tolerance; on the flux regime its residual reads about 2e-16;
- simulate_full, the verification oracle's DOPRI5 integration, kept as the
  reference the closed form is tested against.

motion_from_rest, the path `mathieu-kit flux` takes, uses the closed form and
turns to simulate_full, at the fixed STEPPER_TOL, only for the jobs the closed
form refuses: a Floquet series floquet.solve cannot build or that misses the
equation (large |theta| = 2|k|/(m omega^2) with h below about 2|theta|), a
Floquet pair too dependent to fit rest (a tongue edge), or an exact sideband
resonance.

Convention: the induced field is taken as E(t) = -(B/c) dy/dt, the choice that
reproduces the model prefactor B^2 J0 Omega / (|k0| c^2) in the stated regime.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import floquet
from .closed_form import DampedParams
from .errors import (ConvergenceError, InvalidParameterError, ResonanceError, SingularityError,
                     SpanError)
from .oracle import LinearODE, equation, integrate, residual
from .reductions import damped_to_general
from .samples import TimeSeries, admit_fields, as_grid, real_number, representable

REGIME_RATIO = 0.02
LOWPASS_CARRIER_PERIODS = 8
# phases per modulation period at which steady_state_modulation samples the
# envelope; its j-th harmonic is about (k/2k0)^j of its mean, so aliasing
# stays far below rounding unless k approaches k0
ENVELOPE_POINTS = 256
# closed_form_motion refuses a motion whose oracle.residual linf exceeds this
RESIDUAL_BOUND = 1e-9
# motion_from_rest integrates the jobs closed_form_motion refuses at this tolerance.
# The stepper's error falls about tenfold per decade of tol: the worst routed job
# of scripts/flux_census.py --count 100 reads 2.6e-11 off a tol-1e-13 oracle,
# 38 times inside the census's agreement bound 1e-9 (2.4e-9 at tol 1e-10)
STEPPER_TOL = 1e-12
# closed_form_motion refuses a transient whose larger part, max|c_i u_i| on the
# grid, exceeds this multiple of the motion's scale: the sum cancels the digits
# the answer needs.  With eta = 0 at scipy's 21 tongue edges (q = 0.5, 1, 2) it
# reads at most 1.2e4 1e-10 off an edge (errors at most 5.1e-11), and at an exact
# edge 0.07-0.28 where rest lies in the pair's span, else 5.7e4-4e14 (errors to 0.6)
CANCELLATION_BOUND = 5e4


@dataclass(frozen=True)
class FluxParams:
    """Oscillator coefficients plus drive and unit constants."""

    base: DampedParams
    B: float
    J0: float
    Omega: float
    c_light: float

    def __post_init__(self):
        admit_fields(self, real_number, "B", "J0", "Omega", "c_light")
        if self.Omega <= 0:
            raise InvalidParameterError(f"drive frequency must be positive, got {self.Omega!r}")
        if self.c_light <= 0:
            raise InvalidParameterError(f"light velocity must be positive, got {self.c_light!r}")

    @property
    def drive_amplitude(self) -> float:
        return self.B * self.J0 / self.c_light

    @property
    def field_scale(self) -> float:
        """-B/c: the induced field is E = field_scale * y'."""
        return -self.B / self.c_light


@dataclass(frozen=True)
class SinusoidalResponse:
    """x(t) = amplitude * cos(frequency * t - phase)."""

    amplitude: float
    frequency: float
    phase: float

    def __post_init__(self):
        admit_fields(self, real_number, "amplitude", "frequency", "phase")
        if self.amplitude < 0:
            raise InvalidParameterError("amplitude must be nonnegative")
        if not (-math.pi < self.phase <= math.pi):
            raise InvalidParameterError("phase must lie in (-pi, pi]")

    def evaluate(self, grid) -> TimeSeries:
        """x and its first two derivatives on a grid (see particular_k0, linearized_delta)."""
        grid = as_grid(grid)
        a, f = self.amplitude, self.frequency
        with np.errstate(over="ignore", invalid="ignore"):  # refused by TimeSeries
            arg = f * grid - self.phase
            y, dy, d2y = a * np.cos(arg), -a * f * np.sin(arg), -a * f * f * np.cos(arg)
        return TimeSeries(grid=grid, y=y, dy=dy, d2y=d2y)


@dataclass(frozen=True)
class InducedFieldModel:
    """E(t) = prefactor * (1 - epsilon cos(omega t - phi)) * sin(Omega t - alpha)."""

    epsilon: float
    phi: float
    alpha: float
    prefactor: float
    validity: str


@dataclass(frozen=True)
class ModulationResult:
    carrier_amplitude: float
    modulation_depth: float
    modulation_phase: float


def _wrap_phase(phase: float) -> float:
    wrapped = math.remainder(phase, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def _stiffness(b: DampedParams, freq: float) -> complex:
    """D(f) = k0 - m f^2 + i eta f: the oscillator's response to e^{i f t} is 1/D(f)."""
    return complex(b.k0 - b.m * freq * freq, b.eta * freq)


def _driven_response(b: DampedParams, force: complex, freq: float) -> SinusoidalResponse:
    """Steady state Re x e^{i freq t} of m x'' + eta x' + k0 x = Re force e^{i freq t}."""
    d = _stiffness(b, freq)
    if d == 0:
        raise ResonanceError(f"undamped resonance at frequency {freq!r}: no bounded steady state")
    x = force / d
    # a zero response has phase 0, whatever the signs of its zeros
    phase = _wrap_phase(-cmath.phase(x)) if x else 0.0
    return SinusoidalResponse(amplitude=abs(x), frequency=freq, phase=phase)


def particular_k0(fp: FluxParams) -> SinusoidalResponse:
    """Steady state of m x'' + eta x' + k0 x = (B J0 / c) cos(Omega t): full_ode at k = 0."""
    return _driven_response(fp.base, fp.drive_amplitude, fp.Omega)


def linearized_delta(fp: FluxParams) -> tuple[SinusoidalResponse, SinusoidalResponse]:
    """First-order displacement correction from the stiffness modulation.

    The product -k cos(omega t) * y0(t) splits into drives at Omega + omega and
    Omega - omega, each solved as its own driven oscillator: the pair sums to
    a solution of m d'' + eta d' + k0 d = -k cos(omega t) y0(t), y0 =
    particular_k0(fp).  Returned in (upper sideband, lower sideband) order.
    """
    b, y0 = fp.base, particular_k0(fp)
    force = -b.k * y0.amplitude / 2.0 * cmath.exp(-1j * y0.phase)
    return tuple(_driven_response(b, force, f) for f in (fp.Omega + b.omega, fp.Omega - b.omega))


def _validity(fp: FluxParams) -> str:
    b = fp.base
    reasons = []
    if abs(b.k) > REGIME_RATIO * abs(b.k0):
        reasons.append(f"|k|/|k0| = {abs(b.k) / abs(b.k0):.3g} > {REGIME_RATIO}")
    if abs(b.omega) > REGIME_RATIO * fp.Omega:
        reasons.append(f"omega/Omega = {abs(b.omega) / fp.Omega:.3g} > {REGIME_RATIO}")
    if b.m * (fp.Omega * fp.Omega) > REGIME_RATIO * abs(b.k0):
        reasons.append(
            f"m Omega^2 / |k0| = {b.m * (fp.Omega * fp.Omega) / abs(b.k0):.3g} > {REGIME_RATIO}"
        )
    if not reasons:
        return "in-regime"
    return "out-of-regime: " + "; ".join(reasons)


def induced_field_model(fp: FluxParams) -> InducedFieldModel:
    """Separated-scales model of the induced field (parameters only)."""
    b = fp.base
    if b.k0 == 0:
        raise InvalidParameterError("k0 must be nonzero for the induced-field model")
    prefactor = representable("the induced-field prefactor B^2 J0 Omega / (|k0| c^2)",
                              lambda: fp.B ** 2 * fp.J0 * fp.Omega / (abs(b.k0) * fp.c_light ** 2))
    return InducedFieldModel(
        epsilon=b.k / b.k0,
        phi=math.atan2(2.0 * b.eta * b.omega, b.k0),
        alpha=math.atan2(b.eta * fp.Omega, b.k0),
        prefactor=prefactor,
        validity=_validity(fp),
    )


def symmetric_case_solution(fp: FluxParams, y_at_0: float, grid) -> TimeSeries:
    """Exact first-order-balance solution y(t) = y(0) + B J0 sin(Omega t)/(2 c eta Omega).

    Sampled on a grid, with its first two derivatives.  Valid when the
    even-displacement symmetry reduces the dynamics to
    eta y' = (B J0 / 2c) cos(Omega t); requires damping.
    """
    b = fp.base
    if b.eta == 0:
        raise InvalidParameterError("symmetric-case solution requires nonzero damping")
    y_at_0 = real_number("y_at_0", y_at_0)
    scale = fp.drive_amplitude / (2.0 * b.eta)
    grid = as_grid(grid)
    sin, cos = np.sin(fp.Omega * grid), np.cos(fp.Omega * grid)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by TimeSeries
        y, dy, d2y = y_at_0 + scale * sin / fp.Omega, scale * cos, -scale * fp.Omega * sin
    return TimeSeries(grid=grid, y=y, dy=dy, d2y=d2y)


def full_ode(fp: FluxParams) -> LinearODE:
    """The driven modulated oscillator in normal form."""
    b = fp.base
    force = fp.drive_amplitude / b.m
    return equation(p=b.eta / b.m,
                    q=lambda t, xp=math: (b.k0 + b.k * xp.cos(b.omega * t)) / b.m,
                    f=lambda t, xp=math: force * xp.cos(fp.Omega * t))


def simulate_full(fp: FluxParams, span: tuple[float, float], tol: float,
                  t_eval: np.ndarray) -> TimeSeries:
    """The full equation, full_ode(fp), from rest at span[0], integrated by the
    verification oracle and sampled at t_eval."""
    return integrate(full_ode(fp), 0.0, 0.0, span, tol, t_eval=t_eval)


def sideband_amplitudes(fp: FluxParams) -> np.ndarray:
    """Amplitudes a_{-N..N} of the steady state y_p = Re sum a_n e^{i(Omega + n omega) t}.

    Row n of Hill's system is D_n a_n + (k/2)(a_{n-1} + a_{n+1}) = F delta_{n0},
    with D_n = k0 - m (Omega + n omega)^2 + i eta (Omega + n omega) and F the
    drive amplitude.  Off row 0 it is floquet's recurrence at the damped
    reduction and the drive exponent mu_d = (eta/2m + i Omega) 2/omega, times
    m omega^2/4, so floquet's sweep at mu_d gives r_n = a_n/a_{n-1} and
    s_n = a_{-n}/a_{-(n-1)}, and a_0 = F / (D_0 + (k/2)(r_1 + s_1)).
    floquet.fourier_series decides where the sum ends, as it does for every
    Floquet series.  A zero pivot is an exact resonance (with k = 0: D_0 = 0
    at eta = 0) and raises ResonanceError; amplitudes beyond double precision
    raise RangeLimitError.
    """
    b = fp.base
    red = damped_to_general(b)
    mu_d = complex(red.prefactor_rate, fp.Omega) * red.time_scale
    d0 = _stiffness(b, fp.Omega)
    _, c = floquet.fourier_series(red.gp, mu_d)
    n = len(c) // 2
    pivot = d0 + (b.k / 2.0) * complex(c[n + 1] + c[n - 1]) if n else d0
    if pivot == 0:
        raise ResonanceError(
            f"drive frequency {fp.Omega!r} is at an exact resonance: no bounded steady state")
    return representable("the steady-state sideband amplitudes a_n = (F/pivot) c_n",
                         lambda: (fp.drive_amplitude / pivot) * c)


def steady_state_modulation(fp: FluxParams) -> ModulationResult:
    """Carrier amplitude and modulation depth/phase of the steady-state field, exactly.

    The steady field is E = Re e^{i Omega t} Z(t), Z = sum b_n e^{i n omega t},
    with b_n = -(B/c) i (Omega + n omega) a_n from sideband_amplitudes.  Its
    envelope |Z| is sampled at ENVELOPE_POINTS phases of one modulation
    period; the mean is the carrier amplitude A, and the first harmonic h1
    (per |omega| t) gives the depth |h1|/A and the phase psi of the envelope
    model A (1 - d cos(|omega| t - psi)), the model modulation_analysis fits.
    No grid, span or floquet.solve is involved; an exact resonance raises
    ResonanceError, and amplitudes or a field beyond double precision raise
    RangeLimitError.
    """
    b = fp.base
    a = sideband_amplitudes(fp)
    n = (len(a) - 1) // 2
    phase = 2.0 * math.pi * np.arange(ENVELOPE_POINTS) / ENVELOPE_POINTS

    def envelope():
        side = (-fp.B / fp.c_light) * 1j * (fp.Omega + b.omega * np.arange(-n, n + 1)) * a
        # Z at |omega| t = phase: e^{i n omega t} = e^{i n sign(omega) phase}
        env = np.abs(floquet.exponential_sum(side, 0.0, math.copysign(1.0, b.omega), phase)[0])
        return env, float(np.mean(env))

    env, carrier = representable("the steady field's envelope |Z|", envelope)
    if carrier == 0.0:
        return ModulationResult(carrier_amplitude=0.0, modulation_depth=0.0, modulation_phase=0.0)
    h1 = 2.0 * np.mean(env * np.exp(-1j * phase))
    return ModulationResult(carrier_amplitude=carrier,
                            modulation_depth=float(abs(h1)) / carrier,
                            modulation_phase=_wrap_phase(math.atan2(h1.imag, -h1.real)))


def closed_form_motion(fp: FluxParams, start: float, grid) -> TimeSeries:
    """The motion from rest, y(start) = y'(start) = 0, on a grid, with no stepper.

    y = y_p + y_h.  y_p is the sideband steady state (sideband_amplitudes);
    y_h = e^{-eta t/2m} (c1 u(omega t/2) + c2 u(-omega t/2)), where u is
    floquet.solve's series at reductions.damped_to_general's (h, theta), and
    c1, c2 cancel y_p and y_p' at start.  Each part is summed by
    floquet.exponential_sum as a Fourier series at frequency omega.

    The result solves full_ode(fp) and checks itself.  The fit's cancellation,
    the larger transient part's max|c_i u_i| on the grid over the motion's
    scale (max|y| there, or sum |a_n| if larger), must stay within
    CANCELLATION_BOUND (u(z) and u(-z) near dependent, at a tongue edge, fit
    rest only by cancelling), or SingularityError names it, as it does a zero
    determinant.  oracle.residual against full_ode(fp) on the grid must stay
    within RESIDUAL_BOUND, or ConvergenceError names it and its worst t.  A
    non-finite motion raises RangeLimitError; an exact resonance raises
    ResonanceError.
    """
    grid = as_grid(grid)
    start = real_number("start", start)
    here = np.array([start])
    omega = fp.base.omega
    a = sideband_amplitudes(fp)
    motion = floquet.exponential_sum(a, 1j * fp.Omega, omega, grid)
    # y_h and y_h' at start: minus the steady state's
    want = -floquet.exponential_sum(a, 1j * fp.Omega, omega, here)[:2, 0].real

    red = damped_to_general(fp.base)
    decay = red.prefactor_rate
    sol = floquet.solve(red.gp)
    rate = sol.mu / red.time_scale
    pair = ((sol.coeffs, rate - decay), (sol.coeffs[::-1], -rate - decay))
    (u, du), (v, dv) = (floquet.exponential_sum(c, r, omega, here)[:2, 0] for c, r in pair)
    det = u * dv - du * v
    if det == 0:
        raise SingularityError(
            f"u(z) and u(-z) are dependent at mu = {sol.mu!r}: |det| = 0 of "
            f"{abs(u * dv) + abs(du * v):.3g}, so no transient fits rest at t = {start:g}")
    c1 = (want[0] * dv - want[1] * v) / det
    c2 = (u * want[1] - du * want[0]) / det
    # a decaying part is summed only while its bound |c| sum|c_n rate_n^k| e^{Re rate t}
    # exceeds floquet.SERIES_TAIL of the steady state's (the same cut as the sidebands');
    # an infinite or NaN bound skips the cut, and an overflow is left to TimeSeries
    part_top = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        floor = floquet.SERIES_TAIL * _bound(a, 1j * fp.Omega, omega)
        for c, (coeffs, r) in zip((c1, c2), pair):
            bound = abs(c) * _bound(coeffs, r, omega)
            end = len(grid)
            if r.real < 0 and floor > 0 and bound < math.inf:
                end = np.searchsorted(grid, math.log(floor / bound) / r.real) if bound else 0
            part = c * floquet.exponential_sum(coeffs, r, omega, grid[:end])
            motion[:, :end] += part
            part_top = max(part_top, float(np.max(np.abs(part[0]), initial=0.0)))
    y, dy, d2y = motion.real
    # the motion's scale: sum |a_n| bounds |y_p|, so a grid at rest still has one
    top = max(float(np.max(np.abs(y))), float(np.abs(a).sum()))
    # a NaN figure (an overflowing part) is left to TimeSeries' RangeLimitError
    figure = part_top / top if top else 0.0
    if figure > CANCELLATION_BOUND:
        raise SingularityError(
            f"u(z) and u(-z) are dependent at mu = {sol.mu!r}: fitting rest at t = {start:g} "
            f"takes transient parts {figure:.3g} times the motion (bound {CANCELLATION_BOUND:g})")
    series = TimeSeries(grid=grid, y=y, dy=dy, d2y=d2y)
    rep = residual(full_ode(fp), series)
    if not rep.linf <= RESIDUAL_BOUND:
        raise ConvergenceError(
            f"closed-form motion misses its equation by {rep.linf:.3g} relative at "
            f"t = {grid[np.argmax(rep.pointwise)]:.6g} (bound {RESIDUAL_BOUND:g})")
    return series


def motion_from_rest(fp: FluxParams, start: float, grid) -> tuple[TimeSeries, str]:
    """The motion from rest at start on a grid, and how it was found.

    closed_form_motion where it answers ("closed form"); simulate_full at
    STEPPER_TOL where it refuses with ConvergenceError, SingularityError (a
    cancellation above CANCELLATION_BOUND) or ResonanceError, the inputs its
    series cannot represent but a stepper can ("stepper: " and the refusal).
    Either way the motion depends on fp, start and grid alone.  A motion that
    overflows raises RangeLimitError: the stepper cannot finish it either.
    """
    try:
        return closed_form_motion(fp, start, grid), "closed form"
    except (ConvergenceError, SingularityError, ResonanceError) as exc:
        grid = as_grid(grid)
        ts = simulate_full(fp, (start, float(grid[-1])), STEPPER_TOL, t_eval=grid)
        return ts, f"stepper: {type(exc).__name__}: {exc}"


def _bound(coeffs: np.ndarray, rate: complex, frequency: float) -> float:
    """Largest of sum |c_n (rate + i n frequency)^k|, k = 0, 1, 2: a bound on the rows of
    floquet.exponential_sum at t = 0."""
    n = (len(coeffs) - 1) // 2
    mags = np.abs(rate + 1j * frequency * np.arange(-n, n + 1))
    weights = np.abs(coeffs)
    return float(max(weights.sum(), weights @ mags, weights @ (mags * mags)))


def field_from_motion(fp: FluxParams, series: TimeSeries) -> TimeSeries:
    """Induced field samples E = -(B/c) dy/dt (fp.field_scale dy/dt), with analytic derivatives.

    The field's own derivatives chain through the equation of motion, so the
    returned series is residual-checkable and FFT-ready.
    """
    b = fp.base
    scale = fp.field_scale
    grid = np.asarray(series.grid, dtype=float)
    y, dy, d2y = (np.asarray(v) for v in (series.y, series.dy, series.d2y))
    q = (b.k0 + b.k * np.cos(b.omega * grid)) / b.m
    dq = -b.k * b.omega * np.sin(b.omega * grid) / b.m
    df = -fp.drive_amplitude * fp.Omega * np.sin(fp.Omega * grid) / b.m
    with np.errstate(over="ignore", invalid="ignore"):  # refused by TimeSeries
        d3y = df - (b.eta / b.m) * d2y - dq * y - q * dy
        y, dy, d2y = scale * dy, scale * d2y, scale * d3y
    return TimeSeries(grid=grid, y=y, dy=dy, d2y=d2y)


def _uniform_samples(series: TimeSeries) -> tuple[np.ndarray, np.ndarray, float]:
    """(grid, real signal, step) of a uniformly sampled series of two or more samples."""
    grid = np.asarray(series.grid, dtype=float)
    if len(grid) < 2:
        raise SpanError(f"need at least two samples, got {len(grid)}")
    steps = np.diff(grid)
    dt = float(steps[0])
    if dt <= 0 or np.max(np.abs(steps - dt)) > 1e-9 * dt:
        raise InvalidParameterError("demodulation requires a uniform sample grid")
    return grid, np.asarray(series.y).real, dt


def _moving_average_gain(freq: float, window: int, dt: float) -> float:
    # Dirichlet attenuation of a length-L boxcar at angular frequency freq
    x = freq * dt / 2.0
    return abs(math.sin(window * x) / (window * math.sin(x)))


def _envelope(signal: np.ndarray, grid: np.ndarray, carrier: float, dt: float) -> tuple[np.ndarray, int]:
    """Signal mixed down at the carrier, boxcar-averaged over a fixed number of
    carrier periods: (envelope magnitude, boxcar length)."""
    window = max(int(round(LOWPASS_CARRIER_PERIODS * (2.0 * math.pi / max(carrier, 1e-300)) / dt)), 2)
    if window >= len(grid):
        raise SpanError("series too short for the demodulation window")
    mixed = 2.0 * signal * np.exp(-1j * carrier * grid)
    kernel = np.full(window, 1.0 / window)
    return np.abs(np.convolve(mixed, kernel, mode="valid")), window


def modulation_analysis(series: TimeSeries, Omega: float, omega: float) -> ModulationResult:
    """Measure carrier amplitude and modulation depth/phase by demodulation.

    Quadrature-mixes the signal at the carrier, low-passes with a boxcar
    spanning a fixed number of carrier periods, and least-squares fits the
    envelope to A (1 - d cos(omega t - psi)); the boxcar's attenuation at the
    modulation frequency is divided back out of the depth.
    """
    Omega, omega = real_number("Omega", Omega), real_number("omega", omega)
    if Omega <= 0 or omega <= 0:
        raise InvalidParameterError("frequencies must be positive")
    grid, signal, dt = _uniform_samples(series)
    span = grid[-1] - grid[0]
    if span < 3.0 * (2.0 * math.pi / omega):
        raise SpanError(
            f"series spans {span:.3g}, need at least three modulation periods "
            f"({3.0 * 2.0 * math.pi / omega:.3g})"
        )
    envelope, window = _envelope(signal, grid, Omega, dt)
    t_env = grid[window - 1 :] - (window - 1) * dt / 2.0

    basis = np.column_stack(
        [np.ones_like(t_env), np.cos(omega * t_env), np.sin(omega * t_env)]
    )
    coef, *_ = np.linalg.lstsq(basis, envelope, rcond=None)
    carrier = float(coef[0])
    if carrier <= 0:
        return ModulationResult(carrier_amplitude=abs(carrier),
                                modulation_depth=0.0, modulation_phase=0.0)
    gain = _moving_average_gain(omega, window, dt)
    depth = math.hypot(coef[1], coef[2]) / (carrier * gain)
    # envelope model A(1 - d cos(w t - psi)): cos coefficient is -A d cos psi
    psi = math.atan2(-coef[2], -coef[1])
    return ModulationResult(carrier_amplitude=carrier,
                            modulation_depth=float(depth),
                            modulation_phase=_wrap_phase(psi))


def identify_frequencies(series: TimeSeries) -> tuple[float, float]:
    """(carrier, modulation) angular frequencies from the spectrum.

    The carrier is the strongest nonzero line of the signal; the modulation is
    the strongest nonzero line of the demodulated envelope magnitude.
    """
    grid, signal, dt = _uniform_samples(series)
    n = len(signal)
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n, d=dt)
    spectrum = np.abs(np.fft.rfft(signal - np.mean(signal)))
    spectrum[0] = 0.0
    carrier = float(freqs[int(np.argmax(spectrum))])

    envelope, _ = _envelope(signal, grid, carrier, dt)
    env = envelope - np.mean(envelope)
    m = len(env)
    efreqs = 2.0 * math.pi * np.fft.rfftfreq(m, d=dt)
    espec = np.abs(np.fft.rfft(env))
    espec[0] = 0.0
    modulation = float(efreqs[int(np.argmax(espec))])
    return carrier, modulation
