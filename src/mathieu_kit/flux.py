"""Flux-lattice oscillator: driven responses, induced field, and demodulation.

The displacement obeys m y'' + eta y' + (k0 + k cos(omega t)) y =
(B J0 / c) cos(Omega t): a damped oscillator with slowly modulated stiffness
under a fast microwave drive.  In the separated-scales regime (k << |k0|,
omega << Omega, m Omega^2 << |k0|) the induced electric field is an
amplitude-modulated carrier whose modulation depth is the stiffness-modulation
ratio epsilon = k/k0.  This module carries the closed-form steady states, the
induced-field model, the full simulation, and the quadrature demodulation that
measures the depth from simulated data.

Convention: the induced field is taken as E(t) = -(B/c) dy/dt, the choice that
reproduces the model prefactor B^2 J0 Omega / (|k0| c^2) in the stated regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .closed_form import DampedParams
from .errors import InvalidParameterError, ResonanceError, SpanError
from .oracle import LinearODE, integrate
from .samples import SolutionSample, TimeSeries

REGIME_RATIO = 0.02
LOWPASS_CARRIER_PERIODS = 8


@dataclass(frozen=True)
class FluxParams:
    """Oscillator coefficients plus drive and unit constants."""

    base: DampedParams
    B: float
    J0: float
    Omega: float
    c_light: float

    def __post_init__(self):
        for name in ("B", "J0", "Omega", "c_light"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise InvalidParameterError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.Omega <= 0:
            raise InvalidParameterError(f"drive frequency must be positive, got {self.Omega!r}")
        if self.c_light <= 0:
            raise InvalidParameterError(f"light velocity must be positive, got {self.c_light!r}")

    @property
    def drive_amplitude(self) -> float:
        return self.B * self.J0 / self.c_light


@dataclass(frozen=True)
class SinusoidalResponse:
    """x(t) = amplitude * cos(frequency * t - phase)."""

    amplitude: float
    frequency: float
    phase: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise InvalidParameterError("amplitude must be nonnegative")
        if not (-math.pi < self.phase <= math.pi):
            raise InvalidParameterError("phase must lie in (-pi, pi]")

    def evaluate(self, t: float) -> SolutionSample:
        t = float(t)
        arg = self.frequency * t - self.phase
        a, f = self.amplitude, self.frequency
        return SolutionSample(
            t=t,
            y=a * math.cos(arg),
            dy=-a * f * math.sin(arg),
            d2y=-a * f * f * math.cos(arg),
        )


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


def stiffness(params: DampedParams, t: float) -> float:
    """Instantaneous stiffness k0 + k cos(omega t)."""
    return params.k0 + params.k * math.cos(params.omega * float(t))


def _driven_response(m: float, eta: float, k0: float,
                     force: float, freq: float, force_phase: float) -> SinusoidalResponse:
    """Steady state of m x'' + eta x' + k0 x = force * cos(freq t - force_phase)."""
    re = k0 - m * freq * freq
    im = eta * freq
    if re == 0.0 and im == 0.0:
        raise ResonanceError(
            f"undamped resonance at frequency {freq!r}: no bounded steady state"
        )
    denom = math.hypot(re, im)
    amp = abs(force) / denom
    phase = force_phase + math.atan2(im, re)
    if force < 0:
        phase += math.pi
    return SinusoidalResponse(amplitude=amp, frequency=freq, phase=_wrap_phase(phase))


def particular_k0(fp: FluxParams) -> SinusoidalResponse:
    """Steady state with the stiffness modulation switched off (k = 0)."""
    b = fp.base
    return _driven_response(b.m, b.eta, b.k0, fp.drive_amplitude, fp.Omega, 0.0)


def linearized_delta(fp: FluxParams) -> tuple[SinusoidalResponse, SinusoidalResponse]:
    """First-order displacement correction from the stiffness modulation.

    The product -k cos(omega t) * y0(t) splits into drives at Omega + omega and
    Omega - omega; each is solved as its own driven oscillator.  Returned in
    (upper sideband, lower sideband) order.
    """
    b = fp.base
    y0 = particular_k0(fp)
    force = -b.k * y0.amplitude / 2.0
    out = []
    for freq in (fp.Omega + b.omega, fp.Omega - b.omega):
        out.append(_driven_response(b.m, b.eta, b.k0, force, freq, y0.phase))
    return (out[0], out[1])


def _validity(fp: FluxParams) -> str:
    b = fp.base
    reasons = []
    if abs(b.k) > REGIME_RATIO * abs(b.k0):
        reasons.append(f"|k|/|k0| = {abs(b.k) / abs(b.k0):.3g} > {REGIME_RATIO}")
    if abs(b.omega) > REGIME_RATIO * fp.Omega:
        reasons.append(f"omega/Omega = {abs(b.omega) / fp.Omega:.3g} > {REGIME_RATIO}")
    if b.m * fp.Omega ** 2 > REGIME_RATIO * abs(b.k0):
        reasons.append(
            f"m Omega^2 / |k0| = {b.m * fp.Omega ** 2 / abs(b.k0):.3g} > {REGIME_RATIO}"
        )
    if not reasons:
        return "in-regime"
    return "out-of-regime: " + "; ".join(reasons)


def induced_field_model(fp: FluxParams) -> InducedFieldModel:
    """Separated-scales model of the induced field (parameters only)."""
    b = fp.base
    if b.k0 == 0:
        raise InvalidParameterError("k0 must be nonzero for the induced-field model")
    return InducedFieldModel(
        epsilon=b.k / b.k0,
        phi=math.atan2(2.0 * b.eta * b.omega, b.k0),
        alpha=math.atan2(b.eta * fp.Omega, b.k0),
        prefactor=fp.B ** 2 * fp.J0 * fp.Omega / (abs(b.k0) * fp.c_light ** 2),
        validity=_validity(fp),
    )


def induced_field(fp: FluxParams, t: float) -> tuple[float, InducedFieldModel]:
    """Model field value at t together with the model parameters."""
    model = induced_field_model(fp)
    b = fp.base
    t = float(t)
    value = (
        model.prefactor
        * (1.0 - model.epsilon * math.cos(b.omega * t - model.phi))
        * math.sin(fp.Omega * t - model.alpha)
    )
    return value, model


def symmetric_case_solution(fp: FluxParams, y_at_0: float) -> Callable[[float], SolutionSample]:
    """Exact first-order-balance solution y(t) = y(0) + B J0 sin(Omega t)/(2 c eta Omega).

    Valid when the even-displacement symmetry reduces the dynamics to
    eta y' = (B J0 / 2c) cos(Omega t); requires damping.
    """
    b = fp.base
    if b.eta == 0:
        raise InvalidParameterError("symmetric-case solution requires nonzero damping")
    scale = fp.drive_amplitude / (2.0 * b.eta)

    def solution(t: float) -> SolutionSample:
        t = float(t)
        return SolutionSample(
            t=t,
            y=y_at_0 + scale * math.sin(fp.Omega * t) / fp.Omega,
            dy=scale * math.cos(fp.Omega * t),
            d2y=-scale * fp.Omega * math.sin(fp.Omega * t),
        )

    return solution


def full_ode(fp: FluxParams) -> LinearODE:
    """The driven modulated oscillator in normal form."""
    b = fp.base
    rate = b.eta / b.m
    force = fp.drive_amplitude / b.m
    return LinearODE(
        p=(lambda t: rate) if rate != 0 else None,
        q=lambda t: (b.k0 + b.k * math.cos(b.omega * t)) / b.m,
        f=lambda t: force * math.cos(fp.Omega * t),
    )


def simulate_full(fp: FluxParams, span: tuple[float, float], tol: float,
                  t_eval: Optional[np.ndarray] = None,
                  y0: complex = 0.0, dy0: complex = 0.0) -> TimeSeries:
    """Integrate the full equation with the verification oracle."""
    return integrate(full_ode(fp), y0, dy0, span, tol, t_eval=t_eval)


def field_from_motion(fp: FluxParams, series: TimeSeries) -> TimeSeries:
    """Induced field samples E = -(B/c) dy/dt, with analytic derivatives.

    The field's own derivatives chain through the equation of motion, so the
    returned series is residual-checkable and FFT-ready.
    """
    b = fp.base
    scale = -fp.B / fp.c_light
    grid = np.asarray(series.grid, dtype=float)
    y = np.asarray(series.y)
    dy = np.asarray(series.dy)
    d2y = np.asarray(series.d2y)
    q = (b.k0 + b.k * np.cos(b.omega * grid)) / b.m
    dq = -b.k * b.omega * np.sin(b.omega * grid) / b.m
    df = -fp.drive_amplitude * fp.Omega * np.sin(fp.Omega * grid) / b.m
    d3y = df - (b.eta / b.m) * d2y - dq * y - q * dy
    return TimeSeries(
        grid=grid,
        y=scale * dy,
        dy=scale * d2y,
        d2y=scale * d3y,
        meta={"signal": "induced-field", "convention": "E = -(B/c) dy/dt"},
    )


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
    if x == 0.0:
        return 1.0
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
