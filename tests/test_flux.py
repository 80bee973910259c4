from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathieu_kit import floquet, flux, oracle
from mathieu_kit.closed_form import DampedParams
from mathieu_kit.errors import (
    ConvergenceError,
    InvalidParameterError,
    RangeLimitError,
    ResonanceError,
    SingularityError,
    SpanError,
)
from mathieu_kit.flux import (
    FluxParams,
    InducedFieldModel,
    closed_form_motion,
    field_from_motion,
    full_ode,
    identify_frequencies,
    induced_field_model,
    linearized_delta,
    modulation_analysis,
    motion_from_rest,
    particular_k0,
    sideband_amplitudes,
    simulate_full,
    steady_state_modulation,
    symmetric_case_solution,
)
from mathieu_kit.samples import TimeSeries


def make_fp(m=1.0, eta=0.5, k0=9.0, k=0.05, omega=0.05,
            B=1.0, J0=1.0, Omega=1.2, c_light=1.0) -> FluxParams:
    return FluxParams(base=DampedParams(m=m, eta=eta, k0=k0, k=k, omega=omega),
                      B=B, J0=J0, Omega=Omega, c_light=c_light)


def synthetic_series(model: InducedFieldModel, Omega: float, omega: float,
                     periods: float = 3.3, per_carrier: int = 64) -> TimeSeries:
    dt = 2.0 * math.pi / (per_carrier * Omega)
    grid = np.arange(0.0, periods * 2.0 * math.pi / omega, dt)
    envelope = 1.0 - model.epsilon * np.cos(omega * grid - model.phi)
    e = model.prefactor * envelope * np.sin(Omega * grid - model.alpha)
    zeros = np.zeros_like(grid, dtype=complex)
    return TimeSeries(grid=grid, y=e.astype(complex), dy=zeros, d2y=zeros.copy())


def test_stiffness_values():
    # with m = 1 the equation's q is the stiffness k0 + k cos(omega t)
    fp = make_fp(m=1.0, eta=0.0, k0=4.0, k=0.5, omega=2.0)
    _, q, _ = full_ode(fp).coefficients_on(np.array([0.0, math.pi / 2.0]))
    assert q == pytest.approx([4.5, 3.5])
    _, q0, _ = full_ode(make_fp(m=1.0, eta=0.0, k0=4.0, k=0.0, omega=2.0)).coefficients_on(
        np.array([0.0, 0.7, 3.1]))
    assert q0 == pytest.approx([4.0, 4.0, 4.0])


def test_flux_params_validation_and_drive():
    with pytest.raises(InvalidParameterError):
        make_fp(Omega=0.0)
    with pytest.raises(InvalidParameterError):
        make_fp(Omega=-1.0)
    with pytest.raises(InvalidParameterError):
        make_fp(c_light=0.0)
    fp = make_fp(B=2.0, J0=3.0, c_light=4.0)
    assert fp.drive_amplitude == pytest.approx(1.5)


def test_particular_k0_pinned_amplitudes():
    # k0 = 2 m Omega^2, no damping: amplitude B J0 / (c m Omega^2), zero lag
    fp = make_fp(eta=0.0, k0=2.0 * 1.0 * 1.2**2, Omega=1.2)
    resp = particular_k0(fp)
    assert resp.amplitude == pytest.approx(1.0 / 1.2**2)
    assert resp.phase == pytest.approx(0.0)
    assert resp.frequency == pytest.approx(1.2)
    # stiffness-dominated limit: amplitude ~ B J0 / (c k0)
    fp2 = make_fp(eta=0.0, k0=4000.0, Omega=1.2)
    resp2 = particular_k0(fp2)
    assert resp2.amplitude == pytest.approx(1.0 / 4000.0, rel=1e-3)


def test_particular_k0_resonance():
    with pytest.raises(ResonanceError):
        particular_k0(make_fp(eta=0.0, k0=1.44, Omega=1.2, m=1.0))


def test_particular_k0_solves_its_equation():
    fp = make_fp()
    resp = particular_k0(fp)
    b = fp.base
    s = resp.evaluate(np.linspace(0.0, 25.0, 301))
    force = fp.drive_amplitude * np.cos(fp.Omega * s.grid)
    worst = np.max(np.abs(b.m * s.d2y + b.eta * s.dy + b.k0 * s.y - force))
    assert worst < 1e-10 * max(1.0, fp.drive_amplitude)


def test_linearized_delta_zero_modulation():
    fp = make_fp(k=0.0)
    upper, lower = linearized_delta(fp)
    assert upper.amplitude == 0.0
    assert lower.amplitude == 0.0


def test_a_response_in_antiphase_reports_phase_pi():
    # undamped, each response is real and phases lie in (-pi, pi]: the lower
    # sideband here is -0.889 + 0j, whose phase -pi is reported as pi
    _, lower = linearized_delta(make_fp(m=1.0, eta=0.0, k0=1.0, k=1.0, omega=1.0, Omega=0.5))
    assert lower.phase == math.pi
    # and so is a drive above resonance
    assert particular_k0(make_fp(m=1.0, eta=0.0, k0=1.0, k=0.0, Omega=2.0)).phase == math.pi


def test_linearized_delta_solves_its_equation():
    fp = make_fp()
    b = fp.base
    y0 = particular_k0(fp)
    upper, lower = linearized_delta(fp)
    assert upper.frequency == pytest.approx(fp.Omega + b.omega)
    assert lower.frequency == pytest.approx(fp.Omega - b.omega)
    grid = np.linspace(0.0, 40.0, 401)
    su, sl, s0 = upper.evaluate(grid), lower.evaluate(grid), y0.evaluate(grid)
    lhs = (b.m * (su.d2y + sl.d2y) + b.eta * (su.dy + sl.dy)
           + b.k0 * (su.y + sl.y))
    rhs = -b.k * np.cos(b.omega * grid) * s0.y
    worst = np.max(np.abs(lhs - rhs))
    assert worst < 1e-10 * max(1.0, abs(y0.amplitude))


def test_linearized_delta_sideband_resonance():
    bad = make_fp(eta=0.0, m=1.0, Omega=2.0, omega=0.3, k0=(2.3) ** 2)
    with pytest.raises(ResonanceError):
        linearized_delta(bad)


def test_linearized_delta_static_limit():
    # slow modulation in the stiffness-dominated regime acts as a stiffness shift
    fp = make_fp(eta=1e-4, k0=400.0, k=4.0, omega=1e-4, Omega=0.05)
    y0 = particular_k0(fp)
    upper, lower = linearized_delta(fp)
    delta0 = upper.evaluate([0.0]).y[0] + lower.evaluate([0.0]).y[0]
    assert delta0 == pytest.approx(-(4.0 / 400.0) * y0.evaluate([0.0]).y[0], rel=1e-4)


def test_induced_field_model_identities():
    fp = make_fp(m=1.1, eta=0.7, k0=16.0, k=0.2, omega=0.04, Omega=1.3,
                 B=2.0, J0=0.5, c_light=3.0)
    b = fp.base
    model = induced_field_model(fp)
    assert model.epsilon == b.k / b.k0
    assert math.tan(model.phi) == pytest.approx(2.0 * b.eta * b.omega / b.k0, rel=1e-12)
    assert math.tan(model.alpha) == pytest.approx(b.eta * fp.Omega / b.k0, rel=1e-12)
    assert model.prefactor == pytest.approx(
        fp.B**2 * fp.J0 * fp.Omega / (abs(b.k0) * fp.c_light**2))


@given(eta=st.floats(min_value=0.0, max_value=2.0),
       k0=st.floats(min_value=1.0, max_value=50.0),
       k=st.floats(min_value=-0.5, max_value=0.5),
       omega=st.floats(min_value=0.005, max_value=0.2),
       Omega=st.floats(min_value=0.5, max_value=3.0))
def test_induced_field_model_identity_property(eta, k0, k, omega, Omega):
    fp = make_fp(eta=eta, k0=k0, k=k, omega=omega, Omega=Omega)
    model = induced_field_model(fp)
    assert model.epsilon == pytest.approx(k / k0, rel=1e-14, abs=1e-300)
    assert math.tan(model.phi) == pytest.approx(2.0 * eta * omega / k0, rel=1e-9, abs=1e-12)
    assert math.tan(model.alpha) == pytest.approx(eta * Omega / k0, rel=1e-9, abs=1e-12)


def test_induced_field_undamped_phases_vanish():
    model = induced_field_model(make_fp(eta=0.0))
    assert model.phi == 0.0
    assert model.alpha == 0.0


def test_induced_field_pinned_example():
    fp = make_fp(m=1.0, eta=0.0, k0=1.0, k=0.0, omega=0.05,
                 B=1.0, J0=1.0, Omega=10.0, c_light=1.0)
    grid = np.array([0.0, 0.1, 0.33])
    model = induced_field_model(fp)
    field = (model.prefactor * (1.0 - model.epsilon * np.cos(fp.base.omega * grid - model.phi))
             * np.sin(fp.Omega * grid - model.alpha))
    assert field == pytest.approx(10.0 * np.sin(10.0 * grid), abs=1e-12)
    assert model.prefactor == pytest.approx(10.0)
    assert model.epsilon == 0.0


def test_induced_field_requires_restoring_constant():
    with pytest.raises(InvalidParameterError):
        induced_field_model(make_fp(k0=0.0))


def test_validity_names_a_squared_drive_past_double_precision():
    # m Omega^2 overflows to inf, as the other ratios' quotients do, not to OverflowError
    fp = make_fp(m=2.0, eta=1e300, k0=-1.0, k=1e-300, omega=1e300, B=1e-300, J0=0.0,
                 Omega=1e300, c_light=1e154)
    assert induced_field_model(fp).validity == (
        "out-of-regime: omega/Omega = 1 > 0.02; m Omega^2 / |k0| = inf > 0.02")


def test_validity_flags():
    good = make_fp(m=1.0, eta=2.0, k0=100.0, k=1.0, omega=0.01, Omega=1.0)
    assert induced_field_model(good).validity == "in-regime"
    fast_mod = make_fp(m=1.0, eta=2.0, k0=100.0, k=1.0, omega=0.9, Omega=1.0)
    v = induced_field_model(fast_mod).validity
    assert v.startswith("out-of-regime")
    assert "omega/Omega" in v
    deep_mod = make_fp(m=1.0, eta=2.0, k0=100.0, k=50.0, omega=0.01, Omega=1.0)
    assert "k" in induced_field_model(deep_mod).validity
    light = make_fp(m=1.0, eta=2.0, k0=1.0, k=0.01, omega=0.01, Omega=1.0)
    assert "Omega^2" in induced_field_model(light).validity


def test_symmetric_case_solution():
    fp = make_fp(eta=0.8, B=2.0, J0=1.5, Omega=1.1, c_light=2.0)
    s = symmetric_case_solution(fp, y_at_0=0.3, grid=[0.0, 0.7, 2.2, 5.9])
    assert s.y[0] == pytest.approx(0.3)
    drive_half = fp.B * fp.J0 / (2.0 * fp.c_light)
    assert s.dy[0] == pytest.approx(drive_half / 0.8)
    # eta * y' = (B J0 / 2c) cos(Omega t) identically
    assert 0.8 * s.dy == pytest.approx(drive_half * np.cos(fp.Omega * s.grid), abs=1e-15)
    expected = 0.3 + drive_half * np.sin(fp.Omega * s.grid) / (0.8 * fp.Omega)
    assert s.y == pytest.approx(expected, rel=1e-14)
    with pytest.raises(InvalidParameterError):
        symmetric_case_solution(make_fp(eta=0.0), 0.0, [0.0])


def test_full_ode_coefficients():
    fp = make_fp(m=2.0, eta=0.6, k0=5.0, k=0.3, omega=0.7, B=1.2, J0=0.8, c_light=2.0)
    ode = full_ode(fp)
    t = 1.7
    (pv,), (qv,), (fv,) = ode.coefficients_on(np.array([t]))
    assert pv == pytest.approx(0.3)
    assert qv == pytest.approx((5.0 + 0.3 * math.cos(0.7 * t)) / 2.0)
    assert fv == pytest.approx(1.2 * 0.8 / (2.0 * 2.0) * math.cos(fp.Omega * t))


def test_simulate_full_converges_to_steady_state():
    fp = make_fp(m=1.0, eta=1.0, k0=9.0, k=0.0, omega=1.0, Omega=2.0)
    resp = particular_k0(fp)
    t_tail = np.linspace(35.0, 38.0, 61)  # far past the decay time m/eta
    series = simulate_full(fp, (0.0, 38.0), 1e-10, t_eval=t_tail)
    worst = np.max(np.abs(series.y - resp.evaluate(t_tail).y))
    assert worst < 1e-6 * resp.amplitude


def test_simulate_full_invariant_orbit():
    fp = make_fp(eta=0.0, k0=9.0, k=0.0, Omega=2.0)
    resp = particular_k0(fp)
    t_eval = np.linspace(0.0, 20.0, 201)
    s = resp.evaluate(t_eval)
    # the steady orbit itself, not rest, so no transient is excited
    series = oracle.integrate(full_ode(fp), s.y[0], s.dy[0], (0.0, 20.0), 1e-11, t_eval=t_eval)
    worst = np.max(np.abs(series.y - s.y))
    assert worst < 1e-8 * max(resp.amplitude, 1e-300)


def test_field_from_motion_relations():
    fp = make_fp()
    t_eval = np.linspace(0.0, 12.0, 257)
    series = simulate_full(fp, (0.0, 12.0), 1e-10, t_eval=t_eval)
    field = field_from_motion(fp, series)
    # the one convention, which the CLI's field column reads too
    scale = fp.field_scale
    assert scale == -fp.B / fp.c_light
    assert np.allclose(field.y, scale * series.dy, rtol=0, atol=0)
    assert np.allclose(field.dy, scale * series.d2y, rtol=0, atol=0)
    # third derivative follows the differentiated equation of motion
    mid = np.gradient(np.asarray(field.dy).real, t_eval)
    interior = slice(8, -8)
    assert np.allclose(mid[interior], np.asarray(field.d2y).real[interior],
                       rtol=2e-3, atol=2e-3 * np.max(np.abs(field.d2y)))


def test_modulation_analysis_synthetic_depth():
    base = DampedParams(m=1.0, eta=2.0, k0=2500.0, k=25.0, omega=0.5)
    fp = FluxParams(base=base, B=1.0, J0=1.0, Omega=50.0, c_light=1.0)
    model = induced_field_model(fp)
    series = synthetic_series(model, 50.0, 0.5)
    result = modulation_analysis(series, 50.0, 0.5)
    assert result.modulation_depth == pytest.approx(model.epsilon, abs=1e-4)
    assert result.carrier_amplitude == pytest.approx(model.prefactor, rel=1e-3)
    assert result.modulation_phase == pytest.approx(model.phi, abs=1e-3)


def test_modulation_analysis_unmodulated():
    grid = np.arange(0.0, 45.0, 2.0 * math.pi / (64 * 7.0))
    zeros = np.zeros_like(grid, dtype=complex)
    pure = TimeSeries(grid=grid, y=(0.7 * np.sin(7.0 * grid)).astype(complex),
                      dy=zeros, d2y=zeros.copy())
    result = modulation_analysis(pure, 7.0, 0.5)
    assert result.modulation_depth <= 1e-6
    assert result.carrier_amplitude == pytest.approx(0.7, rel=1e-6)
    # a silent field has no carrier, and so no depth or phase
    silent = modulation_analysis(TimeSeries(grid=grid, y=zeros, dy=zeros, d2y=zeros.copy()), 7.0, 0.5)
    assert (silent.carrier_amplitude, silent.modulation_depth, silent.modulation_phase) == (0, 0, 0)


def test_modulation_analysis_span_guards():
    base = DampedParams(m=1.0, eta=2.0, k0=2500.0, k=25.0, omega=0.5)
    fp = FluxParams(base=base, B=1.0, J0=1.0, Omega=50.0, c_light=1.0)
    model = induced_field_model(fp)
    short = synthetic_series(model, 50.0, 0.5, periods=2.0)
    with pytest.raises(SpanError):
        modulation_analysis(short, 50.0, 0.5)
    ok = synthetic_series(model, 50.0, 0.5)
    with pytest.raises(InvalidParameterError):
        modulation_analysis(ok, 50.0, -0.5)
    # a slow carrier needs a longer averaging window than the series holds
    grid = np.arange(0.0, 45.0, 0.5)
    zeros = np.zeros_like(grid, dtype=complex)
    slow = TimeSeries(grid=grid, y=np.sin(0.2 * grid).astype(complex),
                      dy=zeros, d2y=zeros.copy())
    with pytest.raises(SpanError):
        modulation_analysis(slow, 0.2, 0.5)


def test_modulation_analysis_requires_uniform_grid():
    grid = np.sort(np.concatenate([np.arange(0.0, 45.0, 0.01), [44.9971]]))
    zeros = np.zeros_like(grid, dtype=complex)
    series = TimeSeries(grid=grid, y=np.sin(7.0 * grid).astype(complex),
                        dy=zeros, d2y=zeros.copy())
    with pytest.raises(InvalidParameterError):
        modulation_analysis(series, 7.0, 0.5)


def test_identify_frequencies_synthetic():
    base = DampedParams(m=1.0, eta=2.0, k0=2500.0, k=25.0, omega=0.5)
    fp = FluxParams(base=base, B=1.0, J0=1.0, Omega=50.0, c_light=1.0)
    model = induced_field_model(fp)
    series = synthetic_series(model, 50.0, 0.5, periods=6.0)
    carrier, modulation = identify_frequencies(series)
    bin_width = 2.0 * math.pi / (series.grid[-1] - series.grid[0])
    assert abs(carrier - 50.0) <= bin_width
    assert abs(modulation - 0.5) <= bin_width


@pytest.mark.parametrize("n", [0, 1])
def test_analysis_of_fewer_than_two_samples_is_a_span_error(n):
    grid = np.arange(float(n))
    zeros = np.zeros(n, dtype=complex)
    series = TimeSeries(grid=grid, y=zeros, dy=zeros, d2y=zeros)
    with pytest.raises(SpanError):
        identify_frequencies(series)
    with pytest.raises(SpanError):
        modulation_analysis(series, 7.0, 0.5)


# ------------------------------------------------------- closed-form motion

FLUX_DEMOD_DT = 2.0 * math.pi / 64.0


def flux_demod_fp(ratio: float) -> FluxParams:
    # k/k0 = omega/Omega = m Omega^2/k0 = ratio, as in the flux_demod workload
    return make_fp(m=1.0, eta=2.0, k0=1.0 / ratio, k=1.0, omega=ratio, Omega=1.0)


def _uniform(t0, t1, dt):
    return t0 + dt * np.arange(int(round((t1 - t0) / dt)) + 1)


DIFFERENTIAL_JOBS = {
    # the workload's ratios on its own sampling, from rest at 0 through t0 = 17.5
    "flux_demod-0.012": (flux_demod_fp(0.012), _uniform(17.5, 80.0, FLUX_DEMOD_DT)),
    "flux_demod-0.016": (flux_demod_fp(0.016), _uniform(0.0, 60.0, FLUX_DEMOD_DT)),
    "flux_demod-0.02": (flux_demod_fp(0.02), _uniform(17.5, 80.0, FLUX_DEMOD_DT)),
    "t0<0": (make_fp(), _uniform(-5.0, 20.0, 0.05)),
    "k=0": (make_fp(k=0.0), _uniform(0.0, 20.0, 0.05)),
    "k0<0": (make_fp(k0=-1.0, eta=1.0), _uniform(0.0, 20.0, 0.05)),
    "undamped-stable": (make_fp(eta=0.0), _uniform(0.0, 50.0, 0.05)),
    # eta = 0 with D_1 = k0 - m (Omega + omega)^2 = 0: the modulation detunes
    # the sideband, so this is no resonance and the steady state exists
    "undamped-D1=0": (make_fp(eta=0.0, k0=4.0, k=0.1, omega=1.0, Omega=1.0),
                      _uniform(0.0, 30.0, 0.05)),
    # theta = 0 with sqrt(h) = 2: mu = 2i, yet u(z) = e^{2iz} and u(-z) are independent
    "theta=0-integer-sqrt-h": (make_fp(eta=0.0, k0=1.0, k=0.0, omega=1.0, Omega=1.5),
                               _uniform(0.0, 20.0, 0.05)),
}


@pytest.mark.parametrize("name", list(DIFFERENTIAL_JOBS))
def test_closed_form_motion_matches_a_tight_oracle(name):
    fp, grid = DIFFERENTIAL_JOBS[name]
    start = min(0.0, float(grid[0]))
    motion = closed_form_motion(fp, start, grid)
    ref = simulate_full(fp, (start, float(grid[-1])), 1e-13, t_eval=grid)
    assert motion.d2y.dtype == np.float64
    for got, want in ((motion.y, ref.y), (motion.dy, ref.dy)):
        assert np.max(np.abs(got - want.real)) <= 1e-10 * np.max(np.abs(want))
    # rest at the span start, even when the grid starts later
    at_start = closed_form_motion(fp, start, [start])
    assert abs(at_start.y[0]) <= 1e-13 * np.max(np.abs(ref.y))
    assert abs(at_start.dy[0]) <= 1e-13 * np.max(np.abs(ref.dy))


@pytest.mark.parametrize("k", [1e-2, 1e-3])
def test_sidebands_reduce_to_the_first_order_responses(k):
    fp = make_fp(k=k)
    a = sideband_amplitudes(fp)
    n = (len(a) - 1) // 2
    phasor = lambda resp: resp.amplitude * complex(math.cos(resp.phase), -math.sin(resp.phase))
    y0 = phasor(particular_k0(fp))
    upper, lower = (phasor(r) for r in linearized_delta(fp))
    # a_0 = y0 + O(k^2) and a_{+-1} = first-order sideband + O(k^3)
    eps = k / fp.base.k0
    assert abs(a[n] - y0) <= 10 * eps**2 * abs(y0)
    assert abs(a[n + 1] - upper) <= 10 * eps**2 * abs(upper)
    assert abs(a[n - 1] - lower) <= 10 * eps**2 * abs(lower)
    assert abs(a[n + 1]) > 0.1 * eps * abs(y0)


@pytest.mark.parametrize("name", ["flux_demod-0.012", "flux_demod-0.016", "flux_demod-0.02",
                                  "undamped-stable", "k0<0", "undamped-D1=0"])
def test_sidebands_solve_hills_system_in_flux_units(name):
    # row n: D_n a_n + (k/2)(a_{n-1} + a_{n+1}) = F delta_{n0}, checked on the
    # interior rows, whose neighbours were both kept
    fp = DIFFERENTIAL_JOBS[name][0]
    b = fp.base
    a = sideband_amplitudes(fp)
    n_keep = (len(a) - 1) // 2
    assert n_keep > 0
    half_k, force = b.k / 2.0, fp.drive_amplitude
    for n in range(-n_keep + 1, n_keep):
        lam = fp.Omega + n * b.omega
        i = n + n_keep
        diag = complex(b.k0 - b.m * lam * lam, b.eta * lam) * a[i]
        source = force if n == 0 else 0.0
        row = diag + half_k * (a[i - 1] + a[i + 1]) - source
        scale = abs(diag) + abs(half_k) * (abs(a[i - 1]) + abs(a[i + 1])) + abs(source)
        assert abs(row) <= 64 * 2.2e-16 * scale, (n, abs(row) / scale)


def test_unmodulated_steady_state_is_one_line():
    a = sideband_amplitudes(make_fp(k=0.0))
    assert len(a) == 1
    resp = particular_k0(make_fp(k=0.0))
    assert abs(a[0]) == pytest.approx(resp.amplitude, rel=1e-14)


def test_closed_form_motion_runs_no_stepper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle's stepper was called")
    monkeypatch.setattr(oracle, "_integrate_raw", refuse)
    monkeypatch.setattr(oracle, "integrate", refuse)
    fp, grid = DIFFERENTIAL_JOBS["flux_demod-0.016"]
    assert np.all(np.isfinite(closed_form_motion(fp, 0.0, grid).y))


def test_series_outside_its_precision_is_refused():
    # reduces to (h, theta) = (1, 3000), where floquet.solve's series misses
    # its own equation by about 5e-7 (its known large-theta limit)
    fp = make_fp(eta=0.2, k0=0.0125, k=-15.0, omega=0.1)
    with pytest.raises(ConvergenceError, match=r"misses its equation by .* \(bound 1e-09\)"):
        closed_form_motion(fp, 0.0, np.linspace(0.0, 20.0, 401))


def test_an_overflowing_transient_is_refused():
    # undamped and unstable: the transient grows like e^{10 t} and overflows
    fp = make_fp(eta=0.0, k0=-100.0, k=0.5, omega=1.0)
    with pytest.raises(RangeLimitError, match="overflows"):
        closed_form_motion(fp, 0.0, np.linspace(0.0, 200.0, 2001))


@pytest.mark.parametrize("m", [1.0, 2.0])
def test_a_motion_past_double_precision_raises_no_numpy_warning(m):
    # Omega = 1e300 and omega = 1e154 square past double precision in the sums'
    # rate columns and in the bounds of the cut (at m = 1 the transient's too):
    # each is left to TimeSeries' refusal, with no warning on the way
    fp = make_fp(m=m, eta=2.0, k0=1e-300, k=-1e300, omega=1e154, J0=2.0, Omega=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeLimitError, match="overflows at t = 0"):
            motion_from_rest(fp, 0.0, np.arange(0.0, 1.25, 0.25))
        rows = floquet.exponential_sum(np.ones(3, dtype=complex), 0.0, 1e300, np.zeros(1))
    assert not np.isfinite(rows[2, 0]) and np.isfinite(rows[0, 0])


def test_a_dependent_floquet_pair_is_singular():
    # critically damped and unmodulated: h = theta = 0, so u(z) = u(-z) = 1
    fp = make_fp(m=1.0, eta=2.0, k0=1.0, k=0.0)
    with pytest.raises(SingularityError, match="dependent"):
        closed_form_motion(fp, 0.0, np.linspace(0.0, 10.0, 101))


@pytest.mark.parametrize("r, q", [(0, 2.0), (1, 1.0)])
def test_an_even_tongue_edge_from_rest_stays_in_closed_form(r, q):
    # eta = 0 at (h, theta) = (a_r(q), q): u(z) and u(-z) are one even solution, so
    # second_solution refuses them, yet the even steady state's rest state lies in
    # their span, and the fit's cancellation figure (about 0.2 here) stays far
    # below flux.CANCELLATION_BOUND
    special = pytest.importorskip("scipy.special")
    fp = make_fp(eta=0.0, k0=float(special.mathieu_a(r, q)), k=-2.0 * q, omega=2.0, Omega=0.7)
    with pytest.raises(SingularityError, match="dependent"):
        floquet.second_solution(floquet.solve(floquet.GeneralParams(fp.base.k0, q)))
    grid = np.linspace(0.0, 20.0, 401)
    motion, path = motion_from_rest(fp, 0.0, grid)
    assert path == "closed form"
    ref = simulate_full(fp, (0.0, 20.0), 1e-13, t_eval=grid)
    for got, want in ((motion.y, ref.y), (motion.dy, ref.dy)):
        assert np.max(np.abs(got - want.real)) <= 1e-10 * np.max(np.abs(want))


# scipy's tongue edges a_0..a_3 and b_1..b_3 at q = 0.5, 1, 2
TONGUE_EDGES = [(kind, r, q) for q in (0.5, 1.0, 2.0)
                for kind, orders in (("a", range(4)), ("b", range(1, 4))) for r in orders]
EDGE_IDS = [f"{kind}{r}({q:g})" for kind, r, q in TONGUE_EDGES]


@pytest.mark.parametrize("start", [0.0, -1.3])
@pytest.mark.parametrize("offset", [0.0, 1e-10])
@pytest.mark.parametrize("kind, r, q", TONGUE_EDGES, ids=EDGE_IDS)
def test_a_tongue_edge_from_rest_is_fitted_or_refused_as_singular(kind, r, q, offset, start):
    # eta = 0 at (h, theta) = (edge + offset, q).  At an exact edge u(z) and u(-z)
    # are one solution, and a transient fitted to rest cancels: every motion the
    # closed form returns is right, and only an exact edge is refused, as singular
    special = pytest.importorskip("scipy.special")
    edge = special.mathieu_a(r, q) if kind == "a" else special.mathieu_b(r, q)
    fp = make_fp(eta=0.0, k0=float(edge) + offset, k=-2.0 * q, omega=2.0, Omega=0.7)
    grid = start + 0.05 * np.arange(301)
    exact_odd_from_0 = offset == 0.0 and kind == "b" and start == 0.0
    if exact_odd_from_0 or (kind, r, q, offset, start) == ("b", 3, 1.0, 0.0, -1.3):
        with pytest.raises(SingularityError, match="dependent"):
            closed_form_motion(fp, start, grid)
        return
    try:
        motion = closed_form_motion(fp, start, grid)
    except SingularityError as exc:
        assert offset == 0.0 and "dependent" in str(exc)
        return
    ref = simulate_full(fp, (start, float(grid[-1])), 1e-13, t_eval=grid)
    for got, want in ((motion.y, ref.y), (motion.dy, ref.dy)):
        assert np.max(np.abs(got - want.real)) <= 1e-9 * np.max(np.abs(want))


def test_an_exact_resonance_has_no_steady_state():
    fp = make_fp(eta=0.0, k0=1.44, k=0.0, Omega=1.2, m=1.0)
    with pytest.raises(ResonanceError):
        sideband_amplitudes(fp)
    with pytest.raises(ResonanceError):
        closed_form_motion(fp, 0.0, np.linspace(0.0, 10.0, 101))


def test_refused_jobs_are_integrated_by_the_stepper():
    # the job of test_series_outside_its_precision_is_refused: the CLI's path
    # answers it with the oracle at flux.STEPPER_TOL, as before the closed form
    fp = make_fp(eta=0.2, k0=0.0125, k=-15.0, omega=0.1)
    grid = np.linspace(0.0, 20.0, 401)
    motion, path = motion_from_rest(fp, 0.0, grid)
    assert path.startswith("stepper: ConvergenceError: closed-form motion misses its equation")
    ref = simulate_full(fp, (0.0, 20.0), flux.STEPPER_TOL, t_eval=grid)
    assert np.array_equal(motion.y, ref.y) and np.array_equal(motion.dy, ref.dy)
    # critically damped and unmodulated: a singular pair, answered by the stepper
    motion, path = motion_from_rest(make_fp(eta=2.0, k0=1.0, k=0.0), 0.0, grid)
    assert path.startswith("stepper: SingularityError")
    # the flux regime is answered in closed form, the same motion bit for bit
    fp, grid = DIFFERENTIAL_JOBS["flux_demod-0.016"]
    motion, path = motion_from_rest(fp, 0.0, grid)
    assert path == "closed form"
    assert np.array_equal(motion.y, closed_form_motion(fp, 0.0, grid).y)


def test_a_refused_tongue_edge_is_answered_within_the_census_agreement():
    # b_3(1) from rest at t = -1.3, which closed_form_motion refuses as singular: the
    # stepper's motion is within 1e-9 (scripts/flux_census.py's AGREE) of a tol-1e-13
    # oracle in y and in y'.  At tol 1e-10 its y' was 3.4e-9 off
    special = pytest.importorskip("scipy.special")
    fp = make_fp(eta=0.0, k0=float(special.mathieu_b(3, 1.0)), k=-2.0, omega=2.0, Omega=0.7)
    grid = -1.3 + 0.05 * np.arange(301)
    motion, path = motion_from_rest(fp, -1.3, grid)
    assert path.startswith("stepper: SingularityError")
    ref = simulate_full(fp, (-1.3, float(grid[-1])), 1e-13, t_eval=grid)
    for got, want in ((motion.y, ref.y), (motion.dy, ref.dy)):
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


# ------------------------------------------------ exact steady-state figures

FLUX_DEMOD_SPAN = 3.3 * 2.0 * math.pi / 0.012  # the flux_demod workload's span


@pytest.mark.parametrize("ratio", [0.012, 0.016, 0.02])
def test_steady_state_modulation_agrees_with_the_demodulation(ratio):
    fp = flux_demod_fp(ratio)
    grid = _uniform(17.5, 17.5 + FLUX_DEMOD_SPAN, FLUX_DEMOD_DT)
    field = field_from_motion(fp, closed_form_motion(fp, 0.0, grid))
    measured = modulation_analysis(field, fp.Omega, fp.base.omega)
    carrier, modulation = identify_frequencies(field)
    exact = steady_state_modulation(fp)
    assert abs(exact.modulation_depth - measured.modulation_depth) <= 5e-4 * exact.modulation_depth
    assert abs(exact.carrier_amplitude - measured.carrier_amplitude) <= (
        1e-5 * exact.carrier_amplitude)
    assert abs(exact.modulation_phase - measured.modulation_phase) <= 1e-3
    # the exact frequencies, Omega and |omega|, are within a bin of the spectrum's
    bin_width = 2.0 * math.pi / (grid[-1] - grid[0])
    assert abs(carrier - fp.Omega) <= bin_width
    assert abs(modulation - fp.base.omega) <= bin_width
    # and the depth is the paper's first-order epsilon = k/k0, to 2 %
    epsilon = fp.base.k / fp.base.k0
    assert abs(exact.modulation_depth - epsilon) <= 0.02 * epsilon


@pytest.mark.parametrize("ratio", [0.012, 0.016, 0.02])
def test_steady_state_modulation_has_converged_in_its_envelope_points(ratio, monkeypatch):
    coarse = steady_state_modulation(flux_demod_fp(ratio))
    monkeypatch.setattr(flux, "ENVELOPE_POINTS", 4 * flux.ENVELOPE_POINTS)
    fine = steady_state_modulation(flux_demod_fp(ratio))
    assert abs(coarse.modulation_depth - fine.modulation_depth) <= 1e-13 * fine.modulation_depth
    assert abs(coarse.carrier_amplitude - fine.carrier_amplitude) <= (
        1e-13 * fine.carrier_amplitude)
    assert abs(coarse.modulation_phase - fine.modulation_phase) <= 1e-13


def test_steady_state_modulation_edge_cases():
    fp = flux_demod_fp(0.016)
    # cos(omega t) is even in omega, so the sign of omega changes nothing
    mirrored = replace(fp, base=replace(fp.base, omega=-fp.base.omega))
    assert steady_state_modulation(mirrored) == steady_state_modulation(fp)
    # unmodulated: one line, whose field amplitude is (B/c) Omega |a_0|
    unmodulated = make_fp(k=0.0)
    flat = steady_state_modulation(unmodulated)
    assert flat.modulation_depth <= 1e-15
    assert flat.carrier_amplitude == pytest.approx(
        unmodulated.Omega * abs(sideband_amplitudes(unmodulated)[0]), rel=1e-14)
    # no drive, no field
    assert steady_state_modulation(make_fp(B=0.0)).carrier_amplitude == 0.0
    with pytest.raises(ResonanceError):
        steady_state_modulation(make_fp(eta=0.0, k0=1.44, k=0.0, Omega=1.2))


def test_exponential_sum_is_horner_at_each_point():
    # floquet.exponential_sum as this module calls it: on a Floquet series
    # (frequency 2) and on the sideband steady state (rate i Omega, frequency omega);
    # and the shapes whose passes start differently: a one-term series (theta = 0,
    # no pass at all), a one-point grid, and a term with a -0 part, which sums
    # as +0 like every first term added into zeros
    sol = floquet.solve(floquet.GeneralParams(3.0, 1.5))
    one_term = floquet.solve(floquet.GeneralParams(3.0, 0.0))
    assert len(one_term.coeffs) == 1
    fp = DIFFERENTIAL_JOBS["flux_demod-0.016"][0]
    cases = ((sol.coeffs, sol.mu, 2.0),
             (sideband_amplitudes(fp), 1j * fp.Omega, fp.base.omega),
             (one_term.coeffs, one_term.mu, 2.0),
             (np.array([complex(-0.5, -0.0)]), complex(-0.3, 0.0), 2.0))
    for (coeffs, rate, frequency), grid in itertools.product(
            cases, (np.linspace(-2.0, 7.0, 37), np.array([1.3]))):
        n = (len(coeffs) - 1) // 2
        rows = floquet.exponential_sum(coeffs, rate, frequency, grid)
        assert rows.shape == (3, len(grid))
        step = 1j * frequency
        rates = rate + step * np.arange(-n, n + 1)
        for i, t in enumerate(grid.tolist()):
            point = np.array([t])
            x, x_inv = np.exp(step * point), np.exp(-step * point)
            for row, c in enumerate((coeffs, rates * coeffs, rates * rates * coeffs)):
                # centred on c_0: Horner in x over c_1..c_N and in 1/x over
                # c_-1..c_-N, then the prefactor e^{rate t}: bit for bit
                up = down = 0.0
                for term in c[:n:-1]:
                    up = (up + term) * x
                for term in c[:n]:
                    down = (down + term) * x_inv
                want = ((up + down + c[n]) * np.exp(rate * point))[0]
                assert rows[row, i].tobytes() == want.tobytes()
                # and the per-point sum of the terms, to the rounding of the exponents
                terms = c * np.exp(rates * t)
                bound = 16 * 2.2e-16 * (abs(rate * t) + n * abs(step * t) + 1) * np.sum(np.abs(terms))
                assert abs(rows[row, i] - np.sum(terms)) <= bound
