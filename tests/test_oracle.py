from __future__ import annotations

import cmath
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from mathieu_kit import closed_form, flux, oracle, reductions
from mathieu_kit.closed_form import DampedParams, evaluate_grid, general_solution
from mathieu_kit.errors import InvalidParameterError, RangeLimitError, StiffnessError
from mathieu_kit.floquet import GeneralParams, classify_stability, general_mathieu_ode
from mathieu_kit.oracle import (
    PASS_TOL,
    TOL_MAX,
    TOL_MIN,
    LinearODE,
    _integrate_raw,
    integrate,
    monodromy_exponent,
    residual,
    validate_tolerance,
)
from mathieu_kit.samples import SolutionSample, TimeSeries

HARMONIC = LinearODE(p=None, q=lambda t: 1.0 + 0.0j)


def test_validate_tolerance_bounds():
    assert validate_tolerance(1e-10) == 1e-10
    assert validate_tolerance(TOL_MIN) == TOL_MIN
    assert validate_tolerance(TOL_MAX) == TOL_MAX
    for bad in (1e-15, 1e-2, 0.0, -1e-9, float("nan")):
        with pytest.raises(InvalidParameterError):
            validate_tolerance(bad)


def test_harmonic_half_turn():
    series = integrate(HARMONIC, 1.0, 0.0, (0.0, math.pi), 1e-10)
    assert abs(series.y[-1] - (-1.0)) < 1e-9
    assert abs(series.dy[-1]) < 1e-9


def test_harmonic_energy_conserved():
    series = integrate(HARMONIC, 1.0, 0.0, (0.0, 2.0 * math.pi), 1e-10)
    energy = np.abs(series.y) ** 2 + np.abs(series.dy) ** 2
    assert np.max(np.abs(energy - 1.0)) < 1e-9


def test_harmonic_return_to_start():
    series = integrate(HARMONIC, 1.0, 0.0, (0.0, 2.0 * math.pi), 1e-10)
    assert abs(series.y[-1] - 1.0) < 1e-9
    assert abs(series.dy[-1]) < 1e-9


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_dense_output_fidelity(tol):
    # interior queries hit the dense interpolant between accepted steps
    t_eval = np.linspace(0.1, 2.0 * math.pi - 0.1, 357)
    series = integrate(HARMONIC, 1.0, 0.0, (0.0, 2.0 * math.pi), tol, t_eval=t_eval)
    err_y = np.max(np.abs(series.y - np.cos(t_eval)))
    err_dy = np.max(np.abs(series.dy + np.sin(t_eval)))
    assert err_y < 10.0 * tol
    assert err_dy < 10.0 * tol


def test_accuracy_improves_with_tolerance():
    errs = []
    for tol in (1e-5, 1e-8, 1e-11):
        series = integrate(HARMONIC, 1.0, 0.0, (0.0, 2.0 * math.pi), tol)
        errs.append(abs(series.y[-1] - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] < errs[0] / 50.0
    assert errs[2] < errs[1] / 50.0


def test_integrate_metadata_and_grid():
    series = integrate(HARMONIC, 1.0, 0.0, (0.0, 6.0), 1e-9)
    assert series.meta["steps"] > 0
    assert series.meta["rhs_evaluations"] > 0
    assert np.all(np.diff(series.grid) > 0)
    assert series.grid[0] == 0.0 and series.grid[-1] == 6.0
    # the stored second derivative satisfies the equation exactly
    assert np.max(np.abs(series.d2y + series.y)) < 1e-12 * max(1.0, np.max(np.abs(series.y)))


def test_integrate_span_and_teval_validation():
    with pytest.raises(InvalidParameterError, match="finite increasing pair"):
        integrate(HARMONIC, 1.0, 0.0, (1.0, 1.0), 1e-9)
    with pytest.raises(InvalidParameterError, match="finite increasing pair"):
        integrate(HARMONIC, 1.0, 0.0, (2.0, 1.0), 1e-9)
    with pytest.raises(InvalidParameterError):
        integrate(HARMONIC, 1.0, 0.0, (0.0, 1.0), 1e-9, t_eval=[0.5, 0.25])
    with pytest.raises(InvalidParameterError):
        integrate(HARMONIC, 1.0, 0.0, (0.0, 1.0), 1e-9, t_eval=[0.5, 2.0])
    with pytest.raises(InvalidParameterError):
        integrate(HARMONIC, 1.0, 0.0, (0.0, 1.0), 1e-9, t_eval=[])


def test_stiffness_error_carries_last_state():
    # stiffness blows up approaching t = 1
    sing = LinearODE(p=None, q=lambda t: 1.0 / (1.0 - t) ** 2)
    with pytest.raises(StiffnessError) as exc:
        integrate(sing, 1.0, 0.0, (0.0, 1.0), 1e-10)
    assert 0.9 < exc.value.t_last < 1.0
    assert len(exc.value.state_last) == 2


def test_a_state_at_rest_to_rounding_starts_under_a_drive():
    # the closed-form motion from rest reads (-3.5e-18, -9.8e-19) at t = 0, where
    # |y| / |y''| ~ 1e-18 proposes a first step of about 3.6e-18: a floor of
    # 16 eps max(|t|, 1) refused it as a step size underflow at t = 0
    fp = flux.FluxParams(DampedParams(1.0, 2.0, 54.90443497056935, 1.0, 0.018213464914738384),
                         B=1.0, J0=1.0, Omega=1.0, c_light=1.0)
    motion = flux.closed_form_motion(fp, 0.0, [0.0, 0.2])
    assert 0.0 < abs(motion.y[0]) < 1e-17
    moved = integrate(flux.full_ode(fp), motion.y[0], motion.dy[0], (0.0, 0.2), 1e-13)
    assert moved.meta["steps"] < 200
    assert abs(moved.y[-1] - motion.y[-1]) <= 1e-10 * abs(motion.y[-1])
    assert abs(moved.dy[-1] - motion.dy[-1]) <= 1e-10 * abs(motion.dy[-1])


def test_a_homogeneous_equation_from_rest_stays_at_rest():
    # y = y' = y'' = 0 gives the step controller no scale: the first step is
    # 1e-6, and each accepted step grows tenfold
    series = integrate(HARMONIC, 0.0, 0.0, (0.0, 1.0), 1e-10)
    assert series.meta["steps"] == 7
    assert series.grid[1] == 1e-6
    assert not np.any(series.y) and not np.any(series.dy)


def test_the_step_budget_ends_a_run_with_its_last_state(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_STEPS", 5)
    with pytest.raises(StiffnessError, match="^step budget exhausted at") as exc:
        integrate(HARMONIC, 1.0, 0.0, (0.0, 2.0 * math.pi), 1e-10)
    assert 0.0 < exc.value.t_last < 2.0 * math.pi
    assert np.all(np.isfinite(exc.value.state_last))


def test_monodromy_stiffness_error_names_its_column():
    # the period map's first column, from (1, 0), is the sweep that fails
    sing = LinearODE(p=None, q=lambda t: 1.0 / (1.0 - t) ** 2)
    with pytest.raises(StiffnessError, match=r"^period map column \(1, 0\): step size underflow") as exc:
        monodromy_exponent(sing, 1.0, 1e-10)
    assert 0.9 < exc.value.t_last < 1.0
    state = exc.value.state_last
    assert isinstance(state, np.ndarray) and state.shape == (2,)
    assert np.all(np.isfinite(state))
    with pytest.raises(StiffnessError) as alone:
        _integrate_raw(sing, 0.0, 1.0, (1.0, 0.0), 1e-10, ())
    assert exc.value.t_last == alone.value.t_last
    assert exc.value.state_last.tobytes() == alone.value.state_last.tobytes()


def test_a_non_finite_derivative_raises_at_once():
    late = []

    def q(t: float) -> float:
        if t > 1.0:
            late.append(t)
            return math.nan
        return 1.0

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StiffnessError, match="derivative is not finite") as exc:
            integrate(LinearODE(None, q), 1.0, 0.0, (0.0, 20.0), 1e-9)
    # the first step that reaches past t = 1 stops the sweep: no shrinking retries
    assert 0 < len(late) <= 6
    assert 0.5 < exc.value.t_last <= 1.0
    state = exc.value.state_last
    assert isinstance(state, np.ndarray) and state.shape == (2,)
    assert abs(state[0] - math.cos(exc.value.t_last)) < 1e-8
    # a derivative that is not finite at the start stops the sweep there
    late.clear()
    with pytest.raises(StiffnessError, match="derivative is not finite") as exc:
        integrate(LinearODE(None, q), 1.0, 0.0, (2.0, 3.0), 1e-9)
    assert late == [2.0] and exc.value.t_last == 2.0


def _stats(meta: dict) -> tuple[int, int, int]:
    return meta["steps"], meta["rejected"], meta["rhs_evaluations"]


def test_step_sequences_are_pinned():
    # figures of the numpy-array stepper that the scalar tableau replaced; any
    # change to the stepper must keep them (the rounding of the samples may move)
    r = 0.016
    fp = flux.FluxParams(base=DampedParams(m=1.0, eta=2.0, k0=1.0 / r, k=1.0, omega=r),
                         B=1.0, J0=1.0, Omega=1.0, c_light=1.0)
    grid = np.arange(17.5, 60.0, 2.0 * math.pi / 64.0)
    series = flux.simulate_full(fp, (0.0, 60.0), 1e-6, t_eval=grid)
    assert _stats(series.meta) == (534, 23, 3344)

    ode = general_mathieu_ode(GeneralParams(h=2.0 + 1.0j, theta=0.5 - 0.3j))
    series = integrate(ode, 1.0, 0.5j, (0.0, 10.0), 1e-9, t_eval=np.linspace(0.0, 10.0, 201))
    assert _stats(series.meta) == (260, 0, 1562)

    q = general_mathieu_ode(GeneralParams(h=3.0, theta=1.0 + 0.5j)).q
    calls = []

    def counted_q(t: float) -> complex:
        calls.append(t)
        return q(t)

    ode = LinearODE(p=None, q=counted_q)
    monodromy_exponent(ode, math.pi, 1e-10)
    # q is called once per stage time: five per step (stage 7 reuses stage 6's
    # value at the step end), plus the start and the initial step's trial, per column
    assert len(calls) == 1444
    # the period map is one sweep per column, from (1, 0) and from (0, 1)
    for u0 in ((1.0, 0.0), (0.0, 1.0)):
        stats = _integrate_raw(ode, 0.0, math.pi, u0, 1e-10, ())[3]
        assert _stats(stats) == (144, 0, 866)


@pytest.mark.parametrize("gp", [GeneralParams(3.0, 1.5), GeneralParams(2.0 + 1.0j, 0.5 - 0.3j)])
def test_the_period_map_is_two_one_solution_sweeps(gp, monkeypatch):
    # monodromy_exponent steps nothing itself: its period map is bit for bit
    # the final states of two sweeps, from (1, 0) and from (0, 1)
    ode = general_mathieu_ode(gp)
    (y1, dy1), (y2, dy2) = (_integrate_raw(ode, 0.0, math.pi, u0, 1e-10, ())[2]
                            for u0 in ((1.0, 0.0), (0.0, 1.0)))
    seen = []

    def recorded(*args):
        out = _integrate_raw(*args)
        seen.append((args[3], out[2].tobytes()))
        return out

    monkeypatch.setattr(oracle, "_integrate_raw", recorded)
    mono = monodromy_exponent(ode, math.pi, 1e-10)
    assert seen == [((1.0, 0.0), np.array([y1, dy1]).tobytes()),
                    ((0.0, 1.0), np.array([y2, dy2]).tobytes())]
    assert mono.det_m.tobytes() == (y1 * dy2 - y2 * dy1).tobytes()
    rho = np.linalg.eigvals(np.array([[y1, y2], [dy1, dy2]]))
    assert min(abs(rho - mono.multiplier)) <= 1e-12 * abs(mono.multiplier)


def _as_complex(ode: LinearODE) -> LinearODE:
    """The same equation with every coefficient value typed complex."""
    def wrap(fn):
        return None if fn is None else (lambda t: complex(fn(t)))
    return LinearODE(wrap(ode.p), wrap(ode.q), wrap(ode.f))


def _cmath_mathieu_ode(h: float, theta: float) -> LinearODE:
    """y'' + (h - 2 theta cos 2t) y = 0 in complex arithmetic throughout."""
    h, theta = complex(h), complex(theta)
    return LinearODE(p=None, q=lambda t: h - 2.0 * theta * cmath.cos(2.0 * t))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype == np.complex128 and a.tobytes() == b.tobytes()


def test_real_problems_give_the_same_bits_on_real_and_complex_typing():
    # a real equation runs on floats; typed complex it runs on complex scalars,
    # and every sample, final state, step count and period map must agree bitwise
    r = 0.016
    fp = flux.FluxParams(base=DampedParams(m=1.0, eta=2.0, k0=1.0 / r, k=1.0, omega=r),
                         B=1.0, J0=1.0, Omega=1.0, c_light=1.0)
    flux_ode = flux.full_ode(fp)
    gp = GeneralParams(h=-1.5, theta=3.0)
    cases = [
        (flux_ode, _as_complex(flux_ode), 0.0, 0.5, (0.0, 60.0), 1e-6),
        (general_mathieu_ode(gp), _cmath_mathieu_ode(-1.5, 3.0), 1.0, 0.5, (0.0, 12.0), 1e-10),
    ]
    for real_ode, complex_ode, y0, dy0, span, tol in cases:
        for t_eval in (None, np.linspace(span[0], span[1], 97)):
            a = integrate(real_ode, y0, dy0, span, tol, t_eval=t_eval)
            b = integrate(complex_ode, complex(y0), complex(dy0), span, tol, t_eval=t_eval)
            assert a.grid.tobytes() == b.grid.tobytes()
            for x, y in ((a.y, b.y), (a.dy, b.dy), (a.d2y, b.d2y)):
                assert _same_bits(x, y)
            assert a.meta == b.meta
        u_real = (y0, dy0)
        u_complex = (complex(y0), complex(dy0))
        ra = _integrate_raw(real_ode, *span, u_real, tol, None)
        rb = _integrate_raw(complex_ode, *span, u_complex, tol, None)
        assert _same_bits(ra[1], rb[1]) and _same_bits(ra[2], rb[2])
        assert ra[3] == rb[3]
    for h, theta in ((3.0, 1.5), (-1.0, 0.3), (1.0, 5.0)):
        gp = GeneralParams(h, theta)
        a = monodromy_exponent(general_mathieu_ode(gp), math.pi, 1e-11)
        b = monodromy_exponent(_cmath_mathieu_ode(h, theta), math.pi, 1e-11)
        assert type(a.det_m) is type(b.det_m) is np.complex128
        assert repr(a) == repr(b)


def test_returned_arrays_stay_complex_for_real_problems():
    ode = LinearODE(p=lambda t: 0.1, q=lambda t: 2.0 + math.cos(t))
    series = integrate(ode, 1.0, 0.0, (0.0, 5.0), 1e-9, t_eval=np.linspace(0.0, 5.0, 11))
    assert series.grid.dtype == np.float64
    assert series.y.dtype == series.dy.dtype == series.d2y.dtype == np.complex128
    for tq in (None, [0.5, 1.0], ()):
        _, samples, final, _ = _integrate_raw(ode, 0.0, 5.0, (1.0, 0.0), 1e-9, tq)
        assert samples.dtype == final.dtype == np.complex128
    mono = monodromy_exponent(general_mathieu_ode(GeneralParams(3.0, 1.5)), math.pi, 1e-10)
    assert type(mono.det_m) is np.complex128
    sing = LinearODE(p=None, q=lambda t: 1.0 / (1.0 - t) ** 2)
    for call in (lambda: integrate(sing, 1.0, 0.0, (0.0, 1.0), 1e-10),
                 lambda: monodromy_exponent(sing, 1.0, 1e-10)):
        with pytest.raises(StiffnessError) as exc:
            call()
        assert exc.value.state_last.dtype == np.complex128


def test_absent_coefficients_are_never_called():
    q_calls = []

    def q(t: float) -> float:
        q_calls.append(t)
        return 3.0 - 2.0 * math.cos(2.0 * t)

    def other_calls(period: float) -> int:
        """Python calls other than q in one sweep; q must run once per stage time."""
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is not q.__code__:
                calls.append(frame.f_code.co_name)

        q_calls.clear()
        sys.setprofile(profile)
        try:
            stats = _integrate_raw(LinearODE(p=None, q=q, f=None), 0.0, period,
                                   (1.0, 0.0), 1e-10, None)[3]
        finally:
            sys.setprofile(None)
        assert stats["rejected"] == 0
        assert stats["rhs_evaluations"] == 2 + 6 * stats["steps"]
        # stage 7 reuses stage 6's q at the step end
        assert len(q_calls) == 2 + 5 * stats["steps"]
        return len(calls)

    # twice the steps, the same setup calls: nothing stands in for p or f per stage
    assert other_calls(math.pi) == other_calls(2.0 * math.pi)


@pytest.mark.parametrize("typ", [float, complex])
def test_an_overflowing_real_solution_raises(typ):
    # y'' = 1e4 y grows like e^{100 t} and passes the largest double near t = 7.1
    ode = LinearODE(p=None, q=lambda t: typ(-1.0e4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StiffnessError) as exc:
            integrate(ode, typ(1.0), typ(0.0), (0.0, 10.0), 1e-8)
    assert 6.0 < exc.value.t_last < 7.2
    state = exc.value.state_last
    assert state.dtype == np.complex128 and np.all(np.isfinite(state))


@pytest.mark.parametrize("typ", [float, complex])
def test_an_overflowing_initial_derivative_raises(typ):
    # the scaled norm of y'' = 1e200 y overflows, so no initial step size can be
    # estimated, and the error says so rather than blaming the step size
    ode = LinearODE(p=None, q=lambda t: typ(-1.0e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StiffnessError, match="derivative norm overflows") as exc:
            integrate(ode, typ(1.0), typ(0.0), (0.0, 10.0), 1e-8)
    assert exc.value.t_last == 0.0
    state = exc.value.state_last
    assert state.dtype == np.complex128 and np.all(state == [1.0, 0.0])


def test_integrate_agrees_with_scipy_dop853():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    cases = [
        (general_mathieu_ode(GeneralParams(h=2.0 + 1.0j, theta=0.5 - 0.3j)), 1.0, 0.5j, 10.0),
        (LinearODE(p=lambda t: 0.4, q=lambda t: 5.0 + math.cos(0.2 * t),
                   f=lambda t: math.cos(t)), 0.0, 0.0, 30.0),
    ]
    for ode, y0, dy0, t1 in cases:
        t_eval = np.linspace(0.0, t1, 121)

        def fun(t, u, ode=ode):
            (pv,), (qv,), (fv,) = ode.coefficients_on(np.array([t]))
            return [u[1], fv - pv * u[1] - qv * u[0]]

        ref = scipy_integrate.solve_ivp(fun, (0.0, t1), [complex(y0), complex(dy0)],
                                        method="DOP853", rtol=1e-13, atol=1e-13, t_eval=t_eval)
        assert ref.success
        for tol in (1e-6, 1e-9):
            series = integrate(ode, y0, dy0, (0.0, t1), tol, t_eval=t_eval)
            # the stepper's own scale: tol absolute plus tol relative
            for got, want in ((series.y, ref.y[0]), (series.dy, ref.y[1])):
                assert np.all(np.abs(got - want) <= 100.0 * tol * (1.0 + np.abs(want)))


def test_forced_equation():
    # y'' + y = 1 from rest: y = 1 - cos t
    ode = LinearODE(p=None, q=lambda t: 1.0, f=lambda t: 1.0)
    t_eval = np.linspace(0.0, 5.0, 101)
    series = integrate(ode, 0.0, 0.0, (0.0, 5.0), 1e-11, t_eval=t_eval)
    assert np.max(np.abs(series.y - (1.0 - np.cos(t_eval)))) < 1e-9


def test_damped_equation_matches_exact():
    # y'' + 2 y' + 2 y = 0: y = exp(-t) cos t
    ode = LinearODE(p=lambda t: 2.0, q=lambda t: 2.0)
    t_eval = np.linspace(0.0, 4.0, 81)
    series = integrate(ode, 1.0, -1.0, (0.0, 4.0), 1e-11, t_eval=t_eval)
    exact = np.exp(-t_eval) * np.cos(t_eval)
    assert np.max(np.abs(series.y - exact)) < 1e-9


def test_residual_exact_solution():
    grid = np.linspace(0.0, 2.0 * math.pi, 64)

    def candidate(t: float) -> SolutionSample:
        return SolutionSample(t=t, y=math.cos(t), dy=-math.sin(t), d2y=-math.cos(t))

    rep = residual(HARMONIC, candidate, grid)
    assert rep.linf < 1e-12
    assert rep.l2 <= rep.linf
    assert rep.verdict is True
    assert len(rep.pointwise) == len(grid)


@pytest.mark.parametrize("force, passes", [(0.5 * PASS_TOL, True), (PASS_TOL, False),
                                           (math.nan, False)])
def test_verdict_is_the_one_pass_rule(force, passes):
    # y'' = (0, 1) against y'' = f = (force, 1): the defect is (-force, 0), scaled
    # by the largest term, 1
    zeros = np.zeros(2, dtype=complex)
    candidate = TimeSeries(grid=np.array([0.0, 1.0]), y=zeros, dy=zeros, d2y=np.array([0.0, 1.0]))
    rep = residual(LinearODE(p=None, q=None, f=lambda t: 1.0 if t else force), candidate)
    assert rep.linf == force or math.isnan(force)
    assert rep.verdict is passes


def test_a_coefficient_singular_on_the_grid_fails_the_verdict_without_a_warning():
    # eq11's p = -t/(1 - t^2) and q are infinite at t = 1; at the parent the
    # division's warning escaped, then the defect's
    ones = np.ones(2, dtype=complex)
    candidate = TimeSeries(grid=np.array([0.0, 1.0]), y=ones, dy=ones, d2y=ones)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = residual(reductions.source_ode(reductions.ReductionInput("eq11", a=1, b=1)),
                       candidate)
    assert rep.verdict is False
    assert math.isnan(rep.linf) and math.isnan(rep.l2)
    assert np.isnan(rep.pointwise).all() and len(rep.pointwise) == 2


@pytest.mark.parametrize("size", [1e-300, 1e-9, 1.0, 1e9, 1e300])
def test_residual_does_not_depend_on_the_candidate_s_size(size):
    # a multiple of a wrong homogeneous candidate is as wrong, however small
    grid = np.linspace(0.0, 3.0, 31)
    y = size * np.cos(1.1 * grid)
    wrong = TimeSeries(grid=grid, y=y, dy=-1.1 * size * np.sin(1.1 * grid), d2y=-1.21 * y)
    # worst at t = 0, where y' = 0: |y'' + y| / (|y''| + |y|)
    assert residual(HARMONIC, wrong).linf == pytest.approx(0.21 / 2.21, rel=1e-12)
    # y = 0 solves every homogeneous equation, and its terms are all 0
    assert residual(HARMONIC, _series_on(grid)).linf == 0.0
    # but no forced one
    assert residual(LinearODE(p=None, q=None, f=lambda t: size), _series_on(grid)).linf == 1.0


def test_residual_detects_wrong_candidate():
    grid = np.linspace(0.0, 3.0, 31)

    def wrong(t: float) -> SolutionSample:
        return SolutionSample(t=t, y=math.cos(1.1 * t), dy=-1.1 * math.sin(1.1 * t),
                              d2y=-1.21 * math.cos(1.1 * t))

    rep = residual(HARMONIC, wrong, grid)
    assert rep.linf > 1e-2
    assert rep.verdict is False


def test_residual_grid_validation():
    def candidate(t: float) -> SolutionSample:
        return SolutionSample(t=t, y=0.0, dy=0.0, d2y=0.0)

    with pytest.raises(InvalidParameterError):
        residual(HARMONIC, candidate, [])


def test_monodromy_oscillatory_case():
    res = monodromy_exponent(HARMONIC, math.pi, 1e-12)
    assert abs(res.mu - 1j) < 1e-9
    assert abs(res.det_m - 1.0) < 1e-9
    # multiplier -1 is a real-negative branch point
    assert res.branch_ambiguous is True


def test_monodromy_exponential_case():
    ode = LinearODE(p=None, q=lambda t: -1.0)
    res = monodromy_exponent(ode, math.pi, 1e-12)
    assert abs(res.mu - 1.0) < 1e-9
    assert abs(res.det_m - 1.0) < 1e-9
    assert abs(res.multiplier - math.exp(math.pi)) < 1e-6
    assert res.branch_ambiguous is False


def test_monodromy_rejects_forced_equation():
    ode = LinearODE(p=None, q=lambda t: 1.0, f=lambda t: 1.0)
    with pytest.raises(InvalidParameterError):
        monodromy_exponent(ode, math.pi, 1e-12)
    with pytest.raises(InvalidParameterError, match="finite and positive"):
        monodromy_exponent(HARMONIC, -1.0, 1e-12)


def test_a_period_map_beyond_double_precision_is_a_range_limit():
    # both columns integrate, but y1 y2' overflows: the parent warned six
    # times and then blamed mu, an input the caller never gave
    ode = general_mathieu_ode(GeneralParams(-1.7e4, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeLimitError, match="^the period map over 3.14159 "):
            monodromy_exponent(ode, math.pi, 1e-8)


def test_monodromy_with_damping_matches_abel_and_the_characteristic_roots():
    # y'' + 0.3 y' + 2 y = 0: det M = exp(-0.3 pi) (Abel), and the exponents
    # are the roots of lam^2 + 0.3 lam + 2 = 0, defined modulo 2i over period pi
    ode = LinearODE(p=lambda t: 0.3, q=lambda t: 2.0)
    res = monodromy_exponent(ode, math.pi, 1e-12)
    assert abs(res.det_m - math.exp(-0.3 * math.pi)) <= 1e-9
    root = (-0.3 + cmath.sqrt(0.09 - 8.0)) / 2.0
    # both multipliers have modulus exp(-0.15 pi), so either root may be reported
    gaps = [res.mu_raw - lam for lam in (root, root.conjugate())]
    assert min(abs(complex(d.real, (d.imag + 1.0) % 2.0 - 1.0)) for d in gaps) <= 1e-9


@pytest.mark.parametrize("p, q, refused_at", [
    (5.0, 6.0, ()), (10.0, 24.0, ()), (14.0, 48.0, (1e-10,)),
    (20.0, 99.0, (1e-10, 1e-13)), (20.0, 101.0, (1e-10, 1e-13))])
def test_monodromy_refuses_a_multiplier_at_the_absolute_floor(p, q, refused_at):
    # y'' + p y' + q y = 0 over pi: the exponent is (-p + Re sqrt(p^2 - 4q))/2,
    # and |rho| = exp(pi Re mu) falls to 1e-12 and below, where the stepper's
    # absolute floor tol decides rho: (20, 99) returned -8.77 + 1i at tol 1e-10
    exponent = (-p + cmath.sqrt(p * p - 4.0 * q).real) / 2.0
    for tol in (1e-10, 1e-13):
        if tol in refused_at:
            with pytest.raises(RangeLimitError, match=r"tol/\|rho\| = \S+ exceeds 0.002$"):
                monodromy_exponent(oracle.equation(p=p, q=q), math.pi, tol)
            continue
        res = monodromy_exponent(oracle.equation(p=p, q=q), math.pi, tol)
        assert res.floor == tol / abs(res.multiplier) <= oracle._FLOOR_MAX
        assert res.mu_raw.imag == 0.0
        assert abs(res.mu_raw.real - exponent) <= 0.12 * res.floor


def test_an_undamped_map_is_not_refused_at_the_loosest_tolerance():
    # y'' + y = 0 has |rho| = 1, computed as 0.99994 at tol 1e-3: a floor of 1.00006e-3
    res = monodromy_exponent(general_mathieu_ode(GeneralParams(1.0, 0.0)), math.pi, TOL_MAX)
    assert TOL_MAX < res.floor <= oracle._FLOOR_MAX


def test_undamped_pair_wronskian_identity():
    # cos and sin for the oscillator: W = cos*cos - (-sin)*sin = 1
    grid = np.linspace(0.0, 2.0 * math.pi, 33)
    w = np.cos(grid) * np.cos(grid) - (-np.sin(grid)) * np.sin(grid)
    assert np.max(np.abs(w - 1.0)) < 1e-15


def test_dependent_pair_wronskian_vanishes():
    grid = np.linspace(0.0, 2.0 * math.pi, 33)
    y1 = np.cos(grid)
    y2 = 3.0 * np.cos(grid)
    w = y1 * (-3.0 * np.sin(grid)) - (-np.sin(grid)) * y2
    assert np.max(np.abs(w)) < 1e-14


DRIVEN = LinearODE(p=lambda t: 0.1, q=lambda t: 1.0 + 0.5 * math.cos(t),
                   f=lambda t: math.sin(2.0 * t))


def test_residual_of_series_equals_callable_on_its_grid():
    t_eval = np.linspace(0.0, 6.0, 121)
    series = integrate(DRIVEN, 1.0, 0.0, (0.0, 6.0), 1e-9, t_eval=t_eval)
    table = {float(t): series[i] for i, t in enumerate(series.grid)}
    a = residual(DRIVEN, series)
    b = residual(DRIVEN, table.__getitem__, series.grid)
    assert (a.linf, a.l2, a.verdict) == (b.linf, b.l2, b.verdict)
    assert np.array_equal(a.pointwise, b.pointwise)
    assert a.linf < 1e-12


def test_residual_of_series_typed_errors():
    none = np.array([])
    empty = TimeSeries(grid=none, y=none, dy=none, d2y=none)
    with pytest.raises(InvalidParameterError):
        residual(HARMONIC, empty)
    series = integrate(HARMONIC, 1.0, 0.0, (0.0, 1.0), 1e-9)
    with pytest.raises(InvalidParameterError):
        residual(HARMONIC, series, series.grid)  # a series is checked on its own grid


def test_residual_callable_takes_the_grid_as_given():
    # the callable path checks points, not a series: any order, repeats allowed
    def cosine(t: float) -> SolutionSample:
        return SolutionSample(t=t, y=math.cos(t), dy=-math.sin(t), d2y=-math.cos(t))

    rep = residual(HARMONIC, cosine, [2.0, 0.5, 0.5, 0.0])
    assert rep.linf < 1e-15
    assert len(rep.pointwise) == 4


def test_dense_output_at_step_times_equals_step_states():
    steps = integrate(DRIVEN, 1.0, 0.0, (0.0, 6.0), 1e-9)
    dense = integrate(DRIVEN, 1.0, 0.0, (0.0, 6.0), 1e-9, t_eval=steps.grid)
    assert dense.meta == steps.meta
    # each step time is the left end of the next step (theta = 0) ...
    for got, want in ((dense.y, steps.y), (dense.dy, steps.dy), (dense.d2y, steps.d2y)):
        assert np.array_equal(got[:-1], want[:-1])
    # ... except the last, reached from the final step at theta = 1
    eps = np.finfo(float).eps
    assert abs(dense.y[-1] - steps.y[-1]) <= 4.0 * eps * abs(steps.y[-1])
    assert abs(dense.dy[-1] - steps.dy[-1]) <= 4.0 * eps * abs(steps.dy[-1])


def test_streamed_samples_do_not_depend_on_the_other_requested_times():
    grid = np.linspace(0.0, 6.0, 701)
    full = integrate(DRIVEN, 1.0, 0.0, (0.0, 6.0), 1e-9, t_eval=grid)
    thin = integrate(DRIVEN, 1.0, 0.0, (0.0, 6.0), 1e-9, t_eval=grid[::7])
    assert thin.meta == full.meta
    for got, want in ((thin.y, full.y), (thin.dy, full.dy), (thin.d2y, full.d2y)):
        assert np.array_equal(got, want[::7])


def _clamp_cases() -> list[tuple[LinearODE, tuple[float, float], tuple, float]]:
    """Seeded real and complex Mathieu runs and one driven, damped flux run."""
    rng = np.random.default_rng(37)
    cases = []
    for typ in (float, complex):
        for _ in range(3):
            h, theta = (typ(rng.uniform(lo, hi)) if typ is float
                        else complex(rng.uniform(lo, hi), rng.uniform(-1.0, 1.0))
                        for lo, hi in ((-2.0, 10.0), (-2.0, 2.0)))
            ode = general_mathieu_ode(GeneralParams(h, theta))
            u0 = (typ(rng.normal()), typ(rng.normal()))
            cases.append((ode, (0.0, float(rng.uniform(1.0, 6.0))), u0,
                          float(10.0 ** rng.uniform(-12.0, -7.0))))
    r = 0.016
    fp = flux.FluxParams(base=DampedParams(m=1.0, eta=2.0, k0=1.0 / r, k=1.0, omega=r),
                         B=1.0, J0=1.0, Omega=1.0, c_light=1.0)
    cases.append((flux.full_ode(fp), (0.0, 60.0), (0.0, 0.0), 1e-6))
    return cases


def test_the_step_control_clamps_hold_on_every_run():
    rejection_free = 0
    for ode, (t0, t1), u0, tol in _clamp_cases():
        times, _, _, stats = _integrate_raw(ode, t0, t1, u0, tol, None)
        # the last step takes exactly the rest of the span
        assert times[-1] == t1
        h = np.diff(times)
        # a step grows by at most _FAC_MAX (up to the rounding of t + h)
        assert np.all(h[1:] <= oracle._FAC_MAX * h[:-1] * (1.0 + 1e-9))
        if stats["rejected"] == 0:
            rejection_free += 1
            ratio = h[1:-1] / h[:-2]
            assert np.all(ratio >= oracle._FAC_MIN * (1.0 - 1e-9))
        # the same steps with requested times
        grid = np.linspace(t0, t1, 53)
        assert integrate(ode, *u0, (t0, t1), tol, t_eval=grid).meta == stats
    assert rejection_free >= 3
    # an error norm far below tol asks for a growth far above _FAC_MAX: every
    # step but the last grows by _FAC_MAX
    times = _integrate_raw(LinearODE(p=None, q=lambda t: 1e-20), 0.0, 5.0, (1.0, 0.0), 1e-9,
                           None)[0]
    h = np.diff(times)
    assert len(h) > 3
    assert h[1:-1] / h[:-2] == pytest.approx([oracle._FAC_MAX] * (len(h) - 2), rel=1e-9)


def test_a_step_after_a_rejection_does_not_grow():
    # a narrow spike in q rejects the steps that sample it; a retried step
    # that misses it has a tiny error and would grow up to tenfold uncapped
    calls = []

    def q(t: float) -> float:
        calls.append(t)
        return 1.0 + 1e4 * math.exp(-((t - 1.3) / 3e-3) ** 2)

    times = _integrate_raw(LinearODE(p=None, q=q), 0.0, 3.0, (1.0, 0.0), 1e-8, None)[0]
    # each attempt calls q at its five stage times after the start (the first
    # two calls are the start and the initial step's trial); the last is its end
    attempts, start, k = [], 0.0, 1
    for end in calls[6::5]:
        accepted = end == times[k]
        attempts.append((end - start, accepted))
        if accepted:
            start, k = end, k + 1
    assert k == len(times)
    capped = 0
    for (_, ok0), (h1, ok1), (h2, _) in zip(attempts, attempts[1:], attempts[2:]):
        if not ok1:
            assert oracle._FAC_MIN * (1.0 - 1e-9) <= h2 / h1 < 1.0
        elif not ok0:
            assert h2 <= h1 * (1.0 + 1e-9)
            capped += h2 > 0.999 * h1
    assert capped >= 2


@pytest.mark.parametrize("to_end", [True, False], ids=["ends-at-t1", "stops-short"])
def test_each_requested_time_is_sampled_exactly_once(to_end):
    rng = np.random.default_rng(41)
    for ode, (t0, t1), u0, tol in _clamp_cases():
        times, steps, _, stats = _integrate_raw(ode, t0, t1, u0, tol, None)
        # interior step ends (each sampled by the next step at theta = 0) and
        # times inside steps; the last time is t1 or inside the last step
        ends = rng.choice(len(times) - 2, size=min(5, len(times) - 2), replace=False) + 1
        tq = sorted({t0, *(times[i] for i in ends), *rng.uniform(t0, times[-2], 6).tolist(),
                     t1 if to_end else 0.5 * (times[-2] + t1)})
        _, samples, _, again = _integrate_raw(ode, t0, t1, u0, tol, tq)
        assert again == stats and samples.shape == (len(tq), 2)
        for k, tk in enumerate(tq):
            alone = _integrate_raw(ode, t0, t1, u0, tol, [tk])[1]
            assert alone.tobytes() == samples[k:k + 1].tobytes()
            if tk in times[:-1]:
                assert samples[k].tobytes() == steps[times.index(tk)].tobytes()


@pytest.mark.parametrize("t_eval", [[], [0.5, math.nan], [0.5, 0.25], [0.5, 0.5], [0.5, 2.0],
                                    [-0.5, 0.5]])
def test_t_eval_is_rejected_before_the_sweep(t_eval):
    times = []

    def q(t: float) -> complex:
        times.append(t)
        return 1.0 + 0.0j

    with pytest.raises(InvalidParameterError):
        integrate(LinearODE(p=None, q=q), 1.0, 0.0, (0.0, 1.0), 1e-9, t_eval=t_eval)
    assert times == []


def test_monodromy_keeps_nothing_per_step():
    ode = LinearODE(p=None, q=lambda t: 1.0 + 0.5 * math.cos(2.0 * t))
    monodromy_exponent(ode, 2.0 * math.pi, 1e-12)  # warm any first-call caches
    peaks = []
    for period in (2.0 * math.pi, 4.0 * math.pi):
        tracemalloc.start()
        try:
            monodromy_exponent(ode, period, 1e-12)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 64 * 1024
    # twice the steps, the same peak: a per-step record would add hundreds of KiB
    assert peaks[1] <= peaks[0] + 1024


def _cosine(t: float) -> SolutionSample:
    if not math.isfinite(t):
        raise AssertionError("a non-finite time reached the candidate")
    return SolutionSample(t=t, y=math.cos(t), dy=-math.sin(t), d2y=-math.cos(t))


def _series_on(grid):
    zeros = np.zeros(len(grid), dtype=complex)
    return TimeSeries(grid=np.asarray(grid, dtype=float), y=zeros, dy=zeros, d2y=zeros)


_UNDAMPED = DampedParams(m=1.0, eta=0.0, k0=1.0, k=1.0, omega=2.0)

NON_FINITE_GRIDS = {
    "integrate-t_eval-nan": lambda: integrate(HARMONIC, 1.0, 0.0, (0.0, 1.0), 1e-9,
                                              t_eval=[math.nan]),
    "timeseries-nan": lambda: _series_on([math.nan]),
    "timeseries-inf": lambda: _series_on([0.0, math.inf]),
    "residual-callable-nan": lambda: residual(HARMONIC, _cosine, [0.0, math.nan, 1.0]),
    "residual-callable-inf": lambda: residual(HARMONIC, _cosine, [0.0, math.inf]),
    "evaluate-grid-nan": lambda: evaluate_grid(general_solution(_UNDAMPED), [0.0, math.nan]),
}


@pytest.mark.parametrize("call", NON_FINITE_GRIDS.values(), ids=NON_FINITE_GRIDS.keys())
def test_non_finite_grids_are_rejected(call):
    with pytest.raises(InvalidParameterError):
        call()


NON_FINITE_VALUES = {
    "general-solution-c1-nan": lambda: general_solution(_UNDAMPED, c1=math.nan),
    "general-solution-c2-inf": lambda: general_solution(_UNDAMPED, c2=complex(0.0, math.inf)),
    "classify-stability-nan": lambda: classify_stability(complex(math.nan, 0.0)),
    "classify-stability-imag-nan": lambda: classify_stability(complex(0.0, math.nan)),
}


@pytest.mark.parametrize("call", NON_FINITE_VALUES.values(), ids=NON_FINITE_VALUES.keys())
def test_non_finite_values_are_rejected(call):
    with pytest.raises(InvalidParameterError):
        call()


def _source_input(family: str) -> reductions.ReductionInput:
    if family == "damped":
        return reductions.ReductionInput(family, params=DampedParams(1.0, 0.4, 6.0, 2.0, 1.3))
    return reductions.ReductionInput(family, a=1.5, b=-0.5, lam=0.8)


# every equation the library builds, each with its array form
_LIBRARY_ODES = {
    "split+": lambda: closed_form.split_ode(DampedParams(1.0, 0.5, 16.0625, 4.0, 2.0)),
    "split-": lambda: closed_form.split_ode(DampedParams(1.0, 0.5, 16.0625, 4.0, 2.0),
                                            conjugate=True),
    "homogeneous damped": lambda: closed_form.homogeneous_ode(
        DampedParams(2.0, 0.3, 5.0, -1.5, 0.7)),
    "homogeneous undamped": lambda: closed_form.homogeneous_ode(
        DampedParams(1.0, 0.0, 3.0, 1.0, 2.0)),
    "mathieu real": lambda: general_mathieu_ode(GeneralParams(h=3.0, theta=1.5)),
    "mathieu complex": lambda: general_mathieu_ode(GeneralParams(h=2.0 + 1.0j, theta=0.5 - 0.3j)),
    "flux": lambda: flux.full_ode(flux.FluxParams(
        base=DampedParams(1.0, 0.5, 9.0, 0.05, 0.05), B=1.0, J0=1.0, Omega=1.2, c_light=1.0)),
    **{f"source {family}": (lambda family=family: reductions.source_ode(_source_input(family)))
       for family in reductions.FAMILIES},
}

# the equations whose values are complex; every other coefficient is real
_COMPLEX_Q = {"split+", "split-", "mathieu complex"}


@pytest.mark.parametrize("name", sorted(_LIBRARY_ODES))
def test_array_forms_agree_with_their_scalar_callables(name):
    ode = _LIBRARY_ODES[name]()
    assert ode.on_grid is not None
    # inside (0, 1), where eq11's and eq13's rational coefficients are finite
    grid = np.sort(np.random.default_rng(7).uniform(0.01, 0.99, 400))
    if not name.startswith(("source eq11", "source eq13")):
        grid = 40.0 * grid - 5.0
    formed = ode.coefficients_on(grid)
    sampled = LinearODE(p=ode.p, q=ode.q, f=ode.f).coefficients_on(grid)
    for coefficient, got, want in zip("pqf", formed, sampled):
        # each in its own dtype: a real coefficient is checked in real arithmetic
        complex_valued = coefficient == "q" and name in _COMPLEX_Q
        assert got.dtype == (np.complex128 if complex_valued else np.float64)
        assert got.shape == grid.shape
        # with numpy 2.4 on x86-64 Linux: bit-identical; other builds may take
        # SIMD sin/cos/exp loops a few ulp from libm's
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 4.0 * np.finfo(float).eps * scale


@pytest.mark.parametrize("name", sorted(_LIBRARY_ODES))
def test_scalar_coefficients_return_the_type_the_stepper_computes_in(name):
    # a float t gives a Python float for a real coefficient, so the stepper
    # stays on float arithmetic, and a Python complex for a complex one
    ode = _LIBRARY_ODES[name]()
    for t in np.random.default_rng(11).uniform(0.01, 0.99, 50).tolist():
        for coefficient, fn in zip("pqf", (ode.p, ode.q, ode.f)):
            if fn is not None:
                complex_valued = coefficient == "q" and name in _COMPLEX_Q
                assert type(fn(t)) is (complex if complex_valued else float), coefficient


def _counted(ode: LinearODE, calls: list, keep_form: bool) -> LinearODE:
    """ode with its scalar coefficients counting their calls, with or without its array form."""
    def count(fn):
        def counted(t):
            calls.append(t)
            return fn(t)
        return None if fn is None else counted

    return LinearODE(count(ode.p), count(ode.q), count(ode.f),
                     on_grid=ode.on_grid if keep_form else None)


def test_an_equation_without_its_array_form_is_sampled_to_the_same_report():
    params = DampedParams(1.0, 0.5, 16.0625, 4.0, 2.0)
    ode = closed_form.split_ode(params)
    grid = np.linspace(0.0, 10.0, 501)
    series = evaluate_grid(general_solution(params, closed_form.Variant.CORRECTED, 1.0, 1.0), grid)
    # as perfbench's counting wrapper rebuilds it: p, q and f only
    full, bare = residual(ode, series), residual(LinearODE(p=ode.p, q=ode.q, f=ode.f), series)
    assert full == bare
    assert full.pointwise.tobytes() == bare.pointwise.tobytes()


def test_grids_make_no_scalar_coefficient_call(monkeypatch):
    calls = []
    split_ode = closed_form.split_ode
    for keep_form, expected in ((False, 2 * 2 * 501), (True, 0)):
        monkeypatch.setattr(closed_form, "split_ode",
                            lambda *a, **k: _counted(split_ode(*a, **k), calls, keep_form))
        calls.clear()
        closed_form.adjudicate(DampedParams(1.0, 0.5, 16.0625, 4.0, 2.0),
                               np.linspace(0.0, 10.0, 501), allow_inadmissible=True)
        # p and q, both variants, every point; or none at all
        assert len(calls) == expected

    ode = _counted(general_mathieu_ode(GeneralParams(h=3.0, theta=1.5)), calls, True)
    calls.clear()
    series = integrate(ode, 1.0, 0.0, (0.0, 10.0), 1e-9, t_eval=np.linspace(0.0, 10.0, 201))
    # the stepper's calls only, one per stage time (stage 7 reuses stage 6's at
    # the step end): y'' on the grid comes from the array form
    meta = series.meta
    assert len(calls) == 2 + 5 * (meta["steps"] + meta["rejected"])
    assert meta["rhs_evaluations"] == 2 + 6 * (meta["steps"] + meta["rejected"])
