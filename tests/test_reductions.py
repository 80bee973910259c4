from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathieu_kit.closed_form import DampedParams, homogeneous_ode
from mathieu_kit.errors import InvalidParameterError, MapDomainError
from mathieu_kit.floquet import eval_floquet_grid, general_mathieu_ode, second_solution, solve
from mathieu_kit.oracle import LinearODE, integrate, residual
from mathieu_kit.reductions import (
    FAMILIES,
    MAP_COS,
    MAP_COS_SQ,
    MAP_LINEAR,
    MAP_RESCALE,
    ReductionInput,
    ReductionResult,
    _source_time,
    damped_to_general,
    interior_grid,
    pullback,
    reduce,
    source_ode,
)
from mathieu_kit.samples import TimeSeries

DAMPED_EXAMPLE = DampedParams(m=1.3, eta=0.9, k0=2.0, k=0.7, omega=1.6)


def relative_defect(ode: LinearODE, series) -> float:
    pv, qv, fv = ode.coefficients_on(series.grid)
    terms = (series.d2y, pv * series.dy, qv * series.y, fv)
    defect = terms[0] + terms[1] + terms[2] - terms[3]
    biggest = max(1.0, *(float(np.max(np.abs(v))) for v in terms))
    return float(np.max(np.abs(defect))) / biggest


def reduced_series(result: ReductionResult, n: int = 161):
    grid = interior_grid(result, n=n, span=2.0 * math.pi)
    ode = general_mathieu_ode(result.gp)
    return integrate(ode, 1.0, 0.5, (grid[0], grid[-1]), 1e-11, t_eval=grid)


def test_damped_to_general_pinned_values():
    r1 = damped_to_general(DampedParams(1.0, 0.0, 4.0, 0.0, 2.0))
    assert r1.gp.h == pytest.approx(4.0)
    assert r1.gp.theta == pytest.approx(0.0)
    r2 = damped_to_general(DampedParams(1.0, 0.0, 4.0, 2.0, 2.0))
    assert r2.gp.h == pytest.approx(4.0)
    assert r2.gp.theta == pytest.approx(-1.0)
    r3 = damped_to_general(DampedParams(1.0, 2.0, 4.0, 0.0, 2.0))
    assert r3.gp.h == pytest.approx(3.0)
    assert r3.gp.theta == pytest.approx(0.0)
    assert r3.prefactor_rate == pytest.approx(1.0)
    assert r3.time_scale == pytest.approx(1.0)
    assert r3.variable_map == MAP_RESCALE


def test_reduce_pinned_values_cosine_families():
    r11 = reduce(ReductionInput(family="eq11", a=1.0, b=2.0))
    assert r11.gp.h == pytest.approx(3.0)
    assert r11.gp.theta == pytest.approx(-0.5)
    assert r11.variable_map == MAP_COS
    r13 = reduce(ReductionInput(family="eq13", a=2.0, b=1.0))
    assert r13.gp.h == pytest.approx(-4.0)
    assert r13.gp.theta == pytest.approx(1.0)
    assert r13.variable_map == MAP_COS_SQ


def test_reduce_pinned_values_linear_and_double_angle():
    # bracket (4b/lam^2 + (4a/lam^2) cos 2z) matched against h - 2*theta*cos 2z
    r15 = reduce(ReductionInput(family="eq15", a=3.0, b=2.0, lam=2.0))
    assert r15.gp.h == pytest.approx(2.0)
    assert r15.gp.theta == pytest.approx(-1.5)
    assert r15.variable_map == MAP_LINEAR
    assert r15.time_scale == pytest.approx(1.0)
    # a = 0, b < 0 leaves an exponential equation: h < 0
    r15b = reduce(ReductionInput(family="eq15", a=0.0, b=-1.0, lam=2.0))
    assert r15b.gp.h == pytest.approx(-1.0)
    assert r15b.gp.theta == pytest.approx(0.0)
    # sin^2 = (1 - cos 2t)/2 and cos^2 = (1 + cos 2t)/2 differ only in theta's sign
    r_sin = reduce(ReductionInput(family="eq17-sin", a=2.0, b=0.0))
    assert r_sin.gp.h == pytest.approx(1.0)
    assert r_sin.gp.theta == pytest.approx(0.5)
    r_cos = reduce(ReductionInput(family="eq17-cos", a=2.0, b=0.0))
    assert r_cos.gp.h == pytest.approx(1.0)
    assert r_cos.gp.theta == pytest.approx(-0.5)
    assert r_sin.variable_map == MAP_RESCALE


def test_reduce_damped_dispatch():
    via_reduce = reduce(ReductionInput(family="damped", params=DAMPED_EXAMPLE))
    direct = damped_to_general(DAMPED_EXAMPLE)
    assert via_reduce.gp == direct.gp
    assert via_reduce.time_scale == direct.time_scale
    assert via_reduce.prefactor_rate == direct.prefactor_rate


def test_reduction_input_validation():
    with pytest.raises(InvalidParameterError):
        ReductionInput(family="eq99", a=1.0, b=0.0)
    with pytest.raises(InvalidParameterError):
        ReductionInput(family="eq15", a=1.0, b=0.0, lam=0.0)
    with pytest.raises(InvalidParameterError):
        ReductionInput(family="damped")  # params required
    with pytest.raises(InvalidParameterError):
        ReductionInput(family="eq11", a=1.0, b=0.0, params=DAMPED_EXAMPLE)
    with pytest.raises(InvalidParameterError):
        ReductionInput(family="eq11", a=float("nan"), b=0.0)


@pytest.mark.parametrize("family,a,b,lam", [
    ("eq11", 1.0, 2.0, 0.0),
    ("eq11", -0.7, 1.3, 0.0),
    ("eq13", 2.0, 1.0, 0.0),
    ("eq13", 1.1, -0.4, 0.0),
    ("eq15", 3.0, 2.0, 2.0),
    ("eq15", -1.0, 0.5, 1.5),
    ("eq17-sin", 2.0, 0.0, 0.0),
    ("eq17-sin", 1.4, -0.6, 0.0),
    ("eq17-cos", 2.0, 0.0, 0.0),
    ("eq17-cos", -0.8, 1.2, 0.0),
])
def test_pullback_satisfies_source_equation(family, a, b, lam):
    inp = ReductionInput(family=family, a=a, b=b, lam=lam)
    result = reduce(inp)
    series = reduced_series(result)
    pulled = pullback(result, series)
    assert np.all(np.diff(pulled.grid) > 0)
    assert relative_defect(source_ode(inp), pulled) < 1e-6


@pytest.mark.parametrize("eta", [0.0, 0.9])
def test_pullback_damped_family(eta):
    params = DampedParams(m=1.3, eta=eta, k0=2.0, k=0.7, omega=1.6)
    inp = ReductionInput(family="damped", params=params)
    result = reduce(inp)
    series = reduced_series(result)
    pulled = pullback(result, series)
    assert relative_defect(source_ode(inp), pulled) < 1e-6
    # time stamps are the rescaled reduced variable
    assert np.allclose(pulled.grid, result.time_scale * series.grid, rtol=0, atol=1e-12)
    if eta == 0.0:
        assert np.allclose(pulled.y, series.y, rtol=1e-12, atol=1e-12)


def test_pullback_rejects_vanishing_map_derivative():
    result = reduce(ReductionInput(family="eq11", a=1.0, b=2.0))
    grid = np.linspace(0.0, 1.0, 11)  # includes z = 0 where dt/dz = -sin 0 = 0
    ode = general_mathieu_ode(result.gp)
    series = integrate(ode, 1.0, 0.0, (0.0, 1.0), 1e-10, t_eval=grid)
    with pytest.raises(MapDomainError):
        pullback(result, series)


# each map's inverse (source -> reduced variable, principal branch), read off its name
INVERSE_MAPS = {
    MAP_COS: lambda result, t: np.arccos(t),
    MAP_COS_SQ: lambda result, t: np.arccos(np.sqrt(t)),
    MAP_LINEAR: lambda result, t: (2.0 / result.time_scale * t - math.pi / 2.0) / 2.0,
    MAP_RESCALE: lambda result, t: t / result.time_scale,
}


@given(z=st.floats(min_value=0.02, max_value=1.5),
       family=st.sampled_from(FAMILIES))
def test_variable_map_round_trip(z, family):
    if family == "damped":
        inp = ReductionInput(family=family, params=DAMPED_EXAMPLE)
    elif family == "eq15":
        inp = ReductionInput(family=family, a=1.0, b=0.5, lam=2.0)
    else:
        inp = ReductionInput(family=family, a=1.0, b=0.5)
    result = reduce(inp)
    t = result.to_source_time(z)
    back = INVERSE_MAPS[result.variable_map](result, t)
    assert abs(float(back) - z) < 1e-12
    forward = result.to_source_time(back)
    assert abs(float(forward) - float(t)) < 1e-12


# one family per map: t = cos z, t = cos^2 z, lambda t = 2z + pi/2 and t = (2/omega) z
ONE_PER_MAP = [ReductionInput("eq11", a=1.0, b=0.5), ReductionInput("eq13", a=1.0, b=0.5),
               ReductionInput("eq15", a=1.0, b=0.5, lam=1.3),
               ReductionInput("damped", params=DAMPED_EXAMPLE)]


@pytest.mark.parametrize("inp", ONE_PER_MAP, ids=[inp.family for inp in ONE_PER_MAP])
def test_map_derivatives_are_the_derivatives_of_its_t(inp):
    result = reduce(inp)
    z = np.linspace(0.1, 1.4, 27)
    t, dtdz, d2tdz2 = _source_time(result, z)
    assert np.array_equal(t, result.to_source_time(z))
    h = 1e-4
    t_up, t_down = _source_time(result, z + h)[0], _source_time(result, z - h)[0]
    assert np.allclose(dtdz, (t_up - t_down) / (2.0 * h), rtol=0.0, atol=1e-7)
    assert np.allclose(d2tdz2, (t_up - 2.0 * t + t_down) / (h * h), rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("z", [np.array([0.3 + 2j]), math.nan, np.array([0.3, math.nan]),
                               0.3 + 2j, None, "0.3"])
def test_to_source_time_refuses_what_is_not_real(z):
    # np.asarray(z, dtype=float) once mapped 0.3+2j to cos 0.3 with only a ComplexWarning
    result = reduce(ReductionInput("eq11", a=1.0, b=0.5))
    with pytest.raises(InvalidParameterError):
        result.to_source_time(z)


def test_pullback_refuses_a_sample_outside_the_principal_branch():
    # |sin 1e-9| is above the derivative floor, but cos 1e-9 rounds to 1
    result = reduce(ReductionInput("eq11", a=1.0, b=0.5))
    grid = np.array([1e-9, 0.5])
    series = TimeSeries(grid=grid, y=np.ones(2), dy=np.ones(2), d2y=np.ones(2))
    with pytest.raises(MapDomainError, match=r"^t = cos z samples must satisfy -1 < t < 1$"):
        pullback(result, series)


def test_interior_grid_avoids_singular_points():
    r11 = reduce(ReductionInput(family="eq11", a=1.0, b=2.0))
    g = interior_grid(r11)
    assert g[0] >= 0.05 * math.pi - 1e-12
    assert g[-1] <= 0.95 * math.pi + 1e-12
    assert np.min(np.abs(np.sin(g))) > 0.01
    r13 = reduce(ReductionInput(family="eq13", a=2.0, b=1.0))
    g13 = interior_grid(r13)
    assert g13[-1] < math.pi / 2.0
    assert np.min(np.abs(np.sin(2.0 * g13))) > 0.01
    r15 = reduce(ReductionInput(family="eq15", a=3.0, b=2.0, lam=2.0))
    g15 = interior_grid(r15, span=7.0)
    assert g15[0] == 0.0 and g15[-1] == 7.0


def test_source_ode_forms():
    # (1 - t^2) y'' - t y' + (2a t^2 + b) y = 0, written in monic form
    inp = ReductionInput(family="eq11", a=1.0, b=2.0)
    ode = source_ode(inp)
    t = 0.3
    (pv,), (qv,), (fv,) = ode.coefficients_on(np.array([t]))
    assert pv == pytest.approx(-t / (1.0 - t * t))
    assert qv == pytest.approx((2.0 * 1.0 * t * t + 2.0) / (1.0 - t * t))
    assert fv == 0.0
    # 2t(t-1) y'' + (2t-1) y' + (a t + b) y = 0
    inp13 = ReductionInput(family="eq13", a=2.0, b=1.0)
    ode13 = source_ode(inp13)
    t = 0.3
    (pv,), (qv,), _ = ode13.coefficients_on(np.array([t]))
    denom = 2.0 * t * (t - 1.0)
    assert pv == pytest.approx((2.0 * t - 1.0) / denom)
    assert qv == pytest.approx((2.0 * t + 1.0) / denom)
    # y'' + (a sin(lam t) + b) y = 0
    inp15 = ReductionInput(family="eq15", a=3.0, b=2.0, lam=2.0)
    ode15 = source_ode(inp15)
    (pv,), (qv,), _ = ode15.coefficients_on(np.array([0.4]))
    assert pv == 0.0
    assert qv == pytest.approx(3.0 * math.sin(0.8) + 2.0)


@pytest.mark.parametrize("family, scalar, array", [("eq17-sin", math.sin, np.sin),
                                                    ("eq17-cos", math.cos, np.cos)])
def test_eq17_scalar_and_grid_q_are_the_same_expression(family, scalar, array):
    # the stepper reads q(t), a grid reads on_grid: where libm's and numpy's
    # sine agree, the two must agree to the bit
    ode = source_ode(ReductionInput(family=family, a=1.5, b=-0.5))
    t = np.random.default_rng(17).uniform(-20.0, 20.0, 2000)
    on_grid = ode.on_grid(t)[1].tolist()
    same = [scalar(x) == y for x, y in zip(t.tolist(), array(t).tolist())]
    assert sum(same) >= 0.99 * len(t)
    assert [ode.q(x) for x, ok in zip(t.tolist(), same) if ok] == \
        [q for q, ok in zip(on_grid, same) if ok]


def test_composition_with_closed_form():
    # the cosine equation's general solution is the Floquet pair at the reduction's
    # (h, theta), not the closed form (which solves the e^{i omega t} split equation)
    params = DampedParams(1.0, 0.0, 1.0, 1.0, 2.0)
    result = damped_to_general(params)
    assert result.gp.h == pytest.approx(1.0)
    assert result.gp.theta == pytest.approx(-0.5)
    u = solve(result.gp)
    z = np.linspace(0.0, 4.0 * math.pi, 201)
    for member in (u, second_solution(u)):
        pulled = pullback(result, eval_floquet_grid(member, z))
        assert residual(homogeneous_ode(params), pulled).verdict
