"""The one rule that admits a number from outside the package.

A parameter type, the closed form's constants, the tolerance, a grid, a CLI
flag and the numbers the public entry points take (an initial value, an
exponent, a start time, a frequency, a span, a period) all admit a finite
Python or numpy int, float or complex (a real field a real one only), and
refuse anything else with InvalidParameterError.  A modulus or a span must be
positive too, and a point count is an int from 1 to MAX_GRID_POINTS.  The public
result types (FloquetSolution, ClosedFormSpec, ReductionResult) admit their own
numbers by the same rule, and a Floquet series' coefficients c_{-N..N} are a
finite 1-d array of numbers of odd length.  A number the rule admits is still
refused, with the same error, where its meaning rules it out: an unknown
variant, a negative amplitude, a phase outside (-pi, pi], a grid that does not
increase or does not match its samples, a mu the decoupled system does not have.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathieu_kit.closed_form import DampedParams, general_solution, index
from mathieu_kit.errors import InvalidParameterError
from mathieu_kit.exponent_class import class_distance, normalize_exponent
from mathieu_kit.floquet import (
    FloquetSolution,
    GeneralParams,
    classify_stability,
    coefficients,
    general_mathieu_ode,
    hill_determinant,
    solve,
)
from mathieu_kit.flux import (
    FluxParams,
    SinusoidalResponse,
    closed_form_motion,
    modulation_analysis,
    symmetric_case_solution,
)
from mathieu_kit.oracle import integrate, monodromy_exponent, validate_tolerance, wronskian_abel
from mathieu_kit.reductions import ReductionInput, interior_grid, reduce
from mathieu_kit.samples import MAX_GRID_POINTS, TimeSeries, as_grid, complex_number, real_number

DAMPED = DampedParams(m=1.0, eta=0.5, k0=2.0, k=1.0, omega=2.0)
FLUX = FluxParams(base=DAMPED, B=1.0, J0=1.0, Omega=2.0, c_light=1.0)
REDUCTION = ReductionInput("eq15", a=1.0, b=0.5, lam=1.0)
GENERAL = GeneralParams(3.0, 1.5)
RESPONSE = SinusoidalResponse(amplitude=1.0, frequency=2.0, phase=0.5)
_T = np.linspace(0.0, 100.0, 2001)
REDUCED = reduce(REDUCTION)
# an admissible spec (nu = 1) and a Floquet solution, for the result types' own fields
SPEC = general_solution(DampedParams(m=1.0, eta=0.0, k0=1.0, k=1.0, omega=2.0), c2=1.0)
FLOQUET = solve(GENERAL)
SIGNAL = TimeSeries(grid=_T, y=np.cos(2.0 * _T), dy=-2.0 * np.sin(2.0 * _T),
                    d2y=-4.0 * np.cos(2.0 * _T))


def _field_sites(instance, names):
    return [(f"{type(instance).__name__}.{name}",
             lambda v, name=name: replace(instance, **{name: v})) for name in names]


REAL_SITES = [
    *_field_sites(DAMPED, ("m", "eta", "k0", "k", "omega")),
    *_field_sites(FLUX, ("B", "J0", "Omega", "c_light")),
    *_field_sites(REDUCTION, ("a", "b", "lam")),
    *_field_sites(RESPONSE, ("amplitude", "frequency", "phase")),
    ("validate_tolerance", validate_tolerance),
    ("as_grid", lambda v: as_grid([0.0, v, 1.0])),
    ("real_number", lambda v: real_number("x", v)),
    ("symmetric_case_solution.y_at_0", lambda v: symmetric_case_solution(FLUX, v, [0.0, 1.0])),
    ("closed_form_motion.start", lambda v: closed_form_motion(FLUX, v, [0.0, 1.0])),
    ("modulation_analysis.Omega", lambda v: modulation_analysis(SIGNAL, v, 0.3)),
    ("modulation_analysis.omega", lambda v: modulation_analysis(SIGNAL, 2.0, v)),
    ("integrate.span start",
     lambda v: integrate(general_mathieu_ode(GENERAL), 1.0, 0.0, (v, 0.1), 1e-8)),
    ("integrate.span end",
     lambda v: integrate(general_mathieu_ode(GENERAL), 1.0, 0.0, (0.0, v), 1e-8)),
    ("monodromy_exponent.period", lambda v: monodromy_exponent(general_mathieu_ode(GENERAL), v, 1e-8)),
    *_field_sites(SPEC, ("decay_rate",)),
    *_field_sites(REDUCED, ("prefactor_rate", "time_scale")),
]
# real fields that must be positive as well
POSITIVE_SITES = [
    ("normalize_exponent.im_modulus", lambda v: normalize_exponent(0.5j, v)),
    ("interior_grid.span", lambda v: interior_grid(REDUCED, span=v)),
]
# a grid's point count
COUNT_SITES = [
    ("interior_grid.n", lambda v: interior_grid(REDUCED, n=v)),
]
COMPLEX_SITES = [
    *_field_sites(GENERAL, ("h", "theta")),
    ("general_solution.c1", lambda v: general_solution(DAMPED, c1=v)),
    ("general_solution.c2", lambda v: general_solution(DAMPED, c2=v)),
    ("classify_stability", classify_stability),
    ("coefficients", lambda v: coefficients(GENERAL, v)),
    ("hill_determinant", lambda v: hill_determinant(GENERAL, v)),
    ("complex_number", lambda v: complex_number("x", v)),
    ("integrate.y0", lambda v: integrate(general_mathieu_ode(GENERAL), v, 0.0, (0.0, 0.1), 1e-8)),
    ("integrate.dy0", lambda v: integrate(general_mathieu_ode(GENERAL), 1.0, v, (0.0, 0.1), 1e-8)),
    ("normalize_exponent", normalize_exponent),
    ("class_distance.mu_a", lambda v: class_distance(v, 0.5j)),
    ("class_distance.mu_b", lambda v: class_distance(0.5j, v)),
    ("wronskian_abel.w0", lambda v: wronskian_abel(lambda t: 0.5, v, [0.0, 1.0])),
    *_field_sites(SPEC, ("nu", "c1", "c2", "argument_scale", "exponent_rate")),
    *_field_sites(FLOQUET, ("mu",)),
]
# a series' coefficients c_{-N..N}
SERIES_SITES = _field_sites(FLOQUET, ("coeffs",))
ALL_SITES = REAL_SITES + POSITIVE_SITES + COUNT_SITES + COMPLEX_SITES + SERIES_SITES

_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# what no site admits: a non-finite real or complex value (Python's or numpy's),
# an int beyond the float range, None, text, and other objects
REFUSED_EVERYWHERE = st.one_of(
    _NON_FINITE,
    _NON_FINITE.map(np.float64),
    st.tuples(_NON_FINITE, st.floats()).map(lambda p: complex(*p)),
    st.tuples(st.floats(), _NON_FINITE).map(lambda p: np.complex128(complex(*p))),
    st.integers(min_value=2**1024),
    st.integers(max_value=-(2**1024)),
    st.none(),
    st.text(),
    st.binary(),
    st.lists(st.floats(), min_size=2, max_size=3),
)
# and what a real site refuses too: any complex value, a zero imaginary part included
REFUSED_WHERE_REAL = st.one_of(
    REFUSED_EVERYWHERE,
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: complex(x, 0.0)),
)
REFUSED_WHERE_POSITIVE = st.one_of(REFUSED_WHERE_REAL, st.floats(max_value=0.0),
                                   st.integers(max_value=0))
# a count refuses every float, even an integral one
REFUSED_AS_COUNT = st.one_of(REFUSED_WHERE_REAL, st.floats(), st.integers(max_value=0),
                             st.integers(MAX_GRID_POINTS + 1, 2**63 - 1).map(np.int64))
_FINITE = st.complex_numbers(allow_nan=False, allow_infinity=False)
# what a series refuses: a single number, None, text, an even count, a non-finite
# entry, entries that are not numbers, nested or ragged sequences
REFUSED_AS_SERIES = st.one_of(
    _NON_FINITE, _FINITE, st.none(), st.text(), st.binary(),
    st.lists(_FINITE, max_size=3).map(lambda c: np.array(c + c)),
    st.tuples(st.lists(_FINITE, max_size=2), _NON_FINITE).map(lambda p: p[0] + [p[1]] + p[0]),
    st.lists(st.text(), min_size=1, max_size=3).filter(lambda c: len(c) % 2),
    st.just([[1.0], [1.0, 2.0], [3.0]]),
    st.just(np.ones((3, 3))),
)


@pytest.mark.parametrize("site, call, refused",
                         [(name, call, REFUSED_WHERE_REAL) for name, call in REAL_SITES]
                         + [(name, call, REFUSED_WHERE_POSITIVE) for name, call in POSITIVE_SITES]
                         + [(name, call, REFUSED_AS_COUNT) for name, call in COUNT_SITES]
                         + [(name, call, REFUSED_EVERYWHERE) for name, call in COMPLEX_SITES]
                         + [(name, call, REFUSED_AS_SERIES) for name, call in SERIES_SITES],
                         ids=[name for name, _ in ALL_SITES])
@given(data=st.data())
def test_every_site_refuses_what_is_not_an_admissible_number(site, call, refused, data):
    value = data.draw(refused)
    with pytest.raises(InvalidParameterError):
        call(value)


@pytest.mark.parametrize("site, call", ALL_SITES, ids=[name for name, _ in ALL_SITES])
@pytest.mark.parametrize("value", [math.nan, None, "1.0"], ids=["nan", "None", "text"])
def test_every_site_refuses_nan_none_and_text(site, call, value):
    with pytest.raises(InvalidParameterError):
        call(value)


@pytest.mark.parametrize("value", [3, 2.5, np.float32(0.5), np.int64(-4), 2**1023])
def test_every_finite_real_number_is_admitted_as_a_python_number(value):
    assert type(real_number("x", value)) is float and real_number("x", value) == float(value)
    assert type(complex_number("x", value)) is complex and complex_number("x", value) == value


def test_a_complex_site_admits_numpy_complex_values():
    assert complex_number("x", np.complex64(1 - 2j)) == 1 - 2j
    assert GeneralParams(np.complex128(2 + 1j), 0.5).h == 2 + 1j
    # and computes on the Python complex it admits
    det = hill_determinant(GENERAL, np.complex128(0.3 + 0.2j))
    assert type(det) is complex and det == hill_determinant(GENERAL, 0.3 + 0.2j)
    # a series admits real or complex coefficients and holds them as a complex array
    coeffs = FloquetSolution(np.complex128(1j), [0.5, 1, np.float32(0.5)]).coeffs
    assert coeffs.dtype == complex and coeffs.tolist() == [0.5, 1, 0.5]


# before the shared rule, these lost their imaginary parts with at most a ComplexWarning
def test_flux_params_refuse_a_complex_drive_instead_of_truncating_it():
    with pytest.raises(InvalidParameterError, match="B must be real"):
        FluxParams(base=DAMPED, B=np.complex128(1 + 2j), J0=1.0, Omega=2.0, c_light=1.0)


def test_reduction_input_refuses_a_complex_coefficient_instead_of_truncating_it():
    with pytest.raises(InvalidParameterError, match="a must be real"):
        ReductionInput("eq11", a=np.complex128(1 + 2j))


def test_as_grid_refuses_a_complex_array_instead_of_truncating_it():
    with pytest.raises(InvalidParameterError, match="grid must be real numbers"):
        as_grid(np.array([1 + 2j, 3]))


# and this one was a TypeError
def test_flux_params_refuse_none_with_the_package_error():
    with pytest.raises(InvalidParameterError, match="B must be real, got None"):
        FluxParams(base=DAMPED, B=None, J0=1.0, Omega=2.0, c_light=1.0)


def test_refusals_name_the_field_and_the_value():
    with pytest.raises(InvalidParameterError, match=r"^omega must be finite, got inf$"):
        replace(DAMPED, omega=math.inf)
    with pytest.raises(InvalidParameterError, match=r"^theta must be finite, got \(nan\+0j\)$"):
        GeneralParams(1.0, math.nan)
    with pytest.raises(InvalidParameterError, match=r"^c2 must be a number, got 'x'$"):
        general_solution(DAMPED, c2="x")
    with pytest.raises(InvalidParameterError, match=r"^tolerance must be finite, got inf$"):
        validate_tolerance(10**400)
    with pytest.raises(InvalidParameterError, match=r"^y0 must be a number, got 'x'$"):
        integrate(general_mathieu_ode(GENERAL), "x", 0.0, (0.0, 0.1), 1e-8)
    with pytest.raises(InvalidParameterError, match=r"^start must be finite, got nan$"):
        closed_form_motion(FLUX, math.nan, [0.0, 1.0])
    with pytest.raises(InvalidParameterError, match=r"^amplitude must be finite, got nan$"):
        SinusoidalResponse(math.nan, 1.0, 0.0)
    with pytest.raises(InvalidParameterError, match=r"^span start must be real, got '0'$"):
        integrate(general_mathieu_ode(GENERAL), 1.0, 0.0, ("0", 1.0), 1e-8)
    with pytest.raises(InvalidParameterError, match=r"^period must be real, got '3.14'$"):
        monodromy_exponent(general_mathieu_ode(GENERAL), "3.14", 1e-8)
    with pytest.raises(InvalidParameterError, match=r"^w0 must be finite, got \(nan\+0j\)$"):
        wronskian_abel(None, math.nan, [0.0, 1.0])
    with pytest.raises(InvalidParameterError, match=r"^im_modulus must be positive, got 0.0$"):
        normalize_exponent(0.5j, 0)
    with pytest.raises(InvalidParameterError, match=r"^n must be an int from 1 to 10,000,000, got -1$"):
        interior_grid(REDUCED, n=-1)
    with pytest.raises(InvalidParameterError, match=r"^mu must be finite, got \(nan\+0j\)$"):
        FloquetSolution(math.nan, np.ones(1))
    with pytest.raises(InvalidParameterError, match=r"^coeffs must have odd length, got 2$"):
        FloquetSolution(1j, np.ones(2))
    with pytest.raises(InvalidParameterError, match=r"^coeffs must be finite$"):
        FloquetSolution(1j, np.array([1.0, math.nan, 1.0]))
    with pytest.raises(InvalidParameterError, match=r"^nu must be finite, got \(nan\+0j\)$"):
        replace(SPEC, nu=math.nan)
    with pytest.raises(InvalidParameterError, match=r"^time_scale must be finite, got nan$"):
        replace(REDUCED, time_scale=math.nan)


# numbers the rule admits, refused for what they mean
DOMAIN_REFUSALS = [
    ("unknown variant", lambda: index(DAMPED, "literal"), "unknown variant 'literal'"),
    ("negative amplitude", lambda: SinusoidalResponse(-1.0, 2.0, 0.5),
     "amplitude must be nonnegative"),
    ("phase -pi", lambda: SinusoidalResponse(1.0, 2.0, -math.pi), r"phase must lie in \(-pi, pi\]"),
    ("phase above pi", lambda: SinusoidalResponse(1.0, 2.0, 3.5), r"phase must lie in \(-pi, pi\]"),
    ("unequal lengths",
     lambda: TimeSeries(grid=np.array([0.0, 1.0]), y=np.ones(3), dy=np.ones(3), d2y=np.ones(3)),
     "grid and sample arrays must have equal length"),
    ("repeated point",
     lambda: TimeSeries(grid=np.array([0.0, 1.0, 1.0]), y=np.ones(3), dy=np.ones(3),
                        d2y=np.ones(3)),
     "grid must be strictly increasing"),
    ("decreasing grid",
     lambda: TimeSeries(grid=np.array([1.0, 0.0]), y=np.ones(2), dy=np.ones(2), d2y=np.ones(2)),
     "grid must be strictly increasing"),
    ("mu off the decoupled system", lambda: coefficients(GeneralParams(1.0, 0.0), 0.3),
     r"does not solve the decoupled system"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in DOMAIN_REFUSALS],
                         ids=[case[0] for case in DOMAIN_REFUSALS])
def test_an_admitted_number_outside_its_domain_is_refused(call, message):
    with pytest.raises(InvalidParameterError, match=message):
        call()
