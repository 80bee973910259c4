from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathieu_kit.bessel import bessel_j
from mathieu_kit.closed_form import (
    AdjudicationReport,
    ClosedFormSpec,
    DampedParams,
    Variant,
    adjudicate,
    argument_scale,
    evaluate,
    evaluate_grid,
    fundamental_pair,
    general_solution,
    homogeneous_ode,
    index,
    mirror,
    split_ode,
)
from mathieu_kit.errors import (
    AdmissibilityError,
    InvalidParameterError,
    RangeLimitError,
    SingularityError,
)
from mathieu_kit.oracle import residual, wronskian_abel


def admissible_params(n_index: int, m: float, eta: float, k: float, omega: float,
                      variant=Variant.CORRECTED) -> DampedParams:
    """Choose the stiffness component so the chosen variant's index equals n_index.

    At index 0 the index is the square root of the pinned stiffness's rounding
    error (about 1e-8, past ADMISSIBILITY_TOL) unless m is a power of two,
    which makes the construction exact, as in test_acceptance's
    random_admissible_params; m is rounded to one there.  That narrows the
    draws at index 0 to an open defect's edge: tests/test_open_defects.py's
    small-mends-index0-decimal row holds a decimal-exact index 0 the gate
    refuses, and its mend should drop the rounding.
    """
    if n_index == 0:
        m = 2.0 ** round(math.log2(m))
    a = eta / m
    pinned = m * (a * a + (n_index * omega) ** 2) / 4.0
    if variant is Variant.CORRECTED:
        return DampedParams(m=m, eta=eta, k0=pinned, k=k, omega=omega)
    return DampedParams(m=m, eta=eta, k0=k, k=pinned, omega=omega)


def test_index_pinned_values():
    # modulation-amplitude placement: sqrt(-4)/(2i) = 1
    assert index(DampedParams(1.0, 0.0, 1.0, 1.0, 2.0), Variant.LITERAL) == pytest.approx(1.0)
    # sqrt(4 - 8)/(i*1) = 2
    assert index(DampedParams(1.0, 2.0, 1.0, 2.0, 1.0), Variant.LITERAL) == pytest.approx(2.0)
    # constant-stiffness placement: same arithmetic through k0
    assert index(DampedParams(1.0, 0.0, 1.0, 0.5, 2.0), Variant.CORRECTED) == pytest.approx(1.0)


def test_is_admissible_pinned_values():
    p = DampedParams(1.0, 0.0, 1.0, 2.25, 1.0)
    assert general_solution(p, Variant.LITERAL, allow_inadmissible=True).admissible_nu == 3
    # index 1.4999 is not within 1e-9 of an integer
    p2 = DampedParams(1.0, 0.0, 1.0, 1.4999**2, 2.0)
    assert index(p2, Variant.LITERAL) == pytest.approx(1.4999)
    assert general_solution(p2, Variant.LITERAL, allow_inadmissible=True).admissible_nu is None
    # a purely imaginary index is never admissible
    p3 = DampedParams(1.0, 4.0, 1.0, 1.0, 2.0)
    assert abs(index(p3, Variant.CORRECTED).imag) > 0.1
    assert general_solution(p3, Variant.CORRECTED, allow_inadmissible=True).admissible_nu is None


def test_is_admissible_negative_omega():
    p = DampedParams(1.0, 0.0, 1.0, 1.0, -2.0)
    assert index(p, Variant.CORRECTED) == pytest.approx(-1.0)
    assert general_solution(p, Variant.CORRECTED, allow_inadmissible=True).admissible_nu == -1


def spec_argument(spec: ClosedFormSpec, grid) -> np.ndarray:
    """z(t) = argument_scale * exp(exponent_rate * t) on a grid, as ClosedFormSpec defines it."""
    return spec.argument_scale * np.exp(spec.exponent_rate * np.asarray(grid))


def test_bessel_argument_pinned_values():
    lit = DampedParams(1.0, 0.0, 1.0, 1.0, 2.0)
    t = 0.7
    period = 4.0 * math.pi / lit.omega
    for variant in (Variant.LITERAL, Variant.CORRECTED):
        z0, z1, z_half, z2 = spec_argument(general_solution(lit, variant),
                                           [0.0, t, t + period / 2.0, t + period])
        assert z0 == pytest.approx(-1j)
        # the argument path closes after two modulation periods
        assert z2 == pytest.approx(z1, rel=1e-12)
        # and flips sign after one
        assert z_half == pytest.approx(-z1, rel=1e-12)


def test_damped_params_validation_and_ratios():
    with pytest.raises(InvalidParameterError):
        DampedParams(0.0, 0.0, 1.0, 1.0, 2.0)
    with pytest.raises(InvalidParameterError):
        DampedParams(1.0, -0.5, 1.0, 1.0, 2.0)
    with pytest.raises(InvalidParameterError):
        DampedParams(1.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        DampedParams(1.0, 0.0, float("inf"), 1.0, 2.0)
    p = DampedParams(2.0, 1.0, 4.0, 3.0, 2.0)
    assert p.damping_rate == pytest.approx(0.5)
    assert p.stiffness_ratio == pytest.approx(2.0)
    assert p.modulation_ratio == pytest.approx(1.5)


def test_spec_structural_invariants():
    p = admissible_params(2, m=1.5, eta=0.9, k=1.2, omega=1.3)
    spec = general_solution(p, Variant.CORRECTED, 1.0, 2.0)
    assert spec.decay_rate == pytest.approx(p.eta / (2.0 * p.m))
    assert spec.exponent_rate**2 == pytest.approx(-p.omega**2 / 4.0)
    assert spec.admissible_nu == 2
    assert spec.order() == 2
    assert abs(spec.nu - 2.0) < 1e-9


def test_evaluate_pinned_value_at_origin():
    p = DampedParams(1.0, 0.0, 1.0, 1.0, 2.0)
    spec = general_solution(p, Variant.LITERAL, c1=1.0, c2=0.0)
    sample = evaluate(spec, 0.0)
    expected = bessel_j(1, -1j).value
    assert sample.y == pytest.approx(expected, rel=1e-14)


def test_fundamental_pair_structure():
    p = admissible_params(1, m=1.0, eta=0.0, k=1.0, omega=2.0)
    y_member, j_member = fundamental_pair(p, Variant.CORRECTED, c1=3.0, c2=5.0)
    assert y_member.c1 == 0.0 and y_member.c2 == 5.0
    assert j_member.c1 == 3.0 and j_member.c2 == 0.0


def test_inadmissible_raises_with_context():
    p = DampedParams(1.0, 0.0, 1.0, 1.69, 2.0)  # index 1.3
    assert index(p, Variant.LITERAL) == pytest.approx(1.3)
    with pytest.raises(AdmissibilityError) as exc:
        fundamental_pair(p, Variant.LITERAL)
    assert exc.value.nu == pytest.approx(1.3)
    assert exc.value.nearest == 1
    with pytest.raises(AdmissibilityError):
        general_solution(p, Variant.LITERAL)


def test_allow_inadmissible_is_tagged():
    p = DampedParams(1.0, 0.0, 1.0, 1.69, 2.0)
    spec = general_solution(p, Variant.LITERAL, allow_inadmissible=True)
    assert spec.admissible_nu is None
    assert spec.order() == 1
    sample = evaluate(spec, 0.5)  # evaluable, approximate by construction
    assert np.isfinite(sample.y.real) and np.isfinite(sample.y.imag)


@given(
    n=st.integers(min_value=0, max_value=3),
    m=st.floats(min_value=0.5, max_value=2.0),
    eta=st.floats(min_value=0.0, max_value=3.0),
    k=st.floats(min_value=0.1, max_value=4.0),
    omega=st.floats(min_value=0.5, max_value=3.0),
)
def test_corrected_variant_solves_split_equation(n, m, eta, k, omega):
    p = admissible_params(n, m=m, eta=eta, k=k, omega=omega)
    spec = general_solution(p, Variant.CORRECTED, c1=1.0, c2=1.0)
    ode = split_ode(p)
    grid = np.linspace(0.0, 10.0, 101)
    rep = residual(ode, evaluate_grid(spec, grid))
    assert rep.verdict is True
    assert rep.linf < 1e-8


def test_adjudicate_reports_both_variants():
    # stiffness chosen so both placements give integer indices (1 and 2)
    m, eta, omega = 1.0, 0.5, 1.5
    a = eta / m
    k0 = m * (a * a + (1 * omega) ** 2) / 4.0
    k = m * (a * a + (2 * omega) ** 2) / 4.0
    p = DampedParams(m, eta, k0, k, omega)
    assert general_solution(p, Variant.CORRECTED, allow_inadmissible=True).admissible_nu == 1
    assert general_solution(p, Variant.LITERAL, allow_inadmissible=True).admissible_nu == 2
    report = adjudicate(p, np.linspace(0.0, 10.0, 501))
    assert isinstance(report, AdjudicationReport)
    assert report.corrected.linf < 1e-8
    assert np.isfinite(report.literal.linf)
    assert report.literal.linf > 1e-3  # measurably not a solution here
    assert report.passing_variant == "corrected"
    assert report.corrected.verdict and not report.literal.verdict


def test_adjudicate_custom_grid_and_failure():
    # an inadmissible set adjudicated under override: neither variant need pass
    p = DampedParams(1.0, 0.3, 0.8, 0.9, 1.1)
    report = adjudicate(p, grid=np.linspace(0.0, 5.0, 101), allow_inadmissible=True)
    assert np.isfinite(report.corrected.linf)
    assert np.isfinite(report.literal.linf)
    assert report.passing_variant in (None, "corrected", "paper-literal")


def test_prefactor_law():
    p = admissible_params(2, m=1.2, eta=1.8, k=2.0, omega=1.7)
    spec = general_solution(p, Variant.CORRECTED, c1=1.0, c2=2.0)
    # same bracket with the decay stripped: identical index/argument fields
    bare = replace(spec, decay_rate=0.0)
    rate = p.eta / (2.0 * p.m)
    for t in (0.0, 0.9, 2.4, 5.5, 9.7):
        full = evaluate(spec, t)
        bracket = evaluate(bare, t)
        assert abs(full.y) == pytest.approx(math.exp(-rate * t) * abs(bracket.y), rel=1e-13)


def test_linearity_in_constants():
    p = admissible_params(1, m=1.0, eta=0.6, k=1.5, omega=2.0)
    a, b = 2.0 - 1.0j, 0.5 + 3.0j
    s_ab = general_solution(p, Variant.CORRECTED, c1=a, c2=b)
    s_10 = general_solution(p, Variant.CORRECTED, c1=1.0, c2=0.0)
    s_01 = general_solution(p, Variant.CORRECTED, c1=0.0, c2=1.0)
    for t in (0.0, 1.3, 4.8, 8.9):
        lhs = evaluate(s_ab, t)
        y1 = evaluate(s_10, t)
        y2 = evaluate(s_01, t)
        scale = max(abs(lhs.y), 1e-30)
        assert abs(lhs.y - (a * y1.y + b * y2.y)) / scale < 1e-12
        scale_d = max(abs(lhs.dy), 1e-30)
        assert abs(lhs.dy - (a * y1.dy + b * y2.dy)) / scale_d < 1e-12


def test_pair_wronskian_abel_decay():
    p = admissible_params(1, m=1.0, eta=1.0, k=1.0, omega=2.0)
    y_member, j_member = fundamental_pair(p, Variant.CORRECTED)
    grid = np.linspace(0.0, 10.0, 41)
    w = np.empty(len(grid), dtype=complex)
    for i, t in enumerate(grid):
        s1 = evaluate(y_member, t)
        s2 = evaluate(j_member, t)
        w[i] = s1.y * s2.dy - s1.dy * s2.y
    assert abs(w[0]) > 1e-3  # linearly independent at the start
    expected = wronskian_abel(lambda t: p.eta / p.m, w[0], grid)
    assert np.max(np.abs(w - expected)) < 1e-8 * max(1.0, abs(w[0]))


def test_mirror_solves_conjugate_equation():
    p = admissible_params(2, m=1.0, eta=0.8, k=1.6, omega=1.4)
    spec = general_solution(p, Variant.CORRECTED, c1=1.0, c2=1.0)
    twin = mirror(spec)
    assert twin.exponent_rate == -spec.exponent_rate
    assert twin.argument_scale == -spec.argument_scale
    ode = split_ode(p, conjugate=True)
    grid = np.linspace(0.0, 10.0, 101)
    rep = residual(ode, evaluate_grid(twin, grid))
    assert rep.verdict is True


def test_mirror_parity_sign():
    p_odd = admissible_params(1, m=1.0, eta=0.0, k=1.0, omega=2.0)
    s_odd = general_solution(p_odd, Variant.CORRECTED, c1=2.0, c2=3.0)
    t_odd = mirror(s_odd)
    assert t_odd.c1 == -2.0 and t_odd.c2 == -3.0
    p_even = admissible_params(2, m=1.0, eta=0.0, k=1.0, omega=2.0)
    s_even = general_solution(p_even, Variant.CORRECTED, c1=2.0, c2=3.0)
    t_even = mirror(s_even)
    assert t_even.c1 == 2.0 and t_even.c2 == 3.0


@pytest.mark.parametrize("shift, order, admissible",
                         [(0.0, 2, 2), (1e-10, 2, 2), (1.0, 3, 3), (0.3, 2, None), (0.7, 3, None)])
def test_admissible_nu_and_order_follow_nu(shift, order, admissible):
    p = admissible_params(2, m=1.0, eta=0.8, k=1.6, omega=1.4)
    moved = replace(general_solution(p, Variant.CORRECTED, c1=1.0, c2=1.0), nu=2.0 + shift)
    assert (moved.order(), moved.admissible_nu) == (order, admissible)
    if admissible is None:
        with pytest.raises(AdmissibilityError):
            mirror(moved)
    else:
        twin = mirror(moved)
        assert (twin.order(), twin.admissible_nu) == (order, admissible)
        assert twin.c1 == (-1) ** order * moved.c1


def test_mirror_requires_admissible_spec():
    p = DampedParams(1.0, 0.0, 1.0, 1.69, 2.0)
    spec = general_solution(p, Variant.LITERAL, allow_inadmissible=True)
    with pytest.raises(AdmissibilityError):
        mirror(spec)


def test_zero_argument_scale_paths():
    # k = 0 collapses the argument to the origin for the corrected variant
    p = DampedParams(1.0, 0.0, 1.0, 0.0, 2.0)  # corrected index 1
    spec_j = general_solution(p, Variant.CORRECTED, c1=1.0, c2=0.0)
    s = evaluate(spec_j, 0.7)
    assert s.y == 0.0 and s.dy == 0.0 and s.d2y == 0.0  # J_1(0) = 0
    spec_y = general_solution(p, Variant.CORRECTED, c1=0.0, c2=1.0)
    with pytest.raises(SingularityError):
        evaluate(spec_y, 0.7)
    # order zero gives the constant solution of y'' = 0
    p0 = DampedParams(1.0, 0.0, 0.0, 0.0, 2.0)
    spec0 = general_solution(p0, Variant.CORRECTED, c1=2.5, c2=0.0)
    s0 = evaluate(spec0, 1.3)
    assert s0.y == pytest.approx(2.5)
    assert s0.dy == 0.0 and s0.d2y == 0.0


def test_evaluate_grid_refuses_an_overflow_at_its_first_t():
    # constants near the largest double: y and y' stay finite, y'' does not
    spec = general_solution(DampedParams(1.0, 0.0, 1.0, 1.0, 2.0), Variant.CORRECTED,
                            c1=1e308, c2=1e308)
    with pytest.raises(RangeLimitError, match="overflows at t = 0$"):
        evaluate_grid(spec, [0.0, 0.5, 1.0])
    # the decay prefactor e^{-t} overflows for t below about -709.8
    damped = general_solution(admissible_params(1, 1.0, 2.0, 1.0, 2.0), Variant.CORRECTED,
                              c1=1.0, c2=0.0)
    with pytest.raises(RangeLimitError, match="overflows at t = -800$"):
        evaluate_grid(damped, [-800.0, -750.0, -700.0, 0.0])
    assert np.all(np.isfinite(evaluate_grid(damped, [-700.0, 0.0]).d2y))


def test_homogeneous_and_split_odes_are_consistent():
    p = DampedParams(1.0, 0.4, 2.0, 0.6, 1.8)
    hom = homogeneous_ode(p)
    (pv,), (qv,), (fv,) = hom.coefficients_on(np.array([0.9]))
    assert pv == pytest.approx(p.eta / p.m)
    assert qv == pytest.approx((p.k0 + p.k * math.cos(p.omega * 0.9)) / p.m)
    assert fv == 0.0
    plus = split_ode(p)
    minus = split_ode(p, conjugate=True)
    _, (qp,), _ = plus.coefficients_on(np.array([0.9]))
    _, (qm,), _ = minus.coefficients_on(np.array([0.9]))
    # the two exponential halves average to the cosine stiffness
    assert 0.5 * (qp + qm) == pytest.approx(qv)


def test_argument_scale_matches_bessel_argument():
    p = DampedParams(1.0, 0.0, 2.0, 3.0, 1.5)
    for variant in (Variant.CORRECTED, Variant.LITERAL):
        spec = general_solution(p, variant, allow_inadmissible=True)
        assert spec_argument(spec, [0.0])[0] == pytest.approx(argument_scale(p, variant))


WINDING = DampedParams(m=1.0, eta=0.5, k0=16.0625, k=4.0, omega=2.0)  # index 4


@pytest.mark.parametrize("case", ["c2-winding", "y-member", "zero-argument", "literal-rounded"])
def test_evaluate_grid_matches_pointwise_evaluate(case):
    grid = np.linspace(0.0, 20.0, 401)
    p = WINDING
    if case == "c2-winding":
        spec = general_solution(p, Variant.CORRECTED, c1=1.0, c2=0.5)
        # the argument turns through 20 rad: more than three windings
        assert abs(spec.exponent_rate.imag) * grid[-1] > 3.0 * 2.0 * math.pi
    elif case == "y-member":
        spec, _ = fundamental_pair(p, Variant.CORRECTED)
        assert spec.c1 == 0
    elif case == "zero-argument":
        p = DampedParams(m=1.0, eta=0.3, k0=0.0225, k=0.0, omega=2.0)  # index 0
        spec = general_solution(p, Variant.CORRECTED, c1=1.5, c2=0.0)
        assert spec.argument_scale == 0
    else:
        spec = general_solution(p, Variant.LITERAL, c1=1.0, c2=1.0, allow_inadmissible=True)
        assert spec.admissible_nu is None
    series = evaluate_grid(spec, grid)
    eps = np.finfo(float).eps
    for i, t in enumerate(grid.tolist()):
        s = evaluate(spec, t)
        assert series.grid[i] == s.t
        for got, want in ((series.y[i], s.y), (series.dy[i], s.dy), (series.d2y[i], s.d2y)):
            assert abs(got - want) <= 4.0 * eps * abs(want)


def test_evaluate_grid_feeds_residual_directly():
    spec = general_solution(WINDING, Variant.CORRECTED, c1=1.0, c2=0.5)
    grid = np.linspace(0.0, 20.0, 401)
    series = evaluate_grid(spec, grid)
    rep = residual(split_ode(WINDING), series)
    assert rep.verdict is True
    assert len(rep.pointwise) == len(grid)


@pytest.mark.parametrize("n, zabs", [(0, 0.5), (12, 2.4), (9, 9.04), (4, 20.0), (12, 40.0)])
def test_evaluate_grid_memory_stays_flat_on_501_points(n, zabs):
    # the Bessel core streams its recurrence; an (orders x points) matrix
    # would take the peak past 2 MiB here
    m, eta, omega = 1.0, 0.7, 1.3
    p = admissible_params(n, m=m, eta=eta, k=m * (zabs * omega / 2.0) ** 2, omega=omega)
    grid = np.linspace(0.0, 10.0, 501)
    for variant in (Variant.CORRECTED, Variant.LITERAL):
        spec = general_solution(p, variant, c1=1.0, c2=1.0, allow_inadmissible=True)
        evaluate_grid(spec, grid)
        tracemalloc.start()
        try:
            evaluate_grid(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024, (variant, peak)
