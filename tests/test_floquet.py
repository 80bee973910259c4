from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from mathieu_kit import floquet, oracle
from mathieu_kit.errors import ConvergenceError, DegeneracyError, InvalidParameterError
from mathieu_kit.exponent_class import class_distance, normalize_exponent
from mathieu_kit.floquet import (
    FloquetSolution,
    GeneralParams,
    characteristic_exponent,
    classify_stability,
    coefficients,
    eval_floquet,
    exponent_details,
    general_mathieu_ode,
    hill_determinant,
    second_solution,
    solve,
)
from mathieu_kit.oracle import monodromy_exponent, residual

THETA0_CASES = [0.25, 1.0, 2.25, 4.0]


def test_general_params_validation():
    with pytest.raises(InvalidParameterError):
        GeneralParams(float("nan"), 0.0)
    with pytest.raises(InvalidParameterError):
        GeneralParams(1.0, complex("inf"))
    gp = GeneralParams(1, 0.5)
    assert isinstance(gp.h, complex) and isinstance(gp.theta, complex)


@pytest.mark.parametrize("h", THETA0_CASES)
def test_unmodulated_exponent_is_exact(h):
    sol = solve(GeneralParams(h, 0.0))
    assert sol.mu == 1j * math.sqrt(h)
    # the coefficient vector collapses to the center entry exactly
    center = sol.truncation
    assert sol.coeffs[center] == 1.0 + 0.0j
    off = np.delete(sol.coeffs, center)
    assert np.all(off == 0.0)


def test_normal_form_of_exponent():
    assert characteristic_exponent(GeneralParams(1.0, 0.0)) == pytest.approx(1j)
    assert characteristic_exponent(GeneralParams(4.0, 0.0)) == pytest.approx(0.0j)
    # Im mu is folded into [0, 2); the smaller representative is preferred
    assert characteristic_exponent(GeneralParams(2.25, 0.0)) == pytest.approx(0.5j)
    normalized, working = exponent_details(GeneralParams(4.0, 0.0))
    assert normalized == pytest.approx(0.0j)
    assert working == pytest.approx(2.0j)


def test_unmodulated_evaluation_is_pure_exponential():
    sol = solve(GeneralParams(1.0, 0.0))
    for t in (0.0, 0.7, 2.9):
        s = eval_floquet(sol, t)
        assert s.y == pytest.approx(cmath.exp(1j * t), rel=1e-12)
        assert s.dy == pytest.approx(1j * cmath.exp(1j * t), rel=1e-12)
        assert s.d2y == pytest.approx(-cmath.exp(1j * t), rel=1e-12)


def test_continuity_in_small_modulation():
    base = characteristic_exponent(GeneralParams(2.25, 0.0))
    near = characteristic_exponent(GeneralParams(2.25, 1e-6))
    assert abs(near - base) < 1e-5


def test_modulated_solution_recurrence_and_tail():
    gp = GeneralParams(1.0, 0.5)
    sol = solve(gp)
    mu, c, n_max = sol.mu, sol.coeffs, sol.truncation
    assert c[n_max] == 1.0 + 0.0j
    peak = float(np.max(np.abs(c)))
    worst = 0.0
    for n in range(-n_max + 1, n_max):
        i = n + n_max
        row = -gp.theta * c[i - 1] + (gp.h + (mu + 2j * n) ** 2) * c[i] - gp.theta * c[i + 1]
        worst = max(worst, abs(row))
    assert worst <= 1e-10 * peak
    assert abs(c[0]) <= 1e-12 * peak
    assert abs(c[-1]) <= 1e-12 * peak


def test_determinant_vanishes_on_equivalence_class():
    gp = GeneralParams(1.0, 0.5)
    sol = solve(gp)
    for shift in (sol.mu, -sol.mu, sol.mu + 2j, sol.mu - 2j):
        assert abs(hill_determinant(gp, shift)) < 1e-9


def test_exponent_matches_monodromy_oracle():
    for h, theta in ((1.0, 0.5), (3.0, 1.0), (-1.0, 0.7)):
        gp = GeneralParams(h, theta)
        sol = solve(gp)
        mono = monodromy_exponent(general_mathieu_ode(gp), math.pi, 1e-12)
        assert class_distance(sol.mu, mono.mu_raw) < 1e-6


def test_series_solves_equation():
    gp = GeneralParams(1.0, 0.5)
    sol = solve(gp)
    grid = np.linspace(0.0, 4.0 * math.pi, 201)
    rep = residual(general_mathieu_ode(gp), lambda t: eval_floquet(sol, t), grid, tol=1e-8)
    assert rep.verdict is True


def test_periodic_part_has_pi_period():
    gp = GeneralParams(1.0, 0.5)
    sol = solve(gp)
    for t in (0.0, 0.4, 1.9):
        a = eval_floquet(sol, t).y * cmath.exp(-sol.mu * t)
        b = eval_floquet(sol, t + math.pi).y * cmath.exp(-sol.mu * (t + math.pi))
        assert abs(a - b) < 1e-10


def test_coefficients_reject_non_root():
    with pytest.raises(InvalidParameterError):
        coefficients(GeneralParams(1.0, 0.5), 0.37 + 0.11j)


def test_second_solution_structure_and_residual():
    gp = GeneralParams(1.0, 0.5)
    sol = solve(gp)
    other = second_solution(sol)
    assert other.mu == -sol.mu
    assert np.allclose(other.coeffs, sol.coeffs[::-1])
    grid = np.linspace(0.0, 4.0 * math.pi, 201)
    rep = residual(general_mathieu_ode(gp), lambda t: eval_floquet(other, t), grid, tol=1e-8)
    assert rep.verdict is True
    s1 = eval_floquet(sol, 0.0)
    s2 = eval_floquet(other, 0.0)
    wronskian = s1.y * s2.dy - s1.dy * s2.y
    assert abs(wronskian) > 1e-6


def test_second_solution_degenerate_cases():
    with pytest.raises(DegeneracyError):
        second_solution(solve(GeneralParams(4.0, 0.0)))
    with pytest.raises(DegeneracyError):
        second_solution(solve(GeneralParams(1.0, 0.0)))


def test_classify_stability():
    assert classify_stability(0.3) == "unstable"
    assert classify_stability(-0.3 + 0.2j) == "unstable"
    assert classify_stability(0.5j) == "stable"
    assert classify_stability(0.3j) == "stable"
    # integer-imaginary exponents sit on resonance-tongue boundaries
    assert classify_stability(1j) == "boundary"
    assert classify_stability(2j) == "boundary"
    assert classify_stability(0.0j) == "boundary"


def test_first_tongue_is_unstable():
    sol = solve(GeneralParams(1.0, 0.5))
    assert abs(sol.mu.real) > 0.2
    assert classify_stability(sol.mu) == "unstable"


def test_complex_parameters_supported():
    gp = GeneralParams(1.0 + 0.3j, 0.4 - 0.1j)
    sol = solve(gp)
    grid = np.linspace(0.0, 2.0 * math.pi, 101)
    rep = residual(general_mathieu_ode(gp), lambda t: eval_floquet(sol, t), grid, tol=1e-8)
    assert rep.verdict is True


def test_solution_accessor_and_truncation():
    sol = solve(GeneralParams(1.0, 0.5))
    assert sol.coefficient(0) == 1.0 + 0.0j
    assert sol.coefficient(1) == sol.coeffs[sol.truncation + 1]
    assert len(sol.coeffs) == 2 * sol.truncation + 1
    assert sol.truncation >= 5


def test_normalize_exponent_properties():
    assert normalize_exponent(2j) == pytest.approx(0.0j)
    assert normalize_exponent(-0.3 + 0.7j) == pytest.approx(0.3 - 0.7j + 2j)
    assert normalize_exponent(1.5j) == pytest.approx(0.5j)
    mu = 0.11 + 0.37j
    for twin in (mu, -mu, mu + 2j, mu - 4j):
        assert class_distance(mu, twin) < 1e-12


def test_solve_reports_a_rejected_seed_as_convergence_failure(monkeypatch):
    monkeypatch.setattr(floquet, "_hill_seed", lambda gp: 0.37 + 0.11j)
    with pytest.raises(ConvergenceError) as exc:
        solve(GeneralParams(1.0, 0.5))
    assert isinstance(exc.value.__cause__, InvalidParameterError)


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_solve_reports_an_overflowing_hill_formula_as_convergence_failure(theta):
    # sin^2(pi sqrt(h)/2) = -sinh^2(500 pi) is beyond double range
    with pytest.raises(ConvergenceError, match="overflowed"):
        solve(GeneralParams(-1e6, theta))


def test_coefficients_double_the_truncation_until_the_tail_is_small():
    gp = GeneralParams(1.0, 5.0)
    sol = solve(gp, trunc=5)
    assert sol.truncation == 20
    grid = np.linspace(0.0, math.pi, 41)
    rep = residual(general_mathieu_ode(gp), lambda t: eval_floquet(sol, t), grid)
    assert rep.linf <= 1e-8


def test_exponent_far_off_the_chart_matches_a_tight_monodromy():
    gp = GeneralParams(1.0, 2000.0)
    sol = solve(gp)
    mono = monodromy_exponent(general_mathieu_ode(gp), math.pi, 1e-13)
    assert class_distance(sol.mu, mono.mu_raw) <= 1e-7


def test_solve_recovers_a_root_whose_smallest_diagonal_row_sits_next_to_a_pole():
    # row +7 fails the centre-row gate here (defect 54.5); row -7 passes
    gp = GeneralParams(200.0, 50.0)
    sol = solve(gp)
    mono = monodromy_exponent(general_mathieu_ode(gp), math.pi, 1e-13)
    assert class_distance(sol.mu, mono.mu_raw) <= 1e-8
    grid = np.linspace(0.0, math.pi, 41)
    rep = residual(general_mathieu_ode(gp), lambda t: eval_floquet(sol, t), grid)
    assert rep.linf <= 1e-8


@pytest.mark.parametrize("theta", [0.3, 1.0 + 0.5j])
@pytest.mark.parametrize("h", [0.0, 4.0, 16.0, 36.0, 4.0 + 1e-9, 4.0 - 1e-9])
def test_hill_seed_is_accurate_where_a_row_scaling_vanishes(h, theta):
    gp = GeneralParams(h, theta)
    mono = monodromy_exponent(general_mathieu_ode(gp), math.pi, 1e-13)
    assert class_distance(floquet._hill_seed(gp), mono.mu_raw) <= 1e-6


def test_solve_never_calls_the_oracle(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve() must not integrate the period map")

    monkeypatch.setattr(oracle, "monodromy_exponent", forbidden)
    monkeypatch.setattr(floquet, "monodromy_exponent", forbidden)
    grid = np.linspace(0.0, math.pi, 41)
    for h in (-2.0, 10.0):
        for theta in (-2.0, 2.0):
            gp = GeneralParams(h, theta)
            sol = solve(gp)
            rep = residual(general_mathieu_ode(gp), lambda t: eval_floquet(sol, t), grid)
            assert rep.linf <= 1e-8


def _tongue_edges(special, q):
    return ([float(special.mathieu_a(r, q)) for r in range(6)]
            + [float(special.mathieu_b(r, q)) for r in range(1, 6)])


def test_stability_class_agrees_with_scipy_tongues():
    special = pytest.importorskip("scipy.special")
    compared = 0
    for q in np.linspace(0.0, 2.0, 21):
        edges = _tongue_edges(special, q)
        a, b = edges[:6], edges[6:]
        for h in np.linspace(-2.0, 10.0, 61):
            if min(abs(h - e) for e in edges) < 1e-6:
                continue
            inside = h < a[0] or any(b[r - 1] < h < a[r] for r in range(1, 6))
            label = classify_stability(solve(GeneralParams(float(h), float(q))).mu)
            assert label == ("unstable" if inside else "stable"), (h, q)
            compared += 1
    assert compared > 1200


def test_exponent_at_scipy_tongue_edges_is_on_the_imaginary_lattice():
    special = pytest.importorskip("scipy.special")
    for q in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0):
        for edge in _tongue_edges(special, q):
            mu = normalize_exponent(solve(GeneralParams(edge, q)).mu)
            assert abs(mu - 1j * round(mu.imag)) <= 1e-7, (edge, q)
