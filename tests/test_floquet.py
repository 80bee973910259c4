from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from mathieu_kit import floquet, oracle
from mathieu_kit.errors import (
    ConvergenceError,
    InvalidParameterError,
    RangeLimitError,
    SingularityError,
)
from mathieu_kit.exponent_class import class_distance, normalize_exponent
from mathieu_kit.floquet import (
    GeneralParams,
    characteristic_exponent,
    classify_stability,
    coefficients,
    eval_floquet,
    eval_floquet_grid,
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
    working = solve(GeneralParams(4.0, 0.0)).mu
    assert normalize_exponent(working) == pytest.approx(0.0j)
    assert working == pytest.approx(2.0j)


def test_unmodulated_evaluation_is_pure_exponential():
    sol = solve(GeneralParams(1.0, 0.0))
    for t in (0.0, 0.7, 2.9):
        s = eval_floquet(sol, t)
        assert s.y == pytest.approx(cmath.exp(1j * t), rel=1e-12)
        assert s.dy == pytest.approx(1j * cmath.exp(1j * t), rel=1e-12)
        assert s.d2y == pytest.approx(-cmath.exp(1j * t), rel=1e-12)


@pytest.mark.parametrize("h,theta", [(1, 0.5), (3, 1.5), (1, 2000), (200, 50),
                                     (1 + 0.5j, 1 - 0.2j)])
def test_grid_evaluation_equals_the_per_point_sums(h, theta):
    sol = solve(GeneralParams(h, theta))
    n = sol.truncation
    grid = np.linspace(-2.0, 4.0 * math.pi, 201)
    series = eval_floquet_grid(sol, grid)
    rates = sol.mu + 2.0j * np.arange(-n, n + 1)
    for i, t in enumerate(grid.tolist()):
        point = np.array([t])
        x, x_inv = np.exp(2.0j * point), np.exp(-2.0j * point)
        for got, c in zip((series.y, series.dy, series.d2y),
                          (sol.coeffs, rates * sol.coeffs, rates * rates * sol.coeffs)):
            # centred on c_0: Horner in x over c_1..c_N and in 1/x over
            # c_-1..c_-N, then the prefactor e^{mu t}: bit for bit
            up = down = 0.0
            for term in c[:n:-1]:
                up = (up + term) * x
            for term in c[:n]:
                down = (down + term) * x_inv
            assert got[i] == ((up + down + c[n]) * np.exp(sol.mu * point))[0]
            # and the per-point sum of the terms, to the rounding of the exponents
            terms = c * np.exp(rates * t)
            bound = 16 * 2.2e-16 * (abs(sol.mu * t) + 2 * n * abs(t) + 1) * np.sum(np.abs(terms))
            assert abs(got[i] - np.sum(terms)) <= bound
        assert eval_floquet(sol, t) == series[i]


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


@pytest.mark.parametrize("h", [4.0, 16.0])
def test_monodromy_keeps_its_digits_at_a_double_multiplier(h):
    # at theta = 0 and h = n^2 the period map is +-I, where trace^2 - 4 det cancels
    # to rounding and its square root would carry about sqrt(tol) into mu
    gp = GeneralParams(h, 0.0)
    mono = monodromy_exponent(general_mathieu_ode(gp), math.pi, 1e-10)
    assert class_distance(solve(gp).mu, mono.mu_raw) <= 1e-9


def test_series_solves_equation():
    gp = GeneralParams(1.0, 0.5)
    sol = solve(gp)
    grid = np.linspace(0.0, 4.0 * math.pi, 201)
    rep = residual(general_mathieu_ode(gp), eval_floquet_grid(sol, grid))
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
    rep = residual(general_mathieu_ode(gp), eval_floquet_grid(other, grid))
    assert rep.verdict is True
    s1 = eval_floquet(sol, 0.0)
    s2 = eval_floquet(other, 0.0)
    wronskian = s1.y * s2.dy - s1.dy * s2.y
    assert abs(wronskian) > 1e-6


def test_second_solution_degenerate_cases():
    # h = theta = 0: the one solution e^{0 t} is its own reflection
    with pytest.raises(SingularityError, match="dependent"):
        second_solution(solve(GeneralParams(0.0, 0.0)))
    # a tongue edge with theta != 0: mu = 2i, and Ince's theorem leaves one periodic solution
    special = pytest.importorskip("scipy.special")
    sol = solve(GeneralParams(float(special.mathieu_a(2, 1.0)), 1.0))
    assert abs(sol.mu - 2j) <= 1e-9 and sol.truncation > 0
    with pytest.raises(SingularityError, match="dependent"):
        second_solution(sol)


# scipy's characteristic values a_0..a_3 and b_1..b_3 at q = 0.5, 1, 2: the 21 tongue edges
TONGUE_EDGES = [(kind, r, q) for q in (0.5, 1.0, 2.0)
                for kind, orders in (("a", range(4)), ("b", range(1, 4))) for r in orders]


@pytest.mark.parametrize("d", [0.0, 1e-10, -1e-10, 1e-6, -1e-6])
@pytest.mark.parametrize("kind, r, q", TONGUE_EDGES, ids=[f"{k}{r}({q})" for k, r, q in TONGUE_EDGES])
def test_second_solution_refuses_exactly_the_tongue_edges(kind, r, q, d):
    # at an edge (theta != 0) Ince's theorem leaves one periodic solution, so
    # u(t) and u(-t) are dependent; a distance d off it they are a general solution
    special = pytest.importorskip("scipy.special")
    gp = GeneralParams(float(getattr(special, f"mathieu_{kind}")(r, q)) + d, q)
    sol = solve(gp)
    if d == 0.0:
        with pytest.raises(SingularityError, match=r"dependent .* \(bound 4e-06\)"):
            second_solution(sol)
        return
    grid = np.linspace(0.0, 2.0 * math.pi, 81)
    rep = residual(general_mathieu_ode(gp), eval_floquet_grid(second_solution(sol), grid))
    assert rep.verdict, rep.linf


# h = 0 is in test_second_solution_degenerate_cases, h = 1 and 4 in the test below
@pytest.mark.parametrize("h, independent", [(1e-14, False), (1e-8, True), (1e4, True), (1e8, True)])
def test_second_solution_at_theta_zero_refuses_only_a_vanishing_exponent(h, independent):
    # e^{+-i sqrt(h) t}: in units of max(1, |mu|) their Wronskian is 2 sqrt(h)/(1 + h)
    # of the norms' product below h = 1 (2e-7 at h = 1e-14, under the bound) and 1 above
    gp = GeneralParams(h, 0.0)
    sol = solve(gp)
    if not independent:
        with pytest.raises(SingularityError, match="dependent"):
            second_solution(sol)
        return
    grid = np.linspace(0.0, 2.0 * math.pi, 41)
    assert residual(general_mathieu_ode(gp), eval_floquet_grid(second_solution(sol), grid)).verdict


@pytest.mark.parametrize("h", [1.0, 4.0])
def test_second_solution_of_a_decoupled_integer_exponent_is_independent(h):
    # theta = 0 and h = n^2: mu = i n lies in iZ, yet e^{+-i n t} are independent
    gp = GeneralParams(h, 0.0)
    sol = solve(gp)
    other = second_solution(sol)
    assert other.mu == -sol.mu and abs(sol.mu) == math.sqrt(h)
    grid = np.linspace(0.0, 2.0 * math.pi, 41)
    assert residual(general_mathieu_ode(gp), eval_floquet_grid(other, grid)).verdict
    s1, s2 = eval_floquet(sol, 0.0), eval_floquet(other, 0.0)
    assert abs(s1.y * s2.dy - s1.dy * s2.y) == pytest.approx(2.0 * math.sqrt(h))


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
    rep = residual(general_mathieu_ode(gp), eval_floquet_grid(sol, grid))
    assert rep.verdict is True


def test_solution_accessor_and_truncation():
    sol = solve(GeneralParams(1.0, 0.5))
    assert sol.coeffs[sol.truncation] == 1.0 + 0.0j
    assert len(sol.coeffs) == 2 * sol.truncation + 1
    assert sol.truncation >= 5


@pytest.mark.parametrize("h, theta", [(2.5, 0.0), (1.0, 0.5), (3.0, -1.5)])
def test_truncation_is_fixed_by_the_coefficients(h, theta):
    sol = solve(GeneralParams(h, theta))
    assert sol.truncation == len(sol.coeffs) // 2
    assert (sol.truncation == 0) == (theta == 0.0)
    assert second_solution(sol).truncation == sol.truncation


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


@pytest.mark.parametrize("h, theta, polishes", [(3.0, 1.5, 1), (1.0, 5.0, 1), (200.0, 50.0, 1),
                                                (1.0 + 0.3j, 0.4 - 0.1j, 1), (-50.0, 1000.0, 0)])
def test_coefficients_polish_once_and_never_a_seed_at_its_floor(monkeypatch, h, theta, polishes):
    # (1, 5) deepens its sweep before the polish; the Hill seed at (-50, 1000)
    # has a defect of 5e-14, already below its rounding floor of 2e-12
    started = []
    secant = floquet._secant

    def counting(f, x0, e0, *args):
        started.append(abs(e0[0]) > e0[1])
        return secant(f, x0, e0, *args)

    monkeypatch.setattr(floquet, "_secant", counting)
    gp = GeneralParams(h, theta)
    sol = coefficients(gp, floquet._hill_seed(gp))
    assert started == [True] * polishes
    rep = residual(general_mathieu_ode(gp), eval_floquet_grid(sol, np.linspace(0.0, math.pi, 41)))
    if theta == 1000.0:
        # the series misses where |y| is small (a tol-1e-13 stepper from its own
        # state differs by 3.8e-5 of the local size), and is refused
        assert rep.verdict is False
    else:
        assert rep.linf <= 1e-8


@pytest.mark.parametrize("h, theta", [(1.0, 0.5), (10.0, 2.0), (200.0, 50.0), (1.0, 2000.0)])
def test_series_ends_at_the_tail_constant(h, theta):
    gp = GeneralParams(h, theta)
    sol = coefficients(gp, floquet._hill_seed(gp))
    n = sol.truncation
    # the same recurrence swept far deeper at the returned exponent
    _, _, r, s = floquet._center_row(gp, sol.mu, 4 * n + 50)
    deep = np.abs(np.concatenate([np.cumprod(s)[::-1], [1.0], np.cumprod(r)]))
    kept = deep[len(r) - n:len(r) + n + 1]
    peak = np.max(deep)
    assert np.max(np.delete(deep, np.s_[len(r) - n:len(r) + n + 1])) <= floquet.SERIES_TAIL * peak
    assert max(kept[0], kept[-1]) > floquet.SERIES_TAIL * peak
    assert np.max(np.abs(np.abs(sol.coeffs) - kept)) <= 1e-12 * peak


def test_coefficients_are_the_running_products_of_the_last_sweep(monkeypatch):
    # c_{-N..N} is the sweep's ratios multiplied out, bit for bit as np.cumprod
    # forms them, at the returned exponent and the depth it was last swept at
    swept = []
    sweep = floquet._sweep

    def recording(gp, mu, depth):
        swept.append((mu, depth))
        return sweep(gp, mu, depth)

    monkeypatch.setattr(floquet, "_sweep", recording)
    rng = np.random.default_rng(36)
    points = list(zip(rng.uniform(-2.0, 10.0, 40), rng.uniform(-2.0, 2.0, 40)))
    points += [(1.0 + 0.3j, 0.4 - 0.1j), (200.0, 50.0), (1.0, 2000.0)]
    for h, theta in points:
        gp = GeneralParams(h, theta)
        swept.clear()
        sol = coefficients(gp, floquet._hill_seed(gp))
        mu, depth = swept[-1]
        assert mu == sol.mu
        r, s = sweep(gp, mu, depth)
        n = sol.truncation
        c = np.concatenate([np.cumprod(s[:n])[::-1], [1.0 + 0.0j], np.cumprod(r[:n])])
        assert sol.coeffs.tobytes() == c.tobytes()


def test_fourier_series_refuses_a_non_finite_or_unconverged_series():
    # at mu = 0 the sweep's last row, n = 100, has a zero diagonal: its ratio is theta/1e-300 = inf
    gp = GeneralParams(4.0 * 100 ** 2, 2e8)
    with pytest.raises(RangeLimitError, match="degenerated"):
        floquet.fourier_series(gp, 0.0, floquet._center_row(gp, 0.0, 100))
    # finite coefficients whose modulus overflows midway: c_2 = 1.5e308 (1 + i), c_3 = 1.5e8 (1 + i)
    ev = (0j, 0.0, [1.5e300 + 0j, 1e8 + 1e8j, 1e-300 + 0j], [0.5 + 0j] * 3)
    with pytest.raises(RangeLimitError, match="degenerated"):
        floquet.fourier_series(GeneralParams(1.0, 1.0), 0.0, ev)
    ev = (0j, 0.0, [1.0 + 0j] * floquet.MAX_DEPTH, [0.5 + 0j] * floquet.MAX_DEPTH)
    with pytest.raises(ConvergenceError, match="above 1e-34 at N=4096"):
        floquet.fourier_series(GeneralParams(1.0, 1.0), 0.0, ev)


def test_a_first_sweep_deeper_than_max_depth_is_refused_before_sweeping(monkeypatch):
    # 16 + ceil(sqrt|theta|) is 10^75 at theta = 1e150: a sweep that deep would
    # never end, so no sweep may be asked for beyond MAX_DEPTH
    swept = floquet._sweep

    def bounded(gp, mu, depth):
        assert depth <= floquet.MAX_DEPTH, f"asked to sweep to depth {depth}"
        return swept(gp, mu, depth)

    monkeypatch.setattr(floquet, "_sweep", bounded)
    for theta in (1e150, 4081.0 ** 2):
        gp = GeneralParams(1.0, theta)
        with pytest.raises(ConvergenceError, match="first sweep depth .* above MAX_DEPTH=4096"):
            coefficients(gp, 0.1j)
        with pytest.raises(ConvergenceError, match="first sweep depth"):
            floquet.fourier_series(gp, 0.1j)
    # the largest theta whose first depth is MAX_DEPTH itself still sweeps
    assert floquet._sweep_depth(GeneralParams(1.0, 4080.0 ** 2)) == floquet.MAX_DEPTH


def test_hill_truncation_above_its_cap_is_refused():
    for gp in (GeneralParams(1.0, 1e150), GeneralParams(1e10, 1.0), GeneralParams(1.0, 3e7)):
        with pytest.raises(ConvergenceError, match=r"Hill's formula needs truncation N=.* above 65536"):
            solve(gp)
    # just inside the cap the formula runs: N = 64,839 at h = 4.2e9
    assert math.isfinite(abs(floquet._hill_seed(GeneralParams(4.2e9, 1.0))))


def test_exponent_far_off_the_chart_matches_a_tight_monodromy():
    gp = GeneralParams(1.0, 2000.0)
    sol = solve(gp)
    mono = monodromy_exponent(general_mathieu_ode(gp), math.pi, 1e-13)
    assert class_distance(sol.mu, mono.mu_raw) <= 1e-7
    # but not the series: where |y| is small it misses its equation (a tol-1e-13
    # stepper from its own state differs by 8.9 of the local size), and is refused
    rep = residual(general_mathieu_ode(gp), eval_floquet_grid(sol, np.linspace(0.0, math.pi, 41)))
    assert rep.verdict is False


@pytest.mark.parametrize("h, theta", [(-50.0, 1000.0), (10.0, 1000.0)])
def test_exponent_at_large_theta_matches_a_tight_monodromy(h, theta):
    gp = GeneralParams(h, theta)
    mono = monodromy_exponent(general_mathieu_ode(gp), math.pi, 1e-13)
    assert class_distance(solve(gp).mu, mono.mu_raw) <= 1e-9


def test_solve_recovers_a_root_whose_smallest_diagonal_row_sits_next_to_a_pole():
    # row +7 fails the centre-row gate here (defect 54.5); row -7 passes
    gp = GeneralParams(200.0, 50.0)
    sol = solve(gp)
    mono = monodromy_exponent(general_mathieu_ode(gp), math.pi, 1e-13)
    assert class_distance(sol.mu, mono.mu_raw) <= 1e-8
    grid = np.linspace(0.0, math.pi, 41)
    rep = residual(general_mathieu_ode(gp), eval_floquet_grid(sol, grid))
    assert rep.linf <= 1e-8


def test_solve_where_the_secant_slope_is_rounding_noise():
    # the seed's centre-row defect (2.5e-13) is already at the rounding level of
    # the terms it cancels, where a step-size stop alone walks along the noise
    gp = GeneralParams(-1.2057713298527233, -1.8580732759455714)
    sol = solve(gp)
    mono = monodromy_exponent(general_mathieu_ode(gp), math.pi, 1e-13)
    assert class_distance(sol.mu, mono.mu_raw) <= 1e-12
    grid = np.linspace(0.0, math.pi, 41)
    rep = residual(general_mathieu_ode(gp), eval_floquet_grid(sol, grid))
    assert rep.linf <= 1e-12


def test_secant_accepts_a_flat_value_only_at_its_soft_floor_and_refuses_a_stall():
    # equal values give no slope, so the search stops where it is: kept below
    # 1e-9, refused above it
    x, ev = floquet._secant(lambda x: (1e-10, 0.0), 1.0, (1e-10, 0.0), 0.0)
    assert ev == (1e-10, 0.0) and x == 1.0 + 2e-9
    with pytest.raises(ConvergenceError, match="stalled: .* on two equal values after 0 iterations"):
        floquet._secant(lambda x: (1.0, 0.0), 1.0, (1.0, 0.0), 0.0)
    # x^2 + 1 has no real root: a search from a real start never falls below 1e-9
    calls = []

    def no_real_root(x):
        calls.append(x)
        return x * x + 1.0, 0.0

    with pytest.raises(ConvergenceError, match="after 80 iterations"):
        floquet._secant(no_real_root, 0.3, (1.09, 0.0), 0.0)
    assert len(calls) == 1 + 80


@pytest.mark.parametrize("h, theta", [(3.0, 1.5), (-1.0, 0.7), (2.25, 0.0),
                                      (1.0 + 0.3j, 0.4 - 0.1j), (2.0, 0.5j)])
def test_exponent_is_a_python_complex(h, theta):
    assert type(solve(GeneralParams(h, theta)).mu) is complex


@pytest.mark.parametrize("h, theta", [(3.0, 1.5), (1.0, 5.0), (200.0, 50.0), (1.0 + 0.3j, 0.4 - 0.1j)])
def test_coefficients_sweep_each_exponent_once(monkeypatch, h, theta):
    # (1, 5) deepens its sweep once; (200, 50) rejects its first centre row
    seen = []
    sweep = floquet._sweep

    def recording(gp, mu, depth):
        seen.append((mu.real.hex(), mu.imag.hex(), depth))
        return sweep(gp, mu, depth)

    monkeypatch.setattr(floquet, "_sweep", recording)
    gp = GeneralParams(h, theta)
    coefficients(gp, floquet._hill_seed(gp))
    assert seen and len(set(seen)) == len(seen)


def _stable_sort_shift_order(gp, mu, window):
    """The centre-row order as one full array sort: the reference the lazy order must equal."""
    n = np.arange(1, window + 1)
    shifts = np.zeros(2 * window + 1, dtype=int)
    shifts[1::2], shifts[2::2] = n, -n
    rows = mu + 2.0j * shifts
    diag = np.abs(gp.h + rows * rows)
    order = np.argsort(diag, kind="stable")
    least = diag[order[0]]
    first = np.argmax(diag <= least + 1e-14 * (1.0 + least))
    return [int(shifts[first])] + shifts[order[order != first]].tolist(), int(shifts[order[0]])


def test_lazy_shift_order_is_the_full_stable_sort(monkeypatch):
    rng = np.random.default_rng(21)
    cases = [(GeneralParams(complex(h, hi), complex(th, thi)), complex(mr, mi))
             for h, hi, th, thi, mr, mi in zip(rng.uniform(-2.0, 300.0, 60), rng.choice([0.0, 0.5], 60),
                                               rng.uniform(-60.0, 60.0, 60), rng.choice([0.0, -0.3], 60),
                                               rng.uniform(-1.0, 1.0, 60), rng.uniform(-3.0, 3.0, 60))]
    # theta = 0 at h = 4k^2: rows 0 and -2k tie at the exact exponent 2ik, and a
    # last-bit offset leaves row -2k below row 0 by less than 1e-14
    for k in rng.integers(1, 30, 400).tolist():
        eps, delta = rng.uniform(-3e-15, 3e-15), rng.uniform(-1e-16, 1e-16)
        cases.append((GeneralParams(4.0 * k * k, 0.0), 1j * (2 * k + eps * k) + delta))
    ties = 0
    for gp, mu in cases:
        window = 40 + int(math.sqrt(abs(gp.h)) / 2)
        expected, smallest = _stable_sort_shift_order(gp, mu, window)
        assert list(floquet._shift_order(gp, mu, window)) == expected, (gp, mu)
        ties += expected[0] != smallest
    assert ties > 0  # the tie rule, not the sort, chose the first row

    # (200, 50): row +7 fails the gate, so the fallback order is consumed
    consumed = []
    lazy = floquet._shift_order

    def recording(gp, mu, window):
        for shift in lazy(gp, mu, window):
            consumed.append(shift)
            yield shift

    monkeypatch.setattr(floquet, "_shift_order", recording)
    gp = GeneralParams(200.0, 50.0)
    seed = floquet._hill_seed(gp)
    floquet._centre(gp, seed, floquet._sweep_depth(gp))
    expected, _ = _stable_sort_shift_order(gp, seed, 40 + int(math.sqrt(200.0) / 2))
    assert len(consumed) >= 2 and consumed == expected[:len(consumed)]


def test_series_residuals_over_the_sweep_box_stay_at_rounding_level():
    rng = np.random.default_rng(400)
    grid = np.linspace(0.0, math.pi, 41)
    for h, theta in zip(rng.uniform(-2.0, 10.0, 400).tolist(), rng.uniform(-2.0, 2.0, 400).tolist()):
        gp = GeneralParams(h, theta)
        rep = residual(general_mathieu_ode(gp), eval_floquet_grid(solve(gp), grid))
        assert rep.linf <= 1e-13, (h, theta, rep.linf)


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
            rep = residual(general_mathieu_ode(gp), eval_floquet_grid(sol, grid))
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


# the centre row, where h + (mu + 2in)^2 nearly vanishes, sits near n = sqrt(h)/2:
# past the 40 rows searched at small h.  (960937.5, -7812.5) is the reduction
# of the flux job m = 1, eta = 2, k0 = 62.5, k = 1, omega = 0.016.
@pytest.mark.parametrize("h, theta", [(7000.0, 0.5), (7000.0, 5.0), (1e4, 5.0), (4e4, 5.0),
                                      (1e5, 50.0), (960937.5, -7812.5)])
def test_solve_at_large_h_finds_the_far_centre_row(h, theta):
    gp = GeneralParams(h, theta)
    sol = solve(gp)
    grid = np.linspace(0.0, math.pi, 41)
    rep = residual(general_mathieu_ode(gp), eval_floquet_grid(sol, grid))
    assert rep.linf <= 1e-8


def test_exponent_at_large_h_matches_a_tight_monodromy():
    gp = GeneralParams(7000.0, 5.0)
    mono = monodromy_exponent(general_mathieu_ode(gp), math.pi, 1e-12)
    assert class_distance(solve(gp).mu, mono.mu_raw) <= 1e-8
