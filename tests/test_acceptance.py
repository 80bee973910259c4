"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion, prints a single
pass/fail line with the measured figures, and asserts the stated
tolerances (and runtime budgets where stated).  Everything is seeded and
deterministic.
"""
from __future__ import annotations

import cmath
import math
import time

import numpy as np

from mathieu_kit.bessel import bessel_j, bessel_y
from mathieu_kit.cli import main as cli_main
from mathieu_kit.closed_form import (
    DampedParams,
    Variant,
    adjudicate,
    evaluate_grid,
    fundamental_pair,
    general_solution,
    split_ode,
)
from mathieu_kit.exponent_class import class_distance
from mathieu_kit.floquet import (
    GeneralParams,
    eval_floquet_grid,
    general_mathieu_ode,
    solve,
)
from mathieu_kit.flux import (
    FluxParams,
    field_from_motion,
    identify_frequencies,
    induced_field_model,
    modulation_analysis,
    simulate_full,
)
from mathieu_kit.oracle import LinearODE, integrate, monodromy_exponent, residual
from mathieu_kit.reductions import (
    ReductionInput,
    interior_grid,
    pullback,
    reduce,
    source_ode,
)

SEED = 20260818


def report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{label}]: {status} — {detail}", flush=True)


def random_admissible_params(rng: np.random.Generator) -> DampedParams:
    """Both stiffness placements admissible: integer corrected and literal indices.

    Mass is drawn from powers of two so the pinned-stiffness construction is
    exact in binary floating point and the index reconstruction lands on the
    intended integer to ~1e-14 instead of sqrt(ulp) ~ 1e-8.
    """
    m = float(rng.choice([0.5, 1.0, 2.0]))
    eta = float(rng.uniform(0.0, 3.0))
    omega = float(rng.uniform(0.5, 3.0))
    n_corr = int(rng.integers(0, 4))
    n_lit = int(rng.integers(1, 4))
    a = eta / m
    k0 = m * (a * a + (n_corr * omega) ** 2) / 4.0
    k = m * (a * a + (n_lit * omega) ** 2) / 4.0
    return DampedParams(m=m, eta=eta, k0=k0, k=k, omega=omega)


def test_criterion_01_bessel_wronskian():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(-20, 21))
        if trial % 10 < 7:
            # full magnitude range along the real axis (both signs)
            r = float(np.exp(rng.uniform(math.log(0.1), math.log(50.0))))
            z = complex(r if rng.random() < 0.5 else -r, 0.0)
        else:
            # full phase at moderate magnitude, where the identity's
            # subtraction is well conditioned in double precision
            r = float(np.exp(rng.uniform(math.log(0.1), math.log(5.0))))
            z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        jv = bessel_j(n, z)
        yv = bessel_y(n, z)
        w = jv.value * yv.derivative - jv.derivative * yv.value
        expected = 2.0 / (math.pi * z)
        worst = max(worst, abs(w - expected) / abs(expected))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, "bessel wronskian", ok,
           f"worst rel err {worst:.2e} (tol 1e-10), {elapsed:.2f}s (budget 5s)")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_02_closed_form_residual():
    rng = np.random.default_rng(SEED + 2)
    grid = np.linspace(0.0, 10.0, 251)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        params = random_admissible_params(rng)
        spec = general_solution(params, Variant.CORRECTED, c1=1.0, c2=1.0)
        rep = residual(split_ode(params), evaluate_grid(spec, grid))
        worst = max(worst, rep.linf)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    report(2, "closed-form exactness", ok,
           f"worst rel Linf {worst:.2e} (tol 1e-8), {elapsed:.2f}s (budget 10s)")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_03_adjudication_report():
    rng = np.random.default_rng(SEED + 2)  # the same parameter sets as criterion 2
    grid = np.linspace(0.0, 10.0, 251)
    worst_corrected = 0.0
    literal_values = []
    for _ in range(50):
        params = random_admissible_params(rng)
        rep = adjudicate(params, grid=grid)
        # both numbers present on every run, report-only for the literal one
        assert np.isfinite(rep.corrected.linf)
        assert np.isfinite(rep.literal.linf)
        assert rep.passing_variant is not None
        worst_corrected = max(worst_corrected, rep.corrected.linf)
        literal_values.append(rep.literal.linf)
    lit_lo, lit_hi = min(literal_values), max(literal_values)
    ok = worst_corrected < 1e-8
    report(3, "adjudication", ok,
           f"passing_variant populated on 50/50; literal residual range "
           f"[{lit_lo:.2e}, {lit_hi:.2e}] (report-only)")
    assert ok


def test_criterion_04_floquet_grid_consistency():
    h_values = np.linspace(-2.0, 10.0, 21)
    theta_values = np.linspace(-2.0, 2.0, 21)
    sample_grid = np.linspace(0.0, math.pi, 41)
    start = time.perf_counter()
    worst_class = 0.0
    worst_resid = 0.0
    for h in h_values:
        for theta in theta_values:
            gp = GeneralParams(float(h), float(theta))
            sol = solve(gp)
            mono = monodromy_exponent(general_mathieu_ode(gp), math.pi, 1e-10)
            worst_class = max(worst_class, class_distance(sol.mu, mono.mu_raw))
            rep = residual(general_mathieu_ode(gp), eval_floquet_grid(sol, sample_grid))
            worst_resid = max(worst_resid, rep.linf)
    elapsed = time.perf_counter() - start
    ok = worst_class < 1e-6 and worst_resid < 1e-8 and elapsed < 60.0
    report(4, "floquet vs monodromy", ok,
           f"21x21 grid: worst class distance {worst_class:.2e} (tol 1e-6), "
           f"worst residual {worst_resid:.2e} (tol 1e-8), {elapsed:.1f}s (budget 60s)")
    assert worst_class < 1e-6
    assert worst_resid < 1e-8
    assert elapsed < 60.0


def test_criterion_05_unmodulated_degeneracy():
    worst_mu = 0.0
    coeffs_exact = True
    for h in (0.25, 1.0, 2.25, 4.0):
        sol = solve(GeneralParams(h, 0.0))
        worst_mu = max(worst_mu, abs(sol.mu - 1j * math.sqrt(h)))
        center = sol.truncation
        kronecker = np.zeros(2 * center + 1, dtype=complex)
        kronecker[center] = 1.0
        coeffs_exact = coeffs_exact and bool(np.all(sol.coeffs == kronecker))
    ok = worst_mu <= 1e-10 and coeffs_exact
    report(5, "zero-modulation exactness", ok,
           f"max |mu - i sqrt(h)| = {worst_mu:.2e} (tol 1e-10), "
           f"coefficients exactly kronecker: {coeffs_exact}")
    assert worst_mu <= 1e-10
    assert coeffs_exact


def test_criterion_06_reduction_pullbacks():
    rng = np.random.default_rng(SEED + 6)
    start = time.perf_counter()
    worst = 0.0
    for family in ("eq11", "eq13", "eq15", "eq17-sin", "eq17-cos"):
        for _ in range(10):
            a = float(rng.uniform(-2.0, 2.0))
            b = float(rng.uniform(-2.0, 2.0))
            lam = float(rng.uniform(0.8, 2.5)) if family == "eq15" else 0.0
            inp = ReductionInput(family=family, a=a, b=b, lam=lam)
            result = reduce(inp)
            grid = interior_grid(result, n=161, span=2.0 * math.pi)
            series = integrate(general_mathieu_ode(result.gp), 1.0, 0.5,
                               (grid[0], grid[-1]), 1e-11, t_eval=grid)
            pulled = pullback(result, series)
            ode = source_ode(inp)
            pv, qv, fv = ode.coefficients_on(pulled.grid)
            defect = pulled.d2y + pv * pulled.dy + qv * pulled.y - fv
            biggest = max(1.0, *(float(np.max(np.abs(v)))
                                 for v in (pulled.d2y, pv * pulled.dy, qv * pulled.y)))
            worst = max(worst, float(np.max(np.abs(defect))) / biggest)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    report(6, "reduction pullbacks", ok,
           f"50 pullbacks: worst interior residual {worst:.2e} (tol 1e-6), "
           f"{elapsed:.1f}s (budget 30s)")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_07_abel_wronskian():
    rng = np.random.default_rng(SEED + 7)
    grid = np.linspace(0.0, 10.0, 101)
    worst = 0.0
    for _ in range(20):
        params = random_admissible_params(rng)
        y_member, j_member = fundamental_pair(params, Variant.CORRECTED)
        s1 = evaluate_grid(y_member, grid)
        s2 = evaluate_grid(j_member, grid)
        w = s1.y * s2.dy - s1.dy * s2.y
        expected = w[0] * np.exp(-(params.eta / params.m) * grid)
        scale = max(1.0, float(np.max(np.abs(expected))))
        worst = max(worst, float(np.max(np.abs(w - expected))) / scale)
    ok = worst < 1e-8
    report(7, "abel wronskian decay", ok,
           f"20 fundamental pairs: worst deviation {worst:.2e} (tol 1e-8)")
    assert worst < 1e-8


def test_criterion_08_flux_modulation_depth():
    # ratios k/K0 = omega/Omega = m.Omega^2/K0 = 0.01
    base = DampedParams(m=1.0, eta=2.0, k0=100.0, k=1.0, omega=0.01)
    fp = FluxParams(base=base, B=1.0, J0=1.0, Omega=1.0, c_light=1.0)
    model = induced_field_model(fp)
    assert model.validity == "in-regime"
    epsilon = model.epsilon

    start = time.perf_counter()
    t_start = 17.5  # transients are decayed to ~2e-8 of their size by here
    dt = 2.0 * math.pi / 64.0
    n_periods = 3.3
    t_end = t_start + n_periods * 2.0 * math.pi / base.omega
    t_eval = t_start + dt * np.arange(int((t_end - t_start) / dt) + 1)
    series = simulate_full(fp, (0.0, float(t_eval[-1])), 1e-9, t_eval=t_eval)
    field = field_from_motion(fp, series)

    carrier, modulation = identify_frequencies(field)
    bin_width = 2.0 * math.pi / (field.grid[-1] - field.grid[0])
    result = modulation_analysis(field, fp.Omega, base.omega)
    depth_err = abs(result.modulation_depth - epsilon) / epsilon
    elapsed = time.perf_counter() - start

    ok = (depth_err < 0.10 and abs(carrier - fp.Omega) <= bin_width
          and abs(modulation - base.omega) <= bin_width and elapsed < 30.0)
    report(8, "flux modulation depth", ok,
           f"depth {result.modulation_depth:.6f} vs epsilon {epsilon:.6f} "
           f"({100 * depth_err:.2f}% err, tol 10%); carrier off by "
           f"{abs(carrier - fp.Omega):.2e}, modulation off by "
           f"{abs(modulation - base.omega):.2e} (bin {bin_width:.2e}); "
           f"{elapsed:.1f}s (budget 30s)")
    assert depth_err < 0.10
    assert abs(carrier - fp.Omega) <= bin_width
    assert abs(modulation - base.omega) <= bin_width
    assert elapsed < 30.0


def test_criterion_09_oracle_self_check():
    ode = LinearODE(p=None, q=lambda t: 1.0)
    series = integrate(ode, 1.0, 0.0, (0.0, 2.0 * math.pi), 1e-10)
    return_err = max(abs(series.y[-1] - 1.0), abs(series.dy[-1]))

    errs, steps = [], []
    for tol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11):
        s = integrate(ode, 1.0, 0.0, (0.0, 2.0 * math.pi), tol)
        errs.append(abs(s.y[-1] - 1.0))
        steps.append(2.0 * math.pi / s.meta["steps"])
    slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])

    ok = return_err < 1e-9 and slope >= 5.0
    report(9, "oracle self-check", ok,
           f"return-to-start error {return_err:.2e} (tol 1e-9), "
           f"observed convergence order {slope:.2f} (>= 5 required)")
    assert return_err < 1e-9
    assert slope >= 5.0


def test_criterion_10_cli_determinism(tmp_path):
    fixtures = [
        ["solve", "--m", "1", "--eta", "0", "--k0", "1", "--k", "1", "--omega", "2",
         "--variant", "corrected", "--t0", "0", "--t1", "10", "--dt", "0.01"],
        ["floquet", "--h", "1", "--theta", "0.5"],
        ["residual", "--m", "1", "--eta", "0", "--k0", "1", "--k", "4",
         "--omega", "2", "--t0", "0", "--t1", "10", "--n", "201"],
        ["sweep", "--h0", "-1", "--h1", "3", "--nh", "5",
         "--theta0", "-1", "--theta1", "1", "--ntheta", "3"],
        ["transform", "--family", "eq13", "--a", "1.5", "--b", "-0.5"],
    ]
    def sidecar_of(out):
        for candidate in (out.with_suffix(".json"), out.parent / (out.name + ".json")):
            if candidate.exists():
                return candidate
        raise AssertionError(f"no sidecar written next to {out}")

    all_identical = True
    for idx, argv in enumerate(fixtures):
        paths = []
        for run in ("x", "y"):
            out = tmp_path / f"job{idx}{run}.csv"
            code = cli_main(argv + ["--out", str(out)])
            assert code == 0
            paths.append((out, sidecar_of(out)))
        (out_a, side_a), (out_b, side_b) = paths
        csv_same = (not out_a.exists() and not out_b.exists()) or \
            out_a.read_bytes() == out_b.read_bytes()
        json_same = side_a.read_bytes() == side_b.read_bytes()
        all_identical = all_identical and csv_same and json_same
    report(10, "cli determinism", all_identical,
           f"{len(fixtures)} fixture jobs re-run byte-identical: {all_identical}")
    assert all_identical
