"""The four benchmark workloads: seeded input generators, items and checks.

Every workload draws its inputs from a randomly shifted Kronecker
(low-discrepancy) sequence: the seed picks the shift, and any prefix of the
sequence covers the parameter box evenly.  A run processes items in order
until its time is up, so runs at different seeds see the same mix of cheap
and expensive items and their throughput can be compared.

An item is the unit of work that is timed.  Its correctness check runs
afterwards, outside the timed region, and judges the item's output against
an outside reference where one exists (scipy's Mathieu characteristic
values, the equation's own residual, the stated modulation depth).

Importing this module imports numpy and the program: the import is part of
the measured set-up.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mathieu_kit import cli, exponent_class, floquet, oracle, reductions
from mathieu_kit.closed_form import DampedParams

# Flux jobs run at this oracle tolerance, set the way a user sets it.
FLUX_TOL = "1e-6"


def kronecker_points(seed: int, start: int, count: int, dim: int) -> np.ndarray:
    """Rows start..start+count-1 of the seeded R_d sequence in [0, 1)^dim."""
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alpha = (1.0 / g) ** np.arange(1, dim + 1)
    shift = np.random.default_rng(seed).random(dim)
    idx = np.arange(start, start + count, dtype=float)[:, None]
    return (shift + idx * alpha) % 1.0


@dataclass
class Outcome:
    """What a check found: pass/fail, why it failed, and figures to report."""

    ok: bool
    reason: str | None = None
    accuracy: float | None = None
    output_bytes: int = 0
    skipped_class: bool = False
    # what the workload's late check needs, when part of the check waits
    # until the run's peak memory has been read
    pending: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    # the per-layer time the workload exists to exercise, and the least share
    # of traced item time it should take; and the layers it should not call
    purpose: tuple[str, float]
    idle: tuple[str, ...]
    accuracy_label: str
    # items a traced run processes per second of --seconds (fixed, so the
    # traced counters repeat exactly at a given seed and run length)
    traced_items_per_s: float
    dim: int
    make: Callable[[np.ndarray, int], dict]
    run: Callable[[dict, str], object]
    check: Callable[[dict, object, str], Outcome]
    warmup: dict
    # the part of the check that imports an outside library, run on the
    # pending figures of every item after peak memory has been read
    late_check: Callable[[object], Outcome] | None = None

    def inputs(self, seed: int, start: int, count: int) -> list[dict]:
        pts = kronecker_points(seed, start, count, self.dim)
        return [self.make(u, start + i) for i, u in enumerate(pts)]


# ---------------------------------------------------------------- floquet_sweep

H_BOX = (-2.0, 10.0)
THETA_BOX = (-2.0, 2.0)
_EDGE_SKIP = 1e-6


def _floquet_make(u: np.ndarray, i: int) -> dict:
    return {
        "h": H_BOX[0] + (H_BOX[1] - H_BOX[0]) * float(u[0]),
        "theta": THETA_BOX[0] + (THETA_BOX[1] - THETA_BOX[0]) * float(u[1]),
    }


def _floquet_run(inp: dict, workdir: str):
    gp = floquet.GeneralParams(inp["h"], inp["theta"])
    sol = floquet.solve(gp)
    label = floquet.classify_stability(exponent_class.normalize_exponent(sol.mu))
    return gp, sol, label


def tongue_class(h: float, q: float, special) -> tuple[str, float]:
    """Stability of y'' + (h - 2q cos 2t) y = 0 from scipy's characteristic values.

    Unstable below a_0 and inside each tongue (b_r, a_r); returns the class and
    the distance from h to the nearest tongue edge.
    """
    a = [float(special.mathieu_a(r, q)) for r in range(0, 6)]
    b = [float(special.mathieu_b(r, q)) for r in range(1, 6)]
    edge = min(abs(h - e) for e in a + b)
    if h < a[0] or any(b[r - 1] < h < a[r] for r in range(1, 6)):
        return "unstable", edge
    return "stable", edge


def _floquet_check(inp: dict, out, workdir: str) -> Outcome:
    gp, sol, label = out
    grid = np.linspace(0.0, math.pi, 41)
    rep = oracle.residual(floquet.general_mathieu_ode(gp),
                          lambda t: floquet.eval_floquet(sol, t), grid)
    if not rep.linf <= 1e-8:
        return Outcome(False, f"floquet residual {rep.linf:.3g} > 1e-8", rep.linf)
    return Outcome(True, accuracy=rep.linf, pending=(inp["h"], abs(inp["theta"]), label))


def _floquet_class_check(pending) -> Outcome:
    """The item's stability class against scipy's tongue edges."""
    h, q, label = pending
    special = scipy_special()
    if special is None:
        return Outcome(True, skipped_class=True)
    expected, edge = tongue_class(h, q, special)
    if edge <= _EDGE_SKIP:
        return Outcome(True, skipped_class=True)
    if label != expected:
        return Outcome(False, f"class {label!r}, scipy tongues say {expected!r}")
    return Outcome(True)


def scipy_special():
    try:
        from scipy import special
    except ImportError:
        return None
    return special


# --------------------------------------------------------- closed_form_residual

_MASSES = (0.5, 1.0, 2.0)  # powers of two keep the integer index exact
Z_BOX = (0.5, 40.0)
# |z| at or below this is the series regime of bessel_j; bessel_y also sums its
# series when |z| - |Im z| <= Y_SERIES_WEDGE or |n| >= |z|.  Restated here so
# the benchmark's split stays put if the program moves its own.
SERIES_RADIUS = 6.0
Y_SERIES_WEDGE = 9.0


def _residual_params(n: int, zabs: float, m: float, eta: float, omega: float) -> dict:
    # corrected index sqrt(a^2 - 4 k0/m)/(i omega) = n  and  2 sqrt(k/m)/omega = |z|
    a = eta / m
    k0 = m * (a * a + (n * omega) ** 2) / 4.0
    k = m * (zabs * omega / 2.0) ** 2
    return {"n": n, "zabs": zabs, "m": m, "eta": eta, "k0": k0, "k": k, "omega": omega}


def _closed_form_make(u: np.ndarray, i: int) -> dict:
    lo, hi = math.log(Z_BOX[0]), math.log(Z_BOX[1])
    return _residual_params(
        n=int(u[0] * 13),
        zabs=math.exp(lo + (hi - lo) * float(u[1])),
        m=_MASSES[int(u[2] * 3)],
        eta=3.0 * float(u[3]),
        omega=0.5 + 2.5 * float(u[4]),
    )


def _out_path(workdir: str, stem: str, suffix: str) -> str:
    return os.path.join(workdir, stem + suffix)


def _cli(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)


def _closed_form_run(inp: dict, workdir: str):
    argv = ["residual"]
    for key in ("m", "eta", "k0", "k", "omega"):
        argv += [f"--{key}", repr(inp[key])]
    argv += ["--n", "501", "--allow-inadmissible",
             "--out", _out_path(workdir, "residual", ".json")]
    return _cli(argv)


def _read_and_remove(paths: list[str]) -> tuple[list[str], int]:
    texts, size = [], 0
    for path in paths:
        try:
            with open(path) as fh:
                texts.append(fh.read())
            size += os.path.getsize(path)
            os.remove(path)
        except FileNotFoundError:
            texts.append("")
    return texts, size


def _closed_form_check(inp: dict, code, workdir: str) -> Outcome:
    (text,), size = _read_and_remove([_out_path(workdir, "residual", ".json")])
    if code != 0:
        return Outcome(False, f"exit code {code}", output_bytes=size)
    side = json.loads(text)
    linf = side["residual_linf"]
    if side["passing_variant"] != "corrected":
        return Outcome(False, f"passing_variant {side['passing_variant']!r}", linf, size)
    if not linf < 1e-8:
        return Outcome(False, f"corrected residual {linf:.3g} >= 1e-8", linf, size)
    return Outcome(True, accuracy=linf, output_bytes=size)


# ------------------------------------------------------------------- flux_demod

RATIO_BOX = (0.012, 0.02)
FLUX_T0 = 17.5  # transients have decayed to ~2e-8 of their size by here
FLUX_DT = 2.0 * math.pi / 64.0
# every job records the same span: 3.3 periods of the slowest modulation in
# the box (3.3 to 5.5 periods across it), so jobs cost about the same and a
# run's throughput does not hang on which ratios its few jobs drew
FLUX_SPAN = 3.3 * 2.0 * math.pi / RATIO_BOX[0]


def _flux_job(r: float) -> dict:
    # k/k0 = omega/Omega = m Omega^2/k0 = r with m = Omega = k = 1
    t1 = FLUX_T0 + FLUX_SPAN
    return {"ratio": r, "m": 1.0, "eta": 2.0, "k0": 1.0 / r, "k": 1.0, "omega": r,
            "B": 1.0, "J0": 1.0, "Omega": 1.0, "t0": FLUX_T0, "t1": t1, "dt": FLUX_DT}


def _flux_make(u: np.ndarray, i: int) -> dict:
    return _flux_job(RATIO_BOX[0] + (RATIO_BOX[1] - RATIO_BOX[0]) * float(u[0]))


def _flux_run(inp: dict, workdir: str):
    argv = ["flux"]
    for key in ("m", "eta", "k0", "k", "omega", "B", "J0", "Omega", "t0", "t1", "dt"):
        argv += [f"--{key}", repr(inp[key])]
    argv += ["--analyze", "--out", _out_path(workdir, "flux", ".csv")]
    return _cli(argv)


def _flux_check(inp: dict, code, workdir: str) -> Outcome:
    (csv_text, side_text), size = _read_and_remove(
        [_out_path(workdir, "flux", ".csv"), _out_path(workdir, "flux", ".json")])
    if code != 0:
        return Outcome(False, f"exit code {code}", output_bytes=size)
    flags = json.loads(side_text)["validity_flags"]
    if flags["validity"] != "in-regime":
        return Outcome(False, f"validity {flags['validity']!r}", output_bytes=size)
    n = int(round((inp["t1"] - inp["t0"]) / inp["dt"]))
    if csv_text.count("\n") != n + 2:  # header plus n + 1 samples
        return Outcome(False, "CSV row count differs from the requested grid", output_bytes=size)
    eps = inp["k"] / inp["k0"]
    depth_err = abs(flags["measured_depth"] - eps) / eps
    bin_width = 2.0 * math.pi / (n * inp["dt"])
    if not depth_err <= 0.10:
        return Outcome(False, f"depth off by {100 * depth_err:.2f}%", depth_err, size)
    if not abs(flags["carrier_frequency"] - inp["Omega"]) <= bin_width:
        return Outcome(False, "carrier frequency off by more than one bin", depth_err, size)
    if not abs(flags["modulation_frequency"] - inp["omega"]) <= bin_width:
        return Outcome(False, "modulation frequency off by more than one bin", depth_err, size)
    return Outcome(True, accuracy=depth_err, output_bytes=size)


# ----------------------------------------------------------- reduction_pullback

_SOURCE_BOX = (-2.0, 2.0)


def _reduction_make(u: np.ndarray, i: int) -> dict:
    family = reductions.FAMILIES[i % len(reductions.FAMILIES)]
    if family == "damped":
        return {"family": family, "m": 0.5 + 1.5 * float(u[0]), "eta": float(u[1]),
                "k0": 0.5 + 2.5 * float(u[2]), "k": -1.0 + 2.0 * float(u[3]),
                "omega": 1.0 + 1.5 * float(u[4])}
    lo, hi = _SOURCE_BOX
    return {"family": family, "a": lo + (hi - lo) * float(u[0]),
            "b": lo + (hi - lo) * float(u[1]),
            "lam": 0.8 + 1.7 * float(u[2]) if family == "eq15" else 0.0}


def _reduction_input(inp: dict) -> reductions.ReductionInput:
    if inp["family"] == "damped":
        params = DampedParams(m=inp["m"], eta=inp["eta"], k0=inp["k0"],
                              k=inp["k"], omega=inp["omega"])
        return reductions.ReductionInput(family="damped", params=params)
    return reductions.ReductionInput(family=inp["family"], a=inp["a"], b=inp["b"],
                                     lam=inp["lam"])


def _reduction_run(inp: dict, workdir: str):
    src = _reduction_input(inp)
    result = reductions.reduce(src)
    grid = reductions.interior_grid(result, n=161)
    series = oracle.integrate(floquet.general_mathieu_ode(result.gp), 1.0, 0.5,
                              (grid[0], grid[-1]), 1e-11, t_eval=grid)
    pulled = reductions.pullback(result, series)
    table = {float(t): pulled[i] for i, t in enumerate(pulled.grid)}
    rep = oracle.residual(reductions.source_ode(src), table.__getitem__, pulled.grid)
    return pulled, rep


def _reduction_check(inp: dict, out, workdir: str) -> Outcome:
    pulled, rep = out
    if len(pulled.grid) != 161 or not np.all(np.isfinite(pulled.y)):
        return Outcome(False, "pullback lost or corrupted samples")
    if not rep.linf <= 1e-6:
        return Outcome(False, f"source residual {rep.linf:.3g} > 1e-6", rep.linf)
    return Outcome(True, accuracy=rep.linf)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="floquet_sweep",
            purpose=("oracle.monodromy_s", 0.90),
            idle=("bessel", "closed_form", "reductions", "flux", "cli"),
            accuracy_label="worst Floquet-series residual",
            traced_items_per_s=12.0,
            dim=2,
            make=_floquet_make,
            run=_floquet_run,
            check=_floquet_check,
            warmup={"h": 4.1, "theta": 0.7},
            late_check=_floquet_class_check,
        ),
        Workload(
            name="closed_form_residual",
            purpose=("bessel.self_s", 0.80),
            idle=("floquet", "reductions", "flux"),
            accuracy_label="worst corrected residual",
            traced_items_per_s=6.0,
            dim=5,
            make=_closed_form_make,
            run=_closed_form_run,
            check=_closed_form_check,
            warmup=_residual_params(n=12, zabs=12.0, m=1.0, eta=1.5, omega=1.75),
        ),
        Workload(
            name="flux_demod",
            purpose=("oracle.integrate_s", 0.90),
            idle=("bessel", "closed_form", "floquet", "reductions"),
            accuracy_label="worst relative depth error",
            traced_items_per_s=0.4,
            dim=1,
            make=_flux_make,
            run=_flux_run,
            check=_flux_check,
            warmup=_flux_job(0.016),
        ),
        Workload(
            name="reduction_pullback",
            purpose=("oracle.integrate_s", 0.90),
            idle=("bessel", "closed_form", "flux", "cli"),
            accuracy_label="worst source-ODE residual",
            traced_items_per_s=12.0,
            dim=5,
            make=_reduction_make,
            run=_reduction_run,
            check=_reduction_check,
            warmup={"family": "damped", "m": 1.0, "eta": 0.4, "k0": 2.0, "k": 0.5,
                    "omega": 1.5},
        ),
    )
}
