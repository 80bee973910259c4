"""Command-line surface: solve, floquet, residual, sweep, transform, flux, integrate.

Every run produces a deterministic primary artifact (CSV for series- or
table-shaped results, JSON for report-shaped ones) plus a JSON sidecar with
the fixed key set {command, params, variant, nu, mu, residual_linf,
residual_l2, passing_variant, validity_flags}; keys that do not apply to a
command are null.  Complex numbers are serialized as {"re": ..., "im": ...}.
With --out the CSV goes to the named file and the sidecar next to it
('.json'); without it the CSV goes to stdout and the sidecar to stderr.

Exit codes: 0 success, 1 numerical failure (artifacts are still emitted when
they exist), 2 usage error.  MATHIEU_KIT_TOL overrides the oracle tolerance
(validated against the oracle's accepted range).  flux solves its job in
closed form, so the variable sets its accuracy only for the jobs the closed
form refuses and the oracle answers (validity_flags.motion says which).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import closed_form as cf
from . import flux as fx
from . import reductions as rd
from . import floquet as fl
from .errors import InvalidParameterError, MathieuKitError
from .exponent_class import normalize_exponent
from .oracle import TOL_MAX, TOL_MIN, integrate, residual, validate_tolerance
from .samples import TimeSeries

DEFAULT_TOL = 1e-10
# the most points a job's time grid may hold (--t0/--t1/--dt, or residual's
# --n): one float column of it takes 80 MB and a job holds several, so a larger
# grid would exhaust memory before it produced an answer
MAX_GRID_POINTS = 10**7
_FLOAT_FMT = "{:.17g}"


@dataclass
class JobSpec:
    command: str
    parameters: dict
    out_path: Optional[str] = None
    tolerance: float = DEFAULT_TOL


def _fmt(x: float) -> str:
    return _FLOAT_FMT.format(float(x))


def _jsonify(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, cf.Variant):
        return value.value
    return value


def _damped(p: dict) -> cf.DampedParams:
    return cf.DampedParams(m=p["m"], eta=p["eta"], k0=p["k0"], k=p["k"], omega=p["omega"])


def _point_count(p: dict) -> float:
    """Points of _time_grid(p); inf when (t1 - t0)/dt overflows."""
    steps = (p["t1"] - p["t0"]) / p["dt"]
    return round(steps) + 1 if math.isfinite(steps) else math.inf


def _time_grid(p: dict) -> np.ndarray:
    """The uniform grid t0, t0 + dt, ... covering [t0, t1] to the nearest step."""
    return p["t0"] + p["dt"] * np.arange(_point_count(p))


def _complex_flag(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex literal: {text!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process; parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="mathieu-kit",
        description="Modulated-oscillator toolkit: closed forms, Floquet analysis, "
                    "reductions, flux-lattice simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def damped_flags(p):
        p.add_argument("--m", type=float, required=True, help="mass coefficient")
        p.add_argument("--eta", type=float, required=True, help="damping coefficient")
        p.add_argument("--k0", type=float, required=True, help="static stiffness")
        p.add_argument("--k", type=float, required=True, help="stiffness modulation amplitude")
        p.add_argument("--omega", type=float, required=True, help="modulation angular frequency")

    def grid_flags(p, t1_default=10.0):
        p.add_argument("--t0", type=float, default=0.0)
        p.add_argument("--t1", type=float, default=t1_default)
        p.add_argument("--dt", type=float, default=0.01)

    p = sub.add_parser("solve", help="evaluate a closed-form solution on a grid")
    damped_flags(p)
    p.add_argument("--variant", choices=[v.value for v in cf.Variant], default="corrected")
    p.add_argument("--c1", type=_complex_flag, default=1.0 + 0.0j)
    p.add_argument("--c2", type=_complex_flag, default=0.0 + 0.0j)
    p.add_argument("--allow-inadmissible", action="store_true")
    grid_flags(p)

    p = sub.add_parser("floquet", help="characteristic exponent and series coefficients")
    p.add_argument("--h", type=_complex_flag, required=True)
    p.add_argument("--theta", type=_complex_flag, required=True)
    p.add_argument("--trunc", type=int, default=fl.DEFAULT_TRUNCATION)

    p = sub.add_parser("residual", help="adjudicate both closed-form variants")
    damped_flags(p)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=10.0)
    p.add_argument("--n", type=int, default=501, help="grid points")
    p.add_argument("--allow-inadmissible", action="store_true")

    p = sub.add_parser("sweep", help="stability sweep over the (h, theta) plane")
    p.add_argument("--h0", type=float, required=True)
    p.add_argument("--h1", type=float, required=True)
    p.add_argument("--nh", type=int, required=True)
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--theta1", type=float, required=True)
    p.add_argument("--ntheta", type=int, required=True)
    p.add_argument("--trunc", type=int, default=fl.DEFAULT_TRUNCATION)

    p = sub.add_parser("transform", help="reduce a source family to Mathieu form")
    p.add_argument("--family", choices=list(rd.FAMILIES), required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--lam", type=float, default=0.0, help="eq15 frequency coefficient")
    p.add_argument("--m", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--k0", type=float)
    p.add_argument("--k", type=float)
    p.add_argument("--omega", type=float)

    p = sub.add_parser(
        "flux", help="the driven flux-lattice oscillator from rest, in closed form",
        description="Solves m y'' + eta y' + (k0 + k cos(omega t)) y = (B J0/c) cos(Omega t) "
                    "from rest at min(0, t0) in closed form, with no stepper: the sideband "
                    "steady state plus the Floquet transient.  The motion is checked against "
                    "its equation on the grid (relative residual at most 1e-9, typically "
                    "1e-12).  Jobs the closed form cannot represent (large |theta| = "
                    "2|k|/(m omega^2) with h below about 2|theta|, an exact resonance) are "
                    "integrated by the oracle instead, and only for those does MATHIEU_KIT_TOL "
                    "set the accuracy; the sidecar's validity_flags.motion names the path.")
    damped_flags(p)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--J0", type=float, required=True)
    p.add_argument("--Omega", type=float, required=True)
    p.add_argument("--c-light", type=float, default=1.0)
    grid_flags(p, t1_default=50.0)
    p.add_argument("--analyze", action="store_true",
                   help="demodulate the field and report modulation depth")

    p = sub.add_parser("integrate", help="oracle integration of the general equation")
    p.add_argument("--h", type=_complex_flag, required=True)
    p.add_argument("--theta", type=_complex_flag, required=True)
    p.add_argument("--y0", type=_complex_flag, default=1.0 + 0.0j)
    p.add_argument("--dy0", type=_complex_flag, default=0.0 + 0.0j)
    grid_flags(p)

    for name, sp in sub.choices.items():
        sp.add_argument("--out", type=str, default=None, help="primary artifact path")

    return parser


def _validate_job(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> None:
    """Module-level precondition checks promoted to usage errors."""
    try:
        if ns.command in ("solve", "residual", "flux"):
            base = _damped(vars(ns))
        if ns.command == "flux":
            fx.FluxParams(base=base, B=ns.B, J0=ns.J0, Omega=ns.Omega, c_light=ns.c_light)
        if ns.command == "transform":
            damped_given = [ns.m, ns.eta, ns.k0, ns.k, ns.omega]
            if ns.family == "damped":
                if any(v is None for v in damped_given):
                    parser.error("family 'damped' requires --m --eta --k0 --k --omega")
                rd.ReductionInput(family=ns.family, params=_damped(vars(ns)))
            else:
                if any(v is not None for v in damped_given):
                    parser.error("damped-oscillator flags apply only to family 'damped'")
                rd.ReductionInput(family=ns.family, a=ns.a, b=ns.b, lam=ns.lam)
        if ns.command in ("floquet", "integrate"):
            fl.GeneralParams(h=ns.h, theta=ns.theta)
        if ns.command in ("solve", "integrate", "flux"):
            if not all(map(math.isfinite, (ns.t0, ns.t1, ns.dt))):
                parser.error("--t0, --t1 and --dt must be finite")
            if not (ns.t1 > ns.t0):
                parser.error("--t1 must exceed --t0")
            if not (ns.dt > 0):
                parser.error("--dt must be positive")
            if _point_count(vars(ns)) > MAX_GRID_POINTS:
                parser.error(f"--t0 to --t1 in steps of --dt exceeds {MAX_GRID_POINTS:,} points")
        if ns.command == "residual":
            if not (math.isfinite(ns.t0) and math.isfinite(ns.t1)):
                parser.error("--t0 and --t1 must be finite")
            if not (1 <= ns.n <= MAX_GRID_POINTS):
                parser.error(f"--n must be between 1 and {MAX_GRID_POINTS:,}")
        if ns.command == "sweep" and (ns.nh < 1 or ns.ntheta < 1):
            parser.error("--nh and --ntheta must be at least 1")
        if ns.command == "floquet" and ns.trunc < 5:
            parser.error("--trunc must be at least 5")
    except InvalidParameterError as exc:
        parser.error(str(exc))


def parse(argv: list[str]) -> JobSpec:
    """argv -> validated JobSpec; usage problems exit with code 2."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    _validate_job(parser, ns)

    tol_text = os.environ.get("MATHIEU_KIT_TOL")
    tol = DEFAULT_TOL
    if tol_text is not None:
        try:
            tol = validate_tolerance(float(tol_text))
        except (ValueError, InvalidParameterError):
            parser.error(
                f"MATHIEU_KIT_TOL={tol_text!r} invalid: need a float in [{TOL_MIN:g}, {TOL_MAX:g}]"
            )

    params = {k: v for k, v in vars(ns).items() if k not in ("command", "out")}
    return JobSpec(command=ns.command, parameters=params, out_path=ns.out, tolerance=tol)


def _sidecar_base(job: JobSpec) -> dict:
    return {
        "command": job.command,
        "params": {k: _jsonify(v) for k, v in sorted(job.parameters.items())},
        "variant": None,
        "nu": None,
        "mu": None,
        "residual_linf": None,
        "residual_l2": None,
        "passing_variant": None,
        "validity_flags": None,
    }


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _series_rows(ts: TimeSeries):
    # Python floats format faster than numpy scalars, and print the same digits
    columns = (ts.grid, ts.y.real, ts.y.imag, ts.dy.real, ts.dy.imag)
    for row in zip(*(c.tolist() for c in columns)):
        yield [_fmt(x) for x in row]


def _run_solve(job: JobSpec, sidecar: dict):
    p = job.parameters
    params = _damped(p)
    spec = cf.general_solution(params, p["variant"], p["c1"], p["c2"],
                               allow_inadmissible=p["allow_inadmissible"])
    ts = cf.evaluate_grid(spec, params, _time_grid(p))
    rep = residual(cf.split_ode(params), ts)
    sidecar.update(
        variant=_jsonify(spec.variant),
        nu=_jsonify(spec.nu),
        residual_linf=rep.linf,
        residual_l2=rep.l2,
        validity_flags={
            "admissible": spec.admissible_nu is not None,
            "admissible_nu": spec.admissible_nu,
        },
    )
    code = 0 if rep.linf < 1e-8 else 1
    return _csv_text(["t", "re_y", "im_y", "re_dy", "im_dy"], _series_rows(ts)), code


def _run_floquet(job: JobSpec, sidecar: dict):
    p = job.parameters
    gp = fl.GeneralParams(h=p["h"], theta=p["theta"])
    sol = fl.solve(gp, p["trunc"])
    grid = np.linspace(0.0, 4.0 * math.pi, 201)
    rep = residual(fl.general_mathieu_ode(gp), fl.eval_floquet_grid(sol, grid))
    sidecar.update(
        mu=_jsonify(normalize_exponent(sol.mu)),
        residual_linf=rep.linf,
        residual_l2=rep.l2,
        validity_flags={
            "working_mu": _jsonify(sol.mu),
            "truncation": sol.truncation,
            "stability": fl.classify_stability(normalize_exponent(sol.mu)),
        },
    )
    rows = ([str(n - sol.truncation), _fmt(c.real), _fmt(c.imag)]
            for n, c in enumerate(sol.coeffs))
    code = 0 if rep.linf < 1e-8 else 1
    return _csv_text(["n", "re_c", "im_c"], rows), code


def _run_residual(job: JobSpec, sidecar: dict):
    p = job.parameters
    params = _damped(p)
    grid = np.linspace(p["t0"], p["t1"], p["n"])
    report = cf.adjudicate(params, grid, allow_inadmissible=p["allow_inadmissible"])
    sidecar.update(
        nu=_jsonify(cf.index(params, cf.Variant.CORRECTED)),
        residual_linf=report.corrected.linf,
        residual_l2=report.corrected.l2,
        passing_variant=report.passing_variant,
        validity_flags={
            "corrected_linf": report.corrected.linf,
            "corrected_l2": report.corrected.l2,
            "literal_linf": report.literal.linf,
            "literal_l2": report.literal.l2,
            "corrected_passes": bool(report.corrected.verdict),
            "literal_passes": bool(report.literal.verdict),
            "tolerance": report.tol,
        },
    )
    code = 0 if report.passing_variant is not None else 1
    return None, code


def _run_sweep(job: JobSpec, sidecar: dict):
    p = job.parameters
    hs = np.linspace(p["h0"], p["h1"], p["nh"])
    thetas = np.linspace(p["theta0"], p["theta1"], p["ntheta"])
    rows = []
    failures = Counter()
    for h in hs:
        for th in thetas:
            gp = fl.GeneralParams(h=float(h), theta=float(th))
            try:
                mu = fl.characteristic_exponent(gp, p["trunc"])
                rows.append([_fmt(h), _fmt(th), _fmt(mu.real), _fmt(mu.imag),
                             fl.classify_stability(mu)])
            except MathieuKitError as exc:
                failures[type(exc).__name__] += 1
                rows.append([_fmt(h), _fmt(th), "nan", "nan", "failed"])
    flags = {"grid_points": len(rows), "failures": sum(failures.values())}
    if failures:
        flags["failure_classes"] = dict(failures)
    sidecar.update(validity_flags=flags)
    return _csv_text(["h", "theta", "re_mu", "im_mu", "stability"], rows), (1 if failures else 0)


def _run_transform(job: JobSpec, sidecar: dict):
    p = job.parameters
    if p["family"] == "damped":
        inp = rd.ReductionInput(family="damped", params=_damped(p))
    else:
        inp = rd.ReductionInput(family=p["family"], a=p["a"], b=p["b"], lam=p["lam"])
    res = rd.reduce(inp)
    sidecar.update(validity_flags={
        "h": _jsonify(res.gp.h),
        "theta": _jsonify(res.gp.theta),
        "variable_map": res.variable_map,
        "time_scale": res.time_scale,
        "prefactor_rate": res.prefactor_rate,
    })
    rows = [[_fmt(res.gp.h.real), _fmt(res.gp.h.imag),
             _fmt(res.gp.theta.real), _fmt(res.gp.theta.imag),
             res.variable_map, _fmt(res.time_scale), _fmt(res.prefactor_rate)]]
    header = ["re_h", "im_h", "re_theta", "im_theta", "variable_map", "time_scale", "prefactor_rate"]
    return _csv_text(header, rows), 0


def _run_flux(job: JobSpec, sidecar: dict):
    p = job.parameters
    base = _damped(p)
    fp = fx.FluxParams(base=base, B=p["B"], J0=p["J0"], Omega=p["Omega"], c_light=p["c_light"])
    grid = _time_grid(p)
    ts, motion = fx.motion_from_rest(fp, min(0.0, p["t0"]), grid, job.tolerance)
    field = fx.field_from_motion(fp, ts)
    flags = {"motion": motion}
    code = 0
    if base.k0 != 0:
        model = fx.induced_field_model(fp)
        flags.update(epsilon=model.epsilon, phi=model.phi, alpha=model.alpha,
                     prefactor=model.prefactor, validity=model.validity)
    if p["analyze"]:
        try:
            res = fx.modulation_analysis(field, fp.Omega, base.omega)
            carrier_freq, mod_freq = fx.identify_frequencies(field)
            flags.update(
                measured_depth=res.modulation_depth,
                measured_carrier_amplitude=res.carrier_amplitude,
                measured_modulation_phase=res.modulation_phase,
                carrier_frequency=carrier_freq,
                modulation_frequency=mod_freq,
            )
        except MathieuKitError as exc:
            flags.update(analysis_error=str(exc))
            code = 1
    sidecar.update(validity_flags=flags)
    rows = ([_fmt(t), _fmt(y)] for t, y in zip(field.grid.tolist(), field.y.real.tolist()))
    return _csv_text(["t", "field"], rows), code


def _run_integrate(job: JobSpec, sidecar: dict):
    p = job.parameters
    gp = fl.GeneralParams(h=p["h"], theta=p["theta"])
    ode = fl.general_mathieu_ode(gp)
    grid = _time_grid(p)
    # the grid's last point may round up past t1, so the span covers it
    ts = integrate(ode, p["y0"], p["dy0"], (p["t0"], max(p["t1"], float(grid[-1]))),
                   job.tolerance, t_eval=grid)
    rep = residual(ode, ts)
    sidecar.update(
        residual_linf=rep.linf,
        residual_l2=rep.l2,
        validity_flags={"steps": ts.meta.get("steps"),
                        "rhs_evaluations": ts.meta.get("rhs_evaluations")},
    )
    return _csv_text(["t", "re_y", "im_y", "re_dy", "im_dy"], _series_rows(ts)), 0


_RUNNERS = {
    "solve": _run_solve,
    "floquet": _run_floquet,
    "residual": _run_residual,
    "sweep": _run_sweep,
    "transform": _run_transform,
    "flux": _run_flux,
    "integrate": _run_integrate,
}


def _emit(job: JobSpec, csv_text: Optional[str], sidecar: dict) -> None:
    sidecar_text = json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
    if job.out_path:
        if csv_text is not None:
            with open(job.out_path, "w", newline="") as fh:
                fh.write(csv_text)
            root, _ = os.path.splitext(job.out_path)
            sidecar_path = root + ".json"
        else:
            sidecar_path = job.out_path
            if not sidecar_path.endswith(".json"):
                sidecar_path += ".json"
        with open(sidecar_path, "w") as fh:
            fh.write(sidecar_text)
    else:
        if csv_text is not None:
            sys.stdout.write(csv_text)
            sys.stderr.write(sidecar_text)
        else:
            sys.stdout.write(sidecar_text)


def execute(job: JobSpec) -> int:
    """Run a parsed job; returns the process exit code."""
    sidecar = _sidecar_base(job)
    try:
        csv_text, code = _RUNNERS[job.command](job, sidecar)
    except MathieuKitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(job, csv_text, sidecar)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    return execute(parse(argv))


if __name__ == "__main__":
    sys.exit(main())
