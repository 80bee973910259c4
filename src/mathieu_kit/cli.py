"""Command-line surface: solve, floquet, residual, sweep, transform, flux, integrate.

Every run produces a deterministic primary artifact (CSV for series- or
table-shaped results, JSON for report-shaped ones) plus a JSON sidecar with
the fixed key set {command, params, variant, nu, mu, residual_linf,
residual_l2, passing_variant, validity_flags}; keys that do not apply to a
command are null.  Complex numbers are serialized as {"re": ..., "im": ...}.
With --out the CSV goes to the named file and the sidecar next to it
('.json'); without it the CSV goes to stdout and the sidecar to stderr.  The CSV
is UTF-8 either way, whatever the locale.

parse() builds each job's typed inputs once.  Each runner returns its table as
a header plus the columns it already holds, and one writer, _write_csv,
streams every table in blocks of rows: numbers as '%.17g', labels as they are,
CRLF line ends; numpy lays out the bytes '%.17g' prints from each number's exactly
rounded digits, and leaves NaN, ±inf and exponent notation to '%'.

Exit codes: 0 success, 1 numerical failure (artifacts are still emitted when
they exist), 2 usage error.  MATHIEU_KIT_TOL overrides the oracle tolerance
(validated against the oracle's accepted range).  flux solves its job in
closed form, so the variable sets its accuracy only for the jobs the closed
form refuses and the oracle answers (validity_flags.motion says which).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import closed_form as cf
from . import flux as fx
from . import reductions as rd
from . import floquet as fl
from .errors import InvalidParameterError, MathieuKitError
from .exponent_class import normalize_exponent
from .oracle import PASS_TOL, TOL_MAX, TOL_MIN, integrate, residual, validate_tolerance
from .samples import MAX_GRID_POINTS, complex_number, real_number, representable

DEFAULT_TOL = 1e-10
# rows _write_csv formats at a time: enough to amortise a block's numpy calls, few
# enough that one block's byte frames are held
CSV_BLOCK_ROWS = 2048


@dataclass
class JobSpec:
    command: str
    parameters: dict
    # the typed parameters parse() checked; None for sweep, which has one per row
    inputs: Union[cf.DampedParams, fx.FluxParams, fl.GeneralParams, rd.ReductionInput, None]
    out_path: Optional[str] = None
    tolerance: float = DEFAULT_TOL


def _jsonify(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def _point_count(p: dict) -> float:
    """Points of _time_grid(p); inf when (t1 - t0)/dt overflows."""
    steps = (p["t1"] - p["t0"]) / p["dt"]
    return round(steps) + 1 if math.isfinite(steps) else math.inf


def _time_grid(p: dict) -> np.ndarray:
    """The uniform grid t0, t0 + dt, ... covering [t0, t1] to the nearest step."""
    return p["t0"] + p["dt"] * np.arange(_point_count(p))


def _number_flag(admit, literal, unreadable: str, text: str):
    """An argparse type: literal(text), admitted by the package's number rule."""
    try:
        return admit("value", literal(text))
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"{unreadable}: {text!r}") from None


_real_flag = functools.partial(_number_flag, real_number, float, "invalid float value")
_complex_flag = functools.partial(_number_flag, complex_number,
                                  lambda text: complex(text.replace(" ", "")),
                                  "not a complex literal")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process; parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="mathieu-kit",
        description="Modulated-oscillator toolkit: closed forms, Floquet analysis, "
                    "reductions, flux-lattice simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def damped_flags(p, required=True):
        p.add_argument("--m", type=_real_flag, required=required, help="mass coefficient")
        p.add_argument("--eta", type=_real_flag, required=required, help="damping coefficient")
        p.add_argument("--k0", type=_real_flag, required=required, help="static stiffness")
        p.add_argument("--k", type=_real_flag, required=required,
                       help="stiffness modulation amplitude")
        p.add_argument("--omega", type=_real_flag, required=required,
                       help="modulation angular frequency")

    def grid_flags(p, t1_default=10.0):
        p.add_argument("--t0", type=_real_flag, default=0.0)
        p.add_argument("--t1", type=_real_flag, default=t1_default)
        p.add_argument("--dt", type=_real_flag, default=0.01)

    p = sub.add_parser("solve", help="evaluate the closed form (it solves the split equation)")
    damped_flags(p)
    p.add_argument("--variant", choices=[v.value for v in cf.Variant], default="corrected")
    p.add_argument("--c1", type=_complex_flag, default=1.0 + 0.0j)
    p.add_argument("--c2", type=_complex_flag, default=0.0 + 0.0j)
    p.add_argument("--allow-inadmissible", action="store_true")
    grid_flags(p)

    p = sub.add_parser("floquet", help="characteristic exponent and series coefficients")
    p.add_argument("--h", type=_complex_flag, required=True)
    p.add_argument("--theta", type=_complex_flag, required=True)

    p = sub.add_parser("residual", help="adjudicate both closed-form variants on the split equation")
    damped_flags(p)
    p.add_argument("--t0", type=_real_flag, default=0.0)
    p.add_argument("--t1", type=_real_flag, default=10.0)
    p.add_argument("--n", type=int, default=501, help="grid points")
    p.add_argument("--allow-inadmissible", action="store_true")

    p = sub.add_parser("sweep", help="stability sweep over the (h, theta) plane")
    p.add_argument("--h0", type=_real_flag, required=True)
    p.add_argument("--h1", type=_real_flag, required=True)
    p.add_argument("--nh", type=int, required=True)
    p.add_argument("--theta0", type=_real_flag, required=True)
    p.add_argument("--theta1", type=_real_flag, required=True)
    p.add_argument("--ntheta", type=int, required=True)

    p = sub.add_parser("transform", help="reduce a source family to Mathieu form")
    p.add_argument("--family", choices=list(rd.FAMILIES), required=True)
    p.add_argument("--a", type=_real_flag, default=0.0)
    p.add_argument("--b", type=_real_flag, default=0.0)
    p.add_argument("--lam", type=_real_flag, default=0.0, help="eq15 frequency coefficient")
    damped_flags(p, required=False)

    p = sub.add_parser(
        "flux", help="the driven flux-lattice oscillator from rest, in closed form",
        description="Solves m y'' + eta y' + (k0 + k cos(omega t)) y = (B J0/c) cos(Omega t) "
                    "from rest at min(0, t0) in closed form, with no stepper: the sideband "
                    "steady state plus the Floquet transient.  The motion is checked against "
                    f"its equation on the grid (residual at most {fx.RESIDUAL_BOUND:g}).  Jobs "
                    "the closed form cannot represent (large |theta| = 2|k|/(m omega^2) with h "
                    "below about 2|theta|; a tongue edge, where the "
                    f"transient's parts exceed the motion over {fx.CANCELLATION_BOUND:g}-fold and "
                    "cancel; an exact resonance) are integrated by the oracle instead, and only "
                    "for those does MATHIEU_KIT_TOL set the accuracy; the sidecar's "
                    "validity_flags.motion names the path.")
    damped_flags(p)
    p.add_argument("--B", type=_real_flag, required=True)
    p.add_argument("--J0", type=_real_flag, required=True)
    p.add_argument("--Omega", type=_real_flag, required=True)
    p.add_argument("--c-light", type=_real_flag, default=1.0)
    grid_flags(p, t1_default=50.0)
    p.add_argument("--analyze", action="store_true",
                   help="report the steady field's carrier amplitude and modulation "
                        "depth and phase, exactly, from its sideband amplitudes")

    p = sub.add_parser("integrate", help="oracle integration of the general equation")
    p.add_argument("--h", type=_complex_flag, required=True)
    p.add_argument("--theta", type=_complex_flag, required=True)
    p.add_argument("--y0", type=_complex_flag, default=1.0 + 0.0j)
    p.add_argument("--dy0", type=_complex_flag, default=0.0 + 0.0j)
    grid_flags(p)

    for name, sp in sub.choices.items():
        sp.add_argument("--out", type=str, default=None, help="primary artifact path")

    return parser


def _typed_inputs(ns: argparse.Namespace):
    """The job's typed parameters; raises InvalidParameterError for bad ones."""
    if ns.command in ("floquet", "integrate"):
        return fl.GeneralParams(h=ns.h, theta=ns.theta)
    if ns.command == "sweep":
        return None
    if ns.command == "transform":
        given = [v is not None for v in (ns.m, ns.eta, ns.k0, ns.k, ns.omega)]
        if ns.family != "damped":
            if any(given):
                raise InvalidParameterError("damped-oscillator flags apply only to family 'damped'")
            return rd.ReductionInput(family=ns.family, a=ns.a, b=ns.b, lam=ns.lam)
        if not all(given):
            raise InvalidParameterError("family 'damped' requires --m --eta --k0 --k --omega")
    base = cf.DampedParams(m=ns.m, eta=ns.eta, k0=ns.k0, k=ns.k, omega=ns.omega)
    if ns.command == "transform":
        return rd.ReductionInput(family="damped", params=base)
    if ns.command == "flux":
        return fx.FluxParams(base=base, B=ns.B, J0=ns.J0, Omega=ns.Omega, c_light=ns.c_light)
    return base


def parse(argv: Optional[list[str]]) -> JobSpec:
    """argv (sys.argv[1:] when None) -> validated JobSpec; usage problems exit with code 2."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    # module-level precondition checks promoted to usage errors
    try:
        inputs = _typed_inputs(ns)
    except InvalidParameterError as exc:
        parser.error(str(exc))
    if ns.command in ("solve", "integrate", "flux", "residual") and not ns.t1 > ns.t0:
        parser.error("--t1 must exceed --t0")
    if ns.command in ("solve", "integrate", "flux"):
        if not (ns.dt > 0):
            parser.error("--dt must be positive")
        if _point_count(vars(ns)) > MAX_GRID_POINTS:
            parser.error(f"--t0 to --t1 in steps of --dt exceeds {MAX_GRID_POINTS:,} points")
    if ns.command == "residual" and not (1 <= ns.n <= MAX_GRID_POINTS):
        parser.error(f"--n must be between 1 and {MAX_GRID_POINTS:,}")
    if ns.command == "sweep":
        # finite ends can still span an overflow
        if not (math.isfinite(ns.h1 - ns.h0) and math.isfinite(ns.theta1 - ns.theta0)):
            parser.error("--h0, --h1, --theta0, --theta1 and the spans between them must be finite")
        if ns.nh < 1 or ns.ntheta < 1:
            parser.error("--nh and --ntheta must be at least 1")
        if ns.nh * ns.ntheta > MAX_GRID_POINTS:
            parser.error(f"--nh x --ntheta exceeds {MAX_GRID_POINTS:,} points")

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
    return JobSpec(command=ns.command, parameters=params, inputs=inputs, out_path=ns.out,
                   tolerance=tol)


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


@functools.cache
def _csv_tables() -> tuple:
    """_csv_cells' constants, built on the first CSV write."""
    # each 4-digit group as 4 ASCII bytes in one word, and its trailing zeros (4 for 0);
    # small dtypes, as 320 KiB temporaries raised a flux process's peak RSS by 0.5 MiB
    groups = np.arange(10000, dtype=np.int16)[:, None]
    digits4 = (48 + groups // np.int16([1000, 100, 10, 1]) % 10).astype(np.uint8)
    digits4 = digits4.view("<u4").ravel()
    zeros4 = (groups % np.int16([10, 100, 1000, 10000]) == 0).sum(axis=1)
    # 10^s exactly for s <= 21, with its Veltkamp split into two 26-bit halves
    pow10 = np.array([float(10 ** s) for s in range(22)])
    high = 134217729.0 * pow10 - (134217729.0 * pow10 - pow10)
    # masks of a 32-byte cell (little-endian words, byte b for column b - 3) by the point's
    # column (exponent + 5) and trailing zeros t: integer part, point, fraction to 21 - t
    col = np.arange(32) - 3
    point = np.arange(22)[:, None, None]
    last = 21 - np.arange(17)[:, None]
    masks = np.stack(np.broadcast_arrays(
        ((col >= np.minimum(4, point - 1)) & (col < point)) * np.uint8(255),
        ((col > point) & (col <= last)) * np.uint8(255),
        ((col == point) & (last > point)) * np.uint8(ord("."))))
    return digits4, zeros4, np.stack([pow10, high, pow10 - high]), \
        masks.view(np.uint64).reshape(3, -1, 4)


def _digits17(a: np.ndarray, k: np.ndarray, pow10: np.ndarray) -> np.ndarray:
    """round(a 10^(16 - k)) exactly, rounding half to even, for a > 0 about 10^k."""
    b, b_high, b_low = np.take(pow10, 16 - k, axis=1)
    p = a * b
    split = 134217729.0 * a
    high = split - (split - a)
    low = a - high
    # Dekker's two-product: a b = p + e exactly
    e = ((high * b_high - p) + high * b_low + low * b_high) + low * b_low
    # p is then an even integer (p >= 1e16 > 2^53), so p + rint(e) rounds a b half to even
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _csv_cells(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v for each float v of x, as rows of 25 bytes padded with NULs.

    A number that prints in fixed notation (0, or a decimal exponent from -4 to
    16 after rounding) is laid out from its 17 correctly rounded digits; NaN,
    ±inf and exponent notation go through Python's '%', one for them all.  The
    decade repair and the '%' pass run only on the cells that need them.
    """
    digits4, zeros4, pow10, masks = _csv_tables()
    a = np.abs(x)
    fixed = (a >= 1e-5) & (a < 1e17)
    a = np.where(fixed, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64).clip(-5, 16)
    d = _digits17(a, k, pow10)
    # log10 can miss k by one, and rounding can carry into the next decade: one fix for both
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    if len(off):
        k[off] += np.where(d[off] < 10 ** 16, -1, 1)
        d[off] = _digits17(a[off], k[off], pow10)
    zero = x == 0
    fixed = fixed & (k >= -4) | zero
    d[zero] = 0
    # the words '0000', '000' and the first digit, four groups of four, '0000' twice
    g = np.zeros((len(x), 8), np.int64)
    for j in range(5, 0, -1):
        q = d // 10000
        g[:, j] = d - 10000 * q
        d = q
    trailing = zeros4[g[:, 2]]
    for j in (3, 4, 5):
        trailing = zeros4[g[:, j]] + (g[:, j] == 0) * trailing
    digits = digits4[g].view(np.uint64).ravel()
    del g
    # the same bytes one column on, for the columns after the point
    shifted = digits << np.uint64(8)
    shifted[1:] |= digits[:-1] >> np.uint64(56)
    # the integer part, the fraction and the point, masked in place to hold few frames at once
    row = (k + 5) * 17 + trailing
    cells = masks[0].take(row, axis=0).ravel()
    cells &= digits
    shifted &= masks[1].take(row, axis=0).ravel()
    cells |= shifted
    cells |= masks[2].take(row, axis=0).ravel()
    cells[::4] |= np.uint64(ord("-")) * np.signbit(x)
    cells = cells.view(np.uint8).reshape(len(x), 32)
    # '%' pads these to 32 with spaces, which '%.17g' never prints
    rest = np.flatnonzero(~fixed)
    if len(rest):
        text = np.frombuffer(("%-32.17g" * len(rest) % tuple(x[rest].tolist())).encode(), np.uint8)
        cells[rest] = np.where(text == ord(" "), 0, text).reshape(-1, 32)
    return cells[:, :25]


def _write_csv(fh, header: list[str], columns: list) -> None:
    """Stream a table, given as its columns, to fh as CSV with CRLF line ends.

    Numbers print as '%.17g' (enough digits to round-trip), labels as they are:
    none holds a comma, a quote or a line break, so no cell needs quoting.
    Rows go CSV_BLOCK_ROWS at a time, as one string, numbers laid out by
    _csv_cells byte for byte as '%' would.
    """
    arrays = [np.asarray(c) for c in columns]
    is_label = [a.dtype.kind == "U" for a in arrays]
    fh.write(",".join(header) + "\r\n")
    for start in range(0, len(arrays[0]), CSV_BLOCK_ROWS):
        block = [a[start:start + CSV_BLOCK_ROWS] for a in arrays]
        n = len(block[0])
        numbers = np.stack([a for a, label in zip(block, is_label) if not label], axis=1)
        cells = iter(_csv_cells(numbers.ravel().astype(float)).reshape(n, -1, 25).swapaxes(0, 1))
        comma = np.full((n, 1), ord(","), np.uint8)
        pieces = []
        for a, label in zip(block, is_label):
            pieces += [np.array([s.encode() for s in a.tolist()]).view(np.uint8).reshape(n, -1)
                       if label else next(cells), comma]
        pieces[-1] = np.broadcast_to(np.frombuffer(b"\r\n", np.uint8), (n, 2))
        fh.write(np.concatenate(pieces, axis=1).tobytes().translate(None, b"\0").decode("utf-8"))


def _series_table(ts) -> tuple:
    return (["t", "re_y", "im_y", "re_dy", "im_dy"],
            [ts.grid, ts.y.real, ts.y.imag, ts.dy.real, ts.dy.imag])


def _run_solve(job: JobSpec, sidecar: dict):
    p = job.parameters
    params = job.inputs
    spec = cf.general_solution(params, p["variant"], p["c1"], p["c2"],
                               allow_inadmissible=p["allow_inadmissible"])
    ts = cf.evaluate_grid(spec, _time_grid(p))
    rep = residual(cf.split_ode(params), ts)
    sidecar.update(
        variant=spec.variant,
        nu=_jsonify(spec.nu),
        residual_linf=rep.linf,
        residual_l2=rep.l2,
        validity_flags={
            "admissible": spec.admissible_nu is not None,
            "admissible_nu": spec.admissible_nu,
            "equation": "y'' + (eta/m) y' + (k0/m + (k/m) e^{i omega t}) y = 0",
        },
    )
    code = 0 if rep.verdict else 1
    return _series_table(ts), code


def _run_floquet(job: JobSpec, sidecar: dict):
    gp = job.inputs
    sol = fl.solve(gp)
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
    n = np.arange(-sol.truncation, sol.truncation + 1)
    code = 0 if rep.verdict else 1
    return (["n", "re_c", "im_c"], [n, sol.coeffs.real, sol.coeffs.imag]), code


def _run_residual(job: JobSpec, sidecar: dict):
    p = job.parameters
    params = job.inputs
    grid = np.linspace(p["t0"], p["t1"], p["n"])
    report = cf.adjudicate(params, grid, allow_inadmissible=p["allow_inadmissible"])
    sidecar.update(
        nu=_jsonify(report.nu),
        residual_linf=report.corrected.linf,
        residual_l2=report.corrected.l2,
        passing_variant=report.passing_variant,
        validity_flags={
            "corrected_linf": report.corrected.linf,
            "corrected_l2": report.corrected.l2,
            "literal_linf": report.literal.linf,
            "literal_l2": report.literal.l2,
            "corrected_passes": report.corrected.verdict,
            "literal_passes": report.literal.verdict,
            "tolerance": PASS_TOL,
        },
    )
    code = 0 if report.passing_variant is not None else 1
    return None, code


def _run_sweep(job: JobSpec, sidecar: dict):
    p = job.parameters
    # h-major: every theta at the first h, then the next h
    hs = np.repeat(np.linspace(p["h0"], p["h1"], p["nh"]), p["ntheta"])
    thetas = np.tile(np.linspace(p["theta0"], p["theta1"], p["ntheta"]), p["nh"])
    mus = np.full(len(hs), complex(math.nan, math.nan))
    labels = ["failed"] * len(hs)
    failures = Counter()
    examples = {}  # the first failing point of each class, with its message
    for i, (h, th) in enumerate(zip(hs.tolist(), thetas.tolist())):
        try:
            mu = fl.characteristic_exponent(fl.GeneralParams(h=h, theta=th))
        except MathieuKitError as exc:
            failures[type(exc).__name__] += 1
            examples.setdefault(type(exc).__name__, {"h": h, "theta": th, "message": str(exc)})
            continue
        mus[i], labels[i] = mu, fl.classify_stability(mu)
    flags = {"grid_points": len(hs), "failures": sum(failures.values())}
    if failures:
        flags["failure_classes"] = dict(failures)
        flags["failure_examples"] = examples
    sidecar.update(validity_flags=flags)
    table = (["h", "theta", "re_mu", "im_mu", "stability"],
             [hs, thetas, mus.real, mus.imag, labels])
    return table, (1 if failures else 0)


def _run_transform(job: JobSpec, sidecar: dict):
    res = rd.reduce(job.inputs)
    sidecar.update(validity_flags={
        "h": _jsonify(res.gp.h),
        "theta": _jsonify(res.gp.theta),
        "variable_map": res.variable_map,
        "time_scale": res.time_scale,
        "prefactor_rate": res.prefactor_rate,
    })
    header = ["re_h", "im_h", "re_theta", "im_theta", "variable_map", "time_scale", "prefactor_rate"]
    row = [res.gp.h.real, res.gp.h.imag, res.gp.theta.real, res.gp.theta.imag,
           res.variable_map, res.time_scale, res.prefactor_rate]
    return (header, [[cell] for cell in row]), 0


def _run_flux(job: JobSpec, sidecar: dict):
    p = job.parameters
    fp = job.inputs
    base = fp.base
    grid = _time_grid(p)
    ts, motion = fx.motion_from_rest(fp, min(0.0, p["t0"]), grid, job.tolerance)
    # the column alone: no CSV holds field_from_motion's derivative rows
    field = representable("the induced field -(B/c) y'", lambda: (fp.field_scale * ts.dy).real)
    flags = {"motion": motion}
    code = 0
    if base.k0 != 0:
        model = fx.induced_field_model(fp)
        flags.update(epsilon=model.epsilon, phi=model.phi, alpha=model.alpha,
                     prefactor=model.prefactor, validity=model.validity)
    if p["analyze"]:
        # the steady state's exact figures, under the key names the measured
        # (demodulated) ones had, which downstream readers keep using
        try:
            res = fx.steady_state_modulation(fp)
            flags.update(
                measured_depth=res.modulation_depth,
                measured_carrier_amplitude=res.carrier_amplitude,
                measured_modulation_phase=res.modulation_phase,
                carrier_frequency=fp.Omega,
                modulation_frequency=abs(base.omega),
            )
        except MathieuKitError as exc:
            flags.update(analysis_error=str(exc))
            code = 1
    sidecar.update(validity_flags=flags)
    return (["t", "field"], [ts.grid, field]), code


def _run_integrate(job: JobSpec, sidecar: dict):
    p = job.parameters
    grid = _time_grid(p)
    # the grid's last point may round up past t1, so the span covers it
    span = (p["t0"], max(p["t1"], float(grid[-1])))
    ts = integrate(fl.general_mathieu_ode(job.inputs), p["y0"], p["dy0"], span, job.tolerance,
                   t_eval=grid)
    # no residual: the stepper takes y'' from the equation, so it would read 0
    sidecar.update(validity_flags={"steps": ts.meta.get("steps"),
                                   "rhs_evaluations": ts.meta.get("rhs_evaluations")})
    return _series_table(ts), 0


_RUNNERS = {
    "solve": _run_solve,
    "floquet": _run_floquet,
    "residual": _run_residual,
    "sweep": _run_sweep,
    "transform": _run_transform,
    "flux": _run_flux,
    "integrate": _run_integrate,
}


def _emit(job: JobSpec, table: Optional[tuple], sidecar: dict) -> None:
    sidecar_text = json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
    if job.out_path:
        if table is not None:
            with open(job.out_path, "w", newline="", encoding="utf-8") as fh:
                _write_csv(fh, *table)
            root, _ = os.path.splitext(job.out_path)
            sidecar_path = root + ".json"
        else:
            sidecar_path = job.out_path
            if not sidecar_path.endswith(".json"):
                sidecar_path += ".json"
        with open(sidecar_path, "w", encoding="utf-8") as fh:
            fh.write(sidecar_text)
    else:
        if table is not None:
            # a label can be non-ASCII ('t = cos²z'), so stdout is UTF-8 whatever the locale
            sys.stdout.reconfigure(encoding="utf-8")
            _write_csv(sys.stdout, *table)
            sys.stderr.write(sidecar_text)
        else:
            sys.stdout.write(sidecar_text)


def execute(job: JobSpec) -> int:
    """Run a parsed job; returns the process exit code."""
    sidecar = _sidecar_base(job)
    try:
        table, code = _RUNNERS[job.command](job, sidecar)
    except MathieuKitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(job, table, sidecar)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    return execute(parse(argv))


if __name__ == "__main__":
    sys.exit(main())
