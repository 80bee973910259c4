#!/usr/bin/env python3
"""Census of the flux job's parameter space: closed form against the oracle.

Draws seeded jobs of the CLI's flux command from seven families: damped,
undamped, k0 < 0, k = 0, small omega with large |theta| = 2k/(m omega^2),
t0 < 0, and the flux_demod regime.  Each job is solved three ways on its grid
from rest at min(0, t0):

- flux.motion_from_rest, the path `mathieu-kit flux` takes: the closed form,
  or the stepper at flux.STEPPER_TOL for the jobs the closed form refuses;
- flux.simulate_full at the CLI's default tolerance, the path it took before
  the closed form (so "passed before" means this run returned);
- flux.simulate_full at a tight tolerance, the reference both are compared
  with: the larger of the y and y' differences, each over its max magnitude.

Prints one row per job, then the jobs that passed before and now raise (with
the error) and the answers, by either path, that differ from the reference by
more than AGREE.  Exits 1 when there is any: a job the CLI answered before must
still be answered, and every answer it returns must be right.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from mathieu_kit.cli import DEFAULT_TOL
from mathieu_kit.closed_form import DampedParams
from mathieu_kit.errors import MathieuKitError
from mathieu_kit.flux import STEPPER_TOL, FluxParams, motion_from_rest, simulate_full

REFERENCE_TOL = 1e-13
# largest relative difference from the reference that counts as agreement
AGREE = 1e-9
SEED = 0
SPAN = 30.0
DT = 0.05


def _draw(family: str, rng: np.random.Generator) -> dict:
    u = rng.uniform
    job = {"m": u(0.5, 2.0), "eta": u(0.1, 3.0), "k0": u(1.0, 40.0), "omega": u(0.2, 3.0),
           "Omega": u(0.3, 5.0), "t0": 0.0}
    job["k"] = u(-0.5, 0.5) * job["k0"]
    if family == "undamped":
        job["eta"] = 0.0
    elif family == "k0 < 0":
        job["k0"] = -u(0.2, 5.0)
        job["k"] = u(-1.0, 1.0)
        job["eta"] = u(0.0, 3.0)
    elif family == "k = 0":
        job["k"] = 0.0
    elif family == "small omega":
        job["omega"] = u(0.02, 0.1)
        job["k0"] = u(0.5, 5.0)
        job["k"] = u(0.2, 2.0)
    elif family == "t0 < 0":
        job["t0"] = -u(1.0, 10.0)
    elif family == "flux regime":
        r = u(0.012, 0.02)
        job.update(m=1.0, eta=2.0, k0=1.0 / r, k=1.0, omega=r, Omega=1.0)
    return job


FAMILIES = ("damped", "undamped", "k0 < 0", "k = 0", "small omega", "t0 < 0", "flux regime")


def _run(fn):
    try:
        return fn(), "ok"
    except MathieuKitError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def census_row(family: str, job: dict) -> dict:
    fp = FluxParams(base=DampedParams(m=job["m"], eta=job["eta"], k0=job["k0"], k=job["k"],
                                      omega=job["omega"]),
                    B=1.0, J0=1.0, Omega=job["Omega"], c_light=1.0)
    grid = job["t0"] + DT * np.arange(int(round(SPAN / DT)) + 1)
    span = (min(0.0, job["t0"]), float(grid[-1]))
    result, now = _run(lambda: motion_from_rest(fp, span[0], grid))
    series, path = result or (None, None)
    old, before = _run(lambda: simulate_full(fp, span, DEFAULT_TOL, t_eval=grid))
    ref, _ = _run(lambda: simulate_full(fp, span, REFERENCE_TOL, t_eval=grid))

    def error(ts):
        if ts is None or ref is None:
            return None
        return max(float(np.max(np.abs(getattr(ts, k).real - getattr(ref, k).real))
                         / np.max(np.abs(getattr(ref, k).real))) for k in ("y", "dy"))

    return {"family": family, "job": job, "before": before, "now": now,
            "path": now.split(":")[0] if path is None else path.split(":")[0], "how": path,
            "h": 4.0 * (job["k0"] / job["m"] - (job["eta"] / (2.0 * job["m"])) ** 2) / job["omega"] ** 2,
            "theta": -2.0 * job["k"] / (job["m"] * job["omega"] ** 2),
            "err": error(series), "before_err": error(old)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--count", type=int, default=25, help="jobs per family")
    args = ap.parse_args(argv)

    rng = np.random.default_rng(SEED)
    rows = [census_row(family, _draw(family, rng)) for family in FAMILIES for _ in range(args.count)]
    fmt = lambda x: "-" if x is None else f"{x:.2e}"
    print(f"{'family':<12} {'m':>5} {'eta':>5} {'k0':>7} {'k':>7} {'omega':>6} {'Omega':>5} "
          f"{'t0':>6} {'h':>9} {'theta':>9}  {'error':>8} {'before':>8}  path")
    for r in rows:
        j = r["job"]
        print(f"{r['family']:<12} {j['m']:5.2f} {j['eta']:5.2f} {j['k0']:7.3f} {j['k']:7.3f} "
              f"{j['omega']:6.3f} {j['Omega']:5.2f} {j['t0']:6.2f} {r['h']:9.3g} {r['theta']:9.3g}  "
              f"{fmt(r['err']):>8} {fmt(r['before_err']):>8}  {r['path']}")

    closed = [r for r in rows if r["path"] == "closed form"]
    stepped = [r for r in rows if r["path"] == "stepper"]
    newly = [r for r in rows if r["before"] == "ok" and r["now"] != "ok"]
    apart = [r for r in rows if r["err"] is not None and not r["err"] <= AGREE]
    both = sum(r["before"] != "ok" and r["now"] != "ok" for r in rows)
    errs = [r["err"] for r in closed if r["err"] is not None]
    stepped_errs = [r["err"] for r in stepped if r["err"] is not None]
    print(f"\n{len(rows)} jobs: closed form answered {len(closed)}, the stepper {len(stepped)}; "
          f"closed form against the tol-{REFERENCE_TOL:g} oracle: median "
          f"{fmt(np.median(errs) if errs else None)}, worst {fmt(max(errs, default=None))}; "
          f"the stepper's worst {fmt(max(stepped_errs, default=None))} "
          f"(agreement within {AGREE:g}); {len(apart)} disagree; "
          f"{len(newly)} passed before and now raise; {both} raise both ways")
    for r in stepped:
        print(f"  stepper ({r['family']}, h={r['h']:.4g}, theta={r['theta']:.4g}; off by "
              f"{fmt(r['err'])} at tol {STEPPER_TOL:g}, {fmt(r['before_err'])} at "
              f"{DEFAULT_TOL:g}): the closed form refused with {r['how'].split(': ', 1)[1]}")
    for r in newly:
        print(f"  now raises ({r['family']}, h={r['h']:.4g}, theta={r['theta']:.4g}; before it was "
              f"off by {fmt(r['before_err'])}): {r['now']}")
    for r in apart:
        print(f"  disagrees ({r['family']}, {r['path']}, h={r['h']:.4g}, theta={r['theta']:.4g}): "
              f"{r['err']:.2e}")
    return 1 if apart or newly else 0


if __name__ == "__main__":
    sys.exit(main())
