#!/usr/bin/env python3
"""Demonstrate slow-modulation transfer from stiffness to induced field.

Solves the full driven oscillator with a slowly modulated stiffness from
rest the way `mathieu-kit flux` does (flux.motion_from_rest: in closed form,
or by the stepper at --tol for the jobs the closed form refuses), converts
the motion into the induced field, demodulates the field envelope, and
compares the measured modulation depth and sideband structure against the
small-parameter analytic model.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from mathieu_kit.closed_form import DampedParams
from mathieu_kit.flux import (
    FluxParams,
    field_from_motion,
    identify_frequencies,
    induced_field_model,
    linearized_delta,
    modulation_analysis,
    motion_from_rest,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=float, default=1.0)
    ap.add_argument("--eta", type=float, default=2.0)
    ap.add_argument("--k0", type=float, default=100.0)
    ap.add_argument("--k", type=float, default=1.0)
    ap.add_argument("--omega", type=float, default=0.01, help="modulation frequency")
    ap.add_argument("--B", type=float, default=1.0)
    ap.add_argument("--J0", type=float, default=1.0)
    ap.add_argument("--Omega", type=float, default=1.0, help="drive frequency")
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--periods", type=float, default=3.3,
                    help="modulation periods to record after the transient")
    ap.add_argument("--tol", type=float, default=1e-9,
                    help="stepper tolerance, for the jobs the closed form refuses")
    ap.add_argument("--out", help="optional CSV of the recorded field")
    args = ap.parse_args(argv)

    base = DampedParams(m=args.m, eta=args.eta, k0=args.k0, k=args.k,
                        omega=args.omega)
    fp = FluxParams(base=base, B=args.B, J0=args.J0, Omega=args.Omega,
                    c_light=args.c)

    model = induced_field_model(fp)
    print(f"analytic model: epsilon={model.epsilon:.6g}  phi={model.phi:.6g}  "
          f"alpha={model.alpha:.6g}  prefactor={model.prefactor:.6g}")
    print(f"regime check:   {model.validity}")
    upper, lower = linearized_delta(fp)
    print(f"sidebands:      {upper.amplitude:.3e} @ {upper.frequency:.4f}   "
          f"{lower.amplitude:.3e} @ {lower.frequency:.4f}")

    # record after the transient (decay time 2m/eta) has died away
    t_start = 35.0 * args.m / args.eta if args.eta > 0 else 0.0
    dt = 2.0 * math.pi / (64.0 * args.Omega)
    t_end = t_start + args.periods * 2.0 * math.pi / args.omega
    # round the sample count up so the record spans at least the requested periods
    t_eval = t_start + dt * np.arange(math.ceil((t_end - t_start) / dt) + 1)
    series, path = motion_from_rest(fp, 0.0, t_eval, args.tol)
    print(f"motion:         {path}")
    field = field_from_motion(fp, series)

    carrier, modulation = identify_frequencies(field)
    result = modulation_analysis(field, fp.Omega, args.omega)
    print(f"\nmeasured:   carrier amplitude {result.carrier_amplitude:.6g}, "
          f"depth {result.modulation_depth:.6g}, phase {result.modulation_phase:+.4f}")
    print(f"spectrum:   carrier {carrier:.6f} (drive {fp.Omega}), "
          f"modulation {modulation:.6f} (target {args.omega})")
    if model.epsilon > 0:
        err = abs(result.modulation_depth - model.epsilon) / model.epsilon
        print(f"depth vs analytic epsilon: {100.0 * err:.2f}% relative error")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "field"])
            for t, e in zip(field.grid, field.y):
                writer.writerow([repr(float(t)), repr(float(e.real))])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
