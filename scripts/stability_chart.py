#!/usr/bin/env python3
"""Map the stability chart of the general periodically-modulated oscillator.

Sweeps a rectangle of (h, theta) coefficient pairs, computes the
characteristic exponent for each, classifies the motion, and renders an
ASCII chart ('.' stable, '#' unstable, 'o' boundary).  Optionally writes
the raw exponents to CSV.
"""
from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from mathieu_kit.floquet import GeneralParams, characteristic_exponent, classify_stability

GLYPH = {"stable": ".", "unstable": "#", "boundary": "o"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h0", type=float, default=-1.0)
    ap.add_argument("--h1", type=float, default=8.0)
    ap.add_argument("--nh", type=int, default=37)
    ap.add_argument("--theta0", type=float, default=-3.0)
    ap.add_argument("--theta1", type=float, default=3.0)
    ap.add_argument("--ntheta", type=int, default=25)
    ap.add_argument("--out", help="optional CSV output path")
    args = ap.parse_args(argv)

    h_values = np.linspace(args.h0, args.h1, args.nh)
    theta_values = np.linspace(args.theta0, args.theta1, args.ntheta)
    rows = []
    lines = []
    for theta in theta_values[::-1]:
        cells = []
        for h in h_values:
            # the canonical exponent, as mathieu-kit sweep writes it
            mu = characteristic_exponent(GeneralParams(float(h), float(theta)))
            label = classify_stability(mu)
            cells.append(GLYPH[label])
            rows.append([float(h), float(theta), mu.real, mu.imag, label])
        lines.append(f"theta={theta:+7.3f} |" + "".join(cells) + "|")

    print(f"h in [{args.h0}, {args.h1}] left to right; "
          f"'.' stable, '#' unstable, 'o' boundary\n")
    print("\n".join(lines))

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["h", "theta", "re_mu", "im_mu", "stability"])
            writer.writerows(rows)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
