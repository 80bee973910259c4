#!/usr/bin/env python3
"""Scan the two fixed depths of the Bessel core's far path against their rules.

Steed's CF2 (bessel._hankel_log_derivative) is evaluated backward from a depth
K = bessel._cf2_depth(|w|).  For 60 radii (RADII), log-spaced from just
above 6 to 1e4, and 181 points of each upper semicircle (arg w in [0, pi], both ends included), the
scan forms the fraction's convergents in 40-digit mpmath and finds the smallest depth at
which H_0'/H_0 = i - 1/(2w) + (i/w) a_1/u moves by less than half an ulp
(2^-53 of itself) from its converged value: below that depth truncation, not
rounding, sets the error.  Each row prints that depth, the rule's depth and
the margin between them.

The Miller sweep (bessel._miller) seeds each point at bessel._miller_start
with bessel._MILLER_SEED and never rescales.  For orders n from 0 to 200 and
radii from just above 6 to 1e4 (the directions with |Im z| <= 700), the scan
runs the unnormalized recurrence from each point's own start and prints the
largest |f_k| any column reaches.

    python3 scripts/bessel_depth_scan.py   # about 20 s

Exits 1 when the CF2 rule's margin falls below MIN_MARGIN steps anywhere, or
when a Miller column comes within 1e100 of overflow.
"""
from __future__ import annotations

import math
import sys

import mpmath
import numpy as np

from mathieu_kit import bessel

MIN_MARGIN = 2
ANGLES = 181
RADII = 60


def cf2_need(r: float, deepest: int = 400) -> int:
    """The smallest depth whose H_0'/H_0 is within 2^-53 of the converged one, over a semicircle."""
    need = 1
    for phase in np.linspace(0.0, math.pi, ANGLES):
        with mpmath.workdps(40):
            w = mpmath.mpc(r * math.cos(phase), r * math.sin(phase)) if 0.0 < phase < math.pi \
                else mpmath.mpc(r if phase == 0.0 else -r, 0)
            # convergents of u = b_1 + a_2/(b_2 + ...): P_k = b_k P_{k-1} + a_k P_{k-2}
            p_prev, q_prev, p, q = mpmath.mpf(1), mpmath.mpf(0), 2 * (w + 1j), mpmath.mpf(1)
            values = [1j - 1 / (2 * w) + (0.25j / w) / (p / q)]
            for k in range(2, deepest + 1):
                b, a = 2 * (w + 1j * k), (k - mpmath.mpf(0.5)) ** 2
                p_prev, q_prev, p, q = p, q, b * p + a * p_prev, b * q + a * q_prev
                values.append(1j - 1 / (2 * w) + (0.25j / w) / (p / q))
                if abs(values[-1] - values[-2]) < mpmath.mpf(10) ** -36 * abs(values[-1]):
                    break
            limit = values[-1]
            depth = next(k + 1 for k, v in enumerate(values)
                         if abs(v - limit) <= mpmath.mpf(2) ** -53 * abs(limit))
        need = max(need, depth)
    return need


def miller_peak(n: int, r: float) -> float:
    """log10 of the largest |f_k| the sweep of J_n reaches from its seed on a circle of radius r."""
    phase = np.linspace(0.0, math.pi / 2, 46)
    z = r * np.exp(1j * phase)
    z = z[np.abs(z.imag) <= 700.0]
    start = int(bessel._miller_start(n + 1, np.array([r]))[0])
    two_over_z = 2.0 / z
    f_hi, f = np.zeros_like(z), np.full_like(z, bessel._MILLER_SEED)
    peak = np.abs(f)
    for j in range(start, 0, -1):
        f, f_hi = (two_over_z * float(j)) * f - f_hi, f
        peak = np.maximum(peak, np.abs(f))
    return float(np.log10(peak.max()))


def main() -> int:
    # the far path takes |z| > 6
    radii = np.geomspace(np.nextafter(bessel.SERIES_RADIUS, np.inf), bessel.MAX_ARGUMENT, RADII)
    bad = 0
    print(f"{'|w|':>10} {'need':>5} {'rule':>5} {'margin':>6}")
    for r in radii.tolist():
        need, rule = cf2_need(r), int(bessel._cf2_depth(np.array([r]))[0])
        bad += rule - need < MIN_MARGIN
        print(f"{r:10.4g} {need:5d} {rule:5d} {rule - need:6d}", flush=True)
    worst = (-math.inf, None, None)
    for n in (0, 1, 12, 50, 100, 150, 200):
        for r in radii.tolist():
            peak = miller_peak(n, r)
            if peak > worst[0]:
                worst = (peak, n, r)
    print(f"Miller: largest |f_k| from the seed {bessel._MILLER_SEED:g} is 1e{worst[0]:.1f}"
          f" (n = {worst[1]}, |z| = {worst[2]:.4g})")
    bad += worst[0] > 208.0
    print("FAIL" if bad else "OK")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
