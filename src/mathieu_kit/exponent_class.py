"""Equivalence handling for Floquet exponents of pi-periodic systems.

The exponent mu enters only through e^{mu pi}, so mu is determined up to sign
and shifts by 2i.  The canonical representative has Re mu >= 0 and Im mu in
[0, 2), folded further into [0, 1] when the real part vanishes (both signs are
reachable there).
"""

from __future__ import annotations

import math

from .errors import InvalidParameterError
from .samples import complex_number, real_number

_RE_TOL = 1e-12


def normalize_exponent(mu: complex, im_modulus: float = 2.0) -> complex:
    """Canonical representative of the class {s*mu + i*k*im_modulus}."""
    mu, im_modulus = complex_number("mu", mu), real_number("im_modulus", im_modulus)
    if im_modulus <= 0.0:
        raise InvalidParameterError(f"im_modulus must be positive, got {im_modulus!r}")
    if mu.real < 0.0:
        mu = -mu
    mu = complex(mu.real, mu.imag % im_modulus)
    if mu.real <= _RE_TOL:
        alt_im = (-mu.imag) % im_modulus
        if alt_im < mu.imag:
            mu = complex(mu.real, alt_im)
    return mu


def class_distance(mu_a: complex, mu_b: complex) -> float:
    """Distance between the exponent classes {s*mu + 2ik} of mu_a and mu_b."""
    mu_a, mu_b = complex_number("mu_a", mu_a), complex_number("mu_b", mu_b)
    best = math.inf
    for s in (1.0, -1.0):
        base = s * mu_a
        k = round((mu_b.imag - base.imag) / 2.0)
        for kk in (k - 1, k, k + 1):
            best = min(best, abs(base + 2j * kk - mu_b))
    return best
