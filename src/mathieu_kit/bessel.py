"""Integer-order Bessel functions J_n and Y_n of a complex argument, from scratch.

J uses an ascending power series for small |z| and a backward (Miller)
recurrence for larger |z|, normalized through e^{-iz} = J_0 + 2 sum (-i)^k J_k
(upper half plane; conjugate form below) so every term in the normalizing sum
stays on the scale of the result.

Y is method-switched per point.  The three-term recurrence carried upward from
Y_0, Y_1 is exact in the stable direction near the real axis, but for z near
the imaginary axis |Y_m| dips by a factor ~e^{|Im z|} around m ~ |z| and
rounding noise picked up before the dip (a J_m component) overwhelms the value
beyond it.  The integer-order limit series has the complementary behaviour: its
cancellation is ~e^{|z| - |Im z|}, harmless near the imaginary axis, fatal near
the real one.  So the direct series is used when |z| - |Im z| is small (or the
order exceeds |z|, where the ascending singular part dominates), and the
recurrence path is used otherwise, run in extended precision to absorb what is
left of the dip amplification.

Accuracy: for |n| <= 20 and |z| <= 50 worst observed relative error is below
1e-12 for values and Wronskian alike.  Outside that box the routines stay
accurate except in one corner: order within roughly a factor of two of |z|,
argument far from both axes, and |z| beyond ~60, where neither method controls
the dip amplification and the returned Y can lose most of its digits (that
regime needs uniform large-order asymptotics, out of scope here).  The
Wronskian identity survives contamination better than the values because the
dominant error is a multiple of J_n, which the identity annihilates.

Values are principal-branch; Y inherits the log cut along the negative real
axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, RangeLimitError, SingularityError

EULER_GAMMA = 0.5772156649015328606

MAX_ORDER = 200
MAX_ARGUMENT = 1.0e4
SERIES_RADIUS = 6.0
# direct Y series is preferred while |z| - |Im z| is below this many e-folds
Y_SERIES_WEDGE = 9.0
# exp(|Im z|) at the double-precision overflow edge; beyond this J/Y overflow anyway
_IM_OVERFLOW = 700.0

# extended-precision constants for the recurrence path; float64 pi would cap
# the seed accuracy at ~1e-16 and waste the longdouble headroom
_LD = np.clongdouble
_PI_LD = 4 * np.arctan(np.longdouble(1))
_GAMMA_LD = np.longdouble("0.577215664901532860606512090082402431")


@dataclass(frozen=True)
class BesselValue:
    """Function value and derivative with respect to the argument."""

    value: complex
    derivative: complex


def _validate(n: int, z: complex) -> complex:
    if not isinstance(n, (int, np.integer)):
        raise InvalidParameterError(f"order must be an integer, got {n!r}")
    if abs(int(n)) > MAX_ORDER:
        raise RangeLimitError(f"order |n|={abs(int(n))} exceeds supported maximum {MAX_ORDER}")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidParameterError(f"argument must be finite, got {z!r}")
    if abs(z) > MAX_ARGUMENT:
        raise RangeLimitError(f"|z|={abs(z):g} exceeds supported maximum {MAX_ARGUMENT:g}")
    if abs(z.imag) > _IM_OVERFLOW:
        raise RangeLimitError("function value exceeds double-precision range for |Im z| > 700")
    return z


def _series_cap(z: complex) -> int:
    # terms decay once k(n+k) outgrows |z/2|^2, so k ~ 0.6|z| plus tail
    return max(200, int(0.6 * abs(z)) + 80)


def _j_series(n: int, z: complex) -> complex:
    # ascending series; first term built incrementally so (z/2)^n never overflows
    half = z / 2.0
    term = 1.0 + 0.0j
    for j in range(1, n + 1):
        term *= half / j
    total = term
    h2 = -(half * half)
    for k in range(1, _series_cap(z)):
        term *= h2 / (k * (n + k))
        total += term
        if abs(term) <= 1e-17 * abs(total) + 5e-324:
            break
    return total


_HARMONIC = [0.0]


def _harmonic(m: int) -> float:
    while len(_HARMONIC) <= m:
        _HARMONIC.append(_HARMONIC[-1] + 1.0 / len(_HARMONIC))
    return _HARMONIC[m]


def _y_series(n: int, z: complex) -> complex:
    # integer-order limit form: log term + finite singular part + psi series
    half = z / 2.0
    log_term = (2.0 / math.pi) * cmath.log(half) * _j_series(n, z)

    finite = 0.0 + 0.0j
    if n > 0:
        # sum_{k<n} (n-k-1)!/k! (z/2)^(2k-n); k=0 coefficient (n-1)!/half^n is
        # built with interleaved factors so no intermediate overflows
        term = 1.0 / half
        for j in range(1, n):
            term *= j / half
        for k in range(n):
            finite += term
            if k + 1 < n:
                term *= half * half / ((k + 1) * (n - k - 1))
    finite /= math.pi

    # psi series: sum_k (H_k + H_{n+k} - 2*gamma) * (-1)^k (z/2)^(2k) / (k! (n+k)!)
    base = 1.0 + 0.0j
    for j in range(1, n + 1):
        base *= half / j
    h2 = -(half * half)
    psi_sum = (_harmonic(n) - 2.0 * EULER_GAMMA) * base
    term = base
    for k in range(1, _series_cap(z)):
        term *= h2 / (k * (n + k))
        contrib = (_harmonic(k) + _harmonic(n + k) - 2.0 * EULER_GAMMA) * term
        psi_sum += contrib
        if abs(contrib) <= 1e-17 * abs(psi_sum) + 5e-324:
            break
    psi_sum /= math.pi

    return log_term - finite - psi_sum


def _miller_start(n_top: int, r: float) -> int:
    # margin grows like |z|^(1/3) so the minimal solution is fully separated
    return n_top + int(math.ceil(r)) + 15 + int(math.ceil(7.5 * r ** (1.0 / 3.0)))


def _miller_j(n_top: int, z: complex, dtype: type = complex) -> np.ndarray:
    """All of J_0..J_M by backward recurrence, normalized through exp(-+ i z)."""
    m_start = _miller_start(n_top, abs(z))
    zz = np.asarray(z, dtype=dtype)[()]
    f = np.zeros(m_start + 2, dtype=dtype)
    f[m_start] = 1e-150
    for k in range(m_start, 0, -1):
        f[k - 1] = (2.0 * k / zz) * f[k] - f[k + 1]
        if abs(f[k - 1]) > 1e250:
            f[k - 1 :] *= 1e-250
    # e^{-iz} = J0 + 2 sum (-i)^k Jk keeps every term on the scale of the result;
    # the classical "sum of even orders = 1" cancels catastrophically off the axis
    u = np.asarray(-1.0j if z.imag >= 0.0 else 1.0j, dtype=dtype)[()]
    ks = np.arange(1, m_start + 1)
    total = f[0] + 2.0 * np.sum(u ** np.mod(ks, 4) * f[1 : m_start + 1])
    scale = np.exp(u * zz) / total
    return f[: m_start + 1] * scale


def _y01_from_j(z: complex, j_arr: np.ndarray) -> tuple[complex, complex]:
    """Y_0 and Y_1 from the log-Neumann series over a normalized J array."""
    pi = j_arr.dtype.type(_PI_LD)
    zz = np.asarray(z, dtype=j_arr.dtype)[()]
    lg = np.log(zz / 2.0) + j_arr.dtype.type(_GAMMA_LD)
    kmax = (len(j_arr) - 2) // 2
    s0 = np.zeros((), dtype=j_arr.dtype)[()]
    s1 = np.zeros((), dtype=j_arr.dtype)[()]
    sgn = -1.0
    for k in range(1, kmax + 1):
        s0 += sgn * j_arr[2 * k] / k
        s1 += sgn * (j_arr[2 * k - 1] - j_arr[2 * k + 1]) / (2.0 * k)
        sgn = -sgn
    y0 = (2.0 / pi) * lg * j_arr[0] - (4.0 / pi) * s0
    dy0 = (2.0 / pi) * (j_arr[0] / zz - lg * j_arr[1]) - (4.0 / pi) * s1
    return y0, -dy0


def _y_upward(n_top: int, z: complex, y0, y1) -> list:
    zz = np.asarray(z, dtype=np.result_type(y0, y1))[()]
    ys = [y0, y1]
    for k in range(1, n_top):
        nxt = (2.0 * k / zz) * ys[k] - ys[k - 1]
        if not np.isfinite(nxt):
            raise RangeLimitError(
                f"Y_{k + 1}({z!r}) exceeds double-precision range"
            )
        ys.append(nxt)
    return ys


def bessel_j(n: int, z: complex) -> BesselValue:
    """J_n(z) with its derivative, integer n, complex z.

    |n| <= 200 and |z| <= 1e4; negative orders via J_{-n} = (-1)^n J_n.
    """
    z = _validate(n, z)
    n = int(n)
    na = abs(n)
    sign = -1.0 if (n < 0 and na % 2 == 1) else 1.0
    if abs(z) <= SERIES_RADIUS:
        val = _j_series(na, z)
        above = _j_series(na + 1, z)
        if na == 0:
            der = -above
        else:
            der = (_j_series(na - 1, z) - above) / 2.0
    else:
        arr = _miller_j(na + 1, z)
        val = complex(arr[na])
        der = complex(-arr[1] if na == 0 else (arr[na - 1] - arr[na + 1]) / 2.0)
    return BesselValue(sign * val, sign * der)


def bessel_y(n: int, z: complex) -> BesselValue:
    """Y_n(z) with its derivative, integer n, complex z != 0 (principal branch).

    |n| <= 200 and |z| <= 1e4; negative orders via Y_{-n} = (-1)^n Y_n.
    Raises RangeLimitError when the value overflows double precision.
    """
    z = _validate(n, z)
    if z == 0:
        raise SingularityError("Y_n is singular at z = 0")
    n = int(n)
    na = abs(n)
    sign = -1.0 if (n < 0 and na % 2 == 1) else 1.0
    r = abs(z)
    direct = r <= SERIES_RADIUS or (r - abs(z.imag)) <= Y_SERIES_WEDGE or na >= r
    if direct:
        val = _y_series(na, z)
        if na == 0:
            der = -_y_series(1, z)
        else:
            der = (_y_series(na - 1, z) - _y_series(na + 1, z)) / 2.0
    else:
        arr = _miller_j(max(na + 1, 2), z, dtype=_LD)
        y0, y1 = _y01_from_j(z, arr)
        ys = _y_upward(na + 1, z, y0, y1)
        val = complex(ys[na])
        der = complex(-ys[1] if na == 0 else (ys[na - 1] - ys[na + 1]) / 2.0)
    if not all(math.isfinite(v) for v in (val.real, val.imag, der.real, der.imag)):
        raise RangeLimitError(f"Y_{na}({z!r}) exceeds double-precision range")
    return BesselValue(sign * val, sign * der)
