"""Integer-order Bessel functions J_n and Y_n of a complex argument, from scratch.

For |z| <= 6 both sum their ascending series, Y in its integer-order limit
form (log term + finite singular part + psi series).  Above 6, J runs a
backward (Miller) recurrence normalized through e^{-iz} = J_0 + 2 sum (-i)^k J_k
(upper half plane; conjugate form below), so every term in the normalizing
sum stays on the scale of the result.  Y there is i(J - H^(1)) above the real
axis and conj Y_n(conj z) below: H^(1)_0 solves the Wronskian
W{J_0, H^(1)_0} = 2i/(pi z) against the sweep's own J_0, J_1, with its log
derivative from Steed's continued fraction (Numerical Recipes 6.7, CF2;
Thompson & Barnett 1986), and H^(1) is carried upward in the order, the
direction in which it grows.  Above the axis J is dominant and H^(1)
recessive, so the difference does not cancel.

Two orders.  Every path forms the rows of orders n and n + 1 and reads the
derivative from them: B_n' = (n/z) B_n - B_{n+1} (DLMF 10.6.2), and -B_1
at n = 0.

Array input.  bessel_j and bessel_y take a scalar z or a 1-d array of z; an
array gives value and derivative arrays, and a scalar is the [0] element of a
one-point array.  The method choice is one boolean mask, |z| <= 6, over the
points.  bessel_jy gives both from one validation and one pass per path, so
its J is bessel_j's bit for bit; bessel_y is bessel_jy's Y.

Each point's depth.  No loop's depth at a point hangs on the other points of
its grid, so neither does the point's value:
- a series point sums all of one 20-term coefficient table built at import,
  in one Horner pass in w = -(z/2)^2 over every point; at |z| = 6 the terms
  past it sum below 2^-60 of the largest;
- CF2 is evaluated backward from b_K, K = 5 + ceil(78/|w|): 18 steps just
  above |w| = 6, 11 at 13, 6 from 78 on, two or more past the depth at
  which its truncation falls below half an ulp (scripts/bessel_depth_scan.py),
  and the points of one depth run together;
- the Miller sweep seeds each point at the start index its own |z| gives,
  and a column holds zeros until then.  From its seed no column grows past
  1e201 (n = 200 just above |z| = 6 on the imaginary axis), so none is
  ever rescaled.
The sweep is streamed: it carries the last two rows of the recurrence,
multiplies by a per-point 2/z, adds each new row into the normalization sum
and keeps only the orders the caller reads; H^(1)'s upward recurrence
carries two rows the same way.  Validation raises if any point fails, with
the error a scalar call on that point would raise.

Accuracy against scipy.special: on circles |z| = 0.5 ... 40 with
0 <= n <= 40, J, J', Y and Y' agree to 1e-12 relative at every point; on
circles to |z| = 200 with n <= 200, to 1e-12 of max(|J_n|, |Y_n|).  That is a
relative error too, except beside a real zero, where Y keeps J's absolute
error (3.2e-12 relative at Y_88(100), where scipy is 1.2e-12 off).  On that
scale, against 40-digit mpmath for n in {0, 1, 2, 12} (J' and Y' on the scale
of the larger derivative), the worst error per decade of |z| measures
3.1e-15 at 40, 1.0e-14 at 150, 1.2e-13 at 1,000, 7.3e-13 at 5,000 and
1.3e-12 just below 1e4: it grows like |z| eps, the rounding of the
argument's own phase.

Values are principal-branch; Y inherits the log cut along the negative real
axis, where either signed zero imaginary part gives the upper side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, RangeLimitError, SingularityError

EULER_GAMMA = 0.5772156649015328606

MAX_ORDER = 200
MAX_ARGUMENT = 1.0e4
SERIES_RADIUS = 6.0
# exp(|Im z|) at the double-precision overflow edge; beyond this J/Y overflow anyway
_IM_OVERFLOW = 700.0
# the Miller sweep's seed: from it no column grows past 1e201 (n = 200 at
# |z| = 6i), far below overflow (scripts/bessel_depth_scan.py)
_MILLER_SEED = 1e-150


@dataclass(frozen=True)
class BesselValue:
    """Function value and derivative with respect to the argument.

    Complex numbers for a scalar argument, arrays for an array of arguments.
    """

    value: complex | np.ndarray
    derivative: complex | np.ndarray


def _validate(n, z) -> tuple[int, np.ndarray, bool]:
    """|n|, the points as a 1-d complex array, and whether z was a scalar."""
    if not isinstance(n, (int, np.integer)):
        raise InvalidParameterError(f"order must be an integer, got {n!r}")
    if abs(int(n)) > MAX_ORDER:
        raise RangeLimitError(f"order |n|={abs(int(n))} exceeds supported maximum {MAX_ORDER}")
    refused = "argument must be a number or a 1-d array of numbers"
    try:
        z = np.asarray(z)
    except ValueError:  # nested sequences of unequal lengths
        raise InvalidParameterError(refused) from None
    if z.dtype.kind not in "biufc" or z.ndim > 1:  # text, None, a mixed sequence
        raise InvalidParameterError(refused)
    scalar = z.ndim == 0
    z = np.ascontiguousarray(z, dtype=complex)
    bad = ~np.isfinite(z)
    if bad.any():
        raise InvalidParameterError(f"argument must be finite, got {_first(z, bad)!r}")
    bad = _modulus(z) > MAX_ARGUMENT
    if bad.any():
        raise RangeLimitError(
            f"|z|={abs(_first(z, bad)):g} exceeds supported maximum {MAX_ARGUMENT:g}")
    if (np.abs(z.imag) > _IM_OVERFLOW).any():
        raise RangeLimitError("function value exceeds double-precision range for |Im z| > 700")
    return abs(int(n)), z, scalar


def _modulus(z: np.ndarray) -> np.ndarray:
    # |z| as the scalar abs() rounds it (np.abs on complex can differ in the
    # last bit), so a point on a mask edge takes the path a scalar call takes
    return np.hypot(z.real, z.imag)


def _first(z: np.ndarray, mask: np.ndarray) -> complex:
    return complex(z[np.argmax(mask)])


def _orders(na: int) -> np.ndarray:
    # the rows every path returns: B_n, and B_{n+1} for B_n' = (n/z) B_n - B_{n+1}
    return np.arange(na, na + 2)


def _derivative(na: int, z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """B_n' = (n/z) B_n - B_{n+1} (DLMF 10.6.2) from rows n and n + 1; -B_1 at n = 0."""
    if na == 0:
        return -rows[1]
    return (na / z) * rows[0] - rows[1]


def _series_coefficients() -> np.ndarray:
    """The ascending series' Horner coefficients in w = -(z/2)^2, [k][J or psi][order o].

    For k < 20 and o <= MAX_ORDER + 1: b_k = 1/(k! (o+1)_k), and for Y's
    psi series b_k (H_k + H_{o+k} - 2 gamma).  At |z| = 6 the terms from
    k = 20 on sum to below 2^-60 of the largest for every order (from k = 19
    they do not at order 0); at smaller |z| they fall faster.
    """
    k, o = np.arange(20)[:, None], np.arange(MAX_ORDER + 2)
    b = np.cumprod(np.vstack((np.ones(len(o)), 1.0 / (k[1:] * (o + k[1:])))), axis=0)
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, MAX_ORDER + len(k) + 1))))
    return np.stack((b, b * (harmonic[k] + harmonic[k + o] - 2.0 * EULER_GAMMA)), axis=1)


_SERIES = _series_coefficients()


def _ascending(na: int, z: np.ndarray, functions: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending series of orders n and n + 1, [function][order][point], and J_n'.

    J_o(z) = (z/2)^o / o! * sum_k b_k w^k with w = -(z/2)^2 and the module
    table's b_k, summed in one Horner pass; with functions=2 the rows are
    followed by the psi series sum_k (H_k + H_{o+k} - 2 gamma) t_k of Y's
    integer-order limit form, from the same pass.  (n/z) J_n is formed as
    (z/2)^(n-1) / (2 (n-1)!) times the sum, so z = 0 needs no division.
    Every operation is per point, so a point's value does not hang on the
    grid it is summed in.
    """
    table = _SERIES[:, :functions, _orders(na), None]
    half = z / 2.0
    w = -(half * half)
    sums = table[-1] * np.ones_like(w)
    for b in table[-2::-1]:
        sums *= w
        sums += b
    # first terms (z/2)^o / o!, built incrementally so no power overflows.
    # Products of one-point arrays are written out of place: numpy's in-place
    # complex multiply on a single element rounds differently from its vector loop.
    below = np.ones_like(z)  # (z/2)^(n-1) / (n-1)!
    for j in range(1, na):
        below = below * (half / j)
    term = np.empty((2, len(z)), dtype=complex)
    term[0] = below * (half / na) if na else below
    term[1] = term[0] * (half / (na + 1))
    rows = sums * term
    if na == 0:
        return rows, -rows[0, 1]
    return rows, 0.5 * below * sums[0, 0] - rows[0, 1]


def _j_series(na: int, z: np.ndarray) -> tuple[tuple]:
    rows, derivative = _ascending(na, z, 1)
    return ((rows[0, 0], derivative),)


def _jy_series(na: int, z: np.ndarray) -> tuple[tuple, tuple]:
    """J's and Y's value and derivative from one ascending pass.

    Y is the integer-order limit form: log term + finite singular part + psi
    series.  J is what _j_series returns for the same points.
    """
    orders = _orders(na)
    (jn, psi), j_derivative = _ascending(na, z, 2)
    half = z / 2.0
    log_term = (2.0 / math.pi) * np.log(half) * jn
    # finite part sum_{k<o} (o-k-1)!/k! (z/2)^(2k-o); each row's k=0 term
    # (o-1)!/half^o is built with interleaved factors so no intermediate overflows
    first = 1.0 / half
    for i in range(1, max(na, 1)):
        first = first * (i / half)
    term = np.array([np.zeros_like(half), first] if na == 0 else [first, first * (na / half)])
    finite = term.copy()
    hh = half * half
    ks = np.arange(1, na + 1)[:, None]
    den = ks * (orders - ks)
    # rows whose sum has ended multiply by 0 and add zeros from here on
    inv = np.where(den > 0, 1.0 / np.maximum(den, 1), 0.0)[:, :, None]
    for c in inv:
        term *= hh
        term *= c
        finite += term
    y = log_term - finite / math.pi - psi / math.pi
    return (jn[0], j_derivative), (y[0], _derivative(na, z, y))


def _miller_start(n_top: int, r: np.ndarray) -> np.ndarray:
    # margin grows like |z|^(1/3) so the minimal solution is fully separated
    return n_top + np.ceil(r).astype(int) + 15 + np.ceil(7.5 * r ** (1.0 / 3.0)).astype(int)


def _miller(n_top: int, z: np.ndarray, keep) -> np.ndarray:
    """J_k(z) for each k in keep, by one backward recurrence over every point.

    Each point starts at the index its own |z| needs: until then its column
    holds zeros, and there its row is seeded.  The sweep carries the
    recurrence's two rows and adds each new row into the normalization
    e^{-+iz} = J_0 + 2 sum (-+i)^k J_k.
    """
    starts = _miller_start(n_top, _modulus(z))
    seeds = set(starts.tolist())
    two_over_z = 2.0 / z
    # before its start a column's sums stay +0 and its rows +-0; seeding f and
    # zeroing f_hi starts it as a sweep of that point alone would, signed zeros too
    f_hi, f = np.zeros_like(z), np.zeros_like(z)
    # normalization sum split by parity: sum over even j of i^j f_j, and over
    # odd j of i^(j-1) f_j; the odd part takes the sign of the half plane
    even, odd = np.zeros_like(z), np.zeros_like(z)
    kept = {}
    for j in range(max(seeds), 0, -1):
        if j in seeds:
            at = starts == j
            f, f_hi = np.where(at, _MILLER_SEED, f), np.where(at, 0.0, f_hi)
        if j in keep:
            kept[j] = f
        k = (j + 1) // 2
        # plus(acc, x) adds (-1)^k x into acc, minus(acc, x) subtracts it
        plus, minus = (np.subtract, np.add) if k % 2 else (np.add, np.subtract)
        if j % 2:  # j = 2k - 1
            minus(odd, f, out=odd)
        else:  # j = 2k
            plus(even, f, out=even)
        f, f_hi = (two_over_z * float(j)) * f - f_hi, f
    kept[0] = f
    # e^{-iz} = J0 + 2 sum (-i)^k Jk keeps every term on the scale of the result;
    # the classical "sum of even orders = 1" cancels catastrophically off the axis
    upper = z.imag >= 0.0
    total = f + 2.0 * even + 2.0j * np.where(upper, -1.0, 1.0) * odd
    scale = np.exp(np.where(upper, -1.0j, 1.0j) * z) / total
    return np.array([kept[k] * scale for k in keep])


def _j_miller(na: int, z: np.ndarray) -> tuple[tuple]:
    rows = _miller(na + 1, z, _orders(na).tolist())
    return ((rows[0], _derivative(na, z, rows)),)


def _cf2_depth(r: np.ndarray) -> np.ndarray:
    # two steps or more past the depth at which the fraction's truncation falls
    # below half an ulp, at every |w| from 6 to 1e4 (scripts/bessel_depth_scan.py)
    return 5 + np.ceil(78.0 / r).astype(int)


def _hankel_log_derivative(w: np.ndarray) -> np.ndarray:
    """H_0'(w) / H_0(w) for H = H^(1) and Im w >= 0, by Steed's continued fraction.

    f = i - 1/(2w) + (i/w) a_1/(b_1 + a_2/(b_2 + ...)), a_k = (k - 1/2)^2 and
    b_k = 2(w + ik), evaluated backward from b_K, K = _cf2_depth(|w|); the
    points of one depth run together.
    """
    depths = _cf2_depth(_modulus(w))
    u = np.empty_like(w)
    for depth in set(depths.tolist()):
        at = depths == depth
        two_w = 2.0 * w[at]
        t = two_w + 2.0j * depth
        for k in range(depth - 1, 0, -1):
            t = (two_w + 2.0j * k) + (k + 0.5) ** 2 / t
        u[at] = t
    return 1.0j - 0.5 / w + (0.25j / w) / u


def _jy_far(na: int, z: np.ndarray) -> tuple[tuple, tuple]:
    """J's Miller rows, and Y's from them: i(J - H) with H = H^(1) at w.

    w is z above the real axis (a signed zero imaginary part counts as above)
    and conj z below, where Y_n(z) = conj Y_n(w).  H_1 = -H_0', and
    H_m ~ (-i)^m K_m(-iw) grows with m, the way its recurrence runs.
    """
    rows = _miller(na + 1, z, (0, 1, *_orders(na).tolist()))
    upper = z.imag >= 0.0
    w, j0, j1 = (np.where(upper, a, a.conj()) for a in (z, rows[0], rows[1]))
    f = _hankel_log_derivative(w)
    # W{J_0, H_0} = J_0 H_0' + J_1 H_0 = 2i/(pi w), with H_0' = f H_0
    h = (2.0j / math.pi) / (w * (j0 * f + j1))
    above = -f * h
    two_over_w = 2.0 / w
    for k in range(1, na + 1):
        h, above = above, (two_over_w * k) * above - h
    h_rows = np.array([h, above])
    j, y = rows[2:], np.where(upper, 1.0j, -1.0j) * (rows[2:] - np.where(upper, h_rows, h_rows.conj()))
    return (j[0], _derivative(na, z, j)), (y[0], _derivative(na, z, y))


def _evaluate(na: int, z: np.ndarray, paths, functions: int = 1) -> np.ndarray:
    """[function][value or derivative] arrays, each point summed by the path its mask picks."""
    out = np.empty((functions, 2, len(z)), dtype=complex)
    for mask, path in paths:
        if mask.any():
            for o, pair in zip(out, path(na, z[mask])):
                o[:, mask] = pair
    return out


def _result(n, val: np.ndarray, der: np.ndarray, scalar: bool) -> BesselValue:
    if int(n) < 0 and int(n) % 2:
        val, der = -val, -der
    if scalar:
        return BesselValue(complex(val[0]), complex(der[0]))
    return BesselValue(val, der)


def bessel_j(n: int, z) -> BesselValue:
    """J_n(z) with its derivative, integer n, complex z or a 1-d array of z.

    |n| <= 200 and |z| <= 1e4; negative orders via J_{-n} = (-1)^n J_n.
    """
    na, z, scalar = _validate(n, z)
    series = _modulus(z) <= SERIES_RADIUS
    (val, der), = _evaluate(na, z, ((series, _j_series), (~series, _j_miller)))
    return _result(n, val, der, scalar)


def bessel_y(n: int, z) -> BesselValue:
    """Y_n(z) with its derivative, integer n, complex z != 0 (principal branch).

    z may be a 1-d array.  |n| <= 200 and |z| <= 1e4; negative orders via
    Y_{-n} = (-1)^n Y_n.  Raises RangeLimitError when the value overflows
    double precision.  It is bessel_jy's Y, so it pays for J's pass too.
    """
    return bessel_jy(n, z)[1]


def bessel_jy(n: int, z) -> tuple[BesselValue, BesselValue]:
    """(bessel_j(n, z), bessel_y(n, z)), validated once and summed in one pass per path.

    Y reads J's own rows: J's series pass where |z| <= 6, and J's Miller
    sweep, against which H^(1) is formed, elsewhere.
    """
    na, z, scalar = _validate(n, z)
    if (z == 0).any():
        raise SingularityError("Y_n is singular at z = 0")
    series = _modulus(z) <= SERIES_RADIUS
    # an overflowing point is reported below as RangeLimitError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        (jv, jd), (yv, yd) = _evaluate(na, z, ((series, _jy_series), (~series, _jy_far)), 2)
    bad = ~(np.isfinite(yv) & np.isfinite(yd))
    if bad.any():
        raise RangeLimitError(f"Y_{na}({_first(z, bad)!r}) exceeds double-precision range")
    return _result(n, jv, jd, scalar), _result(n, yv, yd, scalar)
