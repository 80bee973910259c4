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

Array input.  bessel_j and bessel_y take a scalar z or a 1-d array of z; an
array gives value and derivative arrays, and a scalar is the [0] element of a
one-point array.  The method choice is one boolean mask, |z| <= 6, over the
points.  bessel_jy gives both from one validation and one pass per path, so
its J is bessel_j's bit for bit; bessel_y is bessel_jy's Y.
A series is one Horner pass over all its points in w = -(z/2)^2 through one
20-term coefficient table built at import, so a point's value does not hang
on the other points of its grid.
The Miller sweep starts every point at the index the largest |z| needs (on
the closed form's circular path |z| is constant) and is streamed: it carries
the last rows of the recurrence, multiplies by a per-point 2/z, adds each new
row into the normalization sum, keeps only the orders the caller reads, and
rescales a column once it passes 1e250; H^(1)'s upward recurrence carries
three rows the same way.  Validation raises if any point fails, with the
error a scalar call on that point would raise.

Accuracy against scipy.special: on circles |z| = 0.5 ... 40 with
0 <= n <= 40, J, J', Y and Y' agree to 1e-12 relative at every point; on
circles to |z| = 200 with n <= 200, to 1e-12 of max(|J_n|, |Y_n|).  That is a
relative error too, except beside a real zero, where Y keeps J's absolute
error (3.2e-12 relative at Y_88(100), where scipy is 1.2e-12 off).  On that
scale a scan of 180-point circles measures 6.3e-13 at |z| = 1000 and 8.4e-12
near 1e4.

Values are principal-branch; Y inherits the log cut along the negative real
axis, where either signed zero imaginary part gives the upper side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidParameterError, RangeLimitError, SingularityError

EULER_GAMMA = 0.5772156649015328606

MAX_ORDER = 200
MAX_ARGUMENT = 1.0e4
SERIES_RADIUS = 6.0
# exp(|Im z|) at the double-precision overflow edge; beyond this J/Y overflow anyway
_IM_OVERFLOW = 700.0
# the Miller sweep checks its rows for rescaling once their growth bound has
# gained this many decades; 1e250 * 1e42 still leaves the sums room below 1e308
_RESCALE_DECADES = 40.0
# Steed's continued fraction takes at most 24 steps above |z| = 6
_CF2_MAX_STEPS = 64


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
    # the rows every path returns: what B_n and 2 B_n' = B_{n-1} - B_{n+1} read
    return np.arange(na - 1, na + 2) if na else np.arange(2)


def _value_and_derivative(rows: np.ndarray, na: int):
    if na == 0:
        return rows[0], -rows[1]
    return rows[1], (rows[0] - rows[2]) / 2.0


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


def _ascending(orders: np.ndarray, z: np.ndarray, functions: int) -> np.ndarray:
    """Ascending series of J_o(z), [function][row per order o][point].

    J_o(z) = (z/2)^o / o! * sum_k b_k w^k with w = -(z/2)^2 and the module
    table's b_k, summed in one Horner pass; with functions=2 the rows are
    followed by the psi series sum_k (H_k + H_{o+k} - 2 gamma) t_k of Y's
    integer-order limit form, from the same pass.  Every operation is per
    point, so a point's value does not hang on the grid it is summed in.
    """
    table = _SERIES[:, :functions, orders, None]
    half = z / 2.0
    w = -(half * half)
    acc = table[-1] * np.ones_like(z)
    for b in table[-2::-1]:
        acc *= w
        acc += b
    # first terms (z/2)^o / o!, built incrementally so no power overflows;
    # consecutive orders continue the same product.  Products of one-point
    # arrays are written out of place: numpy's in-place complex multiply on a
    # single element rounds differently from its vector loop.
    term = np.empty((len(orders), len(z)), dtype=complex)
    term[0] = 1.0
    for j in range(1, int(orders[0]) + 1):
        term[0] = term[0] * (half / j)
    for row in range(1, len(orders)):
        term[row] = term[row - 1] * (half / int(orders[row]))
    return acc * term


def _j_series(na: int, z: np.ndarray) -> np.ndarray:
    return _ascending(_orders(na), z, 1)


def _jy_series(na: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J's and Y's rows from one ascending pass.

    Y is the integer-order limit form: log term + finite singular part + psi
    series.  The J rows are what _j_series returns for the same points.
    """
    orders = _orders(na)
    jn, psi = _ascending(orders, z, 2)
    half = z / 2.0
    log_term = (2.0 / math.pi) * np.log(half) * jn
    # finite part sum_{k<o} (o-k-1)!/k! (z/2)^(2k-o); each row's k=0 term
    # (o-1)!/half^o is built with interleaved factors so no intermediate overflows
    first = 1.0 / half
    for i in range(1, max(int(orders[0]), 1)):
        first = first * (i / half)
    rows = [np.zeros_like(half), first] if orders[0] == 0 else [first]
    for o in orders[len(rows):]:
        rows.append(rows[-1] * ((o - 1) / half))
    term = np.array(rows)
    finite = term.copy()
    hh = half * half
    ks = np.arange(1, max(int(orders[-1]), 1))[:, None]
    den = ks * (orders - ks)
    # rows whose sum has ended multiply by 0 and add zeros from here on
    inv = np.where(den > 0, 1.0 / np.maximum(den, 1), 0.0)[:, :, None]
    for c in inv:
        term *= hh
        term *= c
        finite += term
    return jn, log_term - finite / math.pi - psi / math.pi


def _miller_start(n_top: int, r: float) -> int:
    # margin grows like |z|^(1/3) so the minimal solution is fully separated
    return n_top + int(math.ceil(r)) + 15 + int(math.ceil(7.5 * r ** (1.0 / 3.0)))


def _miller(n_top: int, z: np.ndarray, keep) -> np.ndarray:
    """J_k(z) for each k in keep, by one backward recurrence over every point.

    Every point starts at the index the largest |z| needs.  The sweep carries
    the recurrence's two rows and adds each new row into the normalization
    e^{-+iz} = J_0 + 2 sum (-+i)^k J_k.
    """
    r = _modulus(z)
    # |z| along the closed form's circle varies in its last bits; rounding it
    # keeps one start index for the grid and for each of its points alone
    m = _miller_start(n_top, round(float(r.max()), 9))
    r_min = float(r.min())
    two_over_z = 2.0 / z
    f_hi, f = np.zeros_like(z), np.full_like(z, 1e-150)
    # normalization sum split by parity: sum over even j of i^j f_j, and over
    # odd j of i^(j-1) f_j; the odd part takes the sign of the half plane
    even, odd = np.zeros_like(z), np.zeros_like(z)
    kept = {}
    growth = 0.0
    for j in range(m, 0, -1):
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
        # |f_{j-1}| <= (2j/|z| + 1) max(|f_j|, |f_{j+1}|) bounds the growth
        growth += math.log10(2.0 * j / r_min + 1.0)
        if growth > _RESCALE_DECADES:
            growth = 0.0
            big = (np.abs(f) > 1e250) | (np.abs(f_hi) > 1e250)
            if big.any():
                f, f_hi, even, odd = (np.where(big, a * 1e-250, a) for a in (f, f_hi, even, odd))
                kept = {i: np.where(big, v * 1e-250, v) for i, v in kept.items()}
    kept[0] = f
    # e^{-iz} = J0 + 2 sum (-i)^k Jk keeps every term on the scale of the result;
    # the classical "sum of even orders = 1" cancels catastrophically off the axis
    upper = z.imag >= 0.0
    total = f + 2.0 * even + 2.0j * np.where(upper, -1.0, 1.0) * odd
    scale = np.exp(np.where(upper, -1.0j, 1.0j) * z) / total
    return np.array([kept[k] * scale for k in keep])


def _j_miller(na: int, z: np.ndarray) -> tuple[np.ndarray]:
    return (_miller(na + 1, z, _orders(na).tolist()),)


def _hankel_log_derivative(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """H_0'(w) / H_0(w) for H = H^(1) and Im w >= 0, by Steed's continued fraction.

    f = i - 1/(2w) + (i/w) a_1/(b_1 + a_2/(b_2 + ...)), a_k = (k - 1/2)^2 and
    b_k = 2(w + ik), by modified Lentz until every point's factor C_k D_k is
    within 4e-16 of 1.  The cap's error names the point z whose w has not.
    """
    two_w = 2.0 * w
    u = c = two_w + 2.0j
    d = np.zeros_like(w)
    for k in range(2, _CF2_MAX_STEPS + 1):
        b = two_w + 2.0j * k
        a = (k - 0.5) ** 2
        d = 1.0 / (b + a * d)
        c = b + a / c
        step = c * d
        u = u * step
        if k % 4 == 0 and (np.abs(step - 1.0) < 4e-16).all():
            return 1.0j - 0.5 / w + (0.25j / w) / u
    bad = ~(np.abs(step - 1.0) < 4e-16)
    raise ConvergenceError(
        f"Steed's continued fraction for H_0({_first(z, bad)!r}) did not converge"
        f" in {_CF2_MAX_STEPS} steps")


def _jy_far(na: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J's Miller rows, and Y's from them: i(J - H) with H = H^(1) at w.

    w is z above the real axis (a signed zero imaginary part counts as above)
    and conj z below, where Y_n(z) = conj Y_n(w).  H_1 = -H_0', and
    H_m ~ (-i)^m K_m(-iw) grows with m, the way its recurrence runs.
    """
    rows = _miller(na + 1, z, (0, 1, *_orders(na).tolist()))
    upper = z.imag >= 0.0
    w, j0, j1 = (np.where(upper, a, a.conj()) for a in (z, rows[0], rows[1]))
    f = _hankel_log_derivative(w, z)
    # W{J_0, H_0} = J_0 H_0' + J_1 H_0 = 2i/(pi w), with H_0' = f H_0
    h = (2.0j / math.pi) / (w * (j0 * f + j1))
    below, above = None, -f * h
    two_over_w = 2.0 / w
    for k in range(1, na + 1):
        below, h, above = h, above, (two_over_w * k) * above - h
    h_rows = np.array([h, above] if na == 0 else [below, h, above])
    return rows[2:], np.where(upper, 1.0j, -1.0j) * (rows[2:] - np.where(upper, h_rows, h_rows.conj()))


def _evaluate(na: int, z: np.ndarray, paths, functions: int = 1) -> np.ndarray:
    """[function][value or derivative] arrays, each point summed by the path its mask picks."""
    out = np.empty((functions, 2, len(z)), dtype=complex)
    for mask, path in paths:
        if mask.any():
            for o, rows in zip(out, path(na, z[mask])):
                o[:, mask] = _value_and_derivative(rows, na)
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
