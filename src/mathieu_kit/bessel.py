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

Array input.  bessel_j and bessel_y take a scalar z or a 1-d array of z; an
array gives value and derivative arrays, and a scalar is the [0] element of a
one-point array.  The method choice is a boolean mask over the points: J sums
its series where |z| <= 6 and runs Miller's recurrence elsewhere; Y sums its
direct series where |z| <= 6, |z| - |Im z| <= 9 or |n| >= |z|, and takes the
upward path elsewhere.  bessel_jy gives both from one validation, and reads J
from Y's series pass where both sum their series; bessel_y is bessel_jy's Y.
A series is one Horner pass over all its points in w = -(z/S)^2, S the power
of two at or below the largest |z|, through a per-call table of coefficients
that ends where the terms left at that |z| sum to below 2^-60 of the largest.
The Miller sweep starts every point at the index the largest |z| needs (on
the closed form's circular path |z| is constant) and is streamed: it carries
the last rows of the recurrence, multiplies by a per-point 2/z, adds each new
row into the normalization sum and, for Y, into the two log-Neumann sums
through one reused buffer, keeps only the orders the caller reads, and
rescales a column once it passes 1e250.  Validation raises if any point
fails, with the error a scalar call on that point would raise.

Accuracy: on circles |z| = 0.5 ... 40 with 0 <= n <= 40, J and J' agree with
scipy.special to 1e-12 relative at every point, and so do Y and Y' outside one
corner: order between about 0.7|z| and 1.25|z| with |z| beyond ~15, where
neither method controls the dip amplification.  There the error grows with
|z| (about 5e-12 at |z| = 17.5, 8e-10 at 30, 3e-6 at 40) and keeps growing
beyond; that regime needs uniform large-order asymptotics, out of scope here.
The Wronskian identity survives contamination better than the values because
the dominant error is a multiple of J_n, which the identity annihilates.

Values are principal-branch; Y inherits the log cut along the negative real
axis.
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
# direct Y series is preferred while |z| - |Im z| is below this many e-folds
Y_SERIES_WEDGE = 9.0
# exp(|Im z|) at the double-precision overflow edge; beyond this J/Y overflow anyway
_IM_OVERFLOW = 700.0
# the Miller sweep checks its rows for rescaling once their growth bound has
# gained this many decades; 1e250 * 1e42 still leaves the sums room below 1e308
_RESCALE_DECADES = 40.0

# extended-precision constants for the recurrence path; float64 pi would cap
# the seed accuracy at ~1e-16 and waste the longdouble headroom
_LD = np.clongdouble
_PI_LD = 4 * np.arctan(np.longdouble(1))
_GAMMA_LD = np.longdouble("0.577215664901532860606512090082402431")


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
    scalar = np.ndim(z) == 0
    z = np.ascontiguousarray([complex(z)] if scalar else z, dtype=complex)
    if z.ndim != 1:
        raise InvalidParameterError(f"argument must be a scalar or a 1-d array, got shape {z.shape}")
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


def _series_cap(r: float) -> int:
    # terms decay once k(n+k) outgrows |z/2|^2, so k ~ 0.6|z| plus tail
    return max(200, int(0.6 * r) + 80)


def _series_table(orders: np.ndarray, r: float, scale: float) -> np.ndarray:
    """Horner coefficients b_k = (scale/2)^{2k} / (k! (o+1)_k), one column per order o.

    The table ends at the first k after which, for every order, the true
    terms at |z| = r, (r/2)^{2k} / (k! (o+1)_k), sum to below 2^-60 of their
    largest, and at _series_cap(r) at the latest.
    """
    ks = np.arange(1, _series_cap(r))[:, None]
    den = ks * (orders + ks)
    end = 1
    if r > 0.0:
        log_t = np.cumsum(2.0 * math.log2(r / 2.0) - np.log2(den), axis=0)
        log_t = np.vstack((np.zeros(len(orders)), log_t))
        tail = np.cumsum(np.exp2(log_t - log_t.max(axis=0))[::-1], axis=0)[::-1]
        done = (tail[1:] < 2.0 ** -60).all(axis=1)
        end = int(done.argmax()) if done.any() else len(den)
    # (scale/2)^2 is a power of four, so scaling scale by a power of two
    # scales every b_k by an exact power of four
    return np.cumprod(np.vstack((np.ones(len(orders)), (scale * scale / 4.0) / den[:end])), axis=0)


def _ascending(orders: np.ndarray, z: np.ndarray, with_psi: bool = False) -> np.ndarray:
    """Ascending series of J_o(z): one row per order o, one column per point.

    J_o(z) = (z/2)^o / o! * sum_k b_k w^k with w = -(z/S)^2, summed in one
    Horner pass; S is the power of two at or below the largest |z|, so no
    b_k exceeds the largest term and, the scaling being exact, a point's
    value does not hang on S (the table's length still follows the largest
    |z|).  With with_psi the rows are followed by the
    psi series sum_k (H_k + H_{o+k} - 2 gamma) t_k of Y's integer-order limit
    form, from the same pass.
    """
    r = float(_modulus(z).max())
    scale = math.ldexp(1.0, math.frexp(r)[1] - 1)
    table = _series_table(orders, r, scale)
    if with_psi:
        ks = np.arange(len(table))
        top = int(orders[-1]) + len(ks)
        harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, top + 1))))
        psi = harmonic[ks][:, None] + harmonic[orders + ks[:, None]] - 2.0 * EULER_GAMMA
        table = np.hstack((table, table * psi))
    table = table.astype(complex)[:, :, None]
    zs = z / scale
    w = -(zs * zs)
    acc = np.empty((table.shape[1], len(z)), dtype=complex)
    acc[:] = table[-1]
    for b in table[-2::-1]:
        acc *= w
        acc += b
    # first terms (z/2)^o / o!, built incrementally so no power overflows;
    # consecutive orders continue the same product.  Products of one-point
    # arrays are written out of place: numpy's in-place complex multiply on a
    # single element rounds differently from its vector loop.
    half = z / 2.0
    term = np.empty((len(orders), len(z)), dtype=complex)
    term[0] = 1.0
    for j in range(1, int(orders[0]) + 1):
        term[0] = term[0] * (half / j)
    for row in range(1, len(orders)):
        term[row] = term[row - 1] * (half / int(orders[row]))
    return acc.reshape(-1, *term.shape) * term if with_psi else acc * term


def _j_series(na: int, z: np.ndarray) -> np.ndarray:
    return _ascending(_orders(na), z)


def _jy_series(na: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J's and Y's rows from one ascending pass.

    Y is the integer-order limit form: log term + finite singular part + psi
    series.  The J rows are what _j_series returns for the same points.
    """
    orders = _orders(na)
    jn, psi = _ascending(orders, z, with_psi=True)
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


def _miller(n_top: int, z: np.ndarray, keep, dtype: type = complex, neumann: bool = False):
    """J_k(z) for each k in keep, by one backward recurrence over every point.

    Every point starts at the index the largest |z| needs.  The sweep carries
    the recurrence's two rows and, for s1, the row before them; each new row
    is added into the normalization
    e^{-+iz} = J_0 + 2 sum (-+i)^k J_k and, with neumann, into Y's log-Neumann
    sums s0 = sum (-1)^k J_2k / k and s1 = sum (-1)^k (J_2k-1 - J_2k+1) / 2k.
    Returns the kept rows, followed by s0 and s1 when neumann.
    """
    r = _modulus(z)
    # |z| along the closed form's circle varies in its last bits; rounding it
    # keeps one start index for the grid and for each of its points alone
    m = _miller_start(n_top, round(float(r.max()), 9))
    r_min = float(r.min())
    kmax = (m - 1) // 2
    zz = z.astype(dtype)
    two_over_z = 2.0 / zz
    # the Neumann sums multiply by 1/k in the sweep's own precision
    one = zz.real.dtype.type(1)
    f_hi2, f_hi, f = np.zeros_like(zz), np.zeros_like(zz), np.full_like(zz, 1e-150)
    # normalization sum split by parity: sum over even j of i^j f_j, and over
    # odd j of i^(j-1) f_j; the odd part takes the sign of the half plane
    even, odd, s0, s1, tmp = (np.zeros_like(zz) for _ in range(5))
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
            if neumann and k <= kmax:
                np.subtract(f, f_hi2, tmp)
                plus(s1, np.multiply(tmp, one / (2 * k), tmp), s1)
        else:  # j = 2k
            plus(even, f, out=even)
            if neumann and k <= kmax:
                plus(s0, np.multiply(f, one / k, tmp), s0)
        f, f_hi, f_hi2 = (two_over_z * float(j)) * f - f_hi, f, f_hi
        # |f_{j-1}| <= (2j/|z| + 1) max(|f_j|, |f_{j+1}|) bounds the growth
        growth += math.log10(2.0 * j / r_min + 1.0)
        if growth > _RESCALE_DECADES:
            growth = 0.0
            big = (np.abs(f) > 1e250) | (np.abs(f_hi) > 1e250)
            if big.any():
                f, f_hi, f_hi2, even, odd, s0, s1 = (
                    np.where(big, a * 1e-250, a) for a in (f, f_hi, f_hi2, even, odd, s0, s1))
                kept = {i: np.where(big, v * 1e-250, v) for i, v in kept.items()}
    kept[0] = f
    # e^{-iz} = J0 + 2 sum (-i)^k Jk keeps every term on the scale of the result;
    # the classical "sum of even orders = 1" cancels catastrophically off the axis
    upper = z.imag >= 0.0
    total = f + 2.0 * even + 2.0j * np.where(upper, -1.0, 1.0) * odd
    scale = np.exp(np.where(upper, -1.0j, 1.0j) * zz) / total
    rows = np.array([kept[k] * scale for k in keep])
    return (rows, s0 * scale, s1 * scale) if neumann else rows


def _j_miller(na: int, z: np.ndarray) -> np.ndarray:
    return _miller(na + 1, z, _orders(na).tolist())


def _y_upward(na: int, z: np.ndarray) -> np.ndarray:
    """Y_0, Y_1 from the log-Neumann series, then the upward recurrence.

    Runs in extended precision and keeps only the last rows it needs.
    """
    (j0, j1), s0, s1 = _miller(max(na + 1, 2), z, (0, 1), dtype=_LD, neumann=True)
    zz = z.astype(_LD)
    lg = np.log(zz / 2.0) + _GAMMA_LD
    y0 = (2.0 / _PI_LD) * lg * j0 - (4.0 / _PI_LD) * s0
    dy0 = (2.0 / _PI_LD) * (j0 / zz - lg * j1) - (4.0 / _PI_LD) * s1
    below, y, above = None, y0, -dy0
    for k in range(1, na + 1):
        below, y, above = y, above, (2.0 * k / zz) * above - y
        bad = ~np.isfinite(above)
        if bad.any():
            raise RangeLimitError(
                f"Y_{k + 1}({_first(z, bad)!r}) exceeds double-precision range"
            )
    return np.array([y, above] if na == 0 else [below, y, above])


def _evaluate(na: int, z: np.ndarray, paths) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative arrays, each point summed by the path its mask picks."""
    val = np.empty_like(z)
    der = np.empty_like(z)
    for mask, path in paths:
        if mask.any():
            val[mask], der[mask] = _value_and_derivative(path(na, z[mask]), na)
    return val, der


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
    val, der = _evaluate(na, z, ((series, _j_series), (~series, _j_miller)))
    return _result(n, val, der, scalar)


def bessel_y(n: int, z) -> BesselValue:
    """Y_n(z) with its derivative, integer n, complex z != 0 (principal branch).

    z may be a 1-d array.  |n| <= 200 and |z| <= 1e4; negative orders via
    Y_{-n} = (-1)^n Y_n.  Raises RangeLimitError when the value overflows
    double precision.  It is bessel_jy's Y, so it pays for J's pass too.
    """
    return bessel_jy(n, z)[1]


def bessel_jy(n: int, z) -> tuple[BesselValue, BesselValue]:
    """(bessel_j(n, z), bessel_y(n, z)), validated once and summed in fewer passes.

    Where both sum their series (|z| <= 6) J is read from Y's series pass,
    which runs over all of Y's direct points; elsewhere J runs its own Miller
    sweep.  A J point that shares Y's pass with larger |z| may differ from
    bessel_j in its last bits.
    """
    na, z, scalar = _validate(n, z)
    if (z == 0).any():
        raise SingularityError("Y_n is singular at z = 0")
    r = _modulus(z)
    direct = (r <= SERIES_RADIUS) | (r - np.abs(z.imag) <= Y_SERIES_WEDGE) | (na >= r)
    series = r <= SERIES_RADIUS
    jv, jd = _evaluate(na, z, ((~series, _j_miller),))
    # an overflowing point is reported below as RangeLimitError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        yv, yd = _evaluate(na, z, ((~direct, _y_upward),))
        if direct.any():
            j_rows, y_rows = _jy_series(na, z[direct])
            yv[direct], yd[direct] = _value_and_derivative(y_rows, na)
            jv[series], jd[series] = _value_and_derivative(j_rows[:, series[direct]], na)
    bad = ~(np.isfinite(yv) & np.isfinite(yd))
    if bad.any():
        raise RangeLimitError(f"Y_{na}({_first(z, bad)!r}) exceeds double-precision range")
    return _result(n, jv, jd, scalar), _result(n, yv, yd, scalar)
