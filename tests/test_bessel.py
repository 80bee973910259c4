from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathieu_kit import bessel
from mathieu_kit.bessel import MAX_ARGUMENT, MAX_ORDER, BesselValue, bessel_j, bessel_y
from mathieu_kit.errors import InvalidParameterError, RangeLimitError, SingularityError

from reference_series import ref_j, ref_j_derivative, ref_y, ref_y_derivative

# anchors frozen from the independent series oracle in reference_series.py
J0_AT_1 = 0.7651976865579666
Y0_AT_1 = 0.08825696421567708


def test_frozen_anchors():
    assert bessel_j(0, 1.0).value == pytest.approx(J0_AT_1, rel=1e-14)
    assert bessel_y(0, 1.0).value == pytest.approx(Y0_AT_1, rel=1e-13)


def test_reference_oracle_self_consistency():
    # the independent oracle must reproduce the frozen anchors on its own
    assert ref_j(0, 1.0).real == pytest.approx(J0_AT_1, rel=1e-14)
    assert ref_y(0, 1.0).real == pytest.approx(Y0_AT_1, rel=1e-13)


@given(
    n=st.integers(min_value=0, max_value=10),
    re=st.floats(min_value=-7.0, max_value=7.0),
    im=st.floats(min_value=-7.0, max_value=7.0),
)
def test_j_matches_reference_series(n, re, im):
    z = complex(re, im)
    if abs(z) < 1e-3:
        z += 0.5
    got = bessel_j(n, z)
    ref_v = ref_j(n, z)
    ref_d = ref_j_derivative(n, z)
    scale = max(abs(ref_v), 1e-300)
    assert abs(got.value - ref_v) / scale < 1e-10
    scale_d = max(abs(ref_d), 1e-300)
    assert abs(got.derivative - ref_d) / scale_d < 1e-10


@given(
    n=st.integers(min_value=0, max_value=8),
    re=st.floats(min_value=-6.0, max_value=6.0),
    im=st.floats(min_value=-6.0, max_value=6.0),
)
def test_y_matches_reference_series(n, re, im):
    z = complex(re, im)
    if abs(z) < 0.05:
        z += 0.5
    got = bessel_y(n, z)
    ref_v = ref_y(n, z)
    ref_d = ref_y_derivative(n, z)
    scale = max(abs(ref_v), 1.0)
    assert abs(got.value - ref_v) / scale < 1e-9
    scale_d = max(abs(ref_d), 1.0)
    assert abs(got.derivative - ref_d) / scale_d < 1e-9


def _wronskian_error(n: int, z: complex) -> float:
    jv = bessel_j(n, z)
    yv = bessel_y(n, z)
    w = jv.value * yv.derivative - jv.derivative * yv.value
    expected = 2.0 / (math.pi * z)
    return abs(w - expected) / abs(expected)


@given(
    n=st.integers(min_value=-20, max_value=20),
    re=st.floats(min_value=-49.9, max_value=49.9),
    im=st.floats(min_value=-2.5, max_value=2.5),
)
def test_wronskian_identity_real_axis_band(n, re, im):
    # Forming J*Y' - J'*Y in double precision amplifies roundoff by
    # exp(2*|Im z|); inside this band the identity is well conditioned
    # and must hold to 1e-10 over the full magnitude range.
    z = complex(re, im)
    if abs(z) < 0.1:
        z += 0.5
    assert _wronskian_error(n, z) < 1e-10


@given(
    n=st.integers(min_value=-20, max_value=20),
    r=st.floats(min_value=0.1, max_value=5.0),
    phase=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_wronskian_identity_full_phase(n, r, phase):
    z = r * cmath.exp(1j * phase)
    assert _wronskian_error(n, z) < 1e-10


@given(n=st.integers(min_value=1, max_value=15),
       r=st.floats(min_value=0.2, max_value=30.0),
       phase=st.floats(min_value=-math.pi, max_value=math.pi))
def test_reflection_parity(n, r, phase):
    z = r * cmath.exp(1j * phase)
    sign = (-1) ** n
    jp = bessel_j(n, z)
    jm = bessel_j(-n, z)
    assert jm.value == pytest.approx(sign * jp.value, rel=1e-12, abs=1e-300)
    yp = bessel_y(n, z)
    ym = bessel_y(-n, z)
    scale = max(abs(yp.value), 1e-30)
    assert abs(ym.value - sign * yp.value) / scale < 1e-11


@given(n=st.integers(min_value=1, max_value=19),
       r=st.floats(min_value=0.5, max_value=40.0),
       phase=st.floats(min_value=-math.pi, max_value=math.pi))
def test_derivative_recurrence(n, r, phase):
    # 2 J_n' = J_{n-1} - J_{n+1}
    z = r * cmath.exp(1j * phase)
    d = bessel_j(n, z).derivative
    lhs = 2.0 * d
    rhs = bessel_j(n - 1, z).value - bessel_j(n + 1, z).value
    scale = max(abs(lhs), abs(rhs), 1e-280)
    assert abs(lhs - rhs) / scale < 1e-10


def test_j_at_origin():
    assert bessel_j(0, 0.0).value == 1.0 + 0.0j
    assert bessel_j(3, 0.0).value == 0.0 + 0.0j
    assert bessel_j(0, 0.0).derivative == -0.0 + 0.0j


def test_y_singular_at_origin():
    with pytest.raises(SingularityError):
        bessel_y(0, 0.0)


def test_validation_errors():
    with pytest.raises(InvalidParameterError):
        bessel_j(2.5, 1.0)
    for z in ("abc", None, [1.0, "a"], [1.0, None], [1.0, [2.0, 3.0]], np.ones((2, 2))):
        with pytest.raises(InvalidParameterError):
            bessel_j(3, z)
    with pytest.raises(RangeLimitError):
        bessel_j(MAX_ORDER + 1, 1.0)
    with pytest.raises(RangeLimitError):
        bessel_j(0, MAX_ARGUMENT * 2.0)
    with pytest.raises(RangeLimitError):
        bessel_j(0, 1.0 + 800.0j)


def test_accepts_numpy_integers():
    n = np.int64(3)
    assert bessel_j(n, 1.5).value == pytest.approx(bessel_j(3, 1.5).value, rel=1e-15)


def test_bessel_ode_satisfied():
    # z^2 B'' + z B' + (z^2 - n^2) B = 0 with B'' from the recurrence
    for n in (0, 2, 7):
        for z in (0.7 + 0.2j, 3.0 - 4.0j, 12.0 + 1.0j):
            b = bessel_j(n, z)
            d2 = -b.derivative / z + (n * n / (z * z) - 1.0) * b.value
            resid = z * z * d2 + z * b.derivative + (z * z - n * n) * b.value
            assert abs(resid) < 1e-9 * max(1.0, abs(b.value) * abs(z) ** 2)


# ----------------------------------------------------------------- array input

def _circle(radius: float, count: int = 64) -> np.ndarray:
    return radius * np.exp(2j * np.pi * np.arange(count) / count)


def _worst_rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.mark.parametrize("radius", [0.5, 6.0, 7.0, 8.565, 20.0, 40.0])
def test_array_matches_scipy_on_circles(radius):
    special = pytest.importorskip("scipy.special")
    z = _circle(radius)
    for n in range(41):
        j = bessel_j(n, z)
        assert _worst_rel(j.value, special.jv(n, z)) <= 1e-12, n
        assert _worst_rel(j.derivative, special.jvp(n, z)) <= 1e-12, n
        y = bessel_y(n, z)
        assert _worst_rel(y.value, special.yv(n, z)) <= 1e-12, n
        assert _worst_rel(y.derivative, special.yvp(n, z)) <= 1e-12, n


@pytest.mark.parametrize("radius", [60.0, 100.0, 200.0])
def test_jy_to_order_200_matches_scipy_on_wide_circles(radius):
    # each error is relative to max(|J_n|, |Y_n|), the scale near a real zero
    # of either: there, a relative error measures the zero, not the value, and
    # scipy.special.yv is itself 1.2e-12 off a 40-digit Y_88(100)
    special = pytest.importorskip("scipy.special")
    z = _circle(radius)
    for n in range(0, MAX_ORDER + 1, 8):
        j, y = bessel.bessel_jy(n, z)
        for got, want, other in ((j.value, special.jv(n, z), special.yv(n, z)),
                                 (j.derivative, special.jvp(n, z), special.yvp(n, z)),
                                 (y.value, special.yv(n, z), special.jv(n, z)),
                                 (y.derivative, special.yvp(n, z), special.jvp(n, z))):
            scale = np.maximum(np.abs(want), np.abs(other))
            assert np.max(np.abs(got - want) / scale) <= 1e-12, n


@pytest.mark.parametrize("n, z", [
    (64, 80.0 * cmath.exp(1j * math.pi / 4)),
    (96, 120.0 * cmath.exp(1j * math.pi / 4)),
    (180, 200.0 * cmath.exp(1j * math.pi / 3)),
    (40, 40.0),
])
def test_y_near_its_turning_point_matches_mpmath(n, z):
    # order near |z|, where Y_n turns from oscillating to growing
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        value, derivative = complex(mpmath.bessely(n, z)), complex(mpmath.bessely(n, z, 1))
    got = bessel_y(n, z)
    assert abs(got.value - value) <= 1e-12 * abs(value)
    assert abs(got.derivative - derivative) <= 1e-12 * abs(derivative)


@pytest.mark.parametrize("n, value, derivative", [
    (0, 0.12593641705826092 + 0.01473378116847458j, -0.005793505821549633 + 0.25207663607517j),
    (3, 0.006829103413384208 + 0.2522896310116416j, -0.1257139095933346 + 0.016791772961157043j),
])
def test_on_the_negative_real_axis_either_signed_zero_gives_the_upper_side(n, value, derivative):
    # Y_n(-x + i0) = (-1)^n (Y_n(x) + 2i J_n(x)), as scipy.special.yv gives it
    # for both zeros; the anchors are frozen from the extended-precision Neumann path
    for z in (complex(-40.0, 0.0), complex(-40.0, -0.0)):
        got = bessel_y(n, z)
        assert abs(got.value - value) <= 1e-14 * abs(value)
        assert abs(got.derivative - derivative) <= 1e-14 * abs(derivative)


def test_miller_rescales_only_the_columns_that_need_it():
    # each point starts the sweep at the index its own |z| needs, so the
    # |z| = 7 columns keep their own scale beside |z| = 250, whose index would
    # grow them past 1e250 many times over; n = 200 at |z| = 6.01i is the
    # column that grows most from its own start, to about 1e200
    # (scripts/bessel_depth_scan.py), so no column needs rescaling
    special = pytest.importorskip("scipy.special")
    z = np.array([7.0, 7j, -7.0 + 0.1j, 6.01j, 30.0 * cmath.exp(0.3j), 100.0, 250.0 * cmath.exp(2j)])
    for n in (60, 150, 200):
        j = bessel_j(n, z)
        assert _worst_rel(j.value, special.jv(n, z)) <= 1e-12
        assert _worst_rel(j.derivative, special.jvp(n, z)) <= 1e-12


@pytest.mark.parametrize("n, z", [
    (3, 2.0 + 1.0j),      # series
    (0, -4.5 + 0.2j),
    (5, 40.0 + 1.0j),     # J Miller, Y from H^(1) against it
    (-7, 12.0 - 3.0j),    # below the real axis
    (2, 20.0j),           # on the imaginary axis
    (30, 25.0),           # order above |z|
])
def test_scalar_call_is_the_first_element_of_a_one_point_array(n, z):
    for fn in (bessel_j, bessel_y):
        one = fn(n, np.array([z]))
        assert isinstance(one.value, np.ndarray) and one.value.shape == (1,)
        scalar = fn(n, z)
        assert scalar == BesselValue(complex(one.value[0]), complex(one.derivative[0]))
        assert type(scalar.value) is complex and type(scalar.derivative) is complex


def test_one_grid_straddles_every_mask_edge():
    special = pytest.importorskip("scipy.special")
    # |z| = 6 is the mask edge; the other pairs, a hair apart where |z| - |Im z|
    # or |n| - |z| crosses a round number, must agree with their scalar calls too
    n, d = 12, 1e-9
    y_wedge = 6.0  # |z| = 15 with |Im z| = 6 +- d puts |z| - |Im z| at 9 -+ d
    z = np.array([
        (6.0 - d) * cmath.exp(1.0j), (6.0 + d) * cmath.exp(1.0j),        # |z| = 6
        complex(math.sqrt(225.0 - (y_wedge + d) ** 2), y_wedge + d),      # |z| - |Im z| = 9 - d
        complex(math.sqrt(225.0 - (y_wedge - d) ** 2), y_wedge - d),      # and 9 + d
        complex(12.0 - d, 0.0), complex(12.0 + d, 0.0),                    # |n| = |z|
    ])
    r = np.hypot(z.real, z.imag)
    assert np.sum(r <= 6.0) == 1
    assert np.sum(np.isclose(r, 15.0) & (r - np.abs(z.imag) <= 9.0)) == 1
    assert np.sum(np.isclose(r, 12.0) & (r <= n)) == 1
    for fn, ref, dref in ((bessel_j, special.jv, special.jvp), (bessel_y, special.yv, special.yvp)):
        grid = fn(n, z)
        assert _worst_rel(grid.value, ref(n, z)) <= 1e-12
        assert _worst_rel(grid.derivative, dref(n, z)) <= 1e-12
        for i, zi in enumerate(z.tolist()):
            one = fn(n, zi)
            assert abs(grid.value[i] - one.value) <= 1e-14 * abs(one.value)
            assert abs(grid.derivative[i] - one.derivative) <= 1e-14 * abs(one.derivative)


@pytest.mark.parametrize("radius", [0.5, 6.0, 7.0, 20.0, 40.0])
def test_jy_is_bessel_j_and_bessel_y_bit_for_bit_on_circles(radius):
    z = _circle(radius)
    for n in range(13):
        j, y = bessel.bessel_jy(n, z)
        for got, want in ((j, bessel_j(n, z)), (y, bessel_y(n, z))):
            assert np.array_equal(got.value, want.value), n
            assert np.array_equal(got.derivative, want.derivative), n


def test_jy_agrees_with_its_parts_across_the_mask_edges():
    # the points of test_one_grid_straddles_every_mask_edge: Y's series pass
    # holds exactly J's series points, so J is bessel_j's J bit for bit
    d, y_wedge = 1e-9, 6.0
    z = np.array([
        (6.0 - d) * cmath.exp(1.0j), (6.0 + d) * cmath.exp(1.0j),
        complex(math.sqrt(225.0 - (y_wedge + d) ** 2), y_wedge + d),
        complex(math.sqrt(225.0 - (y_wedge - d) ** 2), y_wedge - d),
        complex(12.0 - d, 0.0), complex(12.0 + d, 0.0),
    ])
    for n in (0, 1, 12, -7):
        j, y = bessel.bessel_jy(n, z)
        for got, want in ((j, bessel_j(n, z)), (y, bessel_y(n, z))):
            assert np.array_equal(got.value, want.value)
            assert np.array_equal(got.derivative, want.derivative)
    scalar_j, scalar_y = bessel.bessel_jy(3, 2.0 + 1.0j)
    assert type(scalar_j.value) is complex and type(scalar_y.derivative) is complex


def test_jy_raises_what_bessel_y_raises():
    with pytest.raises(SingularityError):
        bessel.bessel_jy(0, np.array([1.0, 0.0]))
    with pytest.raises(RangeLimitError, match="Y_200"):
        bessel.bessel_jy(200, 0.5)


def _relative_terms(orders, r: float) -> np.ndarray:
    # true terms (r/2)^{2k} / (k! (o+1)_k) for k < 200, over the largest, via logs
    log_t = np.array([[2 * kk * math.log(r / 2.0) - math.lgamma(kk + 1)
                       - math.lgamma(o + kk + 1) + math.lgamma(o + 1) for o in orders]
                      for kk in range(200)])
    return np.exp(log_t - log_t.max(axis=0))


@pytest.mark.parametrize("n", [0, 3, 12, 40, 200])
@pytest.mark.parametrize("r", [1e-3, 0.5, 3.7, 6.0, 1.0, 2.0, 4.5, 5.5, 5.999,
                               15.0, 40.0, 200.0, 600.0, 709.0])
def test_series_table_ends_where_its_tail_is_below_2_to_the_minus_60(n, r, monkeypatch):
    orders = bessel._orders(n)
    if r <= bessel.SERIES_RADIUS:
        # the terms past the module table's rows sum to below 2^-60 of the largest
        rel = _relative_terms(orders, r)
        assert np.all(rel[len(bessel._SERIES):].sum(axis=0) < 2.0 ** -60)
        return
    # beyond the series radius the table is never read: a table of NaNs changes nothing
    z = r * np.exp(1j * np.linspace(-1.0, 1.0, 8))
    z = np.concatenate((z, -z))  # |Im z| <= 0.85 r stays inside the range at 709
    want = bessel.bessel_jy(n, z)
    monkeypatch.setattr(bessel, "_SERIES", np.full_like(bessel._SERIES, np.nan))
    for got, ref in zip(bessel.bessel_jy(n, z), want):
        assert np.array_equal(got.value, ref.value)
        assert np.array_equal(got.derivative, ref.derivative)


def test_one_row_fewer_would_break_the_tail_rule_at_the_series_radius():
    rel = _relative_terms([0], bessel.SERIES_RADIUS)
    assert rel[len(bessel._SERIES) - 1:].sum() >= 2.0 ** -60
    assert bessel._SERIES.shape[2] == MAX_ORDER + 2  # every order _orders reads


@pytest.mark.parametrize("n", [0, 3, 12, -7])
def test_a_series_point_is_its_scalar_call_in_any_grid(n):
    # the series is summed per point, so neither a larger |z| nor a far point
    # sharing the grid moves a point's last bits
    rng = np.random.default_rng(20)
    z = 5.99 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    for companions in ([], [5.99], [5.99j, 40.0 + 1.0j]):
        grid = np.concatenate((z, companions))
        j, y = bessel.bessel_jy(n, grid)
        j_only = bessel_j(n, grid)
        for i, zi in enumerate(z.tolist()):
            one_j, one_y = bessel.bessel_jy(n, zi)
            assert (j.value[i], j.derivative[i]) == (one_j.value, one_j.derivative)
            assert (y.value[i], y.derivative[i]) == (one_y.value, one_y.derivative)
            assert (j_only.value[i], j_only.derivative[i]) == (one_j.value, one_j.derivative)


@pytest.mark.parametrize("n, z", [
    (3, np.random.default_rng(0).uniform(6.5, 40.0, 300)),
    (150, np.array([7.0, 7j, -7.0 + 0.1j])),
    (2, 9.0 * np.exp(1j * np.linspace(-math.pi, math.pi, 9))),
    (12, np.array([-13.075945651344238 + 0.0j])),
], ids=["n3-300-points", "n150-at-7", "cf2-at-9", "n12-signed-zero"])
def test_a_point_above_the_series_disc_is_its_scalar_call_in_any_grid(n, z):
    # the Miller start and the CF2 depth come from each point's own |z|; a
    # start index shared with the |z| = 900 point moves 299 of the 300 values
    # by up to 2e-15 of sqrt(2/(pi |z|)) and rescales the n = 150 columns,
    # and |z| = 9 takes 14 CF2 steps where 900 takes 6; at -13.08 + 0i, J_12's
    # zero imaginary part keeps its sign only if the seed zeroes the row above
    for fn in (bessel_j, bessel_y):
        alone = [fn(n, zi) for zi in z.tolist()]
        want = [np.array([getattr(one, part) for one in alone]).tobytes()
                for part in ("value", "derivative")]
        for before, after in (([], []), ([], [900.0]), ([900.0, 6.2j], [])):
            grid = fn(n, np.concatenate((before, z, after)))
            points = slice(len(before), len(before) + len(z))
            assert grid.value[points].tobytes() == want[0]
            assert grid.derivative[points].tobytes() == want[1]


def _cf2_backward(mpmath, w, depth: int):
    # i - 1/(2w) + (i/w) a_1/(b_1 + a_2/(b_2 + ... a_depth/b_depth)) in mpmath
    u = 2 * (w + 1j * depth)
    for k in range(depth - 1, 0, -1):
        u = 2 * (w + 1j * k) + (k + mpmath.mpf(0.5)) ** 2 / u
    return 1j - 1 / (2 * w) + (0.25j / w) / u


@pytest.mark.parametrize("r", [6.0, 9.0, 12.99, 13.01, 40.0, 150.0, 1000.0, MAX_ARGUMENT])
def test_cf2_at_each_point_s_depth_is_mpmath_s_hankel_log_derivative(r):
    # H_0'/H_0 = -H_1/H_0 for H = H^(1) on a semicircle, both ends included;
    # 78/r crosses 6 between 12.99 and 13.01, so their depths differ
    mpmath = pytest.importorskip("mpmath")
    w = r * np.exp(1j * np.linspace(0.0, math.pi, 5))
    w[0], w[-1] = complex(r, 0.0), complex(-r, 0.0)
    got = bessel._hankel_log_derivative(w)
    depth = int(bessel._cf2_depth(np.array([r]))[0])
    for wi, fi in zip(w.tolist(), got.tolist()):
        x = mpmath.mpc(wi.real, wi.imag)
        # two steps short of its depth the fraction's truncation is already
        # below half an ulp, the margin scripts/bessel_depth_scan.py shows
        with mpmath.workdps(40):
            short, deep = (_cf2_backward(mpmath, x, d) for d in (depth - 2, 4 * depth + 40))
            assert abs(short - deep) <= mpmath.mpf(2) ** -53 * abs(deep), wi
        if r <= 50.0:
            # J + iY cancels down to H^(1) ~ e^{-Im w}: carry digits for it
            with mpmath.workdps(30 + int(wi.imag)):
                want = complex(-mpmath.hankel1(1, x) / mpmath.hankel1(0, x))
        else:  # H^(1)_m(w) = (2/(pi i)) (-i)^m K_m(-iw)
            with mpmath.workdps(30):
                want = complex(1j * mpmath.besselk(1, -1j * x) / mpmath.besselk(0, -1j * x))
        assert abs(fi - want) <= 4 * 2.0 ** -52 * abs(want), wi


def _mpmath_rows(z: complex, top: int) -> np.ndarray:
    # 40-digit J_k and Y_k for k <= top: J_0, J_1 and Y_0 from mpmath, Y_1 from
    # the Wronskian J_1 Y_0 - J_0 Y_1 = 2/(pi z), the rest by upward
    # recurrence, stable for both while k < |z|
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpc(z.real, z.imag)
        j = [mpmath.besselj(0, x), mpmath.besselj(1, x)]
        y = [mpmath.bessely(0, x)]
        y.append((j[1] * y[0] - 2 / (mpmath.pi * x)) / j[0])
        for k in range(1, top):
            j.append(2 * k / x * j[k] - j[k - 1])
            y.append(2 * k / x * y[k] - y[k - 1])
        return np.array([[complex(v) for v in j], [complex(v) for v in y]])


@pytest.mark.parametrize("r, bound", [
    (40.0, 5e-15), (150.0, 2e-14), (1000.0, 2e-13), (5000.0, 1e-12), (9999.0, 2e-12),
])
def test_jy_error_per_decade_of_z_against_mpmath(r, bound):
    # the bound is the measured worst error over n in {0, 1, 2, 12}, relative
    # to max(|J_n|, |Y_n|) (its derivatives' for J' and Y'), rounded up; it
    # grows like |z| eps, the rounding of the argument's own phase
    top = min(math.pi / 2, math.asin(min(1.0, 600.0 / r)))
    z = r * np.exp(1j * np.array([0.0, top / 2, top, math.pi]))
    ref = np.array([_mpmath_rows(zi, 14) for zi in z.tolist()])  # [point][J or Y][order]
    for n in (0, 1, 2, 12):
        j, y = bessel.bessel_jy(n, z)
        jn, yn = ref[:, 0, n], ref[:, 1, n]
        jd, yd = (n / z) * jn - ref[:, 0, n + 1], (n / z) * yn - ref[:, 1, n + 1]
        for got, want, other in ((j.value, jn, yn), (y.value, yn, jn),
                                 (j.derivative, jd, yd), (y.derivative, yd, jd)):
            assert np.max(np.abs(got - want) / np.maximum(np.abs(want), np.abs(other))) <= bound, n


@pytest.mark.parametrize("z", [690j, 5.0 + 600j, -3.0 + 520j])
def test_far_up_the_imaginary_axis_the_series_stays_in_range(z):
    # Y = i(J - H^(1)) here, J from Miller's sweep normalized by e^{-iz} ~ e^{|Im z|}
    # and H^(1) ~ e^{-|Im z|} from the Wronskian: both stay within double precision
    special = pytest.importorskip("scipy.special")
    for fn, ref, dref in ((bessel_j, special.jv, special.jvp), (bessel_y, special.yv, special.yvp)):
        got = fn(3, z)
        assert cmath.isfinite(got.value) and cmath.isfinite(got.derivative)
        assert abs(got.value - ref(3, z)) <= 1e-12 * abs(ref(3, z))
        assert abs(got.derivative - dref(3, z)) <= 1e-12 * abs(dref(3, z))


@pytest.mark.parametrize("fn, n, bad, error", [
    (bessel_j, 3, complex(math.nan, 0.0), InvalidParameterError),
    (bessel_y, 3, complex(1.0, math.inf), InvalidParameterError),
    (bessel_j, 3, 2.0 + 800.0j, RangeLimitError),
    (bessel_y, 3, -3.0 - 750.0j, RangeLimitError),
    (bessel_j, 3, 2.0 * MAX_ARGUMENT, RangeLimitError),
    (bessel_y, 3, 0.0, SingularityError),
    (bessel_y, 200, 0.5, RangeLimitError),  # Y_200(0.5) overflows
    (bessel_j, 3, "abc", InvalidParameterError),
    (bessel_y, 3, None, InvalidParameterError),
    (bessel_j, 3, "1+2j", InvalidParameterError),  # text even where complex() would parse it
])
def test_one_bad_element_raises_what_its_scalar_call_raises(fn, n, bad, error):
    with pytest.raises(error) as scalar:
        fn(n, bad)
    with pytest.raises(error) as grid:
        fn(n, np.array([150.0, 120.0j, bad, 90.0 + 5.0j]))
    assert str(grid.value) == str(scalar.value)


def test_array_agrees_with_reference_series():
    rng = np.random.default_rng(7)
    z = rng.uniform(0.3, 7.0, 40) * np.exp(1j * rng.uniform(-math.pi, math.pi, 40))
    for n in (0, 1, 4, 9):
        j = bessel_j(n, z)
        y = bessel_y(n, z)
        for i, zi in enumerate(z.tolist()):
            assert abs(j.value[i] - ref_j(n, zi)) <= 1e-10 * abs(ref_j(n, zi))
            assert abs(j.derivative[i] - ref_j_derivative(n, zi)) <= 1e-10 * abs(ref_j_derivative(n, zi))
            assert abs(y.value[i] - ref_y(n, zi)) <= 1e-9 * max(abs(ref_y(n, zi)), 1.0)
            assert abs(y.derivative[i] - ref_y_derivative(n, zi)) <= 1e-9 * max(abs(ref_y_derivative(n, zi)), 1.0)
