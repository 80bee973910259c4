"""The register of open defects: each row asserts the correct behaviour and is a
strict expected failure, raising what the defect raises today.

A row whose defect is mended passes, and strict XPASS fails the suite: the mend
then moves the row, as an ordinary test, to the module it belongs to.  Each
row's id names the PR whose FOUND first reported it and its ROADMAP item.
`pytest -rx tests/test_open_defects.py` lists what is still open.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from mathieu_kit import floquet
from mathieu_kit.bessel import bessel_j
from mathieu_kit.errors import MathieuKitError
from mathieu_kit.oracle import PASS_TOL, residual

open_defect = pytest.mark.xfail(strict=True, raises=AssertionError)


# the series runs out of digits where |y| is small: on 41 points of [0, pi] it
# misses its equation by 0.50, 2.0e-6 and 4.3e-6, and solve returns it
@open_defect
@pytest.mark.parametrize("h, theta", [(1.0, 2000.0), (1.0, 1000.0), (-50.0, 1000.0)],
                         ids=["pr4-item1-h1-theta2000", "pr4-item1-h1-theta1000",
                              "pr4-item1-h-50-theta1000"])
def test_solve_refuses_or_returns_a_series_that_meets_its_equation(h, theta):
    gp = floquet.GeneralParams(h, theta)
    try:
        sol = floquet.solve(gp)
    except MathieuKitError:
        return
    grid = np.linspace(0.0, math.pi, 41)
    rep = residual(floquet.general_mathieu_ode(gp), floquet.eval_floquet_grid(sol, grid))
    assert rep.linf < PASS_TOL


# _miller starts every point at the index the grid's largest |z| needs, so a
# |z| = 900 point moves 299 of these 300 values by up to 2.0e-15 of sqrt(2/(pi |z|))
@open_defect
@pytest.mark.parametrize("order", [3], ids=["pr30-reanchor-item15-j3"])
def test_bessel_j_above_the_series_disc_does_not_depend_on_its_grid(order):
    z = np.random.default_rng(0).uniform(6.5, 40.0, 300)
    alone = bessel_j(order, z).value
    with_far_point = bessel_j(order, np.append(z, 900.0)).value[:-1]
    assert alone.tobytes() == with_far_point.tobytes()
