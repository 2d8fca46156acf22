"""Simplex solver checked against scipy.optimize.linprog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from winavc import lp


def test_simple_minimum():
    res = lp.solve_lp([1.0, 2.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
    assert res.is_optimal
    assert res.value == pytest.approx(1.0)
    assert res.x[0] == pytest.approx(1.0)


def test_infeasible_detected():
    # x1 + x2 <= -1 with x >= 0
    res = lp.solve_lp([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[-1.0])
    assert res.status == lp.INFEASIBLE


def test_unbounded_detected():
    res = lp.solve_lp([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
    assert res.status == lp.UNBOUNDED


def test_phase_one_reported_unbounded_raises(monkeypatch):
    # phase 1 minimises a sum of non-negative artificials, so an "unbounded"
    # report there comes from roundoff and must not pass for an answer
    monkeypatch.setattr(lp, "_run_simplex", lambda *args, **kwargs: lp.UNBOUNDED)
    with pytest.raises(lp.SimplexError, match="phase-1 objective reported unbounded"):
        lp.solve_lp([1.0, 2.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])


def test_equality_constraints():
    # minimize x1 on the simplex with x1 >= 0.3 via -x1 <= -0.3
    res = lp.solve_lp(
        [1.0, 0.0], a_ub=[[-1.0, 0.0]], b_ub=[-0.3],
        a_eq=[[1.0, 1.0]], b_eq=[1.0],
    )
    assert res.is_optimal
    assert res.value == pytest.approx(0.3)
    assert res.x.sum() == pytest.approx(1.0)


def test_degenerate_problem_terminates():
    # Classic degeneracy-prone problem; Bland's rule must terminate.
    res = lp.solve_lp(
        [-0.75, 150.0, -0.02, 6.0],
        a_ub=[
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        b_ub=[0.0, 0.0, 1.0],
    )
    assert res.is_optimal
    assert res.value == pytest.approx(-0.05)


def test_random_lps_match_scipy():
    rng = np.random.default_rng(1234)
    agreements = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.uniform(0.1, 2.0, size=m)
        ours = lp.solve_lp(c, a_ub=a_ub, b_ub=b_ub,
                           a_eq=np.ones((1, n)), b_eq=[1.0])
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub,
                      A_eq=np.ones((1, n)), b_eq=[1.0], bounds=(0, None))
        if ref.status == 2:
            assert ours.status == lp.INFEASIBLE
        else:
            assert ref.status == 0
            assert ours.is_optimal
            assert ours.value == pytest.approx(ref.fun, abs=1e-7)
            agreements += 1
    assert agreements > 100  # most random instances are feasible


@st.composite
def simplex_lps(draw):
    """min c.x subject to a_ub x <= b_ub over the probability simplex."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 4))
    coef = st.floats(-3.0, 3.0, allow_subnormal=False)
    c = draw(arrays(float, n, elements=coef))
    a_ub = draw(arrays(float, (m, n), elements=coef))
    b_ub = draw(arrays(float, m, elements=st.floats(0.1, 2.0)))
    return c, a_ub, b_ub


@settings(max_examples=200, deadline=None)
@given(simplex_lps())
def test_lps_match_scipy_property(problem):
    c, a_ub, b_ub = problem
    n = c.size
    ours = lp.solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=np.ones((1, n)), b_eq=[1.0])
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  A_eq=np.ones((1, n)), b_eq=[1.0], bounds=(0, None))
    if ref.status == 2:
        assert ours.status == lp.INFEASIBLE
    else:
        assert ref.status == 0
        assert ours.is_optimal
        assert ours.value == pytest.approx(ref.fun, abs=1e-7)
