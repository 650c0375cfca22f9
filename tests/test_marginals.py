"""Every returned plan meets both marginals, up to summation round-off.

A plan P with marginals a (m atoms) and b (k atoms) may miss a row or column
sum by at most ``roundoff(a, b)`` = 4 max(m, k) eps max(a, b): leaf
elimination subtracts each flow once at each end of its cell, and numpy sums
a line of at most max(m, k) cells. Each path that returns a plan is covered:

- the transportation simplex, on generic, integer and unnormalised marginals;
- its one-row and one-column branch;
- the assignment path (all weights one float), by enumeration up to
  ``lp.ENUMERATE_MAX`` atoms and by scipy above;
- both enumerators of ``brute_force_oracle``: the permutations and the trees;
- the equal-positions blocks, whose weights may all be one float too;
- the plans of ``solve_d``, ``solve_tilde_d`` and ``solve_fixed_T``.

The one documented exception is the counter-flow below ``lp.support_floor``:
the simplex reads a flow at or below MASS_ROUNDING_TOL * min(a[i], b[j]) as
round-off, so a vertex with a real flow that small loses it, and its plan
misses a marginal by up to the summed floors of that row's or column's cells.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otikin.lp import ENUMERATE_MAX, WarmStart, support_floor, transportation_simplex
from otikin.measures import DiscreteMeasure, PairMoments
from otikin.scenarios import random_uniform_instance
from otikin.solver import (
    COST_TOL,
    _equal_positions_candidate,
    _vertex_plans_trees,
    _vertex_plans_uniform,
    brute_force_oracle,
    solve_d,
    solve_fixed_T,
    solve_tilde_d,
)

EPS = np.finfo(float).eps

examples = settings(derandomize=True, deadline=None, database=None, max_examples=30)


def roundoff(a, b) -> float:
    return 4.0 * max(a.size, b.size) * EPS * max(a.max(), b.max())


def marginal_gaps(P, a, b):
    """How far each row sum of ``P`` is from ``a`` and each column sum from ``b``."""
    return np.abs(P.sum(axis=1) - a), np.abs(P.sum(axis=0) - b)


def assert_on_marginals(P, a, b):
    rows, cols = marginal_gaps(P, a, b)
    assert P.min() >= 0.0
    assert max(rows.max(), cols.max()) <= roundoff(a, b)


def weights(rng, size, kind):
    """Positive weights summing to 1: generic, or small integers over their total."""
    if kind == "generic":
        w = rng.uniform(0.2, 1.0, size)
    else:
        w = rng.integers(1, 4, size).astype(float)
    return w / w.sum()


@examples
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 24),
    st.integers(1, 24),
    st.sampled_from(["generic", "integer", "unnormalised"]),
)
def test_simplex_plans(seed, m, k, kind):
    # m == 1 or k == 1 is the one-row or one-column branch
    rng = np.random.default_rng(seed)
    a = weights(rng, m, "generic" if kind == "unnormalised" else kind)
    b = weights(rng, k, "generic" if kind == "unnormalised" else kind)
    if kind == "unnormalised":
        a, b = 3.0 * a, 3.0 * b
    warm = WarmStart(a, b)
    for cost in rng.normal(size=(6, m, k)):
        if kind == "integer":
            cost = np.round(cost, 1)
        assert_on_marginals(transportation_simplex(cost, a, b, warm), a, b)


@pytest.mark.parametrize("weight", ["1/m", 0.1, 1.0 / 3.0])
@pytest.mark.parametrize("m", [1, 2, ENUMERATE_MAX, ENUMERATE_MAX + 1, 12])
def test_assignment_plans(m, weight):
    # every weight one float, which need not be 1/m (as in an equal-positions
    # block); m <= ENUMERATE_MAX enumerates, larger m goes to scipy. A
    # permutation plan meets both marginals exactly.
    rng = np.random.default_rng(m)
    a = np.full(m, 1.0 / m if weight == "1/m" else weight)
    warm = WarmStart(a, a.copy())
    assert warm.uniform
    for cost in rng.normal(size=(4, m, m)):
        P = transportation_simplex(cost, a, a, warm)
        assert_on_marginals(P, a, a)
        assert np.array_equal(P.sum(axis=1), a) and np.array_equal(P.sum(axis=0), a)


@pytest.mark.parametrize("m", range(1, 7))
def test_oracle_permutation_plans(m):
    rng = np.random.default_rng(m)
    mu, nu = random_uniform_instance(rng, m, 2)
    for P in _vertex_plans_uniform(mu.weights):
        assert_on_marginals(P, mu.weights, nu.weights)
    for P, _, _ in brute_force_oracle(mu, nu).optima:
        assert_on_marginals(P, mu.weights, nu.weights)


@pytest.mark.parametrize("kind", ["generic", "integer"])
@pytest.mark.parametrize("m, k", [(1, 3), (2, 2), (2, 5), (3, 3), (3, 4), (4, 3)])
def test_oracle_tree_plans(kind, m, k):
    rng = np.random.default_rng(10 * m + k)
    a, b = weights(rng, m, kind), weights(rng, k, kind)
    for P in _vertex_plans_trees(a, b):
        assert_on_marginals(P, a, b)
    mu = DiscreteMeasure(rng.normal(size=(m, 1)), rng.normal(size=(m, 1)), a)
    nu = DiscreteMeasure(rng.normal(size=(k, 1)), rng.normal(size=(k, 1)), b)
    for P, _, _ in brute_force_oracle(mu, nu).optima:
        assert_on_marginals(P, a, b)


@examples
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_equal_positions_block_plans(seed, uniform):
    # atoms on three shared sites; with uniform weights each block is an
    # assignment problem whose one weight is 1/m, not 1/(block size)
    rng = np.random.default_rng(seed)
    sites = rng.normal(size=(3, 2))
    counts = rng.integers(1, 5, size=3)
    m = int(counts.sum())
    X = np.repeat(sites, counts, axis=0)
    if uniform:
        a = b = np.full(m, 1.0 / m)
    else:
        a = np.concatenate([weights(rng, c, "generic") * c / m for c in counts])
        b = np.concatenate([weights(rng, c, "generic") * c / m for c in counts])
    mu = DiscreteMeasure(X, rng.normal(size=(m, 2)), a)
    nu = DiscreteMeasure(X, rng.normal(size=(m, 2)), b)
    plan = _equal_positions_candidate(mu, nu, PairMoments(mu, nu))
    assert plan is not None
    assert_on_marginals(plan.P, a, b)
    assert_on_marginals(solve_d(mu, nu).plan.P, a, b)


@examples
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8), st.booleans())
def test_solver_plans(seed, m, k, uniform):
    rng = np.random.default_rng(seed)
    if uniform:
        mu, nu = random_uniform_instance(rng, m, 2)
    else:
        a, b = weights(rng, m, "generic"), weights(rng, k, "generic")
        mu = DiscreteMeasure(rng.normal(size=(m, 2)), rng.normal(size=(m, 2)), a)
        nu = DiscreteMeasure(rng.normal(size=(k, 2)), rng.normal(size=(k, 2)), b)
    for res in (solve_d(mu, nu), solve_tilde_d(mu, nu), solve_fixed_T(mu, nu, 0.7)):
        assert_on_marginals(res.plan.P, mu.weights, nu.weights)


def test_near_uniform_pair_meets_its_marginals():
    # the target's weights are 1e-12 off 1/2, not one float, so the pair is no
    # assignment problem: a permutation plan would miss them by 1e-12 and cost
    # 4.0, where the plans on the marginals cost 4.000000000008
    mu = DiscreteMeasure([[0.0], [5.0]], [[1.0], [-1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0], [5.0]], [[0.0], [2.0]], [0.5 - 1e-12, 0.5 + 1e-12])
    res, ref = solve_d(mu, nu), brute_force_oracle(mu, nu)
    for P in (res.plan.P, ref.plan.P):
        assert_on_marginals(P, mu.weights, nu.weights)
    assert abs(res.cost_sq - ref.cost_sq) <= COST_TOL * (1.0 + abs(ref.cost_sq))
    assert res.cost_sq == pytest.approx(4.000000000008, rel=1e-14)


@pytest.mark.parametrize("e", [1e-13, 1e-14])
def test_counter_flow_below_the_floor_is_the_one_exception(e):
    # every plan moves the atom of mass e at x = 5; the vertex that moves it to
    # the target's first atom sends a counter-flow of e along cell (0, 1),
    # below that cell's floor, so the simplex's plan misses columns 0 and 1 by
    # about e, within their floor, while the oracle's plan keeps it
    mu = DiscreteMeasure([[0.0], [0.0], [5.0]], [[1.0], [-1.0], [0.0]], [0.5, 0.5 - e, e])
    nu = DiscreteMeasure([[0.0], [0.0]], [[0.0], [2.0]], [0.5, 0.5])
    a, b = mu.weights, nu.weights
    res, ref = solve_d(mu, nu), brute_force_oracle(mu, nu)
    assert_on_marginals(ref.plan.P, a, b)
    rows, cols = marginal_gaps(res.plan.P, a, b)
    assert rows.max() <= roundoff(a, b) < cols.max()
    assert np.all(cols <= roundoff(a, b) + support_floor(a, b).sum(axis=0))
    assert abs(res.cost_sq - ref.cost_sq) <= COST_TOL * (1.0 + abs(ref.cost_sq))
