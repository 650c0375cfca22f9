import itertools

import numpy as np
import pytest

from otikin.lp import is_uniform_equal, transportation_simplex


def brute_force_min(cost, a, b):
    """Exhaustive minimum over vertices for tiny instances (assignment case)."""
    m = a.size
    best = np.inf
    for perm in itertools.permutations(range(m)):
        val = sum(cost[i, perm[i]] * a[i] for i in range(m))
        best = min(best, val)
    return best


def test_matches_assignment_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        cost = rng.normal(size=(m, m))
        a = np.full(m, 1.0 / m)
        P = transportation_simplex(cost, a, a)
        assert float(np.sum(P * cost)) == pytest.approx(
            brute_force_min(cost, a, a), rel=1e-12, abs=1e-12
        )


def test_general_marginals_against_reference_lp():
    from scipy.optimize import linprog

    rng = np.random.default_rng(1)
    for _ in range(40):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(2, 6))
        cost = rng.normal(size=(m, k))
        a = rng.uniform(0.2, 1.0, size=m)
        a /= a.sum()
        b = rng.uniform(0.2, 1.0, size=k)
        b /= b.sum()
        P = transportation_simplex(cost, a, b)
        assert np.max(np.abs(P.sum(axis=1) - a)) < 1e-10
        assert np.max(np.abs(P.sum(axis=0) - b)) < 1e-10
        assert P.min() >= -1e-12

        A_eq = np.zeros((m + k, m * k))
        for i in range(m):
            A_eq[i, i * k : (i + 1) * k] = 1.0
        for j in range(k):
            A_eq[m + j, j::k] = 1.0
        ref = linprog(
            cost.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]), method="highs"
        )
        assert ref.status == 0
        assert float(np.sum(P * cost)) == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)


def test_returns_vertex_support():
    # basic solutions put mass on at most m + k - 1 cells
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(2, 7))
        cost = rng.normal(size=(m, k))
        a = rng.uniform(0.2, 1.0, size=m)
        a /= a.sum()
        b = rng.uniform(0.2, 1.0, size=k)
        b /= b.sum()
        P = transportation_simplex(cost, a, b)
        assert int(np.sum(P > 1e-12)) <= m + k - 1


def test_degenerate_marginals_terminate():
    # equal masses invite degenerate pivots; Bland's rule must still terminate
    cost = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0]])
    a = np.array([1 / 3, 1 / 3, 1 / 3])
    P = transportation_simplex(cost, a, a)
    assert float(np.sum(P * cost)) == pytest.approx(1.0)


def test_uniform_detection():
    assert is_uniform_equal(np.full(4, 0.25), np.full(4, 0.25))
    assert not is_uniform_equal(np.full(4, 0.25), np.full(5, 0.2))
    assert not is_uniform_equal(np.array([0.3, 0.7]), np.array([0.5, 0.5]))


def test_single_row_and_column():
    P = transportation_simplex(np.array([[1.0, 2.0]]), np.array([1.0]), np.array([0.4, 0.6]))
    assert np.allclose(P, [[0.4, 0.6]])
    P = transportation_simplex(np.array([[1.0], [2.0]]), np.array([0.7, 0.3]), np.array([1.0]))
    assert np.allclose(P, [[0.7], [0.3]])


def test_unbalanced_rejected():
    with pytest.raises(ValueError):
        transportation_simplex(np.ones((2, 2)), np.array([0.6, 0.6]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_cost_rejected(bad):
    cost = np.ones((2, 3))
    cost[1, 1] = bad
    with pytest.raises(ValueError):
        transportation_simplex(cost, np.array([0.3, 0.7]), np.full(3, 1.0 / 3.0))
    with pytest.raises(ValueError):
        transportation_simplex(cost[:, :2], np.full(2, 0.5), np.full(2, 0.5))
