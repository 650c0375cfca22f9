import gc
import hashlib
import itertools
import weakref

import numpy as np
import pytest

import otikin.lp
import otikin.solver
from otikin.lp import WarmStart, is_uniform_equal, support_floor, transportation_simplex
from otikin.measures import Coupling, DiscreteMeasure, PairMoments
from otikin.solver import _vertex_plans_trees, solve_d


def reference_lp_value(cost, a, b):
    """Optimal value of the same transportation problem by HiGHS."""
    from scipy.optimize import linprog

    m, k = cost.shape
    A_eq = np.zeros((m + k, m * k))
    for i in range(m):
        A_eq[i, i * k : (i + 1) * k] = 1.0
    for j in range(k):
        A_eq[m + j, j::k] = 1.0
    ref = linprog(cost.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]), method="highs")
    assert ref.status == 0
    return ref.fun


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


def permutation_of(P):
    """The column of each row's one cell of a uniform permutation plan."""
    m = P.shape[0]
    rows, cols = np.nonzero(P)
    assert rows.tolist() == list(range(m)) and sorted(cols.tolist()) == list(range(m))
    assert np.all(P[rows, cols] == 1.0 / m)
    return cols


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_uniform_assignment_matches_scipy(m):
    # generic costs have one optimum, which enumeration must find as scipy
    # does; m = 6 is above lp.ENUMERATE_MAX, so scipy solves it there
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(100 + m)
    a = np.full(m, 1.0 / m)
    for _ in range(40):
        cost = rng.normal(size=(m, m))
        cols = permutation_of(transportation_simplex(cost, a, a))
        assert cols.tolist() == linear_sum_assignment(cost)[1].tolist()


@pytest.mark.parametrize("m", range(1, otikin.lp.ENUMERATE_MAX + 1))
def test_uniform_ties_take_the_first_optimal_permutation(m):
    # integer costs in {0, 1, 2} tie often: the plan is the first optimal
    # permutation in itertools order, at exactly scipy's optimal cost
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(200 + m)
    a = np.full(m, 1.0 / m)
    for _ in range(40):
        cost = rng.integers(0, 3, size=(m, m)).astype(float)
        cols = permutation_of(transportation_simplex(cost, a, a))
        best = cost[linear_sum_assignment(cost)].sum()
        assert cost[range(m), cols].sum() == best
        perms = itertools.permutations(range(m))
        assert tuple(cols.tolist()) == next(p for p in perms if cost[range(m), p].sum() == best)


def test_scipy_solves_costs_reduced_by_row_and_column_minima(monkeypatch):
    # the cost less each row's minimum, then each column's: every permutation's
    # total moves by one constant, so the optimum is the same
    import scipy.optimize

    seen, solve = [], scipy.optimize.linear_sum_assignment

    def recording(cost):
        seen.append(cost.copy())
        return solve(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", recording)
    rng = np.random.default_rng(7)
    for m in (6, 9, 40):
        cost = rng.normal(size=(m, m)) + rng.normal(size=(m, 1)) + rng.normal(size=(1, m))
        transportation_simplex(cost, np.full(m, 1.0 / m), np.full(m, 1.0 / m))
    assert [c.shape for c in seen] == [(6, 6), (9, 9), (40, 40)]
    for c in seen:
        assert np.all(c.min(axis=1) == 0.0) and np.all(c.min(axis=0) == 0.0)


@pytest.mark.parametrize("m", [6, 12, 32, 96])
def test_reduced_kinetic_costs_keep_scipys_permutation(m):
    # on the solver's own costs, 12 s^2 A - 12 s B + 3 C + D of standard-normal
    # pairs, generic instances have one optimum, the one scipy finds unreduced
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(300 + m)
    a = np.full(m, 1.0 / m)
    for _ in range(4):
        mu, nu = (DiscreteMeasure(rng.normal(size=(m, 2)), rng.normal(size=(m, 2)), a)
                  for _ in range(2))
        pm = PairMoments(mu, nu)
        for s in (0.0, 0.5, 2.0):
            cost = 12 * s * s * pm.A - 12 * s * pm.B + 3 * pm.C + pm.D
            cols = permutation_of(transportation_simplex(cost, a, a))
            assert cols.tolist() == linear_sum_assignment(cost)[1].tolist()


@pytest.mark.parametrize("m", [6, 10, 25])
def test_reduced_integer_costs_reach_scipys_raw_optimum(m):
    # integer costs reduce exactly, so the optimum is equal to the last bit even
    # where ties let the permutation differ
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(400 + m)
    a = np.full(m, 1.0 / m)
    for _ in range(20):
        cost = rng.integers(-50, 50, size=(m, m)).astype(float)
        cols = permutation_of(transportation_simplex(cost, a, a))
        assert cost[range(m), cols].sum() == cost[linear_sum_assignment(cost)].sum()


def test_general_marginals_against_reference_lp():
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
        ref = reference_lp_value(cost, a, b)
        assert float(np.sum(P * cost)) == pytest.approx(ref, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("m, k", [(10, 15), (15, 10), (20, 20), (25, 30), (30, 25), (40, 30)])
def test_larger_general_marginals_against_reference_lp(m, k):
    rng = np.random.default_rng(100 * m + k)
    cost = rng.normal(size=(m, k))
    a = rng.uniform(0.2, 1.0, size=m)
    b = rng.uniform(0.2, 1.0, size=k)
    a, b = a / a.sum(), b / b.sum()
    P = transportation_simplex(cost, a, b)
    assert float(np.sum(P * cost)) == pytest.approx(reference_lp_value(cost, a, b), rel=1e-9)
    assert np.max(np.abs(P.sum(axis=1) - a)) <= 1e-12
    assert np.max(np.abs(P.sum(axis=0) - b)) <= 1e-12
    assert P.min() >= 0.0
    assert int(np.count_nonzero(P)) <= m + k - 1


def pinned_problem(seed):
    """Seeded LP up to 20 x 20: rounded costs (ties) on every third seed,
    small-integer marginals (degenerate pivots) on every even one."""
    rng = np.random.default_rng(seed)
    m, k = (int(x) for x in rng.integers(2, 21, size=2))
    cost = rng.normal(size=(m, k))
    if seed % 3 == 0:
        cost = np.round(cost, 1)
    if seed % 2 == 0:
        a = rng.integers(1, 4, size=m).astype(float)
        b = rng.integers(1, 4, size=k).astype(float)
        gap = a.sum() - b.sum()
        if gap > 0:
            b[0] += gap
        else:
            a[0] -= gap
        total = a.sum()
        a, b = a / total, b / total
    else:
        a = rng.uniform(0.2, 1.0, size=m)
        b = rng.uniform(0.2, 1.0, size=k)
        a, b = a / a.sum(), b / b.sum()
    return cost, a, b


# First 16 hex digits of the SHA-256 of each plan's bytes, recorded from the
# simplex that returns leaf-elimination flows on its final support, the basic
# cells whose pivot flow exceeds MASS_ROUNDING_TOL * min(a[i], b[j]). The
# pivot rule decides which optimal vertex is returned among ties (the rounded
# costs of every third seed), and the order of the leaf elimination decides
# its bits; a change to either shows here.
PINNED_PLANS = [
    "ee02afc6c9067a42",  # (18, 14)
    "e7e6771102761d97",  # (10, 11)
    "0f948809d089c12d",  # (17, 6)
    "ef3b9e24a944a7c9",  # (17, 3)
    "7f49fe5aa9d3543f",  # (15, 19)
    "c3c1212a24f2f809",  # (14, 17)
    "fb6139a3fe2db1c3",  # (10, 12)
    "f3975579ea6baa98",  # (19, 13)
    "e2679ed59939123f",  # (15, 8)
    "391f1ea1a7d46cf7",  # (10, 18)
    "de64691a1024826a",  # (16, 20)
    "828876a8c3138b00",  # (4, 4)
    "a6e28ee65b0869e6",  # (13, 6)
    "1f16119c8cb328ca",  # (19, 18)
    "1f82eba9b90d7905",  # (4, 17)
    "a0338a427a83d8c5",  # (19, 15)
    "a6e333bc99f6f804",  # (12, 12)
    "eb90c72bc51bad57",  # (16, 18)
    "65fa9a691dfc389b",  # (18, 9)
    "4133fdf6b154cdc6",  # (13, 9)
    "3dc1506a9f543380",  # (18, 7)
    "a0143c550b1ed87d",  # (7, 16)
    "4d63a736f3471f83",  # (16, 8)
    "b65e4942fa95a0e3",  # (2, 15)
    "b0298c62f7f534d7",  # (9, 8)
    "466537e02608c0a5",  # (11, 5)
    "8faa7689e91b2998",  # (18, 11)
    "252a80032e412d95",  # (2, 15)
    "e25b5b6637babddd",  # (14, 18)
    "90ad06afbd891b3b",  # (19, 2)
]


@pytest.mark.parametrize("seed", range(len(PINNED_PLANS)))
def test_pinned_plan_bytes(seed):
    P = transportation_simplex(*pinned_problem(seed))
    assert hashlib.sha256(P.tobytes()).hexdigest()[:16] == PINNED_PLANS[seed]


def warm_chain_problem(seed):
    """``pinned_problem(seed)`` with two more cost directions: the costs of 25
    LPs on one pair of marginals, cost + t B + t^2 W for t in [-2, 2],
    rounded to 0.1 on every third seed."""
    cost, a, b = pinned_problem(seed)
    B, W = np.random.default_rng(1000 + seed).normal(size=(2,) + cost.shape)
    costs = [cost + t * B + t * t * W for t in np.linspace(-2.0, 2.0, 25)]
    if seed % 3 == 0:
        costs = [np.round(c, 1) for c in costs]
    return costs, a, b


# SHA-256 of every plan's bytes and the sorted final basis cells of 25 LPs
# chained through one warm start, for each seed 0-59 of ``pinned_problem``;
# recorded from the simplex that warm-starts each call from the basis that
# the last call left, with the plan it returned as flows.
WARM_CHAIN_PIN = "4a806d5c45394fb6891e05967ab735d5adc41533c90e26af718ebb5f08e1b6f5"


def test_warm_chain_bytes_pinned():
    h = hashlib.sha256()
    for seed in range(60):
        costs, a, b = warm_chain_problem(seed)
        warm = WarmStart(a, b)
        for cost in costs:
            h.update(transportation_simplex(cost, a, b, warm).tobytes())
        h.update(repr(sorted(warm.cells)).encode())
    assert h.hexdigest() == WARM_CHAIN_PIN


def test_warm_chain_pivot_counts_pinned():
    # pivots and pivots that move no flow over the warm chains of seeds 0-59;
    # the odd seeds' uniform(0.2, 1) marginals make no degenerate pivot
    totals = np.zeros((2, 2), dtype=int)
    for seed in range(60):
        costs, a, b = warm_chain_problem(seed)
        warm = WarmStart(a, b)
        for cost in costs:
            transportation_simplex(cost, a, b, warm)
        totals[seed % 2] += (warm.pivots, warm.degenerate_pivots)
    assert totals.tolist() == [[2179, 1077], [2938, 0]]


def chain_bytes(seed, interrupt=None):
    """Bytes of every plan of seed ``seed``'s warm chain and its final basis;
    ``interrupt(cost, a, b, warm)`` runs before the chain's 13th call."""
    costs, a, b = warm_chain_problem(seed)
    warm, out = WarmStart(a, b), []
    for t, cost in enumerate(costs):
        if t == 12 and interrupt is not None:
            interrupt(cost, a, b, warm)
        out.append(transportation_simplex(cost, a, b, warm).tobytes())
    return out + [repr(sorted(warm.cells)).encode()]


class FailMidPivot:
    """Stands in for ``DEGENERATE_RUN_PER_NODE``: the run test of the second
    pricing raises, after the first pivot changed the carried tree."""

    def __init__(self):
        self.tests = 0

    def __mul__(self, nodes):
        return self

    def __gt__(self, run):
        self.tests += 1
        if self.tests == 2:
            raise RuntimeError("injected failure")
        return True


def test_failed_call_leaves_a_usable_warm_start(monkeypatch):
    # a call that raises, before its pivots or between two of them, leaves
    # the basis and plan of the last call that returned, so the rest of the
    # chain returns the same bytes as the chain without it
    def rejected(cost, a, b, warm):
        bad = cost.copy()
        bad[0, 0] = np.nan
        for args in ((bad, a, b), (cost[:, 1:], a, b), (cost, a[::-1], b)):
            with pytest.raises(ValueError):
                transportation_simplex(*args, warm)

    def failing(cost, a, b, warm):
        plan, bomb = warm.plan, FailMidPivot()
        monkeypatch.setattr(otikin.lp, "DEGENERATE_RUN_PER_NODE", bomb)
        with pytest.raises(RuntimeError, match="injected"):
            transportation_simplex(cost, a, b, warm)
        monkeypatch.undo()
        assert bomb.tests == 2
        # the next call's start flows: the last plan, on the basis it left
        assert warm.plan is plan
        basis = {i * b.size + j for i, j in warm.cells}
        assert set(np.flatnonzero(plan).tolist()) <= basis

    for seed in range(12):
        plain = chain_bytes(seed)
        assert chain_bytes(seed, rejected) == plain
        assert chain_bytes(seed, failing) == plain


def scaled_chain_problem(m, k, degenerate):
    """Nine LPs on one m x k pair of marginals, small-integer ones when
    ``degenerate``: normal costs cost + t B + t^2 W for t in [-1, 1], the
    i-th scaled by 2^(5 i - 20), so the chain's costs span 2^-20 to 2^20."""
    rng = np.random.default_rng(100 * m + k)
    if degenerate:
        a, b = rng.integers(1, 4, size=m).astype(float), rng.integers(1, 4, size=k).astype(float)
        gap = a.sum() - b.sum()
        b[0] += max(gap, 0.0)
        a[0] -= min(gap, 0.0)
    else:
        a, b = rng.uniform(0.2, 1.0, size=m), rng.uniform(0.2, 1.0, size=k)
    cost, B, W = rng.normal(size=(3, m, k))
    scales = 2.0 ** np.arange(-20, 21, 5)
    costs = [s * (cost + t * B + t * t * W) for s, t in zip(scales, np.linspace(-1.0, 1.0, 9))]
    return costs, a / a.sum(), b / b.sum()


def test_warm_start_holds_one_plan():
    # only the last plan returned stays alive once the caller drops the rest
    # (a plan returned by consecutive calls is one array), and a call that
    # makes no pivot returns that same array again. Pricing masks no basic
    # cell, so at size, and with costs from 2^-20 to 2^20, every plan is
    # optimal and re-solving the last cost makes no pivot.
    chains = [warm_chain_problem(seed) for seed in (1, 2, 3)]
    chains += [scaled_chain_problem(64, 64, True), scaled_chain_problem(40, 30, False)]
    for costs, a, b in chains:
        warm, returned = WarmStart(a, b), []
        for cost in costs:
            P = transportation_simplex(cost, a, b, warm)
            # HiGHS's tolerances are absolute, so it prices the cost scaled
            # exactly, by a power of two, to below 1 in size
            unit = cost / 2.0 ** np.frexp(np.abs(cost).max())[1]
            assert np.sum(unit * P) == pytest.approx(reference_lp_value(unit, a, b), rel=1e-9)
            returned.append(weakref.ref(P))
        gc.collect()
        assert {id(r()) for r in returned if r() is not None} == {id(warm.plan)}
        pivots = warm.pivots
        assert transportation_simplex(costs[-1], a, b, warm) is returned[-1]()
        assert warm.pivots == pivots
    a = np.full(6, 1.0 / 6.0)  # the assignment path keeps one plan as well
    warm, returned = WarmStart(a, a), []
    for cost in np.random.default_rng(4).normal(size=(25, 6, 6)):
        returned.append(weakref.ref(transportation_simplex(cost, a, a, warm)))
    gc.collect()
    assert {id(r()) for r in returned if r() is not None} == {id(warm.plan)}


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


def generic_problem(rng, m, k):
    """Normal costs and uniform(0.2, 1) marginals: a unique, nondegenerate optimum."""
    a = rng.uniform(0.2, 1.0, size=m)
    b = rng.uniform(0.2, 1.0, size=k)
    return rng.normal(size=(m, k)), a / a.sum(), b / b.sum()


def test_plan_bytes_do_not_depend_on_the_start():
    rng = np.random.default_rng(3)
    for _ in range(40):
        m, k = (int(x) for x in rng.integers(2, 16, size=2))
        cost, a, b = generic_problem(rng, m, k)
        state = WarmStart(a, b)
        transportation_simplex(rng.normal(size=(m, k)), a, b, state)
        assert len(state.cells) == m + k - 1
        warm = transportation_simplex(cost, a, b, state)
        assert warm.tobytes() == transportation_simplex(cost, a, b).tobytes()


def test_degenerate_plan_bytes_do_not_depend_on_the_start():
    # the integer marginals of even seeds leave zero-flow cells in the basis,
    # and normal costs (seeds not divisible by 3) give each LP one optimal
    # vertex: every plan of the warm chain has the bytes of a cold solve
    for seed in range(2, 300, 2):
        if seed % 3 == 0:
            continue
        costs, a, b = warm_chain_problem(seed)
        warm = WarmStart(a, b)
        for cost in costs:
            P = transportation_simplex(cost, a, b, warm)
            assert P.tobytes() == transportation_simplex(cost, a, b).tobytes()


def integer_marginal_problem(seed):
    """Seeded LP of 2 to 24 atoms a side: costs rounded to 0.1, and marginals
    from {1, 2, 3} normalised by a total that is seldom a power of two, so
    pivots leave round-off on cells whose exact flow is 0."""
    rng = np.random.default_rng(seed)
    m, k = (int(x) for x in rng.integers(2, 25, size=2))
    cost = np.round(rng.normal(size=(m, k)), 1)
    a = rng.integers(1, 4, size=m).astype(float)
    b = rng.integers(1, 4, size=k).astype(float)
    gap = a.sum() - b.sum()
    if gap > 0:
        b[0] += gap
    else:
        a[0] -= gap
    total = a.sum()
    return cost, a / total, b / total


def test_plans_hold_no_round_off_flow():
    # a cell carries flow only above its support floor
    for seed in range(300):
        cost, a, b = integer_marginal_problem(seed)
        P = transportation_simplex(cost, a, b)
        floor = support_floor(a, b)
        assert not np.any((P > 0.0) & (P <= floor))


def support_cells(P, a, b):
    """Row-major indices of ``Coupling.support()`` of a plan with marginals a, b."""
    mu, nu = (DiscreteMeasure(np.zeros((w.size, 1)), np.zeros((w.size, 1)), w) for w in (a, b))
    return tuple(i * b.size + j for i, j in Coupling(P, mu, nu).support())


def test_coupling_support_is_the_simplex_support(monkeypatch):
    # one support rule: the cells Coupling reads from every plan the simplex
    # returns are the cells the simplex keyed it by
    for seed in range(60):
        costs, a, b = warm_chain_problem(seed)
        warm = WarmStart(a, b)
        for cost in costs:
            P = transportation_simplex(cost, a, b, warm)
            assert support_cells(P, a, b) == warm.support
    checked = []

    def checking(cost, a, b, warm=None):
        P = transportation_simplex(cost, a, b, warm)
        assert support_cells(P, a, b) == warm.support
        checked.append(P)
        return P

    monkeypatch.setattr(otikin.solver, "transportation_simplex", checking)
    rng = np.random.default_rng(23)
    for m, k, count in ((6, 5, 20), (24, 20, 3)):
        for _ in range(count):
            a, b = rng.uniform(0.5, 1.5, size=m), rng.uniform(0.5, 1.5, size=k)
            a, b = a / a.sum(), b / b.sum()
            mu = DiscreteMeasure(rng.normal(size=(m, 2)), rng.normal(size=(m, 2)), a)
            nu = DiscreteMeasure(rng.normal(size=(k, 2)), rng.normal(size=(k, 2)), b)
            solve_d(mu, nu)
    assert len(checked) > 23


def test_tiny_atom_keeps_its_flow():
    # the threshold scales with the cell's marginals, so an atom far below
    # any absolute round-off cut keeps its mass
    a = np.array([1e-13, 0.5, 0.5 - 1e-13])
    b = np.array([0.3, 0.3, 0.4])
    warm = WarmStart(a, b)
    for cost in np.random.default_rng(7).normal(size=(20, 3, 3)):
        P = transportation_simplex(cost, a, b, warm)
        assert P[0].max() > 0.0
        assert abs(P[0].sum() - a[0]) <= 1e-16


def test_warm_start_rejects_other_marginals():
    a, b = pinned_problem(1)[1:]
    warm = WarmStart(a, b)
    for foreign in (a[::-1], np.full(a.size, 1.0 / a.size)):
        with pytest.raises(ValueError):
            transportation_simplex(np.zeros((a.size, b.size)), foreign, b, warm)
        with pytest.raises(ValueError):
            transportation_simplex(np.zeros((a.size, b.size)), b, foreign, warm)


def test_vertex_matches_enumeration():
    # the enumeration behind brute_force_oracle; at a nondegenerate vertex
    # both sides run leaf elimination on the same spanning tree
    rng = np.random.default_rng(4)
    for _ in range(40):
        m = int(rng.integers(2, 5))
        k = int(rng.integers(2, 8 - m))
        cost, a, b = generic_problem(rng, m, k)
        vertices = _vertex_plans_trees(a, b)
        values = [float(np.sum(cost * V)) for V in vertices]
        best = vertices[int(np.argmin(values))]
        P = transportation_simplex(cost, a, b)
        assert np.array_equal(P > 0, best > 0)
        assert P.tobytes() == best.tobytes()


def dyadic_marginal(rng, n, total):
    """n weights from {1, 2, 3, 4} summing to ``total``, a power of two, so every
    partial sum is exact and tied flows vanish exactly (degenerate pivots)."""
    w = np.ones(n)
    for i in rng.choice(np.repeat(np.arange(n), 3), size=total - n, replace=False):
        w[i] += 1
    return w / total


# Runs of pivots that move no flow, per node, before Bland's rule takes over:
# the default (never reached below), a short run (the rules alternate) and
# none (Bland's rule throughout).
RUNS_PER_NODE = [otikin.lp.DEGENERATE_RUN_PER_NODE, 0.1, 0]


def test_degenerate_marginals_terminate(monkeypatch):
    # m != k with dyadic marginals reaches the simplex, not the assignment
    # path, and a pivot moves no flow
    cost = np.array([[1.0, 2.0, 3.0, 1.0], [3.0, 1.0, 2.0, 1.0], [2.0, 3.0, 1.0, 1.0]])
    a = np.array([0.25, 0.25, 0.5])
    b = np.full(4, 0.25)
    for run in RUNS_PER_NODE:
        monkeypatch.setattr(otikin.lp, "DEGENERATE_RUN_PER_NODE", run)
        P = transportation_simplex(cost, a, b)
        assert float(np.sum(P * cost)) == pytest.approx(1.0)


@pytest.mark.parametrize("run", RUNS_PER_NODE)
@pytest.mark.parametrize("m, k", [(5, 7), (12, 9), (20, 30), (30, 40), (40, 30)])
def test_degenerate_sweep_against_reference_lp(monkeypatch, run, m, k):
    # dyadic marginals and costs rounded to integers: most pivots move no
    # flow; reaching the pivot budget raises and fails the test
    monkeypatch.setattr(otikin.lp, "DEGENERATE_RUN_PER_NODE", run)
    rng = np.random.default_rng(10 * m + k)
    total = 1 << max(m, k).bit_length()  # a power of two above m and k
    for _ in range(3):
        cost = np.round(2.0 * rng.normal(size=(m, k)))
        a, b = dyadic_marginal(rng, m, total), dyadic_marginal(rng, k, total)
        P = transportation_simplex(cost, a, b)
        assert float(np.sum(P * cost)) == pytest.approx(reference_lp_value(cost, a, b), abs=1e-12)
        assert np.max(np.abs(P.sum(axis=1) - a)) <= 1e-15
        assert np.max(np.abs(P.sum(axis=0) - b)) <= 1e-15
        assert P.min() >= 0.0


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cost_rejected(bad):
    # the simplex, the enumerated assignment and, at 8 x 8, scipy's assignment
    cost = np.ones((2, 3))
    cost[1, 1] = bad
    with pytest.raises(ValueError, match="cost matrix must be finite"):
        transportation_simplex(cost, np.array([0.3, 0.7]), np.full(3, 1.0 / 3.0))
    with pytest.raises(ValueError, match="cost matrix must be finite"):
        transportation_simplex(cost[:, :2], np.full(2, 0.5), np.full(2, 0.5))
    cost = np.ones((8, 8))
    cost[5, 2] = bad
    with pytest.raises(ValueError, match="cost matrix must be finite"):
        transportation_simplex(cost, np.full(8, 0.125), np.full(8, 0.125))
