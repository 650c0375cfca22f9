import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from otikin.lp import support_floor, transportation_simplex, vertex_plans
from otikin.measures import (
    Coupling,
    DiscreteMeasure,
    PairMoments,
    plan_moments,
    product_coupling,
)
from otikin.phase import POSITION_TOL, PhaseState, d_sq, tilde_d_sq, tilde_dT_sq
from otikin.scenarios import (
    circle_measure,
    circle_shift_coupling_moments,
    free_transport_pair,
    generic_positive_instance,
    nonunique_two_atom_instance,
    random_uniform_instance,
)
from otikin.solver import (
    COST_TOL,
    ORACLE_MAX_CANDIDATES,
    SPLIT_MARGIN,
    _curve_bound,
    _split_fraction,
    brute_force_oracle,
    cost_c,
    cost_tilde_c,
    cost_tilde_c_T,
    detect_free_transport,
    optimal_time_plan,
    solve_d,
    solve_fixed_T,
    solve_tilde_d,
)
from otikin.measures import PlanMoments
from otikin.verification import _oracle_sweep
from test_lp import reference_lp_value


def moments(A, B, C, D):
    return PlanMoments(A=A, B=B, C=C, D=D, keeps_positions=A == 0.0)


class TestPlanCosts:
    def test_fixed_horizon_examples(self):
        m = moments(2.0, 4.0, 18.0, 0.0)
        assert cost_tilde_c_T(m, 1.0) == pytest.approx(30.0)
        mu = DiscreteMeasure([[0.0]], [[0.0]], [1.0])
        nu = DiscreteMeasure([[1.0]], [[0.0]], [1.0])
        m1 = plan_moments(mu, nu, product_coupling(mu, nu))
        assert cost_tilde_c_T(m1, 1.0) == pytest.approx(12.0)

    def test_time_optimised_examples(self):
        assert cost_tilde_c(moments(2.0, 4.0, 18.0, 0.0)) == pytest.approx(30.0)
        assert cost_tilde_c(moments(2.0, 2.0, 9.0, 9.0)) == pytest.approx(30.0)
        assert cost_tilde_c(moments(0.0, 0.0, 4.0, 0.0)) == pytest.approx(12.0)

    def test_envelope_examples(self):
        assert cost_c(moments(0.0, 0.0, 4.0, 1.0)) == pytest.approx(1.0)
        assert cost_c(moments(2.0, 4.0, 18.0, 0.0)) == pytest.approx(30.0)

    def test_envelope_below_time_optimised(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            A = float(rng.uniform(0, 2))
            C = float(rng.uniform(0, 4))
            B = float(rng.uniform(-1, 1)) * np.sqrt(A * C)
            D = float(rng.uniform(0, 4))
            m = moments(A, B, C, D)
            assert cost_c(m) <= cost_tilde_c(m) + 1e-12
            if A > 1e-12:
                assert cost_c(m) == pytest.approx(cost_tilde_c(m), rel=1e-12)

    def test_time_optimised_is_grid_infimum(self):
        rng = np.random.default_rng(1)
        # span must reach far enough out that the unattained large-horizon
        # infimum is approached within the asserted tolerance
        grid = np.logspace(-4, 10, 4000)
        for _ in range(50):
            mu, nu = random_uniform_instance(rng, 4, 2)
            m = plan_moments(mu, nu, product_coupling(mu, nu))
            vals = 12.0 * m.A / grid**2 - 12.0 * m.B / grid + 3.0 * m.C + m.D
            tag = optimal_time_plan(m)
            if tag.is_finite:
                vals = np.append(vals, cost_tilde_c_T(m, tag.value))
            assert cost_tilde_c(m) == pytest.approx(float(vals.min()), rel=1e-8)

    def test_optimal_time_formula(self):
        assert optimal_time_plan(moments(2.0, 4.0, 18.0, 0.0)).value == pytest.approx(1.0)
        assert optimal_time_plan(moments(0.0, 0.0, 1.0, 0.0)).kind == "zero"
        assert optimal_time_plan(moments(1.0, -3.0, 9.1, 0.0)).kind == "infinite"

    def test_round_off_b_is_not_a_finite_horizon(self):
        # the identity plan's cells have B = 0.1, 0.2 and -0.3, whose exact
        # mean is 0; the summed moment picks up round-off, which read as a
        # finite horizon of about 1e17
        mu = DiscreteMeasure(np.zeros((3, 1)), np.zeros((3, 1)), np.full(3, 1.0 / 3.0))
        nu = DiscreteMeasure(np.ones((3, 1)), [[0.1], [0.2], [-0.3]], np.full(3, 1.0 / 3.0))
        m = PairMoments(mu, nu).of(np.diag(mu.weights))
        assert 0.0 < m.B < 1e-16
        assert optimal_time_plan(m).kind == "infinite"
        for solve in (solve_d, solve_tilde_d):
            res = solve(mu, nu)
            assert res.regime == "infinite_T"
            assert res.optimal_time.kind == "infinite"


class TestFixedHorizonSolve:
    def test_singletons(self):
        mu = DiscreteMeasure([[0.0]], [[0.0]], [1.0])
        nu = DiscreteMeasure([[1.0]], [[0.0]], [1.0])
        res = solve_fixed_T(mu, nu, 1.0)
        assert res.cost_sq == pytest.approx(12.0)
        assert np.allclose(res.plan.P, [[1.0]])

    def test_two_atom_instance_picks_better_permutation(self):
        mu, nu = nonunique_two_atom_instance()
        res = solve_fixed_T(mu, nu, 1.0)
        assert res.cost_sq == pytest.approx(30.0)
        # at this horizon the identity-like pairing wins (the other costs 36)
        assert np.allclose(res.plan.P, [[0.5, 0.0], [0.0, 0.5]])

    def test_self_transport_not_worse_than_product(self):
        rng = np.random.default_rng(2)
        mu, _ = random_uniform_instance(rng, 5, 2)
        res = solve_fixed_T(mu, mu, 1.0)
        prod_cost = cost_tilde_c_T(plan_moments(mu, mu, product_coupling(mu, mu)), 1.0)
        assert res.cost_sq <= prod_cost + 1e-12

    def test_beats_random_feasible_couplings(self):
        from otikin.lp import transportation_simplex

        rng = np.random.default_rng(3)
        mu, nu = random_uniform_instance(rng, 5, 2)
        res = solve_fixed_T(mu, nu, 0.8)
        vertices = [
            transportation_simplex(rng.normal(size=(5, 5)), mu.weights, nu.weights)
            for _ in range(6)
        ]
        for _ in range(100):
            lam = rng.dirichlet(np.ones(len(vertices)))
            P = sum(l * V for l, V in zip(lam, vertices))
            val = cost_tilde_c_T(plan_moments(mu, nu, Coupling(P, mu, nu)), 0.8)
            assert res.cost_sq <= val + 1e-10

    def test_matches_atomwise_sum(self):
        rng = np.random.default_rng(4)
        mu, nu = random_uniform_instance(rng, 4, 2)
        res = solve_fixed_T(mu, nu, 1.3)
        total = sum(
            res.plan.P[i, j] * tilde_dT_sq(mu.atom(i), nu.atom(j), 1.3)
            for i in range(4)
            for j in range(4)
        )
        assert res.cost_sq == pytest.approx(total, rel=1e-12)


def _within_tolerance_pair():
    """Three atoms per side, each target 0.4 position tolerances from its source."""
    rng = np.random.default_rng(5)
    X = 3.0 * rng.normal(size=(3, 2))
    V = rng.normal(size=(3, 2))
    tol = POSITION_TOL * (1.0 + 2.0 * float(np.max(np.linalg.norm(X, axis=1))))
    Y = X + 0.4 * tol * rng.choice([-1.0, 1.0], size=X.shape)
    U = V + 0.1 * rng.normal(size=V.shape)
    w = np.full(3, 1.0 / 3.0)
    return DiscreteMeasure(X, V, w), DiscreteMeasure(Y, U, w)


class TestTimeOptimisedSolve:
    def test_free_transport_pair(self):
        # T = 1e-3 puts the optimum at s = 1/T = 1000, past the first tail
        # checks; T = 1e3 puts it near s = 0
        for T in (1e-3, 0.7, 1e3):
            mu, nu = free_transport_pair(T=T)
            res = solve_d(mu, nu)
            assert res.cost_sq <= 1e-10
            assert res.regime == "finite_T"
            assert res.optimal_time.is_finite
            assert res.optimal_time.value == pytest.approx(T, rel=1e-6)

    def test_two_plan_tie_value(self):
        mu, nu = nonunique_two_atom_instance()
        assert solve_d(mu, nu).cost_sq == pytest.approx(30.0, abs=1e-8)

    def test_equal_positions_regime(self):
        mu = DiscreteMeasure([[0.0], [0.0]], [[1.0], [-1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.0], [0.0]], [[0.0], [2.0]], [0.5, 0.5])
        res = solve_d(mu, nu)
        assert res.regime == "equal_positions"
        # monotone velocity matching: (-1 -> 0, 1 -> 2) costs (1 + 1)/2
        assert res.cost_sq == pytest.approx(1.0)

    def test_equal_positions_regime_on_several_sites(self):
        # three shared sites with unequal atom counts per site and per side:
        # the cost is the sum of the per-site velocity transport values
        rng = np.random.default_rng(3)
        sites = np.array([[0.0, 0.0], [1.0, -0.5], [-2.0, 1.5]])
        mass = np.array([0.5, 0.3, 0.2])

        def cloud(counts, order):
            X, V, w = [], [], []
            for site in order:
                split = rng.uniform(0.5, 1.5, size=counts[site])
                X += [sites[site]] * counts[site]
                V.append(rng.normal(size=(counts[site], 2)))
                w.append(mass[site] * split / split.sum())
            return np.asarray(X), np.vstack(V), np.concatenate(w)

        X, V, w = cloud((3, 1, 2), (0, 1, 2))
        Y, U, u = cloud((1, 2, 3), (2, 0, 1))
        ref = 0.0
        for site in sites:
            a, b = np.all(X == site, axis=1), np.all(Y == site, axis=1)
            cost = np.sum((U[b][None, :, :] - V[a][:, None, :]) ** 2, axis=2)
            ref += reference_lp_value(cost, w[a], u[b])
        res = solve_d(DiscreteMeasure(X, V, w), DiscreteMeasure(Y, U, u))
        assert res.regime == "equal_positions"
        assert res.cost_sq == pytest.approx(ref, rel=1e-12)
        # 1e-6 of mass moved from the first site of nu to its second
        u_shifted = u.copy()
        u_shifted[np.flatnonzero(np.all(Y == sites[0], axis=1))[0]] -= 1e-6
        u_shifted[np.flatnonzero(np.all(Y == sites[1], axis=1))[0]] += 1e-6
        res = solve_d(DiscreteMeasure(X, V, w), DiscreteMeasure(Y, U, u_shifted))
        assert res.regime != "equal_positions"

    @pytest.mark.parametrize("direction", [[1.0], [0.6, 0.8]], ids=["1d", "2d"])
    @pytest.mark.parametrize("x", [0.0, 1e3, -1e3])
    @pytest.mark.parametrize("gap", [-2.0, -0.5, 0.5, 1.2, 2.0])
    def test_one_position_rule_on_dirac_pairs(self, direction, x, gap):
        # a Euclidean gap of a multiple of the position tolerance: the solvers,
        # the oracle and the pointwise closed forms must take the same branch
        # (in 2-d a gap of 1.2 keeps each coordinate within the tolerance)
        e = np.asarray(direction)
        xs = x * e
        ys = xs + gap * POSITION_TOL * (1.0 + 2.0 * abs(x)) * e
        src, dst = PhaseState(xs, e), PhaseState(ys, e)
        mu = DiscreteMeasure([xs], [e], [1.0])
        nu = DiscreteMeasure([ys], [e], [1.0])
        res = solve_d(mu, nu)
        assert res.cost_sq == pytest.approx(d_sq(src, dst), abs=1e-9)
        assert (res.regime == "equal_positions") == (abs(gap) < 1.0)
        assert brute_force_oracle(mu, nu).cost_sq == pytest.approx(d_sq(src, dst), abs=1e-9)
        assert solve_tilde_d(mu, nu).cost_sq == pytest.approx(tilde_d_sq(src, dst), abs=1e-9)

    @pytest.mark.parametrize(
        "mu, nu, equal_positions, cost",
        [
            pytest.param(*_within_tolerance_pair(), True, None, id="within-tolerance"),
            # a vertex puts 0.2 - (0.3 - 0.1), about 3e-17 of mass, on the cell
            # from 0 to 1: that rounding must not make it move positions
            pytest.param(
                DiscreteMeasure([[0.0], [0.0], [1.0]], [[1.0]] * 3, [0.2, 0.1, 0.7]),
                DiscreteMeasure([[0.0], [1.0]], [[1.0]] * 2, [0.3, 0.7]),
                True, 0.0, id="rounding-mass",
            ),
            # half the mass moved 1e-4 is no rounding, though A = 5e-9 is small
            # against the largest pairwise A, 1e4
            pytest.param(
                DiscreteMeasure([[0.0], [100.0]], [[1.0], [0.0]], [0.5, 0.5]),
                DiscreteMeasure([[-1e-4], [100.0]], [[1.0], [0.0]], [0.5, 0.5]),
                False, 4.0, id="small-gap",
            ),
            # sites 2e6 apart with 5e-7 of mass moved between them: the
            # position marginals differ, however far apart the sites are; the
            # best plan crosses, its cost 6 - 8d - 12 (1/2 - d)^2 / (1 - d)
            pytest.param(
                DiscreteMeasure([[0.0], [2e6]], [[1.0], [0.0]], [0.5, 0.5]),
                DiscreteMeasure([[0.0], [2e6]], [[0.0], [1.0]], [0.5 + 5e-7, 0.5 - 5e-7]),
                False, 6.0 - 8 * 5e-7 - 12 * (0.5 - 5e-7) ** 2 / (1 - 5e-7), id="far-sites",
            ),
        ],
    )
    def test_position_rule_on_weighted_pairs(self, mu, nu, equal_positions, cost):
        if cost is None:  # coincident sites: each atom keeps its partner
            cost = float(np.mean(np.sum((nu.velocities - mu.velocities) ** 2, axis=1)))
        res = solve_d(mu, nu)
        assert (res.regime == "equal_positions") == equal_positions
        assert res.cost_sq == pytest.approx(cost, rel=1e-12, abs=1e-12)
        assert brute_force_oracle(mu, nu).cost_sq == pytest.approx(cost, rel=1e-12, abs=1e-12)

    def test_upper_bound_solver_examples(self):
        mu, nu = free_transport_pair(T=1.1)
        assert solve_tilde_d(mu, nu).cost_sq <= 1e-10
        mu1 = DiscreteMeasure([[0.0]], [[1.0]], [1.0])
        nu1 = DiscreteMeasure([[0.0]], [[3.0]], [1.0])
        assert solve_tilde_d(mu1, nu1).cost_sq == pytest.approx(52.0)
        assert solve_d(mu1, nu1).cost_sq == pytest.approx(4.0)

    def test_envelope_witness_through_perturbed_targets(self):
        # targets drifting toward the source make the upper-bound cost drop to
        # the envelope value 4 (from 52 at the coincident limit)
        mu = DiscreteMeasure([[0.0]], [[1.0]], [1.0])
        vals = []
        for k in (10, 100, 1000):
            nuk = DiscreteMeasure([[4.0 / k]], [[3.0]], [1.0])
            vals.append(solve_tilde_d(mu, nuk).cost_sq)
        for prev, cur in zip(vals, vals[1:]):
            assert cur <= prev + 1e-8
        assert vals[-1] == pytest.approx(4.0, abs=1e-2)

    def test_circle_upper_bound_below_shift_coupling(self):
        mu = circle_measure(64)
        _, coup = circle_shift_coupling_moments(64)
        shift_val = cost_tilde_c(plan_moments(mu, mu, coup))
        assert shift_val < 0.05
        assert solve_tilde_d(mu, mu).cost_sq <= shift_val + 1e-12

    def test_generic_instance_positive(self):
        mu, nu = generic_positive_instance()
        assert solve_d(mu, nu).cost_sq > 1e-2


class TestOracle:
    def test_two_plan_tie_reports_both(self):
        mu, nu = nonunique_two_atom_instance()
        res = brute_force_oracle(mu, nu)
        assert res.cost_sq == pytest.approx(30.0, abs=1e-9)
        assert len(res.optima) == 2
        times = sorted(t.value for _, _, t in res.optima)
        assert times == pytest.approx([1.0, 2.0])

    def test_singletons(self):
        mu = DiscreteMeasure([[0.0]], [[1.0]], [1.0])
        nu = DiscreteMeasure([[0.0]], [[3.0]], [1.0])
        assert brute_force_oracle(mu, nu).cost_sq == pytest.approx(4.0)

    def test_dominates_solver_on_random_instances(self):
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(40):
            mu, nu = random_uniform_instance(rng, 5, 2)
            orc = brute_force_oracle(mu, nu)
            res = solve_d(mu, nu)
            assert res.cost_sq >= orc.cost_sq - 1e-9
            if abs(res.cost_sq - orc.cost_sq) <= 1e-8 * (1 + orc.cost_sq):
                hits += 1
        assert hits == 40

    def test_tree_enumeration_nonuniform(self):
        # the general-marginal simplex path of the search against the oracle
        rng = np.random.default_rng(7)
        w = np.array([0.5, 0.3, 0.2])
        u = np.array([0.4, 0.6])
        mu = DiscreteMeasure(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), w)
        nu = DiscreteMeasure(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), u)
        pairs = [(mu, nu)]
        # 2 x 7 and on were refused while the oracle counted atoms (at most 8
        # in total); they walk at most C(16, 9) = 11440 edge subsets
        for m, k in ((2, 5), (3, 4), (4, 4), (2, 7), (2, 8), (1, 12), (7, 2)):
            a = rng.uniform(0.5, 1.5, size=m)
            b = rng.uniform(0.5, 1.5, size=k)
            pairs.append((
                DiscreteMeasure(rng.normal(size=(m, 2)), rng.normal(size=(m, 2)), a / a.sum()),
                DiscreteMeasure(rng.normal(size=(k, 2)), rng.normal(size=(k, 2)), b / b.sum()),
            ))
        for mu, nu in pairs:
            orc = brute_force_oracle(mu, nu)
            assert solve_d(mu, nu).cost_sq == pytest.approx(orc.cost_sq, rel=1e-9, abs=1e-12)

    def test_search_matches_oracle_on_sweep_instance_73(self):
        # a local search from a log grid of horizons stopped at 15.057503
        # here, above the optimum 15.051267
        mu, nu = _oracle_sweep(42)[73]
        orc = brute_force_oracle(mu, nu)
        assert solve_d(mu, nu).cost_sq == pytest.approx(orc.cost_sq, rel=1e-9)

    def test_cap_enforced(self, monkeypatch):
        # 9! permutations, and C(18, 8) edge subsets on a non-uniform 3 x 6
        # pair, are over the limit; the pair's matrices are never built
        def unbuilt(mu, nu):
            raise AssertionError("PairMoments built for an oversized pair")

        monkeypatch.setattr("otikin.solver.PairMoments", unbuilt)
        rng = np.random.default_rng(8)
        pairs = [(random_uniform_instance(rng, 9, 1), 362880), (_tree_pair(rng, 3, 6, False), 43758)]
        for (mu, nu), count in pairs:
            with pytest.raises(ValueError) as exc:
                brute_force_oracle(mu, nu)
            assert str(exc.value) == (
                f"instance too large for the oracle (m={mu.size}, k={nu.size}: {count} "
                f"candidate bases, more than the limit {ORACLE_MAX_CANDIDATES})"
            )

    def test_tiny_atom_vertices_stay_distinct(self):
        # the tree path reads a vertex's cells by the simplex's floor, so
        # vertices that differ only in where a 1e-13 atom goes are not merged
        a = [0.5, 0.5 - 1e-13, 1e-13]
        mu = DiscreteMeasure([[0.0], [1.0], [2.0]], [[0.0], [0.5], [-0.5]], a)
        nu = DiscreteMeasure([[0.5], [1.5]], [[0.1], [0.2]], [0.3, 0.7])
        res = brute_force_oracle(mu, nu)
        assert res.iterations == 4
        floor = support_floor(mu.weights, nu.weights)
        for plans in (vertex_plans(mu.weights, nu.weights), [P for P, _, _ in res.optima]):
            supports = {tuple(np.flatnonzero(P > floor)) for P in plans}
            assert len(supports) == len(plans)

    @pytest.mark.parametrize(
        "pair, e",
        [("small_atom", e) for e in (1e-10, 1e-11, 1e-12, 1e-14)]
        + [("small_gap", e) for e in (1e-10, 1e-11)],
    )
    def test_small_mass_is_flow_not_round_off(self, pair, e):
        # every plan moves a mass e: the small atom at x = 5, or the e that
        # the target's atom at x = 5 holds beyond the source's. The support
        # floor keeps that flow, so the search and the oracle meet, outside
        # the equal-positions regime, on plans that meet their marginals.
        if pair == "small_atom":
            mu = DiscreteMeasure([[0.0], [0.0], [5.0]], [[1.0], [-1.0], [0.0]], [0.5, 0.5 - e, e])
            nu = DiscreteMeasure([[0.0], [0.0]], [[0.0], [2.0]], [0.5, 0.5])
        else:
            mu = DiscreteMeasure([[0.0], [5.0]], [[1.0], [-1.0]], [0.5, 0.5])
            nu = DiscreteMeasure([[0.0], [5.0]], [[0.0], [2.0]], [0.5 - e, 0.5 + e])
        res, ref = solve_d(mu, nu), brute_force_oracle(mu, nu)
        assert abs(res.cost_sq - ref.cost_sq) <= COST_TOL * (1.0 + abs(ref.cost_sq))
        assert "equal_positions" not in (res.regime, ref.regime)
        if e >= 1e-11:
            for P in (res.plan.P, ref.plan.P):
                assert np.abs(P.sum(axis=1) - mu.weights).max() <= 1e-15
                assert np.abs(P.sum(axis=0) - nu.weights).max() <= 1e-15

    def test_uniform_counts_every_permutation(self):
        rng = np.random.default_rng(11)
        for m in range(1, 7):
            mu, nu = random_uniform_instance(rng, m, 2)
            assert brute_force_oracle(mu, nu).iterations == math.factorial(m)


def _moment_fields(m):
    return (m.A, m.B, m.C, m.D, m.keeps_positions)


def _bits(fields):
    return tuple(f.hex() if isinstance(f, float) else f for f in fields)


@pytest.mark.parametrize("path", ["uniform", "tree"])
def test_stacked_moments_equal_single_plan_moments(path):
    # every field bit for bit, not approximately: the oracle's moments come
    # from the stacked form and every other plan's from the single-plan one
    rng = np.random.default_rng(12)
    if path == "uniform":
        mu, nu = random_uniform_instance(rng, 5, 3)
        plans = vertex_plans(mu.weights, nu.weights)
    else:
        mu, nu = _tree_pair(rng, 3, 4, integer=False)
        plans = vertex_plans(mu.weights, nu.weights)
    pm = PairMoments(mu, nu)
    stacked = pm.of_each(plans)
    single = [pm.of(P) for P in plans]
    assert len(stacked[0]) == len(plans) > 1
    assert [_bits(a[v].item() for a in stacked) for v in range(len(plans))] == [
        _bits(_moment_fields(m)) for m in single
    ]
    with pytest.raises(ValueError):
        pm.of_each(plans[:, :-1, :])


@pytest.mark.parametrize(
    "w, t, error, other",
    [(3, -1.0, "must be nonnegative", (1, -1.0)), (1, -1.0, "Cauchy-Schwarz", (3, -1.0))],
    ids=["negative-moment", "cauchy-schwarz"],
)
def test_stacked_oracle_rejects_bad_moments(monkeypatch, w, t, error, other):
    # (1 - t) P_0 + t P_w keeps the marginals of two vertices; with t < 0 some
    # of its entries are negative
    rng = np.random.default_rng(8)
    mu, nu = random_uniform_instance(rng, 3, 1)
    vertices = vertex_plans(mu.weights, nu.weights)

    def extrapolate(w, t):
        return (1.0 - t) * vertices[0] + t * vertices[w]

    bad = extrapolate(w, t)
    assert bad.min() < 0.0
    with pytest.raises(ValueError, match=error) as single:
        PairMoments(mu, nu).of(bad)
    # a second bad plan, of the other kind, comes later: the first one raises
    stack = np.concatenate([vertices[:4], [bad], vertices[4:], [extrapolate(*other)]])
    monkeypatch.setattr("otikin.solver.vertex_plans", lambda a, b: stack)
    with pytest.raises(ValueError) as stacked:
        brute_force_oracle(mu, nu)
    assert str(stacked.value) == str(single.value)


def _tree_pair(rng, m, k, integer):
    """Random pair on the tree path: positive marginals, small integers over
    their total (degenerate trees, repeated vertices) when ``integer``."""
    if integer:
        a = rng.integers(1, 4, size=m).astype(float)
        b = rng.integers(1, 4, size=k).astype(float)
        gap = a.sum() - b.sum()
        if gap > 0:
            b[0] += gap
        else:
            a[0] -= gap
    else:
        a, b = rng.uniform(0.5, 1.5, size=m), rng.uniform(0.5, 1.5, size=k)
    return (
        DiscreteMeasure(rng.normal(size=(m, 2)), rng.normal(size=(m, 2)), a / a.sum()),
        DiscreteMeasure(rng.normal(size=(k, 2)), rng.normal(size=(k, 2)), b / b.sum()),
    )


def oracle_pin_instances():
    """Uniform pairs for m = 1..6 (permutation path), tree-path pairs with
    m + k <= 8, a third of them with integer marginals, and three with ties or
    a position-preserving vertex."""
    rng = np.random.default_rng(8)
    pairs = [nonunique_two_atom_instance()]
    for m in range(1, 7):
        pairs.append(random_uniform_instance(rng, m, 1 + m % 3))
    sizes = [(1, 3), (3, 2), (2, 4), (4, 2), (2, 5), (3, 4),
             (4, 3), (2, 6), (3, 5), (5, 3), (4, 4), (1, 7)]
    for i, (m, k) in enumerate(sizes):
        pairs.append(_tree_pair(rng, m, k, integer=i % 3 == 0))
    # the tie pair with its first target atom split in two: tree vertices tie
    mu, nu = nonunique_two_atom_instance()
    split = [0, 0, 1]
    pairs.append((mu, DiscreteMeasure(nu.positions[split], nu.velocities[split], [0.2, 0.3, 0.5])))
    # the same sites on both sides: one vertex keeps every position (A = 0)
    mu, _ = random_uniform_instance(rng, 3, 2)
    nu = DiscreteMeasure(mu.positions[::-1], rng.normal(size=(3, 2)), mu.weights)
    pairs.append((mu, nu))
    return pairs


def _time_key(t):
    return f"{t.kind}:{'' if t.value is None else t.value.hex()}"


# SHA-256 of every oracle result on ``oracle_pin_instances``: cost, vertex
# count, regime, horizon and plan bytes, then every tied optimum in order.
ORACLE_PIN = "3bd370cdaffb683e695a89978072b962b275146d7bbc8af0c9bff3834e12a2f2"


def test_oracle_bytes_pinned():
    h = hashlib.sha256()
    for mu, nu in oracle_pin_instances():
        res = brute_force_oracle(mu, nu)
        head = (res.cost_sq.hex(), res.iterations, res.regime, _time_key(res.optimal_time))
        h.update(repr(head).encode())
        h.update(res.plan.P.tobytes())
        for P, cost, t in res.optima:
            h.update(P.tobytes())
            h.update(repr((cost.hex(), _time_key(t))).encode())
    assert h.hexdigest() == ORACLE_PIN


def solve_pin_instances():
    """Uniform pairs for m = 2..6 (assignment path), non-uniform 6 x 5 and
    3 x 4 pairs (simplex path), an equal-positions pair and the two-plan tie."""
    rng = np.random.default_rng(21)
    pairs = [nonunique_two_atom_instance()]
    for m in range(2, 7):
        for n in (1, 2):
            pairs.append(random_uniform_instance(rng, m, n))
    for _ in range(4):
        pairs.append(_tree_pair(rng, 6, 5, integer=False))
        pairs.append(_tree_pair(rng, 3, 4, integer=False))
    mu, _ = random_uniform_instance(rng, 4, 2)
    nu = DiscreteMeasure(mu.positions[[2, 0, 3, 1]], rng.normal(size=(4, 2)), mu.weights)
    pairs.append((mu, nu))
    return pairs


@pytest.fixture(scope="module")
def solve_pin_results():
    return [solve(mu, nu) for mu, nu in solve_pin_instances() for solve in (solve_d, solve_tilde_d)]


# SHA-256 of every ``solve_d`` and ``solve_tilde_d`` result on
# ``solve_pin_instances``: cost, horizon, regime and plan bytes.
SOLVE_PIN = "f347eff77bf772a10aae715c09b3b69dfa07998e9cd1799a5069a148f6c0cd43"
# The LP solves (``iterations``) of those results, in order: 282 in all.
SOLVE_LP_COUNTS = [
    6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 6, 6, 9, 9, 4, 4, 8, 8, 8, 8,
    12, 12, 8, 8, 4, 4, 6, 6, 12, 12, 8, 8, 6, 6, 6, 6, 4, 4, 9, 9,
]


def test_solve_bytes_pinned(solve_pin_results):
    h = hashlib.sha256()
    for res in solve_pin_results:
        head = (res.cost_sq.hex(), _time_key(res.optimal_time), res.regime)
        h.update(repr(head).encode())
        h.update(res.plan.P.tobytes())
    assert h.hexdigest() == SOLVE_PIN


def test_solve_lp_counts_pinned(solve_pin_results):
    assert [res.iterations for res in solve_pin_results] == SOLVE_LP_COUNTS


def _third_corner(s1, s2):
    """The corner (s1 s2, (s1 + s2)/2) where the tangents to u = s^2 at s1 and s2 meet."""
    return (s1 * s2, (s1 + s2) / 2)


def _midpoint(p, q):
    return tuple((a + b) / 2 for a, b in zip(p, q))


def test_half_third_corner_is_a_segment_midpoint():
    # exactly, in rationals: each half's third corner is the midpoint of its
    # end corner (s^2, s) and the parent's third corner
    rng = np.random.default_rng(25)
    for _ in range(200):
        s1, s2 = sorted(Fraction(int(n), int(d)) for n, d in rng.integers(1, 10**6, size=(2, 2)))
        mid = (s1 + s2) / 2
        parent = _third_corner(s1, s2)
        assert _third_corner(s1, mid) == _midpoint((s1 * s1, s1), parent)
        assert _third_corner(mid, s2) == _midpoint((s2 * s2, s2), parent)


def _phi(pm, mu, nu, u, s):
    """Phi(u, s), the LP value of the cost 12 u A - 12 s B + 3 C + D."""
    cost = 12.0 * u * pm.A - 12.0 * s * pm.B + 3.0 * pm.C + pm.D
    return float(np.sum(transportation_simplex(cost, mu.weights, nu.weights) * cost))


def _search_pairs(rng, path, count):
    """Pairs that take the simplex (weighted 6 x 5) or assignment (uniform 8 x 8) path."""
    for _ in range(count):
        if path == "simplex":
            yield _tree_pair(rng, 6, 5, integer=False)
        else:
            yield random_uniform_instance(rng, 8, 2)


@pytest.mark.parametrize("path", ["simplex", "assignment"])
def test_concavity_bounds_each_half_third_corner(path):
    # Phi is concave; at each half's third corner it is at least the mean of
    # Phi at the two ends of the segment that corner halves
    rng = np.random.default_rng(2501)
    for mu, nu in _search_pairs(rng, path, 6):
        pm = PairMoments(mu, nu)
        for _ in range(5):
            s1, s2 = sorted(rng.uniform(0.0, 3.0, size=2))
            mid = 0.5 * (s1 + s2)
            parent = _phi(pm, mu, nu, *_third_corner(s1, s2))
            for end, half in ((s1, (s1, mid)), (s2, (mid, s2))):
                value = _phi(pm, mu, nu, *_third_corner(*half))
                bound = 0.5 * (_phi(pm, mu, nu, end * end, end) + parent)
                assert value >= bound - 1e-12 * (1.0 + abs(value))


@pytest.mark.parametrize("path", ["simplex", "assignment"])
def test_curve_bound_holds_along_each_interval(path):
    # (s^2, s) on [s1, s2] is the quadratic Bezier curve through the two end
    # corners with the third corner as control point, so by concavity OT(s)
    # = Phi(s^2, s) is at least the curve bound of Phi at the three corners
    rng = np.random.default_rng(2801)
    for mu, nu in _search_pairs(rng, path, 6):
        pm = PairMoments(mu, nu)
        for _ in range(5):
            s1, s2 = sorted(rng.uniform(0.0, 3.0, size=2))
            bound = _curve_bound(
                _phi(pm, mu, nu, s1 * s1, s1),
                _phi(pm, mu, nu, s2 * s2, s2),
                _phi(pm, mu, nu, *_third_corner(s1, s2)),
            )
            for s in np.linspace(s1, s2, 50):
                value = _phi(pm, mu, nu, s * s, s)
                assert value >= bound - 1e-12 * (1.0 + abs(value))


def _exact_curve_min(l1, l2, l3):
    """Least value over t in [0, 1] of (1-t)^2 l1 + 2 t (1-t) l3 + t^2 l2, in rationals."""
    l1, l2, l3 = Fraction(l1), Fraction(l2), Fraction(l3)
    ts = [Fraction(0), Fraction(1)]
    if l1 + l2 - 2 * l3 > 0:
        t = (l1 - l3) / (l1 + l2 - 2 * l3)
        if 0 < t < 1:
            ts.append(t)
    return min((1 - t) ** 2 * l1 + 2 * t * (1 - t) * l3 + t * t * l2 for t in ts)


def test_curve_bound_is_the_exact_minimum():
    # l3 below, between and above (l1, l2), at scales 1e-3 to 1e3, one float
    # below the lower end, and equal ends; a few roundings from the exact value
    rng = np.random.default_rng(2802)
    eps = np.finfo(float).eps
    for _ in range(300):
        scale = 10.0 ** rng.integers(-3, 4)
        l1, l2 = rng.normal(scale=scale, size=2)
        if rng.random() < 0.1:
            l2 = l1
        lo, hi = min(l1, l2), max(l1, l2)
        gap = rng.exponential(scale)
        for l3 in (lo - gap, np.nextafter(lo, -np.inf), rng.uniform(lo, hi), hi + gap):
            got = _curve_bound(l1, l2, l3)
            err = abs(Fraction(got) - _exact_curve_min(l1, l2, l3))
            assert err <= Fraction(8 * eps * (abs(l1) + abs(l2) + abs(l3)))
        # the root interval, whose third corner has no bound yet
        assert _curve_bound(l1, l2, -np.inf) == -np.inf


def test_split_fraction_is_where_the_curve_bound_is_least():
    # with l3 below both ends the Bezier of ``_curve_bound`` is least at the
    # split fraction, unless the margin clamps it
    rng = np.random.default_rng(3301)
    eps = np.finfo(float).eps
    unclamped = 0
    for _ in range(500):
        scale = 10.0 ** rng.integers(-3, 4)
        l3 = rng.normal(scale=scale)
        l1, l2 = l3 + rng.exponential(scale, size=2)
        t = _split_fraction(l1, l2, l3)
        assert SPLIT_MARGIN <= t <= 1.0 - SPLIT_MARGIN
        if SPLIT_MARGIN < t < 1.0 - SPLIT_MARGIN:
            unclamped += 1
            value = (1 - t) ** 2 * l1 + 2 * t * (1 - t) * l3 + t * t * l2
            assert abs(value - _curve_bound(l1, l2, l3)) <= 8 * eps * (abs(l1) + abs(l2) + abs(l3))
        else:
            # clamped: the least value lies beyond the margin, on the same side
            a, b = l1 - l3, l2 - l3
            assert (a / (a + b) <= SPLIT_MARGIN) == (t == SPLIT_MARGIN)
    assert unclamped > 250


def test_split_fraction_clamps_and_falls_back():
    assert _split_fraction(1.0, 1.0, 0.0) == 0.5
    assert _split_fraction(3.0, 1.0, 0.0) == 0.75
    # the least value at t = 1/1001 and 1000/1001: clamped at the margin
    assert _split_fraction(1e-3, 1.0, 0.0) == SPLIT_MARGIN
    assert _split_fraction(1.0, 1e-3, 0.0) == 1.0 - SPLIT_MARGIN
    # a <= 0, b <= 0, or a NaN value or fraction (an infinite a): the midpoint
    nan, inf = math.nan, math.inf
    for lows in (
        (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (-1.0, 2.0, 0.0), (2.0, -1.0, 0.0),
        (1.0, 2.0, 3.0), (nan, 1.0, 0.0), (1.0, nan, 0.0), (1.0, 1.0, nan),
        (inf, 1.0, 0.0), (inf, inf, 0.0), (1.0, 1.0, -inf),
    ):
        assert _split_fraction(*lows) == 0.5, lows


def test_split_fraction_is_scale_free():
    rng = np.random.default_rng(3302)
    for _ in range(300):
        lows = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4)
        t = _split_fraction(*lows)
        for j in (-20, 20):
            assert _split_fraction(*(2.0**j * lows)) == t


def test_part_third_corner_divides_the_segment():
    # exactly, in rationals: splitting at x = s1 + t (s2 - s1), each part's
    # third corner divides the segment from its end corner to the parent's
    # third corner in the ratio t : 1 - t, measured from the end s1 for the
    # left part and from s2 (with 1 - t : t) for the right part
    rng = np.random.default_rng(3303)
    for _ in range(200):
        s1, s2 = sorted(Fraction(int(n), int(d)) for n, d in rng.integers(1, 10**6, size=(2, 2)))
        t = Fraction(int(rng.integers(1, 999)), 1000)
        x = s1 + t * (s2 - s1)
        parent = _third_corner(s1, s2)
        left = tuple((1 - t) * e + t * p for e, p in zip((s1 * s1, s1), parent))
        right = tuple(t * e + (1 - t) * p for e, p in zip((s2 * s2, s2), parent))
        assert _third_corner(s1, x) == left
        assert _third_corner(x, s2) == right


@pytest.mark.parametrize("path", ["simplex", "assignment"])
def test_concavity_bounds_each_part_third_corner(path):
    # Phi is concave, so at each part's third corner it is at least the
    # combination of Phi at the two ends of its segment that the search carries
    rng = np.random.default_rng(3304)
    for mu, nu in _search_pairs(rng, path, 6):
        pm = PairMoments(mu, nu)
        for _ in range(5):
            s1, s2 = sorted(rng.uniform(0.0, 3.0, size=2))
            t = rng.uniform(SPLIT_MARGIN, 1.0 - SPLIT_MARGIN)
            x = s1 + t * (s2 - s1)
            l1, l2 = _phi(pm, mu, nu, s1 * s1, s1), _phi(pm, mu, nu, s2 * s2, s2)
            l3 = _phi(pm, mu, nu, *_third_corner(s1, s2))
            for part, bound in (((s1, x), (1 - t) * l1 + t * l3), ((x, s2), t * l2 + (1 - t) * l3)):
                value = _phi(pm, mu, nu, *_third_corner(*part))
                assert value >= bound - 1e-12 * (1.0 + abs(value))


def _split_sweep():
    """Weighted 6 x 5 and 12 x 10 pairs, uniform 8 x 8 pairs, and weighted
    6 x 5 and 12 x 10 pairs with (x, v) dilated by 2^-20 and by 2^10."""
    rng = np.random.default_rng(3305)
    pool = [_tree_pair(rng, 6, 5, integer=False) for _ in range(40)]
    pairs = list(pool)
    pairs += [_tree_pair(rng, 12, 10, integer=False) for _ in range(6)]
    pairs += [random_uniform_instance(rng, 8, 2) for _ in range(6)]
    rng = np.random.default_rng(5)
    for m, k in ((6, 5), (12, 10)) * 3:

        def measure(size):
            w = rng.uniform(0.2, 1.0, size)
            x, v = rng.normal(size=(2, size, 2))
            return x, v, w / w.sum()

        (x, v, a), (y, w, b) = measure(m), measure(k)
        for lam in (2.0**-20, 2.0**10):
            pairs.append(
                (DiscreteMeasure(lam * x, lam * v, a), DiscreteMeasure(lam * y, lam * w, b))
            )
    return pool, pairs


def test_split_rule_leaves_every_result_as_the_midpoint_rule(monkeypatch):
    # the split point only orders the search: both rules return the same
    # cost bits, plan bytes and horizon, and the least-bound rule needs at
    # most 0.85 times the midpoint rule's LP solves on the 6 x 5 pool
    import otikin.solver as solver

    pool, pairs = _split_sweep()

    def run():
        return [solve(mu, nu) for mu, nu in pairs for solve in (solve_d, solve_tilde_d)]

    least = run()
    monkeypatch.setattr(solver, "_split_fraction", lambda *_: 0.5)
    midpoint = run()
    for new, old in zip(least, midpoint):
        assert new.cost_sq.hex() == old.cost_sq.hex()
        assert new.plan.P.tobytes() == old.plan.P.tobytes()
        assert _time_key(new.optimal_time) == _time_key(old.optimal_time)
        assert new.regime == old.regime
    on_pool = 2 * len(pool)  # solve_d and solve_tilde_d of each pool pair
    assert sum(r.iterations for r in least[:on_pool]) <= 0.85 * sum(
        r.iterations for r in midpoint[:on_pool]
    )


class TestFreeTransportDetection:
    def test_recovers_drift_time(self):
        mu, nu = free_transport_pair(T=1.3)
        det = detect_free_transport(mu, nu)
        assert det.T == pytest.approx(1.3, abs=1e-8)

    def test_identity(self):
        mu, _ = free_transport_pair(T=0.0)
        det = detect_free_transport(mu, mu)
        assert det.T == pytest.approx(0.0, abs=1e-12)

    def test_drift_image_with_merged_atoms(self):
        # nu is mu's drift image at T = 0.7 with mu's two atoms at (0, 1)
        # merged into one: the same measure, though not the same atom list
        mu = DiscreteMeasure([[0.0], [0.0], [1.0]], [[1.0], [1.0], [0.5]], [0.25, 0.25, 0.5])
        nu = DiscreteMeasure([[0.7], [1.35]], [[1.0], [0.5]], [0.5, 0.5])
        res = solve_d(mu, nu)
        assert res.cost_sq <= 1e-10
        assert res.optimal_time.value == pytest.approx(0.7, abs=1e-12)
        assert detect_free_transport(mu, nu).T == pytest.approx(0.7, abs=1e-12)

    def test_generic_pair_rejected(self):
        mu, nu = generic_positive_instance()
        det = detect_free_transport(mu, nu)
        assert not det.found

    def test_both_rest_flag(self):
        rng = np.random.default_rng(9)
        a = DiscreteMeasure(rng.normal(size=(3, 2)), np.zeros((3, 2)), np.full(3, 1 / 3))
        b = DiscreteMeasure(rng.normal(size=(3, 2)), np.zeros((3, 2)), np.full(3, 1 / 3))
        assert detect_free_transport(a, b).both_rest

    def test_zero_cost_classes(self):
        # drift pairs and double-rest pairs sit at zero; a generic pair does not
        mu, nu = free_transport_pair(T=2.0)
        assert solve_d(mu, nu).cost_sq <= 1e-10
        rng = np.random.default_rng(10)
        a = DiscreteMeasure(rng.normal(size=(4, 2)), np.zeros((4, 2)), np.full(4, 0.25))
        b = DiscreteMeasure(rng.normal(size=(4, 2)), np.zeros((4, 2)), np.full(4, 0.25))
        assert solve_d(a, b).cost_sq <= 1e-10
        # weighted 6 x 5 at rest, on the simplex path: every corner value is
        # 12 u A_P >= 0, and the plan of the s = 0 corner costs exactly 0
        mu, nu = _tree_pair(rng, 6, 5, integer=False)
        mu = DiscreteMeasure(mu.positions, np.zeros((6, 2)), mu.weights)
        nu = DiscreteMeasure(nu.positions, np.zeros((5, 2)), nu.weights)
        res = solve_d(mu, nu)
        assert res.cost_sq == 0.0
        assert res.optimal_time.kind == "infinite"
