import itertools

import numpy as np
import pytest

from otikin.lp import MASS_TOL, WarmStart, support_floor, transportation_simplex
from otikin.measures import (
    Coupling,
    DiscreteMeasure,
    PairMoments,
    coincident_blocks,
    measure_from_csv,
    measure_from_json,
    measure_to_csv,
    measure_to_json,
    plan_moments,
    product_coupling,
    pushforward_free_transport,
    validate_measure,
    w2_sq,
)
from otikin.phase import tilde_dT_sq


def random_measure(rng, m, n):
    w = rng.uniform(0.2, 1.0, size=m)
    return DiscreteMeasure(rng.normal(size=(m, n)), rng.normal(size=(m, n)), w / w.sum())


def random_couplings(rng, mu, nu, count):
    """Feasible couplings: convex mixtures of vertices from random costs."""
    vertices = [
        transportation_simplex(rng.normal(size=(mu.size, nu.size)), mu.weights, nu.weights)
        for _ in range(4)
    ]
    out = []
    for _ in range(count):
        lam = rng.dirichlet(np.ones(len(vertices)))
        P = sum(l * V for l, V in zip(lam, vertices))
        out.append(Coupling(P, mu, nu))
    return out


class TestValidation:
    def test_accepts_balanced_weights(self):
        mu = validate_measure(
            {"dim": 1, "points": [{"x": [0.0], "v": [1.0], "w": 0.5},
                                  {"x": [1.0], "v": [0.0], "w": 0.5}]}
        )
        assert mu.size == 2
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rescales_near_unit_sums(self):
        mu = validate_measure(([[0.0], [1.0]], [[0.0], [0.0]], [0.5, 0.5000001]))
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            validate_measure(([[0.0]], [[0.0]], [-0.1]))
        with pytest.raises(ValueError):
            validate_measure(([[0.0], [1.0]], [[0.0], [0.0]], [0.5, 0.6]))
        for w in ([np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(ValueError, match="finite"):
                validate_measure(([[0.0], [1.0]], [[0.0], [0.0]], w))
            with pytest.raises(ValueError, match="finite"):
                DiscreteMeasure([[0.0], [1.0]], [[0.0], [0.0]], w)

    def test_rejects_ragged_and_empty(self):
        with pytest.raises(ValueError):
            validate_measure(
                {"dim": 2, "points": [{"x": [0.0], "v": [0.0, 1.0], "w": 1.0}]}
            )
        with pytest.raises(ValueError):
            validate_measure({"dim": 1, "points": []})

    @pytest.mark.parametrize(
        "dim, x, v",
        [
            (2.7, [0.0, 1.0], [0.0, 1.0]),
            (2.0, [0.0, 1.0], [0.0, 1.0]),
            (True, [0.0], [0.0]),
            ("1", [0.0], [0.0]),
            (0, [], []),
        ],
    )
    def test_rejects_dim_that_is_no_integer_of_at_least_1(self, dim, x, v):
        # a float is not rounded, nor a bool read as 1
        with pytest.raises(ValueError, match="dim must be an integer of at least 1"):
            validate_measure({"dim": dim, "points": [{"x": x, "v": v, "w": 1.0}]})

    @pytest.mark.parametrize("x, v", [([[0.0]], [0.0]), ([0.0], [[1.0]]), (0.0, 0.0)])
    def test_rejects_coordinates_that_are_no_flat_list(self, x, v):
        with pytest.raises(ValueError, match="atom x and v must be flat lists"):
            validate_measure({"dim": 1, "points": [{"x": x, "v": v, "w": 1.0}]})

    @pytest.mark.parametrize(
        "point, message",
        [
            ({"x": [0], "v": [0], "w": True}, 'point 0 "w" must be a number, got True'),
            ({"x": [0], "v": [0], "w": "1"}, "point 0 \"w\" must be a number, got '1'"),
            ({"x": ["0.5"], "v": [0], "w": 1}, "point 0 \"x\" must hold numbers only, got ['0.5']"),
            ({"x": [0], "v": [True], "w": 1}, 'point 0 "v" must hold numbers only, got [True]'),
            ({"x": [0], "v": [None], "w": 1}, 'point 0 "v" must hold numbers only, got [None]'),
        ],
        ids=["bool-w", "str-w", "str-x", "bool-v", "null-v"],
    )
    def test_rejects_entries_that_are_no_number(self, point, message):
        # JSON true and "1" would convert to 1.0; a number is an int or a float
        with pytest.raises(ValueError) as exc:
            validate_measure({"dim": 1, "points": [point]})
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "point, message",
        [
            ({"v": [0], "w": 1}, 'point 1 has no "x"'),
            ({"x": [0], "w": 1}, 'point 1 has no "v"'),
            ({"x": [0], "v": [0]}, 'point 1 has no "w"'),
            (3, 'point 1 must be an object with "x", "v" and "w"'),
            ([0, 0, 1], 'point 1 must be an object with "x", "v" and "w"'),
        ],
        ids=["no-x", "no-v", "no-w", "number", "list"],
    )
    def test_point_errors_name_the_atom(self, point, message):
        good = {"x": [0], "v": [0], "w": 0.5}
        with pytest.raises(ValueError) as exc:
            validate_measure({"dim": 1, "points": [good, point]})
        assert str(exc.value) == message


class TestIO:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(0)
        mu = random_measure(rng, 5, 3)
        import json

        back = measure_from_json(json.dumps(measure_to_json(mu)))
        assert np.allclose(back.positions, mu.positions)
        assert np.allclose(back.velocities, mu.velocities)
        assert np.allclose(back.weights, mu.weights)

    def test_csv_roundtrip(self):
        rng = np.random.default_rng(1)
        mu = random_measure(rng, 4, 2)
        back = measure_from_csv(measure_to_csv(mu))
        assert np.allclose(back.positions, mu.positions)
        assert np.allclose(back.velocities, mu.velocities)
        assert np.allclose(back.weights, mu.weights)

    def test_csv_rejects_bad_header(self):
        with pytest.raises(ValueError):
            measure_from_csv("a,b,c\n1,2,3\n")
        # the columns are x1..xn, v1..vn, w in this order and no other
        for header in ("v1,x1,w", "x2,x1,v1,v2,w", "x1,x2,v2,v1,w", "w,x1,v1"):
            row = ",".join(["1"] * len(header.split(",")))
            with pytest.raises(ValueError, match="unexpected measure CSV header"):
                measure_from_csv(f"{header}\n{row}\n")

    def test_csv_header_cells_are_stripped(self):
        mu = measure_from_csv(" x1 , x2 ,v1,v2 , w \n1,2,3,4,1\n")
        assert mu.positions.tolist() == [[1.0, 2.0]]
        assert mu.velocities.tolist() == [[3.0, 4.0]]


class TestCouplings:
    def test_product_singletons(self):
        mu = DiscreteMeasure([[0.0]], [[0.0]], [1.0])
        nu = DiscreteMeasure([[1.0]], [[0.0]], [1.0])
        assert np.allclose(product_coupling(mu, nu).P, [[1.0]])

    def test_product_uniform(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [[0.0], [0.0]], [0.5, 0.5])
        P = product_coupling(mu, mu).P
        assert np.allclose(P, 0.25)

    def test_product_marginals_random(self):
        rng = np.random.default_rng(2)
        mu = random_measure(rng, 6, 2)
        nu = random_measure(rng, 4, 2)
        P = product_coupling(mu, nu).P
        assert np.max(np.abs(P.sum(axis=1) - mu.weights)) <= 1e-15
        assert np.max(np.abs(P.sum(axis=0) - nu.weights)) <= 1e-15
        assert P.min() >= 0.0

    def test_corrupted_plan_reported(self):
        rng = np.random.default_rng(3)
        mu = random_measure(rng, 3, 1)
        nu = random_measure(rng, 3, 1)
        P = product_coupling(mu, nu).P.copy()
        P[0, 0] += 0.05
        with pytest.raises(ValueError, match=r"marginal violation 5\.000e-02"):
            Coupling(P, mu, nu)

    def test_invalid_coupling_rejected(self):
        rng = np.random.default_rng(4)
        mu = random_measure(rng, 3, 1)
        nu = random_measure(rng, 3, 1)
        with pytest.raises(ValueError):
            Coupling(np.full((3, 3), 0.2), mu, nu)

    def test_support_keeps_cells_above_the_flow_floor_row_major(self):
        # the simplex's floor MASS_ROUNDING_TOL * min(w_i, u_j), here 5e-13
        # per cell: a cell holds mass only above it, whatever the absolute size
        mu = DiscreteMeasure([[0.0], [1.0]], [[0.0], [0.0]], [0.5, 0.5])
        P = np.array([[0.5, 6e-13], [5e-13, 0.5]])
        assert Coupling(P, mu, mu).support() == [(0, 0), (0, 1), (1, 1)]
        nu = DiscreteMeasure([[0.0], [1.0]], [[0.0], [0.0]], [1.0 - 1e-16, 1e-16])
        P = np.array([[0.5, 0.0], [0.5 - 1e-16, 1e-16]])
        assert Coupling(P, mu, nu).support() == [(0, 0), (1, 0), (1, 1)]


class TestMoments:
    def test_singleton_example(self):
        mu = DiscreteMeasure([[0.0]], [[0.0]], [1.0])
        nu = DiscreteMeasure([[1.0]], [[0.0]], [1.0])
        m = plan_moments(mu, nu, product_coupling(mu, nu))
        assert (m.A, m.B, m.C, m.D) == pytest.approx((1.0, 0.0, 0.0, 0.0))

    def test_identity_coupling_moments(self):
        rng = np.random.default_rng(5)
        mu = random_measure(rng, 5, 2)
        P = np.diag(mu.weights)
        m = plan_moments(mu, mu, Coupling(P, mu, mu))
        assert m.A == pytest.approx(0.0, abs=1e-15)
        assert m.B == pytest.approx(0.0, abs=1e-15)
        assert m.D == pytest.approx(0.0, abs=1e-15)
        assert m.C == pytest.approx(4.0 * mu.velocity_norm_sq(), rel=1e-12)

    def test_sum_c_plus_d_is_coupling_free(self):
        rng = np.random.default_rng(6)
        mu = random_measure(rng, 6, 2)
        nu = random_measure(rng, 5, 2)
        ref = 2.0 * (mu.velocity_norm_sq() + nu.velocity_norm_sq())
        for plan in random_couplings(rng, mu, nu, 100):
            m = plan_moments(mu, nu, plan)
            assert m.C + m.D == pytest.approx(ref, rel=1e-10)

    def test_cauchy_schwarz_on_random_couplings(self):
        rng = np.random.default_rng(7)
        mu = random_measure(rng, 4, 3)
        nu = random_measure(rng, 6, 3)
        for plan in random_couplings(rng, mu, nu, 50):
            m = plan_moments(mu, nu, plan)
            assert abs(m.B) <= np.sqrt(m.A * m.C) + 1e-10


class TestPairMoments:
    def atomwise(self, mu, nu, fn):
        return np.array(
            [[fn(mu.atom(i), nu.atom(j)) for j in range(nu.size)] for i in range(mu.size)]
        )

    @pytest.mark.parametrize("T", [1e-2, 1.0, 1e2])
    def test_fixed_T_cost_matches_closed_form(self, T):
        rng = np.random.default_rng(13)
        mu, nu = random_measure(rng, 5, 2), random_measure(rng, 4, 2)
        cost = PairMoments(mu, nu).fixed_T_cost(T)
        ref = self.atomwise(mu, nu, lambda a, b: tilde_dT_sq(a, b, T))
        # The expanded form cancels where the drift nearly vanishes at small T,
        # so the error is measured against the largest entry.
        assert np.max(np.abs(cost - ref)) <= 1e-10 * np.max(ref)

    def test_infinite_T_cost_matches_closed_form(self):
        rng = np.random.default_rng(14)
        mu, nu = random_measure(rng, 5, 2), random_measure(rng, 4, 2)
        ref = self.atomwise(
            mu, nu,
            lambda a, b: 3.0 * np.dot(a.v + b.v, a.v + b.v) + np.dot(b.v - a.v, b.v - a.v),
        )
        assert np.allclose(PairMoments(mu, nu).infinite_T_cost(), ref, rtol=1e-14, atol=0.0)

    def test_plan_moments_match_atomwise_sums(self):
        rng = np.random.default_rng(15)
        mu, nu = random_measure(rng, 5, 2), random_measure(rng, 4, 2)
        for plan in random_couplings(rng, mu, nu, 5):
            m = plan_moments(mu, nu, plan)
            sums = np.zeros(4)
            for i in range(mu.size):
                for j in range(nu.size):
                    a, b = mu.atom(i), nu.atom(j)
                    gap, vsum, vdiff = b.x - a.x, a.v + b.v, b.v - a.v
                    sums += plan.P[i, j] * np.array(
                        [gap @ gap, gap @ vsum, vsum @ vsum, vdiff @ vdiff]
                    )
            assert np.allclose((m.A, m.B, m.C, m.D), sums, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("m, k", [(5, 4), (33, 47), (129, 129)])
    def test_plan_moments_of_any_layout_equal_separate_sums(self, m, k):
        # one reduction over the stacked matrices gives every moment the bits
        # of its own sum, also on Fortran-ordered and strided plans
        rng = np.random.default_rng(m + k)
        mu, nu = random_measure(rng, m, 2), random_measure(rng, k, 2)
        pm = PairMoments(mu, nu)
        floor = support_floor(mu.weights, nu.weights)
        big = rng.uniform(size=(2 * m, 3 * k))
        for P in (np.asfortranarray(big[:m, :k]), big[::2, ::3]):
            assert not P.flags.c_contiguous
            got = pm.of(P)
            A, B, C, D = (float(np.sum(P * M, axis=(-2, -1))) for M in (pm.A, pm.B, pm.C, pm.D))
            assert [x.hex() for x in (got.A, got.B, got.C, got.D)] == [
                x.hex() for x in (A, B, C, D)
            ]
            assert got.keeps_positions == (not np.any(pm.distinct & (P > floor)))

    @pytest.mark.parametrize("k", range(9, 16))
    def test_keeps_positions_iff_support_holds_no_distinct_cell(self, k):
        # a plan keeps positions exactly when Coupling.support() lists no cell
        # between distinct positions, also when one atom holds mass 10^-k;
        # the target's atoms sit at the source's positions, and on odd seeds
        # its small atom moves to a new one, so that every plan moves it
        flags = []
        for seed in range(6):
            rng = np.random.default_rng(100 * k + seed)
            m = 4
            w = rng.uniform(0.2, 1.0, size=m)
            w[:-1] *= (1.0 - 10.0**-k) / w[:-1].sum()
            w[-1] = 10.0**-k
            X = rng.integers(0, 3, size=(m, 1)).astype(float)
            mu = DiscreteMeasure(X, rng.normal(size=(m, 1)), w)
            perm = rng.permutation(m)
            Y = X[perm]
            if seed % 2:
                Y[perm == m - 1] = 7.0
            nu = DiscreteMeasure(Y, rng.normal(size=(m, 1)), w[perm])
            pm = PairMoments(mu, nu)
            warm = WarmStart(mu.weights, nu.weights)
            costs = [pm.D + lam * pm.A for lam in (0.0, 1.0, 100.0)]
            costs += [rng.normal(size=(m, m)) for _ in range(4)]
            for cost in costs:
                P = transportation_simplex(cost, mu.weights, nu.weights, warm)
                support = Coupling(P, mu, nu).support()
                keeps = pm.of(P).keeps_positions
                assert keeps == (not any(pm.distinct[i, j] for i, j in support))
                assert pm.of_each(P[None])[4].tolist() == [keeps]
                flags.append(keeps)
        assert True in flags and False in flags

    def test_mismatched_plan_rejected(self):
        rng = np.random.default_rng(16)
        mu, nu = random_measure(rng, 3, 1), random_measure(rng, 2, 1)
        with pytest.raises(ValueError):
            PairMoments(mu, nu).of(np.full((2, 3), 1.0 / 6.0))


class TestW2:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(8)
        mu = random_measure(rng, 5, 2)
        assert w2_sq(mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_singletons(self):
        mu = DiscreteMeasure([[0.0]], [[0.0]], [1.0])
        nu = DiscreteMeasure([[1.0]], [[0.0]], [1.0])
        assert w2_sq(mu, nu) == pytest.approx(1.0)

    def test_two_point_shift_matches_brute_force(self):
        # uniform {0, 1} vs {1, 2} at rest: the two matchings cost 1 and 2
        mu = DiscreteMeasure([[0.0], [1.0]], [[0.0], [0.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[1.0], [2.0]], [[0.0], [0.0]], [0.5, 0.5])
        matchings = [0.5 * (1 + 1), 0.5 * (4 + 0)]
        assert w2_sq(mu, nu) == pytest.approx(min(matchings))

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        mu = random_measure(rng, 4, 2)
        nu = random_measure(rng, 6, 2)
        assert w2_sq(mu, nu) == pytest.approx(w2_sq(nu, mu), rel=1e-10)


class TestPushforward:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(10)
        mu = random_measure(rng, 4, 2)
        img = pushforward_free_transport(mu, 0.0)
        assert np.allclose(img.positions, mu.positions)

    def test_velocity_moment_invariant(self):
        rng = np.random.default_rng(11)
        mu = random_measure(rng, 6, 3)
        img = pushforward_free_transport(mu, 2.5)
        assert img.velocity_norm_sq() == pytest.approx(mu.velocity_norm_sq(), rel=1e-14)
        assert np.allclose(img.positions, mu.positions + 2.5 * mu.velocities)


def _blocks(pts_a, w_a, pts_b, w_b, tol):
    """``coincident_blocks`` on points within a Euclidean ``tol``, masses
    within max(tol, MASS_TOL)."""
    gap = pts_b[None, :, :] - pts_a[:, None, :]
    close = np.sum(gap * gap, axis=2) <= tol * tol
    return coincident_blocks(close, w_a, w_b, max(tol, MASS_TOL))


def test_point_set_matcher():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(5, 2))
    w = np.full(5, 0.2)
    perm = rng.permutation(5)
    blocks = _blocks(pts, w, pts[perm], w, 1e-9)
    assert blocks is not None
    for rows, cols in blocks:
        for ia, ib in itertools.product(rows, cols):
            assert np.allclose(pts[ia], pts[perm][ib])
    assert _blocks(pts, w, pts + 0.5, w, 1e-9) is None
    # atoms at one point count by their total mass, in either set
    pts = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 0.0]])
    merged = np.array([[2.0, 0.0], [0.0, 1.0]])
    blocks = _blocks(pts, np.array([0.25, 0.25, 0.5]), merged, np.array([0.5, 0.5]), 1e-9)
    assert sorted((r.tolist(), c.tolist()) for r, c in blocks) == [([0, 1], [1]), ([2], [0])]
    assert _blocks(merged, np.array([0.5, 0.5]), pts, np.array([0.25, 0.25, 0.5]), 1e-9)
    # unequal mass on one block, or a point of either set left out
    assert _blocks(pts, np.array([0.2, 0.2, 0.6]), merged, np.array([0.5, 0.5]), 1e-9) is None
    assert _blocks(pts[:2], np.array([0.5, 0.5]), merged, np.array([0.5, 0.5]), 1e-9) is None
    assert _blocks(merged, np.array([0.5, 0.5]), pts[:2], np.array([0.5, 0.5]), 1e-9) is None
    # masses balance, but the point at 0 joins two blocks and the one at 10 none
    a, b = np.array([[-1.0], [1.0]]), np.array([[0.0], [10.0], [2.0]])
    assert _blocks(a, np.array([0.25, 0.75]), b, np.array([0.25, 0.25, 0.5]), 1.0) is None
