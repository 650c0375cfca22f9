import hashlib
import itertools

import numpy as np
import pytest

from otikin.dynamics import (
    FINITE_CHECK_STEPS,
    ForceField,
    SplineEnsemble,
    _real_roots_by_degree,
    build_dynamical_plan,
    interpolate_at,
    metric_derivative_probe,
    moment_report,
    monge_mather_check,
    path_action,
    reparametrize,
    spline_forcing,
    vlasov_integrate,
)
from otikin.measures import (
    Coupling,
    DiscreteMeasure,
    product_coupling,
    pushforward_free_transport,
)
from otikin.phase import CubicSpline, PhaseState, spline_from_endpoints, tilde_dT_sq
from otikin.scenarios import (
    crossing_ensemble,
    factor2_trajectory,
    harmonic_single,
    nonunique_two_atom_instance,
    random_uniform_instance,
)
from otikin.solver import brute_force_oracle, solve_d, solve_fixed_T
from otikin.verification import _packaged_trajectories


def crossing_at(t_meet: float, T: float = 1.0) -> SplineEnsemble:
    """Two connectors that meet in phase at ``t_meet``, built like ``crossing_ensemble``."""
    s1 = spline_from_endpoints(PhaseState([0.0], [1.0]), PhaseState([1.0], [0.0]), T)
    meet = PhaseState(s1.position(t_meet), s1.velocity(t_meet))
    head = spline_from_endpoints(PhaseState([1.0], [-1.0]), meet, t_meet)
    dst2 = PhaseState(head.position(T), head.velocity(T))
    s2 = spline_from_endpoints(PhaseState([1.0], [-1.0]), dst2, T)
    return SplineEnsemble(splines=(s1, s2), masses=np.array([0.5, 0.5]), horizon=T)


def dense_min_separation(e: SplineEnsemble, n_times: int = 100_000) -> float:
    """Least phase separation of the eligible pairs over a dense time grid.

    Each pair's grid minimum is refined once by a second grid of the same size
    over the two cells around it, so the grid spacing adds no visible error.
    """
    T = e.horizon

    def state(s, t):
        return np.concatenate([s.position(t), s.velocity(t)])

    def same(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.max(np.abs(a)))

    best = np.inf
    grid = np.linspace(0.0, T, n_times)[:, None]
    h = T / (n_times - 1)
    for i, si in enumerate(e.splines):
        for sj in e.splines[i + 1 :]:
            if same(state(si, 0.0), state(sj, 0.0)) or same(state(si, T), state(sj, T)):
                continue
            d3, d2, d1, d0 = si.a3 - sj.a3, si.a2 - sj.a2, si.a1 - sj.a1, si.a0 - sj.a0

            def sep(t):
                dx = ((d3 * t + d2) * t + d1) * t + d0
                dv = (3.0 * d3 * t + 2.0 * d2) * t + d1
                return np.sqrt(np.sum(dx * dx + dv * dv, axis=1))

            coarse = sep(grid)
            t0 = float(grid[int(np.argmin(coarse)), 0])
            fine = np.linspace(max(0.0, t0 - h), min(T, t0 + h), n_times)[:, None]
            best = min(best, float(np.min(coarse)), float(np.min(sep(fine))))
    return best


class TestDynamicalPlan:
    def test_singleton_action(self):
        mu = DiscreteMeasure([[0.0]], [[0.0]], [1.0])
        nu = DiscreteMeasure([[1.0]], [[0.0]], [1.0])
        ens = build_dynamical_plan(mu, nu, product_coupling(mu, nu), 1.0)
        assert ens.action() == pytest.approx(12.0)

    def test_two_atom_optimal_action(self):
        mu, nu = nonunique_two_atom_instance()
        res = solve_fixed_T(mu, nu, 1.0)
        ens = build_dynamical_plan(mu, nu, res.plan, 1.0)
        assert ens.action() == pytest.approx(30.0, rel=1e-12)

    def test_free_transport_plan_is_straight(self):
        rng = np.random.default_rng(0)
        mu, _ = random_uniform_instance(rng, 4, 2)
        from otikin.measures import pushforward_free_transport

        nu = pushforward_free_transport(mu, 0.5)
        res = solve_fixed_T(mu, nu, 0.5)
        ens = build_dynamical_plan(mu, nu, res.plan, 0.5)
        assert ens.action() == pytest.approx(0.0, abs=1e-12)

    def test_action_matches_plan_cost(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            mu, nu = random_uniform_instance(rng, 6, 2)
            res = solve_fixed_T(mu, nu, 1.0)
            ens = build_dynamical_plan(mu, nu, res.plan, 1.0)
            assert ens.action() == pytest.approx(res.cost_sq, rel=1e-10)


class TestInterpolation:
    def test_endpoints_reproduced(self):
        rng = np.random.default_rng(2)
        mu, nu = random_uniform_instance(rng, 5, 2)
        res = solve_fixed_T(mu, nu, 1.0)
        ens = build_dynamical_plan(mu, nu, res.plan, 1.0)
        start = interpolate_at(ens, 0.0)
        # bitwise at t = 0 (evaluation returns the stored coefficients)
        for i, (src, _) in enumerate(res.plan.support()):
            assert np.array_equal(start.positions[i], mu.positions[src])
            assert np.array_equal(start.velocities[i], mu.velocities[src])
        end = interpolate_at(ens, 1.0)
        for i, (_, dst) in enumerate(res.plan.support()):
            assert end.positions[i] == pytest.approx(nu.positions[dst], abs=1e-12)
            assert end.velocities[i] == pytest.approx(nu.velocities[dst], abs=1e-12)

    def test_midpoint_of_drift_spline(self):
        mu = DiscreteMeasure([[0.0]], [[1.0]], [1.0])
        from otikin.measures import pushforward_free_transport

        nu = pushforward_free_transport(mu, 2.0)
        ens = build_dynamical_plan(mu, nu, product_coupling(mu, nu), 2.0)
        mid = interpolate_at(ens, 1.0)
        assert mid.positions[0] == pytest.approx([1.0])
        assert mid.velocities[0] == pytest.approx([1.0])

    def test_out_of_range_rejected(self):
        mu, nu = nonunique_two_atom_instance()
        ens = build_dynamical_plan(mu, nu, product_coupling(mu, nu), 1.0)
        with pytest.raises(ValueError):
            interpolate_at(ens, 1.5)


class TestMongeMather:
    def test_optimal_plan_separated(self):
        rng = np.random.default_rng(3)
        mu, nu = random_uniform_instance(rng, 6, 2)
        res = solve_fixed_T(mu, nu, 1.0)
        ens = build_dynamical_plan(mu, nu, res.plan, 1.0)
        rep = monge_mather_check(ens)
        assert not rep.violated
        assert rep.min_separation > 1e-6

    def test_identical_endpoint_pairs_exempt(self):
        mu = DiscreteMeasure([[0.0], [0.0]], [[1.0], [1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[1.0], [1.0]], [[1.0], [1.0]], [0.5, 0.5])
        ens = build_dynamical_plan(mu, nu, product_coupling(mu, nu), 1.0)
        rep = monge_mather_check(ens)
        assert not rep.violated  # all pairs coincide, nothing to compare
        assert rep.min_separation == np.inf

    def test_crossing_pair_flagged(self):
        rep = monge_mather_check(crossing_ensemble())
        assert rep.violated
        assert rep.min_separation <= 1e-9
        assert rep.offending_time == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("t_meet", [0.01, 0.99])
    def test_crossing_near_an_end_flagged(self, t_meet):
        rep = monge_mather_check(crossing_at(t_meet))
        assert rep.violated
        assert rep.offending_pair == (0, 1)
        assert rep.offending_time == pytest.approx(t_meet, abs=1e-6)

    @pytest.mark.parametrize(
        "velocities, expected",
        [([1.0, 0.5], np.sqrt(0.5)), ([0.5, 1.0], np.sqrt(1.25))],
        ids=["closing", "opening"],
    )
    def test_minimum_at_an_end_of_the_horizon(self, velocities, expected):
        # Two drifting atoms: the gap 1 + (v1 - v0) t is least at t = T when
        # closing and at t = 0 when opening.
        mu = DiscreteMeasure([[0.0], [1.0]], [[v] for v in velocities], [0.5, 0.5])
        nu = pushforward_free_transport(mu, 1.0)
        ens = build_dynamical_plan(mu, nu, Coupling(np.diag([0.5, 0.5]), mu, nu), 1.0)
        rep = monge_mather_check(ens)
        assert not rep.violated
        assert rep.min_separation == pytest.approx(expected, rel=1e-12)

    def test_shared_start_pair_exempt(self):
        # One start state, two end states: the connectors differ by
        # t^2 (a + b t), which cannot vanish with its derivative inside (0, T).
        mu = DiscreteMeasure([[0.0]], [[1.0]], [1.0])
        nu = DiscreteMeasure([[1.0], [-1.0]], [[0.0], [2.0]], [0.5, 0.5])
        rep = monge_mather_check(build_dynamical_plan(mu, nu, product_coupling(mu, nu), 1.0))
        assert not rep.violated
        assert rep.min_separation == np.inf

    def test_exact_minimum_on_weighted_ensembles(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 6:
            m, k = (int(v) for v in rng.integers(2, 6, size=2))
            n = int(rng.integers(1, 4))
            mu = DiscreteMeasure(
                rng.normal(size=(m, n)), rng.normal(size=(m, n)), rng.dirichlet(np.ones(m))
            )
            nu = DiscreteMeasure(
                rng.normal(size=(k, n)), rng.normal(size=(k, n)), rng.dirichlet(np.ones(k))
            )
            res = solve_d(mu, nu)
            if not res.optimal_time.is_finite:
                continue
            ens = build_dynamical_plan(mu, nu, res.plan, res.optimal_time.value)
            dense = dense_min_separation(ens)
            rep = monge_mather_check(ens)
            if dense == np.inf:
                assert rep.min_separation == np.inf
                continue
            # At most the sampled minimum, up to rounding in the evaluation.
            assert rep.min_separation <= dense * (1.0 + 1e-12)
            assert rep.min_separation == pytest.approx(dense, rel=1e-9)
            checked += 1


def polyroots_min_separation(si, sj) -> tuple[float, int]:
    """Least phase separation of two splines over [0, T] from the real roots
    of f', f = |dx|^2 + |dv|^2 built coordinate by coordinate in unscaled
    time, one ``polyroots`` call for the pair; also the number of roots."""
    P = np.polynomial.polynomial
    T = si.horizon
    p = np.array([si.a0 - sj.a0, si.a1 - sj.a1, si.a2 - sj.a2, si.a3 - sj.a3])
    f = np.zeros(1)
    for c in p.T:
        f = P.polyadd(f, P.polyadd(P.polymul(c, c), P.polymul(P.polyder(c), P.polyder(c))))
    roots = P.polyroots(P.polyder(f)).real
    t = np.concatenate([[0.0, T], np.clip(roots, 0.0, T)])
    sep = np.sqrt(sum(P.polyval(t, c) ** 2 + P.polyval(t, P.polyder(c)) ** 2 for c in p.T))
    return float(np.min(sep)), roots.size


def degree_class_ensemble(T: float = 1.5) -> SplineEnsemble:
    """Five splines on [0, T]: a base and four that add to it a constant, a
    linear, a quadratic and a cubic term. The differences of the pairs are
    constant (a translation of both endpoints), linear, quadratic or cubic,
    and half of f' then has degree 0, 1, 3 or 5. Every coefficient is dyadic,
    so the differences and their zero coefficients are exact."""
    base = np.array([[0.0, 0.0], [-1.0, 2.0], [1.0, 0.5], [0.5, -0.25]])  # a0..a3
    added = [
        [[2.0, 0.0]],
        [[0.0, 1.0], [1.0, -1.0]],
        [[-1.0, 0.5], [0.5, 0.0], [1.0, 1.0]],
        [[0.5, -1.0], [0.0, 0.5], [-0.5, 0.25], [1.0, -0.5]],
    ]
    coefs = [base] + [base + np.pad(np.array(d), ((0, 4 - len(d)), (0, 0))) for d in added]
    splines = tuple(CubicSpline(a3=c[3], a2=c[2], a1=c[1], a0=c[0], horizon=T) for c in coefs)
    return SplineEnsemble(splines=splines, masses=np.full(5, 0.2), horizon=T)


def test_every_degree_class_of_the_injectivity_roots():
    e = degree_class_ensemble()
    references, degrees = [], set()
    for i, j in itertools.combinations(range(5), 2):
        ref, n_roots = polyroots_min_separation(e.splines[i], e.splines[j])
        degrees.add(n_roots)
        references.append(ref)
        pair = SplineEnsemble(
            splines=(e.splines[i], e.splines[j]), masses=np.full(2, 0.5), horizon=e.horizon
        )
        assert monge_mather_check(pair).min_separation == pytest.approx(ref, rel=1e-12)
    assert degrees == {0, 1, 3, 5}
    # the constant pair: the separation |(2, 0)| at every time
    assert references[0] == 2.0
    assert min(references) < 2.0
    rep = monge_mather_check(e)
    assert not rep.violated
    assert rep.min_separation == pytest.approx(min(references), rel=1e-12)
    dense = dense_min_separation(e)
    assert rep.min_separation <= dense * (1.0 + 1e-12)
    assert rep.min_separation == pytest.approx(dense, rel=1e-9)


def test_stacked_roots_equal_polyroots_bit_for_bit():
    # rows of every trimmed degree 0..5, real and complex roots, and a zero row
    rng = np.random.default_rng(13)
    coef = rng.normal(size=(61, 6))
    for r in range(60):
        coef[r, 6 - r % 6 :] = 0.0
    coef[60] = 0.0
    found = {}
    for degree, rows, roots in _real_roots_by_degree(coef):
        assert roots.shape == (rows.size, degree)
        found.update(zip(rows.tolist(), roots))
    for r, c in enumerate(coef):
        reference = np.polynomial.polynomial.polyroots(c).real
        if reference.size == 0:
            assert r not in found
        else:
            assert found[r].tobytes() == reference.tobytes()


def injectivity_pin_ensembles():
    """The ensembles of a certification sweep: for 40 seeded uniform pairs the
    fixed-horizon plan at T = 1 and, when its horizon is finite, the oracle's
    plan at that horizon; then the crossing ensemble."""
    rng = np.random.default_rng(31)
    ensembles = []
    for i in range(40):
        mu, nu = random_uniform_instance(rng, 2 + i % 5, 1 + i % 3)
        ensembles.append(build_dynamical_plan(mu, nu, solve_fixed_T(mu, nu, 1.0).plan, 1.0))
        orc = brute_force_oracle(mu, nu)
        if orc.optimal_time.is_finite:
            ensembles.append(build_dynamical_plan(mu, nu, orc.plan, orc.optimal_time.value))
    ensembles.append(crossing_ensemble())
    return ensembles


# SHA-256 of every ``monge_mather_check`` report on ``injectivity_pin_ensembles``.
INJECTIVITY_PIN = "b067de8de70f757cd776c6be50f03e12a84be0b31e56c993bed02b4f9b4ddb34"


def test_injectivity_reports_pinned():
    h = hashlib.sha256()
    for e in injectivity_pin_ensembles():
        rep = monge_mather_check(e)
        t = None if rep.offending_time is None else rep.offending_time.hex()
        h.update(repr((rep.min_separation.hex(), rep.violated, rep.offending_pair, t)).encode())
    assert h.hexdigest() == INJECTIVITY_PIN


class TestVlasov:
    def test_free_transport_exact(self):
        rng = np.random.default_rng(4)
        mu0, _ = random_uniform_instance(rng, 4, 2)
        traj = vlasov_integrate(mu0, ForceField.free(), 0.0, 1.0, 0.05)
        for t in (0.25, 0.5, 1.0):
            m = traj.measure_at(t)
            assert np.allclose(m.positions, mu0.positions + t * mu0.velocities, atol=1e-13)
            assert np.allclose(m.velocities, mu0.velocities, atol=1e-14)

    def test_harmonic_period(self):
        mu0 = DiscreteMeasure([[1.0]], [[0.0]], [1.0])
        period = 2.0 * np.pi
        dt = period / 4000
        traj = vlasov_integrate(mu0, ForceField.harmonic(), 0.0, period, dt)
        end = traj.measure_at(traj.times[-1])
        assert end.positions[0, 0] == pytest.approx(1.0, abs=10 * dt**4)
        assert end.velocities[0, 0] == pytest.approx(0.0, abs=10 * dt**4)

    def test_spline_forcing_reproduces_endpoint(self):
        mu = DiscreteMeasure([[0.0]], [[0.0]], [1.0])
        nu = DiscreteMeasure([[1.0]], [[0.5]], [1.0])
        ens = build_dynamical_plan(mu, nu, product_coupling(mu, nu), 1.0)
        traj = vlasov_integrate(mu, spline_forcing(ens), 0.0, 1.0, 1e-3)
        end = traj.measure_at(1.0)
        assert end.positions[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert end.velocities[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_bad_steps_rejected(self):
        mu0 = DiscreteMeasure([[0.0]], [[1.0]], [1.0])
        with pytest.raises(ValueError):
            vlasov_integrate(mu0, ForceField.free(), 0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            vlasov_integrate(mu0, ForceField.free(), 0.0, 1.0, 0.3)

    def test_nonfinite_force_rejected(self):
        mu0 = DiscreteMeasure([[0.0]], [[1.0]], [1.0])
        bad = ForceField(lambda t, X, V: np.full_like(X, np.nan), tag="bad")
        with pytest.raises(ValueError):
            vlasov_integrate(mu0, bad, 0.0, 1.0, 0.1)

    @pytest.mark.parametrize(
        "force, t1, dt, message",
        [
            (lambda t, X, V: _nan(X), 1.0, 0.1, "non-finite force at t=0.0"),
            (lambda t, X, V: _nan(X) if t > 0.42 else -X, 1.0, 0.1,
             "non-finite force at t=0.45"),
            (lambda t, X, V: _nan(X) if t == 0.1 * 6 else -X, 1.0, 0.1,
             "non-finite force at t=0.6000000000000001"),
            (lambda t, X, V: _fail(t) if t > 0.7 else _nan(X) if t > 0.42 else -X, 1.0, 0.1,
             "non-finite force at t=0.45"),
            (lambda t, X, V: np.full_like(X, 1e307 * t * t), 5.0, 0.01,
             "non-finite state after step at t=1.73"),
        ],
        ids=["from-start", "mid-window-stage", "grid-state-only", "raises-later",
             "overflowing-state"],
    )
    def test_nonfinite_names_first_failure(self, force, t1, dt, message):
        # grid-state-only: the grid time 0.1 * 6 is 0.6000000000000001, while the
        # last stage of the step before it runs at 0.5 + 0.1 = 0.6, so only the
        # recorded sample is NaN. raises-later: a NaN comes before the force fails.
        # overflowing-state: F = 1e307 t^2 overflows the velocity in the step at 1.73.
        mu0 = DiscreteMeasure([[0.0]], [[1.0]], [1.0])
        with pytest.raises(ValueError) as exc:
            vlasov_integrate(mu0, ForceField(force), 0.0, t1, dt)
        assert str(exc.value) == message

    def test_unrepeatable_force_rejected(self):
        # NaN at the grid time 0.6000000000000001 on the first call only
        seen = set()

        def once(t, X, V):
            first = t not in seen
            seen.add(t)
            return _nan(X) if first and t == 0.1 * 6 else -X

        mu0 = DiscreteMeasure([[0.0]], [[1.0]], [1.0])
        with pytest.raises(ValueError, match=r"not a function of \(t, x, v\)"):
            vlasov_integrate(mu0, ForceField(once), 0.0, 1.0, 0.1)

    def test_force_evaluations_counted(self):
        calls = []

        def counted(t, X, V):
            calls.append(t)
            return _nan(X) if t > 1.0 else -X

        mu0 = DiscreteMeasure([[1.0], [0.0]], [[0.0], [1.0]], [0.5, 0.5])
        vlasov_integrate(mu0, ForceField(counted), 0.0, 1.0, 0.01)
        assert len(calls) == 4 * 100 + 1
        # the NaN first shows in the step from t = 1; the run ends with the block
        # that holds it, long before the window of 8 blocks would
        calls.clear()
        dt = 1.0 / 64
        with pytest.raises(ValueError, match="non-finite force at t=1.0078125"):
            vlasov_integrate(mu0, ForceField(counted), 0.0, 8 * FINITE_CHECK_STEPS * dt, dt)
        assert len(calls) <= 1 + 4 * FINITE_CHECK_STEPS + 4

    def test_builtin_tags(self):
        f = ForceField.from_tag("damped:0.5")
        X = np.zeros((2, 1))
        V = np.ones((2, 1))
        assert np.allclose(f.evaluate(0.0, X, V), -0.5)
        g = ForceField.poly([[1.0], [2.0]])  # F(t) = 1 + 2 t
        assert np.allclose(g.evaluate(0.5, X, V), 2.0)
        with pytest.raises(ValueError):
            ForceField.from_tag("unknown")


def _nan(X):
    return np.full_like(X, np.nan)


def _fail(t):
    raise RuntimeError(f"force undefined at t={t}")


# SHA-256 of the times, states and forces of runs whose force depends on t
# alone and jumps (the three brake-ratio trajectories), on v (damped:0.5) and
# on t per particle (spline forcing along a fixed-horizon plan).
TRAJECTORY_PIN = "6cd355992ff626df35539339d656998c7f68241cd58b97503d91208a7daeb031"


def test_trajectory_bytes_pinned():
    mu, nu = random_uniform_instance(np.random.default_rng(8), 5, 2)
    ens = build_dynamical_plan(mu, nu, solve_fixed_T(mu, nu, 1.0).plan, 1.0)
    runs = [factor2_trajectory(eps, (1.0 + np.sqrt(eps)) / 16000) for eps in (1e-2, 1e-3, 1e-4)]
    runs.append(vlasov_integrate(mu, ForceField.from_tag("damped:0.5"), 0.0, 1.0, 0.01))
    runs.append(vlasov_integrate(interpolate_at(ens, 0.0), spline_forcing(ens), 0.0, 1.0, 1e-3))
    h = hashlib.sha256()
    for traj in runs:
        for a in (traj.times, traj.states, traj.forces):
            h.update(a.tobytes())
    assert h.hexdigest() == TRAJECTORY_PIN


class TestPathAction:
    def test_zero_force(self):
        mu0 = DiscreteMeasure([[0.0]], [[1.0]], [1.0])
        traj = vlasov_integrate(mu0, ForceField.free(), 0.0, 1.0, 0.01)
        assert path_action(traj) == pytest.approx(0.0, abs=1e-15)

    def test_spline_forcing_matches_fixed_horizon_cost(self):
        mu = DiscreteMeasure([[0.0]], [[0.0]], [1.0])
        nu = DiscreteMeasure([[1.0]], [[0.0]], [1.0])
        ens = build_dynamical_plan(mu, nu, product_coupling(mu, nu), 1.0)
        traj = vlasov_integrate(mu, spline_forcing(ens), 0.0, 1.0, 1e-3)
        ref = tilde_dT_sq(mu.atom(0), nu.atom(0), 1.0)
        assert path_action(traj) == pytest.approx(ref, rel=1e-6)


class TestMoments:
    def test_free_transport_velocity_constant(self):
        rng = np.random.default_rng(5)
        mu0, _ = random_uniform_instance(rng, 5, 2)
        traj = vlasov_integrate(mu0, ForceField.free(), 0.0, 1.0, 0.02)
        rep = moment_report(traj)
        assert rep.ok
        assert np.all(rep.v_margin >= -1e-12)

    def test_harmonic_within_slack(self):
        rep = moment_report(harmonic_single())
        assert rep.ok

    def test_underreported_force_flagged(self):
        # tamper with the recorded samples: motion without a recorded force
        # must break the velocity bound
        traj = harmonic_single()
        from otikin.dynamics import Trajectory

        faked = Trajectory(
            times=traj.times,
            states=traj.states,
            weights=traj.weights,
            forces=np.zeros_like(traj.forces),
            force_tag="tampered",
        )
        rep = moment_report(faked)
        assert not rep.ok

    def test_aliased_force_flagged(self):
        # force oscillating exactly at the step frequency: the grid samples
        # vanish while the half-step kicks drive real motion
        dt = 0.1
        omega = np.pi / dt
        f = ForceField(lambda t, X, V: np.full_like(X, 10.0 * np.sin(omega * t)))
        mu0 = DiscreteMeasure([[0.0]], [[0.0]], [1.0])
        traj = vlasov_integrate(mu0, f, 0.0, 1.0, dt)
        rep = moment_report(traj)
        assert not rep.ok


# SHA-256 of the margins, slack and verdict of ``moment_report`` on every
# packaged trajectory of the moment-bounds check.
MOMENT_PIN = "1210c9295a339c6544c0b66cdfcbb8964149c6868121a5023d42e632080b066a"


def test_moment_reports_pinned():
    h = hashlib.sha256()
    for name, traj in _packaged_trajectories(42).items():
        rep = moment_report(traj)
        h.update(name.encode())
        h.update(rep.v_margin.tobytes())
        h.update(rep.x_margin.tobytes())
        h.update(repr((rep.slack.hex(), rep.ok)).encode())
    assert h.hexdigest() == MOMENT_PIN


class TestProbes:
    def test_free_transport_ratios_vanish(self):
        rng = np.random.default_rng(6)
        mu0, _ = random_uniform_instance(rng, 3, 2)
        traj = vlasov_integrate(mu0, ForceField.free(), 0.0, 1.0, 0.025)
        pts = metric_derivative_probe(traj, 0.2, (0.2, 0.1, 0.05))
        for p in pts:
            assert p.ratio_tilde == pytest.approx(0.0, abs=1e-6)
            assert p.ratio_d == pytest.approx(0.0, abs=1e-6)
            assert p.force_norm == 0.0

    def test_harmonic_single_ratios(self):
        traj = harmonic_single()
        pts = metric_derivative_probe(traj, 0.3, (0.2, 0.1, 0.05))
        errs = [abs(p.ratio_tilde - p.force_norm) for p in pts]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.05 * pts[0].force_norm

    def test_free_transport_time_ratio_is_one(self):
        rng = np.random.default_rng(7)
        mu0, _ = random_uniform_instance(rng, 3, 2)
        traj = vlasov_integrate(mu0, ForceField.free(), 0.0, 1.0, 0.025)
        for p in metric_derivative_probe(traj, 0.2, (0.2, 0.1, 0.05)):
            assert p.optimal_time.kind == "finite"
            assert p.optimal_time.value / p.h == pytest.approx(1.0, abs=1e-6)

    def test_probe_requires_grid_alignment(self):
        traj = harmonic_single()
        with pytest.raises(ValueError):
            metric_derivative_probe(traj, 0.3, (0.0123,))


class TestReparametrize:
    def test_identity_lambda(self):
        traj = harmonic_single()
        same = reparametrize(traj, lambda s: 1.0)
        assert np.allclose(same.times, traj.times)
        assert np.allclose(same.forces, traj.forces)

    def test_constant_speedup_scales_clock_and_force(self):
        traj = harmonic_single()
        fast = reparametrize(traj, lambda s: 2.0)
        assert fast.times[-1] == pytest.approx(traj.times[-1] / 2.0)
        assert np.allclose(fast.forces, 2.0 * traj.forces)
        assert np.allclose(fast.states, traj.states)

    def test_nonpositive_lambda_rejected(self):
        traj = harmonic_single()
        with pytest.raises(ValueError):
            reparametrize(traj, lambda s: -1.0)
