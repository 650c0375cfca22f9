import numpy as np
import pytest

from otikin.dynamics import Trajectory, metric_derivative_probe
from otikin.measures import DiscreteMeasure, pushforward_free_transport
from otikin.phase import (
    PhaseState,
    d_sq,
    optimal_time_point,
    spline_action,
    spline_from_endpoints,
    spline_states,
    tilde_d_sq,
    tilde_dT_sq,
)
from otikin.solver import detect_free_transport, solve_d


def S(x, v):
    return PhaseState(np.atleast_1d(x), np.atleast_1d(v))


def dirac(s: PhaseState) -> DiscreteMeasure:
    return DiscreteMeasure([s.x], [s.v], [1.0])


def drift(s: PhaseState, T: float) -> PhaseState:
    """The state's image under free transport for time T."""
    return pushforward_free_transport(dirac(s), T).atom(0)


def curve(ts, x, v, a) -> Trajectory:
    """One-particle trajectory of exact samples x(t), v(t) and force a(t)."""
    states = np.stack([[[x(t), v(t)]] for t in ts])[..., None]
    forces = np.stack([[[a(t)]] for t in ts])
    return Trajectory(times=ts, states=states, weights=np.ones(1), forces=forces)


def connector(src: PhaseState, dst: PhaseState, T: float) -> np.ndarray:
    """The (4, n) coefficient row of the connector from ``src`` to ``dst``."""
    return spline_from_endpoints(src.x, src.v, dst.x, dst.v, T)


class TestSpline:
    def test_unit_endpoints(self):
        c = connector(S(0.0, 0.0), S(1.0, 1.0), 1.0)
        x, v = spline_states(c, 1.0)
        assert x == pytest.approx([1.0], abs=1e-14)
        assert v == pytest.approx([1.0], abs=1e-14)
        # alpha(t) = 2 t^2 - t^3 for these endpoints
        assert spline_states(c, 0.5)[0] == pytest.approx([2 * 0.25 - 0.125], abs=1e-14)

    def test_free_transport_is_straight(self):
        src = S([1.0, -2.0], [0.5, 0.25])
        dst = drift(src, 3.0)
        c = connector(src, dst, 3.0)
        assert np.allclose(c[3], 0.0, atol=1e-14)
        assert np.allclose(c[2], 0.0, atol=1e-14)
        assert spline_action(c, 3.0) == pytest.approx(0.0, abs=1e-13)
        x, v = spline_states(c, 1.5)
        assert x == pytest.approx(src.x + 1.5 * src.v)
        assert v == pytest.approx(src.v)

    def test_rest_to_rest_action(self):
        c = connector(S(0.0, 0.0), S(1.0, 0.0), 1.0)
        assert spline_action(c, 1.0) == pytest.approx(12.0, rel=1e-14)

    def test_action_equals_fixed_horizon_cost(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            a = PhaseState(rng.normal(size=n), rng.normal(size=n))
            b = PhaseState(rng.normal(size=n), rng.normal(size=n))
            T = float(np.exp(rng.uniform(-2, 2)))
            ref = tilde_dT_sq(a, b, T)
            assert spline_action(connector(a, b, T), T) == pytest.approx(
                ref, rel=1e-12, abs=1e-12
            )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="horizon must be positive"):
            connector(S(0.0, 0.0), S(1.0, 1.0), 0.0)
        with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
            connector(S(0.0, 0.0), S([1.0, 2.0], [0.0, 0.0]), 1.0)


class TestPointwiseCosts:
    def test_fixed_horizon_examples(self):
        assert tilde_dT_sq(S(0.0, 0.0), S(1.0, 0.0), 1.0) == pytest.approx(12.0)
        # head-on pair: value is independent of the horizon
        for T in (0.1, 1.0, 7.0):
            assert tilde_dT_sq(S(0.0, 1.0), S(0.0, -1.0), T) == pytest.approx(4.0)
        assert tilde_dT_sq(S(1.0, 2.0), S(1.0 + 3.0 * 2.0, 2.0), 3.0) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_time_optimised_branches(self):
        assert tilde_d_sq(S(0.0, 1.0), S(1.0, 1.0)) == pytest.approx(0.0, abs=1e-14)
        assert tilde_d_sq(S(0.0, 1.0), S(0.0, 1.0)) == pytest.approx(12.0)
        # clamp active when drift and velocities disagree
        assert tilde_d_sq(S(0.0, -1.0), S(1.0, -1.0)) == pytest.approx(12.0)

    def test_envelope_branches(self):
        assert d_sq(S(0.0, 1.0), S(0.0, 3.0)) == pytest.approx(4.0)
        assert tilde_d_sq(S(0.0, 1.0), S(0.0, 3.0)) == pytest.approx(52.0)
        assert d_sq(S(0.0, 0.0), S(1.0, 0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_envelope_below_tilde(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(1, 4))
            a = PhaseState(rng.normal(size=n), rng.normal(size=n))
            b = PhaseState(rng.normal(size=n), rng.normal(size=n))
            lo, hi = d_sq(a, b), tilde_d_sq(a, b)
            assert lo <= hi + 1e-12
            # distinct positions almost surely: the two costs agree there
            assert lo == pytest.approx(hi, rel=1e-12)

    def test_optimal_time_tags(self):
        assert optimal_time_point(S(0.0, 1.0), S(1.0, 1.0)).value == pytest.approx(1.0)
        assert optimal_time_point(S(3.0, 5.0), S(3.0, -2.0)).kind == "zero"
        assert optimal_time_point(S(0.0, -1.0), S(1.0, -1.0)).kind == "infinite"
        # (y - x).(v + w) is 0 up to round-off: no horizon of about 1e17
        src = PhaseState(np.zeros(3), np.array([0.1, 0.2, -0.3]))
        assert optimal_time_point(src, PhaseState(np.ones(3), np.zeros(3))).kind == "infinite"
        # solve_d reads a Dirac pair's horizon by the same rule: the same kind, and
        # a finite value within rounding (PairMoments sums where this module dots)
        rng = np.random.default_rng(3)
        pairs = [(src, PhaseState(np.ones(3), np.zeros(3)))]
        for _ in range(1000):
            x, v, y, w = rng.normal(size=(4, int(rng.integers(1, 4))))
            pairs.append((S(x, v), S(y, w)))
        for a, b in pairs:
            tag = optimal_time_point(a, b)
            solved = solve_d(dirac(a), dirac(b)).optimal_time
            assert solved.kind == tag.kind
            if tag.is_finite:
                assert solved.value == pytest.approx(tag.value, rel=1e-13, abs=0.0)

    def test_grid_minimum_matches_infimum(self):
        rng = np.random.default_rng(2)
        grid = np.logspace(-3, 3, 2000)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            a = PhaseState(rng.normal(size=n), rng.normal(size=n))
            b = PhaseState(rng.normal(size=n), rng.normal(size=n))
            inf_val = tilde_d_sq(a, b)
            tag = optimal_time_point(a, b)
            Ts = grid
            if tag.is_finite:
                Ts = np.concatenate([grid, [tag.value]])
            vals = [tilde_dT_sq(a, b, float(T)) for T in Ts]
            gmin = min(vals)
            assert gmin >= inf_val - 1e-9 * (1 + abs(inf_val))
            if tag.is_finite:
                assert gmin - inf_val <= 1e-9 * (1 + abs(inf_val))

    def test_triangle_inequality_fails(self):
        # witness of asymmetry: stopping early beats the direct connection
        p1, p2, p3 = S(0.0, 1.0), S(1.0, 0.0), S(-1.0, 0.0)
        d12 = np.sqrt(d_sq(p1, p2))
        d23 = np.sqrt(d_sq(p2, p3))
        d13 = np.sqrt(d_sq(p1, p3))
        assert d13 > d12 + d23
        assert d12 == pytest.approx(1.0)
        assert d23 == pytest.approx(0.0, abs=1e-14)
        assert d13 == pytest.approx(2.0)


class TestFreeTransport:
    def test_identity_and_shift(self):
        s = S(0.0, 1.0)
        assert drift(s, 0.0).x == pytest.approx([0.0])
        img = drift(s, 2.0)
        assert img.x == pytest.approx([2.0])
        assert img.v == pytest.approx([1.0])

    def test_semigroup(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = PhaseState(rng.normal(size=2), rng.normal(size=2))
            ab = drift(drift(s, 2.0), 1.0)
            once = drift(s, 3.0)
            assert ab.x == pytest.approx(once.x, rel=1e-14)
            assert ab.v == pytest.approx(once.v, rel=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            drift(S(0.0, 1.0), -0.1)

    def test_zero_cost_on_drift_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = PhaseState(rng.normal(size=3), rng.normal(size=3))
            T = float(rng.uniform(0, 5))
            assert d_sq(s, drift(s, T)) <= 1e-12


class TestClassifyZero:
    """The zero-discrepancy classes for Dirac pairs, as the solver detects them."""

    def test_drift_pair(self):
        src = S([0.0, 1.0], [1.0, 0.5])
        mu = dirac(src)
        nu = pushforward_free_transport(mu, 0.7)
        assert detect_free_transport(mu, nu).T == pytest.approx(0.7, abs=1e-9)
        assert solve_d(mu, nu).cost_sq == pytest.approx(0.0, abs=1e-12)

    def test_both_rest(self):
        mu, nu = dirac(S(0.0, 0.0)), dirac(S(5.0, 0.0))
        assert detect_free_transport(mu, nu).both_rest
        assert solve_d(mu, nu).cost_sq == 0.0

    def test_positive(self):
        mu, nu = dirac(S(0.0, 1.0)), dirac(S(0.0, 2.0))
        assert not detect_free_transport(mu, nu).found
        assert solve_d(mu, nu).cost_sq == pytest.approx(1.0)


class TestCurveDerivative:
    """Forward ratios d(gamma(t), gamma(t+h)) / h along exactly sampled curves."""

    def test_straight_line_has_zero_ratios(self):
        traj = curve(np.linspace(0, 1, 101), lambda t: 2.0 * t, lambda t: 2.0, lambda t: 0.0)
        pts = metric_derivative_probe(traj, 0.2, [0.2, 0.1, 0.05])
        assert [p.ratio_d for p in pts] == pytest.approx([0.0, 0.0, 0.0], abs=1e-7)

    def test_rest_curve_has_zero_ratios(self):
        traj = curve(np.linspace(0, 1, 101), lambda t: np.sin(3 * t), lambda t: 0.0,
                     lambda t: 0.0)
        pts = metric_derivative_probe(traj, 0.1, [0.1, 0.05])
        assert [p.ratio_d for p in pts] == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_oscillator_ratios_approach_acceleration(self):
        traj = curve(np.linspace(0, 1, 1001), np.cos, lambda t: -np.sin(t),
                     lambda t: -np.cos(t))
        pts = metric_derivative_probe(traj, 0.0, [0.2, 0.1, 0.05, 0.025])
        errs = [abs(p.ratio_d - p.force_norm) for p in pts]
        assert pts[0].force_norm == 1.0
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-3

    def test_missing_samples_rejected(self):
        traj = curve(np.array([0.0, 1.0]), lambda t: t, lambda t: 0.0, lambda t: 0.0)
        with pytest.raises(ValueError, match="not on the trajectory grid"):
            metric_derivative_probe(traj, 0.0, [0.3])


def test_state_validation():
    with pytest.raises(ValueError):
        PhaseState(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        PhaseState(np.array([np.inf]), np.array([0.0]))
