"""Metamorphic properties of the discrepancies, checked with hypothesis.

The closed-form pointwise cost implies four invariances, each checked on
random uniform and weighted instances (m, k <= 5 atoms, dimension n <= 3):

- time reversal: (x, v) -> (y, w) costs what (y, -w) -> (x, -v) costs, so
  d(mu, nu) = d(R nu, R mu) with R flipping every velocity;
- rigid motion: one rotation of all positions and velocities, and one
  translation of all positions, change nothing;
- velocity scaling: scaling every velocity by c scales d^2 by c^2, and the
  fixed-horizon cost at T of the scaled pair is c^2 times the cost at c T of
  the original pair;
- Galilean boost: adding c to every velocity, and T c to the target's
  positions, leaves the fixed-horizon cost at T unchanged, since a pair of
  atoms then drifts apart over [0, T] exactly as before.

Two more checks read the discrepancies through ``measures.w2_sq``, which
prices only position and velocity gaps: the fixed-horizon cost at T = 1/s is
W2^2 of two linear images (see the ``phase`` module docstring), and no image
pair on a grid of s lies below d~^2, the infimum the horizon search finds.
A dilation of phase space by a power of two leaves the fixed-horizon plan's
bytes as they are and scales its cost exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otikin.measures import DiscreteMeasure, w2_sq
from otikin.solver import COST_TOL, solve_d, solve_fixed_T, solve_tilde_d

REL = 1e-9

examples = settings(derandomize=True, deadline=None, database=None, max_examples=40)


@st.composite
def instances(draw):
    """A pair of measures: uniform and of equal size, or with random weights."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    uniform = draw(st.booleans())
    k = m if uniform else draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def measure(size):
        w = np.full(size, 1.0 / size) if uniform else rng.uniform(0.2, 1.0, size)
        return DiscreteMeasure(
            rng.normal(size=(size, n)), rng.normal(size=(size, n)), w / w.sum()
        )

    return measure(m), measure(k), rng


def with_velocities(mu: DiscreteMeasure, scale: float) -> DiscreteMeasure:
    return DiscreteMeasure(mu.positions, scale * mu.velocities, mu.weights)


@examples
@given(instances())
def test_time_reversal(inst):
    mu, nu, _ = inst
    back_mu, back_nu = with_velocities(nu, -1.0), with_velocities(mu, -1.0)
    for solve in (solve_d, solve_tilde_d):
        assert solve(back_mu, back_nu).cost_sq == pytest.approx(
            solve(mu, nu).cost_sq, rel=REL
        )


@examples
@given(instances())
def test_rigid_motion(inst):
    mu, nu, rng = inst
    n = mu.dim
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    shift = rng.normal(size=n)

    def moved(m: DiscreteMeasure) -> DiscreteMeasure:
        return DiscreteMeasure(m.positions @ Q.T + shift, m.velocities @ Q.T, m.weights)

    assert solve_d(moved(mu), moved(nu)).cost_sq == pytest.approx(
        solve_d(mu, nu).cost_sq, rel=REL
    )


@examples
@given(instances(), st.floats(0.25, 4.0), st.floats(0.1, 10.0))
def test_velocity_scaling(inst, c, T):
    mu, nu, _ = inst
    fast_mu, fast_nu = with_velocities(mu, c), with_velocities(nu, c)
    assert solve_d(fast_mu, fast_nu).cost_sq == pytest.approx(
        c * c * solve_d(mu, nu).cost_sq, rel=REL
    )
    assert solve_fixed_T(fast_mu, fast_nu, T).cost_sq == pytest.approx(
        c * c * solve_fixed_T(mu, nu, c * T).cost_sq, rel=REL
    )


@examples
@given(instances(), st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3), st.floats(0.1, 10.0))
def test_galilean_boost(inst, c, T):
    mu, nu, _ = inst
    c = np.array(c[: mu.dim])
    boosted_mu = DiscreteMeasure(mu.positions, mu.velocities + c, mu.weights)
    boosted_nu = DiscreteMeasure(nu.positions + T * c, nu.velocities + c, nu.weights)
    assert solve_fixed_T(boosted_mu, boosted_nu, T).cost_sq == pytest.approx(
        solve_fixed_T(mu, nu, T).cost_sq, rel=REL
    )


def dilated(mu: DiscreteMeasure, lam: float) -> DiscreteMeasure:
    return DiscreteMeasure(lam * mu.positions, lam * mu.velocities, mu.weights)


def test_phase_space_dilation():
    # scaling every position and velocity by a power of two scales every cost
    # entry exactly by its square, so the simplex, whose entering threshold is
    # relative to the cost, makes the same pivots: the same plan bytes, and a
    # cost that is the unscaled one times lam^2 to the bit
    rng = np.random.default_rng(5)
    for m, k in ((6, 5), (12, 10)) * 6:

        def measure(size):
            w = rng.uniform(0.2, 1.0, size)
            x, v = rng.normal(size=(2, size, 2))
            return DiscreteMeasure(x, v, w / w.sum())

        mu, nu = measure(m), measure(k)
        for T in (0.5, 1.0):
            base = solve_fixed_T(mu, nu, T)
            for j in (-20, -10, 10):
                lam = 2.0**j
                res = solve_fixed_T(dilated(mu, lam), dilated(nu, lam), T)
                assert res.plan.P.tobytes() == base.plan.P.tobytes()
                assert res.cost_sq == lam * lam * base.cost_sq


def linear_images(mu: DiscreteMeasure, nu: DiscreteMeasure, s: float):
    """(x, v) -> (sqrt(12) (s x + v / 2), v) on mu and (y, w) -> (sqrt(12) (s y - w / 2), w)
    on nu: W2^2 of the images is the fixed-horizon transport value at T = 1/s."""
    r = np.sqrt(12.0)
    return (
        DiscreteMeasure(r * (s * mu.positions + 0.5 * mu.velocities), mu.velocities, mu.weights),
        DiscreteMeasure(r * (s * nu.positions - 0.5 * nu.velocities), nu.velocities, nu.weights),
    )


@examples
@given(instances(), st.floats(0.1, 10.0))
def test_fixed_horizon_cost_is_w2_of_linear_images(inst, T):
    mu, nu, _ = inst
    assert w2_sq(*linear_images(mu, nu, 1.0 / T)) == pytest.approx(
        solve_fixed_T(mu, nu, T).cost_sq, rel=1e-12
    )


# s = 1/T from 0 (T infinite) to 20 (T = 0.05): steps of 0.0025 up to s = 0.5,
# where the horizons of unit-scale pairs lie, then geometric steps.
S_GRID = np.concatenate([np.linspace(0.0, 0.5, 201), np.geomspace(0.5, 20.0, 12)[1:]])


# Weighted pairs of three sizes and three seeds; uniform pairs, which take the
# assignment path; and a weighted pair whose velocities are scaled by 10, which
# scales its horizons s by 10 (so the search's tail leaves S = 1), searched on
# the grid scaled by 10.
GRID_CASES = [
    *(
        pytest.param(m, k, seed, False, 1.0, id=f"{seed}-{m}-{k}")
        for m, k in ((6, 5), (12, 10), (24, 20))
        for seed in range(3)
    ),
    pytest.param(12, 12, 0, True, 1.0, id="uniform-12-12"),
    pytest.param(24, 24, 0, True, 1.0, id="uniform-24-24"),
    pytest.param(12, 10, 0, False, 10.0, id="fast-12-10"),
]


@pytest.mark.parametrize("m, k, seed, uniform, scale", GRID_CASES)
def test_no_horizon_beats_the_search(m, k, seed, uniform, scale):
    # the linear value at every s bounds d~^2 from above, and meets it at the
    # search's own horizon; w2_sq shares no pruning rule with the search
    rng = np.random.default_rng(1000 * m + seed)

    def measure(size):
        w = np.ones(size) if uniform else rng.uniform(0.2, 1.0, size)
        x = rng.normal(size=(size, 2))
        return DiscreteMeasure(x, scale * rng.normal(size=(size, 2)), w / w.sum())

    mu, nu = measure(m), measure(k)
    res = solve_tilde_d(mu, nu)
    d2 = res.cost_sq
    tol = COST_TOL * (1.0 + abs(d2))
    for s in scale * S_GRID:
        assert w2_sq(*linear_images(mu, nu, s)) >= d2 - tol
    tag = res.optimal_time
    assert tag.kind in ("finite", "infinite")
    s_star = 1.0 / tag.value if tag.is_finite else 0.0
    assert abs(w2_sq(*linear_images(mu, nu, s_star)) - d2) <= tol
