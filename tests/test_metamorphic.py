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
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otikin.measures import DiscreteMeasure
from otikin.solver import solve_d, solve_fixed_T, solve_tilde_d

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
