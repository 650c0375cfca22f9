"""Packaged instances used by the verification suites and the test bench.

Everything here is deterministic: random instances take an explicit seed and
use the PCG64 generator, so the shipped numbers reproduce across platforms.
"""

from __future__ import annotations

import numpy as np

from .dynamics import (
    ForceField, SplineEnsemble, Trajectory, build_dynamical_plan, vlasov_integrate
)
from .measures import Coupling, DiscreteMeasure, pushforward_free_transport
from .phase import spline_from_endpoints, spline_states

__all__ = [
    "nonunique_two_atom_instance",
    "circle_measure",
    "circle_shift_coupling_moments",
    "factor2_force_integral",
    "factor2_trajectory",
    "harmonic_single",
    "harmonic_ensemble",
    "opposite_pair",
    "free_transport_pair",
    "generic_positive_instance",
    "random_uniform_instance",
    "crossing_ensemble",
]


def nonunique_two_atom_instance():
    """Two-atom instance with two distinct optimal plans of equal cost 30.

    Both atoms sit at the origin of the plane; one moves with speed 2, the
    other with speed sqrt(5) (so that 5 |v1|^2 = 4 |v2|^2); the target drifts
    the first atom for one time unit. The two permutation plans tie at cost 30
    with optimal horizons 1 and 2.
    """
    v1 = np.array([2.0, 0.0])
    v2 = np.array([0.0, np.sqrt(5.0)])
    x = np.zeros(2)
    mu = DiscreteMeasure([x, x], [v1, v2], [0.5, 0.5])
    nu = DiscreteMeasure([x + 1.0 * v1, x], [v1, v2], [0.5, 0.5])
    return mu, nu


def circle_measure(N: int) -> DiscreteMeasure:
    """N equispaced atoms on the unit circle with unit tangent velocities."""
    theta = 2.0 * np.pi * np.arange(N) / N
    X = np.stack([np.sin(theta), np.cos(theta)], axis=1)
    V = np.stack([np.cos(theta), -np.sin(theta)], axis=1)
    return DiscreteMeasure(X, V, np.full(N, 1.0 / N))


def circle_shift_coupling_moments(N: int):
    """Shift-by-one coupling of the circle measure with itself, as a coupling.

    Atom i is matched to atom i+1 (mod N). The time-optimised cost of this
    coupling collapses to 4 sin^2(pi / N), which vanishes as N grows while
    every position-preserving coupling keeps cost at least 3 C ~ 12.
    """
    mu = circle_measure(N)
    P = np.zeros((N, N))
    for i in range(N):
        P[i, (i + 1) % N] = 1.0 / N
    return mu, Coupling(P, mu, mu)


def factor2_force_integral(eps: float) -> float:
    """Closed form of the time integral of the force norm: 2 eps + 2 sqrt(eps)."""
    return 2.0 * eps + 2.0 * np.sqrt(eps)


def factor2_trajectory(eps: float, dt: float) -> Trajectory:
    """Single-particle trajectory accelerating gently then braking hard.

    The force is +2 eps on [0, 1] and -2 on [1, 1 + sqrt(eps)]; the endpoint
    discrepancy exceeds the force-norm integral by a factor approaching 2 as
    eps decreases.
    """
    t1 = 1.0 + np.sqrt(eps)

    def _force(t, X, V):
        a = 2.0 * eps if t <= 1.0 else -2.0
        return np.full_like(X, a)

    mu0 = DiscreteMeasure([[0.0]], [[0.0]], [1.0])
    return vlasov_integrate(mu0, ForceField(_force, tag="factor2"), 0.0, t1, dt)


def _harmonic_run(mu0: DiscreteMeasure) -> Trajectory:
    """RK4 run of a cloud under F = -x on [0, 1] with dt = 1/160."""
    return vlasov_integrate(mu0, ForceField.harmonic(), 0.0, 1.0, 1.0 / 160.0)


def harmonic_single() -> Trajectory:
    """Unit-amplitude oscillator: single particle from (1, 0) under F = -x."""
    return _harmonic_run(DiscreteMeasure([[1.0]], [[0.0]], [1.0]))


def harmonic_ensemble(seed: int = 42) -> Trajectory:
    """Gaussian cloud of 32 particles on the line under the harmonic force."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(32, 1))
    V = rng.normal(size=(32, 1))
    return _harmonic_run(DiscreteMeasure(X, V, np.full(32, 1.0 / 32)))


def opposite_pair() -> Trajectory:
    """Two mirror-image particles; total momentum vanishes at all times."""
    return _harmonic_run(DiscreteMeasure([[1.0], [-1.0]], [[0.0], [0.0]], [0.5, 0.5]))


def free_transport_pair(T: float = 0.7, seed: int = 7):
    """Random 5-atom planar cloud and its drift image; discrepancy zero with unique time T."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(5, 2))
    V = rng.normal(size=(5, 2))
    w = rng.uniform(0.5, 1.5, size=5)
    mu = DiscreteMeasure(X, V, w / w.sum())
    return mu, pushforward_free_transport(mu, T)


def generic_positive_instance():
    """Fixed random 4-atom planar pair that is far from every zero-discrepancy class."""
    rng = np.random.default_rng(2024)
    mu = DiscreteMeasure(
        rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), np.full(4, 1.0 / 4)
    )
    nu = DiscreteMeasure(
        rng.normal(size=(4, 2)) + 1.0,
        rng.normal(size=(4, 2)) - 0.5,
        np.full(4, 1.0 / 4),
    )
    return mu, nu


def random_uniform_instance(rng: np.random.Generator, m: int, n: int):
    """Uniform-weight random pair used by the oracle-dominance sweeps."""
    mu = DiscreteMeasure(
        rng.normal(size=(m, n)), rng.normal(size=(m, n)), np.full(m, 1.0 / m)
    )
    nu = DiscreteMeasure(
        rng.normal(size=(m, n)), rng.normal(size=(m, n)), np.full(m, 1.0 / m)
    )
    return mu, nu


def crossing_ensemble() -> SplineEnsemble:
    """Two-spline ensemble on [0, 1] engineered to collide in phase at t = 1/2.

    The first connector runs from (0, 1) to (1, 0). The second starts at
    (1, -1) and is chosen as the cubic through the first connector's mid-time
    state: solving the half-horizon interpolation problem and extending the
    polynomial to the full horizon forces an interior meeting with equal
    position and velocity, so the pair cannot come from an optimal coupling.
    """
    s1 = spline_from_endpoints([0.0], [1.0], [1.0], [0.0], 1.0)
    half = spline_from_endpoints([1.0], [-1.0], *spline_states(s1, 0.5), 0.5)
    # The second target is the polynomial extension of the half-horizon cubic
    # out to the full horizon.
    y, w = spline_states(half, 1.0)
    mu = DiscreteMeasure([[0.0], [1.0]], [[1.0], [-1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[1.0], y], [[0.0], w], [0.5, 0.5])
    return build_dynamical_plan(mu, nu, Coupling(np.diag([0.5, 0.5]), mu, nu), 1.0)
