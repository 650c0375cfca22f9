"""Dynamical side: spline plans, measure interpolation, particle Vlasov runs.

Atomic initial data makes pushforward along characteristics an exact solution
concept, so the integrator is Lagrangian: each atom follows dx/dt = v,
dv/dt = F(t, x, v) under classical RK4 with a fixed step. Trajectories record
the force samples used, which feed the action functional, the moment checks,
and the derivative probe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lp import MASS_TOL
from .measures import Coupling, DiscreteMeasure
from .phase import HORIZON_TOL, TIME_GRID_TOL, OptimalTime, positive_horizon, spline_action
from .phase import spline_from_endpoints, spline_states
from .solver import solve_d, solve_fixed_T

__all__ = [
    "SplineEnsemble",
    "ForceField",
    "spline_forcing",
    "Trajectory",
    "MongeMatherReport",
    "MomentReport",
    "DerivativeProbePoint",
    "build_dynamical_plan",
    "interpolate_at",
    "monge_mather_check",
    "vlasov_integrate",
    "path_action",
    "moment_report",
    "metric_derivative_probe",
    "reparametrize",
]


@dataclass(frozen=True)
class SplineEnsemble:
    """Mass-weighted family of cubic connectors on one horizon [0, T].

    ``splines`` is a (K, 4, n) array of connector rows as
    ``phase.spline_from_endpoints`` builds them: row k holds the ascending
    coefficients a0, a1, a2, a3 of ``t -> a3 t^3 + a2 t^2 + a1 t + a0``, and
    ``masses[k]`` its mass. Built from a coupling, row k connects the k-th
    cell of the plan's ``support()``. The masses are finite, positive and
    sum to 1.
    """

    splines: np.ndarray
    masses: np.ndarray
    horizon: float

    def __post_init__(self):
        splines = np.asarray(self.splines, dtype=float)
        masses = np.asarray(self.masses, dtype=float).ravel()
        object.__setattr__(self, "splines", splines)
        object.__setattr__(self, "masses", masses)
        if splines.ndim != 3 or splines.shape[1] != 4:
            raise ValueError(f"splines must have shape (K, 4, n), got {splines.shape}")
        if masses.size != len(splines):
            raise ValueError("one mass per spline required")
        if not np.all(np.isfinite(masses) & (masses > 0)):
            raise ValueError("spline masses must be finite and positive")
        if abs(float(masses.sum()) - 1.0) > MASS_TOL:
            raise ValueError("spline masses must sum to 1")
        object.__setattr__(self, "horizon", positive_horizon(self.horizon))

    def action(self) -> float:
        # One spline_action per row: an array-wide sum of products can round
        # differently in the last bit.
        T = self.horizon
        return float(sum(m * spline_action(c, T) for m, c in zip(self.masses, self.splines)))


def build_dynamical_plan(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    plan: Coupling,
    T: float,
) -> SplineEnsemble:
    """One spline per support cell of the coupling, with the cell's mass.

    The mass-weighted sum of spline actions reproduces the plan's
    fixed-horizon cost exactly (both sides are the same closed form).
    """
    rows, cols = np.transpose(plan.support())
    x, v, y, w = mu.positions[rows], mu.velocities[rows], nu.positions[cols], nu.velocities[cols]
    masses = plan.P[rows, cols]
    return SplineEnsemble(spline_from_endpoints(x, v, y, w, T), masses / masses.sum(), float(T))


def interpolate_at(e: SplineEnsemble, t: float) -> DiscreteMeasure:
    """Measure traced by the ensemble at time t: atoms (alpha(t), alpha'(t))."""
    if not (-HORIZON_TOL * e.horizon <= t <= e.horizon * (1.0 + HORIZON_TOL)):
        raise ValueError(f"time {t} outside ensemble horizon [0, {e.horizon}]")
    X, V = spline_states(e.splines, t)
    return DiscreteMeasure(X, V, e.masses.copy())


# Phase separation at or below which two connectors count as meeting.
SEPARATION_TOL = 1e-9
# Two splines share a start (or end) state when their positions and their
# velocities each agree within STATE_EQUAL_TOL * (1 + largest |coordinate|).
STATE_EQUAL_TOL = 1e-12


@dataclass(frozen=True)
class MongeMatherReport:
    min_separation: float
    violated: bool
    offending_pair: tuple[int, int] | None
    offending_time: float | None


def _real_roots_by_degree(coef: np.ndarray):
    """Real parts of the roots of each row's polynomial, grouped by degree.

    Row c holds ascending coefficients; its degree is that of
    ``np.polynomial.polynomial.polyroots(c)`` after exactly-zero leading
    coefficients are trimmed. Yields ``(degree, rows, roots)`` for every degree
    d >= 1 that occurs, with ``roots`` of shape (len(rows), d) holding the bits
    and the order ``polyroots`` gives each row: degree 1 is -c0 / c1, and a
    higher degree solves the stack of its companion matrices in one
    ``np.linalg.eigvals`` call (the same LAPACK routine for each matrix).
    """
    nonzero = coef != 0.0
    last = coef.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    degrees = np.where(nonzero.any(axis=1), last, 0)
    for d in np.unique(degrees[degrees > 0]):
        rows = np.flatnonzero(degrees == d)
        c = coef[rows, : d + 1]
        if d == 1:
            yield 1, rows, (-c[:, 0] / c[:, 1])[:, None]
            continue
        companion = np.zeros((rows.size, d, d))
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        companion[:, :, -1] -= c[:, :-1] / c[:, -1:]
        roots = np.linalg.eigvals(companion)
        roots.sort(axis=1)
        yield int(d), rows, roots.real


@functools.lru_cache(maxsize=64)
def _pair_indices(K: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(K, 1)``, read-only: the pairs (i, j), i < j, of K splines."""
    first, second = np.triu_indices(K, 1)
    first.flags.writeable = second.flags.writeable = False
    return first, second


def monge_mather_check(e: SplineEnsemble) -> MongeMatherReport:
    """Interior injectivity of an ensemble: distinct-endpoint splines never meet.

    ``min_separation`` is the infimum over t in (0, T) of the phase separation
    ``sqrt(|dx(t)|^2 + |dv(t)|^2)``, which equals its minimum over [0, T],
    taken over the spline pairs whose start states differ and whose end states
    differ (states equal within ``STATE_EQUAL_TOL`` relative count as equal);
    it is ``inf`` when no pair qualifies. ``violated`` is ``min_separation <=
    SEPARATION_TOL``. For ensembles built from an optimal (cyclically
    monotone) coupling the minimum is strictly positive; a reported violation
    certifies non-optimality.

    The four endpoint equalities are tested at once on one (4, K, n) array of
    start and end states, over the pairs ``np.triu_indices(K, 1)`` cached per K.

    Pairs sharing one endpoint state are skipped because they cannot meet
    inside (0, T): their difference is t^2 (a + b t), or (T - t)^2 times a
    linear term, and a common interior zero of it and its derivative forces
    a = b = 0. For every other pair the squared separation f = |p|^2 + |p'|^2
    of the difference cubic p is a degree-6 polynomial, so its minimum lies at
    0, at T or at a root of f'; the separation is evaluated from p and p' at
    those times (real parts of the roots, clipped to [0, T]).
    """
    T, coef = e.horizon, e.splines
    first, second = _pair_indices(len(coef))
    ends = np.array((coef[:, 0], coef[:, 1], *spline_states(coef, T)))
    a = ends[:, first]
    same = abs(a - ends[:, second]).max(axis=2) <= STATE_EQUAL_TOL * (1.0 + abs(a).max(axis=2))
    keep = ~((same[0] & same[1]) | (same[2] & same[3]))
    first, second = first[keep], second[keep]
    if first.size == 0:
        return MongeMatherReport(np.inf, False, None, None)

    p = coef[first] - coef[second]
    # In scaled time tau = t / T the coefficients are O(1) for any horizon;
    # f'(tau) / 2 = <q, q'> + <q', q''> / T^2 with q(tau) = p(T tau).
    q = p * (T ** np.arange(4.0))[:, None]
    dq = q[:, 1:] * np.array([1.0, 2.0, 3.0])[:, None]
    ddq = dq[:, 1:] * np.array([1.0, 2.0])[:, None]
    # Coefficient a + b gathers the terms of each group in ascending a.
    first_terms = np.sum(q[:, :, None] * dq[:, None, :], axis=3)
    second_terms = np.sum(dq[:, :, None] * ddq[:, None, :], axis=3) / T**2
    half_df = np.zeros((len(p), 6))
    for a in range(4):
        half_df[:, a : a + 3] += first_terms[:, a]
    for a in range(3):
        half_df[:, a : a + 2] += second_terms[:, a]
    # Candidate times per pair: 0, 1 and up to five roots; unused slots stay 0.
    tau = np.zeros((len(p), 7))
    tau[:, 1] = 1.0
    for degree, rows, roots in _real_roots_by_degree(half_df):
        tau[rows, 2 : 2 + degree] = roots
    t = np.clip(tau, 0.0, 1.0)[:, :, None] * T
    pos, vel = spline_states(p[:, None], t)
    sep = np.sqrt(np.sum(pos * pos, axis=2) + np.sum(vel * vel, axis=2))
    r, c = np.unravel_index(int(np.argmin(sep)), sep.shape)
    min_sep = float(sep[r, c])
    violated = min_sep <= SEPARATION_TOL
    return MongeMatherReport(
        min_separation=min_sep,
        violated=violated,
        offending_pair=(int(first[r]), int(second[r])) if violated else None,
        offending_time=float(t[r, c, 0]) if violated else None,
    )


class ForceField:
    """Time-dependent force on phase space with a vectorised evaluator.

    ``evaluate(t, X, V)`` maps an (m, n) particle block to (m, n)
    accelerations. Builtin tags: ``free`` (no force), ``harmonic`` (F = -x),
    ``damped:<gamma>`` (F = -gamma v), and ``poly`` (vector polynomial in t
    from coefficient JSON). Custom evaluators are accepted as callables.

    Under ``vlasov_integrate``, ``X`` and ``V`` are views of the integrator's
    buffers: they are valid only during the call, and the evaluator must
    neither keep nor write them. It may return one of them; the integrator
    copies the result before it moves on.
    """

    def __init__(self, evaluate, tag: str = "custom"):
        self._evaluate = evaluate
        self.tag = tag

    def evaluate(self, t: float, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        F = np.asarray(self._evaluate(t, X, V), dtype=float)
        if F.shape != X.shape:
            raise ValueError(f"force shape {F.shape} does not match particles {X.shape}")
        return F

    @staticmethod
    def free() -> "ForceField":
        return ForceField(lambda t, X, V: np.zeros_like(X), tag="free")

    @staticmethod
    def harmonic() -> "ForceField":
        return ForceField(lambda t, X, V: -X, tag="harmonic")

    @staticmethod
    def damped(gamma: float) -> "ForceField":
        g = float(gamma)
        return ForceField(lambda t, X, V: -g * V, tag=f"damped:{g:g}")

    @staticmethod
    def poly(coeffs) -> "ForceField":
        """Vector polynomial in time: F(t) = sum_k coeffs[k] t^k, state-free."""
        C = np.atleast_2d(np.asarray(coeffs, dtype=float))

        def _eval(t, X, V):
            if C.shape[1] != X.shape[1]:
                raise ValueError(
                    f"poly force has width {C.shape[1]}, particles have dimension {X.shape[1]}"
                )
            f = np.zeros(C.shape[1])
            for k in range(C.shape[0] - 1, -1, -1):
                f = f * t + C[k]
            return np.broadcast_to(f, X.shape).copy()

        return ForceField(_eval, tag="poly")

    @staticmethod
    def from_tag(tag: str) -> "ForceField":
        if tag == "free":
            return ForceField.free()
        if tag == "harmonic":
            return ForceField.harmonic()
        if tag.startswith("damped:"):
            gamma = float(tag.split(":", 1)[1])
            if not np.isfinite(gamma):
                raise ValueError(f"damping coefficient must be finite, got {gamma}")
            return ForceField.damped(gamma)
        raise ValueError(f"unknown force tag {tag!r}")


def spline_forcing(e: SplineEnsemble) -> ForceField:
    """Per-particle forcing that drives the ensemble's atoms along their splines.

    The evaluator keys on array position, not on (x, v): particle i receives
    the acceleration of spline i at time t. Only meaningful for particle
    blocks ordered like the ensemble.
    """
    a3, a2 = e.splines[:, 3], e.splines[:, 2]

    def _eval(t, X, V):
        if X.shape[0] != a3.shape[0]:
            raise ValueError("particle count does not match the spline ensemble")
        return 6.0 * a3 * t + 2.0 * a2

    return ForceField(_eval, tag="spline")


@dataclass(frozen=True)
class Trajectory:
    """Particle trajectory on a fixed time grid with recorded force samples.

    ``states[k]`` is the (m, 2, n) block of positions/velocities at
    ``times[k]``; weights are constant in time; ``forces[k]`` holds the force
    evaluated at the grid states (one sample per particle per time).
    """

    times: np.ndarray
    states: np.ndarray
    weights: np.ndarray
    forces: np.ndarray
    force_tag: str = "custom"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValueError("trajectory grid must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def n_times(self) -> int:
        return self.times.size

    def index_of(self, t: float) -> int:
        """Index of the grid time within TIME_GRID_TOL times the grid's span
        (at least 1) of ``t``; an off-grid time raises ``ValueError``."""
        idx = int(np.argmin(np.abs(self.times - t)))
        span = max(1.0, float(self.times[-1] - self.times[0]))
        if abs(float(self.times[idx]) - t) > TIME_GRID_TOL * span:
            raise ValueError(f"time {t} is not on the trajectory grid")
        return idx

    def measure_at(self, t: float) -> DiscreteMeasure:
        k = self.index_of(t)
        return DiscreteMeasure(
            self.states[k, :, 0, :], self.states[k, :, 1, :], self.weights.copy()
        )

    def norm_sq(self, values: np.ndarray) -> np.ndarray:
        """Mass-weighted squared norm sum_i w_i |values_i|^2 of per-particle values.

        ``values`` holds one (m, n) block per particle set, e.g. ``forces`` or
        ``states[:, :, 1, :]`` for every grid time; the last two axes reduce.
        """
        return np.sum(self.weights * np.sum(values**2, axis=-1), axis=-1)

    def force_norm_at(self, t: float) -> float:
        """Mass-weighted L2 norm of the recorded force at a grid time."""
        return float(np.sqrt(self.norm_sq(self.forces[self.index_of(t)])))


# Steps run between two finiteness checks of the recorded states and forces.
FINITE_CHECK_STEPS = 1024


def _rk4_stepper(m: int, n: int, dt: float):
    """Stage buffer and in-place step function of a classical RK4 run with step ``dt``.

    Returns ``(Z, step)``. ``Z`` is a (4, 3, m, n) block: ``Z[i]`` holds the
    positions, velocities and force of stage i + 1, so ``Z[i, :2]`` is that
    stage's phase state and ``Z[i, 1:]`` its derivative K(i+1) = (v, F), both
    contiguous. ``step(f, t)`` needs the start state Y and its force in
    ``Z[0]``, evaluates ``f(t, X, V)`` at the other three stages, and leaves the
    state after the step in ``Z[0, :2]`` (its force slot then is stale).

    Each stage state is Y + c K and the step is Y + dt/6 (K1 + 2 K2 + 2 K3 +
    K4), evaluated as the per-half formulas ``V + half * k1v``,
    ``X + half * V``, ..., ``X + sixth * (V + 2.0 * k2x + 2.0 * k3x + k4x)``
    are, so every element gets the same float operations in the same order.
    The coefficients are 0-d arrays, which numpy multiplies faster than
    Python floats, with the same result.
    """
    half, sixth = 0.5 * dt, dt / 6.0
    c_half, c_dt, c_sixth, c_two = (np.array(c, dtype=float) for c in (half, dt, sixth, 2.0))
    Z = np.empty((4, 3, m, n))
    Y = Z[0, :2]
    K1, K2, K3, K4 = (Z[i, 1:] for i in range(4))
    stages = [(c, K, Z[i, :2], Z[i, 0], Z[i, 1], Z[i, 2])
              for i, c, K in ((1, c_half, K1), (2, c_half, K2), (3, c_dt, K3))]
    total, twice = np.empty((2, 2, m, n))
    mul, add = np.multiply, np.add

    def step(f, t: float) -> None:
        for (c, K, S, X, V, F), s in zip(stages, (t + half, t + half, t + dt)):
            mul(c, K, S)
            add(Y, S, S)
            F[...] = f(s, X, V)
        mul(c_two, K2, total)
        add(K1, total, total)
        mul(c_two, K3, twice)
        add(total, twice, total)
        add(total, K4, total)
        mul(c_sixth, total, total)
        add(Y, total, Y)

    return Z, step


def vlasov_integrate(
    mu0: DiscreteMeasure,
    F: ForceField,
    t0: float,
    t1: float,
    dt: float,
) -> Trajectory:
    """Classical RK4 on dx/dt = v, dv/dt = F(t, x, v), per particle.

    ``t0``, ``t1`` and ``dt`` must be finite, and ``dt`` positive and a
    divisor of the window; weights are carried unchanged (the particle
    method is exact in the measure variable). Force samples at the grid states
    are recorded for the action and the moment checks.

    The force must be a function of (t, x, v) alone: each step takes its first
    stage from the sample recorded at its start state, so a step makes four
    force evaluations and a run of N steps makes 4N + 1. Finiteness is checked
    over the recorded states and forces once per ``FINITE_CHECK_STEPS`` steps;
    the first step that recorded a non-finite value is replayed with a check
    after every stage, and raises ``ValueError`` naming the time of the first
    non-finite force or state, so a failing run stops within one block.
    Recorded states that do not fit in memory raise a ``MemoryError`` that
    names steps x atoms.

    Positions and velocities are stepped as one (2, m, n) block in buffers made
    once per run (see ``_rk4_stepper``). The evaluator receives views of those
    buffers: they are valid only during the call, and it must neither keep nor
    write them. Every element gets the float operations of the per-half RK4
    formulas in their order, so the recorded bytes do not depend on the layout.
    """
    for name, value in (("t0", t0), ("t1", t1), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    span = float(t1) - float(t0)
    if dt >= span:
        raise ValueError(f"dt={dt} must be smaller than the window {span}")
    n_steps = int(round(span / dt))
    if abs(n_steps * dt - span) > TIME_GRID_TOL * max(1.0, span):
        raise ValueError(f"dt={dt} does not divide the window [{t0}, {t1}]")

    m, n = mu0.size, mu0.dim
    times = t0 + dt * np.arange(n_steps + 1)
    grid = times.tolist()
    try:
        states = np.empty((n_steps + 1, m, 2, n))
        forces = np.empty((n_steps + 1, m, n))
    except MemoryError as exc:
        raise MemoryError(
            f"the states of {n_steps + 1} steps x {m} atoms do not fit in memory"
        ) from exc
    phases = states.transpose(0, 2, 1, 3)  # (n_steps + 1, 2, m, n) view of states
    Z, step = _rk4_stepper(m, n, dt)
    Y, (X0, V0, F0) = Z[0, :2], Z[0]
    evaluate = F.evaluate

    def sample(t, X, V):
        f = evaluate(t, X, V)
        if not np.all(np.isfinite(f)):
            raise ValueError(f"non-finite force at t={t}")
        return f

    def replay(k):
        """Re-run step k with every check; raises where the first check fails."""
        t = grid[k]
        Y[...] = phases[k]
        F0[...] = forces[k]
        step(sample, t)
        if not np.all(np.isfinite(Y)):
            raise ValueError(f"non-finite state after step at t={t}")
        sample(grid[k + 1], X0, V0)

    def first_failure(lo, hi):
        """First step in [lo, hi) whose recorded end state or force is non-finite, else None."""
        ok = np.isfinite(states[lo + 1:hi + 1]).all(axis=(1, 2, 3))
        ok &= np.isfinite(forces[lo + 1:hi + 1]).all(axis=(1, 2))
        return None if ok.all() else lo + int(np.argmin(ok))

    X0[...] = mu0.positions
    V0[...] = mu0.velocities
    phases[0] = Y
    with np.errstate(over="ignore", invalid="ignore"):
        F0[...] = forces[0] = sample(grid[0], X0, V0)
        for lo in range(0, n_steps, FINITE_CHECK_STEPS):
            hi = min(lo + FINITE_CHECK_STEPS, n_steps)
            try:
                for k in range(lo, hi):
                    step(evaluate, grid[k])
                    phases[k + 1] = Y
                    F0[...] = forces[k + 1] = evaluate(grid[k + 1], X0, V0)
            except Exception:
                # a non-finite value recorded before the failing call wins
                bad = first_failure(lo, k)
                replay(k if bad is None else bad)
                raise
            bad = first_failure(lo, hi)
            if bad is not None:
                replay(bad)
                raise ValueError(f"force is not a function of (t, x, v): the step at "
                                 f"t={grid[bad]} gave a finite replay")
    return Trajectory(
        times=times,
        states=states,
        weights=mu0.weights.copy(),
        forces=forces,
        force_tag=F.tag,
    )


def _simpson(values: np.ndarray, dt: float) -> float:
    """Composite Simpson on a uniform grid; 3/8 correction for odd step counts."""
    n = values.size - 1
    if n == 1:
        return 0.5 * dt * float(values[0] + values[1])
    total = 0.0
    if n % 2 == 1:
        # Simpson 3/8 on the last three intervals, standard rule on the rest.
        v = values[-4:]
        total += 3.0 * dt / 8.0 * float(v[0] + 3.0 * v[1] + 3.0 * v[2] + v[3])
        values = values[: n - 3 + 1]
        n -= 3
    if n >= 2:
        total += (
            dt
            / 3.0
            * float(
                values[0]
                + values[-1]
                + 4.0 * np.sum(values[1:-1:2])
                + 2.0 * np.sum(values[2:-1:2])
            )
        )
    return total


def _uniform_dt(traj: Trajectory) -> float:
    if traj.n_times < 2:
        raise ValueError("a trajectory needs at least two grid times")
    steps = np.diff(traj.times)
    dt = float(steps[0])
    if float(np.max(np.abs(steps - dt))) > TIME_GRID_TOL * dt:
        raise ValueError("action quadrature requires a uniform time grid")
    return dt


def path_action(traj: Trajectory) -> float:
    """Action (t1 - t0) * integral of the squared force norm, by Simpson's rule.

    A non-finite action raises ``ValueError``.
    """
    if traj.forces.size == 0:
        raise ValueError("trajectory carries no force samples")
    dt = _uniform_dt(traj)
    with np.errstate(over="ignore", invalid="ignore"):
        action = float(traj.times[-1] - traj.times[0]) * _simpson(traj.norm_sq(traj.forces), dt)
    if not np.isfinite(action):
        raise ValueError("path action overflows; forces are too large")
    return action


@dataclass(frozen=True)
class MomentReport:
    """Per-time margins of the velocity/position moment bounds.

    ``margin`` entries are (bound - value); negative beyond the slack flags a
    violation. The slack absorbs quadrature and integrator error at the grid
    resolution.
    """

    times: np.ndarray
    v_margin: np.ndarray
    x_margin: np.ndarray
    slack: float
    ok: bool


def moment_report(traj: Trajectory) -> MomentReport:
    """Check propagation bounds for the velocity and position moments.

    At each grid time: |v|_t <= |v|_a + int_a^t |F_s| ds and
    |x|_t <= |x|_a + int_a^t |v|_s ds, with discretisation slack
    10 dt^2 (1 + bound scale). Report-only; no exception on violation.
    """
    dt = _uniform_dt(traj)
    v_norm = np.sqrt(traj.norm_sq(traj.states[:, :, 1, :]))
    x_norm = np.sqrt(traj.norm_sq(traj.states[:, :, 0, :]))
    f_norm = np.sqrt(traj.norm_sq(traj.forces))

    def cumtrapz(y):
        out = np.zeros_like(y)
        out[1:] = np.cumsum(0.5 * dt * (y[1:] + y[:-1]))
        return out

    v_bound = v_norm[0] + cumtrapz(f_norm)
    x_bound = x_norm[0] + cumtrapz(v_norm)
    scale = 1.0 + float(max(np.max(v_bound), np.max(x_bound)))
    slack = 10.0 * dt * dt * scale
    v_margin = v_bound - v_norm
    x_margin = x_bound - x_norm
    ok = bool(np.all(v_margin >= -slack) and np.all(x_margin >= -slack))
    return MomentReport(
        times=traj.times.copy(),
        v_margin=v_margin,
        x_margin=x_margin,
        slack=slack,
        ok=ok,
    )


@dataclass(frozen=True)
class DerivativeProbePoint:
    h: float
    ratio_tilde: float
    ratio_d: float
    force_norm: float
    optimal_time: OptimalTime


def metric_derivative_probe(
    traj: Trajectory,
    t: float,
    h_list,
) -> list[DerivativeProbePoint]:
    """Forward discrepancy ratios against the instantaneous force norm.

    ``ratio_tilde`` uses the exact fixed-horizon transport at horizon h (the
    ratios are defined through the optimal coupling, not the along-trajectory
    pairing); ``ratio_d`` uses the time-optimised solver. Along force-driven
    trajectories both approach the force norm as h decreases. ``optimal_time``
    is the time-optimised solve's horizon tag; where it is finite, its value
    over h approaches 1 along a curve.
    """
    force_norm = traj.force_norm_at(t)
    mu_t = traj.measure_at(t)
    out = []
    for h in h_list:
        if h <= 0:
            raise ValueError("probe offsets must be positive")
        mu_th = traj.measure_at(t + h)
        fixed = solve_fixed_T(mu_t, mu_th, float(h))
        full = solve_d(mu_t, mu_th)
        out.append(
            DerivativeProbePoint(
                h=float(h),
                ratio_tilde=float(np.sqrt(max(fixed.cost_sq, 0.0)) / h),
                ratio_d=float(np.sqrt(max(full.cost_sq, 0.0)) / h),
                force_norm=force_norm,
                optimal_time=full.optimal_time,
            )
        )
    return out


def reparametrize(traj: Trajectory, lambda_fn) -> Trajectory:
    """Time-rescaled trajectory: new clock s with ds/dt = 1/lambda(s).

    States are reused at the remapped grid; recorded forces are scaled by
    lambda(s), matching the force field of the rescaled evolution. ``lambda_fn``
    must be positive and bounded on the grid.
    """
    t = traj.times
    s = np.empty_like(t)
    s[0] = t[0]
    for k in range(t.size - 1):
        dt_k = float(t[k + 1] - t[k])
        lam = float(lambda_fn(s[k]))
        if not lam > 0 or not np.isfinite(lam):
            raise ValueError(f"lambda must be positive and finite, got {lam}")
        # One fixed-point refinement of the midpoint value keeps the remap
        # second-order accurate for smooth lambda.
        s_half = s[k] + 0.5 * dt_k / lam
        lam_mid = float(lambda_fn(s_half))
        if not lam_mid > 0 or not np.isfinite(lam_mid):
            raise ValueError(f"lambda must be positive and finite, got {lam_mid}")
        s[k + 1] = s[k] + dt_k / lam_mid
    lam_grid = np.asarray([float(lambda_fn(si)) for si in s])
    if np.any(~np.isfinite(lam_grid)) or np.any(lam_grid <= 0):
        raise ValueError("lambda must be positive and finite on the grid")
    forces = traj.forces * lam_grid[:, None, None]
    return Trajectory(
        times=s,
        states=traj.states.copy(),
        weights=traj.weights.copy(),
        forces=forces,
        force_tag=f"reparam({traj.force_tag})",
    )
