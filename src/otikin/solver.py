"""Plan-level costs and the optimisation of the kinetic discrepancies.

Every cost here is a linear combination of the four pairwise matrices of
``measures.PairMoments``, the one place they are built; each solve builds them
once and derives its cost matrices and plan moments from them. The
fixed-horizon plan cost is linear in the coupling, so its exact minimiser
comes from the transportation simplex. A plan takes the D-only branch of the
envelope cost when none of its cells above ``lp.support_floor`` joins distinct
positions. The time-optimised costs swap the two infima: with s = 1/T, the
squared discrepancy is the infimum over s >= 0 of OT(s), the linear transport
value with pointwise cost 12 s^2 A - 12 s B + 3 C + D. ``solve_d`` and
``solve_tilde_d`` find that infimum by an exact branch-and-bound over s that
calls the transportation simplex with one ``lp.WarmStart`` per search (all its
LPs share their marginals), so each call starts from the last one's optimal
basis, with the plan it returned as flows. A search evaluates each vertex
once: it remembers the moments of each plan by the plan's support, which the
warm start reports with each plan. A brute-force vertex oracle cross-checks
global minima on small instances: it tells vertices apart by their cells above
the floor, stacks every vertex plan, takes all their moments as arrays,
validates them and evaluates their envelope costs elementwise, and builds
``PlanMoments``, plans and horizons only for the tied optima.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lp import (
    MASS_TOL,
    WarmStart,
    is_uniform_equal,
    permutation_cells,
    support_floor,
    transportation_simplex,
    tree_flows,
)
from .measures import (
    MOMENT_NEG_TOL,
    Coupling,
    DiscreteMeasure,
    PairMoments,
    PlanMoments,
    coincident_blocks,
)
from .phase import OptimalTime

__all__ = [
    "SolveResult",
    "FreeTransportMatch",
    "cost_tilde_c_T",
    "cost_tilde_c",
    "cost_c",
    "optimal_time_plan",
    "solve_fixed_T",
    "solve_d",
    "solve_tilde_d",
    "brute_force_oracle",
    "detect_free_transport",
]

REGIME_EQUAL_POSITIONS = "equal_positions"
REGIME_FINITE_T = "finite_T"
REGIME_INFINITE_T = "infinite_T"
REGIME_FIXED_T = "fixed_T"
# Relative tolerance of the horizon search: intervals within
# COST_TOL * (1 + |best|) of the best value found are not split further.
COST_TOL = 1e-10
# The oracle walks at most ORACLE_MAX_CANDIDATES candidate bases, the count of
# the enumerator it picks: m! permutations on a uniform equal-size pair, else
# C(m k, m + k - 1) edge subsets. It reports every vertex within
# ORACLE_TIE_TOL * (1 + |best|) of the least cost.
ORACLE_MAX_CANDIDATES = math.factorial(8)
ORACLE_TIE_TOL = 1e-9
# Drift detection: phase points coincide within a Euclidean DRIFT_TOL, their
# masses match within DRIFT_TOL, and speeds up to DRIFT_TOL count as rest.
DRIFT_TOL = 1e-8
_REGIME_OF_TAG = {
    "zero": REGIME_EQUAL_POSITIONS,
    "finite": REGIME_FINITE_T,
    "infinite": REGIME_INFINITE_T,
}


def cost_tilde_c_T(m: PlanMoments, T: float) -> float:
    """Fixed-horizon plan cost 12 A / T^2 - 12 B / T + 3 C + D."""
    if not T > 0:
        raise ValueError(f"horizon must be positive, got {T}")
    T = float(T)
    return 12.0 * m.A / T**2 - 12.0 * m.B / T + 3.0 * m.C + m.D


def _moving_cost(A, B, C, D):
    """3 C - 3 (B_+)^2 / A + D, the time-optimised cost of plans that move
    positions (A > 0); elementwise on moment arrays."""
    clipped = np.maximum(B, 0.0)
    return 3.0 * C - 3.0 * clipped * clipped / A + D


def cost_tilde_c(m: PlanMoments) -> float:
    """Infimum over T > 0 of the fixed-horizon cost.

    ``_moving_cost`` when the plan moves positions (then A > 0), else 3 C + D
    (the large-T limit, T-independent when A = 0 exactly).
    """
    if not m.keeps_positions:
        return float(_moving_cost(m.A, m.B, m.C, m.D))
    return 3.0 * m.C + m.D


def cost_c(m: PlanMoments) -> float:
    """Envelope plan cost: ``cost_tilde_c`` if the plan moves positions, else D."""
    if not m.keeps_positions:
        return cost_tilde_c(m)
    return m.D


def optimal_time_plan(m: PlanMoments) -> OptimalTime:
    """Horizon minimising the fixed-horizon cost of a coupling: 2A/B, 0, or inf.

    B up to ``MOMENT_NEG_TOL * sqrt(A C)`` is round-off of an exact 0, not a
    finite horizon of about 1e17."""
    if m.keeps_positions:
        return OptimalTime.zero()
    if m.B > MOMENT_NEG_TOL * math.sqrt(max(m.A * m.C, 0.0)):
        return OptimalTime.finite(2.0 * m.A / m.B)
    return OptimalTime.infinite()


@dataclass(frozen=True)
class SolveResult:
    cost_sq: float
    optimal_time: OptimalTime
    regime: str
    plan: Coupling
    # LP solves of a time-optimised search, 1 for a fixed horizon, and
    # vertices enumerated for the oracle.
    iterations: int = 0
    # Populated by the oracle: all optimal vertices within tie tolerance, as
    # (plan matrix, cost, optimal time) triples.
    optima: tuple | None = None


def _envelope_result(value, plan, tag: OptimalTime, iterations, optima=None) -> SolveResult:
    """A time-optimised or oracle result: the winning plan's cost clipped at 0,
    in the regime that its horizon tag decides."""
    return SolveResult(max(value, 0.0), tag, _REGIME_OF_TAG[tag.kind], plan, iterations, optima)


def solve_fixed_T(mu: DiscreteMeasure, nu: DiscreteMeasure, T: float) -> SolveResult:
    """Exact minimiser of the fixed-horizon cost over the transportation polytope.

    The objective is linear in the plan, so a vertex solution from the simplex
    (assignment on uniform equal-size inputs) is globally optimal.
    """
    if not T > 0:
        raise ValueError(f"horizon must be positive, got {T}")
    pm = PairMoments(mu, nu)
    P = transportation_simplex(pm.fixed_T_cost(T), mu.weights, nu.weights)
    plan = Coupling(P, mu, nu)
    value = cost_tilde_c_T(pm.of(plan.P), T)
    return SolveResult(
        cost_sq=value,
        optimal_time=OptimalTime.finite(T),
        regime=REGIME_FIXED_T,
        plan=plan,
        iterations=1,
    )


def _equal_positions_candidate(mu: DiscreteMeasure, nu: DiscreteMeasure, pm: PairMoments):
    """D-minimising coupling supported on coincident spatial sites, if feasible.

    Feasible iff the spatial marginals are the same measure, which
    ``coincident_blocks`` decides on the cells where ``pm.distinct`` is False,
    the closeness the plan moments read (so the candidate counts as
    position-preserving) and each block carries the same mass on both sides
    within ``lp.MASS_TOL``; each block is then an independent velocity OT
    problem with cost |w - v|^2, solved by the same simplex backend with rows
    and columns in ascending index order.
    """
    blocks = coincident_blocks(~pm.distinct, mu.weights, nu.weights, MASS_TOL)
    if blocks is None:
        return None
    P = np.zeros((mu.size, nu.size))
    for rows, cols in blocks:
        block = np.ix_(rows, cols)
        P[block] = transportation_simplex(pm.D[block], mu.weights[rows], nu.weights[cols])
    return Coupling(P, mu, nu)


def _corner_value(m: PlanMoments, u: float, s: float) -> float:
    """Plan cost 12 u A - 12 s B + 3 C + D, linear in (u, s); at u = s^2 it is
    the fixed-horizon cost at T = 1/s."""
    return 12.0 * u * m.A - 12.0 * s * m.B + 3.0 * m.C + m.D


def _solve_time_optimised(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    final_cost,
) -> SolveResult:
    """Exact search over s = 1/T >= 0 for the infimum of OT(s).

    Phi(u, s) = min over plans of ``_corner_value`` is concave, and OT(s) =
    Phi(s^2, s). On [s1, s2] the point (s^2, s) lies in the triangle with
    corners (s1^2, s1), (s2^2, s2) and (s1 s2, (s1 + s2)/2), where the
    tangents at the two ends meet; the least of the three corner LP values
    bounds OT from below on the interval. An interval is dropped when that
    bound reaches the best time-optimised cost found, or when one of its
    three plans attains all three corner values (Phi is then that plan's
    linear function there, whose minimum is already counted); otherwise it is
    split at its midpoint. Past S, every plan's cost rises whenever
    2 S A_P >= B_P, which one LP checks for all plans at once, so only
    [0, S] is searched.
    """
    pm = PairMoments(mu, nu)
    base = pm.infinite_T_cost()
    best = np.inf  # least time-optimised cost over every plan seen
    winner = None  # least final cost; the first found wins among equal costs
    lp_solves = 0
    # Every LP below has these marginals, so each starts from the last one's
    # optimal basis.
    warm = WarmStart(mu.weights, nu.weights)
    # Moments of every LP plan seen, by its support. An LP that returns a
    # vertex seen before returns the same plan, whose costs are already counted.
    seen: dict = {}

    def consider(P: np.ndarray) -> PlanMoments:
        nonlocal best, winner
        plan = Coupling(P, mu, nu)
        m = pm.of(plan.P)
        best = min(best, cost_tilde_c(m))
        value = final_cost(m)
        if winner is None or value < winner[0]:
            winner = (value, plan, m)
        return m

    def lp(cost: np.ndarray) -> PlanMoments:
        nonlocal lp_solves
        lp_solves += 1
        P = transportation_simplex(cost, mu.weights, nu.weights, warm)
        m = seen.get(warm.support)
        if m is None:
            m = seen[warm.support] = consider(P)
        return m

    def corner(u: float, s: float) -> PlanMoments:
        return lp(12.0 * u * pm.A - 12.0 * s * pm.B + base)

    def tol() -> float:
        return COST_TOL * (1.0 + abs(best))

    # Equal-positions regime: velocity-only transport on coincident sites.
    eq_plan = _equal_positions_candidate(mu, nu, pm)
    if eq_plan is not None:
        consider(eq_plan.P)

    m_zero = corner(0.0, 0.0)
    S = 1.0
    while True:
        m = lp(2.0 * S * pm.A - pm.B)
        if 2.0 * S * m.A - m.B >= -tol():
            break
        S *= 4.0
    stack = [((0.0, m_zero), (S, corner(S * S, S)))]
    while stack:
        (s1, m1), (s2, m2) = stack.pop()
        mid = 0.5 * (s1 + s2)
        corners = ((s1 * s1, s1), (s2 * s2, s2), (s1 * s2, mid))
        plans = (m1, m2, corner(*corners[2]))
        lows = [_corner_value(m, u, s) for m, (u, s) in zip(plans, corners)]
        if min(lows) >= best - tol():
            continue
        if any(
            all(_corner_value(m, u, s) <= low + tol() for (u, s), low in zip(corners, lows))
            for m in plans
        ):
            continue
        if not s1 < mid < s2:  # no float left between the ends to evaluate
            continue
        m_mid = corner(mid * mid, mid)
        stack.append(((mid, m_mid), (s2, m2)))
        stack.append(((s1, m1), (mid, m_mid)))

    value, plan, m = winner
    return _envelope_result(value, plan, optimal_time_plan(m), lp_solves)


def solve_d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> SolveResult:
    """Minimise the envelope cost over couplings.

    d^2 = min(d~^2, D of the equal-positions candidate): the exact horizon
    search of ``_solve_time_optimised`` gives d~^2, and every plan it and the
    equal-positions candidate produce is evaluated through ``cost_c``.
    """
    return _solve_time_optimised(mu, nu, cost_c)


def solve_tilde_d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> SolveResult:
    """Same search as ``solve_d`` with final evaluation through ``cost_tilde_c``.

    The infimum may be unattained (approached only along couplings whose
    position gap degenerates), so the returned value is an upper bound; it
    equals the infimum whenever the winning coupling has positive A.
    """
    return _solve_time_optimised(mu, nu, cost_tilde_c)


def _vertex_plans_uniform(m: int) -> np.ndarray:
    """The m! permutation plans of mass 1/m per cell, stacked (m!, m, m) in
    ``itertools.permutations`` order."""
    cells = permutation_cells(m)
    plans = np.zeros((len(cells), m * m))
    plans[np.arange(len(cells))[:, None], cells] = 1.0 / m
    return plans.reshape(-1, m, m)


def _vertex_plans_trees(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All vertices of the transportation polytope via spanning-tree bases,
    stacked (V, m, k) in the order their first tree is enumerated.

    Basic solutions are supported on spanning trees of the complete bipartite
    graph, walked as row-major cell sets; a tree's flow (``tree_flows``) is a
    vertex when no cell's flow lies below minus its ``support_floor``, and such
    round-off is clipped to zero. As in the simplex, a vertex is keyed by its
    cells above the floor, so degenerate trees give it once, as the first's plan.
    """
    m, k = a.size, b.size
    floor = support_floor(a, b)
    seen: set[tuple] = set()
    vertices = []
    for tree in itertools.combinations(range(m * k), m + k - 1):
        P = tree_flows(a, b, tree)
        if P is None or np.any(P < -floor):
            continue
        key = tuple(np.flatnonzero(P > floor).tolist())
        if key in seen:
            continue
        seen.add(key)
        vertices.append(np.clip(P, 0.0, None))
    return np.stack(vertices)


def brute_force_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> SolveResult:
    """Global minimum of the envelope cost by vertex enumeration.

    The time-optimised cost is an infimum of linear functions of the plan,
    hence concave; its minimum over the polytope is attained at a vertex, so
    enumerating vertices is exhaustive. The vertices are evaluated as one
    (V, m, k) stack: ``PairMoments.of_each`` gives the validated moments of
    all of them as arrays, and ``cost_c`` is evaluated elementwise. All optimal
    vertices within a relative tie tolerance of ``ORACLE_TIE_TOL`` are
    reported in ``optima``, in enumeration order; only these get a copied
    plan and an optimal horizon. A pair whose enumerator would walk more than
    ``ORACLE_MAX_CANDIDATES`` candidates raises ``ValueError`` before any
    pairwise matrix is built.
    """
    m, k = mu.size, nu.size
    uniform = is_uniform_equal(mu.weights, nu.weights)
    count = math.factorial(m) if uniform else math.comb(m * k, m + k - 1)
    if count > ORACLE_MAX_CANDIDATES:
        shown = count if count < 10**18 else f"about 10^{math.log10(count):.0f}"
        raise ValueError(
            f"instance too large for the oracle (m={m}, k={k}: {shown} candidate "
            f"bases, more than the limit {ORACLE_MAX_CANDIDATES})"
        )
    pm = PairMoments(mu, nu)
    plans = _vertex_plans_uniform(m) if uniform else _vertex_plans_trees(mu.weights, nu.weights)
    A, B, C, D, keeps = pm.of_each(plans)
    # cost_c of every vertex: D where it keeps positions, else _moving_cost.
    costs = D.copy()
    moves = ~keeps
    costs[moves] = _moving_cost(A[moves], B[moves], C[moves], D[moves])
    best_value = float(costs.min())
    tie_tol = ORACLE_TIE_TOL * (1.0 + abs(best_value))
    optima = []
    for v in np.flatnonzero(costs <= best_value + tie_tol):
        m = PlanMoments(float(A[v]), float(B[v]), float(C[v]), float(D[v]), bool(keeps[v]))
        optima.append((plans[v].copy(), float(costs[v]), optimal_time_plan(m)))
    P_best, _, tag = optima[0]
    return _envelope_result(best_value, Coupling(P_best, mu, nu), tag, len(plans), tuple(optima))


@dataclass(frozen=True)
class FreeTransportMatch:
    """Result of free-transport detection: a drift time, a rest flag, or neither."""

    T: float | None = None
    both_rest: bool = False

    @property
    def found(self) -> bool:
        return self.T is not None or self.both_rest


def detect_free_transport(mu: DiscreteMeasure, nu: DiscreteMeasure) -> FreeTransportMatch:
    """Detect whether the target is a drift image of the source.

    Candidate times come from displacement ratios of the fastest source atom
    to the target atoms with its velocity (the drift condition is affine in
    T); each candidate is verified by comparing the drift image with the
    target as measures on phase space (``coincident_blocks`` on points within
    ``DRIFT_TOL``), so atoms split or merged at one phase point still match.
    When the drift image exists and the velocity marginal is not concentrated
    at zero, the time is unique.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    vmax_mu = float(np.max(np.linalg.norm(mu.velocities, axis=1)))
    vmax_nu = float(np.max(np.linalg.norm(nu.velocities, axis=1)))
    if vmax_mu <= DRIFT_TOL and vmax_nu <= DRIFT_TOL:
        return FreeTransportMatch(both_rest=True)

    def phase_match(T: float) -> bool:
        pts_a = np.hstack([mu.positions + T * mu.velocities, mu.velocities])
        pts_b = np.hstack([nu.positions, nu.velocities])
        with np.errstate(over="ignore"):
            gap = pts_b[None, :, :] - pts_a[:, None, :]
            close = np.sum(gap * gap, axis=2) <= DRIFT_TOL * DRIFT_TOL
        return coincident_blocks(close, mu.weights, nu.weights, DRIFT_TOL) is not None

    # Anchor on the fastest source atom; any valid drift time must map it onto
    # some target atom with (nearly) the same velocity.
    i_star = int(np.argmax(np.linalg.norm(mu.velocities, axis=1)))
    v = mu.velocities[i_star]
    speed_sq = float(np.dot(v, v))
    candidates = [0.0]
    if speed_sq > DRIFT_TOL * DRIFT_TOL:
        for j in range(nu.size):
            if float(np.max(np.abs(nu.velocities[j] - v))) > DRIFT_TOL * (1.0 + vmax_mu):
                continue
            T = float(np.dot(nu.positions[j] - mu.positions[i_star], v)) / speed_sq
            if T >= -DRIFT_TOL:
                candidates.append(max(T, 0.0))
    for T in sorted(set(candidates)):
        if phase_match(T):
            return FreeTransportMatch(T=T)
    return FreeTransportMatch()
