"""Plan-level costs and the optimisation of the kinetic discrepancies.

Every cost here is a linear combination of the four pairwise matrices of
``measures.PairMoments``, the one place they are built; each solve builds them
once and derives its cost matrices and plan moments from them. The
fixed-horizon cost, its optimal horizon and the horizon and dimension checks
are ``phase``'s. The fixed-horizon plan cost is linear in the coupling, so its
exact minimiser comes from the transportation simplex. A plan takes the D-only
branch of the envelope cost when none of its cells above ``lp.support_floor``
joins distinct positions. The time-optimised costs swap the two infima: with s
= 1/T, the squared discrepancy is the infimum over s >= 0 of OT(s), the linear
transport value with pointwise cost 12 s^2 A - 12 s B + 3 C + D. ``solve_d``
and ``solve_tilde_d`` find that infimum by an exact branch-and-bound over s
that calls the transportation simplex with one ``lp.WarmStart`` per search
(all its LPs share their marginals), so each call starts from the last one's
optimal basis, with the plan it returned as flows. The LP value is concave in
the cost's coefficients of A and B, and on an interval of s the curve the
search follows is a quadratic Bezier curve, so the LP values at its three
control points bound the whole interval. An interval is split where that
bound's curve is least, and it bounds its parts' third corners from the
corners it has already solved, which can drop a part with no LP. A search
evaluates each vertex once: it remembers the moments
of each plan by the plan's support, which the warm start reports with each
plan. A brute-force vertex oracle cross-checks global minima on small
instances: it takes every vertex plan as one stack from ``lp.vertex_plans``,
takes all their moments as arrays, validates them and evaluates their
envelope costs elementwise, and builds ``PlanMoments``, plans and horizons
only for the tied optima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import MASS_TOL, WarmStart, candidate_bases, transportation_simplex, vertex_plans
from .measures import (
    Coupling,
    DiscreteMeasure,
    PairMoments,
    PlanMoments,
    coincident_blocks,
)
from .phase import (
    OptimalTime, fixed_horizon_cost, optimal_horizon, positive_horizon, same_dimension
)

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
# The search splits an interval where its curve bound is least, but never
# closer to either end than SPLIT_MARGIN of its width.
SPLIT_MARGIN = 0.1
# The oracle walks at most ORACLE_MAX_CANDIDATES candidate bases, as
# ``lp.candidate_bases`` counts them: m! permutations when all weights are one
# float, else C(m k, m + k - 1) cell sets. It reports every vertex within
# ORACLE_TIE_TOL * (1 + |best|) of the least cost.
ORACLE_MAX_CANDIDATES = math.factorial(8)
ORACLE_TIE_TOL = 1e-9
# Drift detection: phase points coincide within a Euclidean DRIFT_TOL, their
# masses match within DRIFT_TOL, and speeds up to DRIFT_TOL count as rest.
DRIFT_TOL = 1e-8
_ENVELOPE_OVERFLOW = "the envelope cost 3 C - 3 (B_+)^2 / A + D overflows the float range"
_REGIME_OF_TAG = {
    "zero": REGIME_EQUAL_POSITIONS,
    "finite": REGIME_FINITE_T,
    "infinite": REGIME_INFINITE_T,
}


def cost_tilde_c_T(m: PlanMoments, T: float) -> float:
    """Fixed-horizon plan cost 12 A / T^2 - 12 B / T + 3 C + D (``phase.fixed_horizon_cost``)."""
    return fixed_horizon_cost(m.A, m.B, m.C, m.D, positive_horizon(T))


def _moving_cost(A, B_plus, C, D):
    """3 C - 3 B_+^2 / A + D, the time-optimised cost of plans that move
    positions (A > 0), from B_+ = max(B, 0); on floats, or elementwise on
    moment arrays. Where it leaves the float range ((B_+)^2 first) it reads
    inf or NaN: callers raise ``OverflowError`` with ``_ENVELOPE_OVERFLOW``."""
    return 3.0 * C - 3.0 * B_plus * B_plus / A + D


def cost_tilde_c(m: PlanMoments) -> float:
    """Infimum over T > 0 of the fixed-horizon cost.

    ``_moving_cost`` when the plan moves positions (then A > 0), else 3 C + D
    (the large-T limit, T-independent when A = 0 exactly). A cost that leaves
    the float range raises ``OverflowError``.
    """
    if not m.keeps_positions:
        cost = _moving_cost(m.A, max(m.B, 0.0), m.C, m.D)
        if not math.isfinite(cost):
            raise OverflowError(_ENVELOPE_OVERFLOW)
        return cost
    return 3.0 * m.C + m.D


def cost_c(m: PlanMoments) -> float:
    """Envelope plan cost: ``cost_tilde_c`` if the plan moves positions, else D."""
    if not m.keeps_positions:
        return cost_tilde_c(m)
    return m.D


def optimal_time_plan(m: PlanMoments) -> OptimalTime:
    """A coupling's optimal horizon: zero if it keeps positions, else ``phase.optimal_horizon``."""
    return OptimalTime.zero() if m.keeps_positions else optimal_horizon(m.A, m.B, m.C)


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
    T = positive_horizon(T)
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


def _curve_bound(l1: float, l2: float, l3: float) -> float:
    """Least value over t in [0, 1] of (1-t)^2 l1 + 2 t (1-t) l3 + t^2 l2.

    It is -inf when l3 is, l3 + a b / (a + b) with a = l1 - l3 and b = l2 - l3
    (the interior minimum (l1 l2 - l3^2) / (l1 + l2 - 2 l3), written so that
    it stays between l3 and min(l1, l2) in floats) when l3 < min(l1, l2), and
    min(l1, l2) otherwise. It is nondecreasing in each argument. A NaN
    argument can make it NaN, and a NaN bound drops no interval.
    """
    if l3 == -math.inf:
        return -math.inf
    a, b = l1 - l3, l2 - l3
    if a > 0.0 and b > 0.0:
        return l3 + a / (a + b) * b
    return min(l1, l2)


def _split_fraction(l1: float, l2: float, l3: float) -> float:
    """Where the search splits an interval, as a fraction t of its width.

    t = a / (a + b) with a = l1 - l3 and b = l2 - l3 is where the Bezier of
    ``_curve_bound`` is least (Horst & Tuy's adaptive subdivision), clamped
    to [SPLIT_MARGIN, 1 - SPLIT_MARGIN]; it is 1/2 when a or b is not
    positive or t is NaN. It is unchanged when all three values are scaled
    by one power of two.
    """
    a, b = l1 - l3, l2 - l3
    if a > 0.0 and b > 0.0:
        t = a / (a + b)
        if t == t:  # NaN when a is infinite
            return min(max(t, SPLIT_MARGIN), 1.0 - SPLIT_MARGIN)
    return 0.5


def _solve_time_optimised(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    final_cost,
) -> SolveResult:
    """Exact search over s = 1/T >= 0 for the infimum of OT(s).

    Phi(u, s) = min over plans of ``_corner_value`` is concave, and OT(s) =
    Phi(s^2, s). On [s1, s2] the curve (s^2, s) is the quadratic Bezier curve
    with control points c1 = (s1^2, s1), c3 = (s1 s2, (s1 + s2)/2), where the
    tangents at the two ends meet, and c2 = (s2^2, s2): at t in [0, 1] it is
    (1-t)^2 c1 + 2 t (1-t) c3 + t^2 c2. The weights are nonnegative and sum
    to 1, so by concavity OT there is at least the same combination of Phi at
    the control points, and ``_curve_bound`` of the three values bounds OT
    from below on the interval. An interval is dropped when that bound
    reaches the best time-optimised cost found, or when one of its three
    plans attains all three corner values (Phi is then that plan's linear
    function on the triangle, whose minimum is already counted); otherwise it
    is split at x = s1 + t (s2 - s1), which costs one LP at (x^2, x). The
    fraction t is ``_split_fraction`` of the three values: where the Bezier
    bound is least, so each part's own bound rises most (Horst & Tuy,
    *Global Optimization*, ch. VII), kept SPLIT_MARGIN of the width from
    either end, and 1/2 where that point is not defined.

    De Casteljau's construction gives each part's third corner: the left
    part's divides the segment from c1 to c3 in the ratio t : 1 - t, the
    right part's the segment from c3 to c2 in the same ratio, and both
    segments lie on the tangent at their end. So by concavity Phi there is
    at least (1 - t) l1 + t l3 on the left and t l2 + (1 - t) l3 on the
    right, where l1, l2, l3 are the parent's three values. A part carries
    that bound and, being monotone in each value, ``_curve_bound`` takes it
    in place of Phi at the third corner: the part is dropped before its
    corner LP when that bound reaches the best cost. Otherwise, and always
    at the root, the corner LP is solved and the bound retaken. The corners
    are floats, so the ratio holds only to rounding, which ``COST_TOL``
    absorbs. The split point changes which LPs the search solves, not what
    it proves: the least cost is the same, and only a tie between plans of
    equal cost could be won by another of them.

    Past S, every plan's cost rises whenever 2 S A_P >= B_P, which one LP
    checks for all plans at once, so only [0, S] is searched. S starts at 1;
    while the LP's plan P fails the check, S moves to B_P / (2 A_P), the least
    bound that plan allows (Dinkelbach's step), so S ends at the least bound
    that one LP proves, within the tolerance.
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
        step = m.B / (2.0 * m.A) if m.A > 0.0 else math.inf
        S = step if S < step < math.inf else 4.0 * S
    # Each stacked interval carries a lower bound on Phi at its third corner;
    # the root carries none.
    stack = [((0.0, m_zero), (S, corner(S * S, S)), -np.inf)]
    while stack:
        (s1, m1), (s2, m2), low3 = stack.pop()
        corners = ((s1 * s1, s1), (s2 * s2, s2), (s1 * s2, 0.5 * (s1 + s2)))
        lows = [_corner_value(m1, *corners[0]), _corner_value(m2, *corners[1]), low3]
        if _curve_bound(*lows) >= best - tol():
            continue
        m3 = corner(*corners[2])
        lows[2] = _corner_value(m3, *corners[2])
        if _curve_bound(*lows) >= best - tol():
            continue
        # The curve bound alone cannot end every search: a plan that keeps
        # positions enters ``best`` at 3 C + D, while its linear function can
        # dip below that on the triangle, so where that plan is Phi the bound
        # never reaches ``best``, and only this rule stops the splitting before
        # no float is left between the ends.
        plans = (m1, m2, m3)
        if any(
            all(_corner_value(m, u, s) <= low + tol() for (u, s), low in zip(corners, lows))
            for m in plans
        ):
            continue
        t = _split_fraction(*lows)
        x = (1.0 - t) * s1 + t * s2
        if not s1 < x < s2:  # x rounds onto an end: the interval is a few floats wide
            continue
        m_x = corner(x * x, x)
        # Each part's third corner divides the segment from its end corner to
        # this interval's third corner as x divides [s1, s2], so Phi there is
        # at least the same combination of their values.
        stack.append(((x, m_x), (s2, m2), t * lows[1] + (1.0 - t) * lows[2]))
        stack.append(((s1, m1), (x, m_x), (1.0 - t) * lows[0] + t * lows[2]))

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


def brute_force_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> SolveResult:
    """Global minimum of the envelope cost by vertex enumeration.

    The time-optimised cost is an infimum of linear functions of the plan,
    hence concave; its minimum over the polytope is attained at a vertex, so
    enumerating vertices is exhaustive. ``lp.vertex_plans`` gives them as one
    (V, m, k) stack: ``PairMoments.of_each`` gives the validated moments of
    all of them as arrays, and ``cost_c`` is evaluated elementwise. All optimal
    vertices within a relative tie tolerance of ``ORACLE_TIE_TOL`` are
    reported in ``optima``, in enumeration order; only these get a copied
    plan and an optimal horizon. A pair whose enumeration would walk more
    than ``ORACLE_MAX_CANDIDATES`` candidates (``lp.candidate_bases``) raises
    ``ValueError`` before any pairwise matrix is built.
    """
    m, k = mu.size, nu.size
    count = candidate_bases(mu.weights, nu.weights)
    if count > ORACLE_MAX_CANDIDATES:
        shown = count if count < 10**18 else f"about 10^{math.log10(count):.0f}"
        raise ValueError(
            f"instance too large for the oracle (m={m}, k={k}: {shown} candidate "
            f"bases, more than the limit {ORACLE_MAX_CANDIDATES})"
        )
    pm = PairMoments(mu, nu)
    plans = vertex_plans(mu.weights, nu.weights)
    A, B, C, D, keeps = pm.of_each(plans)
    # cost_c of every vertex: D where it keeps positions, else _moving_cost.
    costs = D.copy()
    moves = ~keeps
    with np.errstate(over="ignore", invalid="ignore"):
        costs[moves] = _moving_cost(A[moves], np.maximum(B[moves], 0.0), C[moves], D[moves])
    if not np.isfinite(costs).all():
        raise OverflowError(_ENVELOPE_OVERFLOW)
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
    same_dimension(mu.dim, nu.dim)
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
