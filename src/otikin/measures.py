"""Discrete probability measures on phase space, couplings, and plan moments.

A measure is a weighted point cloud of phase states; weights are positive and
sum to one. Couplings are dense nonnegative matrices with prescribed
marginals, supported on the cells above the simplex's ``lp.support_floor``;
a plan keeps positions when no such cell joins distinct positions. Every
plan-level cost factors through the four moments (A, B, C, D), and every
pointwise cost matrix is a linear combination of the four pairwise matrices
behind them; ``PairMoments`` is the one place those matrices are built.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .lp import MASS_ROUNDING_TOL, MASS_TOL, support_floor, transportation_simplex
from .phase import POSITION_TOL, PhaseState

__all__ = [
    "DiscreteMeasure",
    "Coupling",
    "PlanMoments",
    "PairMoments",
    "validate_measure",
    "measure_from_json",
    "measure_to_json",
    "measure_from_csv",
    "measure_to_csv",
    "load_measure",
    "product_coupling",
    "plan_moments",
    "w2_sq",
    "pushforward_free_transport",
    "coincident_blocks",
]

# Parsed weight sums within this of 1 are renormalised, larger gaps rejected.
WEIGHT_SUM_TOL = 1e-6
# A constructed measure's weights must sum to 1 within this.
UNIT_MASS_TOL = 1e-10
# Moments A, C, D down to -MOMENT_NEG_TOL are rounding, not negative.
MOMENT_NEG_TOL = 1e-12
# |B| may exceed sqrt(A C) by CAUCHY_SCHWARZ_TOL * (1 + sqrt(A C)).
CAUCHY_SCHWARZ_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atoms on phase space, stored as (m, n) position/velocity arrays."""

    positions: np.ndarray
    velocities: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.positions, dtype=float))
        V = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        object.__setattr__(self, "positions", X)
        object.__setattr__(self, "velocities", V)
        object.__setattr__(self, "weights", w)
        if X.shape != V.shape:
            raise ValueError(f"position/velocity shapes differ: {X.shape} vs {V.shape}")
        if X.shape[1] < 1:
            raise ValueError("phase states must have dimension >= 1")
        if X.shape[0] != w.size:
            raise ValueError("number of weights does not match number of atoms")
        if w.size == 0:
            raise ValueError("measure must contain at least one atom")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(V)):
            raise ValueError("atom coordinates must be finite")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("weights must be finite and strictly positive")
        if abs(float(w.sum()) - 1.0) > UNIT_MASS_TOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def size(self) -> int:
        return self.weights.size

    def atom(self, i: int) -> PhaseState:
        return PhaseState(self.positions[i], self.velocities[i])

    def velocity_norm_sq(self) -> float:
        """Mass-weighted squared velocity norm."""
        return float(np.sum(self.weights * np.sum(self.velocities**2, axis=1)))

    def mean_velocity(self) -> np.ndarray:
        """Total momentum (mass-weighted mean of v)."""
        return np.asarray(self.weights @ self.velocities, dtype=float)


def _is_number(value) -> bool:
    """A JSON number: an int or a float, and not a bool, which is an int too."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_measure(raw) -> DiscreteMeasure:
    """Build a measure from parsed data, rescaling near-unit weight sums.

    ``raw`` is either a dict with keys ``dim`` (an integer of at least 1, not
    a bool) and ``points`` (each point a dict with ``x`` and ``v``, flat lists
    of numbers, and ``w``, a number; a number is an int or a float, not a bool
    or a string) or a triple of arrays. Weight sums within ``WEIGHT_SUM_TOL``
    of 1 are renormalised; larger deviations are rejected.
    """
    if isinstance(raw, dict):
        dim = raw["dim"]
        if type(dim) is not int or dim < 1:
            raise ValueError(f"dim must be an integer of at least 1, got {dim!r}")
        pts = raw.get("points", [])
        if not pts:
            raise ValueError("measure has no atoms")
        X, V, w = [], [], []
        for i, p in enumerate(pts):
            if not isinstance(p, dict):
                raise ValueError(f'point {i} must be an object with "x", "v" and "w"')
            for key in ("x", "v", "w"):
                if key not in p:
                    raise ValueError(f'point {i} has no "{key}"')
            x, v = p["x"], p["v"]
            for key, c in (("x", x), ("v", v)):
                if not isinstance(c, list) or any(isinstance(e, list) for e in c):
                    raise ValueError("atom x and v must be flat lists")
                if not all(map(_is_number, c)):
                    raise ValueError(f'point {i} "{key}" must hold numbers only, got {c!r}')
            if not _is_number(p["w"]):
                raise ValueError(f'point {i} "w" must be a number, got {p["w"]!r}')
            if len(x) != dim or len(v) != dim:
                raise ValueError(
                    f"atom dimension {len(x)}/{len(v)} does not match dim={dim}"
                )
            X.append(x)
            V.append(v)
            w.append(p["w"])
        X, V, w = (np.asarray(c, dtype=float) for c in (X, V, w))
    else:
        X, V, w = raw
        X = np.atleast_2d(np.asarray(X, dtype=float))
        V = np.atleast_2d(np.asarray(V, dtype=float))
        w = np.asarray(w, dtype=float).ravel()
    if w.size == 0:
        raise ValueError("measure has no atoms")
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError("weights must be finite and strictly positive")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {total}, more than {WEIGHT_SUM_TOL} from 1")
    return DiscreteMeasure(X, V, w / total)


def measure_from_json(text: str) -> DiscreteMeasure:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed measure JSON: {exc}") from exc
    if not isinstance(raw, dict) or "dim" not in raw or "points" not in raw:
        raise ValueError("measure JSON must be an object with 'dim' and 'points'")
    return validate_measure(raw)


def measure_to_json(mu: DiscreteMeasure) -> dict:
    return {
        "dim": mu.dim,
        "points": [
            {
                "x": [float(c) for c in mu.positions[i]],
                "v": [float(c) for c in mu.velocities[i]],
                "w": float(mu.weights[i]),
            }
            for i in range(mu.size)
        ],
    }


def measure_from_csv(text: str) -> DiscreteMeasure:
    """Parse one atom per row under exactly the CSV header ``x1..xn,v1..vn,w``."""
    reader = csv.reader(io.StringIO(text))
    rows = [r for r in reader if r and any(c.strip() for c in r)]
    if len(rows) < 2:
        raise ValueError("measure CSV needs a header and at least one atom row")
    header = [c.strip() for c in rows[0]]
    n_x = (len(header) - 1) // 2
    if n_x < 1 or header != _csv_header(n_x):
        raise ValueError(f"unexpected measure CSV header {header!r}")
    X, V, w = [], [], []
    for r in rows[1:]:
        if len(r) != len(header):
            raise ValueError(f"CSV row has {len(r)} fields, expected {len(header)}")
        vals = [float(c) for c in r]
        X.append(vals[:n_x])
        V.append(vals[n_x : 2 * n_x])
        w.append(vals[-1])
    return validate_measure((np.asarray(X), np.asarray(V), np.asarray(w)))


def _csv_header(n: int) -> list[str]:
    return [f"x{i+1}" for i in range(n)] + [f"v{i+1}" for i in range(n)] + ["w"]


def measure_to_csv(mu: DiscreteMeasure) -> str:
    lines = [",".join(_csv_header(mu.dim))]
    for i in range(mu.size):
        row = (
            [format(c, ".17g") for c in mu.positions[i]]
            + [format(c, ".17g") for c in mu.velocities[i]]
            + [format(float(mu.weights[i]), ".17g")]
        )
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def load_measure(path: str, fmt: str = "json") -> DiscreteMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        return measure_from_json(text)
    if fmt == "csv":
        return measure_from_csv(text)
    raise ValueError(f"unknown measure format {fmt!r}")


@dataclass(frozen=True)
class Coupling:
    """Dense m x k transport plan between two measures.

    Entries down to -``lp.MASS_ROUNDING_TOL`` are clipped to zero; row sums
    must match the source weights and column sums the target weights within
    ``lp.MASS_TOL``.
    """

    P: np.ndarray
    source: DiscreteMeasure
    target: DiscreteMeasure

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        if P.ndim != 2 or P.shape != (self.source.size, self.target.size):
            raise ValueError(
                f"plan shape {P.shape} does not match marginals "
                f"({self.source.size}, {self.target.size})"
            )
        if float(P.min(initial=0.0)) < -MASS_ROUNDING_TOL:
            raise ValueError(f"plan has negative mass {P.min()}")
        P = np.clip(P, 0.0, None)
        object.__setattr__(self, "P", P)
        row_err = float(np.max(np.abs(P.sum(axis=1) - self.source.weights)))
        col_err = float(np.max(np.abs(P.sum(axis=0) - self.target.weights)))
        if max(row_err, col_err) > MASS_TOL:
            raise ValueError(
                f"marginal violation {max(row_err, col_err):.3e} exceeds {MASS_TOL}"
            )

    def support(self) -> list[tuple[int, int]]:
        """Row-major ``(i, j)`` cells with mass above the weights' ``lp.support_floor``."""
        floor = support_floor(self.source.weights, self.target.weights)
        return [(int(i), int(j)) for i, j in np.argwhere(self.P > floor)]


@dataclass(frozen=True)
class PlanMoments:
    """The four cost moments of a coupling.

    A = mean squared position gap, B = mean inner product of gap with velocity
    sum, C = mean squared velocity sum, D = mean squared velocity difference.
    ``keeps_positions`` says no cell of the plan's support (``lp.support_floor``)
    joins distinct positions: the costs then take their A = 0 branch. A plan
    that does not keep positions has A > 0, which guards the division by A.
    """

    A: float
    B: float
    C: float
    D: float
    keeps_positions: bool

    def __post_init__(self):
        if min(self.A, self.C, self.D) < -MOMENT_NEG_TOL:
            raise ValueError("moments A, C, D must be nonnegative")
        cs = math.sqrt(max(self.A, 0.0) * max(self.C, 0.0))
        if abs(self.B) > cs + CAUCHY_SCHWARZ_TOL * (1.0 + cs):
            raise ValueError(f"|B|={abs(self.B)} violates Cauchy-Schwarz bound {cs}")


def product_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Coupling:
    """Independence coupling P[i, j] = w_i u_j."""
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    return Coupling(np.outer(mu.weights, nu.weights), mu, nu)


class PairMoments:
    """The four pairwise cost matrices of a measure pair, built once.

    With gap = y_j - x_i, vsum = v_i + w_j and vdiff = w_j - v_i, the m x k
    matrices are A = |gap|^2, B = gap . vsum, C = |vsum|^2 and D = |vdiff|^2.
    Every pointwise cost and the moments of every plan are linear in them.
    Coordinates whose squares overflow raise ``ValueError``.

    Positions coincide when their Euclidean gap is within POSITION_TOL *
    (1 + the largest position norm of each measure), the rule
    of ``phase.d_sq`` applied to the whole pair. ``distinct`` is True on the
    cells between distinct positions; a plan keeps positions when none of
    them holds mass above its ``lp.support_floor``, and ``coincident_blocks``
    reads ``~distinct`` as the coincident cells.
    """

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        if mu.dim != nu.dim:
            raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
        with np.errstate(over="ignore", invalid="ignore"):
            gap = nu.positions[None, :, :] - mu.positions[:, None, :]
            vsum = nu.velocities[None, :, :] + mu.velocities[:, None, :]
            vdiff = nu.velocities[None, :, :] - mu.velocities[:, None, :]
            self.A = np.sum(gap * gap, axis=2)
            self.B = np.sum(gap * vsum, axis=2)
            self.C = np.sum(vsum * vsum, axis=2)
            self.D = np.sum(vdiff * vdiff, axis=2)
            scale = sum(
                float(np.sqrt(np.max(np.sum(x * x, axis=1), initial=0.0)))
                for x in (mu.positions, nu.positions)
            )
            tol = POSITION_TOL * (1.0 + scale)
            self.distinct = self.A > tol * tol
        moments = (self.A, self.B, self.C, self.D)
        if not all(np.all(np.isfinite(M)) for M in moments):
            raise ValueError("pairwise moments overflow; coordinates are too large")
        # The moment matrices, and per cell the flow above which a plan moves positions.
        self._stack = np.stack(moments)
        self._move_floor = np.where(self.distinct, support_floor(mu.weights, nu.weights), np.inf)

    def fixed_T_cost(self, T: float) -> np.ndarray:
        """Pointwise fixed-horizon cost 12 A / T^2 - 12 B / T + 3 C + D.

        A horizon whose powers leave the float range, so that the cost
        overflows, raises ``OverflowError``.
        """
        T = float(T)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cost = 12.0 * self.A / T**2 - 12.0 * self.B / T + 3.0 * self.C + self.D
        if not np.all(np.isfinite(cost)):
            raise OverflowError(f"the fixed-horizon cost at T={T} is not finite")
        return cost

    def infinite_T_cost(self) -> np.ndarray:
        """Pointwise large-horizon cost 3 |v+w|^2 + |w-v|^2."""
        return 3.0 * self.C + self.D

    def of(self, P: np.ndarray) -> PlanMoments:
        """Moments of the plan matrix ``P``: the P-weighted sums of A, B, C, D,
        from one reduction over the stacked matrices, each with the bits of its
        own ``np.sum(P * M)``, and whether no distinct cell exceeds its floor.
        """
        if P.shape != self.A.shape:
            raise ValueError("coupling does not match the given measures")
        A, B, C, D = np.sum(self._stack * P, axis=(-2, -1)).tolist()
        return PlanMoments(A, B, C, D, not (P > self._move_floor).any())

    def of_each(self, plans: np.ndarray) -> tuple[np.ndarray, ...]:
        """Moments of every plan in a (V, m, k) stack as five (V,) arrays.

        Returns ``A, B, C, D, keeps_positions``; entry v holds the bits ``of``
        gives plan v, since both reduce each plan's cells in the same order.
        The arrays are checked as ``PlanMoments`` checks one plan, and the
        first plan it would reject raises its ``ValueError``.
        """
        if plans.ndim != 3:
            raise ValueError("expected a stack of plan matrices")
        if plans.shape[1:] != self.A.shape:
            raise ValueError("coupling does not match the given measures")
        A, B, C, D = (np.sum(plans * M, axis=(-2, -1)) for M in self._stack)
        keeps = ~(plans > self._move_floor).any(axis=(-2, -1))
        cs = np.sqrt(np.maximum(A, 0.0) * np.maximum(C, 0.0))
        bad = (np.minimum(np.minimum(A, C), D) < -MOMENT_NEG_TOL) | (
            np.abs(B) > cs + CAUCHY_SCHWARZ_TOL * (1.0 + cs)
        )
        if bad.any():
            v = int(np.argmax(bad))  # its PlanMoments raises the error
            PlanMoments(float(A[v]), float(B[v]), float(C[v]), float(D[v]), bool(keeps[v]))
        return A, B, C, D, keeps


def plan_moments(mu: DiscreteMeasure, nu: DiscreteMeasure, plan: Coupling) -> PlanMoments:
    """Exact weighted sums of the four pairwise cost ingredients."""
    return PairMoments(mu, nu).of(plan.P)


def w2_sq(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact squared 2-Wasserstein distance with cost |x-y|^2 + |v-w|^2."""
    pm = PairMoments(mu, nu)
    cost = pm.A + pm.D
    P = transportation_simplex(cost, mu.weights, nu.weights)
    return float(np.sum(P * cost))


def pushforward_free_transport(mu: DiscreteMeasure, T: float) -> DiscreteMeasure:
    """Image of the measure under the drift map (x, v) -> (x + T v, v)."""
    if T < 0:
        raise ValueError(f"free transport requires T >= 0, got {T}")
    return DiscreteMeasure(
        mu.positions + float(T) * mu.velocities,
        mu.velocities.copy(),
        mu.weights.copy(),
    )


def coincident_blocks(
    close: np.ndarray,
    w_a: np.ndarray,
    w_b: np.ndarray,
    w_tol: float,
) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Split two weighted point sets into blocks that carry the same mass.

    ``close[i, j]`` says point i of the first set coincides with point j of
    the second; the points of the first set that coincide with the same
    points of the second set form one block with them. The two sets are the
    same measure iff every point lies in exactly one block and each block
    carries equal mass on both sides, within ``w_tol``. Returns the
    ``(rows, cols)`` index arrays of each block, both ascending, or None if
    the measures differ.
    """
    if not close.any(axis=1).all():  # settled before the costlier np.unique
        return None
    patterns, inverse = np.unique(close, axis=0, return_inverse=True)
    if np.any(patterns.sum(axis=0) != 1):
        return None
    blocks = []
    for b, pattern in enumerate(patterns):
        rows, cols = np.flatnonzero(inverse == b), np.flatnonzero(pattern)
        if abs(float(w_a[rows].sum()) - float(w_b[cols].sum())) > w_tol:
            return None
        blocks.append((rows, cols))
    return blocks
