"""Particle-level kinetics on phase space.

A phase state is a pair (x, v) of position and velocity in R^n. The module
builds, evaluates and prices the cubic connector that minimises the
time-weighted squared acceleration between two states, held as one row of
ascending coefficients. It also gives the induced fixed-horizon discrepancy,
its time-optimised variants, and the rules that points, plans (``solver``)
and measure pairs (``measures``) share: the tolerances, the horizon and
dimension checks, the fixed-horizon cost in the moments A, B, C, D and the
optimal horizon 2A/B. With s = 1/T, that cost is |p - q|^2 + |w - v|^2 where
p = sqrt(12) (s x + v/2) and q = sqrt(12) (s y - w/2), so at each fixed T the
measures' discrepancy is ``measures.w2_sq`` of the images (p, v) and (q, w).
Free transport, zero-discrepancy detection and derivatives along curves act on
measures: see ``measures.pushforward_free_transport``,
``solver.detect_free_transport`` and ``dynamics.metric_derivative_probe``.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhaseState",
    "OptimalTime",
    "spline_from_endpoints",
    "spline_states",
    "spline_action",
    "tilde_dT_sq",
    "optimal_time_point",
    "tilde_d_sq",
    "d_sq",
]

# A time may overshoot either end of a horizon T by HORIZON_TOL * T.
HORIZON_TOL = 1e-12
# Two positions coincide within POSITION_TOL * (1 + their scale); see _gap.
POSITION_TOL = 1e-12
# Moments A, C, D down to -MOMENT_NEG_TOL are rounding, not negative, and so is
# a gap-velocity product B up to MOMENT_NEG_TOL * sqrt(A C).
MOMENT_NEG_TOL = 1e-12
# A requested time matches a grid time within TIME_GRID_TOL times the grid's
# scale (its span, or its step when steps are compared).
TIME_GRID_TOL = 1e-9


def _as_vector(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class PhaseState:
    """A point (x, v) of phase space: position and velocity of equal dimension."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_vector(self.x))
        object.__setattr__(self, "v", _as_vector(self.v))
        if self.x.shape != self.v.shape:
            raise ValueError(
                f"position and velocity dimensions differ: {self.x.shape} vs {self.v.shape}"
            )
        if self.x.size < 1:
            raise ValueError("phase state must have dimension >= 1")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.v))):
            raise ValueError("phase state entries must be finite")

    @property
    def dim(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class OptimalTime:
    """Three-way tag for the cost-minimising horizon: zero, finite, or infinite.

    The tag is explicit; no sentinel float values are used. A finite tag always
    carries a strictly positive horizon.
    """

    kind: str  # "zero" | "finite" | "infinite"
    value: float | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "finite", "infinite"):
            raise ValueError(f"unknown optimal-time kind {self.kind!r}")
        if self.kind == "finite":
            if self.value is None or not self.value > 0:
                raise ValueError("finite optimal time must carry a positive value")
        elif self.value is not None:
            raise ValueError(f"{self.kind!r} optimal time carries no value")

    @staticmethod
    def zero() -> "OptimalTime":
        return OptimalTime("zero")

    @staticmethod
    def finite(T: float) -> "OptimalTime":
        return OptimalTime("finite", float(T))

    @staticmethod
    def infinite() -> "OptimalTime":
        return OptimalTime("infinite")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


def positive_horizon(T) -> float:
    """The horizon ``T`` as a float; one that is not positive raises ``ValueError``."""
    if not T > 0:
        raise ValueError(f"horizon must be positive, got {T}")
    return float(T)


def same_dimension(n_src: int, n_dst: int) -> None:
    """Raise ``ValueError`` unless the two phase-space dimensions agree."""
    if n_src != n_dst:
        raise ValueError(f"dimension mismatch: {n_src} vs {n_dst}")


def fixed_horizon_cost(A, B, C, D, T: float):
    """12 A / T^2 - 12 B / T + 3 C + D, on plan moments or elementwise on pair matrices."""
    return 12.0 * A / T**2 - 12.0 * B / T + 3.0 * C + D


def optimal_horizon(A: float, B: float, C: float) -> OptimalTime:
    """For A > 0, the T minimising ``fixed_horizon_cost``: 2A/B, or infinite when B
    is at most MOMENT_NEG_TOL sqrt(A C), the round-off of an exact 0 (no T of 1e17)."""
    if B > MOMENT_NEG_TOL * float(np.sqrt(max(A * C, 0.0))):
        return OptimalTime.finite(2.0 * A / B)
    return OptimalTime.infinite()


def spline_from_endpoints(x, v, y, w, T: float) -> np.ndarray:
    """Minimal-acceleration cubic from (x, v) at time 0 to (y, w) at time T.

    This is the unique minimiser of ``T * integral |alpha''|^2`` among H^2
    curves with prescribed endpoint states; its coefficients follow from the
    boundary conditions together with the Euler-Lagrange equation
    alpha'''' = 0. Elementwise over states of shape (..., n), it returns the
    ascending coefficients [a0, a1, a2, a3] of ``t -> a3 t^3 + a2 t^2 + a1 t
    + a0``, shape (..., 4, n): one connector is one (4, n) row. A horizon
    whose powers leave the float range, so that a coefficient of finite
    states overflows, raises ``OverflowError``.
    """
    T = positive_horizon(T)
    x, v, y, w = (np.asarray(a, dtype=float) for a in (x, v, y, w))
    same_dimension(x.shape[-1], y.shape[-1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a3 = (v + w) / T**2 - 2.0 * (y - x) / T**3
        a2 = 3.0 * (y - x) / T**2 - (2.0 * v + w) / T
    if not (np.all(np.isfinite(a3)) and np.all(np.isfinite(a2))):
        raise OverflowError(f"the connector coefficients at T={T} are not finite")
    return np.stack([x, v, a2, a3], axis=-2)


def spline_states(coef: np.ndarray, t):
    """Positions and velocities at time ``t`` of (..., 4, n) coefficient rows.

    ``t`` broadcasts against the (..., n) states: one call evaluates a whole
    ensemble at one time, or each row at times of its own.
    """
    a0, a1, a2, a3 = (coef[..., p, :] for p in range(4))
    return ((a3 * t + a2) * t + a1) * t + a0, (3.0 * a3 * t + 2.0 * a2) * t + a1


def spline_action(coef: np.ndarray, T: float) -> float:
    """Closed form of ``T * integral_0^T |alpha''(t)|^2 dt`` for one (4, n) row.

    With alpha'' = 6 a3 t + 2 a2 the integrand is quadratic, so the integral is
    12 |a3|^2 T^3 + 12 (a3 . a2) T^2 + 4 |a2|^2 T.  The value coincides with
    ``tilde_dT_sq`` of the endpoint states.
    """
    a3, a2 = coef[3], coef[2]
    q33, q32, q22 = float(np.dot(a3, a3)), float(np.dot(a3, a2)), float(np.dot(a2, a2))
    return T * (12.0 * q33 * T**3 + 12.0 * q32 * T**2 + 4.0 * q22 * T)


def _gap(src: PhaseState, dst: PhaseState) -> tuple[np.ndarray, float, bool]:
    """The gap y - x of two states of one dimension, its squared norm, and
    whether the positions coincide: |y - x| <= POSITION_TOL (1 + |x| + |y|).

    The closed forms switch branch there, discontinuously, so the test is
    made in one place, deterministic and scale-aware.
    """
    same_dimension(src.dim, dst.dim)
    gap = dst.x - src.x
    gap_sq = float(np.dot(gap, gap))
    scale = 1.0 + float(np.linalg.norm(src.x)) + float(np.linalg.norm(dst.x))
    return gap, gap_sq, float(np.sqrt(gap_sq)) <= POSITION_TOL * scale


def _closed_form(src: PhaseState, dst: PhaseState, envelope: bool) -> float:
    """``d_sq`` when ``envelope``, else ``tilde_d_sq``; they differ only where
    the positions coincide."""
    gap, gap_sq, coincide = _gap(src, dst)
    dv = dst.v - src.v
    dv_sq = float(np.dot(dv, dv))
    if coincide and envelope:
        return dv_sq
    vw = src.v + dst.v
    base = 3.0 * float(np.dot(vw, vw)) + dv_sq
    if coincide:
        return base
    aligned = max(float(np.dot(gap, vw)) / float(np.sqrt(gap_sq)), 0.0)
    return base - 3.0 * aligned * aligned


def tilde_dT_sq(src: PhaseState, dst: PhaseState, T: float) -> float:
    """Squared fixed-horizon discrepancy: 12 |(y-x)/T - (v+w)/2|^2 + |w-v|^2."""
    T = positive_horizon(T)
    same_dimension(src.dim, dst.dim)
    drift = (dst.x - src.x) / T - 0.5 * (src.v + dst.v)
    dv = dst.v - src.v
    return 12.0 * float(np.dot(drift, drift)) + float(np.dot(dv, dv))


def optimal_time_point(src: PhaseState, dst: PhaseState) -> OptimalTime:
    """Horizon minimising ``T -> tilde_dT_sq(src, dst, T)`` over T > 0.

    Zero by convention when y = x; otherwise ``optimal_horizon`` of the pair's
    moments A = |y-x|^2, B = (y-x).(v+w) and C = |v+w|^2, the rule
    ``solver.optimal_time_plan`` applies to plans.
    """
    gap, gap_sq, coincide = _gap(src, dst)
    if coincide:
        return OptimalTime.zero()
    vw = src.v + dst.v
    return optimal_horizon(gap_sq, float(np.dot(gap, vw)), float(np.dot(vw, vw)))


def tilde_d_sq(src: PhaseState, dst: PhaseState) -> float:
    """Infimum over T > 0 of ``tilde_dT_sq``, in closed form.

    For x != y: 3 |v+w|^2 - 3 ((u.(v+w))_+)^2 + |w-v|^2 with u the unit vector
    from x to y; for x = y: 3 |v+w|^2 + |w-v|^2.  The clamped branch is also
    the analytic T -> infinity limit, which applies whenever the optimal time
    is not finite.
    """
    return _closed_form(src, dst, envelope=False)


def d_sq(src: PhaseState, dst: PhaseState) -> float:
    """Squared second-order discrepancy (lower-semicontinuous envelope of tilde).

    Identical to ``tilde_d_sq`` when x != y, and |w-v|^2 when x = y.
    """
    return _closed_form(src, dst, envelope=True)
