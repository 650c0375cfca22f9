"""Particle-level kinetics on phase space.

A phase state is a pair (x, v) of position and velocity in R^n. The module
provides the cubic connector that minimises the time-weighted squared
acceleration between two states, the induced fixed-horizon discrepancy and its
time-optimised variants, and the tolerances shared by the measure-level code.
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
    "CubicSpline",
    "OptimalTime",
    "spline_from_endpoints",
    "spline_action",
    "tilde_dT_sq",
    "optimal_time_point",
    "tilde_d_sq",
    "d_sq",
]

# A time may overshoot either end of a horizon T by HORIZON_TOL * T.
HORIZON_TOL = 1e-12
# Two positions coincide within POSITION_TOL * (1 + their scale); see _eps_x.
POSITION_TOL = 1e-12
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


# Positional tolerance for the x == y branch switch.  The switch in the
# closed-form discrepancies is discontinuous, so the decision must be
# deterministic and scale-aware.
def _eps_x(x: np.ndarray, y: np.ndarray) -> float:
    return POSITION_TOL * (1.0 + float(np.linalg.norm(x)) + float(np.linalg.norm(y)))


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


@dataclass(frozen=True)
class CubicSpline:
    """Degree-3 polynomial trajectory ``t -> a3 t^3 + a2 t^2 + a1 t + a0`` on [0, T].

    This is the unique minimiser of ``T * integral |alpha''|^2`` among H^2
    curves with prescribed endpoint states; its acceleration is affine in t.
    """

    a3: np.ndarray
    a2: np.ndarray
    a1: np.ndarray
    a0: np.ndarray
    horizon: float

    def __post_init__(self):
        for name in ("a3", "a2", "a1", "a0"):
            object.__setattr__(self, name, _as_vector(getattr(self, name)))
        if not self.horizon > 0:
            raise ValueError("spline horizon must be positive")
        n = self.a0.size
        if any(getattr(self, name).size != n for name in ("a3", "a2", "a1")):
            raise ValueError("spline coefficients have inconsistent dimensions")

    def position(self, t: float) -> np.ndarray:
        return ((self.a3 * t + self.a2) * t + self.a1) * t + self.a0

    def velocity(self, t: float) -> np.ndarray:
        return (3.0 * self.a3 * t + 2.0 * self.a2) * t + self.a1


def spline_from_endpoints(src: PhaseState, dst: PhaseState, T: float) -> CubicSpline:
    """Minimal-acceleration cubic from ``src`` at time 0 to ``dst`` at time T.

    Coefficients follow from the boundary conditions together with the
    Euler-Lagrange equation alpha'''' = 0.
    """
    if not T > 0:
        raise ValueError(f"horizon must be positive, got {T}")
    if src.dim != dst.dim:
        raise ValueError(f"dimension mismatch: {src.dim} vs {dst.dim}")
    a3, a2 = cubic_a3_a2(src.x, src.v, dst.x, dst.v, float(T))
    return CubicSpline(a3=a3, a2=a2, a1=src.v.copy(), a0=src.x.copy(), horizon=float(T))


def cubic_a3_a2(x, v, y, w, T: float):
    """Coefficients a3, a2 of the connector from (x, v) at time 0 to (y, w) at
    time T, elementwise over arrays of any shape; a1 and a0 are v and x."""
    a3 = (v + w) / T**2 - 2.0 * (y - x) / T**3
    a2 = 3.0 * (y - x) / T**2 - (2.0 * v + w) / T
    return a3, a2


def spline_action(s: CubicSpline) -> float:
    """Closed form of ``T * integral_0^T |alpha''(t)|^2 dt``.

    With alpha'' = 6 a3 t + 2 a2 the integrand is quadratic, so the integral is
    12 |a3|^2 T^3 + 12 (a3 . a2) T^2 + 4 |a2|^2 T.  The value coincides with
    ``tilde_dT_sq`` of the endpoint states.
    """
    return cubic_action(s.a3, s.a2, s.horizon)


def cubic_action(a3: np.ndarray, a2: np.ndarray, T: float) -> float:
    """``spline_action`` of the connector on [0, T] with those two coefficients."""
    q33 = float(np.dot(a3, a3))
    q32 = float(np.dot(a3, a2))
    q22 = float(np.dot(a2, a2))
    return T * (12.0 * q33 * T**3 + 12.0 * q32 * T**2 + 4.0 * q22 * T)


def tilde_dT_sq(src: PhaseState, dst: PhaseState, T: float) -> float:
    """Squared fixed-horizon discrepancy: 12 |(y-x)/T - (v+w)/2|^2 + |w-v|^2."""
    if not T > 0:
        raise ValueError(f"horizon must be positive, got {T}")
    if src.dim != dst.dim:
        raise ValueError(f"dimension mismatch: {src.dim} vs {dst.dim}")
    drift = (dst.x - src.x) / float(T) - 0.5 * (src.v + dst.v)
    dv = dst.v - src.v
    return 12.0 * float(np.dot(drift, drift)) + float(np.dot(dv, dv))


def optimal_time_point(src: PhaseState, dst: PhaseState) -> OptimalTime:
    """Horizon minimising ``T -> tilde_dT_sq(src, dst, T)`` over T > 0.

    Finite(2 |y-x|^2 / ((y-x).(v+w))) when the dot product is positive; zero by
    convention when y = x; infinite otherwise (the infimum is only approached
    as T grows).
    """
    gap = dst.x - src.x
    gap_sq = float(np.dot(gap, gap))
    if np.sqrt(gap_sq) <= _eps_x(src.x, dst.x):
        return OptimalTime.zero()
    dot = float(np.dot(gap, src.v + dst.v))
    if dot > 0.0:
        return OptimalTime.finite(2.0 * gap_sq / dot)
    return OptimalTime.infinite()


def tilde_d_sq(src: PhaseState, dst: PhaseState) -> float:
    """Infimum over T > 0 of ``tilde_dT_sq``, in closed form.

    For x != y: 3 |v+w|^2 - 3 ((u.(v+w))_+)^2 + |w-v|^2 with u the unit vector
    from x to y; for x = y: 3 |v+w|^2 + |w-v|^2.  The clamped branch is also
    the analytic T -> infinity limit, which applies whenever the optimal time
    is not finite.
    """
    if src.dim != dst.dim:
        raise ValueError(f"dimension mismatch: {src.dim} vs {dst.dim}")
    vw = src.v + dst.v
    dv = dst.v - src.v
    base = 3.0 * float(np.dot(vw, vw)) + float(np.dot(dv, dv))
    gap = dst.x - src.x
    gap_norm = float(np.linalg.norm(gap))
    if gap_norm <= _eps_x(src.x, dst.x):
        return base
    aligned = max(float(np.dot(gap, vw)) / gap_norm, 0.0)
    return base - 3.0 * aligned * aligned


def d_sq(src: PhaseState, dst: PhaseState) -> float:
    """Squared second-order discrepancy (lower-semicontinuous envelope of tilde).

    Identical to ``tilde_d_sq`` when x != y, and |w-v|^2 when x = y.
    """
    if src.dim != dst.dim:
        raise ValueError(f"dimension mismatch: {src.dim} vs {dst.dim}")
    gap = dst.x - src.x
    if float(np.linalg.norm(gap)) <= _eps_x(src.x, dst.x):
        dv = dst.v - src.v
        return float(np.dot(dv, dv))
    return tilde_d_sq(src, dst)
