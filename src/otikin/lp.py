"""Exact linear programming backend for transportation problems.

``transportation_simplex`` solves min <C, P> over the transportation polytope
{P >= 0, row sums = a, col sums = b} and returns a basic (vertex) solution;
vertex outputs are required by the concave outer minimisation built on top.
Uniform marginals of equal size dispatch to an assignment solver.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = ["transportation_simplex", "is_uniform_equal"]


def is_uniform_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.size != b.size:
        return False
    u = 1.0 / a.size
    return bool(
        np.all(np.abs(a - u) <= 1e-12) and np.all(np.abs(b - u) <= 1e-12)
    )


def _assignment_plan(cost: np.ndarray, a: np.ndarray) -> np.ndarray:
    rows, cols = linear_sum_assignment(cost)
    P = np.zeros_like(cost)
    P[rows, cols] = a[rows]
    return P


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    """Initial basic feasible solution; returns the flow matrix and basis cells."""
    m, k = a.size, b.size
    P = np.zeros((m, k))
    basis: list[tuple[int, int]] = []
    ra = a.astype(float).copy()
    rb = b.astype(float).copy()
    i = j = 0
    while True:
        move = min(ra[i], rb[j])
        P[i, j] = move
        basis.append((i, j))
        ra[i] -= move
        rb[j] -= move
        if i == m - 1 and j == k - 1:
            break
        # Advance along the smaller residual; on ties prefer the row (keeps the
        # basis a spanning tree of exactly m + k - 1 cells, zeros allowed).
        if ra[i] <= rb[j] and i < m - 1:
            i += 1
        elif j < k - 1:
            j += 1
        else:
            i += 1
    return P, basis


def _tree_cycle(basis: list[tuple[int, int]], entering: tuple[int, int], m: int):
    """Unique cycle created by adding ``entering`` to the spanning-tree basis.

    Nodes 0..m-1 are rows, m..m+k-1 columns. Returns the cycle as an
    alternating cell sequence starting at the entering cell.
    """
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for (i, j) in basis:
        u, v = i, m + j
        adj.setdefault(u, []).append((v, (i, j)))
        adj.setdefault(v, []).append((u, (i, j)))
    start, goal = entering[0], m + entering[1]
    # BFS path goal -> start through the tree
    parent: dict[int, tuple[int, tuple[int, int]] | None] = {start: None}
    queue = [start]
    while queue:
        u = queue.pop(0)
        if u == goal:
            break
        for v, cell in adj.get(u, []):
            if v not in parent:
                parent[v] = (u, cell)
                queue.append(v)
    path_cells: list[tuple[int, int]] = []
    node = goal
    while parent[node] is not None:
        prev, cell = parent[node]  # type: ignore[misc]
        path_cells.append(cell)
        node = prev
    return [entering] + path_cells


def transportation_simplex(
    cost: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Exact minimiser of ``sum(C * P)`` with prescribed marginals.

    Primal transportation simplex with Bland's rule on both the entering cell
    (first negative reduced cost in row-major order) and the leaving cell
    (first among ratio-test ties), which precludes cycling under degeneracy.
    The result is always a basic solution, i.e. a vertex of the polytope,
    found within 40 m k + 200 pivots. A non-finite cost entry is rejected.
    """
    cost = np.asarray(cost, dtype=float)
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    m, k = a.size, b.size
    if cost.shape != (m, k):
        raise ValueError(f"cost shape {cost.shape} does not match marginals ({m}, {k})")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    if abs(float(a.sum()) - float(b.sum())) > 1e-9 * max(1.0, float(a.sum())):
        raise ValueError("marginal masses differ; transportation problem infeasible")
    if is_uniform_equal(a, b):
        return _assignment_plan(cost, a)
    if m == 1:
        return b.reshape(1, k).copy()
    if k == 1:
        return a.reshape(m, 1).copy()

    P, basis = _northwest_corner(a, b)
    basis_set = set(basis)
    red_tol = 1e-11 * (1.0 + float(np.max(np.abs(cost))))

    for _ in range(40 * m * k + 200):
        # Dual potentials from the tree: u_i + v_j = c_ij on basic cells.
        u = np.full(m, np.nan)
        v = np.full(k, np.nan)
        u[basis[0][0]] = 0.0
        pending = list(basis)
        while pending:
            progressed = False
            rest = []
            for (i, j) in pending:
                if not np.isnan(u[i]) and np.isnan(v[j]):
                    v[j] = cost[i, j] - u[i]
                    progressed = True
                elif np.isnan(u[i]) and not np.isnan(v[j]):
                    u[i] = cost[i, j] - v[j]
                    progressed = True
                elif np.isnan(u[i]) and np.isnan(v[j]):
                    rest.append((i, j))
            pending = rest if progressed else []
            if not progressed and rest:
                raise RuntimeError("basis is not connected; internal error")

        reduced = cost - u[:, None] - v[None, :]
        entering = None
        for i in range(m):
            for j in range(k):
                if (i, j) not in basis_set and reduced[i, j] < -red_tol:
                    entering = (i, j)
                    break
            if entering is not None:
                break
        if entering is None:
            return P

        cycle = _tree_cycle(basis, entering, m)
        minus = cycle[1::2]
        theta = min(P[c] for c in minus)
        leaving = None
        for c in minus:  # Bland: first minimiser in cycle order
            if P[c] <= theta + 0.0:
                leaving = c
                break
        for idx, c in enumerate(cycle):
            P[c] += theta if idx % 2 == 0 else -theta
        P[leaving] = 0.0
        basis.remove(leaving)
        basis.append(entering)
        basis_set.discard(leaving)
        basis_set.add(entering)

    raise RuntimeError("transportation simplex exceeded its pivot budget")

