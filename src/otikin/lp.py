"""Exact linear programming backend for transportation problems.

``transportation_simplex`` solves min <C, P> over the transportation polytope
{P >= 0, row sums = a, col sums = b} and returns a basic (vertex) solution;
vertex outputs are required by the concave outer minimisation built on top.
Uniform marginals of equal size dispatch to an assignment solver, and scipy
is imported only then.
"""

from __future__ import annotations

import numpy as np

__all__ = ["transportation_simplex", "is_uniform_equal"]

# Marginals count as uniform when every weight is within this of 1/m.
UNIFORM_TOL = 1e-12
# A nonbasic cell enters when its reduced cost is below
# -REDUCED_COST_TOL * (1 + max |C|), so round-off never makes a pivot.
REDUCED_COST_TOL = 1e-11
# The two marginal masses may differ by this, relative to max(1, sum a).
MASS_TOL = 1e-9


def is_uniform_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.size != b.size:
        return False
    u = 1.0 / a.size
    return bool(np.all(np.abs(np.concatenate([a, b]) - u) <= UNIFORM_TOL))


def _assignment_plan(cost: np.ndarray, a: np.ndarray) -> np.ndarray:
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    P = np.zeros_like(cost)
    P[rows, cols] = a[rows]
    return P


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    """Initial basic feasible solution: flows as nested lists, and the basis cells."""
    m, k = a.size, b.size
    P = [[0.0] * k for _ in range(m)]
    basis: list[tuple[int, int]] = []
    ra, rb = a.tolist(), b.tolist()
    i = j = 0
    while True:
        move = min(ra[i], rb[j])
        P[i][j] = move
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

    The basis is a spanning tree on the rows 0..m-1 and the columns
    m..m+k-1, rooted at the row of ``basis[0]`` where u = 0. A dual potential
    follows its unique tree path from the root, so a pivot recomputes only
    the subtree that the leaving cell cuts off (all of them when the root
    moves), and one numpy expression prices every cell.
    """
    cost = np.asarray(cost, dtype=float)
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    m, k = a.size, b.size
    if cost.shape != (m, k):
        raise ValueError(f"cost shape {cost.shape} does not match marginals ({m}, {k})")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    if abs(float(a.sum()) - float(b.sum())) > MASS_TOL * max(1.0, float(a.sum())):
        raise ValueError("marginal masses differ; transportation problem infeasible")
    if is_uniform_equal(a, b):
        return _assignment_plan(cost, a)
    if m == 1:
        return b.reshape(1, k).copy()
    if k == 1:
        return a.reshape(m, 1).copy()

    P, basis = _northwest_corner(a, b)
    # edge[x][y] = c_ij between row node i and column node m + j, either way round.
    edge = [[0.0] * m + row for row in cost.tolist()] + cost.T.tolist()
    red_tol = REDUCED_COST_TOL * (1.0 + float(np.max(np.abs(cost))))
    nonbasic = np.ones((m, k), dtype=bool)
    adj: list[list[int]] = [[] for _ in range(m + k)]
    for i, j in basis:
        nonbasic[i, j] = False
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot, parent, depth = [0.0] * (m + k), [-1] * (m + k), [0] * (m + k)

    def cell(x: int, y: int) -> tuple[int, int]:
        return (x, y - m) if x < m else (y, x - m)

    def hang(top: int) -> int:
        """Set the potential (u_i + v_j = c_ij on basic cells), parent and depth
        of every node below ``top``; return how many were set."""
        stack, placed = [top], 0
        while stack and placed < m + k:
            x = stack.pop()
            for y in adj[x]:
                if y != parent[x]:
                    parent[y], depth[y] = x, depth[x] + 1
                    pot[y] = edge[x][y] - pot[x]
                    stack.append(y)
                    placed += 1
        return placed

    root = -1
    for _ in range(40 * m * k + 200):
        if basis[0][0] != root:
            root = basis[0][0]
            pot[root], parent[root], depth[root] = 0.0, -1, 0
            if hang(root) != m + k - 1:
                raise RuntimeError("basis is not a spanning tree; internal error")
        u, v = np.array(pot[:m]), np.array(pot[m:])

        reduced = cost - u[:, None] - v[None, :]
        improving = (reduced < -red_tol) & nonbasic
        first = int(improving.argmax())  # the first True cell, row-major
        if not improving.flat[first]:
            return np.array(P)
        ei, ej = divmod(first, k)

        # The tree path from column ej to row ei, through their lowest common
        # ancestor, closes the cycle of the entering cell.
        up, down = [], []
        x, y = m + ej, ei
        while x != y:
            if depth[x] >= depth[y]:
                up.append(cell(x, parent[x]))
                x = parent[x]
            else:
                down.append(cell(y, parent[y]))
                y = parent[y]
        cycle = [(ei, ej)] + up + down[::-1]

        flows = [P[i][j] for i, j in cycle[1::2]]
        theta = min(flows)
        pos = 2 * flows.index(theta) + 1  # Bland: first minimiser leaves, at exactly 0
        li, lj = cycle[pos]
        for idx, (i, j) in enumerate(cycle):
            P[i][j] += theta if idx % 2 == 0 else -theta
        basis.remove((li, lj))
        basis.append((ei, ej))
        nonbasic[li, lj], nonbasic[ei, ej] = True, False
        adj[li].remove(m + lj)
        adj[m + lj].remove(li)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        # Hang the cut-off subtree below the entering cell's other end.
        q, p = (m + ej, ei) if pos <= len(up) else (ei, m + ej)
        parent[q], depth[q], pot[q] = p, depth[p] + 1, edge[p][q] - pot[p]
        hang(q)

    raise RuntimeError("transportation simplex exceeded its pivot budget")
