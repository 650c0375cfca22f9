"""Exact linear programming backend for transportation problems.

``transportation_simplex`` solves min <C, P> over the transportation polytope
{P >= 0, row sums = a, col sums = b} and returns a basic (vertex) solution;
vertex outputs are required by the concave outer minimisation built on top. The
basis is the nodes' parent cells in a tree of (neighbour, cell) pairs. A cell
enters by Dantzig's rule (the most negative reduced cost, below a threshold
relative to max |C|); after a run of degenerate pivots Bland's rule takes over
until flow moves again, which rules out cycling. The returned plan is
``tree_flows`` on its support, the basic cells whose pivot flow exceeds
``support_floor``, MASS_ROUNDING_TOL * min(a[i], b[j]). A flow at or below that
counts as round-off, which a cell the vertex leaves empty can pick up on
degenerate marginals, so a plan's bytes depend only on its vertex, whatever the
start or the pivots. The oracle, ``Coupling.support()`` and the test of whether
a plan moves positions read a plan's cells by the same floor. Marginals all of
one float, bit for bit, are assignment problems, whose vertices are
permutations: up to ``ENUMERATE_MAX`` atoms the call prices every permutation
and returns the cheapest, the first in ``itertools.permutations`` order on an
exact tie; above it scipy's ``linear_sum_assignment`` solves them, and scipy is
imported only then. Scipy gets the cost less each row's minimum and then less
each column's minimum, the first step of the Hungarian method: every
permutation's total moves by one constant, so the optimum is the same, and
scipy's solver runs faster on the reduced kinetic costs than on the raw ones.

A caller that solves several problems with the same marginals makes one
``WarmStart`` for them and hands it to every call. It checks the marginals
and decides the assignment dispatch once, and carries the last call's
optimal basis with its spanning tree, and the last plan it returned,
read-only, with its support. The next call starts from that basis with that
plan as its flows, which are feasible on the basis whatever the cost, so it
only sets the potentials for its cost. A call that ends on the same support,
such as one that makes no pivot, returns the same array again.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math

import numpy as np

__all__ = [
    "transportation_simplex",
    "WarmStart",
    "is_uniform_equal",
    "permutation_cells",
    "tree_flows",
    "support_floor",
]

# A cell holds round-off up to this times its smaller marginal (``support_floor``;
# pivot round-off stays below 1e-14 of it).
MASS_ROUNDING_TOL = 1e-12
# A cell enters when its reduced cost is below -REDUCED_COST_TOL * max |C|: a
# cost scaled by a power of two pivots alike, and a zero cost never. A basic
# cell's is round-off of c - u - v on its own tree edge, about (m + k) eps max |C|
# at most, far inside this, so pricing needs no mask of the basic cells.
REDUCED_COST_TOL = 1e-11
# Two masses agree within this: marginal totals (relative to max(1, sum a)), plan sums.
MASS_TOL = 1e-9
# Bland's rule takes over after this many pivots in a row that move no flow,
# per node of the basis tree, and hands back at the next pivot that does.
DEGENERATE_RUN_PER_NODE = 1
# Uniform equal-size problems up to this many atoms are solved by pricing all
# m! permutations; larger ones go to scipy's linear_sum_assignment on the
# reduced cost. A warm call on a new kinetic cost took 12 us either way at
# m = 5, but 34 us by enumeration against 18 us through scipy at m = 6 and
# 168 against 17 us at m = 7 (2-core x86-64, numpy 2.4.6, scipy 1.17.1
# already loaded). Up to the cap a process that solves only small problems
# never pays the 0.4-0.5 s import of scipy.optimize.
ENUMERATE_MAX = 5


@functools.cache
def permutation_cells(m: int) -> np.ndarray:
    """Row-major cell indices of the m! permutations of m atoms, read-only:
    row p holds ``i * m + perm[i]`` for the p-th ``itertools.permutations``
    of ``range(m)``."""
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
    cells = perms.reshape(-1, m) + m * np.arange(m)
    cells.flags.writeable = False
    return cells


def is_uniform_equal(a: np.ndarray, b: np.ndarray) -> bool:
    w = np.concatenate([a, b])
    return a.size == b.size and bool((w == w[:1]).all())


def support_floor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (m, k) flows MASS_ROUNDING_TOL * min(a[i], b[j]) at or below which
    a cell of a plan with marginals ``a`` and ``b`` holds round-off, not mass."""
    return MASS_ROUNDING_TOL * np.minimum.outer(a, b)


def tree_flows(a: np.ndarray, b: np.ndarray, cells) -> np.ndarray | None:
    """The plan supported on ``cells``, row-major indices ``i * k + j``, that
    meets the marginals, or None when the cells hold a cycle.

    Nodes are the rows 0..m-1, then the columns m..m+k-1. Leaf elimination
    takes the lowest-index node with one cell left, gives that cell the node's
    residual mass and subtracts it at the cell's other end, until no cell is
    left. On a forest the flows are unique and their bits depend only on the
    set of cells. A negative flow means the cells support no vertex.
    """
    m, k = a.size, b.size
    res = np.concatenate([a, b]).tolist()
    ends = [(e // k, m + e % k) for e in cells]
    # Per node, its cells left and the sum of their indices, which at a leaf
    # is the index of its one cell.
    degree, id_sum = [0] * (m + k), [0] * (m + k)
    for e, (x, y) in enumerate(ends):
        degree[x] += 1
        degree[y] += 1
        id_sum[x] += e
        id_sum[y] += e
    leaves = [x for x, d in enumerate(degree) if d == 1]  # sorted, so a heap
    flows, left = [0.0] * len(ends), len(ends)
    while leaves:
        x = heapq.heappop(leaves)
        if degree[x] != 1:  # its last cell went with the other end
            continue
        e = id_sum[x]
        y = ends[e][0] + ends[e][1] - x
        flows[e] = res[x]
        res[y] -= res[x]
        degree[x] = 0
        degree[y] -= 1
        id_sum[y] -= e
        left -= 1
        if degree[y] == 1:
            heapq.heappush(leaves, y)
    if left:
        return None
    P = np.zeros((m, k))
    P.flat[list(cells)] = flows
    return P


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    """Initial basic feasible solution: flows as a flat row-major list, and the
    row-major indices of the basis cells."""
    m, k = a.size, b.size
    P = [0.0] * (m * k)
    basic: list[int] = []
    ra, rb = a.tolist(), b.tolist()
    i = j = 0
    while True:
        move = min(ra[i], rb[j])
        P[i * k + j] = move
        basic.append(i * k + j)
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
    return P, basic


class WarmStart:
    """Warm-start state of a run of transportation problems on one pair of
    marginals, made once and handed to every ``transportation_simplex`` call
    of the run; a call with other marginals raises ``ValueError``.

    Making it checks that the two masses agree and decides whether the run
    takes the assignment path (``uniform``: every entry of ``a`` and ``b`` is
    one float, bit for bit): permutation enumeration up to ``ENUMERATE_MAX``
    atoms, scipy's ``linear_sum_assignment`` above. Between calls it carries:

    - ``cells``: the optimal basis of the last simplex call, where the next
      one starts; None before the first, which starts from the northwest
      corner: the parent cells of the final tree's nodes. With it the state
      keeps that spanning tree, each node's (neighbour, cell) pairs, so the
      next call only traverses it once to set the potentials for its cost;
    - ``support`` and ``plan``: the key of the last plan returned and that
      plan, read-only. The key is the sorted row-major indices of the final
      basis cells in the plan's support, or on the assignment path the
      permutation's bytes. The plan is the next simplex call's start flows
      on ``cells``. A call whose plan has the key of the last one (such as a
      call that makes no pivot) returns the same array, and a caller can key
      its own memo by ``support``.

    ``pivots`` counts the simplex pivots of every call so far, and
    ``degenerate_pivots`` those among them that moved no flow.
    """

    def __init__(self, a, b):
        self._given = (a, b)
        self.a = np.asarray(a, dtype=float).ravel()
        self.b = np.asarray(b, dtype=float).ravel()
        total = float(self.a.sum())
        if abs(total - float(self.b.sum())) > MASS_TOL * max(1.0, total):
            raise ValueError("marginal masses differ; transportation problem infeasible")
        self.uniform = is_uniform_equal(self.a, self.b)
        m, k = self.a.size, self.b.size
        # The row and column node of each cell, in row-major order, by which
        # the simplex gathers the potentials when it prices, and the flow
        # (``support_floor``) a cell must exceed to enter a plan.
        self._rows = self._cols = self._floor = None
        if not self.uniform:
            self._rows, self._cols = np.arange(m).repeat(k), np.tile(np.arange(m, m + k), m)
            self._floor = support_floor(self.a, self.b).ravel().tolist()
        self._basis = None  # row-major indices of ``cells``; no call changes this list
        self._tree = None  # the (neighbour, cell) pairs of each node of the basis tree
        self.support = None
        self.plan = None
        self.pivots = 0
        self.degenerate_pivots = 0

    @property
    def cells(self) -> list[tuple[int, int]] | None:
        if self._basis is None:
            return None
        k = self.b.size
        return [divmod(e, k) for e in self._basis]

    def _check(self, a, b) -> None:
        if a is self._given[0] and b is self._given[1]:
            return
        if not (
            np.array_equal(np.ravel(a), self.a) and np.array_equal(np.ravel(b), self.b)
        ):
            raise ValueError("warm start was made for other marginals")

    def _keep(self, key, make) -> np.ndarray:
        """The last plan when its key is ``key``, else ``make()``, kept as the last."""
        if self.plan is None or key != self.support:
            self.plan = make()
            self.plan.flags.writeable = False
            self.support = key
        return self.plan


def transportation_simplex(
    cost: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    warm: WarmStart | None = None,
) -> np.ndarray:
    """Exact minimiser of ``sum(C * P)`` with prescribed marginals, read-only.

    Marginals whose every entry is one float, bit for bit, are an
    assignment problem (``is_uniform_equal``, no tolerance): up to
    ``ENUMERATE_MAX`` atoms the cheapest of the m! permutations, the first in
    ``itertools.permutations`` order on an exact tie of their summed costs;
    above it scipy's ``linear_sum_assignment`` on the cost reduced by its row
    minima and then by its column minima, which has the same optimal
    permutations (on a tie, scipy may pick another of them than it would on
    the raw cost). Its plan puts that float on each cell of the permutation
    and meets both marginals exactly.

    Otherwise, primal transportation simplex. The entering cell has the most
    negative reduced cost (Dantzig's rule); among the cells that reach zero
    first, the lowest (row, column) leaves. After ``DEGENERATE_RUN_PER_NODE * (m + k)``
    pivots in a row that move no flow, the first improving cell in row-major
    order enters instead (Bland's rule) until a pivot moves flow again.
    Bland's rule cannot cycle, and each pivot that moves flow lowers the
    cost, so the method terminates; 40 m k + 200 pivots are a backstop. A
    non-finite cost entry is rejected.

    ``warm``, a ``WarmStart`` made for ``a`` and ``b``, gives the start, the
    last call's basis with its plan as the flows, and takes the final basis
    with its tree; without it the call starts from the northwest corner. The
    result is ``tree_flows`` on the final basis's cells whose pivot flow
    exceeds ``support_floor(a, b)``; its bytes depend only on the
    vertex (see the module docstring). A call that raises leaves ``warm`` as
    the last call that returned left it.

    The basis is a spanning tree on the rows 0..m-1 and the columns
    m..m+k-1, held as each node's (neighbour, cell) pairs and rooted at row
    0 where u = 0. A call first hangs every node below its parent in one
    traversal, which sets its depth, its parent cell (the row-major cell
    joining them) and its potential, and a pivot re-hangs only the subtree
    that the leaving cell cuts off. The parent cells are the basis. Pricing
    subtracts the potentials from every cost in numpy, basic cells too:
    their round-off is far inside the entering threshold (see
    ``REDUCED_COST_TOL``). A pivot's cycle is the parent cells on the two
    tree paths from the entering cell's ends up to their lowest common
    ancestor; the side that holds the leaving cell is the one cut off.
    """
    if warm is None:
        warm = WarmStart(a, b)
    else:
        warm._check(a, b)
    a, b = warm.a, warm.b
    m, k = a.size, b.size
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (m, k):
        raise ValueError(f"cost shape {cost.shape} does not match marginals ({m}, {k})")
    # The largest |c_ij| scales the pivot tolerance; it is NaN or inf exactly
    # when an entry is not finite.
    cost_max = float(np.abs(cost).max())
    if not math.isfinite(cost_max):
        raise ValueError("cost matrix must be finite")
    if warm.uniform:
        if m <= ENUMERATE_MAX:
            cells = permutation_cells(m)
            rows = np.arange(m)
            cols = cells[cost.ravel()[cells].sum(axis=1).argmin()] - m * rows
        else:
            from scipy.optimize import linear_sum_assignment

            # Row, then column minima off: each only shifts every total.
            reduced = cost - cost.min(axis=1, keepdims=True)
            reduced -= reduced.min(axis=0)
            rows, cols = linear_sum_assignment(reduced)

        def assignment() -> np.ndarray:
            P = np.zeros_like(cost)
            P[rows, cols] = a[rows]
            return P

        return warm._keep(cols.tobytes(), assignment)
    if m == 1 or k == 1:
        # The one feasible plan, exactly; leaf elimination would end on a - sum(b[:-1]).
        return warm._keep((), lambda: (b.reshape(1, k) if m == 1 else a.reshape(m, 1)).copy())

    n = m + k
    if warm._basis is None:
        P, basis = _northwest_corner(a, b)
    else:
        P, basis = warm.plan.ravel().tolist(), warm._basis
    # The pivots below change the tree in place, so it stays detached until
    # the call returns; ``cells`` and ``plan`` keep the last returned basis.
    adj, warm._tree = warm._tree, None
    if adj is None:
        adj = [[] for _ in range(n)]
        for e in basis:
            i, j = divmod(e, k)
            adj[i].append((m + j, e))
            adj[m + j].append((i, e))
    pot, parent, depth, pcell = [0.0] * n, [-1] * n, [0] * n, [-1] * n
    cflat = cost.ravel().tolist()
    flat, rows, cols, floor = cost.ravel(), warm._rows, warm._cols, warm._floor

    def hang(top: int) -> int:
        """Set the potential (u_i + v_j = c_ij on basic cells), parent, depth
        and parent cell of every node below ``top``; return how many were set."""
        stack, placed = [top], 0
        while stack and placed < n:
            x = stack.pop()
            above, below, px = parent[x], depth[x] + 1, pot[x]
            for y, e in adj[x]:
                if y != above:
                    parent[y], depth[y], pcell[y], pot[y] = x, below, e, cflat[e] - px
                    stack.append(y)
                    placed += 1
        return placed

    if hang(0) != n - 1:
        raise RuntimeError("basis is not a spanning tree; internal error")
    red_tol = REDUCED_COST_TOL * cost_max
    degenerate, bland_after = 0, DEGENERATE_RUN_PER_NODE * n
    for pivots in range(40 * m * k + 200):
        u = np.array(pot)
        reduced = flat - u[rows]
        reduced -= u[cols]
        if degenerate < bland_after:
            enter = int(reduced.argmin())
        else:
            enter = int((reduced < -red_tol).argmax())  # the first improving cell
        if not reduced.item(enter) < -red_tol:
            basis = pcell[1:]  # every node but the root row hangs from one basic cell
            support = sorted([e for e in basis if P[e] > floor[e]])
            # Leaf elimination can leave round-off just below zero on a cell
            # whose marginals are tiny.
            plan = warm._keep(
                tuple(support),
                lambda: np.maximum(tree_flows(a, b, support), 0.0),
            )
            warm._basis, warm._tree = basis, adj
            return plan
        ei, ej = divmod(enter, k)

        # The tree paths from column ej and from row ei up to their lowest
        # common ancestor close the cycle of the entering cell; each holds the
        # parent cells of the nodes it leaves. Along each, the first, third,
        # ... cell loses flow and the others gain it.
        up, down = [], []
        x, y = m + ej, ei
        while x != y:
            if depth[x] >= depth[y]:
                up.append(pcell[x])
                x = parent[x]
            else:
                down.append(pcell[y])
                y = parent[y]
        losing = up[::2] + down[::2]
        theta, leave = min([(P[e], e) for e in losing])
        warm.pivots += 1
        if theta > 0.0:
            degenerate = 0
            P[enter] += theta
            for e in up[1::2] + down[1::2]:
                P[e] += theta
            for e in losing:
                P[e] -= theta
        else:
            degenerate += 1
            warm.degenerate_pivots += 1
        li, lj = divmod(leave, k)
        adj[li].remove((m + lj, leave))
        adj[m + lj].remove((li, leave))
        adj[ei].append((m + ej, enter))
        adj[m + ej].append((ei, enter))
        # Hang the cut-off subtree below the entering cell's other end.
        q, p = (m + ej, ei) if leave in up else (ei, m + ej)
        parent[q], depth[q], pcell[q], pot[q] = p, depth[p] + 1, enter, cflat[enter] - pot[p]
        hang(q)

    raise RuntimeError("transportation simplex exceeded its pivot budget")
