"""Girth analysis: two engines and three queries.

* ``tanner_girth``, the exact Tanner-graph girth by truncated per-vertex
  BFS -- the ground-truth oracle everything else is checked against.  It
  finds the circulant block size of H itself, so quasi-cyclic input needs
  only one BFS root per block-row and no caller declares the size.
* ``closed_walks``, one depth-first search over the closed walks of a set
  system through one scaffold of step tables (``WalkScaffold``): walks
  alternate points and blocks, and their symbolic shift sum telescopes to
  sum_k sum_x (in_k(x) - out_k(x)) s_{x,k}, a linear form over the
  incidences.  Its balanced passes cut each branch that could no longer
  close balanced, among them a tight one (every step left must cancel an
  earlier one) stepping to a point not yet on the walk.

The walk engine answers three queries:

* ``bsg_shortest_closed_walk``: the shortest walk with a zero shift sum
  for the shifts of a lifted proto matrix, read off its cells with its
  columns as blocks.  A walk of L steps there is a 2L-cycle in the Tanner
  graph of the expansion.
* ``min_edge_walk``: the shortest walk that is inevitable, its form
  identically zero (per-block degree balance; a balanced multigraph always
  decomposes into per-block cycles, so the verifier checks the balance
  alone), optionally among those opening with given steps.  Its length L
  gives the maximum girth 2L achievable over all moduli and shift
  sequences (``inevitable_girth``); its passes visit each balanced walk as
  it closes, from six steps, the fewest one can take.  ``method2`` asks
  it, with ``shortest=False``, only whether some walk opening with a step
  to a candidate point exists: passes at L = 8, 16, ... up to the cap stop
  at the first one met.  It asks through one scaffold per block it grows,
  pushing each candidate onto the last block and popping it off once
  rejected, or once the search backtracks past it.
* The shift search keeps the forms of all short closed walks as the
  templates a shift sequence must not zero.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from math import gcd

import numpy as np

from .setsystem import BinaryMatrix, SetSystem, _integer
from .qc import QCProtoMatrix

__all__ = [
    "WalkWitness",
    "CycleWitness",
    "GirthReport",
    "bsg_shortest_closed_walk",
    "tanner_girth",
    "inevitable_girth",
    "verify_walk",
]

DEFAULT_WALK_CAP = 12     # covers maximum girth 24
_MAX_WALK = 64            # steps: closed_walks recurses once per step
_TANNER_CAP = 16          # tanner_girth's default, and ``fsscode tgirth``'s


@dataclass(frozen=True)
class WalkWitness:
    """Alternating point/block certificate [i_1, k_1, ..., i_L, k_L]."""

    points: tuple[int, ...]
    block_idx: tuple[int, ...]

    def to_dict(self):
        return {"points": list(self.points), "blocks": list(self.block_idx)}


@dataclass(frozen=True)
class CycleWitness:
    """Tanner cycle certificate: its vertices in order, checks numbered
    0..rows-1 and bits rows..rows+cols-1."""

    nodes: tuple[int, ...]

    def to_dict(self):
        """JSON form: the bare node list."""
        return list(self.nodes)


@dataclass(frozen=True)
class GirthReport:
    """Result of a girth search.

    ``girth`` is None when no walk/cycle of length <= cap exists; that is a
    statement about the cap, never a proof of infinitude.  For BSG walk
    searches the field holds the walk length (half the Tanner girth).
    """

    girth: int | None
    cap: int
    witness: WalkWitness | CycleWitness | None = None

    @property
    def unbounded(self) -> bool:
        return self.girth is None

    def to_json(self) -> str:
        doc = {
            "girth": "unbounded" if self.girth is None else self.girth,
            "cap": self.cap,
        }
        if self.witness is not None:
            doc["witness"] = self.witness.to_dict()
        return json.dumps(doc)


# ----------------------------------------------------------------------
# Block-structure graph
# ----------------------------------------------------------------------

def bsg_shortest_closed_walk(q: QCProtoMatrix, cap: int) -> GirthReport:
    """Shortest closed walk of the block-structure graph (BSG) of ``q`` whose
    successive column indices differ, cyclically, and whose shift sum is 0
    mod m.  The BSG has an edge (u -> w, k, s_w - s_u mod m) for any two
    points u != w of block-column k, so its closed walks are those of the
    set system whose blocks are ``q``'s columns, and a walk's shift sum is
    its arrival shifts less its departure shifts.  ``closed_walks`` deepens
    over L = 2..``cap`` (at most ``_MAX_WALK``) in open mode: a zero sum
    survives rotation and reversal, so one walk per class is enough, and
    after shorter passes that found none the first zero-sum walk met has
    exactly L steps."""
    cap = _integer(cap, "cap", 2, high=_MAX_WALK)
    cols = {k: [] for k in range(1, q.b + 1)}  # a column off the grid raises
    for i, k in sorted(q.cells):
        cols[k].append(i)
    shift = [q.cells[i, k] for k, col in cols.items() for i in col]

    def zero_sum(points, ks, touched, _):
        if sum(shift[p] for p in touched[1::2]) % q.m == (
                sum(shift[p] for p in touched[::2]) % q.m):
            return tuple(points), tuple(ks)

    sc = WalkScaffold(cols.values())
    for L in range(2, cap + 1):
        found = closed_walks(sc, L, zero_sum)
        if found is not None:
            return GirthReport(girth=L, cap=cap, witness=WalkWitness(*found))
    return GirthReport(girth=None, cap=cap)


# ----------------------------------------------------------------------
# Tanner-graph girth (oracle)
# ----------------------------------------------------------------------

def tanner_girth(H: BinaryMatrix, cap: int = _TANNER_CAP) -> GirthReport:
    """Exact girth of the bipartite Tanner graph of H, or unbounded if no
    cycle of length <= cap exists.

    Truncated BFS from check nodes; vertices 0..rows-1 are checks,
    rows..rows+cols-1 are bits.  A BFS rooted on a vertex of a shortest
    cycle finds that cycle, so it is enough that the roots meet every
    shortest cycle.  When H is quasi-cyclic with d x d circulant blocks,
    d = ``_circulant_size(H)``, the block-wise shift is a Tanner-graph
    automorphism: every cycle contains a check, and a power of the shift
    carries that check to the first row of its block-row, so the BFS roots
    only at rows 0, d, 2d, ... and the girth is unchanged.  The witness is
    unchanged too: it comes from the first block-row holding a girth cycle,
    as it does when every check is a root.

    The adjacency is one flat CSR built in numpy: the neighbours of vertex
    u are ``nbr[ptr[u]:ptr[u + 1]]``, a check's bits by ascending column,
    then a bit's checks by ascending row.  A vertex's slice becomes a list
    in ``adj`` on its first expansion and is reused by later roots.  Most
    vertices are never expanded: once a cycle bounds the depth, each root
    of ``fss-3-10-m2570`` reaches 3.8-4.5 k of its 33,410 vertices and
    expands at most 896, so converting the whole adjacency up front costs
    more than the search.
    """
    cap = _integer(cap, "cap", 4, even=True)
    m, n = H.rows, H.cols
    order, col_ptr = H.column_order()
    nbr = np.concatenate((H.edge_cols + m, H.edge_rows[order]))
    ptr = np.concatenate((H.row_ptr, H.nnz + col_ptr[1:]))
    nv = m + n
    adj = [None] * nv
    dist = [-1] * nv
    parent = [-1] * nv
    best = None
    best_nodes = None
    for root in range(0, m, _circulant_size(H)):
        limit = cap if best is None else min(cap, best - 2)
        maxdepth = limit // 2
        dist[root] = 0
        touched = [root]
        queue = deque([root])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if du >= maxdepth:
                continue
            nu = adj[u]
            if nu is None:
                nu = adj[u] = nbr[ptr[u]:ptr[u + 1]].tolist()
            for w in nu:
                if w == parent[u]:
                    continue
                if dist[w] >= 0:
                    cand = du + dist[w] + 1
                    if best is None or cand < best:
                        nodes = _cycle_nodes(u, w, parent)
                        if nodes is not None:
                            best = cand
                            best_nodes = nodes
                            limit = min(cap, best - 2)
                            maxdepth = limit // 2
                else:
                    dist[w] = du + 1
                    parent[w] = u
                    touched.append(w)
                    queue.append(w)
        for t in touched:
            dist[t] = -1
            parent[t] = -1
    if best is None:
        return GirthReport(girth=None, cap=cap)
    return GirthReport(girth=best, cap=cap, witness=CycleWitness(tuple(best_nodes)))


def _circulant_size(H: BinaryMatrix) -> int:
    """Largest d > 1 dividing both dimensions of H such that H is invariant
    under the block-wise shift of order d (row r and column c each to the
    next index inside their own block of d), or 1 when there is none.

    Sizes are tried from the largest down.  Row 0 must map onto row 1,
    which rejects most wrong sizes at once; only then are the shifted edge
    keys ``r * cols + c``, sorted, compared with H's own.  ``expand`` output
    passes for its own m, transposed or not, and for no larger size unless
    its shifts allow one.
    """
    g = gcd(H.rows, H.cols) if H.rows and H.cols else 1
    r, c, ptr = H.edge_rows, H.edge_cols, H.row_ptr
    for d in range(g, 1, -1):
        if g % d:
            continue

        def shift(i):
            return np.where((i + 1) % d, i + 1, i + 1 - d)

        if not np.array_equal(np.sort(shift(c[:ptr[1]])), c[ptr[1]:ptr[2]]):
            continue
        if np.array_equal(np.sort(shift(r) * H.cols + shift(c)), r * H.cols + c):
            return d
    return 1


def _cycle_nodes(u, w, parent):
    """Cycle node list through the non-tree edge (u, w), or None when the two
    tree paths merge before the root (the closed walk is then not simple and
    a shorter cycle will be found instead)."""
    pu, pw = [], []
    a, b = u, w
    while a != -1:
        pu.append(a)
        a = parent[a]
    while b != -1:
        pw.append(b)
        b = parent[b]
    nodes = pu[::-1] + pw[:-1]
    if len(nodes) != len(set(nodes)):
        return None
    return nodes


# ----------------------------------------------------------------------
# Closed walks of a set system
# ----------------------------------------------------------------------

class WalkScaffold:
    """Step tables of an ordered block list for closed-walk search.

    ``steps[x]`` lists, per block k through point x in block order, ``(k,
    position, members)``: ``members`` is block k's ``(position, point)``
    pairs, one list shared by the block's points.  The ``size`` incidence
    positions go block-major, points in block order, as in
    ``SetSystem.incidences`` and the shift search's assignment.

    ``push(x)`` appends a point to the last block as the last incidence, so
    the positions stay block-major, and ``pop()`` takes it off again: the
    tables are then those of a fresh scaffold of the blocks as they stand.
    ``method2`` grows one scaffold per block this way.
    """

    def __init__(self, blocks):
        self.steps: dict[int, list] = {}
        self.size = 0
        for k, blk in enumerate(blocks, start=1):
            members = list(enumerate(blk, self.size))
            for a, x in members:
                self.steps.setdefault(x, []).append((k, a, members))
            self.size += len(members)
            self._last = k, members

    def push(self, x):
        """Append ``x``, a point not in it, to the last block."""
        k, members = self._last
        members.append((self.size, x))
        self.steps.setdefault(x, []).append((k, self.size, members))
        self.size += 1

    def pop(self):
        """Take the last block's last point off again."""
        _, x = self._last[1].pop()
        del self.steps[x][-1]
        if not self.steps[x]:
            del self.steps[x]
        self.size -= 1


def closed_walks(sc: WalkScaffold, max_len, visit, first=None, balanced=False):
    """Depth-first search over the closed walks of 2..``max_len`` steps.

    A step goes from a point to another point of one block; successive
    steps use different blocks, and so do the last step and the first.
    Children are visited in block order, then in the order the block lists
    its points, so walks from one start point come in lexicographic order
    of their arrival positions ``touched[1::2]`` (positions are block-major).

    ``first``, a list of (i1, k1, i2) steps, takes walks opening with one of
    them, in list order.  Without it, the open mode, each walk opens at its
    smallest point i1 and visits no point below it, and it is visited once
    per rotation/reversal class: the rotations of the walk that start at
    i1, and those of its reversal.  The one visited has the smallest
    arrival sequence in its class, which by the order above makes it the
    member a search over every rotation reaches first.  A caller that keeps
    the first walk of some kind (the first balanced one, the first with a
    given form: a class shares its form up to sign) keeps the same walk as
    that search would.  The cut is made on the way down:
    with ``arr0`` the first arrival position, a step that leaves i1 mid-walk
    arriving below ``arr0``, or that reaches i1 leaving from below it,
    opens a rotation or a reversal with a smaller first arrival, and is not
    taken.  A walk with such a step at exactly ``arr0`` is compared in full
    with its class on closing.

    As the walk grows, its coefficient vector over the ``sc.size``
    incidence positions (-1 where a step leaves a point, +1 where it
    arrives) is kept with its L1 norm.  The walk is balanced, its symbolic
    shift sum vanishing for every shift assignment, exactly when the norm
    is 0.  Every position is read from the step tables.

    ``visit(points, ks, touched, coef)`` gets each closed walk: its points
    without the final return to i1, its blocks, the flat list of the
    positions each step leaves and reaches, and the coefficient vector.  A
    true value from ``visit`` ends the search and is returned; otherwise the
    result is None.  Each walk is visited as it closes, so a pass at
    ``max_len`` visits walks of 2..``max_len`` steps; with ``balanced``
    only the balanced ones, and a branch is cut once its norm exceeds twice
    the steps left (a step changes it by at most 2).  A step leaves a
    position other than the one it reaches, and moves the norm by exactly 1
    at each end, so a block is skipped whole when even the arrival that
    lowers the norm would leave it over that bound.  A step that leaves a
    branch tight, its norm exactly twice the steps left, commits every
    step after it to lower the norm by 2 (the norm is even, and a step
    moves it by -2, 0 or +2): each must leave a position of positive
    coefficient, in a block other than the one it arrived by.  A point not
    yet on the walk holds no such position, only the +1 of its arrival, so
    a tight step to one is not taken.  (The last step reaches i1, which is
    on the walk; without ``balanced`` a branch is tight only there.)  No
    cut loses a balanced walk of at most ``max_len`` steps, so every
    shorter pass's walks lie in this pass's tree: after shorter passes that
    found none, a balanced pass meets only walks of ``max_len`` steps.
    """
    steps = sc.steps
    coef = [0] * sc.size
    points: list[int] = []
    ks: list[int] = []
    touched: list[int] = []

    def extend(u, norm, left):
        if (u == i1 and len(ks) >= 2 and ks[-1] != k1
                and (not balanced or norm == 0)
                # the cuts below let ties at arr0 through: settle them in full
                and (touched.count(arr0) < 2 or _least_in_class(points, touched))):
            found = visit(points[:-1], ks, touched, coef)
            if found:
                return found
        if left == 0:
            return None
        prev = ks[-1]
        # the norm a branch may carry on (never reached without ``balanced``)
        slack = 2 * (left - 1) if balanced else 2 * max_len
        # leaving i1 again opens a rotation, which must not arrive below arr0
        again = u == i1 and first is None
        for k, a, members in steps[u]:
            if k == prev:
                continue
            if left > 1:
                if again and k <= k1:
                    if k < k1:
                        continue
                    members = members[arr0 - members[0][0]:]  # consecutive
            elif k != k1 and k in closing:  # the last step can only close the walk
                members = ((closing[k], i1),)
            else:
                continue
            ca = coef[a]
            norm_a = norm + 1 if ca <= 0 else norm - 1
            if norm_a - 1 > slack:
                continue
            # reaching i1 from a opens a reversal arriving at a: below arr0,
            # i1 is out of bounds like the points below it
            floor = i1 + 1 if a < arr0 else lo
            for b, w in members:
                if w == u or w < floor:
                    continue
                cb = coef[b]
                n = norm_a + 1 if cb >= 0 else norm_a - 1
                # tight (norm twice the steps left): a point not yet on the
                # walk has no positive coefficient the next step could leave
                if n >= slack and (n > slack or w not in points):
                    continue
                coef[a], coef[b] = ca - 1, cb + 1
                points.append(w)
                ks.append(k)
                touched.extend((a, b))
                found = extend(w, n, left - 1)
                coef[a], coef[b] = ca, cb
                del points[-1], ks[-1], touched[-2:]
                if found:
                    return found
        return None

    if first is not None:
        starts = first
    else:
        starts = [(i1, k1, i2) for i1 in sorted(steps)
                  for k1, _, members in steps[i1] for _, i2 in members if i2 > i1]
    found = None
    for i1, k1, i2 in starts:
        lo = 0 if first is not None else i1
        closing = {k: a for k, a, _ in steps[i1]}
        a = closing[k1]
        b = next(p for k, p, _ in steps[i2] if k == k1)
        arr0 = -1 if first is not None else b  # positions are >= 0: no cut
        coef[a], coef[b] = -1, 1
        points[:], ks[:], touched[:] = [i1, i2], [k1], [a, b]
        found = extend(i2, 2, max_len - 1)
        coef[a] = coef[b] = 0
        if found:
            break
    del extend  # it refers to itself: free the cycle, and visit's state, now
    return found


def _least_in_class(points, touched):
    """True when no rotation of the closed walk through ``points[0]``, nor
    of its reversal, has a smaller arrival sequence than the walk itself.
    ``points`` ends with the return to ``points[0]``; step j arrives at
    ``touched[2j + 1]`` and leaves from ``touched[2j]``.  The reversal
    started at points[r] arrives at the departures of steps r-1, r-2, ...
    """
    arr, dep = touched[1::2], touched[-2::-2]
    L = len(arr)
    for r in range(L):
        if points[r] == points[0]:
            s = (L - r) % L
            if arr[r:] + arr[:r] < arr or dep[s:] + dep[:s] < arr:
                return False
    return True


def inevitable_girth(fss: SetSystem, cap: int = DEFAULT_WALK_CAP) -> GirthReport:
    """Maximum achievable girth 2L of liftings of ``fss``: L is the length
    of its shortest balanced closed walk.  Unbounded means no walk of
    length <= cap."""
    cap = _integer(cap, "cap", 2, high=_MAX_WALK)
    found = min_edge_walk(WalkScaffold(fss.blocks), cap)
    if found is None:
        return GirthReport(girth=None, cap=cap)
    return GirthReport(girth=2 * len(found[0]), cap=cap,
                       witness=WalkWitness(*found))


def min_edge_walk(scaffold: WalkScaffold, max_len, steps=None, *, shortest=True):
    """(points, block_idx) of the first balanced closed walk of the
    smallest length L <= ``max_len`` in ``closed_walks`` order, or None.
    With ``steps``, only walks opening with one of those (x, k, y) steps
    count.  Every length is searched through one scaffold.

    With ``shortest=False`` the query asks only whether such a walk exists:
    passes at L = 8, 16, ... below ``max_len``, then at ``max_len``, return
    the first balanced walk met, or None.  The doubling is the bound: one
    pass at ``max_len`` can spend its time on long branches before it meets
    a short walk; with block [1, 2, 3] growing in [2, 3, 4, 5], [2, 4],
    [1, 2, 3] and three more [2, 3, 4, 5], at 12, it took 7.7 s against
    0.7 ms for the deepening.  Doubling stops by the first L that reaches
    the shortest walk's length, below twice it.  No pass is below six."""
    def witness(points, ks, *_):
        return tuple(points), tuple(ks)

    L = 1
    while L < max_len:
        L = L + 1 if shortest else min(2 * L, max_len)
        # a balanced walk has six steps or more: each of its blocks takes two
        # steps or more, never two in a row (it enters every point it leaves),
        # and two blocks alternating would need a step from a point to itself
        if L < 6:
            continue
        found = closed_walks(scaffold, L, witness, steps, balanced=True)
        if found is not None:
            return found
    return None


# ----------------------------------------------------------------------
# Witness verification
# ----------------------------------------------------------------------

def verify_walk_raw(blocks, points, block_idx):
    """Re-check a closed walk against the raw conditions and balance.

    Step j goes from ``points[j]`` to ``points[j+1]`` (cyclically) through
    block ``block_idx[j]``: two distinct points of that block, in a block
    other than the next step's.  The walk is balanced when every block
    leaves each point as often as it enters it, which is one multiset test
    on (point, block) pairs.  Balance is all the per-block cycle
    decomposition needs: a directed multigraph in which every vertex has
    equal in- and out-degree splits into edge-disjoint directed cycles
    (Euler), since a walk along unused edges can only get stuck back at
    its start, so peeling cycles off each block's steps cannot fail.
    """
    L = len(points)
    if L < 2 or len(block_idx) != L:
        return False
    block_sets = [set(b) for b in blocks]
    nxt, k_nxt = points[1:] + points[:1], block_idx[1:] + block_idx[:1]
    for i_j, i_n, k, k_n in zip(points, nxt, block_idx, k_nxt):
        if not (1 <= k <= len(blocks) and i_j != i_n and k != k_n
                and {i_j, i_n} <= block_sets[k - 1]):
            return False
    return Counter(zip(points, block_idx)) == Counter(zip(nxt, block_idx))


def verify_walk(fss: SetSystem, witness: WalkWitness) -> bool:
    return verify_walk_raw(list(fss.blocks), witness.points, witness.block_idx)
