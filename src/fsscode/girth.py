"""Girth analysis at three levels.

* Shortest closed walks in the block-structure graph (BSG) of a lifted proto
  matrix: length-L walks there correspond to length-2L cycles in the Tanner
  graph of the expansion.
* Exact Tanner-graph girth by truncated per-vertex BFS -- the ground-truth
  oracle everything else is checked against; quasi-cyclic input needs only
  one BFS root per block-row.
* Inevitable walks in a set system: closed index walks whose symbolic shift
  sum vanishes for every shift assignment.  The smallest length L of such a
  walk gives the maximum girth 2L achievable over all moduli and shift
  sequences.

The partition condition on inevitable walks is implemented as per-block
degree balance: the symbolic shift sum telescopes to
sum_k sum_x (in_k(x) - out_k(x)) * s_{x,k}, which vanishes for every shift
assignment iff each coefficient is zero, and a balanced multigraph always
decomposes into per-block cycles (the verifier performs the decomposition).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .setsystem import BinaryMatrix, SetSystem
from .qc import QCProtoMatrix

__all__ = [
    "BlockStructureGraph",
    "WalkWitness",
    "CycleWitness",
    "GirthReport",
    "build_bsg",
    "bsg_shortest_closed_walk",
    "tanner_girth",
    "inevitable_girth",
    "edge_girth",
    "verify_walk",
]

DEFAULT_WALK_CAP = 12     # covers maximum girth 24


@dataclass(frozen=True)
class WalkWitness:
    """Alternating point/block certificate [i_1, k_1, ..., i_L, k_L]."""

    points: tuple[int, ...]
    block_idx: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.points)

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

class BlockStructureGraph:
    """Directed multigraph on points; edge (u -> w, k, s) records that u and
    w share block-column k with shift difference s = s_w - s_u mod m."""

    def __init__(self, v, m, edges):
        self.v = v
        self.m = m
        self.edges = edges
        self.adj: dict[int, list[tuple[int, int, int]]] = {
            u: [] for u in range(1, v + 1)
        }
        for u, w, k, s in edges:
            self.adj[u].append((w, k, s))
        for lst in self.adj.values():
            lst.sort()


def build_bsg(q: QCProtoMatrix) -> BlockStructureGraph:
    """BSG of a lifted proto matrix: one edge pair per co-block point pair
    per block-column."""
    edges = []
    for j in range(1, q.b + 1):
        col = q.column_cells(j)
        for a in range(len(col)):
            for b in range(len(col)):
                if a == b:
                    continue
                (i1, s1), (i2, s2) = col[a], col[b]
                edges.append((i1, i2, j, (s2 - s1) % q.m))
    return BlockStructureGraph(q.v, q.m, edges)


def bsg_shortest_closed_walk(g: BlockStructureGraph, cap: int) -> GirthReport:
    """Shortest closed walk with cyclically distinct successive column
    indices and zero shift sum mod m, by BFS over (vertex, last column,
    accumulated shift) states per starting edge."""
    if cap < 2:
        raise ValueError("cap must be >= 2")
    best = None
    best_witness = None
    for v0 in range(1, g.v + 1):
        for w0, k0, s0 in g.adj[v0]:
            if w0 < v0:
                continue  # v0 is the minimal vertex of the walk
            limit = cap if best is None else min(cap, best - 1)
            if limit < 2:
                break
            start = (w0, k0, s0 % g.m)
            parent = {start: None}
            queue = deque([(start, 1)])
            found = None
            while queue and found is None:
                (u, lastk, acc), d = queue.popleft()
                if d >= limit:
                    continue
                for w, k, s in g.adj[u]:
                    if k == lastk or w < v0:
                        continue
                    nacc = (acc + s) % g.m
                    if w == v0 and nacc == 0 and k != k0:
                        found = ((u, lastk, acc), k, d + 1)
                        break
                    state = (w, k, nacc)
                    if state not in parent:
                        parent[state] = (u, lastk, acc)
                        queue.append((state, d + 1))
            if found is not None:
                state, klast, length = found
                verts, labels = [], []
                while state is not None:
                    verts.append(state[0])
                    labels.append(state[1])
                    state = parent[state]
                verts.reverse()
                labels.reverse()
                if best is None or length < best:
                    best = length
                    best_witness = WalkWitness(
                        tuple([v0] + verts), tuple(labels + [klast])
                    )
    return GirthReport(girth=best, cap=cap, witness=best_witness)


# ----------------------------------------------------------------------
# Tanner-graph girth (oracle)
# ----------------------------------------------------------------------

def tanner_girth(H: BinaryMatrix, cap: int = 16, circulant: int = 1) -> GirthReport:
    """Exact girth of the bipartite Tanner graph of H, or unbounded if no
    cycle of length <= cap exists.

    Truncated BFS from check nodes; vertices 0..rows-1 are checks,
    rows..rows+cols-1 are bits.  A BFS rooted on a vertex of a shortest
    cycle finds that cycle, so it is enough that the roots meet every
    shortest cycle.

    ``circulant=1`` roots a BFS at every check.  ``circulant=m`` declares H
    quasi-cyclic with m x m circulant blocks: the block-wise shift (row r
    and column c each to the next index inside their own block of m) is
    then a Tanner-graph automorphism.  Every cycle contains a check, and a
    power of the shift carries that check to the first row of its
    block-row, so the BFS roots only at rows 0, m, 2m, ... and the girth is
    unchanged.  The declaration is verified first, in O(nnz): ValueError
    when m does not divide both dimensions or H is not invariant under the
    shift, so a wrong m never yields a wrong girth.  ``expand`` output is
    invariant for its own m, transposed or not.
    """
    if cap < 4 or cap % 2:
        raise ValueError("cap must be even and >= 4")
    if circulant != 1:
        _check_circulant(H, circulant)
    m, n = H.rows, H.cols
    adj: list[list[int]] = [[m + c for c in sup] for sup in H.row_support]
    adj += [list(sup) for sup in H.col_support]
    nv = m + n
    dist = [-1] * nv
    parent = [-1] * nv
    best = None
    best_nodes = None
    for root in range(0, m, circulant):
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
            for w in adj[u]:
                if w == parent[u]:
                    continue
                if dist[w] >= 0:
                    cand = du + dist[w] + 1
                    if best is None or cand < best:
                        nodes = _cycle_nodes(u, w, parent, dist)
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
    if best is None or best > cap:
        return GirthReport(girth=None, cap=cap)
    return GirthReport(girth=best, cap=cap, witness=CycleWitness(tuple(best_nodes)))


def _check_circulant(H: BinaryMatrix, m: int) -> None:
    """Raise ValueError unless H is invariant under the block-wise shift of
    order ``m`` on both its rows and its columns."""
    if m < 1:
        raise ValueError(f"circulant size must be >= 1, got {m}")
    if H.rows % m or H.cols % m:
        raise ValueError(
            f"circulant size {m} does not divide the {H.rows}x{H.cols} matrix"
        )
    nxt = [c + 1 if (c + 1) % m else c + 1 - m for c in range(H.cols)]
    sup = H.row_support
    for r in range(H.rows):
        r2 = r + 1 if (r + 1) % m else r + 1 - m
        if sup[r2] != sorted(map(nxt.__getitem__, sup[r])):
            raise ValueError(
                f"matrix is not invariant under the circulant shift of size "
                f"{m}: row {r} does not map onto row {r2}"
            )


def _cycle_nodes(u, w, parent, dist):
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
# Inevitable walks
# ----------------------------------------------------------------------

def _system_maps(blocks):
    """Adjacency scaffolding for walk search on 1-based blocks."""
    point_blocks: dict[int, list[int]] = {}
    for j, blk in enumerate(blocks, start=1):
        for x in blk:
            point_blocks.setdefault(x, []).append(j)
    return point_blocks


def _coblock_distances(blocks, points, source):
    """BFS distances to ``source`` in the co-block graph; unreachable = big."""
    inf = 1 << 20
    dist = {x: inf for x in points}
    dist[source] = 0
    queue = deque([source])
    neigh: dict[int, set[int]] = {x: set() for x in points}
    for blk in blocks:
        for a in blk:
            for b in blk:
                if a != b:
                    neigh.setdefault(a, set()).add(b)
    while queue:
        u = queue.popleft()
        for w in neigh.get(u, ()):
            if dist.get(w, inf) > dist[u] + 1:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _find_walk(blocks, length, first=None, min_point=None, strict=True,
               point_blocks=None, dist_home=None):
    """Depth-first search for one balanced closed walk of exactly ``length``
    steps.  ``first`` pins the opening step (i1, k1, i2); ``min_point``
    restricts all visited points (canonical form for full searches).
    ``point_blocks`` / ``dist_home`` allow callers that probe several lengths
    to reuse the adjacency scaffolding.

    Returns (points, block_idx) or None.
    """
    if point_blocks is None:
        point_blocks = _system_maps(blocks)
    if first is not None:
        starts = [first]
    else:
        starts = []
        for i1 in sorted(point_blocks):
            if min_point is not None and i1 < min_point:
                continue
            for k1 in point_blocks[i1]:
                for i2 in blocks[k1 - 1]:
                    if i2 != i1:
                        starts.append((i1, k1, i2))

    shared_dist = dist_home
    for i1, k1, i2 in starts:
        lo = min_point if min_point is not None else (i1 if first is None else None)
        if lo is not None and (i1 < lo or i2 < lo):
            continue
        dist_home = (
            shared_dist
            if shared_dist is not None
            else _coblock_distances(blocks, list(point_blocks), i1)
        )
        imb: dict[int, int] = {}
        # step encoding for the imbalance map: key = block * stride + point
        stride = max(point_blocks) + 1

        def bump(k, u, w, sign):
            nonlocal deficit
            for key, delta in ((k * stride + u, sign), (k * stride + w, -sign)):
                old = imb.get(key, 0)
                new = old + delta
                imb[key] = new
                deficit += abs(new) - abs(old)

        deficit = 0
        points = [i1, i2]
        ks = [k1]
        bump(k1, i1, i2, +1)

        def dfs(depth):
            # depth = number of steps taken so far
            u = points[-1]
            remaining = length - depth
            if deficit > 2 * remaining:
                return False
            if dist_home.get(u, 1 << 20) > remaining:
                return False
            if remaining == 0:
                return deficit == 0 and u == i1
            prev_k = ks[-1]
            last = remaining == 1
            for k in point_blocks[u]:
                if strict:
                    if k == prev_k:
                        continue
                    if last and k == k1:
                        continue
                cands = (i1,) if last else blocks[k - 1]
                for w in cands:
                    if w == u:
                        continue
                    if last and w not in blocks[k - 1]:
                        continue
                    if lo is not None and w < lo:
                        continue
                    if not strict:
                        if k == prev_k and points[-2] == w:
                            continue
                    points.append(w)
                    ks.append(k)
                    bump(k, u, w, +1)
                    if dfs(depth + 1):
                        return True
                    bump(k, u, w, -1)
                    points.pop()
                    ks.pop()
            return False

        if dfs(1):
            walk = (tuple(points[:-1]), tuple(ks))
            if not strict:
                # local moves only enforce the open-chain conditions; check
                # the wrap-around ones on the completed walk
                if not verify_walk_raw(blocks, walk[0], walk[1], strict=False):
                    continue
            return walk
    return None


def inevitable_girth(
    fss: SetSystem, cap: int = DEFAULT_WALK_CAP, strict: bool = True
) -> GirthReport:
    """Maximum achievable girth 2L of liftings of ``fss``: L is the smallest
    walk length admitting a balanced closed walk, found by iterative
    deepening.  Unbounded means no walk of length <= cap."""
    if cap < 2:
        raise ValueError("cap must be >= 2")
    for L in range(2, cap + 1):
        found = _find_walk(list(fss.blocks), L, strict=strict)
        if found is not None:
            pts, ks = found
            return GirthReport(girth=2 * L, cap=cap, witness=WalkWitness(pts, ks))
    return GirthReport(girth=None, cap=cap)


def edge_girth(
    fss_partial: SetSystem, x: int, y: int, cap: int, strict: bool = True
) -> int:
    """Smallest 2L over balanced closed walks through the incidence step
    (x, last block, y) after appending ``y`` to the last block; 2*cap when no
    such walk of length < cap exists."""
    if not fss_partial.blocks:
        return 2 * cap
    blocks = [list(b) for b in fss_partial.blocks]
    last = blocks[-1]
    if x == y:
        raise ValueError("edge endpoints must differ")
    if x not in last:
        raise ValueError(f"point {x} is not in the last block")
    if y not in last:
        blocks[-1] = sorted(last + [y])
    blocks = [tuple(b) for b in blocks]
    L = min_edge_walk(blocks, x, len(blocks), y, cap - 1, strict=strict)
    return 2 * cap if L is None else 2 * L


def min_edge_walk(blocks, x, k0, y, max_len, strict=True):
    """Length of the shortest balanced closed walk opening with the step
    (x, block k0, y), or None when no walk of length <= max_len exists."""
    point_blocks = _system_maps(blocks)
    dist_home = _coblock_distances(blocks, list(point_blocks), x)
    for L in range(2, max_len + 1):
        found = _find_walk(
            blocks, L, first=(x, k0, y), strict=strict,
            point_blocks=point_blocks, dist_home=dist_home,
        )
        if found is not None:
            return L
    return None


# ----------------------------------------------------------------------
# Witness verification
# ----------------------------------------------------------------------

def verify_walk_raw(blocks, points, block_idx, strict=True):
    """Re-check a walk against the raw conditions plus degree balance, then
    decompose it into per-block cycles by greedy peeling."""
    L = len(points)
    if L < 2 or len(block_idx) != L:
        return False
    block_sets = [set(b) for b in blocks]
    for j in range(L):
        i_j, i_n = points[j], points[(j + 1) % L]
        k = block_idx[j]
        if not 1 <= k <= len(blocks):
            return False
        if i_j == i_n:
            return False
        if i_j not in block_sets[k - 1] or i_n not in block_sets[k - 1]:
            return False
        k_next = block_idx[(j + 1) % L]
        if strict:
            if k == k_next:
                return False
        elif k == k_next and i_j == points[(j + 2) % L]:
            return False
    # balance and cycle peeling per block
    from collections import defaultdict

    per_block: dict[int, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
    for j in range(L):
        per_block[block_idx[j]][points[j]].append(points[(j + 1) % L])
    for k, out in per_block.items():
        indeg: dict[int, int] = defaultdict(int)
        for u, ws in out.items():
            for w in ws:
                indeg[w] += 1
        for u in set(out) | set(indeg):
            if len(out.get(u, [])) != indeg.get(u, 0):
                return False
        # peel directed cycles; balanced multigraphs always decompose
        remaining = {u: list(ws) for u, ws in out.items()}
        total = sum(len(ws) for ws in remaining.values())
        while total:
            start = next(u for u, ws in remaining.items() if ws)
            u = start
            steps = 0
            while True:
                if not remaining.get(u):
                    return False
                u = remaining[u].pop()
                steps += 1
                if u == start:
                    break
                if steps > total:
                    return False
            total -= steps
    return True


def verify_walk(fss: SetSystem, witness: WalkWitness, strict: bool = True) -> bool:
    return verify_walk_raw(list(fss.blocks), witness.points, witness.block_idx, strict)
