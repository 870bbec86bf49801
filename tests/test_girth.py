import hashlib
import json
import random
import time
from collections import Counter, deque
from math import gcd

import numpy as np
import pytest

from fsscode import girth, load_paper_tables, reference_code
from fsscode.girth import (
    GirthReport,
    WalkScaffold,
    WalkWitness,
    _circulant_size,
    bsg_shortest_closed_walk,
    closed_walks,
    inevitable_girth,
    min_edge_walk,
    tanner_girth,
    verify_walk,
    verify_walk_raw,
)
from fsscode.qc import _lift, assemble, expand, shift_sequence_from_list
from fsscode.setsystem import BinaryMatrix, validate_fss
from fsscode.shiftsearch import ShiftSearchState


def _random_system(rng, vmax=8, bmax=12):
    v = rng.randint(2, vmax)
    b = rng.randint(2, bmax)
    blocks = []
    for _ in range(b):
        k = rng.randint(2, min(4, v))
        blocks.append(rng.sample(range(1, v + 1), k))
    return validate_fss(v, blocks)


def _random_shifts(rng, fss, m):
    vals = [rng.randrange(m) for _ in fss.incidences]
    return shift_sequence_from_list(fss, m, vals)


def _first_balanced(sc, length, first=None):
    """(points, block_idx) of the first balanced closed walk of at most
    ``length`` steps, opening with the step ``first`` if given, or None.
    Below seven steps the walk has exactly ``length``: none is shorter
    than six."""
    def witness(points, ks, *_):
        return tuple(points), tuple(ks)

    steps = None if first is None else [first]
    return closed_walks(sc, length, witness, steps, balanced=True)


def _walk_len(walk):
    return None if walk is None else len(walk[0])


class TestTannerGirth:
    def test_four_cycle(self):
        fss = validate_fss(2, [[1, 2], [1, 2]])
        S = shift_sequence_from_list(fss, 1, [0, 0, 0, 0])
        assert tanner_girth(expand(assemble(fss, S))).girth == 4

    def test_no_cycle_single_block(self):
        fss = validate_fss(2, [[1, 2]])
        S = shift_sequence_from_list(fss, 3, [0, 1])
        assert tanner_girth(expand(assemble(fss, S))).unbounded

    def test_six_cycle_three_columns(self):
        fss = validate_fss(2, [[1, 2], [1, 2], [1, 2]])
        S = shift_sequence_from_list(fss, 3, [0, 1, 2])  # distinct diffs
        assert tanner_girth(expand(assemble(fss, S))).girth == 8

    def test_cap_respected(self):
        fss = validate_fss(2, [[1, 2], [1, 2], [1, 2]])
        S = shift_sequence_from_list(fss, 3, [0, 1, 2])
        assert tanner_girth(expand(assemble(fss, S)), cap=6).unbounded

    def test_bad_cap(self):
        fss = validate_fss(2, [[1, 2]])
        S = shift_sequence_from_list(fss, 1, [0, 0])
        with pytest.raises(ValueError):
            tanner_girth(expand(assemble(fss, S)), cap=5)


def _is_cycle(H, nodes):
    """True iff ``nodes`` is a simple cycle of the Tanner graph of H."""
    if len(set(nodes)) != len(nodes):
        return False
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        r, c = min(a, b), max(a, b) - H.rows
        if not (r < H.rows <= max(a, b) and c in H.row_support[r]):
            return False
    return True


@pytest.fixture
def every_check(monkeypatch):
    """The reference oracle: ``tanner_girth`` rooted at every check, its
    detected circulant size forced to 1."""
    def run(H, cap):
        with monkeypatch.context() as mp:
            mp.setattr(girth, "_circulant_size", lambda H: 1)
            return tanner_girth(H, cap=cap)
    return run


class TestCirculantOracle:
    """The one-root-per-block-row path, at the size the oracle detects,
    against the every-check BFS: equal girth and witness."""

    def test_matches_generic_on_random_qc_matrices(self, every_check):
        rng = random.Random(20261018)
        shapes = {"v<b": 0, "v>b": 0, "v==b": 0}
        unbounded = 0
        for case in range(240):
            shape = list(shapes)[case % 3]
            v = rng.randint(2, 6)
            b = {"v<b": rng.randint(v + 1, 8), "v>b": rng.randint(1, v - 1),
                 "v==b": v}[shape]
            blocks = [rng.sample(range(1, v + 1), rng.randint(1, min(4, v)))
                      for _ in range(b)]
            fss = validate_fss(v, blocks, t=1)
            m = rng.randint(1, 13)
            cap = rng.choice(range(4, 17, 2))
            H = expand(assemble(fss, _random_shifts(rng, fss, m)))
            assert (H.rows, H.cols) == (min(v, b) * m, max(v, b) * m)
            assert _circulant_size(H) >= m, (case, v, b, m)  # m itself passes
            fast = tanner_girth(H, cap=cap)
            assert fast.to_json() == every_check(H, cap).to_json(), (case, cap)
            if fast.unbounded:
                unbounded += 1
                assert fast.witness is None
            else:
                assert len(fast.witness.nodes) == fast.girth
                assert _is_cycle(H, list(fast.witness.nodes))
            shapes[shape] += 1
        assert min(shapes.values()) >= 80
        assert 0 < unbounded < 240

    @staticmethod
    def _code(m=6, shifts=(0, 1, 2)):
        fss = validate_fss(2, [[1, 2]] * 3)
        return expand(assemble(fss, shift_sequence_from_list(fss, m, list(shifts))))

    def test_rejects_moved_entry(self, every_check):
        # moving one entry breaks every shift of order >= 2
        rng = random.Random(11)
        for _ in range(60):
            fss = _random_system(rng, vmax=5, bmax=6)
            m = rng.randint(2, 6)
            H = expand(assemble(fss, _random_shifts(rng, fss, m)))
            entries = list(zip(H.edge_rows.tolist(), H.edge_cols.tolist()))
            i = rng.randrange(len(entries))
            r = entries[i][0]
            entries[i] = (r, rng.choice(
                [c for c in range(H.cols) if c not in H.row_support[r]]))
            H = BinaryMatrix(H.rows, H.cols, entries)
            assert _circulant_size(H) == 1
            cap = rng.choice((8, 12, 16))
            assert tanner_girth(H, cap=cap).to_json() == every_check(H, cap).to_json()

    def test_rejects_size_not_dividing(self):
        # invariant under order 3 on rows and 4 on columns, but no size
        # divides both dimensions
        ones = BinaryMatrix(3, 4, [(r, c) for r in range(3) for c in range(4)])
        assert _circulant_size(ones) == 1
        assert tanner_girth(ones).girth == 4
        for rows, cols in ((0, 0), (0, 4), (4, 0)):  # gcd(0, 0) == 0
            H = BinaryMatrix(rows, cols, [])
            assert _circulant_size(H) == 1
            assert tanner_girth(H).unbounded
        assert _circulant_size(self._code(m=2)) == 2  # 4 x 6

    def test_rejects_wrong_size_on_valid_code(self):
        fss = validate_fss(2, [[1, 2]] * 4)
        for shifts, size in (((0, 1, 2, 0), 3), ((0, 0, 0, 0), 6)):
            H = expand(assemble(fss, shift_sequence_from_list(fss, 3, list(shifts))))
            assert (H.rows, H.cols) == (6, 12)
            assert _circulant_size(H) == size  # 6 fails unless the shifts allow it
        assert _circulant_size(self._code()) == 6  # 12 x 18: 6 passes first

    def test_wrong_size_never_gives_wrong_girth(self, every_check):
        # a detected size other than the m the code was built with is still a
        # true automorphism: same girth and witness.  Shifts that are
        # multiples of g on shapes whose dimensions share factors beyond m
        # make such sizes common.
        rng = random.Random(7)
        larger = 0
        for _ in range(120):
            v = rng.randint(2, 4)
            b = rng.choice((v, 2 * v))
            fss = validate_fss(v, [rng.sample(range(1, v + 1), rng.randint(2, v))
                                   for _ in range(b)])
            m = rng.choice((2, 3, 4, 6))
            g = rng.choice([d for d in range(1, m + 1) if m % d == 0])
            vals = [g * rng.randrange(m // g) for _ in fss.incidences]
            H = expand(assemble(fss, shift_sequence_from_list(fss, m, vals)))
            size = _circulant_size(H)
            assert size >= m
            larger += size > m
            cap = rng.choice((8, 12, 16))
            assert tanner_girth(H, cap=cap).to_json() == every_check(H, cap).to_json()
        assert larger >= 10

    def test_cycle_witness_json(self):
        rep = tanner_girth(self._code(m=3), cap=12)
        assert rep.to_json() == (
            '{"girth": 8, "cap": 12, "witness": [0, 9, 5, 8, 2, 14, 3, 6]}'
        )
        assert tanner_girth(self._code(m=3), cap=6).to_json() == (
            '{"girth": "unbounded", "cap": 6}'
        )


def _circulant_oracle_corpus():
    """``(H, cap)`` of ``TestCirculantOracle.test_matches_generic_on_random_qc_matrices``,
    drawn from the same seed in the same order."""
    rng = random.Random(20261018)
    for case in range(240):
        v = rng.randint(2, 6)
        b = (rng.randint(v + 1, 8), rng.randint(1, v - 1), v)[case % 3]
        blocks = [rng.sample(range(1, v + 1), rng.randint(1, min(4, v)))
                  for _ in range(b)]
        fss = validate_fss(v, blocks, t=1)
        m = rng.randint(1, 13)
        cap = rng.choice(range(4, 17, 2))
        yield expand(assemble(fss, _random_shifts(rng, fss, m))), cap


class TestTannerGirthPinned:
    """``tanner_girth``'s reports, witnesses included, pinned by digests: a
    faster BFS must find the same cycle through the same visit order."""

    TABLE_DIGEST = "9f0623ad4544443b3abb9d31f467e3bc5df99e429611adfa7f39075bf79fd878"
    RANDOM_DIGEST = "ed24bf70a4db56eb300b69523203901b536acdac6a1c32b23e14d3578eef850e"

    @staticmethod
    def _digest(reports):
        h = hashlib.sha256()
        for rep in reports:
            h.update(rep.to_json().encode() + b"\n")
        return h.hexdigest()

    def test_table_codes(self):
        """The seven bundled codes at ``verify-table``'s cap and at 16."""
        reports = []
        for row in load_paper_tables()["girth_codes"]:
            H = expand(reference_code(row["name"]))
            for cap in (row["girth"] + 2, 16):
                reports.append(tanner_girth(H, cap))
        assert len(reports) == 14
        assert self._digest(reports) == self.TABLE_DIGEST

    def test_random_qc_matrices(self):
        reports = [tanner_girth(H, cap) for H, cap in _circulant_oracle_corpus()]
        assert len(reports) == 240
        assert self._digest(reports) == self.RANDOM_DIGEST


def _ref_tanner_girth(rows, cols, entries, cap):
    """The Tanner BFS rebuilt from the ``(row, col)`` pairs alone, as the
    JSON report ``tanner_girth`` gives.  Per-vertex neighbour lists in plain
    Python are filled from the sorted pairs, so a check lists its bits by
    ascending column and a bit its checks by ascending row.  Every check is
    a root, in order.  The visit and cycle rules are ``tanner_girth``'s: a
    vertex at half the depth limit is not expanded, the edge back to the
    parent is skipped, and an edge to a reached vertex gives a cycle when
    it is shorter than the best and its two tree paths meet only at the
    root; the best then lowers the limit."""
    adj = [[] for _ in range(rows + cols)]
    for r, c in sorted(entries):
        adj[r].append(rows + c)
        adj[rows + c].append(r)

    def path(v, parent):
        out = []
        while v is not None:
            out.append(v)
            v = parent[v]
        return out

    best = best_nodes = None
    for root in range(rows):
        limit = cap if best is None else min(cap, best - 2)
        dist, parent = {root: 0}, {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if dist[u] >= limit // 2:
                continue
            for w in adj[u]:
                if w == parent[u]:
                    continue
                if w not in dist:
                    dist[w], parent[w] = dist[u] + 1, u
                    queue.append(w)
                elif best is None or dist[u] + dist[w] + 1 < best:
                    nodes = path(u, parent)[::-1] + path(w, parent)[:-1]
                    if len(set(nodes)) == len(nodes):
                        best, best_nodes = dist[u] + dist[w] + 1, nodes
                        limit = min(cap, best - 2)
    if best is None:
        return GirthReport(girth=None, cap=cap).to_json()
    return GirthReport(best, cap, girth.CycleWitness(tuple(best_nodes))).to_json()


class TestTannerReferenceDifferential:
    """``tanner_girth`` against ``_ref_tanner_girth``: equal girth and
    witness.  The witness is the first shortest cycle in BFS order, so a
    neighbour list read in another order shows up here."""

    @staticmethod
    def _check(H, cap):
        entries = list(zip(H.edge_rows.tolist(), H.edge_cols.tolist()))
        rng = random.Random(len(entries))
        rng.shuffle(entries)  # the reference sorts them itself
        got = tanner_girth(H, cap).to_json()
        assert got == _ref_tanner_girth(H.rows, H.cols, entries, cap), (H, cap)
        return got

    def test_random_qc_matrices(self):
        rng = random.Random(2710)
        girths = Counter()
        for case in range(300):
            fss = _random_system(rng, vmax=5, bmax=4)
            m = 1 if case % 5 == 0 else rng.randint(2, 13)
            H = expand(assemble(fss, _random_shifts(rng, fss, m)))
            cap = rng.choice(range(4, 17, 2))
            girths[json.loads(self._check(H, cap))["girth"]] += 1
        long_girths = sum(n for g, n in girths.items() if g != "unbounded" and g >= 8)
        assert girths["unbounded"] > 0 and long_girths >= 30, girths

    def test_random_sparse_matrices(self):
        """Matrices that are not quasi-cyclic, with empty rows and columns,
        single rows and ``0 x n`` shapes among them."""
        rng = np.random.default_rng(2711)
        girths = Counter()
        shapes = Counter()
        for case in range(300):
            rows = (0, 1)[case // 10 % 2] if case % 10 == 0 else int(rng.integers(2, 16))
            cols = int(rng.integers(0, 24))
            D = rng.random((rows, cols)) < rng.uniform(0.08, 0.4)
            H = BinaryMatrix(rows, cols, np.argwhere(D))
            cap = int(rng.choice(np.arange(4, 17, 2)))
            girths[json.loads(self._check(H, cap))["girth"]] += 1
            shapes[min(rows, 2)] += 1
            shapes["empty"] += bool(rows > 1 and cols and (~D.any(axis=0)).any()
                                    and (~D.any(axis=1)).any())
        assert shapes[0] == shapes[1] == 15 and shapes["empty"] >= 30, shapes
        assert len(girths) >= 4, girths


def _ref_lift(q):
    """The per-entry tuple loop ``qc._lift`` once ran, kept as the reference
    for its broadcast: ``(rows, cols, entries)``, never transposed."""
    m = q.m
    entries = []
    for (i, j), s in q.cells.items():
        rbase = (i - 1) * m
        cbase = (j - 1) * m
        for r in range(m):
            entries.append((rbase + r, cbase + (r + s) % m))
    return q.v * m, q.b * m, entries


def _ref_expand(q):
    rows, cols, entries = _ref_lift(q)
    if q.v > q.b:
        return cols, rows, [(c, r) for r, c in entries]
    return rows, cols, entries


def _ref_supports(rows, cols, entries):
    """Sorted row and column index lists, built entry by entry."""
    row_sup = [[] for _ in range(rows)]
    col_sup = [[] for _ in range(cols)]
    for r, c in entries:
        row_sup[r].append(c)
        col_sup[c].append(r)
    return [sorted(s) for s in row_sup], [sorted(s) for s in col_sup]


def _ref_dense(rows, cols, entries):
    D = np.zeros((rows, cols), dtype=np.int8)
    for r, c in entries:
        D[r, c] = 1
    return D


def _ref_circulant_size(rows, cols, sup):
    """The list-based test ``_circulant_size`` once ran on ``row_support``,
    kept as the reference for its edge-key comparison."""
    g = gcd(rows, cols) if rows and cols else 1
    for d in range(g, 1, -1):
        if g % d:
            continue

        def shift(i):
            return i + 1 if (i + 1) % d else i + 1 - d

        if sup[1] != sorted(map(shift, sup[0])):
            continue
        nxt = list(map(shift, range(max(rows, cols))))
        if all(sup[nxt[r]] == sorted(map(nxt.__getitem__, row))
               for r, row in enumerate(sup)):
            return d
    return 1


def _lift_corpus():
    """Proto matrices: random shapes v<b, v>b and v==b with m in 1..13, and
    shifts that are multiples of a divisor g of m, whose codes are often
    invariant under a size larger than m."""
    rng = random.Random(20261019)
    for case in range(240):
        v = rng.randint(2, 6)
        b = (rng.randint(v + 1, 8), rng.randint(1, v - 1), v)[case % 3]
        blocks = [rng.sample(range(1, v + 1), rng.randint(1, min(4, v)))
                  for _ in range(b)]
        fss = validate_fss(v, blocks, t=1)
        yield assemble(fss, _random_shifts(rng, fss, rng.randint(1, 13)))
    rng = random.Random(7)
    for _ in range(120):
        v = rng.randint(2, 4)
        b = rng.choice((v, 2 * v))
        fss = validate_fss(v, [rng.sample(range(1, v + 1), rng.randint(2, v))
                               for _ in range(b)])
        m = rng.choice((2, 3, 4, 6))
        g = rng.choice([d for d in range(1, m + 1) if m % d == 0])
        vals = [g * rng.randrange(m // g) for _ in fss.incidences]
        yield assemble(fss, shift_sequence_from_list(fss, m, vals))


def _moved_entry_corpus():
    """``(rows, cols, entries)`` of ``TestCirculantOracle.test_rejects_moved_entry``,
    drawn from the same seed but built by the references alone."""
    rng = random.Random(11)
    for _ in range(60):
        fss = _random_system(rng, vmax=5, bmax=6)
        m = rng.randint(2, 6)
        rows, cols, entries = _ref_expand(assemble(fss, _random_shifts(rng, fss, m)))
        entries.sort()
        i = rng.randrange(len(entries))
        r = entries[i][0]
        taken = {c for rr, c in entries if rr == r}
        entries[i] = (r, rng.choice([c for c in range(cols) if c not in taken]))
        rng.choice((8, 12, 16))  # the cap, unused here
        yield rows, cols, entries


class TestArrayPathsDifferential:
    """``_lift``'s broadcast, the array-backed ``BinaryMatrix`` and
    ``_circulant_size``'s edge-key test against the per-entry builds and the
    list-based size test they replaced."""

    @staticmethod
    def _assert_matches(H, rows, cols, entries):
        row_sup, col_sup = _ref_supports(rows, cols, entries)
        assert (H.rows, H.cols, H.nnz) == (rows, cols, len(entries))
        assert H.row_support == row_sup
        assert H.col_support == col_sup
        assert np.array_equal(H.to_dense(), _ref_dense(rows, cols, entries))
        assert _circulant_size(H) == _ref_circulant_size(rows, cols, row_sup)

    def test_lift_and_expand_match_tuple_loop(self):
        shapes = {"v<b": 0, "v>b": 0, "v==b": 0}
        sizes_above_m = 0
        for q in _lift_corpus():
            self._assert_matches(_lift(q), *_ref_lift(q))
            H = expand(q)
            self._assert_matches(H, *_ref_expand(q))
            shapes["v<b" if q.v < q.b else "v>b" if q.v > q.b else "v==b"] += 1
            sizes_above_m += _circulant_size(H) > q.m
        assert min(shapes.values()) >= 80
        assert sizes_above_m >= 10

    def test_moved_entry_corpus(self):
        count = 0
        for rows, cols, entries in _moved_entry_corpus():
            random.Random(count).shuffle(entries)  # input order is free
            self._assert_matches(BinaryMatrix(rows, cols, entries),
                                 rows, cols, entries)
            assert _ref_circulant_size(rows, cols,
                                       _ref_supports(rows, cols, entries)[0]) == 1
            count += 1
        assert count == 60


class _RefBlockStructureGraph:
    """The BSG object the search once took, kept verbatim as the slow
    reference; ``_ref_build_bsg`` reads its columns off the cells."""

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


def _ref_build_bsg(q):
    edges = []
    for j in range(1, q.b + 1):
        col = sorted((i, s) for (i, jj), s in q.cells.items() if jj == j)
        for a in range(len(col)):
            for b in range(len(col)):
                if a == b:
                    continue
                (i1, s1), (i2, s2) = col[a], col[b]
                edges.append((i1, i2, j, (s2 - s1) % q.m))
    return _RefBlockStructureGraph(q.v, q.m, edges)


def _ref_bsg_shortest_closed_walk(g, cap):
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


class TestBsg:
    def test_matches_tanner_girth(self):
        fss = validate_fss(2, [[1, 2], [1, 2], [1, 2]])
        S = shift_sequence_from_list(fss, 3, [0, 1, 2])
        q = assemble(fss, S)
        rep = bsg_shortest_closed_walk(q, cap=8)
        assert 2 * rep.girth == tanner_girth(expand(q)).girth == 8

    def test_witness_is_valid_walk(self):
        fss = validate_fss(2, [[1, 2], [1, 2]])
        S = shift_sequence_from_list(fss, 2, [0, 0, 0, 0])
        rep = bsg_shortest_closed_walk(assemble(fss, S), cap=8)
        assert rep.girth == 2
        w = rep.witness
        assert len(w.points) == len(w.block_idx) == 2

    def test_bsg_walk_matches_tanner_girth_randomized(self):
        # 2 x (shortest BSG closed walk) equals the Tanner girth
        rng = random.Random(20240817)
        for _ in range(30):
            fss = _random_system(rng, vmax=6, bmax=8)
            m = rng.randint(1, 5)
            q = assemble(fss, _random_shifts(rng, fss, m))
            walk = bsg_shortest_closed_walk(q, cap=8)
            cycle = tanner_girth(expand(q), cap=16)
            assert (
                (walk.girth is None and cycle.girth is None)
                or 2 * walk.girth == cycle.girth
            )

    def test_matches_reference_search(self):
        """Girth and witness equal the graph-object search's on random
        systems at caps 2, 3 and 8 and on two bundled codes."""
        rng = random.Random(20261019)
        outcomes = set()
        for case in range(600):
            fss = _random_system(rng)
            q = assemble(fss, _random_shifts(rng, fss, rng.randint(1, 9)))
            ref = _ref_build_bsg(q)
            for cap in (2, 3, 8):
                got = bsg_shortest_closed_walk(q, cap)
                want = _ref_bsg_shortest_closed_walk(ref, cap)
                assert got.to_json() == want.to_json(), (case, cap)
                outcomes.add((cap, got.girth))
        # every walk length up to the cap occurs, and so does none at all
        assert outcomes >= {(8, L) for L in range(2, 9)} | {
            (cap, None) for cap in (2, 3, 8)}
        for name in ("fss-3-11-m11", "fss-3-10-m36"):
            q = reference_code(name)
            assert bsg_shortest_closed_walk(q, 8).to_json() == (
                _ref_bsg_shortest_closed_walk(_ref_build_bsg(q), 8).to_json())

    def test_cap_below_2_rejected(self):
        q = reference_code("fss-3-11-m11")
        with pytest.raises(ValueError, match="cap must be >= 2"):
            bsg_shortest_closed_walk(q, 1)


class TestInevitableGirth:
    def test_three_parallel_pairs(self):
        assert inevitable_girth(validate_fss(2, [[1, 2]] * 3)).girth == 12

    def test_four_parallel_triples(self):
        assert inevitable_girth(validate_fss(3, [[1, 2, 3]] * 4)).girth == 12

    def test_single_block_unbounded(self):
        assert inevitable_girth(validate_fss(4, [[1, 2, 3, 4]])).unbounded

    def test_two_blocks_unbounded(self):
        # a balanced walk needs three pairwise co-block columns
        assert inevitable_girth(validate_fss(2, [[1, 2], [1, 2]])).unbounded

    def test_witness_verifies(self):
        fss = validate_fss(2, [[1, 2]] * 3)
        rep = inevitable_girth(fss)
        assert verify_walk(fss, rep.witness)

    def test_pair_balanced_6_3_2(self):
        # 7-step balanced walk: maximum achievable girth 14
        blocks = [
            [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
            [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
        ]
        rep = inevitable_girth(validate_fss(6, blocks), cap=7)
        assert rep.girth == 14
        assert verify_walk(validate_fss(6, blocks), rep.witness)

    def test_upper_bounds_tanner_girth(self):
        rng = random.Random(97)
        checked = 0
        while checked < 15:
            fss = _random_system(rng, vmax=6, bmax=8)
            rep = inevitable_girth(fss, cap=8)
            if rep.unbounded:
                continue
            m = rng.randint(2, 5)
            q = assemble(fss, _random_shifts(rng, fss, m))
            cycle = tanner_girth(expand(q), cap=2 * rep.cap)
            assert cycle.girth is None or cycle.girth <= rep.girth
            checked += 1


class TestEdgeGirth:
    """Shortest balanced walk opening with given steps (x, block k0, y)."""

    def test_parallel_pair_step(self):
        # two parallel blocks admit no balanced walk at all
        sc = WalkScaffold([(1, 2), (1, 2)])
        assert min_edge_walk(sc, 11, [(1, 2, 2)]) is None

    def test_appending_third_parallel_block(self):
        sc = WalkScaffold([(1, 2), (1, 2), (1, 2)])
        assert _walk_len(min_edge_walk(sc, 6, [(1, 3, 2)])) == 6

    def test_min_edge_walk_agrees(self):
        sc = WalkScaffold([(1, 2), (1, 2), (1, 2)])
        assert _walk_len(min_edge_walk(sc, 7, [(1, 3, 2)])) == 6
        assert min_edge_walk(sc, 5, [(1, 3, 2)]) is None
        assert _walk_len(min_edge_walk(sc, 7, [(2, 1, 1)])) == 6
        walk = min_edge_walk(sc, 7, [(2, 1, 1)])
        assert walk[0][:2] == (2, 1) and walk[1][0] == 1
        assert verify_walk_raw([(1, 2), (1, 2), (1, 2)], *walk)

    def test_steps_query_is_min_of_single_steps(self):
        # on systems with repeated blocks: the multi-step query finds the
        # shortest of the single-step walks, and a verified balanced walk
        # opening with one of the steps.  The steps go longest walk first,
        # so the query cannot settle for the first step that has a walk.
        rng = random.Random(20261019)
        found = missing = repeated = hard = 0
        for _ in range(250):
            fss = _random_system_with_repeats(rng, vmax=6, bmax=9)
            repeated += len(set(fss.blocks)) < len(fss.blocks)
            blocks = list(fss.blocks)
            all_steps = [(x, k, y) for k, blk in enumerate(blocks, start=1)
                         for x in blk for y in blk if x != y]
            max_len = rng.randint(5, 8)
            single = {step: _walk_len(min_edge_walk(WalkScaffold(blocks),
                                                    max_len, [step]))
                      for step in all_steps}
            with_walk = sorted((s for s in all_steps if single[s]),
                               key=single.get)
            steps = {*with_walk[:1], *with_walk[-1:], *rng.sample(
                all_steps, rng.randint(1, min(4, len(all_steps))))}
            steps = sorted(steps, key=lambda s: -(single[s] or 0))
            lengths = {single[s] for s in steps} - {None}
            want = min(lengths, default=None)
            hard += len(lengths) > 1
            walk = min_edge_walk(WalkScaffold(blocks), max_len, steps)
            assert _walk_len(walk) == want, (blocks, steps, max_len)
            if walk is None:
                missing += 1
                continue
            found += 1
            assert verify_walk_raw(blocks, *walk)
            assert (walk[0][0], walk[1][0], walk[0][1]) in steps
        assert repeated > 50 and found > 50 and missing > 50 and hard >= 15, (found, missing, hard)


def _growing_state(rng, complete=(1, 7)):
    """A random state of ``method2``'s search, drawn as in
    ``test_construct.TestAccepts``: complete blocks, as many as
    ``complete`` bounds, then a partial block with ascending points and a
    candidate above its last point.  Returns the blocks with the candidate
    appended and the steps to it."""
    v = rng.randint(3, 5)
    blocks = [sorted(rng.sample(range(1, v + 1), rng.randint(2, 3)))
              for _ in range(rng.randint(*complete))]
    grown = sorted(rng.sample(range(1, v), rng.randint(1, 2)))
    beta = rng.randint(grown[-1] + 1, v)
    blocks.append(grown + [beta])
    return blocks, [(x, len(blocks), beta) for x in grown]


class TestExistenceQuery:
    """``min_edge_walk(..., shortest=False)``, the query ``method2`` asks,
    and the balanced passes of ``closed_walks`` it runs, against the
    unbalanced passes and the deepening."""

    # the system of TestWalkClasses.test_worst_case_for_the_deepening
    WORST_CASE = [(2, 3, 4, 5), (2, 4), (1, 2, 3),
                  (2, 3, 4, 5), (2, 3, 4, 5), (2, 3, 4, 5)]

    @staticmethod
    def _visited(sc, max_len, first, balanced):
        """The (points, blocks) of the balanced walks a pass visits, in
        order; an unbalanced pass's are filtered to a zero coefficient
        vector."""
        seen = []

        def visit(points, ks, touched, coef):
            if not any(coef[p] for p in touched):
                seen.append((tuple(points), tuple(ks)))

        closed_walks(sc, max_len, visit, first, balanced=balanced)
        return seen

    def test_balanced_pass_is_the_filtered_unbalanced_pass(self):
        rng = random.Random(20261020)
        found = missing = longer = compared = mixed = 0
        for _ in range(300):
            blocks, steps = _growing_state(rng)
            sc = WalkScaffold(blocks)
            max_len = rng.randint(3, 7)
            # the unbalanced pass grows fast with the blocks: at 7 steps it
            # takes up to seconds on eight, ~10 ms on five
            for first in (steps, None) if len(blocks) <= 5 else ():
                want = self._visited(sc, max_len, first, False)
                assert self._visited(sc, max_len, first, True) == want, (
                    blocks, first, max_len)
                compared += len(want)
                mixed += {len(points) for points, _ in want} >= {6, 7}
            walk = min_edge_walk(sc, max_len, steps, shortest=False)
            shortest = min_edge_walk(sc, max_len, steps)
            assert (walk is None) == (shortest is None), (blocks, steps, max_len)
            if walk is None:
                missing += 1
                continue
            found += 1
            assert verify_walk_raw(blocks, *walk)
            assert (walk[0][0], walk[1][0], walk[0][1]) in steps
            assert len(walk[0]) <= max_len
            longer += len(walk[0]) > len(shortest[0])
        # some queries meet a longer walk than the shortest before it, and
        # some passes hold walks of both 6 and 7 steps
        assert found > 50 and missing > 50 and longer > 0, (found, missing, longer)
        assert compared > 400 and mixed >= 10, (compared, mixed)

    def test_tight_cut_on_dense_growing_states(self):
        # the tight-branch cut fires most on many blocks over few points,
        # from the steps method2 pins (~600 times here); the unbalanced
        # pass is the slow reference, ~1 s on these states, while a single
        # denser one can take 4 s at seven steps
        rng = random.Random(20261022)
        compared = nonempty = 0
        for _ in range(20):
            blocks, steps = _growing_state(rng, complete=(5, 6))
            sc = WalkScaffold(blocks)
            for max_len in (6, 7):
                want = self._visited(sc, max_len, steps, False)
                assert self._visited(sc, max_len, steps, True) == want, (
                    blocks, steps, max_len)
                compared += len(want)
                nonempty += bool(want)
        assert compared > 600 and nonempty > 25, (compared, nonempty)

    def test_no_balanced_walk_below_six_steps(self):
        # the ground for min_edge_walk's six-step floor: every closed walk
        # of at most five steps leaves some incidence unbalanced
        rng = random.Random(20261021)
        walks = balanced = 0

        def visit(points, ks, touched, coef):
            nonlocal walks, balanced
            walks += 1
            balanced += not any(coef[p] for p in touched)

        for _ in range(150):
            fss = _random_system_with_repeats(rng, vmax=5, bmax=6)
            closed_walks(WalkScaffold(fss.blocks), 5, visit)
            assert inevitable_girth(fss, 5).unbounded
        assert balanced == 0 and walks > 100_000, (walks, balanced)

    @pytest.mark.parametrize("shortest, max_len, passes", [
        (False, 5, []), (False, 6, [6]), (False, 7, [7]), (False, 12, [8, 12]),
        (True, 5, []), (True, 7, [6, 7]), (True, 9, [6, 7, 8, 9])])
    def test_pass_lengths(self, monkeypatch, shortest, max_len, passes):
        from fsscode import girth

        seen, real = [], girth.closed_walks

        def spy(sc, length, *args, **kwargs):
            seen.append(length)
            return real(sc, length, *args, **kwargs)

        monkeypatch.setattr(girth, "closed_walks", spy)
        # two parallel blocks admit no balanced walk, so every pass runs
        sc = WalkScaffold([(1, 2), (1, 2)])
        assert min_edge_walk(sc, max_len, [(1, 2, 2)], shortest=shortest) is None
        assert seen == passes

    def test_bounded_on_the_worst_case_system(self):
        # each block in turn grows to its last point, as in method2; one
        # up-to pass at max_len 12 took 7.7 s with block (1, 2, 3) growing
        start = time.perf_counter()
        for j, grown in enumerate(self.WORST_CASE):
            blocks = [b for i, b in enumerate(self.WORST_CASE) if i != j]
            blocks.append(grown)
            steps = [(x, len(blocks), grown[-1]) for x in grown[:-1]]
            for max_len in (8, 10, 12):
                walk = min_edge_walk(WalkScaffold(blocks), max_len, steps,
                                     shortest=False)
                shortest = min_edge_walk(WalkScaffold(blocks), max_len, steps)
                assert (walk is None) == (shortest is None), (j, max_len)
                assert walk is None or verify_walk_raw(blocks, *walk)
        assert time.perf_counter() - start < 2.0


class TestVerifyWalk:
    def test_rejects_unbalanced(self):
        blocks = [(1, 2), (1, 2), (1, 2)]
        # 4-step walk alternating two blocks is not balanced
        assert not verify_walk_raw(blocks, (1, 2, 1, 2), (1, 2, 1, 2))

    def test_rejects_same_block_step(self):
        blocks = [(1, 2), (1, 2), (1, 2)]
        assert not verify_walk_raw(blocks, (1, 2, 1, 2, 1, 2), (1, 1, 2, 2, 3, 3))

    def test_accepts_known_balanced_walk(self):
        blocks = [(1, 2), (1, 2), (1, 2)]
        points = (1, 2, 1, 2, 1, 2)
        ks = (1, 2, 3, 1, 2, 3)
        assert verify_walk_raw(blocks, points, ks)

    def test_matches_peeling_reference(self):
        # on small systems with repeated blocks: rotated balanced walks from
        # the engine, the same with one entry changed, raw-valid random
        # closed walks, and unconstrained sequences
        rng = random.Random(11)
        verdicts = {True: 0, False: 0}
        for _ in range(2_000):
            fss = _random_system(rng, vmax=4, bmax=5)
            blocks = fss.blocks
            kind = rng.randrange(4)
            walk = None
            if kind < 2:
                sc = WalkScaffold(blocks)
                walk = next((w for L in range(rng.randint(2, 6), 9)
                             if (w := _first_balanced(sc, L))), None)
            elif kind == 2:
                walk = _random_closed_walk(rng, blocks, rng.randint(2, 8))
            if walk is None:
                L = rng.randint(1, 6)
                walk = ([rng.randint(1, fss.v) for _ in range(L)],
                        [rng.randint(1, len(blocks) + 1) for _ in range(L)])
            points, ks = list(walk[0]), list(walk[1])
            r = rng.randrange(len(points))
            points, ks = points[r:] + points[:r], ks[r:] + ks[:r]
            if kind == 1:
                j = rng.randrange(len(points))
                if rng.random() < 0.5:
                    points[j] = rng.randint(1, fss.v)
                else:
                    ks[j] = rng.randint(1, len(blocks))
            want = _ref_verify_walk_raw(blocks, points, ks)
            assert verify_walk_raw(blocks, points, ks) == want, (blocks, points, ks)
            verdicts[want] += 1
        assert min(verdicts.values()) >= 300, verdicts


def _random_closed_walk(rng, blocks, L):
    """A closed walk of length L obeying the raw conditions, or None when
    the random steps do not close."""
    points = [rng.choice(rng.choice(blocks))]
    ks = []
    for j in range(L):
        u = points[-1]
        last = j == L - 1
        options = [(k, w) for k, blk in enumerate(blocks, 1) if u in blk
                   for w in blk if w != u and (not ks or k != ks[-1])
                   and (not last or (w == points[0] and k != ks[0]))]
        if not options:
            return None
        k, w = rng.choice(options)
        ks.append(k)
        points.append(w)
    return points[:-1], ks


def _ref_verify_walk_raw(blocks, points, block_idx):
    """The verifier before the multiset balance test: per-block degree
    counts, then greedy peeling of each block's steps into directed
    cycles."""
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
        if k == block_idx[(j + 1) % L]:
            return False
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


# ----------------------------------------------------------------------
# Slow references: the two closed-walk enumerators the engine replaced
# ----------------------------------------------------------------------

def _ref_coblock_distances(blocks, points, source):
    inf = 1 << 20
    dist = {x: inf for x in points}
    dist[source] = 0
    queue = deque([source])
    neigh = {x: set() for x in points}
    for blk in blocks:
        for a in blk:
            for b in blk:
                if a != b:
                    neigh[a].add(b)
    while queue:
        u = queue.popleft()
        for w in neigh[u]:
            if dist[w] > dist[u] + 1:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _ref_find_walk(blocks, length, first=None):
    """First balanced closed walk of exactly ``length`` steps, by a DFS that
    tracks per-(block, point) degree imbalance in a dict."""
    point_blocks = {}
    for j, blk in enumerate(blocks, start=1):
        for x in blk:
            point_blocks.setdefault(x, []).append(j)
    if first is not None:
        starts = [first]
    else:
        starts = [(i1, k1, i2) for i1 in sorted(point_blocks)
                  for k1 in point_blocks[i1] for i2 in blocks[k1 - 1] if i2 != i1]
    for i1, k1, i2 in starts:
        lo = i1 if first is None else None
        if lo is not None and i2 < lo:
            continue
        dist_home = _ref_coblock_distances(blocks, list(point_blocks), i1)
        imb = {}
        stride = max(point_blocks) + 1
        deficit = 0

        def bump(k, u, w, sign):
            nonlocal deficit
            for key, delta in ((k * stride + u, sign), (k * stride + w, -sign)):
                old = imb.get(key, 0)
                imb[key] = old + delta
                deficit += abs(old + delta) - abs(old)

        points, ks = [i1, i2], [k1]
        bump(k1, i1, i2, +1)

        def dfs(depth):
            u = points[-1]
            remaining = length - depth
            if deficit > 2 * remaining or dist_home[u] > remaining:
                return False
            if remaining == 0:
                return deficit == 0 and u == i1
            last = remaining == 1
            for k in point_blocks[u]:
                if k == ks[-1] or (last and k == k1):
                    continue
                for w in (i1,) if last else blocks[k - 1]:
                    if w == u or (last and w not in blocks[k - 1]):
                        continue
                    if lo is not None and w < lo:
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
            return tuple(points[:-1]), tuple(ks)
    return None


def _ref_enumerate_templates(fss, max_len):
    """Forms of all closed walks of length <= max_len, deduplicated up to
    sign and bucketed by the last incidence position they touch."""
    blocks = list(fss.blocks)
    pos = {inc: e for e, inc in enumerate(fss.incidences)}
    point_blocks = {}
    for j, blk in enumerate(blocks, start=1):
        for x in blk:
            point_blocks.setdefault(x, []).append(j)
    buckets, seen = {}, set()

    def emit(points, ks):
        coeffs = {}
        L = len(points)
        for j in range(L):
            u, w, k = points[j], points[(j + 1) % L], ks[j]
            coeffs[pos[(u, k)]] = coeffs.get(pos[(u, k)], 0) - 1
            coeffs[pos[(w, k)]] = coeffs.get(pos[(w, k)], 0) + 1
        form = sorted((p, c) for p, c in coeffs.items() if c)
        key = min(tuple(form), tuple((p, -c) for p, c in form))
        if key in seen:
            return
        seen.add(key)
        last = form[-1][0] if form else max(pos[(points[j], ks[j])] for j in range(L))
        buckets.setdefault(last, []).append(form)

    def dfs(points, ks, i1, k1):
        u = points[-1]
        if len(ks) >= 2 and u == i1 and ks[-1] != k1:
            emit(points[:-1], ks)
        if len(ks) == max_len:
            return
        for k in point_blocks[u]:
            if k == ks[-1]:
                continue
            for w in blocks[k - 1]:
                if w == u or w < i1:
                    continue
                dfs(points + [w], ks + [k], i1, k1)

    for i1 in sorted(point_blocks):
        for k1 in point_blocks[i1]:
            for i2 in blocks[k1 - 1]:
                if i2 > i1:
                    dfs([i1, i2], [k1], i1, k1)
    return buckets


def _random_system_with_repeats(rng, vmax, bmax):
    v = rng.randint(2, vmax)
    blocks = []
    for _ in range(rng.randint(2, bmax)):
        if blocks and rng.random() < 0.3:
            blocks.append(list(rng.choice(blocks)))
        else:
            blocks.append(rng.sample(range(1, v + 1), rng.randint(2, min(4, v))))
    return validate_fss(v, blocks)


class TestWalkEngineDifferential:
    """``closed_walks`` against the enumerators it replaced."""

    def test_first_balanced_walk_matches_reference(self):
        rng = random.Random(20261018)
        found = repeated = pinned = 0
        for _ in range(60):
            fss = _random_system_with_repeats(rng, vmax=6, bmax=8)
            repeated += len(set(fss.blocks)) < len(fss.blocks)
            blocks = list(fss.blocks)
            sc = WalkScaffold(blocks)
            steps = [(x, k, y) for k, blk in enumerate(blocks, start=1)
                     for x in blk for y in blk if x != y]
            firsts = rng.sample(steps, min(4, len(steps)))
            for L in range(2, 7):
                want = _ref_find_walk(blocks, L)
                assert _first_balanced(sc, L) == want, (blocks, L)
                found += want is not None
                for first in firsts:
                    want = _ref_find_walk(blocks, L, first=first)
                    assert _first_balanced(sc, L, first=first) == want
                    pinned += want is not None
        assert repeated > 0 and found > 20 and pinned > 20

    def test_templates_match_reference(self):
        rng = random.Random(7)
        repeated = 0
        for _ in range(40):
            fss = _random_system_with_repeats(rng, vmax=5, bmax=6)
            repeated += len(set(fss.blocks)) < len(fss.blocks)
            for max_len in (3, 4):
                got = ShiftSearchState.create(fss, 5, 2 * max_len + 2).buckets
                assert got == _ref_enumerate_templates(fss, max_len), fss.blocks
        assert repeated > 0


def _all_closed_walks(blocks, max_len):
    """Every closed walk of 2..max_len steps from every start, as a tuple of
    (point, block) steps: step j leaves the point through the block."""
    point_blocks = {}
    for j, blk in enumerate(blocks, start=1):
        for x in blk:
            point_blocks.setdefault(x, []).append(j)
    walks = []

    def dfs(steps, u):
        x0, k0 = steps[0]
        if len(steps) >= 2 and u == x0 and steps[-1][1] != k0:
            walks.append(tuple(steps))
        if len(steps) == max_len:
            return
        for k in point_blocks[u]:
            if k == steps[-1][1]:
                continue
            for w in blocks[k - 1]:
                if w != u:
                    dfs(steps + [(u, k)], w)

    for x in point_blocks:
        for k in point_blocks[x]:
            for w in blocks[k - 1]:
                if w != x:
                    dfs([(x, k)], w)
    return walks


def _walk_class(steps):
    """The least of a walk's rotations and its reversal's rotations."""
    L = len(steps)
    # the reversal steps from each point back through the block it came by
    back = [(steps[(j + 1) % L][0], steps[j][1]) for j in reversed(range(L))]
    return min(seq[r:] + seq[:r] for seq in (steps, tuple(back)) for r in range(L))


class TestWalkClasses:
    """Open-mode ``closed_walks`` visits each rotation/reversal class of
    closed walks exactly once."""

    @staticmethod
    def _visited(blocks, max_len):
        seen = []

        def visit(points, ks, *_):
            seen.append(tuple(zip(points, ks)))

        closed_walks(WalkScaffold(blocks), max_len, visit)
        return seen

    def test_each_class_once_against_brute_force(self):
        rng = random.Random(14)
        repeated = revisits = 0
        for _ in range(40):
            fss = _random_system_with_repeats(rng, vmax=5, bmax=6)
            repeated += len(set(fss.blocks)) < len(fss.blocks)
            blocks = list(fss.blocks)
            for max_len in (3, 4):
                want = {_walk_class(w) for w in _all_closed_walks(blocks, max_len)}
                got = self._visited(blocks, max_len)
                classes = [_walk_class(w) for w in got]
                assert len(classes) == len(set(classes)), (blocks, max_len)
                assert set(classes) == want, (blocks, max_len)
                revisits += sum(
                    [x for x, _ in w].count(w[0][0]) > 1 for w in got)
        # repeated blocks, and walks through their start twice, where
        # ties are settled by the full comparison
        assert repeated > 0 and revisits > 0

    @pytest.mark.parametrize("blocks", [[(1, 2)] * 4, [(1, 2, 3)] * 3,
                                        [(1, 2), (1, 2, 3), (2, 3), (1, 2, 3)]])
    def test_each_class_once_at_six_steps(self, blocks):
        # six steps are the fewest in which a walk can reach its start again
        # by the reverse of its first step, a tie the reversal settles
        want = {_walk_class(w) for w in _all_closed_walks(blocks, 6)}
        classes = [_walk_class(w) for w in self._visited(blocks, 6)]
        assert len(classes) == len(set(classes)) == len(want)
        assert set(classes) == want

    @pytest.mark.parametrize("max_len, walks", [(3, 855), (4, 15_705), (5, 192_825)])
    def test_visit_counts_on_ten_triples(self, max_len, walks):
        # each walk once per class; the search before the cut visited
        # 1,710, 47,700 and 638,100
        count = 0

        def visit(*_):
            nonlocal count
            count += 1

        closed_walks(WalkScaffold([(1, 2, 3)] * 10), max_len, visit)
        assert count == walks

    def test_worst_case_for_the_deepening(self):
        # one pass over all lengths <= 12 meets an 11-step walk first after
        # ~40 s; the per-length deepening finds this 6-step walk, which
        # passes its start three times, at once
        fss = validate_fss(5, [[2, 3, 4, 5], [2, 4], [1, 2, 3],
                               [2, 3, 4, 5], [2, 3, 4, 5], [2, 3, 4, 5]])
        rep = inevitable_girth(fss, 12)
        assert rep.girth == 12
        assert rep.witness == WalkWitness((2, 3, 2, 3, 2, 3), (1, 3, 4, 1, 3, 4))
        assert verify_walk(fss, rep.witness)


class TestVisitOrderPinned:
    """Every visit ``closed_walks`` makes, in order, pinned by a digest.

    A faster engine must reach the same walks in the same order with the
    same state, since the shift search keeps the first walk of each form
    and ``min_edge_walk`` the first balanced one.  300 seeded systems with
    repeated blocks, each searched open and from three pinned first steps,
    without the balance test at one length of 2..6 and with it at every
    length of 2..6.  A visit is recorded as its points, blocks, touched
    positions and the nonzero entries of its coefficient vector.
    """

    DIGEST = "d1e4da31c33a1c57d6f982a2d95380a378a1be80ce23653e6577e094f0d12a92"
    SPARSE_DIGEST = "c3c33a58616586ccea14ea6b810e08bf51765236a6d30df19b080adb1d99addc"

    @staticmethod
    def _recorder(digest):
        """``run(sc, max_len, first, balanced)``: one ``closed_walks`` pass,
        its visits fed to ``digest``; returns how many there were."""
        def run(sc, max_len, first, balanced):
            seen = []

            def visit(points, ks, touched, coef):
                seen.append((points, ks[:], touched[:],
                             {p: coef[p] for p in touched if coef[p]}))

            closed_walks(sc, max_len, visit, first, balanced=balanced)
            digest.update(repr(seen).encode())
            return len(seen)

        return run

    def test_visit_sequence_digest(self):
        digest = hashlib.sha256()
        visits = balanced_visits = 0
        run = self._recorder(digest)

        rng = random.Random(20261019)
        for i in range(300):
            open_len = 2 + i % 5
            # six open steps on six blocks would visit ~290k walks a system
            fss = _random_system_with_repeats(
                rng, vmax=5, bmax=6 if open_len < 6 else 4)
            blocks = list(fss.blocks)
            sc = WalkScaffold(blocks)
            steps = [(x, k, y) for k, blk in enumerate(blocks, start=1)
                     for x in blk for y in blk if x != y]
            first = rng.sample(steps, min(3, len(steps)))
            for pinned in (None, first):
                visits += run(sc, open_len, pinned, False)
                for max_len in range(2, 7):
                    balanced_visits += run(sc, max_len, pinned, True)
        assert (visits, balanced_visits) == (236_983, 7_328)
        assert digest.hexdigest() == self.DIGEST

    def test_sparse_visit_sequence_digest(self):
        # 60 sparse systems, 8-14 points in 4-10 blocks of 2-3: unlike the
        # small dense ones above, their points lie up to several co-block
        # steps apart, so many branches wander off and never close
        digest = hashlib.sha256()
        visits = balanced_visits = 0
        run = self._recorder(digest)
        rng = random.Random(20261032)
        for _ in range(60):
            v = rng.randint(8, 14)
            blocks = [sorted(rng.sample(range(1, v + 1), rng.randint(2, 3)))
                      for _ in range(rng.randint(4, 10))]
            sc = WalkScaffold(blocks)
            steps = [(x, k, y) for k, blk in enumerate(blocks, start=1)
                     for x in blk for y in blk if x != y]
            first = rng.sample(steps, 3)
            for pinned in (None, first):
                visits += run(sc, 6, pinned, False)
                for max_len in (6, 7, 8):
                    balanced_visits += run(sc, max_len, pinned, True)
        assert (visits, balanced_visits) == (12_963, 480)
        assert digest.hexdigest() == self.SPARSE_DIGEST


class TestScaffoldNumbering:
    """The scaffold numbers incidences as ``SetSystem.incidences`` lists
    them: the shift search reads template position e as ``order[e]``."""

    @staticmethod
    def _check(blocks, incidences, sc=None):
        sc = WalkScaffold(blocks) if sc is None else sc
        assert sc.size == len(incidences)
        assert sorted(sc.steps) == sorted({x for blk in blocks for x in blk})
        shared = {}
        for x, table in sc.steps.items():
            assert [k for k, _, _ in table] == [
                k for k, blk in enumerate(blocks, start=1) if x in blk]
            for k, a, members in table:
                assert a == incidences.index((x, k))
                assert members == [(incidences.index((w, k)), w)
                                   for w in blocks[k - 1]]
                assert shared.setdefault(k, members) is members
        assert len(shared) == len(blocks)

    def test_positions_are_the_incidence_order(self):
        rng = random.Random(20261020)
        repeated = 0
        for _ in range(100):
            fss = _random_system_with_repeats(rng, vmax=7, bmax=10)
            repeated += len(set(fss.blocks)) < len(fss.blocks)
            self._check(fss.blocks, fss.incidences)
        assert repeated > 30

    def test_point_in_many_blocks(self):
        rng = random.Random(7)
        for _ in range(30):
            v = rng.randint(3, 8)
            blocks = [[1, *rng.sample(range(2, v + 1), rng.randint(1, v - 1))]
                      for _ in range(rng.randint(5, 12))]
            fss = validate_fss(v, blocks)
            self._check(fss.blocks, fss.incidences)
            assert len(WalkScaffold(fss.blocks).steps[1]) == len(blocks)

    def test_method2_list_blocks(self):
        # ``method2`` builds its scaffolds from ascending lists
        rng = random.Random(11)
        for _ in range(100):
            blocks, _ = _growing_state(rng)
            fss = validate_fss(max(map(max, blocks)), blocks)
            self._check(blocks, fss.incidences)

    def test_push_and_pop_match_a_fresh_scaffold(self):
        # as method2 grows its last block: after every push and pop the
        # tables and the size are a fresh scaffold's
        rng = random.Random(12)
        pushes = 0
        for _ in range(100):
            blocks, _ = _growing_state(rng)
            blocks[-1].pop()
            sc = WalkScaffold(blocks)
            base = sc.size
            grown = [x for x in range(blocks[-1][-1] + 1, 8)
                     if rng.random() < 0.6]
            # push every point of ``grown``, then pop them all
            for n in [*range(1, len(grown) + 1), *range(len(grown) - 1, -1, -1)]:
                if n > sc.size - base:
                    sc.push(grown[n - 1])
                    pushes += 1
                else:
                    sc.pop()
                trial = blocks[:-1] + [blocks[-1] + grown[:n]]
                fresh = WalkScaffold(trial)
                assert (sc.steps, sc.size) == (fresh.steps, fresh.size), trial
                fss = validate_fss(max(map(max, trial)), trial)
                self._check(trial, fss.incidences, sc)
        assert pushes > 150, pushes


class TestIntegerCaps:
    @pytest.mark.parametrize("cap", [4.5, 8.0, True, "8"])
    def test_tanner_girth(self, cap):
        H = expand(reference_code("fss-3-11-m11"))
        with pytest.raises(ValueError, match="cap must be an integer"):
            tanner_girth(H, cap)

    @pytest.mark.parametrize("cap", [4.5, 3.0, True, False])
    def test_inevitable_girth(self, cap):
        with pytest.raises(ValueError, match="cap must be an integer"):
            inevitable_girth(validate_fss(2, [[1, 2]] * 3), cap)

    @pytest.mark.parametrize("cap", [4.5, 4.0, True])
    def test_bsg_shortest_closed_walk(self, cap):
        with pytest.raises(ValueError, match="cap must be an integer"):
            bsg_shortest_closed_walk(reference_code("fss-3-11-m11"), cap)

    def test_numpy_integer_caps_are_ints(self):
        fss = validate_fss(2, [[1, 2]] * 3)
        rep = inevitable_girth(fss, np.int64(6))
        assert type(rep.cap) is int and rep.girth == 12
        H = expand(reference_code("fss-3-11-m11"))
        assert tanner_girth(H, np.int64(16)).to_json() == tanner_girth(H, 16).to_json()
