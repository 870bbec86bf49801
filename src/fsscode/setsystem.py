"""Finite set systems and their incidence matrices.

A set system is a point set {1..v} together with an ordered collection of
blocks (subsets of the points).  Blocks may repeat.  The incidence matrix has
one row per block and one column per (t-1)-subset of points, and is the
mother-matrix skeleton from which quasi-cyclic parity-check matrices are
lifted.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

__all__ = [
    "SetSystemError",
    "SetSystem",
    "SystemStats",
    "BinaryMatrix",
    "validate_fss",
    "block_stats",
    "incidence_matrix",
]

_MAX_POINTS = 2**20  # block_stats' R holds one count per point
_MAX_DIM = 2**24     # BinaryMatrix rows, cols: row_ptr <= 128 MiB, keys < 2**48


class SetSystemError(ValueError):
    """Raised for malformed set-system input."""


@dataclass(frozen=True)
class SetSystem:
    """Points ``1..v`` plus an ordered collection of blocks.

    Blocks are stored as sorted tuples of 1-based points.  Block order is
    significant: shift sequences are aligned to it.  ``t`` is the balance
    parameter (pairs for t=2).
    """

    v: int
    blocks: tuple[tuple[int, ...], ...]
    t: int = 2

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def incidences(self) -> list[tuple[int, int]]:
        """All (point, block_index) pairs, block-major, points ascending.

        Block indices are 1-based to match block labels elsewhere.
        """
        return [(i, j + 1) for j, blk in enumerate(self.blocks) for i in blk]

    def to_json(self) -> str:
        return json.dumps(
            {"v": self.v, "t": self.t, "blocks": [list(b) for b in self.blocks]}
        )

    @classmethod
    def from_json(cls, text: str) -> "SetSystem":
        doc = json.loads(text) if isinstance(text, (str, bytes, bytearray)) else None
        if not isinstance(doc, dict) or not doc.keys() >= {"v", "blocks"}:
            raise SetSystemError("set-system JSON must be an object with keys "
                                 "'v' and 'blocks'")
        return validate_fss(doc["v"], doc["blocks"], doc.get("t", 2))


def _is_integer(x) -> bool:
    """An int or numpy integer, not a bool (JSON true/false parse as bool)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _integer(x, name: str, low: int | None = None, even: bool = False,
             high: int | None = None) -> int:
    """``int(x)`` of an int or numpy integer (not a bool), at least ``low``
    if given, even if ``even`` and at most ``high`` if given; ValueError
    naming ``name`` otherwise."""
    if not _is_integer(x):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if low is not None and x < low:
        bound = "positive" if low == 1 else f">= {low}"
        raise ValueError(f"{name} must be {bound}, got {x!r}")
    if even and x % 2:
        raise ValueError(f"{name} must be even, got {int(x)}")
    if high is not None and x > high:
        raise ValueError(f"{name} must be <= {high}, got {int(x)}")
    return int(x)


def _iterable(x, name: str):
    """``iter(x)``; ValueError naming ``name`` when x is not iterable."""
    try:
        return iter(x)
    except TypeError:
        raise ValueError(f"{name} must be iterable, got {x!r}") from None


def _or_default(x, cls: type, name: str):
    """``x`` if it is a ``cls``, a default ``cls()`` if it is None;
    ValueError naming ``name`` otherwise."""
    if x is None:
        return cls()
    if not isinstance(x, cls):
        raise ValueError(f"{name} must be a {cls.__name__} or None, got {x!r}")
    return x


def validate_fss(v, blocks, t=2) -> SetSystem:
    """Check raw input and build a :class:`SetSystem`.

    Raises :class:`SetSystemError` on a ``v``, ``t`` or point that is not an
    int or numpy integer (a bool is not), a ``v`` above ``_MAX_POINTS``, a
    block list or block that is not a list or tuple, an out-of-range point,
    a duplicated point inside one block, an empty block, or ``t`` exceeding
    the maximum block size.  Block order is preserved; points inside a block
    are sorted.  Numbers are stored as Python ints.
    """
    if not _is_integer(v) or not 1 <= v <= _MAX_POINTS:
        raise SetSystemError(f"point count must be in 1..{_MAX_POINTS}, got {v!r}")
    if not isinstance(blocks, (list, tuple)):
        raise SetSystemError(f"blocks must be a list, got {blocks!r}")
    clean = []
    for j, pts in enumerate(blocks):
        if not isinstance(pts, (list, tuple)):
            raise SetSystemError(f"block {j + 1} must be a list, got {pts!r}")
        if not pts:
            raise SetSystemError(f"block {j + 1} is empty")
        for x in pts:
            if not _is_integer(x) or not 1 <= x <= v:
                raise SetSystemError(f"block {j + 1}: point {x!r} outside 1..{v}")
        pts = sorted(map(int, pts))
        if len(set(pts)) != len(pts):
            raise SetSystemError(f"block {j + 1} repeats a point: {pts}")
        clean.append(tuple(pts))
    if not _is_integer(t) or t < 1:
        raise SetSystemError(f"t must be a positive integer, got {t!r}")
    if clean and t > max(len(b) for b in clean):
        raise SetSystemError(
            f"t={t} exceeds the maximum block size {max(len(b) for b in clean)}"
        )
    return SetSystem(v=int(v), blocks=tuple(clean), t=int(t))


@dataclass(frozen=True)
class SystemStats:
    """Block-size / replication / coverage statistics of a set system.

    ``coverage[i]`` is the set of distinct i-subset coverage counts, for
    0 <= i <= t.
    """

    K: tuple[int, ...]
    R: tuple[int, ...]
    coverage: dict[int, frozenset[int]]


def _subset_counts(fss: SetSystem, i: int) -> Counter:
    """How many blocks hold each i-subset, keyed by sorted tuples."""
    return Counter(sub for blk in fss.blocks for sub in combinations(blk, i))


def block_stats(fss: SetSystem) -> SystemStats:
    """Compute K, R and the i-subset coverage sets from the subset counts.

    A zero joins ``coverage[i]`` whenever some i-subset of the full point set
    is contained in no block.
    """
    counts = [_subset_counts(fss, i) for i in range(fss.t + 1)]
    coverage = {i: frozenset(c.values()) | ({0} if len(c) < comb(fss.v, i) else set())
                for i, c in enumerate(counts)}
    return SystemStats(K=tuple(map(len, fss.blocks)),
                       R=tuple(counts[1][(x,)] for x in range(1, fss.v + 1)),
                       coverage=coverage)


class BinaryMatrix:
    """Sparse 0/1 matrix stored once, as its edges: int64 arrays
    ``edge_rows`` and ``edge_cols`` sorted by row, then column, with row r
    at ``row_ptr[r]:row_ptr[r + 1]``; ``column_order()`` gives the
    column-major order.  The sorted index lists ``row_support[i]`` and
    ``col_support[j]`` hold Python ints and are built on first use.
    ``entries`` holds integer ``(row, col)`` pairs; ``col_labels``
    optionally records the point subset of each column.
    """

    def __init__(self, rows, cols, entries, col_labels=None):
        self.rows = _integer(rows, "rows", 0, high=_MAX_DIM)
        self.cols = _integer(cols, "cols", 0, high=_MAX_DIM)
        e = np.asarray(entries)
        if e.shape == (0,):  # [] parses as float64
            e = np.empty((0, 2), np.int64)
        if e.dtype.kind not in "iu" or e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("entries must be integer (row, col) pairs, got "
                             f"dtype {e.dtype}, shape {e.shape}")
        r, c = e.astype(np.int64).T
        bad = np.flatnonzero((r < 0) | (r >= self.rows) | (c < 0) | (c >= self.cols))
        if bad.size:
            raise ValueError(f"entry ({r[bad[0]]},{c[bad[0]]}) outside "
                             f"{self.rows}x{self.cols}")
        key = np.sort(r * self.cols + c)
        self.edge_rows, self.edge_cols = np.divmod(key, max(self.cols, 1))
        dup = np.flatnonzero(key[1:] == key[:-1])
        if dup.size:
            raise ValueError(f"duplicate entry ({self.edge_rows[dup[0]]},"
                             f"{self.edge_cols[dup[0]]})")
        self.nnz = len(key)
        self.row_ptr = np.searchsorted(self.edge_rows, np.arange(self.rows + 1))
        self.col_labels = col_labels

    @cached_property
    def row_support(self) -> list[list[int]]:
        cols, ptr = self.edge_cols.tolist(), self.row_ptr.tolist()
        return [cols[a:b] for a, b in zip(ptr, ptr[1:])]

    @cached_property
    def col_support(self) -> list[list[int]]:
        order, ptr = self.column_order()
        rows, ptr = self.edge_rows[order].tolist(), ptr.tolist()
        return [rows[a:b] for a, b in zip(ptr, ptr[1:])]

    def column_order(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, col_ptr)``: the stable argsort of ``edge_cols``, which
        lists each column's edges by ascending row, and the column start
        offsets, column c at ``order[col_ptr[c]:col_ptr[c + 1]]``.  Computed
        on every call, never cached."""
        order = np.argsort(self.edge_cols, kind="stable")
        col_ptr = np.zeros(self.cols + 1, np.int64)
        np.cumsum(np.bincount(self.edge_cols, minlength=self.cols), out=col_ptr[1:])
        return order, col_ptr

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix(self.cols, self.rows,
                            np.column_stack((self.edge_cols, self.edge_rows)))

    def to_dense(self):
        H = np.zeros((self.rows, self.cols), dtype=np.int8)
        H[self.edge_rows, self.edge_cols] = 1
        return H

    def __eq__(self, other):
        return (isinstance(other, BinaryMatrix)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and np.array_equal(self.edge_rows, other.edge_rows)
                and np.array_equal(self.edge_cols, other.edge_cols))

    def __repr__(self):
        return f"BinaryMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def incidence_matrix(fss: SetSystem, min_replication: int = 2) -> BinaryMatrix:
    """Block-by-subset incidence matrix.

    Rows follow block order; columns are the (t-1)-subsets of the point set
    in lexicographic order, keeping only the subsets contained in at least
    ``min_replication`` blocks.  The default 2 keeps only subsets shared by
    two distinct blocks; ``min_replication=1`` keeps every covered subset.
    """
    if _integer(min_replication, "min_replication", 1) > 2:
        raise ValueError("min_replication must be 1 or 2")
    size = fss.t - 1
    labels = sorted(sub for sub, n in _subset_counts(fss, size).items()
                    if n >= min_replication)
    column = {sub: j for j, sub in enumerate(labels)}
    entries = [(i, column[sub]) for i, blk in enumerate(fss.blocks)
               for sub in combinations(blk, size) if sub in column]
    return BinaryMatrix(fss.b, len(labels), entries, col_labels=labels)
