"""Circulant lifting of a set system into a quasi-cyclic parity-check matrix.

A shift sequence assigns an element of Z_m to every (point in block)
incidence.  The proto matrix holds those shifts in a v x b grid, and
``expand`` replaces each cell by an m x m circulant permutation (or zero)
block.  ``assemble`` and ``shifts_from_json`` both check that the shifts
cover exactly the system's incidences.  Also: rate helpers, alist / JSON I/O.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .setsystem import BinaryMatrix, SetSystem, _integer, _is_integer, _iterable

__all__ = [
    "ShiftSequence",
    "QCProtoMatrix",
    "assemble",
    "expand",
    "exact_rate",
    "gf2_rank",
    "write_alist",
    "read_alist",
    "shifts_to_json",
    "shifts_from_json",
    "shift_sequence_from_list",
]


@dataclass(frozen=True)
class ShiftSequence:
    """Map from incidence (point i, 1-based block j) to a shift in Z_m.
    ``m`` and the shifts are ints or numpy integers, never bools."""

    m: int
    entries: dict[tuple[int, int], int]

    def __post_init__(self):
        _integer(self.m, "modulus", 1)
        if not isinstance(self.entries, dict):
            raise ValueError(f"entries must be a dict, got {self.entries!r}")
        for key, s in self.entries.items():
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(map(_is_integer, key))):
                raise ValueError(f"shift key {key!r} is not a pair of integers")
            i, j = key
            if not _is_integer(s) or not 0 <= s < self.m:
                raise ValueError(
                    f"shift s[{i},{j}]={s!r} is not an integer in 0..{self.m - 1}")


@dataclass(frozen=True)
class QCProtoMatrix:
    """v x b grid of shifts in Z_m; cell (i,j) is the shift of point i in
    block j, present only when i belongs to block j.  ``v``, ``b``, ``m``
    and the shifts are ints or numpy integers, never bools; every cell lies
    in the grid and holds a shift in 0..m-1, as ``expand`` and
    ``bsg_shortest_closed_walk`` read them."""

    v: int
    b: int
    m: int
    cells: dict[tuple[int, int], int] = field(repr=False)  # 1-based (i, j)

    def __post_init__(self):
        v = _integer(self.v, "point count", 1)
        b = _integer(self.b, "block count", 1)
        m = _integer(self.m, "modulus", 1)
        if not isinstance(self.cells, dict):
            raise ValueError(f"cells must be a dict, got {self.cells!r}")
        for key, s in self.cells.items():
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(map(_is_integer, key))):
                raise ValueError(f"cell key {key!r} is not a pair of integers")
            i, j = key
            if not (1 <= i <= v and 1 <= j <= b):
                raise ValueError(f"cell ({i},{j}) outside the {v}x{b} grid")
            if not _is_integer(s) or not 0 <= s < m:
                raise ValueError(
                    f"shift s[{i},{j}]={s!r} is not an integer in 0..{m - 1}")


def assemble(fss: SetSystem, S: ShiftSequence) -> QCProtoMatrix:
    """Place the shifts of ``S`` on the incidence pattern of ``fss``.

    ``S`` must cover exactly the incidences of the system.
    """
    _check_cover(fss, S.entries)
    return QCProtoMatrix(fss.v, fss.b, S.m, dict(S.entries))


def _check_cover(fss: SetSystem, entries) -> None:
    """ValueError unless ``entries`` keys are exactly the incidences of ``fss``."""
    wanted = set(fss.incidences)
    got = set(entries)
    if wanted != got:
        missing = sorted(wanted - got)
        extra = sorted(got - wanted)
        raise ValueError(
            f"shift sequence mismatch: missing {missing[:5]}, extraneous {extra[:5]}"
        )


def expand(q: QCProtoMatrix) -> BinaryMatrix:
    """Lift the proto matrix to its binary parity-check matrix.

    Each non-empty cell becomes circulant(m, s), each empty cell an m x m
    zero block.  When block-rows outnumber block-columns the transpose is
    returned so the check matrix always has at least as many columns as
    rows; the square case is left untransposed.
    """
    H = _lift(q)
    return H.transpose() if q.v > q.b else H


def _lift(q: QCProtoMatrix) -> BinaryMatrix:
    """The (v*m) x (b*m) circulant expansion: one row group per point, one
    column group per block, never transposed."""
    m, r = q.m, np.arange(q.m)
    cells = np.array([(*ij, s) for ij, s in q.cells.items()], dtype=np.int64)
    i, j, s = cells.reshape(-1, 3).T[:, :, None]  # one (cells, 1) column each
    rows, cols = (i - 1) * m + r, (j - 1) * m + (r + s) % m  # (cells, m) each
    return BinaryMatrix(q.v * m, q.b * m,
                        np.stack((rows.ravel(), cols.ravel()), axis=1))


def gf2_rank(H: BinaryMatrix) -> int:
    """Rank over GF(2) by elimination over Python ints, bit c for column c:
    each row is reduced by the pivot of its leading bit until it vanishes or
    its leading bit has no pivot yet, when it becomes that bit's pivot."""
    pivots: dict[int, int] = {}
    for sup in H.row_support:
        row = sum(1 << c for c in sup)
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def exact_rate(H: BinaryMatrix) -> float:
    """1 - rank_GF2(H)/n for the code with parity-check matrix H."""
    return 1.0 - gf2_rank(H) / H.cols


# ----------------------------------------------------------------------
# alist I/O (MacKay convention: "ncols nrows" on the first line, 1-based
# adjacency, zero padding for irregular degree lists)
# ----------------------------------------------------------------------

def write_alist(H: BinaryMatrix, path) -> None:
    n, m = H.cols, H.rows
    col_deg = [len(s) for s in H.col_support]
    row_deg = [len(s) for s in H.row_support]
    cmax = max(col_deg, default=0)
    rmax = max(row_deg, default=0)
    lines = [
        f"{n} {m}",
        f"{cmax} {rmax}",
        " ".join(map(str, col_deg)),
        " ".join(map(str, row_deg)),
    ]
    for supports, width in ((H.col_support, cmax), (H.row_support, rmax)):
        lines += [" ".join(map(str, [x + 1 for x in sup] + [0] * (width - len(sup))))
                  for sup in supports]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_alist(path) -> BinaryMatrix:
    """Parse an alist file, rejecting any inconsistency with ValueError.

    The header counts must match the degree lists, no degree may be
    negative, every adjacency line must hold exactly its degree's worth of
    distinct in-range indices (zero padding up to the maximum degree is
    optional), the file must end with the row section, and the column and
    row sections must describe the same edges.
    """
    with open(path) as fh:
        lines = [(no, line.split()) for no, line in enumerate(fh, 1) if line.strip()]
    pos = 0

    def take():
        nonlocal pos
        if pos == len(lines):
            raise ValueError(f"alist ends early, after {pos} non-blank lines")
        no, words = lines[pos]
        pos += 1
        try:
            return no, [int(x) for x in words]
        except ValueError:
            raise ValueError(f"alist line {no}: non-integer entry") from None

    _, dims = take()
    no, maxes = take()
    if len(dims) != 2 or len(maxes) != 2 or min(dims + maxes) < 0:
        raise ValueError("alist header must be 'ncols nrows' then 'cmax rmax'")
    n, m = dims
    # write_alist writes an empty list as a blank line, and blank lines are
    # skipped: an empty degree list or a section of width 0 has no lines
    col_no, col_deg = take() if n else (None, [])
    row_no, row_deg = take() if m else (None, [])
    if len(col_deg) != n or len(row_deg) != m:
        raise ValueError(
            f"alist degree lists hold {len(col_deg)} and {len(row_deg)} "
            f"entries for {n} columns and {m} rows"
        )
    for deg_no, degs in ((col_no, col_deg), (row_no, row_deg)):
        if min(degs, default=0) < 0:
            raise ValueError(f"alist line {deg_no}: negative degree {min(degs)}")
    if maxes != [max(col_deg, default=0), max(row_deg, default=0)]:
        raise ValueError(f"alist line {no}: maximum degrees {maxes} do not "
                         f"match the degree lists")

    def section(degs, width, bound):
        if not width:
            return [[] for _ in degs]
        out = []
        for deg in degs:
            no, adj = take()
            idx = adj[:deg]
            if (
                len(adj) not in (deg, width)
                or any(adj[deg:])
                or len(set(idx)) != deg
                or not all(1 <= x <= bound for x in idx)
            ):
                raise ValueError(
                    f"alist line {no}: expected {deg} distinct indices in "
                    f"1..{bound}, zero-padded to at most {width} entries"
                )
            out.append(idx)
        return out

    cols = section(col_deg, maxes[0], m)
    rows = section(row_deg, maxes[1], n)
    if pos != len(lines):
        raise ValueError(f"alist line {lines[pos][0]}: text after the row section")

    def edges(section):
        """(line, index - 1) arrays of a section's edges."""
        line = np.repeat(np.arange(len(section)),
                         np.fromiter(map(len, section), np.int64, len(section)))
        index = np.fromiter(chain.from_iterable(section), np.int64, len(line))
        return line, index - 1

    c, r = edges(cols)
    H = BinaryMatrix(m, n, np.column_stack((r, c)))
    if H != BinaryMatrix(m, n, np.column_stack(edges(rows))):
        raise ValueError("alist column and row sections describe different edges")
    return H


# ----------------------------------------------------------------------
# shift-sequence serialization
# ----------------------------------------------------------------------

def shifts_to_json(fss: SetSystem, S: ShiftSequence) -> str:
    """Explicit JSON form: one record per incidence, block-major order."""
    recs = [
        {"block": j, "point": i, "s": S.entries[(i, j)]} for i, j in fss.incidences
    ]
    return json.dumps({"m": S.m, "shifts": recs})


def shifts_from_json(fss: SetSystem, text: str) -> ShiftSequence:
    """Parse the form ``shifts_to_json`` writes; other top-level keys, such
    as those of ``fsscode shifts`` output, are ignored.

    Raises ValueError for a missing ``m``, ``shifts`` or record key, a value
    that is not an integer, two records for one (point, block), or records
    that do not cover exactly the incidences of ``fss``.
    """
    doc = json.loads(text) if isinstance(text, (str, bytes, bytearray)) else None
    if not isinstance(doc, dict) or "m" not in doc or "shifts" not in doc:
        raise ValueError("shift JSON must be an object with keys 'm' and 'shifts'")
    if not _is_integer(doc["m"]) or not isinstance(doc["shifts"], list):
        raise ValueError("shift JSON needs an integer 'm' and a list 'shifts'")
    entries = {}
    for n, rec in enumerate(doc["shifts"]):
        if not isinstance(rec, dict) or not rec.keys() >= {"point", "block", "s"}:
            raise ValueError(f"shift record {n} needs keys 'point', 'block' and 's'")
        key = (rec["point"], rec["block"])
        if not all(map(_is_integer, (*key, rec["s"]))):
            raise ValueError(f"shift record {n}: point, block and s must be integers")
        if key in entries:
            raise ValueError(
                f"shift record {n} repeats point {key[0]} of block {key[1]}")
        entries[key] = rec["s"]
    _check_cover(fss, entries)
    return ShiftSequence(m=doc["m"], entries=entries)


def shift_sequence_from_list(fss: SetSystem, m: int, values) -> ShiftSequence:
    """Build a shift sequence from a flat list in block-major incidence order.

    Two layouts are accepted: one value per incidence, or the compressed
    convention in which the first shift of every block is an implicit zero
    (detected by the entry count).  Any other length is rejected, and so
    is a value that is not an integer; each value is taken mod ``m``.
    """
    _integer(m, "modulus", 1)
    values = list(_iterable(values, "values"))
    bad = [x for x in values if not _is_integer(x)]
    if bad:
        raise ValueError(f"shift list values must be integers, got {bad[0]!r}")
    full = len(fss.incidences)
    compressed = full - fss.b
    if len(values) not in (full, compressed):
        raise ValueError(
            f"shift list has {len(values)} entries; expected {full} (explicit) "
            f"or {compressed} (compressed, first shift of each block implicit)"
        )
    implicit = len(values) != full  # the first point of each block gets 0
    it = iter(values)
    entries = {(i, j): 0 if implicit and i == blk[0] else next(it) % m
               for j, blk in enumerate(fss.blocks, start=1) for i in blk}
    return ShiftSequence(m=m, entries=entries)
