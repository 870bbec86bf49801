"""Backtracking search for a shift sequence achieving a target girth.

The shifts are assigned block-major, points ascending within each block,
with the first shift of every block pinned to zero (a code-equivalence
normalization), by ``backtrack``, the search driver that
``construct.method2`` shares: chronological backtracking that draws
candidates on demand and, in random order, restarts on a seeded schedule.
Before the search starts, every closed walk of the mother structure short
enough to threaten the target girth is enumerated once, by the closed-walk
search of ``girth`` that also finds inevitable walks.  Each walk carries
its shift sum as a small integer linear form over the shift variables (a
template), so extending a prefix is a handful of modular evaluations
rather than a graph search.  The residue tables of those
evaluations (forms grouped by the gcd of their own coefficient with the
modulus, with that coefficient inverted) are compiled once per modulus.  A
form whose own coefficient is a unit forbids one value, ``(R + q * s) mod
m``, where R is fixed by the parent and q by the form, and a bucket holds
few distinct q.  So when the parent changes, each bucket scatters its R
into one circular mask per q; a sibling then reads one rotated slice of
each, and only the other gcd groups run per form.  Any returned sequence is
re-verified against the Tanner-girth oracle.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from itertools import count
from math import gcd
from time import perf_counter

import numpy as np

from .setsystem import _MAX_DIM, SetSystem, _integer, _or_default
from .qc import ShiftSequence, assemble, expand
from .girth import _MAX_WALK, WalkScaffold, closed_walks, tanner_girth

__all__ = [
    "SearchPolicy",
    "SearchResult",
    "ShiftSearchState",
    "search_shifts",
]


@dataclass(frozen=True)
class SearchPolicy:
    """Candidate ordering and effort limits for the backtracking searches."""

    order: str = "ascending"          # "ascending" | "random"
    budget: int = 10_000_000          # max candidate assignments tried
    seed: int = 0

    def __post_init__(self):
        if self.order not in ("ascending", "random"):
            raise ValueError(f"unknown order {self.order!r}")
        # kept as Python ints: random.Random takes no numpy integer seed
        object.__setattr__(self, "budget", _integer(self.budget, "budget", 1))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))


@dataclass(frozen=True)
class SearchResult:
    """status is 'ok', 'infeasible' (search space exhausted) or 'unknown'
    (budget ran out before the space was exhausted).  ``verified_girth`` is
    the oracle's Tanner girth of the shifts' expansion, checked up to the
    target girth only: None without shifts or when it is above the target."""

    status: str
    shifts: ShiftSequence | None = None
    expansions: int = 0
    verified_girth: int | None = None
    backtracks: int = 0
    restarts: int = 0       # passes run after the first (ascending order runs one)
    # template set-up, as ``ShiftSearchState.stats``, plus the filter's
    # ``filter_calls`` and the ``candidates`` they returned; never compared
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ShiftSearchState:
    """Assigned prefix plus the int8 template ``forms`` and their ``ends``."""

    m: int
    order: list
    forms: np.ndarray = field(repr=False, compare=False)
    ends: np.ndarray = field(repr=False, compare=False)
    prefix: list = field(default_factory=list)
    backtracks: int = 0
    stats: dict = field(default_factory=dict)

    @classmethod
    def create(cls, fss, m, target_girth):
        """Collect the distinct forms of the closed walks shorter than
        ``target_girth``/2, bucketed by the last incidence position they
        touch, and compile them for ``m``.  The target must be even and in
        4..128 (walks of at most 63 steps), and ``m`` in 1..2**24 // max(v,
        b), so that the oracle's expansion fits a ``BinaryMatrix``; the
        residue tables are exact under that bound (``_compile``).

        Each walk is recorded as the positions its steps leave and reach,
        padded with the sentinel E = ``len(order)``, and scattered into a
        (walks, E + 1) int8 matrix, one add per step column (``_MAX_WALK``
        keeps coefficients within +-63).  ``closed_walks`` visits each walk
        once per rotation/reversal class, whose members share a form up to
        sign, so a repeated row is the form of a distinct walk.  A form and
        its negation are one template: rows are compared with their first
        nonzero coefficient negative, and the first of each is kept, in
        walk order, with its own sign.  A balanced walk has the empty form,
        which vanishes for every assignment, so it can sit in any bucket:
        it sits in bucket 1, the first the filter reads, and forbids every
        value there.  That is right, since the target then exceeds the
        maximum achievable girth, and the search ends ``infeasible`` after
        one expansion.

        ``stats`` records the walks visited, the templates kept, counted by
        the length of the walk that gave each first, and wall times in
        seconds: ``walks_s`` of the walk search, ``compile_s`` of
        ``_compile`` and ``setup_s`` of the whole.
        """
        target_girth = _integer(target_girth, "target girth", 4, even=True,
                                high=2 * _MAX_WALK)
        m = _integer(m, "modulus", 1, high=_MAX_DIM // max(fss.v, fss.b))
        start = perf_counter()
        sc = WalkScaffold(fss.blocks)
        E, width = sc.size, target_girth - 2
        raw, pad = array("i"), [E] * width

        def record(points, ks, touched, coef):
            raw.extend(touched)
            raw.extend(pad[len(touched):])

        closed_walks(sc, width // 2, record)
        walks_s = perf_counter() - start
        steps = np.asarray(raw).reshape(-1, width)
        K = np.zeros((len(steps), E + 1), dtype=np.int8)
        walk = np.arange(len(steps))
        for j in range(width):  # leave -1, arrive +1; padding nets 0 at E
            K[walk, steps[:, j]] += 1 if j % 2 else -1
        flip = K[walk, (K != 0).argmax(axis=1)] > 0
        np.negative(K, out=K, where=flip[:, None])
        keys = K.view(np.dtype((np.void, E + 1))).ravel()
        first = np.sort(np.unique(keys, return_index=True)[1])
        forms, steps = K[first, :E], steps[first]
        np.negative(forms, out=forms, where=flip[first, None])
        # the last position of the form; an empty one vanishes anywhere
        last = E - 1 - (forms[:, ::-1] != 0).argmax(axis=1)
        ends = np.where(forms.any(axis=1), last, 1)
        lengths, kept = np.unique((steps < E).sum(axis=1) // 2, return_counts=True)
        state = cls(m=m, order=fss.incidences, forms=forms, ends=ends)
        compiled = perf_counter()
        state._compile()
        state.stats = {"walks": len(walk),
                       "templates": dict(zip(lengths.tolist(), kept.tolist())),
                       "walks_s": walks_s, "compile_s": perf_counter() - compiled,
                       "setup_s": perf_counter() - start}
        return state

    @property
    def buckets(self):
        """The templates as ``{bucket: [form, ...]}``, each form a list of
        its (position, coefficient) pairs in position order: a view of
        ``forms`` and ``ends``, built on each access."""
        rows, cols = np.nonzero(self.forms)
        pairs = list(zip(cols.tolist(), self.forms[rows, cols].tolist()))
        cuts = np.cumsum(np.count_nonzero(self.forms, axis=1)).tolist()
        out: dict[int, list] = {}
        for e, a, b in zip(self.ends.tolist(), [0] + cuts, cuts):
            out.setdefault(e, []).append(pairs[a:b])
        return out

    def _compile(self):
        """Residue tables of every bucket for this state's modulus.

        The form ``base + own * s``, with ``base = C @ prefix``, vanishes
        mod m exactly when ``own * s == -base``.  With
        ``d = gcd(own mod m, m)`` that has d solutions ``s0 + k * m/d`` if d
        divides ``base`` and none otherwise, where
        ``s0 = -inv * (base/d) mod m/d`` and ``inv = (own/d)^-1 mod m/d``.
        A form with ``own == 0 mod m`` has d = m and ``inv = 0`` (Python's
        ``pow(0, -1, 1)``), so its one class ``s0 + k`` forbids every value
        exactly when its base is 0 mod m.  ``own`` is a bucket e's column e
        of ``forms`` and ``C`` its columns before e.

        For d = 1 the one forbidden value is ``-inv * base mod m``, that is
        ``(R + q * s) mod m`` for ``s = prefix[e-1]``: ``R = -inv * partial
        mod m``, with ``partial`` the form's sum before e-1, is fixed by the
        parent, and ``q = -inv * c mod m``, with c its coefficient at e-1,
        by the form.  A bucket has few distinct q (1-5 on ten triples), so
        its d = 1 rows come first, sorted by q into classes, and ``C`` holds
        them multiplied by ``-inv`` (the representative nearest 0): one
        mat-vec per parent gives R for them and the raw partial sums of the
        rest.  Each class owns one row of a doubled ``(classes, 2m)`` bool
        mask ``D``, False in both halves at its forms' residues R, so the
        values the class allows at sibling s are the slice
        ``D[j, m - q*s % m : 2m - q*s % m]``.  The d > 1 rows follow, one
        contiguous group per d.  Rows keep template order within a class and
        a group.  A bucket's tables are ``(C, qs, bounds, D, groups)``: the
        classes' q, their row bounds (``bounds[-1]`` d = 1 rows in all), the
        mask, and one ``(d, lo, hi, -inv)`` entry per d > 1 group, its rows
        counted from ``bounds[-1]``.

        ``C`` is float64 so that the product runs through BLAS, and
        column-major so that the column a sibling reads is contiguous.  A
        form's coefficients sum to at most 126 in size (two per step of a
        walk of at most 63), each scaled by at most m/2, and the prefix is
        below m, so every partial sum is below ``63 * m**2`` in size.  A
        closed walk visits two points and two blocks at least, so
        ``create``'s bound gives m <= 2**23 wherever a template exists, and
        every sum is below 2**52: exact in float64 and in its int64
        conversion.  ``_partials`` and ``_mask`` are the filter's scratch,
        reset here.
        """
        m = self.m
        # a form spans two positions and an empty one sits in bucket 1, so
        # every bucket has e >= 1: ``allowed_values`` reads column e-1
        assert (self.ends >= 1).all()
        self._compiled, self._partials = {}, {}
        self._mask = np.empty(m, dtype=bool)
        by_end = np.argsort(self.ends, kind="stable")
        ends, cuts = np.unique(self.ends[by_end], return_index=True)
        for e, rows in zip(ends.tolist(), np.split(by_end, cuts[1:])):
            # d and -inv per distinct own coefficient, then per row; d = 1
            # takes the -inv nearest 0, as it scales C
            coefs, which = np.unique(self.forms[rows, e], return_inverse=True)
            d, neg_inv = [], []
            for c in coefs.tolist():
                g = gcd(c % m, m)
                md = m // g
                x = -pow(c % m // g, -1, md)
                d.append(g)
                neg_inv.append(x + md if g == 1 and 2 * x < -md else x)
            d, neg_inv = np.array(d)[which], np.array(neg_inv)[which]
            # sort key: q for d = 1 rows, m + d after them; stable, so
            # template order holds within a class and within a group
            key = np.where(d == 1, neg_inv * self.forms[rows, e - 1] % m, m + d)
            by_key = np.argsort(key, kind="stable")
            rows, key, neg_inv = rows[by_key], key[by_key], neg_inv[by_key]
            ones = int(np.searchsorted(key, m))
            C = np.asfortranarray(self.forms[rows, :e], dtype=np.float64)
            C[:ones] *= neg_inv[:ones, None]
            qs, starts = np.unique(key[:ones], return_index=True)
            D = np.zeros((len(qs), 2 * m), dtype=bool)
            d, neg_inv = key[ones:] - m, neg_inv[ones:]
            groups = []
            for g in sorted(set(d.tolist())):
                lo, hi = np.searchsorted(d, [g, g + 1]).tolist()
                groups.append((g, lo, hi, neg_inv[lo:hi]))
            self._compiled[e] = (C, qs.tolist(), starts.tolist() + [ones], D,
                                 groups)

    def allowed_values(self, e):
        """Candidate shifts for position ``e`` given the current prefix,
        ascending.  Siblings (calls at ``e`` that differ only in
        ``prefix[e-1]``) share the partial sum ``C[:, :e-1] @ prefix[:e-1]``,
        kept per bucket and keyed by those values, and the class masks
        filled from it, so a sibling ANDs one rotated slice per class (the
        values no form of the class forbids) and runs the d > 1 groups over
        their own rows only.  The list returned is new, the masks behind it
        reused."""
        tables = self._compiled.get(e)
        if tables is None:
            return list(range(self.m))
        m, prefix = self.m, self.prefix
        C, qs, bounds, D, groups = tables
        ones = bounds[-1]
        key, partial = self._partials.get(e, (None, None))
        if key != prefix[:e - 1]:
            key = prefix[:e - 1]
            partial = C[:, :e - 1] @ np.asarray(key, dtype=np.float64)
            self._partials[e] = key, partial
            R = partial[:ones].astype(np.intp) % m
            D.fill(True)
            for j in range(len(qs)):
                D[j, R[bounds[j]:bounds[j + 1]]] = False
            D[:, m:] = D[:, :m]
        s = prefix[e - 1]
        ok = self._mask
        ok.fill(True)
        for j, q in enumerate(qs):
            t = q * s % m
            ok &= D[j, m - t:2 * m - t]
        if groups:
            base = (partial[ones:] + C[ones:, e - 1] * s).astype(np.int64)
        for d, lo, hi, neg_inv in groups:
            b = base[lo:hi]
            hit = b % d == 0
            md = m // d
            s0 = neg_inv[hit] * (b[hit] // d) % md
            ok[(s0[:, None] + np.arange(0, m, md)).ravel()] = False
        return ok.nonzero()[0].tolist()


def backtrack(n, candidates, prefix, policy):
    """Chronological backtracking over positions ``0..n-1``, the search
    driver of the shift search and ``construct.method2``.

    ``candidates(e, rng)`` returns position ``e``'s values (ints) in trial
    order.  It is called on each entry to ``e`` and drawn from only while
    ``prefix`` holds positions ``0..e-1``.  The search fills ``prefix`` in
    place and makes at most ``policy.budget`` expansions (values appended)
    in all.  Ascending order runs one pass, with ``rng=None``.  Random order
    restarts from an empty prefix each time a pass spends its tranche, the
    remedy for backtracking's heavy tail (Luby, Sinclair and Zuckerman, IPL
    1993): pass p gets ``rng = random.Random(seed * 1_000_003 + p)`` and
    2,000 expansions, doubled every third pass.  Returns ``(status,
    expansions, backtracks, restarts)``: 'ok' with ``prefix`` complete,
    'infeasible' once the first position runs out of values, or 'unknown'
    when the budget stops the search first; restarts are the later passes.
    """
    shuffled = policy.order == "random"
    tranche = 2_000 if shuffled else policy.budget
    expansions = backtracks = 0
    for restarts in count():
        rng = random.Random(policy.seed * 1_000_003 + restarts) if shuffled else None
        stop = min(expansions + tranche, policy.budget)
        prefix.clear()
        stack: list = []  # one iterator per position entered
        while len(prefix) < n:
            if len(stack) == len(prefix):
                stack.append(iter(candidates(len(prefix), rng)))
            value = next(stack[-1], None)
            if value is None:
                stack.pop()
                if not prefix:
                    return "infeasible", expansions, backtracks, restarts
                prefix.pop()
                backtracks += 1
            elif expansions == stop:
                break
            else:
                prefix.append(value)
                expansions += 1
        else:
            return "ok", expansions, backtracks, restarts
        if expansions == policy.budget:
            return "unknown", expansions, backtracks, restarts
        if restarts % 3 == 2:
            tranche *= 2


def search_shifts(
    fss: SetSystem,
    m: int,
    target_girth: int,
    policy: SearchPolicy | None = None,
) -> SearchResult:
    """Find a shift sequence of order ``m`` whose expansion has Tanner girth
    at least ``target_girth``, or prove none exists for this modulus.
    ``ShiftSearchState.create`` checks both, before any search, and bounds
    ``m`` so that the expansion the oracle verifies fits a ``BinaryMatrix``."""
    policy = _or_default(policy, SearchPolicy, "policy")
    state = ShiftSearchState.create(fss, m, target_girth)
    # the first incidence of every block
    pinned = {e for e, (i, j) in enumerate(state.order) if i == fss.blocks[j - 1][0]}
    filtered = [0, 0]  # filter calls, and the candidates they returned

    def candidates(e, rng):
        cands = state.allowed_values(e)
        filtered[0] += 1
        filtered[1] += len(cands)
        if e in pinned:
            return [0] if 0 in cands else []
        if rng is not None:
            rng.shuffle(cands)
        return cands

    # perfbench's traced run reads backtracks off the state it created
    status, expansions, state.backtracks, restarts = backtrack(
        len(state.order), candidates, state.prefix, policy)
    stats = dict(state.stats, filter_calls=filtered[0], candidates=filtered[1])
    counts = dict(expansions=expansions, backtracks=state.backtracks,
                  restarts=restarts, stats=stats)
    if status != "ok":
        return SearchResult(status=status, **counts)

    shifts = ShiftSequence(
        m=m, entries={inc: state.prefix[i] for i, inc in enumerate(state.order)}
    )
    report = tanner_girth(expand(assemble(fss, shifts)), cap=target_girth)
    if report.girth is not None and report.girth < target_girth:
        raise RuntimeError(
            f"internal check failed: oracle girth {report.girth} < {target_girth}"
        )
    return SearchResult(status="ok", shifts=shifts, verified_girth=report.girth,
                        **counts)
