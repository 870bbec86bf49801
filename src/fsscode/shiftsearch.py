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
modulus, with that coefficient inverted) are compiled once per modulus, so
filtering the candidates of a node is one column update of its parent's
partial sum, kept per bucket, and one numpy scatter per group.  Any
returned sequence is re-verified against the Tanner-girth oracle.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from itertools import count
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
    # template set-up, as ``ShiftSearchState.stats``; timings never compare
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
        residue tables are exact below 2**28 (``_compile``).

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
        exactly when its base is 0 mod m.  A bucket e's forms, in template
        order, are reordered into one contiguous group per d, each with its
        ``-inv`` array; ``own`` is their column e of ``forms`` and ``C``
        their columns before e.  ``C`` is float64 so that the product runs
        through BLAS, and column-major so that its last column, the one a
        sibling adds, is contiguous; for m below 2**28 every sum and product
        here is exact in float64 and int64.  ``_partials`` and ``_mask`` are
        the filter's scratch, reset here.
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
            own = self.forms[rows, e].astype(np.int64) % m
            d = np.gcd(own, m)
            by_d = np.argsort(d, kind="stable")
            rows, own, d = rows[by_d], own[by_d], d[by_d]
            C = np.asfortranarray(self.forms[rows, :e], dtype=np.float64)
            groups = []
            for g in sorted(set(d.tolist())):
                lo, hi = np.searchsorted(d, [g, g + 1]).tolist()
                md = m // g
                units, which = np.unique(own[lo:hi] // g, return_inverse=True)
                neg_inv = np.array([-pow(c, -1, md) for c in units.tolist()],
                                   dtype=np.int64)
                groups.append((g, lo, hi, neg_inv[which]))
            self._compiled[e] = (C, groups)

    def allowed_values(self, e):
        """Candidate shifts for position ``e`` given the current prefix,
        ascending.  Siblings (calls at ``e`` that differ only in
        ``prefix[e-1]``) share the partial sum ``C[:, :e-1] @ prefix[:e-1]``,
        kept per bucket and keyed by those values, so each adds one column;
        the list returned is new, the mask behind it reused."""
        tables = self._compiled.get(e)
        if tables is None:
            return list(range(self.m))
        m, prefix = self.m, self.prefix
        C, groups = tables
        key, partial = self._partials.get(e, (None, None))
        if key != prefix[:e - 1]:
            key = prefix[:e - 1]
            partial = C[:, :e - 1] @ np.asarray(key, dtype=np.float64)
            self._partials[e] = key, partial
        base = (partial + C[:, e - 1] * prefix[e - 1]).astype(np.int64)
        ok = self._mask
        ok.fill(True)
        for d, lo, hi, neg_inv in groups:
            b = base[lo:hi]
            if d == 1:
                ok[neg_inv * b % m] = False
                continue
            hit = b % d == 0
            md = m // d
            s0 = neg_inv[hit] * (b[hit] // d) % md
            ok[(s0[:, None] + np.arange(0, m, md)).ravel()] = False
        return np.flatnonzero(ok).tolist()


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

    def candidates(e, rng):
        cands = state.allowed_values(e)
        if e in pinned:
            return [0] if 0 in cands else []
        if rng is not None:
            rng.shuffle(cands)
        return cands

    # perfbench's traced run reads backtracks off the state it created
    status, expansions, state.backtracks, restarts = backtrack(
        len(state.order), candidates, state.prefix, policy)
    counts = dict(expansions=expansions, backtracks=state.backtracks,
                  restarts=restarts, stats=state.stats)
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
