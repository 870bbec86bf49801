"""Backtracking search for a shift sequence achieving a target girth.

The shifts are assigned block-major, points ascending within each block,
with the first shift of every block pinned to zero (a code-equivalence
normalization), by ``backtrack``: one chronological backtracking loop
drawing candidates on demand, which ``construct.method2`` shares.
Before the search starts, every closed walk of the mother structure short
enough to threaten the target girth is enumerated once, by the closed-walk
search of ``girth`` that also finds inevitable walks.  Each walk carries
its shift sum as a small integer linear form over the shift variables (a
template), so extending a prefix is a handful of modular evaluations
rather than a graph search.  The residue tables of those
evaluations (forms grouped by the gcd of their own coefficient with the
modulus, with that coefficient inverted) are compiled once per modulus, so
filtering the candidates of a node is one matrix-vector product and one
numpy scatter per group.  Any returned sequence is re-verified against the
Tanner-girth oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from time import perf_counter

import numpy as np

from .setsystem import SetSystem, _integer
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
    (budget ran out before the space was exhausted)."""

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
    """Assigned prefix plus the precomputed template buckets."""

    m: int
    order: list = field(default_factory=list)
    buckets: dict = field(default_factory=dict)
    prefix: list = field(default_factory=list)
    expansions: int = 0
    backtracks: int = 0
    stats: dict = field(default_factory=dict)

    @classmethod
    def create(cls, fss, m, target_girth):
        """Collect the distinct forms of the closed walks shorter than
        ``target_girth``/2, bucketed by the last incidence position they
        touch, and compile them for ``m``.  The target must be even and in
        4..128 (walks of at most 63 steps), and ``m`` in 1..2**28 - 1, below
        which the residue tables are exact (``_compile``).

        ``closed_walks`` visits each walk once per rotation/reversal class
        (rotations and reversal share a form up to sign), so the forms
        dropped here as seen are those of distinct walks.  A form and its
        negation are one template, kept with the sign of the first walk
        that has it.  A balanced walk has the empty form; its bucket is
        the largest position it leaves from, and it forbids every value
        once its incidences exist, which is right when the target exceeds
        the maximum achievable girth.

        ``stats`` records the walks visited, the templates kept, counted by
        the length of the walk that gave each first, and the set-up wall
        time in seconds.
        """
        target_girth = _integer(target_girth, "target girth", 4, even=True,
                                high=2 * _MAX_WALK)
        m = _integer(m, "modulus", 1, high=2**28 - 1)
        start = perf_counter()
        buckets: dict[int, list[list[tuple[int, int]]]] = {}
        seen: set = set()
        walks = 0
        kept: dict[int, int] = {}
        # one shared (position, coefficient) tuple per distinct term: a
        # girth-10 search keeps tens of thousands of forms over a few
        # hundred terms
        terms: dict[tuple[int, int], tuple[int, int]] = {}

        def collect(points, ks, touched, coef):
            nonlocal walks
            walks += 1
            ps = [p for p in sorted(set(touched)) if coef[p]]
            cs = [coef[p] for p in ps]
            # positions, then coefficients, of the form or of its negation,
            # whichever has a negative first coefficient
            key = tuple(ps + cs if not cs or cs[0] < 0 else ps + [-c for c in cs])
            if key not in seen:
                seen.add(key)
                kept[len(ks)] = kept.get(len(ks), 0) + 1
                last = ps[-1] if ps else max(touched[::2])
                buckets.setdefault(last, []).append(
                    [terms.setdefault(t, t) for t in zip(ps, cs)])

        closed_walks(WalkScaffold(fss.blocks), target_girth // 2 - 1, collect)
        seen.clear()  # free the keys before the tables are built
        state = cls(m=m, order=fss.incidences, buckets=buckets)
        state._compile()
        state.stats = {"walks": walks, "templates": dict(sorted(kept.items())),
                       "setup_s": perf_counter() - start}
        return state

    def _compile(self):
        """Residue tables of every bucket for this state's modulus.

        The form ``base + own * s``, with ``base = C @ prefix``, vanishes
        mod m exactly when ``own * s == -base``.  With
        ``d = gcd(own mod m, m)`` that has d solutions ``s0 + k * m/d`` if d
        divides ``base`` and none otherwise, where
        ``s0 = -inv * (base/d) mod m/d`` and ``inv = (own/d)^-1 mod m/d``.
        A form with ``own == 0 mod m`` has d = m and ``inv = 0`` (Python's
        ``pow(0, -1, 1)``), so its one class ``s0 + k`` forbids every value
        exactly when its base is 0 mod m.  The rows of ``C`` are reordered
        into one contiguous group per d, each with its ``-inv`` array.
        A bucket's terms are read once into flat (form, position,
        coefficient) arrays; ``own`` and ``C`` are each one scatter of them.
        ``C`` is float64 so that the product runs
        through BLAS; for m below 2**28 every sum and product here is exact
        in float64 and int64.
        """
        m = self.m
        self._compiled = {}
        for e, forms in self.buckets.items():
            n = len(forms)
            flat = list(chain.from_iterable(forms))
            terms = np.fromiter(chain.from_iterable(flat), dtype=np.int64,
                                count=2 * len(flat)).reshape(-1, 2)
            form_of = np.repeat(np.arange(n), list(map(len, forms)))
            pos, coef = terms[:, 0], terms[:, 1]
            at_e = pos == e
            own = np.zeros(n, dtype=np.int64)
            own[form_of[at_e]] = coef[at_e]
            own %= m
            d = np.gcd(own, m)
            rows = np.argsort(d, kind="stable")
            own, d = own[rows], d[rows]
            row_of = np.empty(n, dtype=np.intp)
            row_of[rows] = np.arange(n)
            C = np.zeros((n, e))
            C[row_of[form_of[~at_e]], pos[~at_e]] = coef[~at_e]
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
        ascending."""
        tables = self._compiled.get(e)
        if tables is None:
            return list(range(self.m))
        m = self.m
        C, groups = tables
        base = (C @ np.asarray(self.prefix[:e], dtype=np.float64)).astype(np.int64)
        ok = np.ones(m, dtype=bool)
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


def backtrack(n, candidates, prefix, budget):
    """Chronological backtracking over positions ``0..n-1``, shared by the
    shift search and ``construct.method2``.

    ``candidates(e)`` returns an iterable of position ``e``'s values (ints)
    in trial order.  It is called each time the search enters ``e`` and is
    drawn from only while ``prefix`` holds positions ``0..e-1``, which
    chronological backtracking guarantees.  The search fills ``prefix`` in
    place and makes at most ``budget`` expansions (values appended).
    Returns ``(status, expansions, backtracks)``: status is ``'ok'`` with
    ``prefix`` complete, ``'infeasible'`` once the first position runs out
    of values, or ``'unknown'`` when the budget stops the search first.
    """
    prefix.clear()
    stack: list = []  # one iterator per position entered
    expansions = backtracks = 0
    while len(prefix) < n:
        if len(stack) == len(prefix):
            stack.append(iter(candidates(len(prefix))))
        value = next(stack[-1], None)
        if value is not None:
            if expansions == budget:
                return "unknown", expansions, backtracks
            prefix.append(value)
            expansions += 1
        else:
            stack.pop()
            if not prefix:
                return "infeasible", expansions, backtracks
            prefix.pop()
            backtracks += 1
    return "ok", expansions, backtracks


def search_shifts(
    fss: SetSystem,
    m: int,
    target_girth: int,
    policy: SearchPolicy | None = None,
) -> SearchResult:
    """Find a shift sequence of order ``m`` whose expansion has Tanner girth
    at least ``target_girth``, or prove none exists for this modulus.
    ``ShiftSearchState.create`` checks both."""
    policy = policy or SearchPolicy()
    state = ShiftSearchState.create(fss, m, target_girth)
    # the first incidence of every block
    pinned = {e for e, (i, j) in enumerate(state.order) if i == fss.blocks[j - 1][0]}

    def candidates(e):
        cands = state.allowed_values(e)
        if e in pinned:
            return [0] if 0 in cands else []
        if rng is not None:
            rng.shuffle(cands)
        return cands

    # geometric restarts tame the heavy-tailed runtime distribution of
    # chronological backtracking; seeds advance deterministically.  Ascending
    # order is deterministic, so its first pass gets the whole budget and a
    # second would only repeat it
    shuffled = policy.order == "random"
    tranche = 2_000 if shuffled else policy.budget
    status, restarts = "unknown", -1
    while status == "unknown" and state.expansions < policy.budget:
        restarts += 1
        rng = random.Random(policy.seed * 1_000_003 + restarts) if shuffled else None
        status, spent, undone = backtrack(
            len(state.order), candidates, state.prefix,
            min(tranche, policy.budget - state.expansions))
        state.expansions += spent
        state.backtracks += undone
        if (restarts + 1) % 3 == 0:
            tranche *= 2
    counts = dict(expansions=state.expansions, backtracks=state.backtracks,
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
