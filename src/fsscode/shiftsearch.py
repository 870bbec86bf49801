"""Backtracking search for a shift sequence achieving a target girth.

The shifts are assigned block-major, points ascending within each block,
with the first shift of every block pinned to zero (a code-equivalence
normalization).  Before the search starts, every closed-walk template of the
mother structure short enough to threaten the target girth is enumerated
once; each template reduces to a small integer linear form over the shift
variables, so extending a prefix is a handful of modular evaluations rather
than a graph search.  Any returned sequence is re-verified against the
Tanner-girth oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

from .setsystem import SetSystem
from .qc import ShiftSequence, assemble, expand
from .girth import tanner_girth

__all__ = [
    "SearchPolicy",
    "SearchResult",
    "ShiftSearchState",
    "search_shifts",
    "check_extension",
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
        if self.budget <= 0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class SearchResult:
    """status is 'ok', 'infeasible' (search space exhausted) or 'unknown'
    (budget ran out before the space was exhausted)."""

    status: str
    shifts: ShiftSequence | None = None
    expansions: int = 0
    verified_girth: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _assignment_order(fss: SetSystem):
    """Incidence positions in block-major, point-ascending order, plus a map
    from (point, block) to position."""
    order = fss.incidences
    pos = {inc: e for e, inc in enumerate(order)}
    return order, pos


def _enumerate_templates(fss: SetSystem, max_len: int, pos):
    """All closed-walk templates of length <= max_len, reduced to linear
    forms and bucketed by the last incidence position they touch.

    A template with an identically-zero form is a balanced (inevitable)
    walk; its bucket entry has an empty coefficient list and poisons every
    candidate once all its incidences exist, which is the correct behaviour
    when the target exceeds the maximum achievable girth.
    """
    blocks = list(fss.blocks)
    point_blocks: dict[int, list[int]] = {}
    for j, blk in enumerate(blocks, start=1):
        for x in blk:
            point_blocks.setdefault(x, []).append(j)

    buckets: dict[int, list[list[tuple[int, int]]]] = {}
    seen_forms: set = set()

    def emit(points, ks):
        coeffs: dict[int, int] = {}
        L = len(points)
        for j in range(L):
            u, w, k = points[j], points[(j + 1) % L], ks[j]
            coeffs[pos[(u, k)]] = coeffs.get(pos[(u, k)], 0) - 1
            coeffs[pos[(w, k)]] = coeffs.get(pos[(w, k)], 0) + 1
        form = sorted((p, c) for p, c in coeffs.items() if c)
        # rotations and reversals of one cycle yield the same form up to sign
        key = min(tuple(form), tuple((p, -c) for p, c in form))
        if key in seen_forms:
            return
        seen_forms.add(key)
        last = form[-1][0] if form else max(pos[(points[j], ks[j])] for j in range(L))
        buckets.setdefault(last, []).append(form)

    def dfs(points, ks, i1, k1):
        u = points[-1]
        depth = len(ks)
        if depth >= 2 and u == i1 and ks[-1] != k1:
            emit(points[:-1], ks)
        if depth == max_len:
            return
        for k in point_blocks.get(u, ()):
            if k == ks[-1]:
                continue
            for w in blocks[k - 1]:
                if w == u or w < i1:
                    continue
                points.append(w)
                ks.append(k)
                dfs(points, ks, i1, k1)
                points.pop()
                ks.pop()

    for i1 in sorted(point_blocks):
        for k1 in point_blocks[i1]:
            for i2 in blocks[k1 - 1]:
                if i2 == i1 or i2 < i1:
                    continue
                dfs([i1, i2], [k1], i1, k1)
    return buckets


@dataclass
class ShiftSearchState:
    """Assigned prefix plus the precomputed template buckets."""

    fss: SetSystem
    m: int
    target_girth: int
    order: list = field(default_factory=list)
    pos: dict = field(default_factory=dict)
    buckets: dict = field(default_factory=dict)
    prefix: list = field(default_factory=list)
    expansions: int = 0
    backtracks: int = 0

    @classmethod
    def create(cls, fss, m, target_girth):
        order, pos = _assignment_order(fss)
        buckets = _enumerate_templates(fss, target_girth // 2 - 1, pos)
        state = cls(fss=fss, m=m, target_girth=target_girth,
                    order=order, pos=pos, buckets=buckets)
        state._compile()
        return state

    def _compile(self):
        """Split each bucket into numpy arrays for batch evaluation: one
        coefficient matrix over the earlier positions plus the coefficient
        of the bucket's own position."""
        import numpy as np

        self._compiled = {}
        for e, forms in self.buckets.items():
            C = np.zeros((len(forms), e), dtype=np.int64)
            own = np.zeros(len(forms), dtype=np.int64)
            for r, form in enumerate(forms):
                for p, c in form:
                    if p == e:
                        own[r] = c
                    else:
                        C[r, p] = c
            self._compiled[e] = (C, own)

    def allowed_values(self, e):
        """Candidate shifts for position ``e`` given the current prefix."""
        import numpy as np

        if e not in self.buckets:
            return list(range(self.m))
        m = self.m
        C, own = self._compiled[e]
        base = (C @ np.asarray(self.prefix[:e], dtype=np.int64)) % m
        ok = np.ones(m, dtype=bool)
        # forms whose own coefficient vanishes mod m constrain nothing
        # unless their base is already zero, which kills every value
        dead = own % m == 0
        if np.any(base[dead] == 0):
            return []
        for r in np.nonzero(~dead)[0]:
            c = int(own[r]) % m
            d = gcd(c, m)
            rhs = int(-base[r]) % m
            if rhs % d:
                continue
            md = m // d
            s0 = (pow(c // d, -1, md) * ((rhs // d) % md)) % md
            ok[s0::md] = False
        return [int(s) for s in np.nonzero(ok)[0]]


def check_extension(state: ShiftSearchState, s: int) -> bool:
    """True iff assigning ``s`` to the next incidence closes no cycle
    shorter than the target among fully-determined walk templates."""
    e = len(state.prefix)
    state.prefix.append(s)
    try:
        for form in state.buckets.get(e, ()):
            total = sum(c * state.prefix[p] for p, c in form)
            if total % state.m == 0:
                return False
            if not form:
                return False
        return True
    finally:
        state.prefix.pop()


def _run(state: ShiftSearchState, pinned, rng, budget) -> str:
    """One backtracking pass; returns 'ok', 'infeasible' or 'budget'.

    ``rng`` of None means ascending candidate order.  The pass stops after
    ``budget`` further expansions.
    """
    state.prefix.clear()
    stacks: list[list[int]] = []
    spent = 0
    e = 0
    while e < len(state.order):
        if len(stacks) == e:
            cands = state.allowed_values(e)
            if e in pinned:
                cands = [0] if 0 in cands else []
            elif rng is not None:
                rng.shuffle(cands)
            stacks.append(cands)
        if stacks[e]:
            if spent >= budget:
                return "budget"
            s = stacks[e].pop(0)
            state.expansions += 1
            spent += 1
            state.prefix.append(s)
            e += 1
        else:
            stacks.pop()
            if e == 0:
                return "infeasible"
            e -= 1
            state.prefix.pop()
            state.backtracks += 1

    return "ok"


def search_shifts(
    fss: SetSystem,
    m: int,
    target_girth: int,
    policy: SearchPolicy | None = None,
    verify: bool = True,
) -> SearchResult:
    """Find a shift sequence of order ``m`` whose expansion has Tanner girth
    at least ``target_girth``, or prove none exists for this modulus."""
    if target_girth % 2 or target_girth < 4:
        raise ValueError("target girth must be even and >= 4")
    if m < 1:
        raise ValueError("modulus must be >= 1")
    policy = policy or SearchPolicy()
    state = ShiftSearchState.create(fss, m, target_girth)
    pinned = set()
    seen_blocks = set()
    for e, (_, j) in enumerate(state.order):
        if j not in seen_blocks:
            seen_blocks.add(j)
            pinned.add(e)

    if policy.order == "ascending":
        status = _run(state, pinned, None, policy.budget)
    else:
        # geometric restarts tame the heavy-tailed runtime distribution of
        # chronological backtracking; seeds advance deterministically
        status = "unknown"
        tranche = 2_000
        restart = 0
        while state.expansions < policy.budget:
            rng = random.Random(policy.seed * 1_000_003 + restart)
            left = policy.budget - state.expansions
            status = _run(state, pinned, rng, min(tranche, left))
            if status in ("ok", "infeasible"):
                break
            restart += 1
            if restart % 3 == 0:
                tranche *= 2
    if status == "infeasible":
        return SearchResult(status="infeasible", expansions=state.expansions)
    if status != "ok":
        return SearchResult(status="unknown", expansions=state.expansions)

    shifts = ShiftSequence(
        m=m, entries={inc: state.prefix[i] for i, inc in enumerate(state.order)}
    )
    verified = None
    if verify:
        report = tanner_girth(
            expand(assemble(fss, shifts)), cap=max(target_girth, 4), circulant=m
        )
        verified = report.girth
        if verified is not None and verified < target_girth:
            raise RuntimeError(
                f"internal check failed: oracle girth {verified} < {target_girth}"
            )
    return SearchResult(
        status="ok",
        shifts=shifts,
        expansions=state.expansions,
        verified_girth=verified,
    )
