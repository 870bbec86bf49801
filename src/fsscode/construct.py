"""Constructions of set systems with prescribed maximum achievable girth.

Two routes are provided.  ``method1`` lifts a small primitive system through
a circulant expansion and reads the result back as a new, larger system; the
lifted Tanner girth multiplies up, so a few rounds reach large girths.
``method2`` grows a system point-by-point under a prescribed block-size
profile, accepting a point only when no balanced closed walk shorter than
the target appears, with the chronological backtracking loop
``shiftsearch.backtrack`` that the shift search also runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import accumulate
from math import ceil
from time import perf_counter

from .setsystem import (_MAX_POINTS, SetSystem, _integer, _iterable,
                        _or_default, validate_fss)
from .girth import (_MAX_WALK, GirthReport, WalkScaffold, inevitable_girth,
                    min_edge_walk)
from .qc import ShiftSequence, _lift, assemble
from .shiftsearch import SearchPolicy, backtrack, search_shifts

__all__ = [
    "ConstructionError",
    "ConstructionResult",
    "WeightProfile",
    "method1_lift",
    "method1",
    "method2",
]


class ConstructionError(RuntimeError):
    """Raised when a construction cannot reach its target."""


@dataclass(frozen=True)
class WeightProfile:
    """Ordered target block sizes [k_1..k_b], each an integer of at least
    2, stored as a tuple of ints."""

    K: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "K", tuple(
            _integer(k, "block size", 2) for k in _iterable(self.K, "K")))
        if not self.K:
            raise ValueError("weight profile must be nonempty")


@dataclass(frozen=True)
class ConstructionResult:
    """status is 'ok', 'infeasible' or 'unknown' (budget exhausted).

    ``method2`` fills ``stats``: its walk queries, the points they
    accepted and their wall time in seconds (``walk_s``).  Timings never
    compare."""

    status: str
    system: SetSystem | None = None
    report: GirthReport | None = None
    expansions: int = 0
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def method1_lift(primitive: SetSystem, S: ShiftSequence) -> SetSystem:
    """Read the circulant expansion of ``primitive`` by ``S`` back as a set
    system: the untransposed expansion (one row group per point, one column
    group per block, m = ``S.m``) is read as an incidence pattern whose
    columns are the new blocks, so v*m points and b*m blocks of the old sizes.
    """
    H = _lift(assemble(primitive, S))
    blocks = [[r + 1 for r in sup] for sup in H.col_support]
    return validate_fss(H.rows, blocks, primitive.t)


def method1(
    primitive: SetSystem,
    target_g: int,
    m_schedule,
    policy: SearchPolicy | None = None,
) -> ConstructionResult:
    """Iterated lifting: at each round, find shifts whose expansion has the
    best feasible Tanner girth, lift, and re-verify the new system's maximum
    achievable girth; stop once it reaches ``target_g``.

    The lifted girth triples under the re-reading, so a round is only worth
    taking when the primitive admits a lifted girth of at least
    2*ceil(target_g/6); a primitive below that bound is rejected up front.

    A round tries lower lifted girths down to that bound, so its last
    search decides: status 'infeasible' when even the bound has no shift
    sequence of order m, 'unknown' when ``policy.budget``, shared by every
    search of the run, ran out first.
    """
    target_g = _integer(target_g, "target girth", 6, even=True,
                        high=2 * _MAX_WALK)
    m_schedule = _iterable(m_schedule, "m_schedule")
    policy = _or_default(policy, SearchPolicy, "policy")
    cap = target_g // 2
    current = primitive
    report = inevitable_girth(current, cap=cap)
    needed = 2 * ceil(target_g / 6)
    total_exp = 0
    for m in m_schedule:
        if report.unbounded or report.girth >= target_g:
            break
        if report.girth < needed:
            raise ConstructionError(
                f"maximum achievable girth {report.girth} is below the "
                f"required intermediate girth {needed}"
            )
        for g_try in range(report.girth, needed - 2, -2):
            if total_exp == policy.budget:  # spent: lower targets stay open
                return ConstructionResult(status="unknown", expansions=total_exp)
            res = search_shifts(current, m, g_try, policy=replace(
                policy, budget=policy.budget - total_exp))
            total_exp += res.expansions
            if res.status != "infeasible":
                break
        if not res.ok:
            return ConstructionResult(status=res.status, expansions=total_exp)
        current = method1_lift(current, res.shifts)
        report = inevitable_girth(current, cap=cap)
    if not report.unbounded and report.girth < target_g:
        raise ConstructionError(
            f"schedule exhausted at achievable girth {report.girth} "
            f"< target {target_g}"
        )
    return ConstructionResult(
        status="ok", system=current, report=report, expansions=total_exp
    )


def method2(
    v: int,
    profile: WeightProfile,
    target_g: int,
    policy: SearchPolicy | None = None,
) -> ConstructionResult:
    """Grow a system on points 1..v matching ``profile`` block by block,
    point by point, so that no balanced closed walk shorter than
    ``target_g``/2 ever forms; chronological backtracking on dead ends.

    Returns status 'infeasible' when the search space is exhausted and
    'unknown' when the expansion budget runs out first.  A returned system
    is re-checked by ``inevitable_girth`` over the whole system: the same
    ``closed_walks`` engine that the per-step queries use, run once more
    from every start rather than through the new steps only.  A per-step
    query asks only whether a short balanced walk exists, in passes of six
    steps or more (``min_edge_walk(..., shortest=False)``), so the verdicts,
    and with them the search path, are those of a shortest-walk query.
    Each block builds one ``WalkScaffold`` of the placed points when the
    search enters its second slot, and its candidate lists grow it: each
    candidate is pushed onto the last block for its query (``_accepts``)
    and popped off once rejected, or, once accepted, when the search draws
    the list's next candidate.
    """
    target_g = _integer(target_g, "target girth", 6, even=True,
                        high=2 * _MAX_WALK)
    v = _integer(v, "v", high=_MAX_POINTS)
    if not isinstance(profile, WeightProfile):
        raise ValueError(f"profile must be a WeightProfile, got {profile!r}")
    if v < max(profile.K):
        raise ValueError(f"v={v} is smaller than the largest block size")
    policy = _or_default(policy, SearchPolicy, "policy")
    rng = random.Random(policy.seed)
    max_len = target_g // 2 - 1

    K = profile.K
    slots = [(j, i) for j, k in enumerate(K) for i in range(k)]
    starts = [0, *accumulate(K)]  # block j is points[starts[j]:starts[j + 1]]
    points: list[int] = []
    stats = {"walk_queries": 0, "accepted": 0, "walk_s": 0.0}
    scaffolds = {}  # block j's, built on entering its second slot

    def grown(sc):
        # drawn only while ``points`` holds the slots before this one, and
        # the block's later slots ask with an accepted x still in place
        for x in range(points[-1] + 1, v + 1):
            sc.push(x)
            start = perf_counter()
            ok = _accepts(sc, x, max_len)
            stats["walk_s"] += perf_counter() - start
            stats["walk_queries"] += 1
            stats["accepted"] += ok
            if ok:
                yield x
            sc.pop()

    def candidates(e):
        j, i = slots[e]
        if i == 0:
            cands = list(range(1, v + 1))
            if policy.order == "random":
                rng.shuffle(cands)
            return cands
        if i == 1:
            scaffolds[j] = WalkScaffold(
                [points[a:b] for a, b in zip(starts, [*starts[1:j + 1], e])])
        return grown(scaffolds[j])

    status, expansions, _ = backtrack(len(slots), candidates, points,
                                      policy.budget)
    if status != "ok":
        return ConstructionResult(status=status, expansions=expansions,
                                  stats=stats)
    system = validate_fss(v, [points[a:b] for a, b in zip(starts, starts[1:])])
    report = inevitable_girth(system, cap=target_g // 2)
    if not report.unbounded and report.girth < target_g:
        raise ConstructionError(
            f"internal check failed: achievable girth {report.girth} "
            f"< target {target_g}"
        )
    return ConstructionResult(status="ok", system=system, report=report,
                              expansions=expansions, stats=stats)


def _accepts(sc, beta, max_len):
    """True iff ``beta``, the last point of the scaffold ``sc``'s last block
    (the block being grown), closes no balanced walk of length <= max_len
    through any of its incidence steps (x, last block, beta).  Only
    existence matters, so the query asks for any such walk
    (``shortest=False``), not the shortest; its passes start at six steps."""
    k, _, members = sc.steps[beta][-1]
    steps = [(x, k, beta) for _, x in members[:-1]]
    return min_edge_walk(sc, max_len, steps, shortest=False) is None
