"""Metamorphic relations: equivalent inputs must get equivalent answers.

A set system and its relabelling (points permuted, blocks reordered) are
the same system, and a shift sequence moved by per-point offsets, per-block
offsets or a unit scaling lifts to an isomorphic Tanner graph.  These
checks reach past the sizes exhaustive enumeration covers: an unsound
normalisation in the shift search, say, makes one variant of a system
``infeasible`` while another finds shifts.
"""

import random
from math import gcd

from fsscode.girth import inevitable_girth, tanner_girth
from fsscode.qc import ShiftSequence, assemble, expand
from fsscode.setsystem import validate_fss
from fsscode.shiftsearch import SearchPolicy, search_shifts


def _system(rng, points, blocks, kmax=3):
    v = rng.randint(*points)
    return validate_fss(v, [rng.sample(range(1, v + 1), rng.randint(2, min(kmax, v)))
                            for _ in range(rng.randint(*blocks))])


def _relabelled(rng, fss):
    """(variant, label, order): the points renamed by ``label`` and the
    blocks shuffled, variant block p + 1 being block ``order[p] + 1``."""
    perm = rng.sample(range(1, fss.v + 1), fss.v)
    label = dict(zip(range(1, fss.v + 1), perm))
    order = rng.sample(range(fss.b), fss.b)
    blocks = [[label[x] for x in fss.blocks[j]] for j in order]
    return validate_fss(fss.v, blocks), label, order


def _lifted_girth(fss, m, entries, cap):
    return tanner_girth(expand(assemble(fss, ShiftSequence(m, entries))), cap).girth


def test_relabelling_keeps_the_inevitable_girth():
    rng = random.Random(20261101)
    girths = set()
    for i in range(240):
        # odd i: sparse systems, whose points lie several blocks apart
        fss = (_system(rng, (8, 14), (4, 10)) if i % 2
               else _system(rng, (3, 7), (3, 9), kmax=4))
        want = inevitable_girth(fss, 8).girth
        girths.add(want)
        for _ in range(2):
            variant, _, _ = _relabelled(rng, fss)
            assert inevitable_girth(variant, 8).girth == want, fss.blocks
    assert {None, 12, 14, 16} <= girths, girths


def test_relabelling_keeps_the_search_verdict():
    # ``ok`` for one variant and ``infeasible`` for another would mean the
    # search skipped part of the space; ``unknown`` (budget spent) is neither
    rng = random.Random(20261102)
    policy = SearchPolicy(budget=50_000)
    statuses = {"ok": 0, "infeasible": 0, "unknown": 0}
    for _ in range(100):
        fss = _system(rng, (3, 6), (2, 6))
        m, target = rng.randint(2, 9), rng.choice((6, 8))
        variant, label, order = _relabelled(rng, fss)
        res, moved = (search_shifts(f, m, target, policy) for f in (fss, variant))
        assert {res.status, moved.status} != {"ok", "infeasible"}, (fss.blocks, m, target)
        statuses[res.status] += 1
        statuses[moved.status] += 1
        if moved.ok:
            # the variant's shifts, carried back, lift the original system
            back = {(i, order[p] + 1): moved.shifts.entries[label[i], p + 1]
                    for p in range(fss.b) for i in fss.blocks[order[p]]}
            girth = _lifted_girth(fss, m, back, target)
            assert girth is None or girth >= target, (fss.blocks, m, back)
    assert statuses["ok"] > 100 and statuses["infeasible"] > 20, statuses


def test_offsets_and_unit_scaling_keep_the_tanner_girth():
    # a closed walk's shift sum telescopes over point offsets, block
    # offsets cancel within each step, and a unit u scales it without
    # making it zero mod m
    rng = random.Random(20261103)
    girths = set()
    for _ in range(120):
        fss = _system(rng, (2, 8), (2, 10), kmax=4)
        m = rng.randint(2, 12)
        shifts = {inc: rng.randrange(m) for inc in fss.incidences}
        want = _lifted_girth(fss, m, shifts, 16)
        girths.add(want)
        point = [rng.randrange(m) for _ in range(fss.v + 1)]
        block = [rng.randrange(m) for _ in range(fss.b + 1)]
        u = rng.choice([u for u in range(1, m) if gcd(u, m) == 1])
        for moved in ({(i, j): (s + point[i]) % m for (i, j), s in shifts.items()},
                      {(i, j): (s + block[j]) % m for (i, j), s in shifts.items()},
                      {inc: u * s % m for inc, s in shifts.items()}):
            assert _lifted_girth(fss, m, moved, 16) == want, (fss.blocks, m, shifts)
    assert len(girths) >= 4, girths


def test_no_search_returns_ok_above_the_ceiling():
    # no shifts lift a system past its inevitable girth.  Random systems at
    # girth <= 8 never need the filter's d = m residue group (forms whose own
    # coefficient is 0 mod m); a target above the ceiling at these m does
    policy = SearchPolicy(budget=5_000)
    for v, blocks, ceiling in ((3, [[1, 2, 3]] * 2, 12), (2, [[1, 2]] * 3, 12),
                               (3, [[1, 2], [1, 2, 3], [2, 3]], 14)):
        fss = validate_fss(v, blocks)
        assert inevitable_girth(fss, ceiling).girth == ceiling
        for m in (13, 40, 101):
            res = search_shifts(fss, m, ceiling + 2, policy)
            assert res.status in ("infeasible", "unknown"), (blocks, m)
