import random
from dataclasses import replace
from itertools import accumulate

import pytest

from fsscode import construct, load_paper_tables
from fsscode.construct import (
    ConstructionError,
    WeightProfile,
    _accepts,
    method1,
    method1_lift,
    method2,
)
from fsscode.girth import WalkScaffold, closed_walks, inevitable_girth
from fsscode.qc import ShiftSequence, shift_sequence_from_list
from fsscode.setsystem import validate_fss
from fsscode.shiftsearch import SearchPolicy


@pytest.fixture
def three_pairs():
    return validate_fss(2, [[1, 2]] * 3)


class TestWeightProfile:
    def test_rejects_weight_one(self):
        with pytest.raises(ValueError):
            WeightProfile((3, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightProfile(())


class TestMethod1Lift:
    def test_table_row_example(self, three_pairs):
        S = shift_sequence_from_list(three_pairs, 3, [0, 1, 2])
        lifted = method1_lift(three_pairs, S)
        assert (lifted.v, lifted.b) == (6, 9)
        expected = [
            (1, 4), (2, 5), (3, 6), (1, 5), (2, 6), (3, 4),
            (1, 6), (2, 4), (3, 5),
        ]
        assert sorted(lifted.blocks) == sorted(expected)
        assert inevitable_girth(lifted, cap=12).girth == 24

    def test_identity_lift(self, three_pairs):
        S = shift_sequence_from_list(three_pairs, 1, [0, 0, 0])
        lifted = method1_lift(three_pairs, S)
        assert sorted(lifted.blocks) == sorted(three_pairs.blocks)

    def test_preserves_block_sizes(self):
        fss = validate_fss(3, [[1, 2, 3], [1, 2], [2, 3]])
        S = shift_sequence_from_list(fss, 2, [1, 1, 1, 0])
        lifted = method1_lift(fss, S)
        assert sorted(len(b) for b in lifted.blocks) == [2, 2, 2, 2, 3, 3]
        assert (lifted.v, lifted.b) == (6, 6)

    def test_shift_mismatch_rejected(self, three_pairs):
        other = validate_fss(2, [[1, 2]] * 4)
        S = shift_sequence_from_list(other, 3, [0, 1, 2, 0])
        with pytest.raises(ValueError):
            method1_lift(three_pairs, S)

    def test_matches_the_closed_form(self):
        # lifted block (j, t), t = 0..m-1, holds (i-1)*m + (t - s[i,j]) % m + 1
        # for the points i of block j, in order
        rng = random.Random(20261104)
        sizes = set()
        for _ in range(200):
            v = rng.randint(2, 7)
            fss = validate_fss(v, [rng.sample(range(1, v + 1), rng.randint(2, min(4, v)))
                                   for _ in range(rng.randint(1, 6))])
            m = rng.randint(1, 13)
            s = {inc: rng.randrange(m) for inc in fss.incidences}
            want = [tuple((i - 1) * m + (t - s[i, j]) % m + 1 for i in block)
                    for j, block in enumerate(fss.blocks, 1) for t in range(m)]
            lifted = method1_lift(fss, ShiftSequence(m, s))
            assert (lifted.v, lifted.blocks) == (v * m, tuple(want)), (fss.blocks, m, s)
            sizes.update(map(len, fss.blocks))
        assert sizes == {2, 3, 4}


class TestMethod1:
    def test_reaches_24_from_three_pairs(self, three_pairs):
        res = method1(three_pairs, 24, [3])
        assert res.ok
        assert (res.system.v, res.system.b) == (6, 9)
        assert res.report.girth == 24

    def test_reaches_24_from_four_pairs(self):
        res = method1(validate_fss(2, [[1, 2]] * 4), 24, [4])
        assert res.ok
        assert (res.system.v, res.system.b) == (8, 16)
        assert res.report.girth is None or res.report.girth >= 24

    def test_target_already_met_returns_input(self, three_pairs):
        res = method1(three_pairs, 6, [])
        assert res.system == three_pairs

    def test_one_budget_covers_the_run(self, three_pairs):
        # the round searches lifted girths 12, 10 (both infeasible) and 8 at
        # m=3: 19 + 19 + 6 expansions; each search gets what is left
        for budget in (2, 19, 20, 38, 43, 44, 45):
            res = method1(three_pairs, 24, [3], policy=SearchPolicy(budget=budget))
            assert res.expansions <= budget
            assert res.status == ("ok" if budget >= 44 else "unknown")
            assert (res.system is None) == (budget < 44)

    def test_exhausted_round_is_infeasible(self, three_pairs):
        # no order-2 shifts separate three parallel pairs: lifted girth 4 only
        res = method1(three_pairs, 24, [2, 3])
        assert (res.status, res.system) == ("infeasible", None)

    def test_exhausted_schedule_raises(self, three_pairs):
        with pytest.raises(ConstructionError):
            method1(three_pairs, 24, [])

    def test_weak_primitive_rejected(self, three_pairs):
        # achievable lifted girth 12 is below the 2*ceil(36/6)=12... use 48
        with pytest.raises(ConstructionError):
            method1(three_pairs, 48, [5])


class TestMethod2:
    def test_single_block_trivial(self):
        res = method2(2, WeightProfile((2,)), 14)
        assert res.ok
        assert res.system.blocks == ((1, 2),)
        assert res.report.unbounded

    def test_profile_respected(self):
        res = method2(6, WeightProfile((3, 3, 2, 2)), 8)
        assert res.ok
        assert tuple(len(b) for b in res.system.blocks) == (3, 3, 2, 2)
        rep = inevitable_girth(res.system, cap=4)
        assert rep.unbounded or rep.girth >= 8

    def test_infeasible_four_parallel_pairs(self):
        # any three identical 2-point blocks force achievable girth 12
        res = method2(2, WeightProfile((2, 2, 2, 2)), 14)
        assert res.status == "infeasible"

    def test_unknown_on_tiny_budget(self):
        res = method2(10, WeightProfile((3,) * 13), 16,
                      policy=SearchPolicy(budget=5))
        assert res.status == "unknown"
        assert res.expansions == 5

    def test_deterministic(self):
        r1 = method2(8, WeightProfile((3, 3, 3, 3)), 12)
        r2 = method2(8, WeightProfile((3, 3, 3, 3)), 12)
        assert r1.system == r2.system

    def test_v_too_small(self):
        with pytest.raises(ValueError):
            method2(2, WeightProfile((3,)), 6)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            method2(4, WeightProfile((2,)), 7)

    @pytest.mark.parametrize("name, queries, accepted", [
        ("v10-b13-g16", 193, 36), ("v10-b19-g14", 282, 72)])
    def test_stats_count_the_walk_queries(self, name, queries, accepted):
        p = next(p for p in load_paper_tables()["weight_profiles"]
                 if p["name"] == name)
        res = method2(p["v"], WeightProfile(tuple(p["K"])), p["target_girth"])
        assert res.ok
        stats = res.stats
        assert (stats["walk_queries"], stats["accepted"]) == (queries, accepted)
        assert type(stats["accepted"]) is int and stats["walk_s"] > 0
        assert res == replace(res, stats={})  # timings never compare

    def test_stats_of_an_unfinished_search(self):
        res = method2(10, WeightProfile((3,) * 13), 16,
                      policy=SearchPolicy(budget=5))
        assert res.status == "unknown"
        assert res.stats["walk_queries"] >= res.stats["accepted"] > 0

    def test_heavy_random_trajectory_pinned(self):
        # random order with seed 3 falls into v10-b19-g14's heavy tail: its
        # first 1,500 expansions, all in the first pass, pin the verdicts of
        # 3,617 walk queries, each asked of a scaffold grown and shrunk in place
        p = next(p for p in load_paper_tables()["weight_profiles"]
                 if p["name"] == "v10-b19-g14")
        res = method2(p["v"], WeightProfile(tuple(p["K"])), p["target_girth"],
                      policy=SearchPolicy(order="random", seed=3, budget=1500))
        assert (res.status, res.expansions) == ("unknown", 1500)
        assert (res.stats["walk_queries"], res.stats["accepted"]) == (3617, 1034)

    def test_random_order_restarts(self):
        # seed 4's first pass spends its 2,000-expansion tranche; the second,
        # reshuffled, finishes.  The driver's counters land in ``stats``
        p = next(p for p in load_paper_tables()["weight_profiles"]
                 if p["name"] == "v10-b19-g14")
        res = method2(p["v"], WeightProfile(tuple(p["K"])), p["target_girth"],
                      policy=SearchPolicy(order="random", seed=4))
        assert (res.status, res.expansions, res.stats["restarts"]) == ("ok", 2232, 1)
        assert 0 < res.stats["backtracks"] < res.expansions
        assert inevitable_girth(res.system, cap=7).girth == 14

    def test_every_query_sees_a_fresh_scaffold(self, monkeypatch):
        # a block's scaffold is grown and shrunk across its candidate lists,
        # through backtracks; each query must see the scaffold of the placed
        # points plus its candidate, as if built afresh
        p = next(p for p in load_paper_tables()["weight_profiles"]
                 if p["name"] == "v10-b19-g14")
        starts = [0, *accumulate(p["K"])]
        real_accepts, real_backtrack = construct._accepts, construct.backtrack
        placed, checked = [], []

        def backtrack(n, candidates, prefix, policy):
            placed.append(prefix)
            return real_backtrack(n, candidates, prefix, policy)

        def accepts(sc, beta, max_len):
            trial = placed[0] + [beta]
            fresh = WalkScaffold([trial[a:b] for a, b in zip(starts, starts[1:])
                                  if a < len(trial)])
            assert (sc.steps, sc.size) == (fresh.steps, fresh.size), trial
            checked.append(beta)
            return real_accepts(sc, beta, max_len)

        monkeypatch.setattr(construct, "_accepts", accepts)
        monkeypatch.setattr(construct, "backtrack", backtrack)
        res = method2(p["v"], WeightProfile(tuple(p["K"])), p["target_girth"],
                      policy=SearchPolicy(order="random", seed=3, budget=300))
        assert res.status == "unknown"
        assert len(checked) == res.stats["walk_queries"] > 500

    @pytest.mark.parametrize("name, calls_before", [
        ("v10-b13-g16", 294), ("v10-b19-g14", 430)])
    def test_tests_only_the_points_it_draws(self, monkeypatch, name,
                                            calls_before):
        """Every point ``_accepts`` approves is the next value ``backtrack``
        appends: the search enters the next slot with it in place before
        any other point is tested.  ``calls_before`` counts the queries of
        candidate lists that tested every point up front."""
        p = next(p for p in load_paper_tables()["weight_profiles"]
                 if p["name"] == name)
        events = []
        real_accepts, real_backtrack = construct._accepts, construct.backtrack

        def accepts(sc, beta, max_len):
            ok = real_accepts(sc, beta, max_len)
            # the scaffold holds the placed points, then ``beta``
            events.append(("approve" if ok else "reject", sc.size - 1, beta))
            return ok

        def backtrack(n, candidates, prefix, policy):
            def entered(e, rng):
                events.append(("enter", e, prefix[-1] if prefix else None))
                return candidates(e, rng)
            return real_backtrack(n, entered, prefix, policy)

        monkeypatch.setattr(construct, "_accepts", accepts)
        monkeypatch.setattr(construct, "backtrack", backtrack)
        res = method2(p["v"], WeightProfile(tuple(p["K"])), p["target_girth"])
        assert res.ok
        events.append(("enter", sum(p["K"]), res.system.blocks[-1][-1]))
        for ev, after in zip(events, events[1:]):
            if ev[0] == "approve":
                assert after == ("enter", ev[1] + 1, ev[2]), (ev, after)
        assert sum(ev[0] != "enter" for ev in events) < calls_before


def _ref_min_edge_walk(scaffold, x, k0, y, max_len):
    """Length of the shortest balanced closed walk opening with the step
    (x, block k0, y), or None: iterative deepening over one pinned step."""
    for L in range(2, max_len + 1):
        if closed_walks(scaffold, L, lambda *_: True, [(x, k0, y)],
                        balanced=True):
            return L
    return None


def _ref_accepts(points, starts, beta, max_len):
    """``_accepts`` as it was before it asked one query for all the steps to
    ``beta``: one deepening search per point x of the growing block."""
    trial = [tuple(points[a:b]) for a, b in zip(starts, [*starts[1:], len(points)])]
    trial[-1] += (beta,)
    scaffold = WalkScaffold(trial)
    for x in trial[-1][:-1]:
        if _ref_min_edge_walk(scaffold, x, len(trial), beta, max_len) is not None:
            return False
    return True


class TestAccepts:
    def test_matches_per_point_loop(self):
        # random growing states: complete blocks, then a partial block with
        # ascending points, and a candidate above its last point
        rng = random.Random(5)
        verdicts = {True: 0, False: 0}
        for _ in range(400):
            v = rng.randint(3, 5)
            points, starts = [], []
            for _ in range(rng.randint(1, 7)):
                starts.append(len(points))
                points += sorted(rng.sample(range(1, v + 1), rng.randint(2, 3)))
            starts.append(len(points))
            points += sorted(rng.sample(range(1, v), rng.randint(1, 2)))
            beta = rng.randint(points[-1] + 1, v)
            max_len = rng.randint(3, 7)
            want = _ref_accepts(points, starts, beta, max_len)
            sc = WalkScaffold([points[a:b] for a, b in
                               zip(starts, [*starts[1:], len(points)])])
            sc.push(beta)
            assert _accepts(sc, beta, max_len) == want, (
                points, starts, beta, max_len)
            verdicts[want] += 1
        assert min(verdicts.values()) >= 100, verdicts
