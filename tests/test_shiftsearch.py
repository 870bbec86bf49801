import hashlib
import random
from itertools import product
from math import gcd

import numpy as np
import pytest

from fsscode.girth import _circulant_size, tanner_girth
from fsscode.qc import (
    assemble,
    expand,
    shift_sequence_from_list,
    shifts_to_json,
)
from fsscode.setsystem import validate_fss
from fsscode.shiftsearch import (
    SearchPolicy,
    ShiftSearchState,
    backtrack,
    search_shifts,
)


def _exhaustive_feasible(fss, m, target):
    """Ground truth by brute force over all normalized shift sequences."""
    free = sum(len(b) - 1 for b in fss.blocks)
    for vals in product(range(m), repeat=free):
        S = shift_sequence_from_list(fss, m, list(vals))
        rep = tanner_girth(expand(assemble(fss, S)), cap=max(target, 4))
        if rep.girth is None or rep.girth >= target:
            return True
    return False


class TestPolicy:
    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            SearchPolicy(order="sideways")

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            SearchPolicy(budget=0)

    @pytest.mark.parametrize("budget", [2.5, 3.0, -1, True, "3", None])
    def test_rejects_non_integer_budget(self, budget):
        # a float budget would never equal the expansion count, so the
        # search would not stop
        with pytest.raises(ValueError, match="budget"):
            SearchPolicy(budget=budget)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, False, "3", None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SearchPolicy(order="random", seed=seed)

    def test_takes_numpy_integers(self):
        policy = SearchPolicy(order="random", budget=np.int64(300),
                              seed=np.uint32(2))
        res = search_shifts(TEN_TRIPLES, 36, 8, policy=policy)
        assert res == search_shifts(TEN_TRIPLES, 36, 8, policy=SearchPolicy(
            order="random", budget=300, seed=2))
        assert res.expansions == 300


def _accepts(state, s):
    """Whether ``s`` may extend the current prefix by one position."""
    return s in state.allowed_values(len(state.prefix))


class TestCheckExtension:
    """Extending a prefix by one shift, as ``allowed_values`` decides it."""

    def test_empty_prefix_accepts(self):
        fss = validate_fss(2, [[1, 2], [1, 2]])
        state = ShiftSearchState.create(fss, 4, 6)
        assert _accepts(state, 0)

    def test_detects_forced_four_cycle(self):
        fss = validate_fss(2, [[1, 2], [1, 2]])
        state = ShiftSearchState.create(fss, 4, 6)
        state.prefix.extend([0, 1, 0])  # s[2,1]=1, first shifts 0
        assert not _accepts(state, 1)  # equal diffs -> 4-cycle
        assert _accepts(state, 2)

    def test_matches_oracle_on_random_states(self):
        # at block boundaries, a prefix passing every extension check is
        # clean iff the expansion of the assigned blocks has girth >= target
        rng = random.Random(5)
        fss = validate_fss(3, [[1, 2], [2, 3], [1, 3], [1, 2, 3]])
        target, m = 6, 4
        state = ShiftSearchState.create(fss, m, target)
        sizes = [len(b) for b in fss.blocks]
        boundaries = []
        total = 0
        for k in sizes:
            total += k
            boundaries.append(total)
        for _ in range(50):
            nb = rng.randint(1, len(sizes))
            vals = [rng.randrange(m) for _ in range(boundaries[nb - 1])]
            state.prefix.clear()
            accepted = True
            for s in vals:
                if not _accepts(state, s):
                    accepted = False
                    break
                state.prefix.append(s)
            sub = validate_fss(fss.v, [list(b) for b in fss.blocks[:nb]])
            S = shift_sequence_from_list(sub, m, vals)
            rep = tanner_girth(expand(assemble(sub, S)), cap=max(target, 4))
            clean = rep.girth is None or rep.girth >= target
            assert accepted == clean, (vals, nb, rep.girth)
        state.prefix.clear()


def _reference_allowed(forms, prefix, m):
    """Scalar filter: ``s`` is allowed iff no form of the bucket sums to
    zero mod m once ``s`` is appended to the prefix."""
    allowed = []
    for s in range(m):
        vals = prefix + [s]
        if all(sum(c * vals[p] for p, c in form) % m for form in forms):
            allowed.append(s)
    return allowed


def _random_system(rng):
    v = rng.randint(2, 5)
    blocks = []
    for _ in range(rng.randint(2, 5)):
        if blocks and rng.random() < 0.3:
            blocks.append(list(rng.choice(blocks)))  # a repeated block
        else:
            blocks.append(sorted(rng.sample(range(1, v + 1), rng.randint(2, v))))
    return validate_fss(v, blocks)


class TestAllowedValuesDifferential:
    MODULI = (1, 2, 4, 6, 9, 12, 16, 30)

    def test_matches_scalar_reference(self):
        rng = random.Random(2024)
        prefixes = nonunit_hits = repeated = dead_zero = dead_live = 0
        while prefixes < 2_000:
            fss = _random_system(rng)
            repeated += len(set(fss.blocks)) < len(fss.blocks)
            target = rng.choice((6, 8, 10))
            m = rng.choice(self.MODULI)
            state = ShiftSearchState.create(fss, m, target)
            positions = sorted(state.buckets)
            for _ in range(12):
                if not positions:
                    break
                e = rng.choice(positions)
                prefix = [rng.randrange(m) for _ in range(e)]
                state.prefix[:] = prefix
                forms = state.buckets[e]
                want = _reference_allowed(forms, prefix, m)
                assert state.allowed_values(e) == want, (fss.blocks, m, e, prefix)
                prefixes += 1
                # forms whose own coefficient c has 1 < gcd(c, m) < m and
                # that forbid some value: the d > 1 tables at work
                for form in forms:
                    c = dict(form).get(e, 0) % m
                    # c == 0 is the d = m group: it forbids every value when
                    # the rest of the form vanishes and none otherwise
                    if c == 0:
                        if sum(cf * prefix[p] for p, cf in form if p != e) % m:
                            dead_live += 1
                        else:
                            dead_zero += 1
                    if 1 < gcd(c, m) < m and any(
                        sum(cf * (prefix + [s])[p] for p, cf in form) % m == 0
                        for s in range(m)
                    ):
                        nonunit_hits += 1
            state.prefix.clear()
        assert nonunit_hits > 0
        assert dead_zero > 0 and dead_live > 0
        assert repeated > 0

    def test_kept_partial_sums_follow_the_prefix(self):
        """Call sequences over a bucket's kept partial sum: every sibling
        value at one position, then one earlier value changed with the
        length and last value kept (a sum kept for the old parent would be
        stale), then the prefix replaced by a new list and every bucket
        asked in random order."""
        rng = random.Random(31)
        calls = stale = 0
        while calls < 3_000:
            fss = _random_system(rng)
            m = rng.choice(self.MODULI)
            state = ShiftSearchState.create(fss, m, rng.choice((6, 8, 10)))
            buckets = state.buckets
            deep = [e for e in buckets if e >= 2]
            if not deep:
                continue
            e = rng.choice(deep)
            state.prefix[:] = [rng.randrange(m) for _ in range(e)]
            for s in range(m):
                state.prefix[e - 1] = s
                assert state.allowed_values(e) == _reference_allowed(
                    buckets[e], state.prefix, m), (fss.blocks, m, e, state.prefix)
            before = state.allowed_values(e)
            p = rng.randrange(e - 1)
            state.prefix[p] = (state.prefix[p] + 1) % m
            want = _reference_allowed(buckets[e], state.prefix, m)
            assert state.allowed_values(e) == want, (fss.blocks, m, e, state.prefix)
            stale += want != before
            state.prefix = [rng.randrange(m) for _ in range(len(state.order))]
            for e in rng.sample(sorted(buckets), len(buckets)):
                assert state.allowed_values(e) == _reference_allowed(
                    buckets[e], state.prefix[:e], m), (fss.blocks, m, e)
            calls += m + 2 + len(buckets)
        assert stale > 50

    def test_modulus_one_allows_nothing_in_a_bucket(self):
        fss = validate_fss(3, [[1, 2, 3], [1, 2, 3], [1, 3]])
        state = ShiftSearchState.create(fss, 1, 8)
        state.prefix[:] = [0] * len(state.order)
        for e in range(len(state.order)):
            want = [] if e in state.buckets else [0]
            assert state.allowed_values(e) == want

    def test_balanced_form_allows_nothing(self):
        # three blocks on the same two points close a walk whose form is
        # identically zero, so its bucket must reject every shift
        fss = validate_fss(2, [[1, 2], [1, 2], [1, 2]])
        state = ShiftSearchState.create(fss, 7, 14)
        balanced = [e for e, forms in state.buckets.items() if [] in forms]
        assert balanced
        rng = random.Random(1)
        for e in balanced:
            for _ in range(20):
                state.prefix[:] = [rng.randrange(7) for _ in range(e)]
                assert state.allowed_values(e) == []
                assert _reference_allowed(state.buckets[e], state.prefix, 7) == []
        state.prefix.clear()


class _BudgetSpent(Exception):
    pass


def _ref_backtrack(n, candidates, budget):
    """Recursive reference for ``backtrack``: (status, expansions,
    backtracks, prefix)."""
    prefix = []
    count = {"expansions": 0, "backtracks": 0}

    def extend():
        if len(prefix) == n:
            return True
        for x in candidates(len(prefix), prefix):
            if count["expansions"] == budget:
                raise _BudgetSpent
            prefix.append(x)
            count["expansions"] += 1
            if extend():
                return True
            prefix.pop()
            count["backtracks"] += 1
        return False

    try:
        status = "ok" if extend() else "infeasible"
    except _BudgetSpent:
        status = "unknown"
    return status, count["expansions"], count["backtracks"], prefix


class TestBacktrack:
    """``backtrack`` against the recursive reference on toy candidate
    functions: random value lists in random order, seeded by the prefix."""

    @staticmethod
    def _toy(seed, width, calls):
        def candidates(e, prefix):
            calls.append((e, tuple(prefix)))
            rng = random.Random(hash((seed, tuple(prefix))))
            values = [x for x in range(width) if rng.random() < 0.55]
            rng.shuffle(values)
            return values
        return candidates

    def test_matches_recursive_reference(self):
        statuses = set()
        for seed in range(150):
            n = seed % 6
            width = 1 + seed % 4
            full = _ref_backtrack(n, self._toy(seed, width, []), 10**9)
            budgets = sorted({1, 2, full[1], full[1] + 1,
                              max(1, full[1] - 1), max(1, full[1] // 2)})
            for budget in budgets:
                want_calls, got_calls = [], []
                want = _ref_backtrack(n, self._toy(seed, width, want_calls), budget)
                toy = self._toy(seed, width, got_calls)
                prefix = [99]
                got = backtrack(n, lambda e: toy(e, prefix), prefix, budget)
                assert (*got, prefix) == want, (seed, budget)
                assert got_calls == want_calls
                assert got[1] <= budget
                statuses.add(got[0])
        assert statuses == {"ok", "infeasible", "unknown"}

    def test_draws_generators_on_demand(self):
        """Candidates given as generators give the reference's search, and
        each value is drawn with the prefix of its position in place, only
        to be appended or to meet the budget stop."""
        for seed in range(150):
            n = seed % 6
            width = 1 + seed % 4
            full = _ref_backtrack(n, self._toy(seed, width, []), 10**9)
            for budget in sorted({1, 2, full[1], full[1] + 1,
                                  max(1, full[1] // 2)}):
                want = _ref_backtrack(n, self._toy(seed, width, []), budget)
                toy = self._toy(seed, width, [])
                prefix, drawn = [99], []

                def candidates(e):
                    at_entry, values = prefix[:], toy(e, prefix)

                    def draw():
                        for x in values:
                            assert prefix == at_entry
                            drawn.append(x)
                            yield x
                        assert prefix == at_entry
                    return draw()

                got = backtrack(n, candidates, prefix, budget)
                assert (*got, prefix) == want, (seed, budget)
                assert len(drawn) == got[1] + (got[0] == "unknown")

    def test_budget_cuts_before_the_next_expansion(self):
        prefix = []
        got = backtrack(3, lambda e: [0, 1], prefix, 2)
        assert got == ("unknown", 2, 0) and prefix == [0, 0]
        assert backtrack(3, lambda e: [0, 1], prefix, 3) == ("ok", 3, 0)
        assert prefix == [0, 0, 0]


TEN_TRIPLES = validate_fss(3, [[1, 2, 3]] * 10)


class TestTrajectoryPinned:
    """Search results on ten parallel triples, pinned to the bytes of
    ``shifts_to_json`` and the counts the scalar filter produced: equal
    candidate sets in equal order give an equal search."""

    @pytest.mark.parametrize("m, target, policy, counts, free, digest", [
        (40, 8, None, (1526, 1496, 0),
         [0, 0, 1, 2, 3, 6, 4, 8, 9, 18, 10, 20, 22, 17, 27, 15, 34, 21, 35, 24],
         "24e601b76c9faf9dbde0158c08ab490b255ba89136dad0cfb850b0f3a3a9bc25"),
        (40, 8, SearchPolicy(order="random", seed=5, budget=5000), (4062, 3981, 2),
         [15, 28, 27, 10, 18, 27, 22, 39, 36, 16, 6, 33, 17, 25, 21, 6, 34, 20, 28, 18],
         "6a19c84bd92e6ab786ea40e7b73d74a6761b5cd99b94bbab317458e535918359"),
        (477, 10, None, (1365, 1335, 0),
         [0, 0, 1, 3, 5, 13, 12, 29, 32, 68, 50, 109, 72, 155, 102, 284, 226,
          373, 346, 270],
         "b2db728eea4f1132d710f45a8f120c8e8cb4190e944fe6d5a8c71ac6176072d2"),
        # even m: 780 forms have gcd(own, 480) > 1, so the d > 1 groups run
        (480, 10, None, (3963, 3933, 0),
         [0, 0, 1, 3, 5, 13, 12, 29, 32, 68, 50, 109, 72, 155, 102, 323, 145,
          401, 201, 337],
         "3d9ee645e4dd659f501195cdcc8362d4f62e43f4afdf3cf91647afa237210038"),
    ], ids=["m40-ascending", "m40-random-seed5", "m477-girth10", "m480-girth10"])
    def test_pinned(self, m, target, policy, counts, free, digest):
        res = search_shifts(TEN_TRIPLES, m, target, policy=policy)
        assert res.ok
        assert (res.expansions, res.backtracks, res.restarts) == counts
        assert res.shifts == shift_sequence_from_list(TEN_TRIPLES, m, free)
        text = shifts_to_json(TEN_TRIPLES, res.shifts)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _feed_setup(h, state):
    """Feed ``h`` what ``create`` built: the buckets, the walk and template
    counts, and every residue table, bucket by bucket."""
    h.update(repr(state.buckets).encode())
    h.update(repr((state.stats["walks"], state.stats["templates"])).encode())
    for e in sorted(state._compiled):
        C, groups = state._compiled[e]
        h.update(repr((e, C.shape, C.dtype.str)).encode() + C.tobytes())
        for d, lo, hi, neg_inv in groups:
            h.update(repr((d, lo, hi, neg_inv.dtype.str)).encode()
                     + neg_inv.tobytes())


class TestSetupPinned:
    """Template set-up pinned to a SHA-256 digest of its buckets, counts and
    residue tables: a rebuilt ``create`` or ``_compile`` must reproduce them
    byte for byte, bucket order and form signs included."""

    @pytest.mark.parametrize("m, target, digest", [
        (40, 8,
         "3aa2bbbe300b0acc1cc990b2f415be2ce0ac336b78c4cd87f9b7e231c18eabc4"),
        (477, 10,
         "2351a8313771757ca47457cd389eae0f06b968a1fda6d763da7121e27ede75cd"),
    ], ids=["m40-girth8", "m477-girth10"])
    def test_ten_triples(self, m, target, digest):
        h = hashlib.sha256()
        _feed_setup(h, ShiftSearchState.create(TEN_TRIPLES, m, target))
        assert h.hexdigest() == digest

    def test_seeded_systems(self):
        rng = random.Random(19)
        h = hashlib.sha256()
        repeated = walks = 0
        for _ in range(300):
            fss = _random_system(rng)
            repeated += len(set(fss.blocks)) < len(fss.blocks)
            for target in (6, 8, 10):
                m = rng.choice((1, 2, 4, 6, 7, 9, 12, 16, 30))
                state = ShiftSearchState.create(fss, m, target)
                walks += state.stats["walks"]
                h.update(repr((fss.blocks, m, target)).encode())
                _feed_setup(h, state)
        assert repeated > 100 and walks > 50_000
        assert h.hexdigest() == (
            "b545e6404050f406bebda25d43e737c0a5dc3a8e6961a74b5ba8590469171018")

    def test_system_closing_no_walk(self):
        state = ShiftSearchState.create(validate_fss(4, [[1, 2], [3, 4]]), 5, 8)
        assert state.buckets == {} and state._compiled == {}
        assert (state.stats["walks"], state.stats["templates"]) == (0, {})
        assert state.allowed_values(3) == [0, 1, 2, 3, 4]


class TestSearchShifts:
    def test_finds_and_verifies(self):
        fss = validate_fss(2, [[1, 2], [1, 2], [1, 2]])
        res = search_shifts(fss, 3, 6)
        assert res.ok
        assert res.verified_girth is None or res.verified_girth >= 6

    def test_verifies_through_circulant_oracle(self, monkeypatch):
        import fsscode.shiftsearch as ss

        calls = []

        def recording(H, cap):
            calls.append(_circulant_size(H))
            return tanner_girth(H, cap)

        monkeypatch.setattr(ss, "tanner_girth", recording)
        fss = validate_fss(3, [[1, 2, 3]] * 4)
        res = search_shifts(fss, 9, 8)
        assert res.ok and calls == [9]
        H = expand(assemble(fss, res.shifts))
        assert res.verified_girth == tanner_girth(H, cap=8).girth

    def test_first_of_block_pinned(self):
        fss = validate_fss(2, [[1, 2], [1, 2], [1, 2]])
        res = search_shifts(fss, 5, 8)
        assert res.ok
        for j, blk in enumerate(fss.blocks, start=1):
            assert res.shifts.entries[(blk[0], j)] == 0

    def test_infeasible_m1(self):
        fss = validate_fss(2, [[1, 2], [1, 2]])
        assert search_shifts(fss, 1, 6).status == "infeasible"

    def test_two_blocks_two_shared_points(self):
        fss = validate_fss(2, [[1, 2], [1, 2]])
        assert search_shifts(fss, 2, 8).status == "ok"
        assert search_shifts(fss, 2, 10).status == "infeasible"

    def test_target_above_achievable_is_infeasible(self):
        fss = validate_fss(2, [[1, 2], [1, 2], [1, 2]])
        assert search_shifts(fss, 7, 14).status == "infeasible"

    def test_budget_exhaustion_reports_unknown(self):
        fss = validate_fss(3, [[1, 2, 3]] * 10)
        res = search_shifts(fss, 36, 8, policy=SearchPolicy(budget=100))
        assert res.status == "unknown"
        assert res.expansions == 100 and res.restarts == 0

    def test_counts_restarts_of_random_order(self):
        # tranches of 2000, 2000, 2000, 4000: the budget ends in the fourth
        policy = SearchPolicy(order="random", seed=0, budget=7000)
        res = search_shifts(TEN_TRIPLES, 36, 8, policy=policy)
        assert res.status == "unknown" and res.expansions == 7000
        assert res.restarts == 3
        assert 0 < res.backtracks < res.expansions
        assert search_shifts(TEN_TRIPLES, 36, 8, policy=policy) == res

    def test_infeasible_counts_backtracks(self):
        fss = validate_fss(2, [[1, 2], [1, 2]])
        res = search_shifts(fss, 2, 10)
        assert res.status == "infeasible" and res.restarts == 0
        assert res.backtracks == res.expansions  # every node is undone

    def test_ascending_deterministic(self):
        fss = validate_fss(3, [[1, 2], [2, 3], [1, 3], [1, 2, 3]])
        r1 = search_shifts(fss, 5, 6)
        r2 = search_shifts(fss, 5, 6)
        assert r1.shifts == r2.shifts

    def test_random_policy_seeded(self):
        fss = validate_fss(3, [[1, 2], [2, 3], [1, 3], [1, 2, 3]])
        p = SearchPolicy(order="random", seed=11)
        r1 = search_shifts(fss, 5, 6, policy=p)
        r2 = search_shifts(fss, 5, 6, policy=p)
        assert r1.shifts == r2.shifts

    def test_validation(self):
        fss = validate_fss(2, [[1, 2]])
        with pytest.raises(ValueError):
            search_shifts(fss, 3, 7)
        for m in (0, 2.5, True):
            with pytest.raises(ValueError, match="modulus"):
                search_shifts(fss, m, 6)

    @pytest.mark.parametrize("target", [8.0, 7.5, True, False])
    def test_target_girth_must_be_an_integer(self, target):
        with pytest.raises(ValueError, match="target girth must be an integer"):
            search_shifts(TEN_TRIPLES, 9, target)

    def test_numpy_integer_target(self):
        fss = validate_fss(2, [[1, 2]] * 3)
        res = search_shifts(fss, 3, np.int64(6))
        assert res.ok and res == search_shifts(fss, 3, 6)

    def test_agrees_with_exhaustive_small(self):
        cases = [
            (validate_fss(2, [[1, 2], [1, 2]]), 2, 8),
            (validate_fss(2, [[1, 2], [1, 2]]), 2, 10),
            (validate_fss(3, [[1, 2], [2, 3], [1, 3]]), 3, 6),
            (validate_fss(3, [[1, 2, 3], [1, 2, 3]]), 3, 8),
            (validate_fss(4, [[1, 2, 3, 4], [1, 2, 3, 4]]), 4, 8),
        ]
        for fss, m, target in cases:
            got = search_shifts(fss, m, target).status
            want = "ok" if _exhaustive_feasible(fss, m, target) else "infeasible"
            assert got == want, (fss.blocks, m, target)


class TestSetupStats:
    """``SearchResult.stats``: what template set-up did."""

    def test_counts_on_ten_triples(self):
        res = search_shifts(TEN_TRIPLES, 477, 10)
        state = ShiftSearchState.create(TEN_TRIPLES, 477, 10)
        assert set(res.stats) == {"walks", "templates", "walks_s", "compile_s",
                                  "setup_s"}
        # one walk per rotation/reversal class, of 2..4 steps
        assert res.stats["walks"] == state.stats["walks"] == 15_705
        assert res.stats["templates"] == state.stats["templates"] == {
            2: 135, 3: 720, 4: 12_960}
        assert sum(len(forms) for forms in state.buckets.values()) == 13_815
        assert res.stats["setup_s"] > 0
        # the walk search and the compile are phases of the set-up
        assert 0 < res.stats["walks_s"] and 0 < res.stats["compile_s"]
        assert res.stats["walks_s"] + res.stats["compile_s"] < res.stats["setup_s"]

    def test_templates_by_walk_length(self):
        # two parallel pairs close one 2-step walk and, going round it
        # twice, one 4-step walk with twice its form
        state = ShiftSearchState.create(validate_fss(2, [[1, 2]] * 2), 5, 10)
        assert state.stats["walks"] == 2
        assert state.stats["templates"] == {2: 1, 4: 1}
        assert state.buckets == {3: [[(0, -1), (1, 1), (2, 1), (3, -1)],
                                     [(0, -2), (1, 2), (2, 2), (3, -2)]]}
