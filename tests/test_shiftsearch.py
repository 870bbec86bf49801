from itertools import product

import pytest

from fsscode.girth import tanner_girth
from fsscode.qc import assemble, expand, shift_sequence_from_list
from fsscode.setsystem import validate_fss
from fsscode.shiftsearch import (
    SearchPolicy,
    ShiftSearchState,
    check_extension,
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


class TestCheckExtension:
    def test_empty_prefix_accepts(self):
        fss = validate_fss(2, [[1, 2], [1, 2]])
        state = ShiftSearchState.create(fss, 4, 6)
        assert check_extension(state, 0)

    def test_detects_forced_four_cycle(self):
        fss = validate_fss(2, [[1, 2], [1, 2]])
        state = ShiftSearchState.create(fss, 4, 6)
        state.prefix.extend([0, 1, 0])  # s[2,1]=1, first shifts 0
        assert not check_extension(state, 1)  # equal diffs -> 4-cycle
        assert check_extension(state, 2)

    def test_matches_oracle_on_random_states(self):
        # at block boundaries, a prefix passing every check_extension step
        # is clean iff the expansion of the assigned blocks has girth >= target
        import random

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
                if not check_extension(state, s):
                    accepted = False
                    break
                state.prefix.append(s)
            sub = validate_fss(fss.v, [list(b) for b in fss.blocks[:nb]])
            S = shift_sequence_from_list(sub, m, vals)
            rep = tanner_girth(expand(assemble(sub, S)), cap=max(target, 4))
            clean = rep.girth is None or rep.girth >= target
            assert accepted == clean, (vals, nb, rep.girth)
        state.prefix.clear()


class TestSearchShifts:
    def test_finds_and_verifies(self):
        fss = validate_fss(2, [[1, 2], [1, 2], [1, 2]])
        res = search_shifts(fss, 3, 6)
        assert res.ok
        assert res.verified_girth is None or res.verified_girth >= 6

    def test_verifies_through_circulant_oracle(self, monkeypatch):
        import fsscode.shiftsearch as ss

        calls = []

        def recording(H, cap, circulant=1):
            calls.append(circulant)
            return tanner_girth(H, cap, circulant=circulant)

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
        with pytest.raises(ValueError):
            search_shifts(fss, 0, 6)

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
