"""``block_stats`` and ``incidence_matrix`` against brute-force references.

Both read the per-block subset counts.  The references here are the
definitions they replaced: ``R`` by testing every point against every block,
coverage by counting the blocks that hold each i-subset of the whole point
set, and the incidence matrix by testing every (t-1)-subset of the point set
against every block.  The seeded systems repeat blocks and leave points in no
block.
"""

import random
from itertools import combinations

import pytest

from fsscode.setsystem import (
    SystemStats,
    block_stats,
    incidence_matrix,
    validate_fss,
)


def reference_stats(fss):
    K = tuple(len(b) for b in fss.blocks)
    R = tuple(sum(1 for b in fss.blocks if x in b) for x in range(1, fss.v + 1))
    coverage = {}
    for i in range(fss.t + 1):
        coverage[i] = frozenset(
            sum(1 for b in fss.blocks if set(sub) <= set(b))
            for sub in combinations(range(1, fss.v + 1), i))
    return SystemStats(K=K, R=R, coverage=coverage)


def reference_incidence(fss, min_replication):
    block_sets = [set(b) for b in fss.blocks]
    labels = [sub for sub in combinations(range(1, fss.v + 1), fss.t - 1)
              if sum(1 for bs in block_sets if set(sub) <= bs) >= min_replication]
    entries = {(i, j) for i, bs in enumerate(block_sets)
               for j, sub in enumerate(labels) if set(sub) <= bs}
    return labels, entries


def seeded_system(seed, t):
    """A validated system of 1..7 points and 1..8 blocks of at least one
    t-block, with repeats, shuffled points and often unused points."""
    rng = random.Random(seed)
    v = rng.randint(t, 7)
    used = rng.sample(range(1, v + 1), rng.randint(t, v))
    blocks = [rng.sample(used, t)]
    for _ in range(rng.randint(0, 7)):
        if rng.random() < 0.2:
            blocks.append(list(rng.choice(blocks)))
        else:
            blocks.append(rng.sample(used, rng.randint(1, len(used))))
    rng.shuffle(blocks)
    return validate_fss(v, blocks, t)


SYSTEMS = [seeded_system(1000 * t + seed, t) for t in (1, 2, 3)
           for seed in range(120)]


def test_systems_cover_the_cases():
    assert len(SYSTEMS) >= 300
    assert {fss.t for fss in SYSTEMS} == {1, 2, 3}
    assert any(0 in block_stats(fss).R for fss in SYSTEMS)
    assert any(len(set(fss.blocks)) < fss.b for fss in SYSTEMS)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_block_stats_match_reference(t):
    for fss in SYSTEMS:
        if fss.t == t:
            assert block_stats(fss) == reference_stats(fss), fss


@pytest.mark.parametrize("min_replication", [1, 2])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_incidence_matrix_matches_reference(t, min_replication):
    for fss in SYSTEMS:
        if fss.t != t:
            continue
        H = incidence_matrix(fss, min_replication)
        labels, entries = reference_incidence(fss, min_replication)
        assert H.col_labels == labels, fss
        assert (H.rows, H.cols) == (fss.b, len(labels))
        assert set(zip(H.edge_rows.tolist(), H.edge_cols.tolist())) == entries
        assert H.nnz == len(entries)
