import json

import numpy as np
import pytest

from fsscode.construct import WeightProfile, method1, method2
from fsscode.qc import gf2_rank
from fsscode.setsystem import (
    BinaryMatrix,
    SetSystemError,
    block_stats,
    incidence_matrix,
    validate_fss,
)

# the running example: 10 size-4 blocks on 8 points with near-uniform pair coverage
EXAMPLE_BLOCKS = [
    [1, 2, 4, 5], [1, 2, 3, 7], [1, 3, 5, 8], [2, 3, 5, 6], [2, 3, 4, 8],
    [3, 4, 6, 7], [4, 5, 7, 8], [1, 4, 6, 8], [1, 5, 6, 7], [2, 6, 7, 8],
]


@pytest.fixture
def example():
    return validate_fss(8, EXAMPLE_BLOCKS, t=3)


class TestValidate:
    def test_roundtrip_and_sorting(self):
        fss = validate_fss(4, [[3, 1], [2, 4]])
        assert fss.blocks == ((1, 3), (2, 4))
        assert fss.b == 2

    def test_repeated_blocks_allowed(self):
        fss = validate_fss(2, [[1, 2], [1, 2], [1, 2]])
        assert fss.b == 3

    def test_point_out_of_range(self):
        with pytest.raises(SetSystemError):
            validate_fss(3, [[1, 4]])

    def test_duplicate_point_in_block(self):
        with pytest.raises(SetSystemError):
            validate_fss(3, [[2, 2]])

    def test_empty_block(self):
        with pytest.raises(SetSystemError):
            validate_fss(3, [[1], []])

    def test_t_too_large(self):
        with pytest.raises(SetSystemError):
            validate_fss(3, [[1, 2]], t=3)

    def test_json_roundtrip(self, example):
        from fsscode.setsystem import SetSystem

        again = SetSystem.from_json(example.to_json())
        assert again == example

    @pytest.mark.parametrize("text, match", [
        ('{"v": 3, "blocks": [[true, 2, 3], [1, 2, 3]]}', "point True"),
        ('{"v": true, "blocks": [[1]]}', "point count"),
        ('{"v": 3, "t": true, "blocks": [[1, 2]]}', "t must be"),
        ('{"blocks": [[1, 2]]}', "keys 'v' and 'blocks'"),
        ('{"v": 3}', "keys 'v' and 'blocks'"),
        ('[3, [[1, 2]]]', "keys 'v' and 'blocks'"),
        ('{"v": 3, "blocks": 5}', "blocks must be a list"),
        ('{"v": 3, "blocks": [5]}', "block 1 must be a list"),
        ('{"v": 3, "blocks": [["a", 1, "a"]]}', "point 'a'"),
    ], ids=["bool-point", "bool-v", "bool-t", "no-v", "no-blocks", "not-object",
            "blocks-not-list", "block-not-list", "str-points"])
    def test_json_rejects_malformed(self, text, match):
        from fsscode.setsystem import SetSystem

        with pytest.raises(SetSystemError, match=match):
            SetSystem.from_json(text)

    def test_bools_are_not_integers(self):
        with pytest.raises(SetSystemError, match="point count"):
            validate_fss(True, [[1]], t=True)
        with pytest.raises(SetSystemError, match="t must be"):
            validate_fss(1, [[1]], t=True)
        with pytest.raises(SetSystemError, match="point False"):
            validate_fss(2, [[False, 2]])

    def test_incidences_block_major(self):
        fss = validate_fss(3, [[1, 3], [2, 3]])
        assert fss.incidences == [(1, 1), (3, 1), (2, 2), (3, 2)]


class TestStats:
    def test_example_stats(self, example):
        st = block_stats(example)
        assert st.K == (4,) * 10
        assert st.R == (5,) * 8
        # near-uniform pair coverage: 24 pairs twice, 4 pairs three times
        assert st.coverage[1] == frozenset({5})
        assert st.coverage[2] == frozenset({2, 3})
        assert st.coverage[3] == frozenset({0, 1})

    def test_uncovered_subset_contributes_zero(self):
        st = block_stats(validate_fss(3, [[1, 2]]))
        assert 0 in st.coverage[2]


class TestBinaryMatrix:
    def test_supports_sorted_and_consistent(self):
        H = BinaryMatrix(2, 3, [(0, 2), (0, 0), (1, 1)])
        assert H.row_support == [[0, 2], [1]]
        assert H.col_support == [[0], [1], [0]]
        assert H.nnz == 3

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValueError):
            BinaryMatrix(1, 1, [(0, 0), (0, 0)])

    def test_out_of_range_entry(self):
        with pytest.raises(ValueError):
            BinaryMatrix(1, 1, [(0, 1)])

    def test_transpose(self):
        H = BinaryMatrix(2, 3, [(0, 2), (1, 0)])
        assert H.transpose().row_support == [[1], [], [0]]

    def test_edge_arrays_sorted_by_row_then_column(self):
        H = BinaryMatrix(3, 4, [(2, 1), (0, 3), (2, 0), (0, 1)])
        assert H.edge_rows.tolist() == [0, 0, 2, 2]
        assert H.edge_cols.tolist() == [1, 3, 0, 1]
        assert H.row_ptr.tolist() == [0, 2, 2, 4]
        assert H.edge_rows.dtype == H.edge_cols.dtype == np.int64
        assert H == BinaryMatrix(3, 4, np.array([[0, 1], [0, 3], [2, 0], [2, 1]]))
        assert repr(H) == "BinaryMatrix(3x4, nnz=4)"

    def test_error_messages(self):
        with pytest.raises(ValueError, match=r"duplicate entry \(1,2\)"):
            BinaryMatrix(2, 3, [(1, 2), (0, 0), (1, 2)])
        with pytest.raises(ValueError, match=r"entry \(0,3\) outside 2x3"):
            BinaryMatrix(2, 3, [(0, 0), (0, 3)])
        with pytest.raises(ValueError, match=r"entry \(-1,0\) outside 2x3"):
            BinaryMatrix(2, 3, [(-1, 0)])

    @pytest.mark.parametrize("entries", [
        [(0.0, 1.0)], [(True, False)], np.ones((2, 2), dtype=bool), [(0, None)],
        [(0, 2**70)], [(0, 1, 2)], [0, 1], [[0, 1], [2]], np.zeros((2, 2, 2), int),
        (pair for pair in [(0, 1)]),
    ], ids=["float", "bool", "bool-array", "object", "huge-int", "triple",
            "flat", "ragged", "3d", "generator"])
    def test_rejects_entries_that_are_not_integer_pairs(self, entries):
        with pytest.raises(ValueError):
            BinaryMatrix(3, 3, entries)

    @pytest.mark.parametrize("shape", [(-1, 2), (2, -1), (1.5, 2), (2, 2.0),
                                       (True, 2), (2, False), ("3", 2), (None, 2),
                                       (2**40, 2**40)])
    def test_rejects_bad_dimensions(self, shape):
        with pytest.raises(ValueError):
            BinaryMatrix(*shape, [])

    def test_numpy_indices_become_python_ints(self):
        D = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool)
        for H in (BinaryMatrix(np.int64(3), np.uint8(3), list(zip(*np.nonzero(D)))),
                  BinaryMatrix(3, 3, np.argwhere(D).astype(np.uint16))):
            assert H.to_dense().tolist() == D.astype(int).tolist()
            for value in (H.rows, H.cols, H.nnz,
                          *(x for sup in H.row_support + H.col_support for x in sup)):
                assert type(value) is int
            assert gf2_rank(H) == 2  # bit_length needs Python ints

    def test_supports_match_entry_by_entry_build(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            rows, cols = (int(x) for x in rng.integers(0, 9, size=2))
            cells = [(r, c) for r in range(rows) for c in range(cols)]
            picked = [cells[i] for i in rng.permutation(len(cells))[
                :rng.integers(0, len(cells) + 1)]]
            row_sup = [sorted(c for r, c in picked if r == i) for i in range(rows)]
            col_sup = [sorted(r for r, c in picked if c == j) for j in range(cols)]
            H = BinaryMatrix(rows, cols, picked)
            assert (H.row_support, H.col_support, H.nnz) == (row_sup, col_sup,
                                                            len(picked))
            assert H.transpose().row_support == col_sup
            assert H.transpose().transpose() == H

    def test_column_order_matches_transpose(self):
        """``column_order`` and the ``col_support`` read from it against
        the transposed matrix, with empty rows and columns common."""
        rng = np.random.default_rng(27)
        empty_rows = empty_cols = 0
        for _ in range(200):
            rows, cols = (int(x) for x in rng.integers(0, 12, size=2))
            D = rng.random((rows, cols)) < rng.uniform(0.05, 0.5)
            H = BinaryMatrix(rows, cols, np.argwhere(D))
            before = set(vars(H))
            order, col_ptr = H.column_order()
            assert set(vars(H)) == before  # nothing cached on H
            T = H.transpose()
            assert col_ptr.tolist() == T.row_ptr.tolist()
            assert H.edge_rows[order].tolist() == T.edge_cols.tolist()
            assert H.edge_cols[order].tolist() == T.edge_rows.tolist()
            assert H.col_support == T.row_support
            empty_rows += (~D.any(axis=1)).any()
            empty_cols += (~D.any(axis=0)).any()
        assert min(empty_rows, empty_cols) >= 50


class TestIncidenceMatrix:
    def test_example_matrix_shape(self, example):
        # all 28 pairs of 8 points are covered twice, so both filters agree
        H1 = incidence_matrix(example, min_replication=1)
        H2 = incidence_matrix(example, min_replication=2)
        assert (H1.rows, H1.cols) == (10, 28)
        assert H1.row_support == H2.row_support

    def test_example_first_row(self, example):
        # block {1,2,4,5} covers pairs 12,14,15,24,25,45 -> lexicographic
        # pair columns 1,3,4,9,10,19 (1-based)
        H = incidence_matrix(example, min_replication=1)
        assert [c + 1 for c in H.row_support[0]] == [1, 3, 4, 9, 10, 19]

    def test_min_replication_2_drops_private_pairs(self):
        fss = validate_fss(4, [[1, 2, 3], [1, 2, 4]], t=3)
        H = incidence_matrix(fss)  # only the pair {1,2} is shared
        assert H.cols == 1
        assert H.col_labels == [(1, 2)]

    def test_min_replication_2_drops_private_points(self):
        fss = validate_fss(4, [[1, 2, 3], [1, 2, 4]])
        H = incidence_matrix(fss)  # t=2: columns are shared points
        assert H.col_labels == [(1,), (2,)]

    def test_t2_identity(self):
        fss = validate_fss(4, [[1, 2], [3, 4], [1, 3]])
        H = incidence_matrix(fss, min_replication=1)
        assert H.col_labels == [(1,), (2,), (3,), (4,)]
        assert [[c + 1 for c in sup] for sup in H.row_support] == [
            list(b) for b in fss.blocks]

    def test_bad_min_replication(self, example):
        with pytest.raises(ValueError):
            incidence_matrix(example, min_replication=3)


class TestIntegerEntryPoints:
    """Each of these once let a non-integer through, or raised TypeError
    (or a message about another parameter) deep inside the library."""

    @pytest.mark.parametrize("call, match", [
        (lambda fss: method1(fss, 12.0, [5]), "target girth must be an int"),
        (lambda fss: method1(fss, "12", [5]), "target girth must be an int"),
        (lambda fss: method2(10, WeightProfile((3, 3)), 8.0), "target girth"),
        (lambda fss: method2(10.5, WeightProfile((3, 3)), 8), "v must be"),
        (lambda fss: method2("10", WeightProfile((3, 3)), 8), "v must be"),
        (lambda fss: WeightProfile((3.0, 3)), "block size"),
        (lambda fss: WeightProfile((3, "a")), "block size"),
        (lambda fss: WeightProfile((3, True)), "block size"),
        (lambda fss: incidence_matrix(fss, True), "min_replication"),
        (lambda fss: incidence_matrix(fss, 1.0), "min_replication"),
    ], ids=["method1-float-girth", "method1-str-girth", "method2-float-girth",
            "method2-float-v", "method2-str-v", "profile-float",
            "profile-str", "profile-bool", "min-replication-bool",
            "min-replication-float"])
    def test_rejects_non_integer(self, call, match):
        with pytest.raises(ValueError, match=match):
            call(validate_fss(2, [[1, 2]] * 3))

    def test_weight_profile_stores_ints(self):
        profile = WeightProfile((np.int64(3), 2))
        assert profile.K == (3, 2)
        assert all(type(k) is int for k in profile.K)

    def test_validate_takes_numpy_integers_as_ints(self):
        fss = validate_fss(np.int64(3), [[np.int64(1), 2]], np.int8(2))
        assert fss == validate_fss(3, [[1, 2]])
        assert json.loads(fss.to_json()) == {"v": 3, "t": 2, "blocks": [[1, 2]]}
        assert all(type(x) is int for x in (fss.v, fss.t, *fss.blocks[0]))

    def test_validate_still_rejects_numpy_bool(self):
        with pytest.raises(SetSystemError, match="point"):
            validate_fss(3, [[np.True_, 2]])

