import json

import numpy as np
import pytest

from fsscode.girth import bsg_shortest_closed_walk
from fsscode.qc import (
    QCProtoMatrix,
    ShiftSequence,
    assemble,
    exact_rate,
    expand,
    gf2_rank,
    read_alist,
    shift_sequence_from_list,
    shifts_from_json,
    shifts_to_json,
    write_alist,
)
from fsscode.setsystem import validate_fss


@pytest.fixture
def pair_system():
    return validate_fss(2, [[1, 2], [1, 2], [1, 2]])


class TestShiftSequence:
    def test_range_check(self):
        with pytest.raises(ValueError):
            ShiftSequence(m=3, entries={(1, 1): 3})

    @pytest.mark.parametrize("s", [1.5, 1.0, True, "1", None])
    def test_rejects_non_integer_shift(self, s):
        # _lift would truncate 1.5 to the shift-1 circulant
        with pytest.raises(ValueError, match=r"s\[1,1\]"):
            ShiftSequence(m=3, entries={(1, 1): s})

    @pytest.mark.parametrize("m", [True, 3.0, 2.5, "3", None])
    def test_rejects_non_integer_modulus(self, m):
        with pytest.raises(ValueError, match="modulus"):
            ShiftSequence(m=m, entries={(1, 1): 0})

    @pytest.mark.parametrize("key", [5, ("a", "b"), (1,), (1, 2, 3), (1.0, 1),
                                     (True, 1), "ab"])
    def test_rejects_non_pair_key(self, key):
        # a key must be a (point, block) pair of integers, checked here and
        # not first by assemble's cover check
        with pytest.raises(ValueError, match="shift key"):
            ShiftSequence(m=3, entries={key: 0})

    def test_takes_numpy_integers(self, pair_system):
        entries = {inc: np.int64(k) for k, inc in enumerate(pair_system.incidences)}
        S = ShiftSequence(m=np.int32(7), entries=entries)
        assert expand(assemble(pair_system, S)) == expand(assemble(
            pair_system, shift_sequence_from_list(pair_system, 7, range(6))))

    def test_assemble_requires_exact_cover(self, pair_system):
        S = ShiftSequence(m=2, entries={(1, 1): 0})
        with pytest.raises(ValueError):
            assemble(pair_system, S)

    def test_from_list_explicit(self, pair_system):
        S = shift_sequence_from_list(pair_system, 5, [0, 1, 0, 2, 0, 3])
        assert S.entries[(2, 3)] == 3

    def test_from_list_compressed(self, pair_system):
        S = shift_sequence_from_list(pair_system, 5, [1, 2, 3])
        assert S.entries[(1, 2)] == 0
        assert S.entries[(2, 2)] == 2

    def test_from_list_bad_length(self, pair_system):
        with pytest.raises(ValueError):
            shift_sequence_from_list(pair_system, 5, [1, 2])

    @pytest.mark.parametrize("m", [0, -3])
    def test_from_list_rejects_nonpositive_modulus(self, pair_system, m):
        with pytest.raises(ValueError, match="modulus must be positive"):
            shift_sequence_from_list(pair_system, m, [1, 2, 3])

    @pytest.mark.parametrize("m", [True, 5.0, "5"])
    def test_from_list_rejects_non_integer_modulus(self, pair_system, m):
        with pytest.raises(ValueError, match="modulus"):
            shift_sequence_from_list(pair_system, m, [1, 2, 3])

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, "2", None])
    def test_from_list_rejects_non_integer_values(self, pair_system, bad):
        # checked before ``% m``, which would turn True into 1 and keep 2.7
        for values in ([1, bad, 3], [0, 1, 0, bad, 0, 3]):
            with pytest.raises(ValueError, match="integers"):
                shift_sequence_from_list(pair_system, 5, values)

    def test_from_list_takes_negative_and_numpy_values(self, pair_system):
        S = shift_sequence_from_list(pair_system, 5, [-1, np.int64(7), 3])
        assert S == shift_sequence_from_list(pair_system, 5, [4, 2, 3])

    def test_json_roundtrip(self, pair_system):
        S = shift_sequence_from_list(pair_system, 5, [1, 2, 3])
        again = shifts_from_json(pair_system, shifts_to_json(pair_system, S))
        assert again == S

    def test_json_extra_keys_allowed(self, pair_system):
        # ``fsscode shifts`` output carries meta and counts around the shifts
        S = shift_sequence_from_list(pair_system, 5, [1, 2, 3])
        doc = json.loads(shifts_to_json(pair_system, S))
        doc.update(meta={"tool": "fsscode"}, status="ok", expansions=3)
        assert shifts_from_json(pair_system, json.dumps(doc)) == S

    @pytest.mark.parametrize("text, match", [
        ('{"m": 5, "shifts": [{"point": 1, "block": 1, "s": 0},'
         ' {"point": 1, "block": 1, "s": 3}]}', "repeats point 1 of block 1"),
        ('{"shifts": []}', "keys 'm' and 'shifts'"),
        ('{"m": 5}', "keys 'm' and 'shifts'"),
        ('[5]', "keys 'm' and 'shifts'"),
        ('{"m": 5, "shifts": {}}', "integer 'm' and a list"),
        ('{"m": "5", "shifts": []}', "integer 'm' and a list"),
        ('{"m": 5, "shifts": [{"point": 1, "s": 0}]}', "record 0 needs keys"),
        ('{"m": 5, "shifts": [7]}', "record 0 needs keys"),
        ('{"m": 5, "shifts": [{"point": 1, "block": 1, "s": 1.5}]}', "integers"),
        ('{"m": 5, "shifts": [{"point": "1", "block": 1, "s": 0}]}', "integers"),
        ('{"m": 5, "shifts": [{"point": 1, "block": true, "s": 0}]}', "integers"),
    ])
    def test_json_rejects_malformed(self, pair_system, text, match):
        with pytest.raises(ValueError, match=match):
            shifts_from_json(pair_system, text)

    def test_json_rejects_file_of_another_system(self, pair_system):
        other = validate_fss(3, [[1, 2, 3]])
        text = shifts_to_json(other, shift_sequence_from_list(other, 5, [1, 2]))
        with pytest.raises(ValueError, match="shift sequence mismatch"):
            shifts_from_json(pair_system, text)
        assert shifts_from_json(other, text).entries == {
            (1, 1): 0, (2, 1): 1, (3, 1): 2}

    def test_from_list_compressed_singleton_block(self):
        # a one-point block contributes only its implicit zero
        fss = validate_fss(2, [[1], [1, 2]], t=1)
        S = shift_sequence_from_list(fss, 5, [9])
        assert S.entries == {(1, 1): 0, (1, 2): 0, (2, 2): 4}
        S = shift_sequence_from_list(fss, 5, [6, 7, 8])
        assert S.entries == {(1, 1): 1, (1, 2): 2, (2, 2): 3}

    def test_proto_matrix_repr_and_equality(self, pair_system):
        q = assemble(pair_system, shift_sequence_from_list(pair_system, 5, [1, 2, 3]))
        assert repr(q) == "QCProtoMatrix(v=2, b=3, m=5)"
        again = assemble(pair_system,
                         shift_sequence_from_list(pair_system, 5, [0, 1, 0, 2, 0, 3]))
        assert q == again
        assert q != assemble(pair_system,
                             shift_sequence_from_list(pair_system, 5, [1, 2, 4]))


# a full 2x2 grid at m=3: its 2-step walk sums 1, so going round it three
# times, 6 steps, is the shortest walk with a zero shift sum
GRID = {(1, 1): 0, (2, 1): 0, (1, 2): 0, (2, 2): 1}


class TestQCProtoMatrix:
    """The grid is checked where it is built, so ``expand`` and the BSG
    query never read a cell outside it or a shift outside 0..m-1."""

    @pytest.mark.parametrize("read", [expand, lambda q: bsg_shortest_closed_walk(q, 6)],
                             ids=["expand", "bsg"])
    @pytest.mark.parametrize("cells, match", [
        # a cell in column 0 made expand raise "entry (0,-3) outside 6x6"
        # and the BSG query raise KeyError
        ({(1, 0): 0, (2, 0): 0, **GRID}, r"cell \(1,0\) outside the 2x2 grid"),
        ({**GRID, (3, 1): 0}, r"cell \(3,1\) outside the 2x2 grid"),
        ({**GRID, (0, 2): 0}, r"cell \(0,2\) outside"),
        # a shift of 7 at m=3 expanded and read girth as shift 1 would
        ({**GRID, (2, 2): 7}, r"s\[2,2\]=7 is not an integer in 0..2"),
        ({**GRID, (2, 2): -1}, r"s\[2,2\]=-1"),
        ({**GRID, (2, 2): 1.0}, r"s\[2,2\]=1.0"),
        ({**GRID, (2, 2): True}, r"s\[2,2\]=True"),
        ({**GRID, (2, "2"): 1}, r"cell key \(2, '2'\) is not a pair"),
        ({**GRID, 5: 1}, r"cell key 5 is not a pair"),
        ({**GRID, (1, 2, 3): 1}, r"cell key \(1, 2, 3\) is not a pair"),
        ([((1, 1), 0)], r"cells must be a dict"),
    ])
    def test_rejects_malformed_cells(self, read, cells, match):
        with pytest.raises(ValueError, match=match):
            read(QCProtoMatrix(2, 2, 3, cells))

    @pytest.mark.parametrize("v, b, m, name", [
        (0, 2, 3, "point count"), (2.0, 2, 3, "point count"),
        (2, True, 3, "block count"), (2, -1, 3, "block count"),
        (2, 2, 0, "modulus"), (2, 2, "3", "modulus"),
    ])
    def test_rejects_bad_dimensions(self, v, b, m, name):
        with pytest.raises(ValueError, match=name):
            QCProtoMatrix(v, b, m, {})

    def test_numpy_integers_read_as_ints(self):
        q = QCProtoMatrix(2, 2, 3, GRID)
        again = QCProtoMatrix(np.int64(2), np.uint8(2), np.int32(3),
                              {(np.int64(i), j): np.int8(s)
                               for (i, j), s in GRID.items()})
        assert expand(again) == expand(q)
        assert bsg_shortest_closed_walk(again, 6) == bsg_shortest_closed_walk(q, 6)
        assert bsg_shortest_closed_walk(q, 6).girth == 6


class TestExpand:
    def test_shape_and_blocks(self, pair_system):
        S = shift_sequence_from_list(pair_system, 3, [0, 1, 2])
        H = expand(assemble(pair_system, S))
        assert (H.rows, H.cols) == (6, 9)
        D = H.to_dense()
        # entry (i, j) = 1 iff j = i + s mod m
        assert D[0:3, 0:3].tolist() == np.roll(np.eye(3), 0, axis=1).tolist()
        assert D[3:6, 3:6].tolist() == np.roll(np.eye(3), 1, axis=1).tolist()

    def test_transposes_when_rows_exceed_cols(self):
        fss = validate_fss(3, [[1, 2, 3]])
        S = shift_sequence_from_list(fss, 2, [0, 1, 1])
        H = expand(assemble(fss, S))
        assert (H.rows, H.cols) == (2, 6)  # 3 blocks-rows > 1 -> transposed

    def test_square_not_transposed(self):
        fss = validate_fss(2, [[1, 2], [1, 2]])
        S = shift_sequence_from_list(fss, 2, [0, 0, 0, 1])
        H = expand(assemble(fss, S))
        assert (H.rows, H.cols) == (4, 4)

    def test_empty_cells_are_zero_blocks(self):
        fss = validate_fss(3, [[1, 2], [2, 3], [1, 3]])
        S = shift_sequence_from_list(fss, 2, [0] * 6)
        D = expand(assemble(fss, S)).to_dense()
        assert not D[4:6, 0:2].any()  # point 3 not in block 1


def _ref_gf2_rank(H):
    """The dense uint64 bitset elimination ``gf2_rank`` once used, kept as
    the reference for its replacement."""
    if H.cols > 20000:
        raise ValueError("dense GF(2) rank limited to 20000 columns")
    words = (H.cols + 63) // 64
    rows = np.zeros((H.rows, words), dtype=np.uint64)
    for r, c in zip(H.edge_rows.tolist(), H.edge_cols.tolist()):
        rows[r, c >> 6] |= np.uint64(1 << (c & 63))
    rank = 0
    for c in range(H.cols):
        w, bit = c >> 6, np.uint64(1 << (c & 63))
        pivot = None
        for r in range(rank, H.rows):
            if rows[r, w] & bit:
                pivot = r
                break
        if pivot is None:
            continue
        rows[[rank, pivot]] = rows[[pivot, rank]]
        mask = (rows[:, w] & bit).astype(bool)
        mask[rank] = False
        rows[mask] ^= rows[rank]
        rank += 1
        if rank == H.rows:
            break
    return rank


class TestRate:
    def test_gf2_rank_known(self):
        from fsscode.setsystem import BinaryMatrix

        H = BinaryMatrix(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)])
        # row3 = row1 + row2 over GF(2)
        assert gf2_rank(H) == 2

    def test_gf2_rank_matches_bitset_reference(self):
        from fsscode.setsystem import BinaryMatrix

        rng = np.random.default_rng(8)
        full = 0
        for _ in range(500):
            rows, cols = rng.integers(0, 30, size=2)
            D = rng.random((rows, cols)) < rng.uniform(0.05, 0.6)
            if rows >= 2 and rng.random() < 0.3:  # force dependent rows
                D[-1] = D[0] ^ D[rows // 2]
            H = BinaryMatrix(rows, cols, list(zip(*np.nonzero(D))))
            want = _ref_gf2_rank(H)
            assert gf2_rank(H) == want
            full += want == min(rows, cols)
        assert 50 < full < 450

    def test_gf2_rank_of_reference_codes(self):
        # every bundled code has exactly two dependent checks, the n=25,700
        # one included, which the bitset reference cannot take
        from fsscode import load_paper_tables, reference_code

        checked = 0
        for row in load_paper_tables()["girth_codes"]:
            H = expand(reference_code(row["name"]))
            assert gf2_rank(H) == H.rows - 2, row["name"]
            if H.cols <= 20000:
                assert _ref_gf2_rank(H) == H.rows - 2, row["name"]
                checked += 1
        assert checked == 6

    def test_exact_rate_at_least_bound(self, pair_system):
        S = shift_sequence_from_list(pair_system, 3, [0, 1, 2])
        H = expand(assemble(pair_system, S))
        # H has v*m rows and b*m columns, so its rate is at least 1 - v/b
        assert exact_rate(H) >= 1 - pair_system.v / pair_system.b - 1e-12


class TestAlist:
    def test_roundtrip(self, pair_system, tmp_path):
        S = shift_sequence_from_list(pair_system, 3, [0, 1, 2])
        H = expand(assemble(pair_system, S))
        path = tmp_path / "h.alist"
        write_alist(H, path)
        again = read_alist(path)
        assert again == H

    def test_sections_compared_without_support_lists(self, tmp_path):
        # the check compares edge arrays: the matrix read builds no
        # per-row or per-column Python lists until a caller asks for them
        from fsscode import reference_code

        H = expand(reference_code("fss-3-10-m36"))
        path = tmp_path / "h.alist"
        write_alist(H, path)
        again = read_alist(path)
        assert again == H
        assert not {"row_support", "col_support"} & set(vars(again))

    def test_header_is_cols_rows(self, pair_system, tmp_path):
        S = shift_sequence_from_list(pair_system, 3, [0, 1, 2])
        H = expand(assemble(pair_system, S))
        path = tmp_path / "h.alist"
        write_alist(H, path)
        first = path.read_text().splitlines()[0].split()
        assert first == [str(H.cols), str(H.rows)]

    def test_unpadded_irregular_lines(self, tmp_path):
        from fsscode.setsystem import BinaryMatrix

        path = tmp_path / "h.alist"
        path.write_text("3 2\n2 3\n1 2 1\n3 1\n1\n1 2\n1\n1 2 3\n2\n")
        assert read_alist(path) == BinaryMatrix(
            2, 3, [(0, 0), (0, 1), (1, 1), (0, 2)])

    def test_rejects_truncated_reference_code(self, tmp_path):
        from fsscode import reference_code

        H = expand(reference_code("fss-3-10-m36"))
        path = tmp_path / "h.alist"
        write_alist(H, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:200]) + "\n")
        with pytest.raises(ValueError, match="ends early"):
            read_alist(path)

    @pytest.mark.parametrize("text, match", [
        ("3 2\n", "ends early"),
        ("3 2 1\n2 3\n", "header"),
        ("3 2\n2 2\n2 2 2\n3 3\n", "maximum degrees"),
        ("3 2\n2 3\n2 2\n3 3\n", "degree lists"),
        ("3 2\n2 3\n2 2 2\n3 3\n1 2\n1 2\n1 2\n1 2 3\n1 2 x\n",
         "non-integer"),
        ("3 2\n2 3\n2 2 2\n3 3\n1 2\n1 1\n1 2\n1 2 3\n1 2 3\n",
         "distinct"),
        ("3 2\n2 3\n2 2 2\n3 3\n1 2\n1 3\n1 2\n1 2 3\n1 2 3\n",
         "in 1..2"),
        ("3 2\n2 3\n2 2 2\n3 3\n1 2\n1 2\n1 2\n1 2 3\n1 2 4\n",
         "in 1..3"),
        ("3 2\n2 2\n2 1 1\n2 2\n1 2\n1 0\n2 0\n1 2\n2 3\n",
         "different edges"),
        ("3 2\n2 2\n2 1 1\n2 2\n1 2\n1 0\n2 0\n1 2\n1 3\n1 2\n",
         "after the row section"),
    ])
    def test_rejects_inconsistent_files(self, tmp_path, text, match):
        path = tmp_path / "h.alist"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_alist(path)

    @pytest.mark.parametrize("text, line", [
        ("2 1\n0 0\n0 -1\n0\n", 3),
        ("2 1\n0 0\n0 0\n-1\n", 4),
        ("3 2\n2 3\n2 2 -2\n3 3\n", 3),
    ])
    def test_rejects_negative_degree(self, tmp_path, text, line):
        # a negative degree passes the maximum-degree check when another
        # entry of its list is the maximum, and a maximum of 0 reads no
        # adjacency line that could reject it
        path = tmp_path / "h.alist"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}: negative degree"):
            read_alist(path)

    def test_irregular_padding(self, tmp_path):
        from fsscode.setsystem import BinaryMatrix

        H = BinaryMatrix(2, 3, [(0, 0), (0, 1), (1, 1), (0, 2)])
        path = tmp_path / "h.alist"
        write_alist(H, path)
        assert read_alist(path) == H

    @pytest.mark.parametrize("shape", [(2, 3), (0, 3), (0, 0)])
    def test_roundtrip_empty(self, tmp_path, shape):
        from fsscode.setsystem import BinaryMatrix

        H = BinaryMatrix(*shape, [])
        path = tmp_path / "h.alist"
        write_alist(H, path)
        assert read_alist(path) == H


class TestReferenceCode:
    def test_every_row_matches_a_direct_build(self):
        from fsscode import load_paper_tables, reference_code

        for row in load_paper_tables()["girth_codes"]:
            fss = validate_fss(row["v"], [list(range(1, row["v"] + 1))] * row["b"])
            S = shift_sequence_from_list(fss, row["m"], row["shifts"])
            assert reference_code(row["name"]) == assemble(fss, S)

    def test_unknown_name(self):
        from fsscode import reference_code

        with pytest.raises(ValueError, match="unknown reference code"):
            reference_code("nope")

