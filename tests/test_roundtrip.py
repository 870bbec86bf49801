"""Round-trip properties of the three serialised forms: alist matrices,
shift JSON and set-system JSON.  Derandomized, so every run draws the
same examples."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsscode.qc import (
    ShiftSequence,
    read_alist,
    shifts_from_json,
    shifts_to_json,
    write_alist,
)
from fsscode.setsystem import BinaryMatrix, SetSystem, validate_fss

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    entries = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return BinaryMatrix(rows, cols, entries)


@st.composite
def set_systems(draw):
    v = draw(st.integers(1, 6))
    blocks = draw(st.lists(
        st.lists(st.integers(1, v), min_size=1, unique=True), max_size=6))
    t = draw(st.integers(1, max(map(len, blocks), default=3)))
    return validate_fss(v, blocks, t)


@PROPERTY
@given(matrices())
@example(BinaryMatrix(0, 0, []))
@example(BinaryMatrix(0, 3, []))
@example(BinaryMatrix(3, 0, []))
@example(BinaryMatrix(3, 4, [(0, 1), (2, 1)]))  # empty rows and columns
def test_alist_round_trip(tmp_path_factory, H):
    path = tmp_path_factory.mktemp("alist") / "h.alist"
    write_alist(H, path)
    assert read_alist(path) == H


@PROPERTY
@given(set_systems(), st.integers(1, 40), st.data())
def test_shift_json_round_trip(fss, m, data):
    values = data.draw(st.lists(st.integers(0, m - 1), min_size=len(fss.incidences),
                                max_size=len(fss.incidences)))
    S = ShiftSequence(m=m, entries=dict(zip(fss.incidences, values)))
    back = shifts_from_json(fss, shifts_to_json(fss, S))
    assert (back.m, back.entries) == (S.m, S.entries)


@PROPERTY
@given(set_systems())
def test_set_system_json_round_trip(fss):
    assert SetSystem.from_json(fss.to_json()) == fss
