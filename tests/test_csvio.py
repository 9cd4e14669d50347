import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from longpred.csvio import write_csv

from _oracles import reference_write_csv

# every kind of cell the commands write, and the numpy scalars and odd types
# a caller might pass, split by the template slot they take: ``%.17g`` for a
# float, ``%s`` for the rest.  No Python bool: a flag is written by its
# caller as the text true/false
FLOAT_CELLS = st.one_of(st.floats(), st.floats().map(np.float64))
OTHER_CELLS = st.one_of(
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
    st.none(),
    st.tuples(st.integers(), st.floats()),
)


@st.composite
def files(draw):
    """Rows of one file: each has the first row's length and puts a float
    where the first row has one."""
    pattern = draw(st.lists(st.booleans(), max_size=5))
    row = st.tuples(*(FLOAT_CELLS if is_float else OTHER_CELLS for is_float in pattern))
    return draw(st.lists(row, max_size=12))


@given(files())
def test_writer_matches_the_cell_by_cell_writer(tmp_path_factory, rows):
    out = tmp_path_factory.getbasetemp()
    args = ("longpred/test v1", ["a comment"], ["x", "y"])
    got = write_csv(out / "got.csv", *args, iter(rows)).read_bytes()
    assert got == reference_write_csv(out / "want.csv", *args, rows).read_bytes()


@pytest.mark.parametrize("rows", [
    [(0, 1.5), (1, 2.5, 3.5)],
    [(0, 1.5), (1,)],
    [(), (1,)],
    [(0.5, "a", 1), (0.25, "b", 2), (0.125, "c")],
])
def test_a_row_of_another_length_raises(tmp_path, rows):
    with pytest.raises(ValueError, match="first row's"):
        write_csv(tmp_path / "x.csv", "longpred/test v1", [], ["x", "y"], rows)


def test_a_list_row_is_written_as_its_tuple(tmp_path):
    args = ("longpred/test v1", [], ["j", "value"])
    rows = [[0, 0.1], (1, 0.2)]
    got = write_csv(tmp_path / "got.csv", *args, rows).read_bytes()
    assert got == reference_write_csv(tmp_path / "want.csv", *args, rows).read_bytes()


def test_writer_streams_rows_without_a_file_image(tmp_path):
    # 200,000 rows make a 5 MB file; holding its lines, its text or its
    # bytes would take tens of MB, one row at a time takes a few kB
    args = ("longpred/test v1", ["a comment"], ["j", "value"])

    def rows():
        return ((j, j / 7) for j in range(200_000))

    tracemalloc.start()
    try:
        got = write_csv(tmp_path / "got.csv", *args, rows())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert got.read_bytes() == reference_write_csv(tmp_path / "want.csv", *args,
                                                   rows()).read_bytes()


def test_a_rejected_row_leaves_no_file(tmp_path):
    # 1000 rows fill more than the write buffer, so part of the file is on disk
    path = tmp_path / "x.csv"
    rows = [(j, j / 7) for j in range(1000)] + [(1000,)]
    with pytest.raises(ValueError, match="first row's"):
        write_csv(path, "longpred/test v1", [], ["j", "value"], rows)
    assert not path.exists()


def test_an_error_raised_by_the_rows_leaves_no_file(tmp_path):
    path = tmp_path / "x.csv"

    def rows():
        yield from ((j, j / 7) for j in range(1000))
        raise RuntimeError("the row source failed")

    with pytest.raises(RuntimeError, match="the row source failed"):
        write_csv(path, "longpred/test v1", [], ["j", "value"], rows())
    assert not path.exists()
