import numpy as np
from hypothesis import given, strategies as st

from longpred.csvio import write_csv

from _oracles import reference_write_csv

# every kind of cell the commands write, and the numpy scalars and odd types
# a caller might pass: each row shape gets its own template, a row holding a
# bool goes through fmt
CELLS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
    st.none(),
    st.tuples(st.integers(), st.floats()),
)
ROWS = st.lists(st.lists(CELLS, max_size=5).map(tuple), max_size=12)


@given(ROWS)
def test_writer_matches_the_cell_by_cell_writer(tmp_path_factory, rows):
    out = tmp_path_factory.getbasetemp()
    args = ("longpred/test v1", ["a comment"], ["x", "y"])
    got = write_csv(out / "got.csv", *args, iter(rows)).read_bytes()
    assert got == reference_write_csv(out / "want.csv", *args, rows).read_bytes()

