"""The CLI's documents render rows of numbers and same-shaped report dicts
a column at a time; every byte must be that of the renderer with one
recursive call per value (``oracles.render_reference``), and every CSV
byte that of the value-by-value CSV (``oracles.render_csv_reference``)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import render_csv_reference, render_reference

from infmat.cli import render_csv, render_document

# floats at the edges: nan, ±inf, -0.0, subnormals and the largest values
edge_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1e16, 1e17, 1e-5, 0.0001, 1.0, -1.0]))
numpy_scalars = st.one_of(
    edge_floats.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(-2**31, 2**31 - 1).map(np.int32))
leaves = st.one_of(edge_floats, st.integers(-10**30, 10**30), st.booleans(), st.none(),
                   st.text(max_size=8), numpy_scalars)
keys = st.one_of(st.text(max_size=6), st.integers(-3, 3), st.booleans(), st.none(),
                 st.floats(allow_nan=False, allow_infinity=False, width=16))


@st.composite
def tables(draw, children):
    """A dict or list of dicts with one key order, each key's values drawn
    from one strategy (so most columns share a type, and some mix bools
    and ints or floats and ints), and now and then a child with its keys
    in another order, one key swapped for another, or a key of its own."""
    names = draw(st.lists(st.text(max_size=5), min_size=1, max_size=5, unique=True))
    mixed = [st.one_of(st.booleans(), st.integers(0, 1)), st.one_of(edge_floats, st.integers())]
    columns = [draw(st.sampled_from([edge_floats, st.integers(), st.booleans(), st.none(),
                                     st.text(max_size=4), *mixed, leaves, children]))
               for _ in names]
    rows = draw(st.lists(st.tuples(*columns), min_size=1, max_size=6))
    dicts = [dict(zip(names, row)) for row in rows]
    if draw(st.booleans()):
        k, odd = draw(st.integers(0, len(dicts) - 1)), draw(st.integers(0, 2))
        items = list(dicts[k].items())
        dicts[k] = dict(reversed(items) if odd == 0 else items[1:] if odd == 1 else items)
        if odd:
            dicts[k][draw(keys)] = draw(leaves)
    if draw(st.booleans()):
        return dicts
    return {draw(st.text(max_size=4)) + str(k): child for k, child in enumerate(dicts)}


trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
        st.lists(edge_floats, max_size=12), st.lists(st.one_of(edge_floats, st.integers()),
                                                     max_size=6),
        st.dictionaries(keys, children, max_size=5), tables(children)),
    max_leaves=40)


@given(trees)
def test_documents_render_the_reference_bytes(tree):
    assert render_document(tree) == render_reference(tree) + "\n"


@given(st.lists(st.lists(edge_floats, min_size=1, max_size=6), min_size=1, max_size=6))
def test_rows_of_floats_render_the_reference_bytes(rows):
    rows = [row * (6 // len(row) + 1) for row in rows]  # rows of several lengths
    doc = {"matrix": rows, "report": {"estimate": rows[0][0], "status": "converged"}}
    assert render_document(doc) == render_reference(doc) + "\n"


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
@given(data=st.data())
def test_csv_renders_the_reference_bytes(dtype, data):
    shape = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    cells = st.integers(-2**62, 2**62) if dtype is np.int64 else edge_floats
    values = data.draw(st.lists(cells, min_size=shape[0] * shape[1],
                                max_size=shape[0] * shape[1]))
    with np.errstate(over="ignore"):  # float32 of the largest floats is inf
        array = np.array(values, dtype=dtype).reshape(shape)
    assert render_csv(SimpleNamespace(data=array)) == render_csv_reference(array)


def test_report_dicts_of_one_shape_render_by_column():
    # 64 reports of one key order, one with a non-finite estimate and one
    # undetermined: the mul document's shape
    reports = {f"{i},{j}": {"estimate": 1.0 / (i + j), "status": "converged",
                            "terms_used": 100 * i + j, "last_delta": 1e-11 * i,
                            "certified": (i + j) % 2 == 0}
               for i in range(1, 9) for j in range(1, 9)}
    reports["3,4"]["estimate"] = float("nan")
    reports["5,5"]["status"] = "undetermined"
    doc = {"result": {"per_entry_reports": reports, "matrix": [[0.5, -0.0, 1e-320]] * 3}}
    assert render_document(doc) == render_reference(doc) + "\n"
    # a child with its keys in another order keeps its own order of ties
    doc = [{"1": 1, 1: 2}, {1: 3, "1": 4}]
    assert render_document(doc) == render_reference(doc) + "\n"
    with pytest.raises(TypeError, match="cannot render"):
        render_document({"x": [object()]})
