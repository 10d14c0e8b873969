"""A spec's structure label is read off its pattern, never stated beside it.

``bandwidth`` and ``support`` are the one statement of where a spec's
nonzero entries may lie; ``structure`` must be the label they imply
(``banded`` with a bandwidth, ``finite-support`` with a box, else
``expr``) for every spec, however it was built: directly, by each
constructor, from each JSON kind, or as a sum, multiple, shift, product
or transpose.  A pattern that contradicts itself or a passed label raises
``ValueError``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from infmat.algebra import add, matmul, scale, shift_diagonal
from infmat.matrix_core import (INFINITE, DenseMatrix, MatrixSpec, banded_spec,
                                diagonal_spec, entrywise_spec, extents_equal,
                                finite_support_spec, identity_spec, is_finite_extent,
                                transpose, zero_spec)
from infmat.series import ConvergencePolicy
from infmat.specio import matrix_from_obj

POLICY = ConvergencePolicy(max_terms=200)
LABELS = ("expr", "banded", "finite-support")

extents = st.one_of(st.just(INFINITE), st.integers(min_value=1, max_value=5))
bandwidths = st.integers(min_value=0, max_value=4)
boxes = st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
# None (no pattern), a bandwidth, or a box
patterns = st.one_of(st.none(), bandwidths, boxes)


def implied(M):
    """The label that ``M``'s bandwidth and support imply."""
    assert M.bandwidth is None or M.support is None
    if M.bandwidth is not None:
        return "banded"
    return "expr" if M.support is None else "finite-support"


def geometric(i, j):
    return 0.5 ** (i + j)


def _json_extent(extent):
    return extent if is_finite_extent(extent) else "inf"


@st.composite
def specs(draw, rows=None, cols=None):
    """A spec from any constructor or JSON kind, on the given or drawn extents."""
    rows = draw(extents) if rows is None else rows
    cols = draw(extents) if cols is None else cols
    kinds = ["direct", "zero", "banded", "finite-support", "entrywise", "json-expr",
             "json-banded", "json-finite-support"]
    if extents_equal(rows, cols):
        kinds += ["identity", "diagonal", "json-diag"]
    if is_finite_extent(rows) and is_finite_extent(cols):
        kinds += ["dense", "json-dense"]
    kind = draw(st.sampled_from(kinds))
    json_shape = {"rows": _json_extent(rows), "cols": _json_extent(cols)}
    if kind == "direct":
        pattern = draw(patterns)
        zero = banded_spec({}, rows, cols).entry  # keeps any pattern's promise
        if isinstance(pattern, int):
            return MatrixSpec(rows, cols, zero, bandwidth=pattern)
        return MatrixSpec(rows, cols, zero, support=pattern)
    if kind == "zero":
        return zero_spec(rows, cols)
    if kind == "identity":
        return identity_spec(rows)
    if kind == "diagonal":
        return diagonal_spec(lambda i: 1.0 / i, rows)
    if kind == "banded":
        offsets = draw(st.sets(st.integers(min_value=-3, max_value=3)))
        return banded_spec({off: geometric for off in offsets}, rows, cols)
    if kind == "finite-support":
        return finite_support_spec(geometric, *draw(boxes), rows, cols)
    if kind == "entrywise":
        return entrywise_spec(geometric, rows, cols)
    if kind == "dense":
        return DenseMatrix(np.ones((rows, cols)))
    if kind == "json-dense":
        return matrix_from_obj({"kind": "dense", "data": np.ones((rows, cols)).tolist()})
    if kind == "json-expr":
        return matrix_from_obj({**json_shape, "kind": "expr", "expr": "0.5^(i+j)"})
    if kind == "json-diag":
        return matrix_from_obj({**json_shape, "kind": "diag", "expr": "1/i"})
    if kind == "json-banded":
        offsets = draw(st.sets(st.integers(min_value=-3, max_value=3), min_size=1))
        return matrix_from_obj({**json_shape, "kind": "banded",
                                "bands": {str(off): "0.5^(i+j)" for off in offsets}})
    r, c = draw(boxes)
    return matrix_from_obj({**json_shape, "kind": "finite-support", "expr": "0.5^(i+j)",
                            "support": {"rows": r, "cols": c}})


@given(specs())
def test_every_constructor_labels_its_pattern(M):
    assert M.structure == implied(M)


@given(st.data())
def test_derived_specs_label_their_pattern(data):
    rows, inner, cols = data.draw(extents), data.draw(extents), data.draw(extents)
    A = data.draw(specs(rows, inner))
    derived = [transpose(A), scale(data.draw(st.sampled_from([0.0, -2.0])), A),
               shift_diagonal(A, 0.25), add(A, data.draw(specs(rows, inner))),
               matmul(A, data.draw(specs(inner, cols)), POLICY).matrix]
    for M in derived:
        assert M.structure == implied(M)


@given(extents, extents, patterns, st.sampled_from(LABELS))
def test_a_passed_label_must_be_the_implied_one(rows, cols, pattern, label):
    pattern = ({"bandwidth": pattern} if isinstance(pattern, int)
               else {"support": pattern})
    expected = implied(MatrixSpec(rows, cols, geometric, **pattern))
    if label == expected:
        assert MatrixSpec(rows, cols, geometric, label, **pattern).structure == label
    else:
        with pytest.raises(ValueError):
            MatrixSpec(rows, cols, geometric, label, **pattern)


@given(extents, extents, st.integers(max_value=-1), boxes, bandwidths)
def test_a_pattern_that_contradicts_itself_raises(rows, cols, negative, box, bandwidth):
    with pytest.raises(ValueError):
        MatrixSpec(rows, cols, geometric, bandwidth=negative)
    with pytest.raises(ValueError):
        MatrixSpec(rows, cols, geometric, bandwidth=bandwidth, support=box)


@given(specs(), patterns)
def test_replace_with_a_new_pattern_never_keeps_a_stale_label(M, pattern):
    if type(M) is not MatrixSpec:  # a DenseMatrix is built from its array
        return
    bandwidth, support = (pattern, None) if isinstance(pattern, int) else (None, pattern)
    try:
        new = dataclasses.replace(M, bandwidth=bandwidth, support=support)
    except ValueError:
        return
    assert new.structure == implied(new)

