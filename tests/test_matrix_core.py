import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from infmat.errors import CertificateError, ExtentMismatchError, OracleValueError
from infmat.matrix_core import (BANDED, INFINITE, DecayCertificate,
                                DenseMatrix, Sections, TruncationSchedule,
                                banded_spec, clip_extent, diagonal_spec,
                                entrywise_spec, finite_support_spec,
                                identity_spec, is_finite_extent,
                                spot_check_decay, transpose, truncate,
                                zero_spec)


def test_identity_truncation():
    got = truncate(identity_spec(), 3, 3)
    assert got.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_geometric_entry_truncation():
    spec = entrywise_spec(lambda i, j: 2.0 ** -(i + j))
    got = truncate(spec, 2, 2)
    assert got.tolist() == [[0.25, 0.125], [0.125, 0.0625]]


def test_banded_diag_formula_truncation():
    spec = banded_spec({0: lambda i, j: 1.0 / i})
    got = truncate(spec, 2, 2)
    assert got.tolist() == [[1.0, 0.0], [0.0, 0.5]]


def test_truncate_rejects_nonfinite_oracle():
    spec = entrywise_spec(lambda i, j: math.inf if (i, j) == (2, 3) else 0.0)
    with pytest.raises(OracleValueError) as err:
        truncate(spec, 3, 3)
    assert err.value.index == (2, 3)


def test_truncate_respects_finite_extents():
    dm = DenseMatrix([[1, 2], [3, 4]])
    with pytest.raises(ExtentMismatchError):
        truncate(dm, 3, 2)


def test_transpose_is_involution_on_samples():
    spec = entrywise_spec(lambda i, j: math.sin(i) * j)
    twice = transpose(transpose(spec))
    for i, j in [(1, 1), (2, 5), (7, 3), (10, 10)]:
        assert twice.entry(i, j) == spec.entry(i, j)


def test_transpose_of_derivative_operator():
    deriv = banded_spec({1: lambda i, j: float(j)})
    assert transpose(deriv).entry(2, 1) == 2.0
    assert deriv.entry(1, 2) == 2.0


def test_transpose_diagonal_identical():
    spec = diagonal_spec(lambda i: 1.0 / i)
    t = transpose(spec)
    for i, j in [(1, 1), (3, 3), (2, 7), (6, 2)]:
        assert t.entry(i, j) == spec.entry(i, j)
    assert (t.structure, t.bandwidth) == (BANDED, 0)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_truncation_consistency(m, n, dm, dn):
    spec = entrywise_spec(lambda i, j: (i * 31 + j * 17) % 7 - 3.0)
    small = truncate(spec, m, n)
    big = truncate(spec, m + dm, n + dn)
    assert np.array_equal(big.data[:m, :n], small.data)


# cell values that tell apart every bit, signed zeros included
_CELLS = (-0.0, 0.0, 1.5, -2.25, 1e-300, -7e12, 0.1, 3.0)
_EXTENTS = st.one_of(st.just(INFINITE), st.integers(min_value=1, max_value=12))


def _outcome(fill, n):
    """Section array bytes and shape, or the index of the non-finite cell."""
    try:
        section = fill(n)
    except OracleValueError as exc:
        return ("error", exc.index)
    return (section.shape, section.tobytes())


@st.composite
def _specs(draw):
    """A spec of one structure; all but dense may hold two non-finite cells."""
    kind = draw(st.sampled_from(("expr", "dense", "banded", "diagonal", "finite-support")))
    seed = draw(st.integers(min_value=0, max_value=len(_CELLS) - 1))
    bad = draw(st.sets(st.tuples(st.integers(1, 20), st.integers(1, 20)), max_size=2))
    bad_value = draw(st.sampled_from((math.inf, -math.inf, math.nan)))

    def cell(i, j):
        if (i, j) in bad:
            return bad_value
        return _CELLS[(3 * i + 5 * j + seed) % len(_CELLS)]

    if kind == "dense":
        m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        data = [[2.0 if (i, j) in bad else cell(i, j) for j in range(1, n + 1)]
                for i in range(1, m + 1)]
        return DenseMatrix(data)
    rows, cols = draw(_EXTENTS), draw(_EXTENTS)
    if kind == "expr":
        return entrywise_spec(cell, rows, cols)
    if kind == "banded":
        bw = draw(st.integers(0, 3))
        return banded_spec({off: cell for off in range(-bw, bw + 1)}, rows, cols)
    if kind == "diagonal":
        return diagonal_spec(lambda i: cell(i, i), rows)
    box = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    return finite_support_spec(cell, *box, rows, cols)


@given(_specs(), st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=8))
def test_sections_match_truncate_bit_for_bit(spec, sizes):
    sections = Sections(spec)

    def fresh(n):
        return truncate(spec, clip_extent(spec.rows, n), clip_extent(spec.cols, n)).data

    for n in sizes:
        assert _outcome(sections.array, n) == _outcome(fresh, n)


def test_sections_name_the_cell_truncate_names_and_stay_usable():
    # (2, 7) lies in the new columns of a known row, (5, 1) in a new row
    bad = {(2, 7), (5, 1)}
    spec = entrywise_spec(lambda i, j: math.nan if (i, j) in bad else float(j))
    with pytest.raises(OracleValueError) as err:
        truncate(spec, 8, 8)
    assert err.value.index == (2, 7)
    sections = Sections(spec)
    small = sections(4)
    for _ in range(2):
        with pytest.raises(OracleValueError) as err:
            sections(8)
        assert err.value.index == (2, 7)
        assert sections(3).tobytes() == small[:3, :3].tobytes()
        assert sections(4).tobytes() == small.tobytes()
    with pytest.raises(OracleValueError) as err:
        Sections(spec)(8)
    assert err.value.index == (2, 7)


def test_sections_grow_the_columns_of_a_short_spec():
    spec = entrywise_spec(lambda i, j: float(10 * i + j), rows=3)
    sections = Sections(spec)
    assert sections(2).shape == (2, 2)
    assert sections(8).shape == (3, 8)
    assert sections(16).tobytes() == truncate(spec, 3, 16).data.tobytes()


def test_sections_hand_out_read_only_views_of_one_array():
    sections = Sections(entrywise_spec(lambda i, j: float(i - j)))
    big = sections(8)
    small = sections(4)
    for section in (big, small):
        assert isinstance(section, np.ndarray) and not section.flags.writeable
    assert np.shares_memory(small, big)
    with pytest.raises(ValueError):
        small[0, 0] = 1.0


def test_sections_evaluate_each_cell_once():
    calls = []
    spec = banded_spec({-1: lambda i, j: calls.append((i, j)) or 1.0,
                        1: lambda i, j: calls.append((i, j)) or 2.0})
    sections = Sections(spec)
    for n in (4, 2, 8, 8, 3, 16):
        sections(n)
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) == 2 * 15


@given(st.integers(min_value=0, max_value=3), st.data())
def test_banded_structure_zero_outside(bandwidth, data):
    spec = banded_spec({off: (lambda i, j: 1.0 + i + j)
                        for off in range(-bandwidth, bandwidth + 1)})
    i = data.draw(st.integers(min_value=1, max_value=60))
    j = data.draw(st.integers(min_value=1, max_value=60))
    if abs(i - j) > bandwidth:
        assert spec.entry(i, j) == 0.0


def test_structure_zero_outside_bulk():
    rng = np.random.default_rng(7)
    banded = banded_spec({0: lambda i, j: 1.0, 2: lambda i, j: float(i)})
    diag = diagonal_spec(lambda i: float(i))
    boxed = finite_support_spec(lambda i, j: 1.0, 3, 4)
    for _ in range(200):
        i = int(rng.integers(1, 80))
        j = int(rng.integers(1, 80))
        if abs(i - j) > 2:
            assert banded.entry(i, j) == 0.0
        if i != j:
            assert diag.entry(i, j) == 0.0
        if i > 3 or j > 4:
            assert boxed.entry(i, j) == 0.0


def test_decay_spot_check_accepts_true_bound():
    spec = entrywise_spec(lambda i, j: 0.9 * 0.5 ** (i + j),
                          decay=DecayCertificate(1.0, 0.5))
    spot_check_decay(spec, samples=200)


def test_decay_spot_check_rejects_violation():
    spec = entrywise_spec(lambda i, j: 5.0 * 0.5 ** (i + j),
                          decay=DecayCertificate(1.0, 0.5))
    with pytest.raises(CertificateError):
        spot_check_decay(spec, samples=200)


def test_decay_spot_check_slack_is_relative():
    # a bound that holds with equality passes up to rounding; an entry a
    # little over a tiny bound fails, however small both are
    C, r = 3.0e-20, 0.5
    spot_check_decay(entrywise_spec(lambda i, j: C * r ** (i + j) * (1 + 1e-15),
                                    decay=DecayCertificate(C, r)), samples=200)
    with pytest.raises(CertificateError):
        spot_check_decay(entrywise_spec(lambda i, j: C * r ** (i + j) * (1 + 1e-9),
                                        decay=DecayCertificate(C, r)), samples=200)


def test_certificate_validation():
    with pytest.raises(CertificateError):
        DecayCertificate(1.0, 1.5)
    with pytest.raises(CertificateError):
        DecayCertificate(-2.0, 0.5)


def test_schedule_sizes_default():
    assert TruncationSchedule().sizes() == [8, 16, 32, 64, 128, 256, 512, 1024]


def test_schedule_sizes_clamped():
    assert TruncationSchedule(8, 2, 1000).sizes() == [8, 16, 32, 64, 128, 256, 512, 1000]
    assert TruncationSchedule(5, 3, 5).sizes() == [5]


def test_dense_matrix_validation_and_access():
    dm = DenseMatrix([[1.5, 2.0], [3.0, 4.0]])
    assert dm.at(1, 2) == 2.0
    with pytest.raises(IndexError):
        dm.at(0, 1)
    with pytest.raises(OracleValueError):
        DenseMatrix([[1.0, math.nan]])


def test_extent_checks():
    spec = identity_spec(4)
    assert is_finite_extent(spec.rows)
    with pytest.raises(IndexError):
        spec.at(5, 1)
    assert not is_finite_extent(identity_spec().rows)


def test_zero_spec_and_supports():
    z = zero_spec()
    assert z.entry(10, 20) == 0.0
    band = banded_spec({-1: lambda i, j: 1.0, 1: lambda i, j: 1.0})
    assert band.row_support(5) == (4, 6)
    assert band.col_support(1) == (1, 2)
    boxed = finite_support_spec(lambda i, j: 1.0, 2, 3)
    assert boxed.row_support(9) == (1, 0)
    assert boxed.col_support(2) == (1, 2)
