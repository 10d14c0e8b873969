import json
import re
from pathlib import Path

import numpy as np
import pytest

from infmat.errors import CertificateError, SchemaError
from infmat.expr_dsl import EvalError
from infmat.matrix_core import INFINITE, is_finite_extent, truncate
from infmat.specio import (family_from_obj, load_matrix_file, load_system_file,
                           matrix_from_obj, vector_from_obj)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def test_load_expr_spec_with_certificate():
    spec = load_matrix_file(SPECS / "geometric.json")
    assert not is_finite_extent(spec.rows)
    assert spec.entry(1, 1) == 0.25
    assert spec.decay is not None and spec.decay.r == 0.5


def test_load_banded_identity():
    spec = load_matrix_file(SPECS / "identity.json")
    assert spec.structure == "banded"
    assert spec.entry(4, 4) == 1.0
    assert spec.entry(4, 5) == 0.0


def test_load_dense_spec():
    spec = matrix_from_obj({"kind": "dense", "data": [[1, 2], [3, 4]]})
    assert spec.rows == 2 and spec.cols == 2
    assert spec.entry(2, 1) == 3.0


def test_dense_shape_mismatch_rejected():
    with pytest.raises(SchemaError):
        matrix_from_obj({"kind": "dense", "data": [[1, 2]], "rows": 3})


def test_load_diag_spec():
    spec = matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "diag",
                            "expr": "1/i"})
    assert (spec.structure, spec.bandwidth) == ("banded", 0)
    assert spec.entry(4, 4) == 0.25
    assert spec.entry(4, 5) == 0.0


def test_load_finite_support_spec():
    spec = matrix_from_obj({"rows": "inf", "cols": "inf",
                            "kind": "finite-support", "expr": "i + j",
                            "support": {"rows": 2, "cols": 2}})
    assert spec.entry(1, 2) == 3.0
    assert spec.entry(3, 1) == 0.0


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError):
        matrix_from_obj({"rows": 2, "cols": 2, "kind": "sparse"})


def test_missing_field_rejected():
    with pytest.raises(SchemaError):
        matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr"})


def test_bad_extent_rejected():
    with pytest.raises(SchemaError):
        matrix_from_obj({"rows": 0, "cols": 2, "kind": "expr", "expr": "1"})
    with pytest.raises(SchemaError):
        matrix_from_obj({"rows": True, "cols": 2, "kind": "expr", "expr": "1"})


def test_decay_violation_caught_at_load():
    with pytest.raises(CertificateError):
        matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr",
                         "expr": "1", "decay": {"kind": "geometric",
                                                "C": 1.0, "r": 0.5}})


def test_decay_violation_by_tiny_entries_caught_at_load():
    # every entry is below 1e-15 but far above its claimed bound, which an
    # absolute slack of 1e-15 let through
    with pytest.raises(CertificateError, match="violates bound"):
        matrix_from_obj({"rows": "inf", "cols": "inf", "kind": "expr",
                         "expr": "1e-16*0.9^(i+j)", "decay": {"kind": "geometric",
                                                             "C": 1e-30, "r": 0.5}})


def test_bad_json_is_schema_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_matrix_file(path)


def test_vector_expr_and_dense():
    v = vector_from_obj({"kind": "expr", "expr": "delta(i,1)"}, INFINITE)
    assert v.entry(1, 1) == 1.0 and v.entry(2, 1) == 0.0
    w = vector_from_obj({"kind": "dense", "data": [1.0, 2.0]}, 2)
    assert w.tolist() == [[1.0], [2.0]]
    padded = vector_from_obj({"kind": "dense", "data": [1.0]}, INFINITE)
    assert padded.entry(1, 1) == 1.0 and padded.entry(9, 1) == 0.0
    with pytest.raises(SchemaError):
        vector_from_obj({"kind": "dense", "data": [1.0]}, 3)


def test_load_system_file():
    A, b, wanted = load_system_file(SPECS / "perturbed_system.json")
    assert not is_finite_extent(A.rows)
    assert b.entry(1, 1) == 1.0
    assert wanted == [1, 2, 3]


def test_system_wanted_validation(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({
        "A": {"kind": "dense", "data": [[1.0]]},
        "b": {"kind": "dense", "data": [1.0]},
        "wanted": [0]}))
    with pytest.raises(SchemaError):
        load_system_file(path)


def test_system_empty_wanted_is_rejected(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({
        "A": {"kind": "dense", "data": [[1.0]]},
        "b": {"kind": "dense", "data": [1.0]},
        "wanted": []}))
    with pytest.raises(SchemaError, match="wanted must be a non-empty list"):
        load_system_file(path)


def test_family_expr_and_dense():
    fam = family_from_obj({"count": "inf",
                           "vectors": {"kind": "expr", "expr": "delta(j,i)"}})
    assert fam.entry(3, 3) == 1.0  # coordinate 3 of vector 3
    dense = family_from_obj({"count": 2,
                             "vectors": {"kind": "dense",
                                         "data": [[1.0, 0.0], [0.0, 1.0]]}})
    assert dense.data[:, 1].tolist() == [0.0, 1.0]  # column 2 holds vector 2


@pytest.mark.parametrize("formula", ["i + j", "1/k"])
def test_vector_formula_naming_j_or_k_is_an_eval_error(formula):
    b = vector_from_obj({"kind": "expr", "expr": formula}, INFINITE)
    with pytest.raises(EvalError, match="unbound variable"):
        b.entry(2, 1)
    # the block path declines, so a section falls back to the scalar error
    assert b.block(np.arange(1, 5), np.array([1])) is None
    with pytest.raises(EvalError, match="unbound variable"):
        truncate(b, 4, 1)


def test_vector_formula_block_matches_its_entries():
    b = vector_from_obj({"kind": "expr", "expr": "1/i^2 + delta(i,3)"}, INFINITE)
    assert truncate(b, 6, 1).data[:, 0].tolist() == [b.entry(i, 1) for i in range(1, 7)]


def test_family_columns_are_its_vectors():
    # vector i of the shifted family is e_i + e_(i+1)
    fam = family_from_obj({"count": "inf", "vectors": {
        "kind": "expr", "expr": "delta(j,i) + delta(j,i+1)"}})
    assert truncate(fam, 3, 3).tolist() == [[1, 0, 0], [1, 1, 0], [0, 1, 1]]
    assert fam.block is not None


@pytest.mark.parametrize("obj", [
    {"rows": 3, "cols": 5, "kind": "diag", "expr": "1"},
    {"rows": 3, "cols": "inf", "kind": "diag", "expr": "1"},
    {"rows": "inf", "cols": "inf", "kind": "finite-support", "expr": "1/(i+j)",
     "support": {"rows": -2, "cols": 2}},
    {"rows": "inf", "cols": "inf", "kind": "finite-support", "expr": "1/(i+j)",
     "support": {"rows": "x", "cols": 2}},
    {"rows": "inf", "cols": "inf", "kind": "finite-support", "expr": "1/(i+j)",
     "support": {"rows": 2, "cols": 1.5}},
])
def test_bad_shape_is_a_schema_error_naming_the_file(obj, tmp_path, capsys):
    from infmat.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["truncate", str(path), "--n", "3", "--quiet"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "schema-error"
    assert str(path) in err["message"]


_INF = {"rows": "inf", "cols": "inf"}


@pytest.mark.parametrize("command, obj, field", [
    ("truncate", dict(_INF, kind="expr", expr=5), "'expr' must be a formula string, got 5"),
    ("truncate", dict(_INF, kind="banded", bands={"0": 5}), "bands: '0' must be a formula"),
    ("truncate", dict(_INF, kind="diag", expr=None), "'expr' must be a formula string, got null"),
    ("truncate", dict(_INF, kind="finite-support", expr=["i"], support={"rows": 2, "cols": 2}),
     "'expr' must be a formula string, got [\"i\"]"),
    ("solve", {"A": dict(_INF, kind="diag", expr="1"), "b": {"kind": "expr", "expr": 7}},
     "b: 'expr' must be a formula string, got 7"),
    ("transition", {"count": 2, "vectors": {"kind": "expr", "expr": [1]}},
     "vectors: 'expr' must be a formula string, got [1]"),
], ids=["expr", "band", "diag", "finite-support", "system-b", "family-vectors"])
def test_a_formula_that_is_not_a_string_is_a_schema_error(command, obj, field, tmp_path, capsys):
    from infmat.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    argv = {"truncate": [str(path), "--n", "2"], "solve": [str(path)],
            "transition": [str(path), str(path), "--n", "2"]}[command]
    assert main([command, *argv, "--quiet"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "schema-error"
    assert err["message"].startswith(str(path)) and field in err["message"]


@pytest.mark.parametrize("bands, keys", [
    ({"1": "1", "+1": "5", "0": "2"}, "'1' and '+1'"),
    ({"0": "1", "00": "2"}, "'0' and '00'"),
    ({"-1": "1", "0": "2", "-01": "3"}, "'-1' and '-01'"),
])
def test_two_band_keys_naming_one_offset_are_a_schema_error(bands, keys):
    with pytest.raises(SchemaError, match=re.escape(f"band offsets {keys} both name offset")):
        matrix_from_obj(dict(_INF, kind="banded", bands=bands))


@pytest.mark.parametrize("text, key", [
    ('{"rows": 3, "cols": 3, "kind": "banded", "bands": {"1": "1", "1": "5", "0": "2"}}', "'1'"),
    ('{"rows": 3, "cols": 3, "kind": "expr", "expr": "i", "expr": "j"}', "'expr'"),
], ids=["band", "expr"])
def test_a_repeated_json_key_is_a_schema_error(text, key, tmp_path, capsys):
    from infmat.cli import main

    path = tmp_path / "twice.json"
    path.write_text(text)
    assert main(["truncate", str(path), "--n", "3", "--format", "csv", "--quiet"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"code": "schema-error",
                   "message": f"{path}: key {key} repeated in one object"}
