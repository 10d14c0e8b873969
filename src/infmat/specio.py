"""Loading of the JSON file formats consumed by the CLI.

Matrix-spec object:
    { "rows": "inf" | int, "cols": "inf" | int,
      "kind": "dense" | "expr" | "banded" | "diag" | "finite-support",
      "expr": "<formula in i, j>"            (kinds expr, diag, finite-support)
      "bands": {"<signed offset>": "<formula>"}   (kind banded)
      "data": [[...], ...]                    (kind dense)
      "support": {"rows": int, "cols": int}   (kind finite-support)
      "decay": {"kind": "geometric", "C": num, "r": num}   (optional) }

Vector object: {"kind": "expr", "expr": "<formula in i>"} or
               {"kind": "dense", "data": [...]}, loaded as a one-column spec
System file:   {"A": <matrix>, "b": <vector>, "wanted": [ints]?}
Family file:   {"count": "inf" | int, "vectors": <matrix-like, i = vector
                index, j = coordinate index>}, loaded as the matrix whose
                column c is vector c
"""

import dataclasses
import json

import numpy as np

from . import expr_dsl
from .errors import SchemaError
from .matrix_core import (DecayCertificate, DenseMatrix, Extent, INFINITE,
                          MatrixSpec, banded_spec, entrywise_spec, extents_equal,
                          finite_support_spec, is_finite_extent, spot_check_decay,
                          transpose)

_MATRIX_KINDS = ("dense", "expr", "banded", "diag", "finite-support")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def _parse_extent(value, name) -> Extent:
    if value == "inf":
        return INFINITE
    if isinstance(value, int) and not isinstance(value, bool) and value >= 1:
        return value
    raise SchemaError(f"{name} must be a positive integer or \"inf\", got {value!r}")


def _require(obj, key, ctx):
    if key not in obj:
        raise SchemaError(f"{ctx}: missing required field {key!r}")
    return obj[key]


def _formula_oracles(text):
    """The scalar ``(i, j)`` oracle and the block oracle of one formula."""
    ast = expr_dsl.parse(text)
    fill = expr_dsl.compile_block(ast)

    def block(rows, cols, _fill=fill):
        return _fill(rows[:, None].astype(float), cols[None, :].astype(float))

    return expr_dsl.compile_entry(ast), block


def matrix_from_obj(obj, ctx="matrix spec") -> MatrixSpec:
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx}: expected an object")
    kind = _require(obj, "kind", ctx)
    if kind not in _MATRIX_KINDS:
        raise SchemaError(f"{ctx}: unknown kind {kind!r}")

    if kind == "dense":
        data = _require(obj, "data", ctx)
        try:
            dm = DenseMatrix(data)
        except Exception as exc:
            raise SchemaError(f"{ctx}: bad dense data ({exc})") from exc
        for axis, declared in (("rows", dm.rows), ("cols", dm.cols)):
            if axis in obj and obj[axis] != declared:
                raise SchemaError(f"{ctx}: {axis} = {obj[axis]} does not match "
                                  f"data shape {dm.rows}x{dm.cols}")
        spec = dm
    else:
        rows = _parse_extent(_require(obj, "rows", ctx), f"{ctx}: rows")
        cols = _parse_extent(_require(obj, "cols", ctx), f"{ctx}: cols")
        if kind == "expr":
            oracle, block = _formula_oracles(_require(obj, "expr", ctx))
            spec = dataclasses.replace(entrywise_spec(oracle, rows, cols), block=block)
        elif kind == "diag":
            if not extents_equal(rows, cols):
                raise SchemaError(f"{ctx}: a diag spec is square, but rows = "
                                  f"{obj['rows']!r} and cols = {obj['cols']!r}")
            spec = banded_spec({0: expr_dsl.compile_entry(_require(obj, "expr", ctx))},
                               rows, cols)
        elif kind == "banded":
            raw = _require(obj, "bands", ctx)
            if not isinstance(raw, dict) or not raw:
                raise SchemaError(f"{ctx}: bands must be a non-empty object")
            bands = {}
            for off_text, formula in raw.items():
                try:
                    off = int(off_text)
                except ValueError:
                    raise SchemaError(f"{ctx}: band offset {off_text!r} is not an integer")
                bands[off] = expr_dsl.compile_entry(formula)
            spec = banded_spec(bands, rows, cols)
        else:  # finite-support
            sup = _require(obj, "support", ctx)
            if not (isinstance(sup, dict) and "rows" in sup and "cols" in sup):
                raise SchemaError(f"{ctx}: support must carry rows and cols")
            for axis in ("rows", "cols"):
                size = sup[axis]
                if not isinstance(size, int) or isinstance(size, bool) or size < 1:
                    raise SchemaError(f"{ctx}: support {axis} must be a positive "
                                      f"integer, got {size!r}")
            oracle, block = _formula_oracles(_require(obj, "expr", ctx))
            spec = dataclasses.replace(
                finite_support_spec(oracle, sup["rows"], sup["cols"], rows, cols),
                block=block)

    if "decay" in obj and obj["decay"] is not None:
        d = obj["decay"]
        if not isinstance(d, dict) or d.get("kind") != "geometric":
            raise SchemaError(f"{ctx}: decay must be {{kind: geometric, C, r}}")
        try:
            cert = DecayCertificate(float(_require(d, "C", ctx)),
                                    float(_require(d, "r", ctx)))
        except Exception as exc:
            raise SchemaError(f"{ctx}: bad decay certificate ({exc})") from exc
        # a new spec over the same oracles: a DenseMatrix is built from its array
        spec = MatrixSpec(spec.rows, spec.cols, spec.entry, decay=cert,
                          bandwidth=spec.bandwidth, support=spec.support, block=spec.block)
        spot_check_decay(spec, samples=32, rng=np.random.default_rng(12345))
    return spec


def load_matrix_file(path) -> MatrixSpec:
    return matrix_from_obj(_load_json(path), ctx=str(path))


def vector_from_obj(obj, extent: Extent, ctx="vector spec") -> MatrixSpec:
    """A vector object as the spec of ``extent`` rows and one column.

    Dense data load as a matrix spec's do, one entry per row, and are
    padded with zeros when ``extent`` is infinite.  A formula names ``i``
    alone: ``j`` is left unbound, as ``k`` is in a matrix formula.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx}: expected an object")
    kind = _require(obj, "kind", ctx)
    if kind == "dense":
        data = _require(obj, "data", ctx)
        column = matrix_from_obj({"kind": "dense", "data": [[v] for v in data]
                                  if isinstance(data, list) else data}, ctx)
        if not is_finite_extent(extent):
            return dataclasses.replace(
                finite_support_spec(column.entry, column.rows, 1, INFINITE, 1),
                block=column.block)
        if column.rows != extent:
            raise SchemaError(f"{ctx}: expected {extent} entries, got {column.rows}")
        return column
    if kind == "expr":
        ast = expr_dsl.parse(_require(obj, "expr", ctx))

        def entry(i, j, _ast=ast):
            return expr_dsl.eval_ast(_ast, i=i)

        def block(rows, cols, _fill=expr_dsl.compile_block(ast)):
            return _fill(rows[:, None].astype(float), None)

        return MatrixSpec(extent, 1, entry, block=block)
    raise SchemaError(f"{ctx}: unknown vector kind {kind!r}")


def load_system_file(path):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    A = matrix_from_obj(_require(obj, "A", str(path)), ctx=f"{path}: A")
    b = vector_from_obj(_require(obj, "b", str(path)), A.rows, ctx=f"{path}: b")
    wanted = obj.get("wanted")
    if wanted is not None:
        if (not isinstance(wanted, list) or not wanted or
                any(not isinstance(w, int) or isinstance(w, bool) or w < 1
                    for w in wanted)):
            raise SchemaError(f"{path}: wanted must be a non-empty list of indices >= 1")
    return A, b, wanted


def family_from_obj(obj, ctx="family spec") -> MatrixSpec:
    """A basis family as the matrix whose column c is vector c: its
    row-per-vector ``vectors`` object loaded as a matrix spec, of
    ``count`` rows and infinitely many coordinates unless it is dense,
    and transposed."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx}: expected an object")
    count = _parse_extent(_require(obj, "count", ctx), f"{ctx}: count")
    vectors = _require(obj, "vectors", ctx)
    if isinstance(vectors, dict) and vectors.get("kind") != "dense":
        vectors = dict(vectors, rows=obj["count"], cols="inf")
    spec = matrix_from_obj(vectors, ctx=f"{ctx}: vectors")
    if is_finite_extent(count) and spec.rows != count:
        raise SchemaError(f"{ctx}: count {count} does not match {spec.rows} rows")
    return transpose(spec)


def load_family_file(path) -> MatrixSpec:
    return family_from_obj(_load_json(path), ctx=str(path))
