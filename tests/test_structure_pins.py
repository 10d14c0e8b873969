"""Pinned structure metadata: support tuples and derived structures.

For every constructor (and every JSON matrix kind) on infinite, finite
square and rectangular extents, ``golden/structure.json`` holds the
``row_support``/``col_support`` tuples of the leading rows and columns
and the ``(structure, bandwidth, support)`` of the spec, and the same
fingerprint of each ``add``, ``scale``, ``shift_diagonal``, ``matmul``
and ``transpose`` result.  Structure labels steer which cells are
evaluated, so any change here is a change in what the library reads.
Re-record with ``python tests/test_structure_pins.py`` and list every
difference in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "structure.json"

# leading rows and columns whose supports are pinned
LINES = 8

_EXTENTS = {"inf": ("inf", "inf"), "5x5": (5, 5), "4x6": (4, 6), "6x4": (6, 4)}


def _catalog():
    from infmat.matrix_core import (INFINITE, DenseMatrix, banded_spec, diagonal_spec,
                                    entrywise_spec, finite_support_spec,
                                    identity_spec, zero_spec)
    from infmat.specio import matrix_from_obj

    def fast(i, j):
        return 0.5 ** (i + j)

    bands = {-1: lambda i, j: 0.25, 0: lambda i, j: 1.0 / i, 2: lambda i, j: 0.5 ** j}
    out = {}
    for name, (r, c) in _EXTENTS.items():
        rows = INFINITE if r == "inf" else r
        cols = INFINITE if c == "inf" else c
        if r == c:
            out[f"identity {name}"] = identity_spec(rows)
            out[f"diagonal {name}"] = diagonal_spec(lambda i: 1.0 / i, rows)
            out[f"json-diag {name}"] = matrix_from_obj(
                {"rows": r, "cols": c, "kind": "diag", "expr": "1/i"})
        out[f"zero {name}"] = zero_spec(rows, cols)
        out[f"banded {name}"] = banded_spec(bands, rows, cols)
        out[f"banded-empty {name}"] = banded_spec({}, rows, cols)
        out[f"finite-support {name}"] = finite_support_spec(fast, 3, 2, rows, cols)
        out[f"entrywise {name}"] = entrywise_spec(fast, rows, cols)
        for kind, extra in (("expr", {"expr": "0.5^(i+j)"}),
                            ("banded", {"bands": {"-1": "0.25", "1": "1/j"}}),
                            ("finite-support", {"expr": "0.5^(i+j)",
                                                "support": {"rows": 2, "cols": 3}})):
            out[f"json-{kind} {name}"] = matrix_from_obj(
                dict(rows=r, cols=c, kind=kind, **extra))
        if r != "inf":
            data = np.arange(1.0, r * c + 1).reshape(r, c)
            out[f"dense {name}"] = DenseMatrix(data)
            out[f"json-dense {name}"] = matrix_from_obj({"kind": "dense",
                                                         "data": data.tolist()})
    return out


def _fingerprint(M):
    from infmat.matrix_core import clip_extent

    def span(s):
        return None if s is None else [int(s[0]), int(s[1])]

    return {"structure": M.structure, "bandwidth": M.bandwidth,
            "support": None if M.support is None else list(M.support),
            "row_support": [span(M.row_support(i))
                            for i in range(1, clip_extent(M.rows, LINES) + 1)],
            "col_support": [span(M.col_support(j))
                            for j in range(1, clip_extent(M.cols, LINES) + 1)]}


def record() -> dict:
    from infmat.algebra import add, matmul, scale, shift_diagonal
    from infmat.matrix_core import extents_equal, transpose
    from infmat.series import ConvergencePolicy

    policy = ConvergencePolicy(max_terms=200)
    specs = _catalog()
    out = {}
    for a, A in specs.items():
        out[a] = _fingerprint(A)
        out[f"scale {a}"] = _fingerprint(scale(2.0, A))
        out[f"shift_diagonal {a}"] = _fingerprint(shift_diagonal(A, 1.0))
        out[f"transpose {a}"] = _fingerprint(transpose(A))
        for b, B in specs.items():
            if extents_equal(A.rows, B.rows) and extents_equal(A.cols, B.cols):
                out[f"add {a} + {b}"] = _fingerprint(add(A, B))
            if extents_equal(A.cols, B.rows):
                out[f"matmul {a} * {b}"] = _fingerprint(matmul(A, B, policy).matrix)
    return out


@pytest.fixture(scope="module")
def pins():
    return record()


def test_structure_pins_match_golden(pins):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(pins) == sorted(golden)
    changed = [key for key in golden if pins[key] != golden[key]]
    assert changed == [], f"{len(changed)} fingerprints moved, first {changed[:3]}"


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    pinned = record()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                                         for k, v in sorted(pinned.items())) + "\n}\n")
