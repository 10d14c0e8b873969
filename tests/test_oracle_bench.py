"""``scripts/oracle_bench.py`` builds the scalar twin of every formula it
times: the same spec with the block oracle removed.  The script is loaded
from its file, as ``python scripts/oracle_bench.py`` runs it."""

import importlib.util
from pathlib import Path

import numpy as np

from infmat.matrix_core import clip_extent, truncate
from infmat.specio import matrix_from_obj

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "oracle_bench.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("oracle_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scalar_twin_of_every_timed_formula():
    bench = _load_script()
    names = []
    for name, obj in bench.formulas():
        spec = matrix_from_obj(obj)
        twin = bench.scalar_twin(spec)
        assert spec.block is not None and twin.block is None, name
        assert twin.entry is spec.entry, name
        m, n = clip_extent(spec.rows, 24), clip_extent(spec.cols, 24)
        assert np.array_equal(truncate(twin, m, n).data.view(np.int64),
                              truncate(spec, m, n).data.view(np.int64)), name
        names.append(name)
    assert names[:3] == ["golden DENSE_EXPR", "finite-support 384x384", "dense 512x512"]
