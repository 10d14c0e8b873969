"""Every name that the benchmark's layer tracer wraps exists in its module.

``perfbench/tracer.py`` looks each name up with ``getattr`` and no
default, so renaming or folding away one of them breaks every
``--trace 1`` benchmark run.  The tracer imports only the standard
library, so it is loaded here straight from its file.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_functions_resolve():
    tracer = _load_tracer()
    missing = [f"{layer}.{name}"
               for layer, names in tracer.LAYER_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"infmat.{layer}"),
                                       name, None))]
    assert missing == []


def test_layer_methods_resolve():
    tracer = _load_tracer()
    missing = []
    for layer, methods in tracer.LAYER_METHODS.items():
        module = importlib.import_module(f"infmat.{layer}")
        for cls_name, meth in methods:
            if not callable(getattr(getattr(module, cls_name, None), meth, None)):
                missing.append(f"{layer}.{cls_name}.{meth}")
    assert missing == []
