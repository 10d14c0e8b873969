"""Layer trace of infmat, taken from outside the package.

``Tracer.install()`` wraps the public functions of each infmat layer and
rebinds every module-level name that refers to one of them, in every
infmat module, so calls between modules go through the wrappers.  A
wrapper records a span (operation, id, parent id, name, start, end) in
memory; ``write`` stores the spans when the run ends.  A layer's self
time is the time of its spans minus the time of their child spans.

The DSL oracle (``expr_dsl.eval_ast``) runs millions of times per run, so
its calls are not stored as spans: each one adds its duration to the
enclosing span's child time and to the layer totals, and counts.
"""

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

DENSE_KERNELS = ("lu_det", "echelon", "gauss_solve", "null_vector", "product_ascending")

# layer -> public functions wrapped as spans
LAYER_FUNCTIONS = {
    "matrix_core": ("truncate",),
    "series": ("sum_series", "limit_of_sequence", "stabilize_vector"),
    "algebra": ("matmul", "matvec", "add", "scale", "shift_diagonal", "trace_partial",
                "_series_entry"),
    "determinant": ("det_oracle", "det_log_series", "det_truncation", "det_infinite",
                    "cauchy_binet", "cauchy_binet_infinite"),
    "inverse_solve": ("neumann_inverse", "rank_of", "check_compatibility", "cramer_solve",
                      "solve_via_inverse", "_neumann_sum", "_apply_series"),
    "spectral": ("char_value", "eigenvector_for", "find_eigenvalues"),
    "bases_orth": ("orthogonalize", "transition_matrix", "transformation_matrix"),
    "specio": ("load_matrix_file", "load_system_file", "load_family_file"),
    "cli": ("render_document", "render_csv"),
    "_dense": DENSE_KERNELS,
}
# lazy results whose work happens after the creating call returned
LAYER_METHODS = {
    "inverse_solve": (("InverseReport", "block_report"),),
    "bases_orth": (("OrthogonalRows", "section"),),
}


def _flops(name, args, result):
    """Floating-point operations of a dense kernel, computed from shapes."""
    if name == "lu_det":
        n = args[0].shape[0]
        return 2 * n ** 3 // 3
    if name == "echelon":
        m, n = args[0].shape
        return sum(2 * (m - r - 1) * n for r in range(len(result[1])))
    if name == "gauss_solve":
        n = args[0].shape[0]
        return 2 * n ** 3 // 3 + 2 * n * n
    if name == "null_vector":
        # back-substitution only; the echelon call inside is counted there
        n = args[0].shape[1]
        return n * n
    m, inner = args[0].shape
    return 2 * m * inner * args[1].shape[1]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []
        self._next_id = 1
        self._op = -1
        self._fresh = set()
        self._truncating = 0

    # -- span bookkeeping ---------------------------------------------------

    def begin_op(self, op):
        self._op = op
        self.counts["expr_dsl.fresh"] += len(self._fresh)
        self._fresh = set()

    def finish(self):
        self.begin_op(-1)

    def _enter(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else 0
        self._stack.append([name, time.perf_counter(), 0.0, span_id, parent])

    def _exit(self):
        end = time.perf_counter()
        name, start, child, span_id, parent = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((self._op, span_id, parent, name, start, end))

    def span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -- wrappers with counters ----------------------------------------------

    def _eval_wrapper(self, fn):
        perf = time.perf_counter
        tracer, counts, self_s, stack = self, self.counts, self.self_s, self._stack

        @functools.wraps(fn)
        def eval_ast(node, i=None, j=None, k=None):
            start = perf()
            try:
                return fn(node, i, j, k)
            finally:
                duration = perf() - start
                self_s["expr_dsl.eval_ast"] += duration
                if stack:
                    stack[-1][2] += duration
                counts["expr_dsl.evals"] += 1
                if tracer._truncating:
                    counts["matrix_core.truncate.evals"] += 1
                tracer._fresh.add((id(node), i, j, k))

        return eval_ast

    def _truncate_wrapper(self, fn):
        inner = self.span("matrix_core.truncate", fn)

        @functools.wraps(fn)
        def truncate(M, m, n):
            self.counts["matrix_core.truncate.cells"] += m * n
            self._truncating += 1
            try:
                return inner(M, m, n)
            finally:
                self._truncating -= 1

        return truncate

    def _series_result(self, args, result):
        report = result[1] if isinstance(result, tuple) else result
        self.counts["series.steps"] += report.terms_used
        self.counts["series.converged"] += report.status == "converged"

    def _kernel_result(self, name):
        def record(args, result):
            self.counts[f"dense.{name}.flops"] += _flops(name, args, result)

        return record

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every layer function and rebind it in all infmat modules."""
        import infmat.cli  # noqa: F401  (imports every layer)
        from infmat import expr_dsl

        modules = [m for name, m in sys.modules.items()
                   if name == "infmat" or name.startswith("infmat.")]
        replace = {}
        replace[id(expr_dsl.eval_ast)] = self._eval_wrapper(expr_dsl.eval_ast)
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"infmat.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                if layer == "matrix_core":
                    wrapper = self._truncate_wrapper(fn)
                elif layer == "series":
                    wrapper = self.span(f"series.{fname}", fn, self._series_result)
                elif layer == "_dense":
                    wrapper = self.span(f"dense.{fname}", fn, self._kernel_result(fname))
                else:
                    wrapper = self.span(f"{layer}.{fname}", fn)
                replace[id(fn)] = wrapper
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        for layer, methods in LAYER_METHODS.items():
            module = sys.modules[f"infmat.{layer}"]
            for cls_name, meth in methods:
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.span(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))

    # -- results --------------------------------------------------------------

    def layer_self(self, layer):
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def layer_total(self, prefix):
        return sum(v for k, v in self.total_s.items() if k.startswith(prefix))

    def metrics(self):
        """Per-layer numbers, keyed by the names BENCHMARK.json lists."""
        c = self.counts
        evals = c["expr_dsl.evals"]
        eval_s = self.self_s["expr_dsl.eval_ast"]
        series_calls = sum(c[f"series.{f}.calls"] for f in LAYER_FUNCTIONS["series"])
        out = {
            "expr_dsl.evals": (evals, "count"),
            "expr_dsl.self_s": (eval_s, "s"),
            "expr_dsl.us_per_eval": (1e6 * eval_s / evals if evals else 0.0, "us"),
            "expr_dsl.fresh_ratio": (c["expr_dsl.fresh"] / evals if evals else 0.0, "ratio"),
            "matrix_core.truncate.calls": (c["matrix_core.truncate.calls"], "count"),
            "matrix_core.truncate.cells": (c["matrix_core.truncate.cells"], "count"),
            "matrix_core.truncate.evals": (c["matrix_core.truncate.evals"], "count"),
            "matrix_core.truncate.self_s": (self.layer_self("matrix_core"), "s"),
        }
        for k in DENSE_KERNELS:
            out[f"dense.{k}.calls"] = (c[f"dense.{k}.calls"], "count")
            out[f"dense.{k}.self_s"] = (self.self_s[f"dense.{k}"], "s")
            out[f"dense.{k}.flops"] = (c[f"dense.{k}.flops"], "flop_computed")
        out.update({
            "series.calls": (series_calls, "count"),
            "series.steps": (c["series.steps"], "count"),
            "series.self_s": (self.layer_self("series"), "s"),
            "series.converged_ratio": (c["series.converged"] / series_calls
                                       if series_calls else 0.0, "ratio"),
            "algebra.self_s": (self.layer_self("algebra"), "s"),
            "algebra.series_entries": (c["algebra._series_entry.calls"], "count"),
            "bases_orth.self_s": (self.layer_self("bases_orth"), "s"),
            "determinant.self_s": (self.layer_self("determinant"), "s"),
            "determinant.det_truncation.calls": (c["determinant.det_truncation.calls"],
                                                 "count"),
            "inverse_solve.self_s": (self.layer_self("inverse_solve"), "s"),
            "spectral.char_value.calls": (c["spectral.char_value.calls"], "count"),
            "spectral.self_s": (self.layer_self("spectral"), "s"),
            "specio.load_s": (self.layer_total("specio."), "s"),
            "cli.render_s": (self.layer_total("cli.render"), "s"),
            "cli.self_s": (self.layer_self("cli"), "s"),
        })
        return out

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["op", "id", "parent", "name", "start", "end"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
