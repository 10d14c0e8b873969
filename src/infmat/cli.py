"""Command-line front end.

Loads JSON matrix / system / family specs, runs the mapped library
operation under a truncation schedule and convergence policy, and writes
a deterministic report document: sorted keys, floats rendered with 17
significant digits, so identical inputs give byte-identical output.

Exit status contract: 0 converged/success, 2 undetermined, 1 error /
diverged / precondition failure.
"""

import argparse
import functools
import json
import json.encoder
import logging
import operator
import re
import sys

import numpy as np

from .algebra import matmul
from .bases_orth import transition_matrix, orthogonalize, OrthogonalRows
from .determinant import det_infinite
from .errors import (CertificateError, ConvergenceFailureError,
                     DependentRowsError, ExtentMismatchError,
                     GramConvergenceError, InfmatError, OracleValueError,
                     PreconditionError, SchemaError, SingularSystemError)
from .expr_dsl import EvalError, ParseError
from .inverse_solve import cramer_solve, neumann_inverse, rank_of, solve_via_inverse
from .matrix_core import (DenseMatrix, TruncationSchedule, clip_extent,
                          is_finite_extent, truncate)
from .series import ConvergencePolicy, ConvergenceReport
from .spectral import find_eigenvalues
from .specio import load_family_file, load_matrix_file, load_system_file

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDETERMINED = 2

_STATUS_EXIT = {"converged": EXIT_OK, "undetermined": EXIT_UNDETERMINED,
                "diverged": EXIT_ERROR}

_ERROR_CODES = [
    (ParseError, "parse-error"),
    (EvalError, "eval-error"),
    (SchemaError, "schema-error"),
    (PreconditionError, "precondition-error"),
    (ExtentMismatchError, "extent-mismatch"),
    (SingularSystemError, "singular-system"),
    (DependentRowsError, "dependent-rows"),
    (GramConvergenceError, "divergence"),
    (OracleValueError, "oracle-error"),
    (ConvergenceFailureError, "series-cap"),
    (CertificateError, "certificate-error"),
    (InfmatError, "error"),
]


# ---------------------------------------------------------------------------
# deterministic rendering

_QUOTED = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}
_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str
_NUMBERS = (int, float, np.integer, np.floating)


def _number(v) -> str:
    text = "%.17g" % v
    return _QUOTED.get(text, text)


@functools.cache
def _row_format(n: int, sep: str) -> str:
    """The ``%`` template of ``n`` numbers joined by ``sep``."""
    return sep.join(["%.17g"] * n)


def _floats(values, sep: str) -> "str | None":
    """Python floats joined by ``sep`` through one ``%`` template, or
    ``None`` when one is non-finite (it must be quoted)."""
    text = _row_format(len(values), sep) % tuple(values)
    return None if "n" in text else text


def _float_column(values) -> list:
    text = _floats(values, "\n")
    return list(map(_number, values)) if text is None else text.split("\n")


# the texts of leaves of one exact type, a column at a time
_COLUMNS = {float: _float_column, int: lambda col: list(map(str, col)),
            str: lambda col: list(map(_quote, col)),
            bool: lambda col: list(map(("false", "true").__getitem__, col)),
            type(None): lambda col: ["null"] * len(col)}
# any other leaf (a numpy scalar, a subclass) is rendered as the first of
# these types it is an instance of
_KINDS = ((bool, lambda v: "true" if v else "false"), ((int, np.integer), lambda v: str(int(v))),
          ((float, np.floating), lambda v: _number(float(v))), (str, _quote))


@functools.cache
def _dict_heads(names: tuple, indent: int) -> tuple:
    """Where the keys whose ``str`` are ``names`` go when their dict is
    rendered at ``indent``: the order of their values, sorted by name (a
    stable sort), and the text before each value."""
    order = tuple(sorted(range(len(names)), key=names.__getitem__))
    pad = "  " * (indent + 1)
    return order, tuple(f"{pad}{_quote(names[k])}: " for k in order)


def _table(children: list, indent: int) -> "list | None":
    """The texts of ``children`` at ``indent`` when they are dicts with one
    order of str keys whose values under each key share a leaf type,
    rendered a column at a time and put together by one template; else
    ``None``."""
    keys = tuple(children[0])
    if not keys or any(type(key) is not str for key in keys) or any(
            type(child) is not dict or tuple(child) != keys for child in children):
        return None
    order, heads = _dict_heads(keys, indent)
    columns = []
    for k in order:
        column = list(map(operator.itemgetter(keys[k]), children))
        kinds = set(map(type, column))
        texts = _COLUMNS.get(kinds.pop()) if len(kinds) == 1 else None
        if texts is None:
            return None
        columns.append(texts(column))
    template = ("{\n" + ",\n".join(head.replace("%", "%%") + "%s" for head in heads)
                + "\n" + "  " * indent + "}")
    return [template % row for row in zip(*columns)]


def _render(value, indent=0):
    """JSON text of ``value`` at ``indent``: keys sorted by ``str``, floats
    to 17 significant digits, a non-finite float as the string ``"nan"``,
    ``"inf"`` or ``"-inf"``, and a list of numbers on one line.  Values go
    by rows, not one call each: a list of leaves of one type, and the
    dicts of a dict or list that share their keys and the leaf type under
    each (the per-entry reports), are rendered a column at a time, and a
    dict's key order and key texts are kept per key set and depth."""
    texts = _COLUMNS.get(type(value))
    if texts is not None:
        return texts([value])[0]
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        order, heads = _dict_heads(tuple(map(str, value)), indent)
        texts = _items(list(value.values()), indent + 1)
        return "{\n" + ",\n".join([head + texts[k] for head, k in zip(heads, order)]) + (
            "\n" + pad + "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {float} and (text := _floats(value, ", ")) is not None:
            return "[" + text + "]"
        if all(issubclass(kind, _NUMBERS) for kind in kinds):
            column = _COLUMNS.get(next(iter(kinds))) if len(kinds) == 1 else None
            return "[" + ", ".join(column(value) if column else map(_render, value)) + "]"
        return "[\n" + ",\n".join([pad + "  " + text for text in _items(value, indent + 1)]) + (
            "\n" + pad + "]")
    for kinds, text in _KINDS:
        if isinstance(value, kinds):
            return text(value)
    raise TypeError(f"cannot render {type(value)!r}")


def _items(values, indent: int) -> list:
    """The texts of the values of a dict or the items of a list."""
    table = _table(values, indent) if type(values[0]) is dict else None
    return table if table is not None else [_render(v, indent) for v in values]


def render_document(doc) -> str:
    return _render(doc) + "\n"


def render_csv(matrix: DenseMatrix) -> str:
    rows = np.asarray(matrix.data, dtype=float).tolist()
    return "\n".join(_row_format(len(row), ",") % tuple(row) for row in rows) + "\n"


def _report_doc(rep: ConvergenceReport) -> dict:
    return {"estimate": rep.estimate, "status": rep.status,
            "terms_used": rep.terms_used, "last_delta": rep.last_delta,
            "certified": rep.certified}


def _matrix_doc(dm: DenseMatrix) -> list:
    return dm.data.tolist()


# ---------------------------------------------------------------------------
# argument plumbing

class _UsageError(ValueError):
    """A command line the parser rejects: a ``config-error``."""


class _Parser(argparse.ArgumentParser):
    """Raises :class:`_UsageError` with argparse's message instead of
    printing the usage and exiting 2, the ``undetermined`` status."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes -1e-3 for an option; a number in exponent notation is one
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


@functools.cache  # one parser per process: argparse keeps no state between parses
def _build_parser():
    parser = _Parser(
        prog="infmat",
        description="operations on finite and infinite matrices defined by "
                    "JSON specs")
    common = _Parser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-10)
    common.add_argument("--window", type=int, default=3)
    common.add_argument("--max-terms", type=int, default=100_000)
    common.add_argument("--start", type=int, default=8)
    common.add_argument("--growth", type=int, default=2)
    common.add_argument("--max-size", type=int, default=1024)
    common.add_argument("--output", default=None, help="report path (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--quiet", action="store_true",
                        help="suppress per-schedule-step log lines")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("det", parents=[common], help="determinant of a square spec")
    p.add_argument("matrix")

    p = sub.add_parser("inv", parents=[common], help="inverse via the power series")
    p.add_argument("matrix")
    p.add_argument("--n", type=int, default=8, help="exported section size")

    p = sub.add_parser("mul", parents=[common], help="product of two specs")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--n", type=int, default=8, help="exported section size")

    p = sub.add_parser("solve", parents=[common], help="solve A x = b")
    p.add_argument("system")
    p.add_argument("--wanted", default=None,
                   help="comma-separated unknown indices (overrides the file)")
    p.add_argument("--route", choices=("cramer", "inverse"), default="cramer")
    p.add_argument("--check-compat", action="store_true",
                   help="also run the rank-comparison compatibility check")

    p = sub.add_parser("rank", parents=[common], help="stabilized rank")
    p.add_argument("matrix")

    p = sub.add_parser("eig", parents=[common], help="eigenvalues in an interval")
    p.add_argument("matrix")
    p.add_argument("--interval", nargs=2, type=float, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--max-roots", type=int, default=32)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--n", type=int, default=8, help="entries of each eigenvector shown")

    p = sub.add_parser("orth", parents=[common], help="row orthogonalization")
    p.add_argument("matrix")
    p.add_argument("--n", type=int, default=8,
                   help="exported section width for infinite columns")

    p = sub.add_parser("transition", parents=[common],
                       help="coordinates of one basis in another")
    p.add_argument("basis")
    p.add_argument("basis_prime")
    p.add_argument("--n", type=int, required=True, help="number of coordinates")

    p = sub.add_parser("truncate", parents=[common], help="materialize a section")
    p.add_argument("matrix")
    p.add_argument("--n", type=int, default=None, help="section size")
    return parser


def _resolve(args):
    policy = ConvergencePolicy(tol=args.tol, window=args.window,
                               max_terms=args.max_terms)
    schedule = TruncationSchedule(start=args.start, growth=args.growth,
                                  max_size=args.max_size)
    config = {"tol": policy.tol, "window": policy.window,
              "max_terms": policy.max_terms, "start": schedule.start,
              "growth": schedule.growth, "max_size": schedule.max_size,
              "format": args.format}
    return policy, schedule, config


def _worst_status(statuses):
    for status in ("diverged", "undetermined"):
        if status in statuses:
            return status
    return "converged"


# ---------------------------------------------------------------------------
# command handlers: each returns (document, primary dense block or None, exit)

def _cmd_det(args, policy, schedule, config):
    spec = load_matrix_file(args.matrix)
    config["inputs"] = [args.matrix]
    rep = det_infinite(spec, schedule, policy)
    result = {"value": rep.value, "route": rep.route,
              "report": _report_doc(rep.report)}
    return result, None, _STATUS_EXIT[rep.report.status]


def _cmd_inv(args, policy, schedule, config):
    spec = load_matrix_file(args.matrix)
    config["inputs"] = [args.matrix]
    config["n"] = args.n
    rep = neumann_inverse(spec, policy, schedule)
    n = clip_extent(spec.rows, args.n)
    section, block_rep = rep.block_report(n, n)
    result = {"matrix": _matrix_doc(section), "norm_check": rep.norm_check,
              "series_terms": rep.series_terms, "residual": rep.residual,
              "block_report": _report_doc(block_rep)}
    return result, section, _STATUS_EXIT[block_rep.status]


def _cmd_mul(args, policy, schedule, config):
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    left = load_matrix_file(args.left)
    right = load_matrix_file(args.right)
    config["inputs"] = [args.left, args.right]
    config["n"] = args.n
    product = matmul(left, right, policy)
    reports = {f"{i},{j}": _report_doc(rep)
               for (i, j), rep in product.per_entry_reports.items()}
    result = {"overall_status": product.overall_status,
              "per_entry_reports": reports}
    section = None
    if product.overall_status != "failed":
        m, n = clip_extent(product.matrix.rows, args.n), clip_extent(product.matrix.cols, args.n)
        section = truncate(product.matrix, m, n)
        result["matrix"] = _matrix_doc(section)
        # every shown entry's report, read when the section was, bounds the verdict
        shown = _worst_status({product.entry_report(i, j).status
                               for i in range(1, m + 1) for j in range(1, n + 1)})
        if shown == "diverged":
            result["overall_status"] = "failed"
        elif shown == "undetermined" and product.overall_status == "converged":
            result["overall_status"] = "partial"
    exit_code = {"converged": EXIT_OK, "partial": EXIT_UNDETERMINED,
                 "failed": EXIT_ERROR}[result["overall_status"]]
    return result, section, exit_code


def _cmd_solve(args, policy, schedule, config):
    A, b, wanted = load_system_file(args.system)
    if args.wanted:
        try:
            wanted = [int(w) for w in args.wanted.split(",")]
        except ValueError as exc:
            raise SchemaError(f"--wanted must be comma-separated integers "
                              f"({args.wanted!r})") from exc
        if any(w < 1 for w in wanted):
            raise SchemaError("--wanted indices must be >= 1")
    config["inputs"] = [args.system]
    config["wanted"] = wanted
    config["route"] = args.route
    if args.route == "cramer":
        rep = cramer_solve(A, b, wanted, schedule, policy)
    else:
        rep = solve_via_inverse(A, b, policy, schedule, wanted=wanted)
    unknowns = {str(i): _report_doc(r) for i, r in rep.unknowns.items()}
    result = {"route": rep.route, "unknowns": unknowns,
              "residual": rep.residual}
    if rep.condition is not None:
        result["normal_condition"] = _report_doc(rep.condition)
    if args.check_compat:
        compat = rep.compatibility()
        result["compatibility"] = {
            "verdict": compat.verdict,
            "rank_A": _report_doc(compat.rank_A),
            "rank_Ab": _report_doc(compat.rank_Ab)}
    status = _worst_status({r.status for r in rep.unknowns.values()} or {"converged"})
    return result, None, _STATUS_EXIT[status]


def _cmd_rank(args, policy, schedule, config):
    spec = load_matrix_file(args.matrix)
    config["inputs"] = [args.matrix]
    rep = rank_of(spec, schedule, policy)
    return {"rank": _report_doc(rep)}, None, _STATUS_EXIT[rep.status]


def _cmd_eig(args, policy, schedule, config):
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    spec = load_matrix_file(args.matrix)
    config["inputs"] = [args.matrix]
    config["interval"] = list(args.interval)
    pairs = find_eigenvalues(spec, tuple(args.interval), schedule, policy,
                             max_roots=args.max_roots, grid_points=args.grid)
    roots = []
    for pair in pairs:
        shown = min(args.n, pair.vector.rows)
        roots.append({"lambda": pair.lam,
                      "char_residual": pair.char_residual,
                      "vec_residual": pair.vec_residual,
                      "stable": pair.stable,
                      "vector": [pair.vector.entry(i, 1) for i in range(1, shown + 1)]})
    result = {"roots": roots, "count": len(roots)}
    exit_code = EXIT_OK if all(p.stable for p in pairs) else EXIT_UNDETERMINED
    return result, None, exit_code


def _cmd_orth(args, policy, schedule, config):
    spec = load_matrix_file(args.matrix)
    config["inputs"] = [args.matrix]
    rep = orthogonalize(spec, policy)
    result = {"G": _matrix_doc(rep.G), "gram": _matrix_doc(rep.gram),
              "max_offdiag_dot": rep.max_offdiag_dot}
    if isinstance(rep.A_prime, OrthogonalRows):
        section = rep.A_prime.section(args.n)
        result["A_prime"] = {
            "coefficients": _matrix_doc(DenseMatrix(rep.A_prime.coefficients)),
            "section": _matrix_doc(section)}
    else:
        section = rep.A_prime
        result["A_prime"] = _matrix_doc(section)
    return result, section, EXIT_OK


def _cmd_transition(args, policy, schedule, config):
    B = load_family_file(args.basis)
    Bp = load_family_file(args.basis_prime)
    config["inputs"] = [args.basis, args.basis_prime]
    config["n"] = args.n
    res = transition_matrix(B, Bp, args.n, schedule, policy)
    result = {"matrix": _matrix_doc(res.matrix),
              "column_status": {str(i): s for i, s in res.column_status.items()}}
    ok = all(s == "converged" for s in res.column_status.values())
    return result, res.matrix, EXIT_OK if ok else EXIT_UNDETERMINED


def _cmd_truncate(args, policy, schedule, config):
    spec = load_matrix_file(args.matrix)
    config["inputs"] = [args.matrix]
    if args.n is None:
        if not (is_finite_extent(spec.rows) and is_finite_extent(spec.cols)):
            raise ExtentMismatchError("--n is required for an infinite spec")
        m, n = spec.rows, spec.cols
    else:
        m, n = clip_extent(spec.rows, args.n), clip_extent(spec.cols, args.n)
    config["n"] = args.n
    section = truncate(spec, m, n)
    return {"matrix": _matrix_doc(section), "rows": m, "cols": n}, section, EXIT_OK


_HANDLERS = {"det": _cmd_det, "inv": _cmd_inv, "mul": _cmd_mul,
             "solve": _cmd_solve, "rank": _cmd_rank, "eig": _cmd_eig,
             "orth": _cmd_orth, "transition": _cmd_transition,
             "truncate": _cmd_truncate}


def _error_code(exc) -> str:
    for klass, code in _ERROR_CODES:
        if isinstance(exc, klass):
            return code
    return "error"


def _write(text, path, exit_code) -> int:
    """Writes ``text`` to ``path`` (stdout when None) and returns
    ``exit_code``; a path that cannot be written gets an ``io-error``
    document on stdout instead, and exit 1."""
    if path is None:
        sys.stdout.write(text)
        return exit_code
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        doc = {"error": {"code": "io-error", "message": str(exc)}}
        return _write(render_document(doc), None, EXIT_ERROR)
    return exit_code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        doc = {"error": {"code": "config-error", "message": str(exc)}}
        return _write(render_document(doc), None, EXIT_ERROR)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(message)s")
    if args.quiet:
        logging.getLogger("infmat").setLevel(logging.WARNING)
    try:
        policy, schedule, config = _resolve(args)
        config["command"] = args.command
        result, block, exit_code = _HANDLERS[args.command](args, policy,
                                                           schedule, config)
    except (InfmatError, FileNotFoundError, IsADirectoryError, ValueError) as exc:
        doc = {"error": {"code": _error_code(exc), "message": str(exc)}}
        if isinstance(exc, ParseError):
            doc["error"]["position"] = exc.position
        if isinstance(exc, PreconditionError) and exc.measured is not None:
            doc["error"]["measured"] = exc.measured
        if isinstance(exc, (FileNotFoundError, IsADirectoryError)):
            doc["error"]["code"] = "io-error"
        elif isinstance(exc, ValueError) and not isinstance(exc, InfmatError):
            doc["error"]["code"] = "config-error"
        return _write(render_document(doc), args.output, EXIT_ERROR)

    if args.format == "csv":
        if block is None:
            doc = {"error": {"code": "format-error",
                             "message": f"{args.command} has no dense block to "
                                        "export as csv"}}
            return _write(render_document(doc), args.output, EXIT_ERROR)
        return _write(render_csv(block), args.output, exit_code)

    doc = {"command": args.command, "config": config, "result": result,
           "status": {EXIT_OK: "ok", EXIT_UNDETERMINED: "undetermined",
                      EXIT_ERROR: "failed"}[exit_code]}
    return _write(render_document(doc), args.output, exit_code)


if __name__ == "__main__":
    sys.exit(main())
