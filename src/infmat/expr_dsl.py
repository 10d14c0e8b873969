"""Entry-formula mini-language for defining matrices in JSON files.

Grammar, lowest to highest precedence:

    comparison   ==        (non-associative)
    additive     + -       (left)
    multiplicative * /     (left)
    unary minus
    power        ^         (right, binds tighter than unary minus)
    atoms: number literals, variables i j k, parentheses, calls

Calls: ``if(c, t, e)`` (t when c != 0), ``delta(a, b)`` (1 when a == b),
``fact(n)`` (n! for integer n >= 0), ``exp``, ``ln``, ``abs``,
``min``, ``max``.  Comparisons yield the scalars 0/1; there is no
boolean type.

A formula's tree is at most :data:`MAX_DEPTH` levels deep, and so is its
nesting as parsed, where a pair of parentheses is a level too.  A deeper
formula is a :class:`ParseError` at the offset of the token where it
passes the bound, so that parsing and evaluation stay within Python's
recursion limit.

One tree walker evaluates a parsed formula over one of two operation
tables.  :func:`eval_ast` walks it with the scalar table for one cell;
:func:`compile_block` walks it with the block table over whole index
arrays.  ``expr`` and ``finite-support`` specs read from JSON fill their
sections through the block function (``MatrixSpec.block``); every other
read -- point reads, banded specs, vectors, basis families, specs
derived from others -- is scalar.  The block table gives the same bits
as the scalar one, and it raises nothing: a cell the scalar path could
reject makes the block function return ``None``, and the caller then
evaluates that fill cell by cell, so every error is raised by the scalar
path.

The block table maps ``^``, ``exp`` and ``ln`` from :mod:`math`, whose
bits numpy's own functions do not always give, with ``map`` over the
cells as Python floats: no Python call of ours runs per cell, and each
cell is mapped once, an overflowing one to ``inf`` where it stands.  A
block whose arguments are constant along its anti-diagonals (Hankel,
``i+j``) or its diagonals (Toeplitz, ``i-j``) is mapped once per line,
and the block is a read-only strided view of that line, with no copy.
"""

import itertools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import InfmatError


class ParseError(InfmatError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, position: int, expected: str, found: str):
        super().__init__(f"at offset {position}: expected {expected}, found {found!r}")
        self.position = position
        self.expected = expected
        self.found = found


class EvalError(InfmatError):
    """Arithmetic or binding failure while evaluating an expression."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


ExprAst = Num | Var | Neg | BinOp | Call

_ARITY = {"if": 3, "delta": 2, "fact": 1, "exp": 1, "ln": 1,
          "abs": 1, "min": 2, "max": 2}
_VARS = ("i", "j", "k")

_BP = {"==": 10, "+": 20, "-": 20, "*": 30, "/": 30, "^": 50}
_UNARY_BP = 40

# the deepest formula accepted; the walk of an ``if`` takes two Python
# frames a level, so a formula this deep evaluates well within the
# default recursion limit of 1000
MAX_DEPTH = 300

_TOKEN = re.compile(
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>==|[+\-*/^(),])")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(pos, "a token", src[pos])
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.idx = 0
        self.level = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(pos, f"'{op}'", text or "end of input")
        return self.advance()

    def parse(self):
        node, _ = self.expression(0)
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(pos, "end of input", text)
        return node

    def build(self, pos, text, make, *children):
        """``(make(*trees), depth)`` for the ``(tree, depth)`` pairs
        ``children``; past :data:`MAX_DEPTH` levels it raises at the token
        ``text`` at ``pos``, which builds the node."""
        depth = 1 + max(d for _, d in children)
        if depth > MAX_DEPTH:
            raise ParseError(pos, f"at most {MAX_DEPTH} levels of nesting", text)
        return make(*(tree for tree, _ in children)), depth

    # expression, prefix and infix return (tree, depth) pairs
    def expression(self, rbp):
        if self.level == MAX_DEPTH:
            kind, text, pos = self.peek()
            raise ParseError(pos, f"at most {MAX_DEPTH} levels of nesting", text)
        self.level += 1
        node = self.prefix()
        while True:
            kind, text, pos = self.peek()
            if kind != "op" or text not in _BP or _BP[text] <= rbp:
                self.level -= 1
                return node
            self.advance()
            node = self.infix(text, node, pos)

    def prefix(self):
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text)), 1
        if kind == "name":
            if text in _ARITY:
                self.expect_op("(")
                args = [self.expression(0)]
                while True:
                    k2, t2, p2 = self.peek()
                    if k2 == "op" and t2 == ",":
                        self.advance()
                        args.append(self.expression(0))
                    else:
                        break
                self.expect_op(")")
                if len(args) != _ARITY[text]:
                    raise ParseError(pos, f"{_ARITY[text]} argument(s) to {text}",
                                     f"{len(args)} argument(s)")
                return self.build(pos, text, lambda *a: Call(text, a), *args)
            if text in _VARS:
                return Var(text), 1
            raise ParseError(pos, "a variable (i, j, k) or function", text)
        if kind == "op" and text == "(":
            node = self.expression(0)
            self.expect_op(")")
            return node
        if kind == "op" and text == "-":
            return self.build(pos, text, Neg, self.expression(_UNARY_BP))
        raise ParseError(pos, "a value", text or "end of input")

    def infix(self, op, left, pos):
        if op == "==":
            right = self.expression(_BP[op])
            kind, text, next_pos = self.peek()
            if kind == "op" and text == "==":
                raise ParseError(next_pos, "a non-chained comparison", text)
        elif op == "^":
            # right-associative
            right = self.expression(_BP[op] - 1)
        else:
            right = self.expression(_BP[op])
        return self.build(pos, op, lambda a, b: BinOp(op, a, b), left, right)


def parse(src: str) -> ExprAst:
    """Parse expression text; raises :class:`ParseError` with a position."""
    return _Parser(src).parse()


def eval_ast(node: ExprAst, i: int | None = None, j: int | None = None,
             k: int | None = None) -> float:
    """Evaluate an expression with the given variable bindings.

    Unbound variables, division by zero, ``ln`` of a non-positive value
    and ``fact`` of a negative, non-integer or non-finite value all raise
    :class:`EvalError`.  Overflow saturates to ``inf``, which downstream
    convergence checks treat as divergence.
    """
    env = {}
    if i is not None:
        env["i"] = float(i)
    if j is not None:
        env["j"] = float(j)
    if k is not None:
        env["k"] = float(k)
    return _walk(node, env, _SCALAR)


def _walk(node, env, ops):
    """Value of ``node`` with variables from ``env``.  Each operator and
    function is ``ops[name]``; ``ops["if"]`` gets the unevaluated branches
    and ``ops["unbound"]`` the name of a variable missing from ``env``."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            return ops["unbound"](node.name)
    if isinstance(node, Neg):
        return -_walk(node.operand, env, ops)
    if isinstance(node, BinOp):
        return ops[node.op](_walk(node.left, env, ops), _walk(node.right, env, ops))
    if node.func == "if":
        return ops["if"](node.args, env, ops)
    return ops[node.func](*[_walk(a, env, ops) for a in node.args])


def _num_text(value: float) -> str:
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def pretty(node: ExprAst) -> str:
    """Render an AST back to source; reparses to an identical tree."""
    return _pretty(node, 0)


def _pretty(node, context_bp) -> str:
    if isinstance(node, Num):
        return _num_text(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({', '.join(_pretty(a, 0) for a in node.args)})"
    if isinstance(node, Neg):
        text = "-" + _pretty(node.operand, _UNARY_BP)
        return f"({text})" if context_bp >= _UNARY_BP else text
    if isinstance(node, BinOp):
        bp = _BP[node.op]
        if node.op == "^":
            left = _pretty(node.left, bp)
            right = _pretty(node.right, bp - 1)
        elif node.op == "==":
            # non-associative: nested comparisons always need parentheses
            left = _pretty(node.left, bp)
            right = _pretty(node.right, bp)
        else:
            left = _pretty(node.left, bp - 1)
            right = _pretty(node.right, bp)
        text = f"{left} {node.op} {right}" if node.op == "==" else f"{left}{node.op}{right}"
        return f"({text})" if bp <= context_bp else text
    raise TypeError(f"not an AST node: {node!r}")


class _Flagged(Exception):
    """A block holds a cell that the scalar evaluator may reject."""


# n! for n = 0..170 as floats; n >= 171 overflows to inf.  Both the scalar
# and the block ``fact`` read it
_FACTORIALS = np.array([float(math.factorial(n)) for n in range(171)] + [math.inf])


def _saturating(fn):
    def cell(*args):
        try:
            return fn(*args)
        except OverflowError:
            return math.inf

    return cell


def _math_map(fn, *args):
    """``fn`` from :mod:`math` over the broadcast cells of ``args``.

    numpy's own ``**``, ``exp`` and ``log`` differ from :mod:`math` in
    the last bit on some cells, so the scalar functions are mapped: by
    ``map`` over the cells as Python floats, with no Python call of our
    own per cell, in one pass.  An overflowing cell is ``inf`` where it
    stands, as in :func:`eval_ast`, and the map goes on past it; a
    domain error flags the block.

    A 2-d block of at least 2 rows and 2 columns whose every argument is
    constant, bit for bit, along each anti-diagonal (a Hankel block, such
    as ``i+j``) or along each diagonal (Toeplitz, such as ``i-j``) is
    mapped once per line: ``fn`` runs over the m + n - 1 argument values
    of its first row and last column (its first column bottom up and its
    first row, for Toeplitz), and the block is a read-only strided view
    of that line, with no copy.  The line holds exactly the block's
    argument values, so it raises a domain error exactly when the block
    would.
    """
    shape = np.broadcast(*args).shape
    # each argument a float, or an array of the block's shape
    cells = [float(a) if isinstance(a, float) or a.ndim == 0 else a if a.shape == shape
             else np.broadcast_to(a, shape) for a in args]
    if len(shape) == 2 and min(shape) >= 2:
        bits = [c.view(np.int64) for c in cells if not isinstance(c, float)]
        if all((b[1:, :-1] == b[:-1, 1:]).all() for b in bits):
            # Hankel: cell (r, c) is line[r + c]
            line = [c if isinstance(c, float) else np.concatenate((c[0], c[1:, -1]))
                    for c in cells]
            start, row_step = 0, 1
        elif all((b[1:, 1:] == b[:-1, :-1]).all() for b in bits):
            # Toeplitz: cell (r, c) is line[m - 1 - r + c]
            line = [c if isinstance(c, float) else np.concatenate((c[::-1, 0], c[0, 1:]))
                    for c in cells]
            start, row_step = shape[0] - 1, -1
        else:
            line = None
        if line is not None:
            values = _map_cells(fn, (sum(shape) - 1,), line)
            values.flags.writeable = False
            return np.ndarray(shape, float, values, 8 * start, (8 * row_step, 8))
    return _map_cells(fn, shape, cells)


def _map_cells(fn, shape, cells):
    """``fn`` over the cells of ``shape``, its arguments ``cells``, each a
    float or an array of that shape: one pass of ``map`` over Python
    floats."""
    size = math.prod(shape)
    mapped = map(fn, *[itertools.repeat(c, size) if isinstance(c, float)
                       else c.ravel().tolist() for c in cells])
    values = []
    while True:
        try:
            # an exception leaves the values before it in the list, and
            # the map goes on from the cell after it
            values += mapped
            break
        except OverflowError:
            values.append(math.inf)
        except ValueError:
            raise _Flagged from None
    return np.fromiter(values, float, size).reshape(shape)


def _flag_if(bad):
    if np.any(bad):
        raise _Flagged


def _unbound(name):
    raise EvalError(f"unbound variable {name!r}")


def _divide(a, b):
    if b == 0.0:
        raise EvalError("division by zero")
    return a / b


def _pow(a, b):
    try:
        return math.pow(a, b)
    except OverflowError:
        return math.inf
    except ValueError as exc:
        raise EvalError(f"domain error in {a} ^ {b}") from exc


def _fact(x):
    nearest = round(x) if math.isfinite(x) else -1
    if abs(x - nearest) > 1e-9 or nearest < 0:
        raise EvalError(f"fact requires a non-negative integer, got {x}")
    return float(_FACTORIALS[min(nearest, 171)])


def _ln(x):
    if x <= 0.0:
        raise EvalError(f"ln of non-positive value {x}")
    return math.log(x)


# one cell: Python floats, errors raised as EvalError
_SCALAR = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _pow,
    "==": lambda a, b: 1.0 if a == b else 0.0,
    "abs": abs, "min": min, "max": max, "exp": _saturating(math.exp), "ln": _ln,
    "fact": _fact, "unbound": _unbound,
    "if": lambda args, env, ops: _walk(args[1] if _walk(args[0], env, ops) != 0.0
                                       else args[2], env, ops),
}
_SCALAR["delta"] = _SCALAR["=="]


def _divide_block(a, b):
    _flag_if(b == 0.0)
    return a / b


def _fact_block(x):
    _flag_if(~np.isfinite(x))
    nearest = np.round(x)  # half to even, as round()
    _flag_if((np.abs(x - nearest) > 1e-9) | (nearest < 0))
    return _FACTORIALS[np.minimum(nearest, 171).astype(np.intp)]


def _masked_if(args, env, ops):
    """``if`` over a block: each branch is walked on the cells that take it."""
    taken = _walk(args[0], env, ops) != 0.0
    if np.all(taken):
        return _walk(args[1], env, ops)
    if not np.any(taken):
        return _walk(args[2], env, ops)
    shape = np.broadcast_shapes(*map(np.shape, env.values()))
    taken = np.broadcast_to(taken, shape)
    cells = {name: np.broadcast_to(v, shape) for name, v in env.items()}
    out = np.empty(shape)
    out[taken] = _walk(args[1], {name: v[taken] for name, v in cells.items()}, ops)
    out[~taken] = _walk(args[2], {name: v[~taken] for name, v in cells.items()}, ops)
    return out


# index arrays: the same bits cell by cell, a cell the scalar table may
# reject flags the block
_BLOCK = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide_block,
    "^": lambda a, b: _math_map(math.pow, a, b),
    "==": lambda a, b: np.where(a == b, 1.0, 0.0),
    "abs": np.abs,
    "min": lambda a, b: np.where(b < a, b, a),  # min() keeps a unless b < a
    "max": lambda a, b: np.where(b > a, b, a),
    "exp": lambda a: _math_map(math.exp, a),
    "ln": lambda a: _math_map(math.log, a),  # ValueError on a <= 0
    "fact": _fact_block, "unbound": lambda name: _flag_if(True), "if": _masked_if,
}
_BLOCK["delta"] = _BLOCK["=="]


def compile_block(node: ExprAst):
    """The block function ``block(I, J)`` of a formula in ``i`` and ``j``.

    ``I`` and ``J`` are float arrays of 1-based indices that broadcast
    together (``rows[:, None]``, ``cols[None, :]``).  The result
    broadcasts to their common shape and equals :func:`eval_ast` bit for
    bit on every cell.  ``if`` evaluates each branch only on the cells
    that take it.  ``^``, ``exp`` and ``ln`` map :mod:`math` through
    ``map`` (:func:`_math_map`) once per diagonal line of a Hankel or
    Toeplitz block (``i+j``, ``i-j``), whose value is then a read-only
    strided view of the line, else once per cell; an overflowing cell is
    ``inf``.  ``None`` is returned, instead of any value, when a
    cell may be an error of the scalar path: a zero divisor, ``ln`` of a
    value <= 0, a domain error of ``^``, a bad ``fact`` argument, the
    variable ``k``, or ``j`` when ``J`` is ``None`` (a vector's formula).
    """
    def block(I, J):
        env = {"i": I} if J is None else {"i": I, "j": J}
        with np.errstate(all="ignore"):
            try:
                return _walk(node, env, _BLOCK)
            except _Flagged:
                return None

    return block


def compile_entry(src: str | ExprAst):
    """Parse once, return a fast ``(i, j) -> float`` oracle."""
    ast = parse(src) if isinstance(src, str) else src

    def oracle(i, j, _ast=ast):
        return eval_ast(_ast, i=i, j=j)

    return oracle
