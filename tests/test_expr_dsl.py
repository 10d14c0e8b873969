import json
import math

import pytest
from hypothesis import given, strategies as st

from infmat.expr_dsl import (MAX_DEPTH, BinOp, Call, EvalError, Neg, Num, ParseError, Var,
                             eval_ast, parse, pretty)


def ev(src, **bindings):
    return eval_ast(parse(src), **bindings)


# --- parsing ---------------------------------------------------------------

def test_power_of_sum_entry_formula():
    assert ev("1/2^(i+j)", i=1, j=1) == 0.25


def test_conditional_selects_branch():
    assert ev("if(j==i+1, j, 0)", i=1, j=2) == 2.0
    assert ev("if(j==i+1, j, 0)", i=1, j=3) == 0.0


def test_double_caret_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse("2^^3")
    assert err.value.position == 2


@pytest.mark.parametrize("src, expected", [
    ("2+3*4", 14.0),
    ("2^3^2", 512.0),
    ("-2^2", -4.0),
    ("(2+3)*4", 20.0),
    ("2^-2", 0.25),
    ("10-4-3", 3.0),
    ("12/3/2", 2.0),
    ("-(2+3)", -5.0),
    ("min(3, max(1, 2))", 2.0),
    ("abs(-7)", 7.0),
    ("exp(0)", 1.0),
    ("ln(exp(2))", 2.0),
])
def test_precedence_fixtures(src, expected):
    assert ev(src) == pytest.approx(expected, abs=1e-12)


def test_chained_comparison_rejected():
    with pytest.raises(ParseError):
        parse("1 == 2 == 3")


@pytest.mark.parametrize("src", ["", "2 +", "delta(1)", "foo(1)", "q", "(1",
                                 "fact(1, 2)", "1 2", "delta(i j)"])
def test_malformed_inputs(src):
    with pytest.raises(ParseError):
        parse(src)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse("1 + $")
    assert err.value.position == 4


_NESTED = {
    "parentheses": lambda n: "(" * (n - 1) + "1" + ")" * (n - 1),
    "unary-minus": lambda n: "-" * (n - 1) + "1",
    "power-chain": lambda n: "^".join(["1"] * n),
    "flat-sum": lambda n: "+".join(["1"] * n),
}


@pytest.mark.parametrize("nested", _NESTED.values(), ids=_NESTED)
def test_nesting_is_bounded_by_max_depth(nested):
    assert math.isfinite(ev(nested(MAX_DEPTH)))
    for n in (MAX_DEPTH + 1, 3000):
        with pytest.raises(ParseError, match=f"at most {MAX_DEPTH} levels of nesting"):
            parse(nested(n))


@pytest.mark.parametrize("src, offset", [
    # the 300th '+' builds the sum of depth 301
    ("+".join(["1"] * (MAX_DEPTH + 1)), 2 * MAX_DEPTH - 1),
    # a sum of depth 52 under MAX_DEPTH - 50 ifs: the second if, at offset 8,
    # is the node of depth MAX_DEPTH + 1
    ("if(j-1, " * (MAX_DEPTH - 50) + "+".join(["1"] * 52) + ", 0)" * (MAX_DEPTH - 50), 8),
], ids=["flat-sum", "if-chain"])
def test_a_tree_past_max_depth_is_an_error_at_the_token_that_builds_it(src, offset):
    with pytest.raises(ParseError, match=f"at most {MAX_DEPTH} levels of nesting") as err:
        parse(src)
    assert err.value.position == offset
    assert src[offset:].startswith(err.value.found)


def test_a_formula_at_max_depth_evaluates_in_a_product_block(tmp_path, capsys):
    # the deepest walk: mul reads rows and columns of A through the block
    # oracle, and each ``if`` takes two frames, both branches on each line
    from infmat.cli import main

    def nested_if(depth):
        formula = "1/(i+j)^2"  # 4 levels
        for _ in range(depth - 4):
            formula = f"if(j-1, {formula}, 0)"
        return formula

    for depth, code in ((MAX_DEPTH, 0), (MAX_DEPTH + 1, 1)):
        path = tmp_path / f"a{depth}.json"
        path.write_text(json.dumps({"rows": "inf", "cols": "inf", "kind": "expr",
                                    "expr": nested_if(depth)}))
        assert main(["mul", str(path), str(path), "--tol", "1e-6", "--quiet"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "ok" if code == 0 else doc["error"]["code"] == "parse-error"


# --- evaluation ------------------------------------------------------------

def test_kronecker_delta():
    assert ev("delta(i,j)", i=3, j=3) == 1.0
    assert ev("delta(i,j)", i=3, j=4) == 0.0


def test_factorial_reciprocal():
    assert ev("1/fact(j-1)", j=4) == pytest.approx(1.0 / 6.0)


def test_division_by_zero_raises():
    with pytest.raises(EvalError):
        ev("i/0", i=5)


def test_unbound_variable_raises():
    with pytest.raises(EvalError):
        ev("i + k", i=1)


@pytest.mark.parametrize("src,shown", [("fact(exp(1000*i))", "inf"),
                                       ("fact(0-exp(1000))", "-inf"),
                                       ("fact(exp(1000) - exp(1000))", "nan")])
def test_fact_of_a_non_finite_value_is_an_eval_error(src, shown):
    with pytest.raises(EvalError, match=f"got {shown}$"):
        ev(src, i=1)


def test_fact_past_the_table_is_inf_at_once():
    assert eval_ast(parse("fact(1e6)")) == math.inf
    assert eval_ast(parse("fact(170)")) == float(math.factorial(170))


def test_fact_domain_errors():
    with pytest.raises(EvalError):
        ev("fact(0-3)")
    with pytest.raises(EvalError):
        ev("fact(2.5)")


def test_ln_domain_error():
    with pytest.raises(EvalError):
        ev("ln(0)")


def test_comparison_yields_scalar():
    assert ev("(i == 1) + (j == 1)", i=1, j=2) == 1.0


def test_eval_is_pure():
    ast = parse("i^2 + j/3 - delta(i, j)")
    first = eval_ast(ast, i=5, j=9)
    for _ in range(5):
        assert eval_ast(ast, i=5, j=9) == first


# --- round trip ------------------------------------------------------------

_numbers = st.one_of(
    st.integers(min_value=0, max_value=999).map(float),
    st.floats(min_value=0.001, max_value=1000.0, allow_nan=False,
              allow_infinity=False),
)

_leaves = st.one_of(_numbers.map(Num),
                    st.sampled_from(["i", "j", "k"]).map(Var))


def _builds_ast(children):
    unary = children.map(Neg)
    binop = st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]),
                      children, children).map(lambda t: BinOp(*t))
    call1 = st.tuples(st.sampled_from(["exp", "abs", "fact"]),
                      children).map(lambda t: Call(t[0], (t[1],)))
    call2 = st.tuples(st.sampled_from(["delta", "min", "max"]),
                      children, children).map(lambda t: Call(t[0], (t[1], t[2])))
    call3 = st.tuples(children, children, children).map(
        lambda t: Call("if", t))
    eq = st.tuples(children, children).map(lambda t: BinOp("==", t[0], t[1]))
    return st.one_of(unary, binop, call1, call2, call3, eq)


_asts = st.recursive(_leaves, _builds_ast, max_leaves=25)


@given(_asts)
def test_pretty_print_round_trip(ast):
    assert parse(pretty(ast)) == ast


def test_third_variable_binding():
    assert ev("k + i", i=1, k=5) == 6.0
    with pytest.raises(EvalError):
        ev("k", i=1, j=1)


SOURCE_CORPUS = [
    "1/2^(i+j)",
    "if(j==i+1, j, 0)",
    "delta(i,j)",
    "1/fact(j-1)",
    "2+3*4",
    "2^3^2",
    "-2^2",
    "min(i, max(j, 1)) - abs(i - j)",
    "exp(-(i+j)) * ln(j + 1)",
    "(i == 1) + (j == 1)",
    "1 + 0.5*delta(i,1)",
]


@pytest.mark.parametrize("src", SOURCE_CORPUS)
def test_source_corpus_round_trip(src):
    ast = parse(src)
    assert parse(pretty(ast)) == ast
