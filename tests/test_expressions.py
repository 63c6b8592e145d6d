"""Parser, printer, and symbolic-derivative checks for the expression language."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defectgeo import expressions as ex
from defectgeo.errors import EvaluationError, ParseError
from defectgeo.fields import BLOCK, Point, SymbolicFormField, evaluate_fields

from util import random_expr, reference_evaluate

GOLDEN_CORPUS = [
    "1",
    "-1",
    "2+3*4",
    "2*x + sin(y*z)",
    "x^2",
    "x^(-2)",
    "-x^2",
    "2^3^2",
    "(x+y)*(x-y)",
    "x/y/z",
    "x-y-z",
    "x-(y-z)",
    "x*(y+z)",
    "sin(cos(tan(x)))",
    "exp(-x^2)",
    "ln(1+x^2)",
    "sqrt(1+y^2)",
    "abs(x-y)",
    "sign(z)",
    "pi*x",
    "euler^2",
    "x*y*z",
    "x+y*z^2",
    "(x+y)^3",
    "1/(1+exp(-x))",
    "x^0.5",
    "3.25e-2*x",
    "-(x+y)",
    "-sin(x)",
    "x--y",
    "x- -y",
    "0.5*(x+abs(x))",
    "tan(x/4)",
    "x^2*y^3",
    "(x/(y+2))/((z+3)/4)",
    "sin(x)^2+cos(x)^2",
    "x*t",
    "t^2-x",
    "exp(x)*exp(y)",
    "ln(euler)",
    "sqrt(x^2+y^2+z^2+1)",
    "x+1e3",
    "2*pi*sin(pi*x)",
    "((x))",
    "x*-y",
    "5-3-1",
    "4/2/2",
    "x^2^2",
    "abs(-x)",
    "cos(-y)*sin(-z)",
]


def test_corpus_has_fifty_expressions():
    assert len(GOLDEN_CORPUS) == 50


def test_precedence_example():
    e = ex.parse_expr("2+3*4")
    assert ex.evaluate(e, 0.0, 0.0, 0.0, 0.0) == 14.0


def test_mixed_expression_example():
    e = ex.parse_expr("2*x + sin(y*z)")
    assert ex.evaluate(e, 0.0, 1.0, math.pi / 2, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_power_binds_tighter_than_unary_minus():
    e = ex.parse_expr("-x^2")
    assert ex.evaluate(e, 3.0, 0.0, 0.0, 0.0) == -9.0


def test_power_right_associative():
    assert ex.evaluate(ex.parse_expr("2^3^2"), 0, 0, 0, 0.0) == 512.0


def test_left_associativity():
    assert ex.evaluate(ex.parse_expr("5-3-1"), 0, 0, 0, 0.0) == 1.0
    assert ex.evaluate(ex.parse_expr("8/4/2"), 0, 0, 0, 0.0) == 1.0


@pytest.mark.parametrize(
    "text,offset",
    [
        ("2*+x", 2),
        ("(1+2", 4),
        ("1+*2", 2),
        ("sin x", 4),
        ("foo(3)", 0),
        ("x^y", 2),
        ("1 2", 2),
        ("", 0),
        (".", 0),
        ("1 + .", 4),
        ("2²", 1),
        ("1e²", 1),
    ],
)
def test_parse_error_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        ex.parse_expr(text)
    assert err.value.offset == offset
    assert 0 <= err.value.offset <= len(text)


#: seeded arguments of the fold-vs-walk tests, with the edge values
FOLD_ARGS = np.concatenate([
    np.random.default_rng(24).uniform(-30.0, 30.0, 1000),
    np.random.default_rng(25).uniform(-1e3, 1e3, 200),
    [0.0, -0.0, 1e-300, 709.0, 710.0, 1e308, np.inf, -np.inf, np.nan],
])


def _fold_mismatches(build, node):
    """How many folds of `build(Num(v))` over FOLD_ARGS differ from the walk of `node` (a
    function of x) at x = v, in value or sign (every NaN is one Num).  A node left
    unfolded must be one the walk raises on."""
    folded = [build(ex.Num(v)) for v in FOLD_ARGS]
    is_num = np.array([type(f) is ex.Num for f in folded])
    with np.errstate(all="ignore"):
        walked = ex.evaluate(node, FOLD_ARGS[is_num], 0.0, 0.0, 0.0)
        for v in FOLD_ARGS[~is_num]:
            with pytest.raises(EvaluationError):
                ex.evaluate(node, v, 0.0, 0.0, 0.0)
    values = np.array([f.value for f in folded if type(f) is ex.Num])
    nan = np.isnan(values) & np.isnan(walked)
    return int(np.sum(~nan & ((values != walked) | (np.signbit(values) != np.signbit(walked)))))


@pytest.mark.parametrize("name", ex.FUNCTIONS)
def test_a_folded_function_has_the_bits_of_the_walk(name):
    assert _fold_mismatches(lambda a: ex.fun(name, a), ex.Fun(name, ex.Var("x"))) == 0


@pytest.mark.parametrize("exponent", [0.5, 2.0, 3.0, -1.0, -1.5, 2.2])
def test_a_folded_power_has_the_bits_of_the_walk(exponent):
    assert _fold_mismatches(lambda a: ex.pow_(a, exponent), ex.Pow(ex.Var("x"), exponent)) == 0


def test_parse_error_expected_description():
    with pytest.raises(ParseError) as err:
        ex.parse_expr("2*+x")
    assert "operand" in err.value.expected


def test_differentiate_power():
    d = ex.differentiate(ex.parse_expr("x^2"), "x")
    for v in (0.0, 1.5, -2.0):
        assert ex.evaluate(d, v, 0, 0, 0.0) == pytest.approx(2 * v)


def test_differentiate_chain_rule():
    d = ex.differentiate(ex.parse_expr("sin(x*y)"), "x")
    for x, y in ((0.3, 0.7), (1.2, -0.4)):
        assert ex.evaluate(d, x, y, 0, 0.0) == pytest.approx(y * math.cos(x * y), rel=1e-12)


def test_differentiate_vs_finite_difference():
    rng = np.random.default_rng(101)
    h = 1e-6
    for _ in range(50):
        text = random_expr(rng, depth=4)
        e = ex.parse_expr(text)
        for var in ("x", "y", "z"):
            d = ex.differentiate(e, var)
            worst = 0.0
            for _ in range(50 // 10):
                x, y, z = rng.uniform(-1, 1, 3)
                args = {"x": x, "y": y, "z": z}
                sym = ex.evaluate(d, x, y, z, 0.0)
                shift = dict(args)
                shift[var] = args[var] + h
                plus = ex.evaluate(e, shift["x"], shift["y"], shift["z"], 0.0)
                shift[var] = args[var] - h
                minus = ex.evaluate(e, shift["x"], shift["y"], shift["z"], 0.0)
                fd = (plus - minus) / (2 * h)
                scale = max(1.0, abs(fd))
                worst = max(worst, abs(sym - fd) / scale)
            assert worst <= 1e-6, (text, var, worst)


def test_differentiate_is_linear():
    rng = np.random.default_rng(55)
    f = ex.parse_expr(random_expr(rng, 3))
    g = ex.parse_expr(random_expr(rng, 3))
    a, b = 2.25, -0.75
    combo = ex.add(ex.mul(ex.Num(a), f), ex.mul(ex.Num(b), g))
    d_combo = ex.differentiate(combo, "x")
    df, dg = ex.differentiate(f, "x"), ex.differentiate(g, "x")
    for _ in range(20):
        x, y, z = rng.uniform(-1, 1, 3)
        lhs = ex.evaluate(d_combo, x, y, z, 0.0)
        rhs = a * ex.evaluate(df, x, y, z, 0.0) + b * ex.evaluate(dg, x, y, z, 0.0)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_abs_derivative_is_sign_with_sign_zero():
    d = ex.differentiate(ex.parse_expr("abs(x)"), "x")
    assert ex.evaluate(d, 2.0, 0, 0, 0.0) == 1.0
    assert ex.evaluate(d, -2.0, 0, 0, 0.0) == -1.0
    assert ex.evaluate(d, 0.0, 0, 0, 0.0) == 0.0


def test_parse_print_parse_fixpoint():
    # signed zeros ride along: interned Num(0.0) and Num(-0.0) are different nodes
    for text in GOLDEN_CORPUS + ["-0", "sin(-0)"]:
        first = ex.parse_expr(text)
        reparsed = ex.parse_expr(ex.to_text(first))
        assert first is reparsed, text


def test_print_round_trip_values_agree():
    rng = np.random.default_rng(7)
    for _ in range(30):
        text = random_expr(rng, 4)
        e = ex.parse_expr(text)
        e2 = ex.parse_expr(ex.to_text(e))
        x, y, z = rng.uniform(-1, 1, 3)
        assert ex.evaluate(e, x, y, z, 0.0) == pytest.approx(ex.evaluate(e2, x, y, z, 0.0), rel=1e-12)


def test_division_by_zero_carries_point():
    e = ex.parse_expr("1/x")
    with pytest.raises(EvaluationError) as err:
        ex.evaluate(e, 0.0, 2.0, 3.0, 0.0)
    assert err.value.point == (0.0, 2.0, 3.0, 0.0)


def test_ln_domain_error():
    with pytest.raises(EvaluationError):
        ex.evaluate(ex.parse_expr("ln(x)"), -1.0, 0, 0, 0.0)
    with pytest.raises(EvaluationError):
        ex.evaluate(ex.parse_expr("ln(x)"), 0.0, 0, 0, 0.0)


def test_sqrt_domain_error():
    with pytest.raises(EvaluationError):
        ex.evaluate(ex.parse_expr("sqrt(x)"), -0.5, 0, 0, 0.0)


def test_zero_to_negative_power():
    with pytest.raises(EvaluationError):
        ex.evaluate(ex.parse_expr("x^(-1)"), 0.0, 0, 0, 0.0)


def test_array_evaluation_matches_scalar():
    e = ex.parse_expr("sin(x*y)+z^2")
    xs = np.linspace(-1, 1, 11)
    ys = np.linspace(0, 2, 11)
    zs = np.linspace(-2, 0, 11)
    arr = ex.evaluate(e, xs, ys, zs, 0.0)
    for i in range(11):
        assert arr[i] == pytest.approx(ex.evaluate(e, xs[i], ys[i], zs[i], 0.0), rel=1e-14)


def test_array_evaluation_domain_error_carries_point():
    e = ex.parse_expr("1/x")
    xs = np.array([1.0, 0.0, 2.0])
    with pytest.raises(EvaluationError) as err:
        ex.evaluate(e, xs, xs + 1, xs + 2, 0.0)
    assert err.value.point[0] == 0.0


def test_constants():
    assert ex.evaluate(ex.parse_expr("pi"), 0, 0, 0, 0.0) == math.pi
    assert ex.evaluate(ex.parse_expr("euler"), 0, 0, 0, 0.0) == math.e


def test_exponent_must_be_constant():
    with pytest.raises(ParseError):
        ex.parse_expr("x^y")
    # constant arithmetic in the exponent is fine
    e = ex.parse_expr("x^(1+1)")
    assert ex.evaluate(e, 3.0, 0, 0, 0.0) == 9.0


def test_time_dependence_detection():
    assert ex.depends_on(ex.parse_expr("x*t"), "t")
    assert not ex.depends_on(ex.parse_expr("x*y"), "t")


def test_nodes_are_interned():
    assert ex.parse_expr("x*y") is ex.parse_expr("x*y")
    assert ex.parse_expr("sin(x)") is ex.Fun("sin", ex.Var("x"))
    assert ex.Num(1) is ex.Num(1.0)
    assert ex.Num(0.0) is not ex.Num(-0.0)
    assert ex.Pow(ex.Var("x"), 2) is ex.pow_(ex.Var("x"), 2.0)
    assert ex.Num(float("nan")) is ex.Num(-float("nan")) is ex.Num(np.nan)
    # nodes that differ only in their tag, or only in their kids' order
    x, y = ex.Var("x"), ex.Var("y")
    source, other = ex.Sampler(lambda *c: np.stack(c), 1e-4), ex.Sampler(lambda *c: np.stack(c), 1e-4)
    pairs = [
        (ex.Bin("+", x, y), ex.Bin("-", x, y)),
        (ex.Bin("+", x, y), ex.Bin("+", y, x)),
        (ex.Neg(x), ex.Fun("abs", x)),
        (ex.Neg(x), ex.Pow(x, -1)),
        (ex.Fun("abs", x), ex.Pow(x, -1)),
        (ex.Sample(source, 0, (x, y, x, y)), ex.Sample(source, 1, (x, y, x, y))),
        (ex.Sample(source, 0, (x, y, x, y)), ex.Sample(other, 0, (x, y, x, y))),
    ]
    for a, b in pairs:
        assert a is not b, (a, b)


#: 1,500 distinct terms in one left-deep sum: far deeper than the recursion limit
LONG_SUM = "+".join(f"{k + 1}*x*y" for k in range(1500))


def test_deep_sum_walks_without_recursion_error():
    e = ex.parse_expr(LONG_SUM)
    total = 1500 * 1501 / 2
    assert ex.evaluate(e, 2.0, 3.0, 0.0, 0.0) == 6.0 * total
    assert ex.evaluate(ex.differentiate(e, "x"), 2.0, 3.0, 0.0, 0.0) == 3.0 * total
    assert ex.evaluate(ex.substitute(e, {"y": ex.parse_expr("z+1")}), 2.0, 0.0, 2.0, 0.0) == 6.0 * total
    assert ex.depends_on(e, "y") and not ex.depends_on(e, "t")


def test_deep_sum_prints_and_reparses_to_the_same_node():
    e = ex.parse_expr(LONG_SUM)
    assert ex.parse_expr(ex.to_text(e)) is e


@pytest.mark.parametrize(
    "opening,middle,closing,token",
    [("(", "x", ")", 0), ("sin(", "x", ")", 0), ("-", "x", "", 0), ("1^", "1", "", 1)],
)
def test_parser_nesting_is_bounded(opening, middle, closing, token):
    n = ex.MAX_NESTING
    assert ex.to_text(ex.parse_expr(opening * n + middle + closing * n))
    with pytest.raises(ParseError) as err:
        ex.parse_expr(opening * 300 + middle + closing * 300)
    # offset of the token that opens the first level past the bound
    assert err.value.offset == n * len(opening) + token
    assert "levels of nesting" in str(err.value)


def test_evaluation_releases_values_after_last_use():
    e = ex.parse_expr(LONG_SUM)
    xs = np.linspace(-1.0, 1.0, 20_000)
    tracemalloc.start()
    try:
        ex.evaluate(e, xs, xs, xs, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * xs.nbytes


_CONSTANTS = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0, 0.25, 3.0])
_OPS = ["+", "-", "*", "/", "neg", "pow", *ex.FUNCTIONS]
_KINDS = st.sampled_from(_OPS)


#: (source, number of slots) of the sampled leaves in random DAGs
_SAMPLERS = (
    (ex.Sampler(lambda x, y, z, t: np.stack([x * y - t, np.sin(z)]), 1e-4), 2),
    (ex.Sampler(lambda x, y, z, t: np.stack([x + y + z]), 1e-4), 1),
)


@st.composite
def _shared_dags(draw, samplers=()):
    """Expression roots over a random DAG: every new node reuses earlier ones.

    With `samplers`, Sample leaves over earlier nodes join the DAG, and at
    least one root reaches one.
    """
    nodes = [ex.Var(v) for v in ex.VARIABLES] + [ex.Num(draw(_CONSTANTS)) for _ in range(2)]
    kinds = st.sampled_from(["sample", *_OPS]) if samplers else _KINDS
    sampled = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(kinds)
        a, b = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        if kind == "sample" or (samplers and not sampled):
            source, slots = draw(st.sampled_from(samplers))
            kids = [a, b] + draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2))
            sampled.append(ex.Sample(source, draw(st.integers(0, slots - 1)), kids))
            nodes.append(sampled[-1])
        elif kind in "+-*/":
            nodes.append(ex.Bin(kind, a, b))
        elif kind == "neg":
            nodes.append(ex.Neg(a))
        elif kind == "pow":
            nodes.append(ex.Pow(a, draw(st.sampled_from([-2.0, -1.0, 0.5, 2.0, 3.0]))))
        else:
            nodes.append(ex.Fun(kind, a))
    roots = draw(st.lists(st.sampled_from(nodes[6:]), min_size=1, max_size=4))
    return roots if not samplers or ex.samples(roots) else roots + sampled[:1]


#: point counts: a scalar, small arrays, and counts around the block size of evaluate_fields
_SIZES = [0, 1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(roots=_shared_dags(), size=st.sampled_from(_SIZES), data=st.data())
def test_evaluate_many_matches_recursive_oracle_bit_for_bit(roots, size, data):
    values = st.floats(-2.0, 2.0)
    if size > 7:
        # too many points to draw one by one: a seeded pick from a drawn palette,
        # so the edge values the strategy finds (0, -0, ...) occur in every block
        palette = np.asarray(data.draw(st.lists(values, min_size=1, max_size=8)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        args = [rng.choice(palette, size) for _ in ex.VARIABLES]
        # at most one far value (exp overflows at 800), at a point in any block
        if data.draw(st.booleans()):
            args[data.draw(st.integers(0, 3))][rng.integers(size)] = 800.0
    else:
        args = [
            np.asarray(data.draw(st.lists(values, min_size=size, max_size=size))) if size else data.draw(values)
            for _ in ex.VARIABLES
        ]
    env = dict(zip(ex.VARIABLES, args))

    def outcome(evaluate):
        with np.errstate(all="ignore"):
            try:
                return [np.asarray(v) for v in evaluate()]
            except EvaluationError as exc:
                return exc

    got = outcome(lambda: ex.evaluate_many(roots, *args))
    want = outcome(lambda: [reference_evaluate(r, env) for r in roots])
    fields = [SymbolicFormField(0, [r]) for r in roots]
    blocked = outcome(lambda: [v.components[0] for v in evaluate_fields(fields, *args)])
    if isinstance(want, Exception):
        assert type(got) is type(want) and type(blocked) is type(want)
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))

    # blocked walks give the same bits, or reject the first non-finite value:
    # the first block that has one, its first field that has one, that field's first point
    shape = np.shape(args[0])
    bad = np.stack([~np.isfinite(np.broadcast_to(w, shape)).ravel() for w in want])
    if not bad.any():
        for b, w in zip(blocked, want):
            w = np.broadcast_to(w, shape)
            assert np.array_equal(b, w)
            assert np.array_equal(np.signbit(b), np.signbit(w))
        return
    assert isinstance(blocked, EvaluationError)
    lo = np.flatnonzero(bad.any(axis=0))[0] // BLOCK * BLOCK
    in_block = bad[:, lo:lo + BLOCK]
    first = lo + np.flatnonzero(in_block[np.flatnonzero(in_block.any(axis=1))[0]])[0]
    assert blocked.point == tuple(float(np.ravel(a)[first]) for a in args)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(roots=_shared_dags(samplers=_SAMPLERS), size=st.sampled_from([0, 1, 7]), data=st.data())
def test_evaluate_many_with_shared_sampled_leaves_matches_oracle(roots, size, data):
    # the oracle calls each source's values directly, so this also checks
    # that the last-call cache never returns another call's values
    test_evaluate_many_matches_recursive_oracle_bit_for_bit.hypothesis.inner_test(roots, size, data)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(roots=_shared_dags(), coords=st.tuples(*[st.floats(-3.0, 3.0)] * 4))
@example(roots=[ex.parse_expr("x^0.5")], coords=(-0.0, 0.0, 0.0, 0.0))
@example(roots=[ex.parse_expr("x^3"), ex.parse_expr("t^-2")], coords=(2.9, 0.0, 0.0, 0.3))
def test_scalar_evaluation_matches_a_one_element_walk_bit_for_bit(roots, coords):
    """One evaluation path: scalar coordinates, a Point and one-element arrays give
    the same bits and signs of zero."""

    def outcome(evaluate):
        with np.errstate(all="ignore"):
            try:
                return np.stack([np.broadcast_to(v, (1,)) for v in evaluate()])
            except EvaluationError as exc:
                return exc

    walk = outcome(lambda: ex.evaluate_many(roots, *(np.array([c]) for c in coords)))
    scalar = outcome(lambda: ex.evaluate_many(roots, *coords))
    each = outcome(lambda: [ex.evaluate(r, *coords) for r in roots])
    point = outcome(lambda: [SymbolicFormField(0, [r]).evaluate(Point(*coords)).components for r in roots])
    if isinstance(walk, EvaluationError):
        for other in (scalar, each, point):
            assert isinstance(other, EvaluationError) and other.point == walk.point == coords
        return
    for other in (scalar, each):
        assert np.array_equal(other, walk, equal_nan=True)
        assert np.array_equal(np.signbit(other), np.signbit(walk))
    if np.isfinite(walk).all():
        assert np.array_equal(point, walk) and np.array_equal(np.signbit(point), np.signbit(walk))
    else:
        assert isinstance(point, EvaluationError) and point.point == coords


def test_a_function_of_constants_folds_where_it_is_parsed():
    # the parser builds through fun(), as every other builder does
    assert ex.parse_expr("exp(1000)") is ex.fun("exp", ex.Num(1000.0)) is ex.Num(math.inf)
    assert ex.parse_expr("sin(0.5)") is ex.Num(float(np.sin(0.5)))
    # so the derivative of a constant is 0, not inf - inf
    assert ex.to_text(ex.differentiate(ex.parse_expr("exp(1000)*x"), "x")) == "1e400"


def test_a_zero_factor_absorbs_a_non_finite_number():
    # so the derivative of an overflowing constant is 0, not inf * 0 = nan
    assert ex.mul(ex.Num(math.inf), ex.ZERO) is ex.ZERO
    assert ex.mul(ex.ZERO, ex.Num(math.nan)) is ex.ZERO
    assert ex.mul(ex.Num(-math.inf), ex.Num(-0.0)) is ex.ZERO
    assert ex.to_text(ex.differentiate(ex.parse_expr("exp(1000)*x*y"), "y")) == "1e400 * x"
    # a finite product still folds in Python floats, sign of zero included
    assert ex.mul(ex.Num(-0.0), ex.Num(5.0)) is ex.Num(-0.0)
    assert ex.mul(ex.Num(2.0), ex.Num(math.inf)) is ex.Num(math.inf)
