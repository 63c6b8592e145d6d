"""Small expression language over the variables x, y, z, t.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*          left associative
    term   := factor (('*' | '/') factor)*      left associative
    factor := '-' factor | power
    power  := atom ('^' factor)?                right associative, exponent
                                                must fold to a real constant
    atom   := NUMBER | 'pi' | 'euler' | VAR | FUN '(' expr ')' | '(' expr ')'

A NUMBER is what float() reads: decimal digits with at most one '.', then
an optional exponent ('1.', '.5', '2e-3'); '.' alone is not one.
Variables: x y z t.  Functions: sin cos tan exp ln sqrt abs (arity 1);
`sign` is accepted so printed derivatives of `abs` re-parse.  The
derivative of abs is defined as sign, with sign(0) = 0.

The constructors fold a node whose operands are numbers: + - * / and
negation in Python floats, which round as numpy's do, a function or power
by walking the node.  So a folded constant has the walk's bits, an
overflow folds to inf or nan, and a node the walk raises on stays.  But a
zero absorbs any factor other than a finite number: 0 * inf folds to 0.

Nodes are immutable and interned (hash-consed): calling `Num`, `Var`,
`Bin`, ... with the fields of an existing node returns that node, so
structurally equal expressions are the same object and `is` is structural
equality.  Each tag (a Bin's operator, Neg, a Fun's name, a Pow's exponent,
a Sample's source and slot) has its own table, keyed by the node's own
`kids` tuple, which compares its children by identity; numbers are keyed by
value and by the sign of zero, variables by name.  Evaluation,
differentiation, substitution and `depends_on` loop over one iterative
post-order of the reachable nodes, so their depth is not limited by
Python's recursion limit; nor is printing.  The parser recurses,
so it accepts at most MAX_NESTING nested parentheses, calls, unary minuses
and '^' levels, and raises ParseError past that.  Evaluation
drops each node's value once the last node that reads it has run, so only
the live frontier of arrays is held at once.  The node table and the
per-variable derivative memo live for the whole process.

Evaluation accepts floats or numpy arrays.  Every node applies the same
numpy primitive to both, so the value at a point is the same bits, sign of
zero included, as at that point inside an array.  It raises
EvaluationError (carrying the offending point) on division by zero,
ln/sqrt outside their domain, or 0 raised to a negative power.

A `Sample` leaf is slot `slot` of a `Sampler`'s values at the coordinates
its four kids evaluate to: at first x, y, z, t, which substitution rewrites
like any other kids.  A Sampler wraps a vectorised `values(xs, ys, zs, ts)`
and keeps no state: a walk calls each source once per distinct kids, keeps
that result to its end and reads every slot off it.
A Sample differentiates by the chain rule through its kids; along a kid the
derivative is what its source's `partial` returns.  A Sampler's partial is
the Sample of a central-difference Sampler one level deeper, which shifts
the coordinate arrays by `step`; differences nest at most MAX_FD_DEPTH deep
and raise DerivativeDepthExceeded past that.  A source that knows its
derivatives (the body coordinates of a forward map, see elasticity)
overrides `partial` with exact expressions.  A Sample prints as an opaque
label.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import DerivativeDepthExceeded, EvaluationError, ParseError

VARIABLES = ("x", "y", "z", "t")
FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs", "sign")
CONSTANTS = {"pi": math.pi, "euler": math.e}

#: deepest nesting the parser accepts; a level costs it at most six Python
#: frames, which keeps it well inside the default recursion limit
MAX_NESTING = 100

#: nesting cap for finite-difference derivatives (cost grows like 6^depth)
MAX_FD_DEPTH = 3

#: every node built so far: one table per tag (the class and those of its
#: fields that are not nodes), keyed by the node's own `kids` tuple, so a node
#: costs one tuple and no ints.  Expr defines no __eq__ or __hash__, so a
#: tuple of nodes hashes and compares its items by identity.  Num and Var
#: have no kids and are keyed by value and by name.
_TABLE: dict[object, dict[object, Expr]] = {}


def _num_key(v):
    """Key of a float: 0.0 and -0.0 differ, every NaN is the same."""
    return (v, math.copysign(1.0, v)) if v == v else ("nan",)


def _intern(cls, tag, key, kids, *fields):
    """The node of `cls` under `key` in `tag`'s table, made from `fields` (in __slots__ order) if new."""
    table = _TABLE.get(tag)
    if table is None:
        table = _TABLE[tag] = {}
    node = table.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
        object.__setattr__(node, "kids", kids)
        table[key] = node
    return node


class Expr:
    """An interned node; `kids` are its operands, left to right."""

    __slots__ = ("kids",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"parse_expr({to_text(self)!r})"


class Num(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        value = float(value)
        return _intern(cls, cls, _num_key(value), (), value)


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name):
        return _intern(cls, cls, name, (), name)


class Bin(Expr):
    __slots__ = ("op", "lhs", "rhs")  # op is one of + - * /

    def __new__(cls, op, lhs, rhs):
        kids = (lhs, rhs)
        return _intern(cls, (cls, op), kids, kids, op, lhs, rhs)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base, exponent):
        exponent = float(exponent)
        kids = (base,)
        return _intern(cls, (cls, *_num_key(exponent)), kids, kids, base, exponent)


class Neg(Expr):
    __slots__ = ("arg",)

    def __new__(cls, arg):
        kids = (arg,)
        return _intern(cls, cls, kids, kids, arg)


class Fun(Expr):
    __slots__ = ("name", "arg")

    def __new__(cls, name, arg):
        kids = (arg,)
        return _intern(cls, (cls, name), kids, kids, name, arg)


class Sample(Expr):
    """Slot `slot` of `source`'s values at the coordinates given by `kids`."""

    __slots__ = ("source", "slot")

    def __new__(cls, source, slot, args):
        args = tuple(args)
        return _intern(cls, (cls, source, slot), args, args, source, slot)


class Sampler:
    """Source of Sample leaves: `values(xs, ys, zs, ts)` on equally shaped
    coordinate arrays, returning shape (slots,) + their shape.

    Calls go through `__call__`, which broadcasts the coordinates.  `step`
    is the central-difference step of derivatives (None for a source whose
    `partial` is exact), `depth` how many differences deep this source
    already is.
    """

    def __init__(self, values, step, depth=0, name="sample"):
        self.values, self.step, self.depth, self.name = values, step, depth, name
        self._differences = {}

    def __call__(self, xs, ys, zs, ts):
        coords = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (xs, ys, zs, ts)))
        return np.asarray(self.values(*coords), dtype=float)

    def partial(self, slot, axis, args):
        """d(slot)/d(argument `axis`) at `args` (axis 0..3 for x, y, z, t): a Sample of the
        central difference along `axis`, a Sampler one level deeper."""
        diff = self._differences.get(axis)
        if diff is None:
            if self.depth >= MAX_FD_DEPTH:
                raise DerivativeDepthExceeded(
                    f"finite-difference derivatives nest at most {MAX_FD_DEPTH} deep"
                )
            h = self.step

            def values(*coords):
                plus = [c + h if i == axis else c for i, c in enumerate(coords)]
                minus = [c - h if i == axis else c for i, c in enumerate(coords)]
                return (self(*plus) - self(*minus)) * (0.5 / h)

            name = f"d{VARIABLES[axis]}({self.name})"
            diff = self._differences[axis] = Sampler(values, h, self.depth + 1, name)
        return Sample(diff, slot, args)


ZERO = Num(0.0)
ONE = Num(1.0)


def _is_num(e, value=None):
    return type(e) is Num and (value is None or e.value == value)  # Num has no subclasses


def _is_finite(e):
    return type(e) is Num and math.isfinite(e.value)


# ---- folding constructors ------------------------------------------------


def add(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Bin("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    return Bin("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    # a zero absorbs any factor but a finite number, whose product keeps the sign of zero
    if _is_num(a, 0.0) and not _is_finite(b) or _is_num(b, 0.0) and not _is_finite(a):
        return ZERO
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a, -1.0):
        return neg(b)
    if _is_num(b, -1.0):
        return neg(a)
    return Bin("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    # Num(0)/b folds to 0 even though b might vanish somewhere; derivative
    # results are full of such terms and keeping them would only trade one
    # sparse error site for a lot of tree growth.
    if _is_num(a, 0.0):
        return ZERO
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return Bin("/", a, b)


def neg(a: Expr) -> Expr:
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(base: Expr, exponent: float) -> Expr:
    if exponent == 0.0:
        return ONE
    if exponent == 1.0:
        return base
    return _folded(Pow(base, exponent))


def fun(name: str, arg: Expr) -> Expr:
    if name not in FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    return _folded(Fun(name, arg))


def _folded(node):
    """The Num of `node`'s value if its kids are numbers and the walk gives one, else `node`."""
    value = _fold_constant(node) if all(type(kid) is Num for kid in node.kids) else None
    return node if value is None else Num(value)


def _fold_constant(e):
    """Value of a variable-free expression by the walk, or None if it has a
    variable or the walk raises on it; an overflow gives inf or nan, as in the walk."""
    if any(type(node) is Var for node in _postorder([e])):
        return None
    try:
        with np.errstate(all="ignore"):
            return float(evaluate(e, 0.0, 0.0, 0.0, 0.0))
    except EvaluationError:
        return None


# ---- the walk ----------------------------------------------------------------


def _postorder(roots, done=()):
    """Nodes reachable from `roots` but not through `done`, each once, children first.

    Children are visited left to right and roots in order, the order in which
    a recursive walk finishes them, so the first failing node is the same.
    """
    order, seen = [], set()
    for root in roots:
        if root in seen or root in done:
            continue
        seen.add(root)
        stack = [(root, iter(root.kids))]
        while stack:
            node, kids = stack[-1]
            for kid in kids:
                if kid not in seen and kid not in done:
                    seen.add(kid)
                    stack.append((kid, iter(kid.kids)))
                    break
            else:
                stack.pop()
                order.append(node)
    return order


# ---- evaluation ------------------------------------------------------------


def _point_of(env, mask):
    """(x, y, z, t) at the first True of `mask` broadcast against the coordinates.

    A node of numbers or of `t` alone is a scalar inside an array walk; its
    mask broadcasts to all True, so it names the first point.
    """
    mask, *coords = np.broadcast_arrays(mask, *(env[k] for k in VARIABLES))
    first = int(np.argmax(mask))
    return tuple(float(c.flat[first]) for c in coords)


def _value(node, vals, env, calls):
    """Value of `node`, its kids' values being in `vals`; numpy primitives on 0-d and n-d alike.

    `calls` holds the walk's Sampler results, keyed by (source, kids).
    """
    kind = type(node)
    if kind is Bin:
        a, b = vals[node.lhs], vals[node.rhs]
        if node.op == "*":
            return a * b
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        bad = np.asarray(b) == 0.0
        if np.any(bad):
            raise EvaluationError("division by zero", _point_of(env, bad))
        return a / b
    if kind is Num:
        return node.value
    if kind is Var:
        return env[node.name]
    if kind is Sample:
        key = (node.source, node.kids)
        if key not in calls:
            calls[key] = node.source(*(vals[kid] for kid in node.kids))
        return calls[key][node.slot]
    a = vals[node.kids[0]]
    if kind is Neg:
        return -a
    arr = np.asarray(a)
    if kind is Pow:
        c = node.exponent
        if c < 0.0 and np.any(arr == 0.0):
            raise EvaluationError("zero raised to a negative power", _point_of(env, arr == 0.0))
        if not c.is_integer() and np.any(arr < 0.0):
            raise EvaluationError("negative base with non-integer exponent", _point_of(env, arr < 0.0))
        return arr**c
    if node.name == "ln" and np.any(arr <= 0.0):
        raise EvaluationError("ln of a non-positive value", _point_of(env, arr <= 0.0))
    if node.name == "sqrt" and np.any(arr < 0.0):
        raise EvaluationError("sqrt of a negative value", _point_of(env, arr < 0.0))
    return _UFUNCS[node.name](arr)


_UFUNCS = {"ln": np.log, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
           "abs": np.abs, "sign": np.sign}


def evaluate_many(exprs, x, y, z, t):
    """Evaluate expressions at a point or componentwise over equally-shaped arrays.

    One walk over their shared DAG; a node's value is dropped as soon as the
    last node that reads it has been evaluated.  Each Sampler is called once
    per distinct kids in the walk, for all its slots.
    """
    env = {"x": x, "y": y, "z": z, "t": t}
    order = _postorder(exprs)
    last_reader = {kid: node for node in order for kid in node.kids}
    last_reader.update(dict.fromkeys(exprs))  # the results are kept
    vals, calls = {}, {}
    for node in order:
        vals[node] = _value(node, vals, env, calls)
        for kid in node.kids:
            if last_reader[kid] is node:
                vals.pop(kid, None)  # None: both kids of x*x are x
    return [vals[e] for e in exprs]


def evaluate(e: Expr, x, y, z, t):
    """Evaluate one expression; see evaluate_many."""
    return evaluate_many([e], x, y, z, t)[0]


# ---- differentiation and substitution ----------------------------------------

#: derivative of every node differentiated so far, per variable
_DERIVATIVES: dict[str, dict[Expr, Expr]] = {v: {} for v in VARIABLES}

_CHAIN = {
    "sin": lambda u: fun("cos", u),
    "cos": lambda u: neg(fun("sin", u)),
    "tan": lambda u: div(ONE, mul(fun("cos", u), fun("cos", u))),
    "exp": lambda u: fun("exp", u),
    "ln": lambda u: div(ONE, u),
    "sqrt": lambda u: div(ONE, mul(Num(2.0), fun("sqrt", u))),
    "abs": lambda u: fun("sign", u),
    "sign": lambda u: ZERO,
}


def _derivative(node, var, d):
    """d(node)/d(var) given the derivatives `d` of its kids."""
    if isinstance(node, Num):
        return ZERO
    if isinstance(node, Var):
        return ONE if node.name == var else ZERO
    if isinstance(node, Neg):
        return neg(d[node.arg])
    if isinstance(node, Bin):
        a, b = node.lhs, node.rhs
        da, db = d[a], d[b]
        if node.op == "+":
            return add(da, db)
        if node.op == "-":
            return sub(da, db)
        if node.op == "*":
            return add(mul(da, b), mul(a, db))
        return div(sub(mul(da, b), mul(a, db)), mul(b, b))
    if isinstance(node, Pow):
        c = node.exponent
        return mul(mul(Num(c), pow_(node.base, c - 1.0)), d[node.base])
    if isinstance(node, Sample):
        acc = ZERO
        for axis, kid in enumerate(node.kids):
            if not _is_num(d[kid], 0.0):
                acc = add(acc, mul(node.source.partial(node.slot, axis, node.kids), d[kid]))
        return acc
    return mul(_CHAIN[node.name](node.arg), d[node.arg])


def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative with constant folding.

    d/du abs(u) is taken to be sign(u) with sign(0) = 0; a Sample is
    differentiated through its source's `partial` (see the module docstring).
    """
    if var not in VARIABLES:
        raise ValueError(f"variable must be one of {VARIABLES}, got {var!r}")
    memo = _DERIVATIVES[var]
    for node in _postorder([e], memo):
        memo[node] = _derivative(node, var, memo)
    return memo[e]


_BIN_OPS = {"+": add, "-": sub, "*": mul, "/": div}


def substitute(e: Expr, mapping) -> Expr:
    """`e` with every variable named in `mapping` replaced by its expression.

    Rebuilt through the folding constructors; subtrees without a replaced
    variable come back as the same nodes.
    """
    new = {}
    for node in _postorder([e]):
        args = [new[kid] for kid in node.kids]
        if isinstance(node, Var):
            new[node] = mapping.get(node.name, node)
        elif all(a is kid for a, kid in zip(args, node.kids)):
            new[node] = node
        elif isinstance(node, Neg):
            new[node] = neg(*args)
        elif isinstance(node, Bin):
            new[node] = _BIN_OPS[node.op](*args)
        elif isinstance(node, Pow):
            new[node] = pow_(*args, node.exponent)
        elif isinstance(node, Sample):
            new[node] = Sample(node.source, node.slot, args)
        else:
            new[node] = fun(node.name, *args)
    return new[e]


def samples(exprs):
    """The Sample leaves reachable from `exprs`, each once."""
    return [node for node in _postorder(exprs) if isinstance(node, Sample)]


def depends_on(e: Expr, var: str) -> bool:
    """Structural check whether `var` occurs in the expression."""
    return Var(var) in _postorder([e])


# ---- printing ----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_text(e: Expr) -> str:
    """Render with the minimal parentheses needed to re-parse identically.

    Iterative: a stack of pending (node, context precedence) pairs and
    literal strings, so an expression of any depth prints.
    """
    out, stack = [], [(e, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, ctx = item
        parts, prec = _pieces(node)
        if ctx > prec:
            parts = ["(", *parts, ")"]
        stack.extend(reversed(parts))
    return "".join(out)


def _pieces(node):
    """(pieces of the rendering, precedence above which it needs parentheses)."""
    if isinstance(node, Num):
        if node.value != node.value:  # every NaN is one node, the one inf - inf folds to
            return ["1e400 - 1e400"], _PREC["-"]
        v = abs(node.value)
        if v == math.inf:
            text = "1e400"  # what float() reads as inf
        else:
            text = repr(int(v)) if v.is_integer() and v < 1e16 else repr(v)
        if math.copysign(1.0, node.value) < 0.0:  # -0 too, so it re-parses to Num(-0.0)
            return [f"-{text}"], _PREC["neg"] - 0.5
        return [text], math.inf
    if isinstance(node, Var):
        return [node.name], math.inf
    if isinstance(node, Neg):
        return ["-", (node.arg, _PREC["neg"])], _PREC["neg"]
    if isinstance(node, Bin):
        p = _PREC[node.op]
        # left associative: parenthesise an equal-precedence rhs
        return [(node.lhs, p), f" {node.op} ", (node.rhs, p + 0.5)], p
    if isinstance(node, Pow):
        return [(node.base, _PREC["^"] + 0.5), "^", (Num(node.exponent), _PREC["^"] + 0.5)], _PREC["^"]
    if isinstance(node, Fun):
        return [f"{node.name}(", (node.arg, 0), ")"], math.inf
    if isinstance(node, Sample):
        return [f"<{node.source.name}[{node.slot}]>"], math.inf
    raise TypeError(f"not an Expr node: {node!r}")  # pragma: no cover


# ---- parser -----------------------------------------------------------------


#: one token after optional whitespace: a number as float() reads it (decimal
#: digits with at most one '.', then an optional exponent), a name, an operator
#: or parenthesis, any other character (bad), or the end of the text
_TOKEN = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<name>[^\W\d]\w*)"
    r"|(?P<op>[-+*/^()])|(?P<bad>.)|(?P<eof>\Z))",
    re.DOTALL,
)


class _Tokenizer:
    """The tokens of `text` as (kind, lexeme, offset), scanned once; an operator's kind is itself."""

    def __init__(self, text):
        self.tokens = []
        for match in _TOKEN.finditer(text):
            kind = match.lastgroup
            lexeme, start = match[kind], match.start(kind)
            if kind == "name" and not (lexeme[0].isalpha() or lexeme[0] == "_"):
                kind, lexeme = "bad", lexeme[0]  # a numeric character such as '½'; parsing stops at it
            self.tokens.append((lexeme if kind == "op" else kind, lexeme, start))
        self.next = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.next]

    def take(self):
        self.next += 1
        return self.tokens[self.next - 1]


def parse_expr(text: str) -> Expr:
    """Parse expression text; raises ParseError with a byte offset on failure."""
    tz = _Tokenizer(text)
    e = _parse_sum(tz)
    kind, lexeme, pos = tz.peek()
    if kind != "eof":
        raise ParseError(pos, "end of input or an operator", lexeme)
    return e


def _parse_sum(tz):
    e = _parse_term(tz)
    while True:
        kind, _, _ = tz.peek()
        if kind in ("+", "-"):
            tz.take()
            e = (add if kind == "+" else sub)(e, _parse_term(tz))
        else:
            return e


def _parse_term(tz):
    e = _parse_factor(tz)
    while True:
        kind, _, _ = tz.peek()
        if kind in ("*", "/"):
            tz.take()
            e = (mul if kind == "*" else div)(e, _parse_factor(tz))
        else:
            return e


def _nested(tz, parse, pos):
    """`parse(tz)` one nesting level deeper; ParseError at `pos` past MAX_NESTING."""
    if tz.depth >= MAX_NESTING:
        raise ParseError(pos, f"at most {MAX_NESTING} levels of nesting")
    tz.depth += 1
    e = parse(tz)
    tz.depth -= 1
    return e


def _parse_factor(tz):
    kind, _, pos = tz.peek()
    if kind == "-":
        tz.take()
        return neg(_nested(tz, _parse_factor, pos))
    return _parse_power(tz)


def _parse_power(tz):
    base = _parse_atom(tz)
    kind, _, pos = tz.peek()
    if kind != "^":
        return base
    tz.take()
    expo_pos = tz.peek()[2]
    expo = _nested(tz, _parse_factor, pos)
    folded = _fold_constant(expo)
    if folded is None:
        raise ParseError(expo_pos, "a constant exponent")
    return pow_(base, folded)


def _parse_atom(tz):
    kind, lexeme, pos = tz.peek()
    if kind == "number":
        tz.take()
        return Num(float(lexeme))
    if kind == "name":
        tz.take()
        if lexeme in VARIABLES:
            return Var(lexeme)
        if lexeme in CONSTANTS:
            return Num(CONSTANTS[lexeme])
        if lexeme in FUNCTIONS:
            k2, _, p2 = tz.peek()
            if k2 != "(":
                raise ParseError(p2, f"'(' after function {lexeme!r}")
            tz.take()
            arg = _nested(tz, _parse_sum, pos)
            k3, l3, p3 = tz.peek()
            if k3 != ")":
                raise ParseError(p3, "')'", l3)
            tz.take()
            return fun(lexeme, arg)
        raise ParseError(pos, "a variable, constant or function name", lexeme)
    if kind == "(":
        tz.take()
        e = _nested(tz, _parse_sum, pos)
        k2, l2, p2 = tz.peek()
        if k2 != ")":
            raise ParseError(p2, "')'", l2)
        tz.take()
        return e
    raise ParseError(pos, "an operand (number, name, '(' or unary '-')", lexeme or None)
