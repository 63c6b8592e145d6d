"""Small expression language over the variables x, y, z, t.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*          left associative
    term   := factor (('*' | '/') factor)*      left associative
    factor := '-' factor | power
    power  := atom ('^' factor)?                right associative, exponent
                                                must fold to a real constant
    atom   := NUMBER | 'pi' | 'euler' | VAR | FUN '(' expr ')' | '(' expr ')'

Variables: x y z t.  Functions: sin cos tan exp ln sqrt abs (arity 1);
`sign` is accepted so printed derivatives of `abs` re-parse.  The
derivative of abs is defined as sign, with sign(0) = 0.

ASTs are immutable and hashed by identity, so shared subtrees are cheap;
`evaluate` and `differentiate` memoise on node identity to stay linear in
the DAG size.  Evaluation accepts floats or numpy arrays and raises
EvaluationError (carrying the offending point) on division by zero,
ln/sqrt outside their domain, or 0 raised to a negative power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ParseError

VARIABLES = ("x", "y", "z", "t")
FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs", "sign")
CONSTANTS = {"pi": math.pi, "euler": math.e}


@dataclass(frozen=True, eq=False)
class Expr:
    def __str__(self):
        return to_text(self)


@dataclass(frozen=True, eq=False)
class Num(Expr):
    value: float


@dataclass(frozen=True, eq=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, eq=False)
class Bin(Expr):
    op: str  # one of + - * /
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    base: Expr
    exponent: float


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False)
class Fun(Expr):
    name: str
    arg: Expr


ZERO = Num(0.0)
ONE = Num(1.0)


def _is_num(e, value=None):
    return isinstance(e, Num) and (value is None or e.value == value)


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
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return ZERO
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
    if _is_num(base):
        v = base.value
        if v >= 0.0 or float(exponent).is_integer():
            if not (v == 0.0 and exponent < 0.0):
                return Num(float(v**exponent))
    return Pow(base, float(exponent))


def fun(name: str, arg: Expr) -> Expr:
    if name not in FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    if _is_num(arg):
        v = arg.value
        safe = {
            "sin": math.sin,
            "cos": math.cos,
            "tan": math.tan,
            "exp": math.exp,
            "abs": abs,
            "sign": lambda u: float(np.sign(u)),
        }
        if name in safe:
            return Num(float(safe[name](v)))
        if name == "ln" and v > 0.0:
            return Num(math.log(v))
        if name == "sqrt" and v >= 0.0:
            return Num(math.sqrt(v))
    return Fun(name, arg)


# ---- evaluation ------------------------------------------------------------


def _point_of(env, mask=None):
    def pick(v):
        if np.ndim(v) == 0:
            return float(v)
        return float(np.asarray(v)[mask][0] if mask is not None else np.asarray(v).flat[0])

    return tuple(pick(env[k]) for k in VARIABLES)


def evaluate(e: Expr, x, y, z, t=0.0, cache=None):
    """Evaluate at a point or componentwise over equally-shaped arrays.

    Passing the same `cache` dict across calls with identical arguments lets
    sibling expressions reuse shared subtrees.
    """
    env = {"x": x, "y": y, "z": z, "t": t}
    if cache is None:
        cache = {}

    def rec(node):
        got = cache.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Num):
            val = node.value
        elif isinstance(node, Var):
            val = env[node.name]
        elif isinstance(node, Neg):
            val = -rec(node.arg)
        elif isinstance(node, Bin):
            a = rec(node.lhs)
            b = rec(node.rhs)
            if node.op == "+":
                val = a + b
            elif node.op == "-":
                val = a - b
            elif node.op == "*":
                val = a * b
            else:
                bad = np.asarray(b) == 0.0
                if np.any(bad):
                    raise EvaluationError("division by zero", _point_of(env, bad if np.ndim(b) else None))
                val = a / b
        elif isinstance(node, Pow):
            a = rec(node.base)
            c = node.exponent
            arr = np.asarray(a)
            if c < 0.0 and np.any(arr == 0.0):
                raise EvaluationError("zero raised to a negative power", _point_of(env, arr == 0.0 if np.ndim(a) else None))
            if not float(c).is_integer() and np.any(arr < 0.0):
                raise EvaluationError("negative base with non-integer exponent", _point_of(env, arr < 0.0 if np.ndim(a) else None))
            val = arr**c if np.ndim(a) else float(a) ** c
        elif isinstance(node, Fun):
            a = rec(node.arg)
            arr = np.asarray(a)
            if node.name == "ln":
                if np.any(arr <= 0.0):
                    raise EvaluationError("ln of a non-positive value", _point_of(env, arr <= 0.0 if np.ndim(a) else None))
                val = np.log(arr) if np.ndim(a) else math.log(a)
            elif node.name == "sqrt":
                if np.any(arr < 0.0):
                    raise EvaluationError("sqrt of a negative value", _point_of(env, arr < 0.0 if np.ndim(a) else None))
                val = np.sqrt(arr) if np.ndim(a) else math.sqrt(a)
            else:
                fn = {
                    "sin": np.sin,
                    "cos": np.cos,
                    "tan": np.tan,
                    "exp": np.exp,
                    "abs": np.abs,
                    "sign": np.sign,
                }[node.name]
                val = fn(arr) if np.ndim(a) else float(fn(a))
        else:  # pragma: no cover
            raise TypeError(f"not an Expr node: {node!r}")
        cache[id(node)] = val
        return val

    try:
        return rec(e)
    finally:
        # rec refers to itself through its closure; breaking that cycle frees
        # the cache (arrays for every node) now instead of at the next
        # garbage collection, which otherwise sets the process's peak memory
        del rec


def evaluate_many(exprs, x, y, z, t=0.0):
    """Evaluate several expressions with one shared subtree cache."""
    cache: dict[int, object] = {}
    return [evaluate(e, x, y, z, t, cache=cache) for e in exprs]


# ---- differentiation -------------------------------------------------------


def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative with constant folding.

    d/du abs(u) is taken to be sign(u) with sign(0) = 0.
    """
    if var not in VARIABLES:
        raise ValueError(f"variable must be one of {VARIABLES}, got {var!r}")
    cache: dict[int, Expr] = {}

    def rec(node):
        got = cache.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Num):
            out = ZERO
        elif isinstance(node, Var):
            out = ONE if node.name == var else ZERO
        elif isinstance(node, Neg):
            out = neg(rec(node.arg))
        elif isinstance(node, Bin):
            da, db = rec(node.lhs), rec(node.rhs)
            a, b = node.lhs, node.rhs
            if node.op == "+":
                out = add(da, db)
            elif node.op == "-":
                out = sub(da, db)
            elif node.op == "*":
                out = add(mul(da, b), mul(a, db))
            else:
                out = div(sub(mul(da, b), mul(a, db)), mul(b, b))
        elif isinstance(node, Pow):
            c = node.exponent
            out = mul(mul(Num(c), pow_(node.base, c - 1.0)), rec(node.base))
        elif isinstance(node, Fun):
            u, du = node.arg, rec(node.arg)
            chain = {
                "sin": lambda: fun("cos", u),
                "cos": lambda: neg(fun("sin", u)),
                "tan": lambda: div(ONE, mul(fun("cos", u), fun("cos", u))),
                "exp": lambda: fun("exp", u),
                "ln": lambda: div(ONE, u),
                "sqrt": lambda: div(ONE, mul(Num(2.0), fun("sqrt", u))),
                "abs": lambda: fun("sign", u),
                "sign": lambda: ZERO,
            }[node.name]()
            out = mul(chain, du)
        else:  # pragma: no cover
            raise TypeError(f"not an Expr node: {node!r}")
        cache[id(node)] = out
        return out

    try:
        return rec(e)
    finally:
        del rec  # see evaluate


def substitute(e: Expr, mapping) -> Expr:
    """`e` with every variable named in `mapping` replaced by its expression.

    Rebuilt through the folding constructors; subtrees without a replaced
    variable come back as the same nodes.
    """
    cache: dict[int, Expr] = {}
    ops = {"+": add, "-": sub, "*": mul, "/": div}

    def rec(node):
        got = cache.get(id(node))
        if got is not None:
            return got
        out = node
        if isinstance(node, Var):
            out = mapping.get(node.name, node)
        elif isinstance(node, Neg):
            arg = rec(node.arg)
            if arg is not node.arg:
                out = neg(arg)
        elif isinstance(node, Bin):
            a, b = rec(node.lhs), rec(node.rhs)
            if a is not node.lhs or b is not node.rhs:
                out = ops[node.op](a, b)
        elif isinstance(node, Pow):
            base = rec(node.base)
            if base is not node.base:
                out = pow_(base, node.exponent)
        elif isinstance(node, Fun):
            arg = rec(node.arg)
            if arg is not node.arg:
                out = fun(node.name, arg)
        cache[id(node)] = out
        return out

    try:
        return rec(e)
    finally:
        del rec  # see evaluate


def depends_on(e: Expr, var: str) -> bool:
    """Structural check whether `var` occurs in the expression."""
    seen = set()

    def rec(node):
        if id(node) in seen:
            return False
        seen.add(id(node))
        if isinstance(node, Var):
            return node.name == var
        if isinstance(node, Neg):
            return rec(node.arg)
        if isinstance(node, Bin):
            return rec(node.lhs) or rec(node.rhs)
        if isinstance(node, Pow):
            return rec(node.base)
        if isinstance(node, Fun):
            return rec(node.arg)
        return False

    try:
        return rec(e)
    finally:
        del rec  # see evaluate


# ---- printing and structural equality --------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_text(e: Expr) -> str:
    """Render with the minimal parentheses needed to re-parse identically."""

    def render(node, ctx):
        if isinstance(node, Num):
            v = node.value
            text = repr(int(v)) if float(v).is_integer() and abs(v) < 1e16 else repr(v)
            if v < 0:
                return f"({text})" if ctx > _PREC["neg"] - 0.5 else text
            return text
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Neg):
            inner = render(node.arg, _PREC["neg"])
            text = f"-{inner}"
            return f"({text})" if ctx > _PREC["neg"] else text
        if isinstance(node, Bin):
            p = _PREC[node.op]
            lhs = render(node.lhs, p)
            rhs = render(node.rhs, p + 0.5)  # left associative: parenthesise equal-prec rhs
            text = f"{lhs} {node.op} {rhs}"
            return f"({text})" if ctx > p else text
        if isinstance(node, Pow):
            base = render(node.base, _PREC["^"] + 0.5)
            expo = render(Num(node.exponent), _PREC["^"] + 0.5)
            text = f"{base}^{expo}"
            return f"({text})" if ctx > _PREC["^"] else text
        if isinstance(node, Fun):
            return f"{node.name}({render(node.arg, 0)})"
        raise TypeError(f"not an Expr node: {node!r}")  # pragma: no cover

    return render(e, 0)


def structurally_equal(a: Expr, b: Expr) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Num):
        return a.value == b.value
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, Neg):
        return structurally_equal(a.arg, b.arg)
    if isinstance(a, Bin):
        return a.op == b.op and structurally_equal(a.lhs, b.lhs) and structurally_equal(a.rhs, b.rhs)
    if isinstance(a, Pow):
        return a.exponent == b.exponent and structurally_equal(a.base, b.base)
    if isinstance(a, Fun):
        return a.name == b.name and structurally_equal(a.arg, b.arg)
    return False  # pragma: no cover


# ---- parser -----------------------------------------------------------------


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("eof", "", self.pos)
        ch = self.text[self.pos]
        if ch.isdigit() or ch == ".":
            j = self.pos
            seen_dot = False
            while j < len(self.text) and (self.text[j].isdigit() or (self.text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or self.text[j] == "."
                j += 1
            # optional exponent part, e.g. 1.5e-3
            if j < len(self.text) and self.text[j] in "eE":
                k = j + 1
                if k < len(self.text) and self.text[k] in "+-":
                    k += 1
                if k < len(self.text) and self.text[k].isdigit():
                    while k < len(self.text) and self.text[k].isdigit():
                        k += 1
                    j = k
            return ("number", self.text[self.pos:j], self.pos)
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return ("name", self.text[self.pos:j], self.pos)
        if ch in "+-*/^()":
            return (ch, ch, self.pos)
        return ("bad", ch, self.pos)

    def take(self):
        tok = self.peek()
        self.pos = tok[2] + len(tok[1])
        return tok


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


def _parse_factor(tz):
    kind, _, _ = tz.peek()
    if kind == "-":
        tz.take()
        return neg(_parse_factor(tz))
    return _parse_power(tz)


def _parse_power(tz):
    base = _parse_atom(tz)
    kind, _, pos = tz.peek()
    if kind != "^":
        return base
    tz.take()
    expo_pos = tz.peek()[2]
    expo = _parse_factor(tz)
    folded = _fold_constant(expo)
    if folded is None:
        raise ParseError(expo_pos, "a constant exponent")
    return pow_(base, folded)


def _fold_constant(e):
    """Value of a variable-free expression, or None."""
    if any(depends_on(e, v) for v in VARIABLES):
        return None
    try:
        return float(evaluate(e, 0.0, 0.0, 0.0, 0.0))
    except EvaluationError:
        return None


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
            arg = _parse_sum(tz)
            k3, l3, p3 = tz.peek()
            if k3 != ")":
                raise ParseError(p3, "')'", l3)
            tz.take()
            return Fun(lexeme, arg)
        raise ParseError(pos, "a variable, constant or function name", lexeme)
    if kind == "(":
        tz.take()
        e = _parse_sum(tz)
        k2, l2, p2 = tz.peek()
        if k2 != ")":
            raise ParseError(p2, "')'", l2)
        tz.take()
        return e
    raise ParseError(pos, "an operand (number, name, '(' or unary '-')", lexeme or None)
