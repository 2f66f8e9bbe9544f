"""A small expression language for q-identities.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := NUMBER | 'q' | NAME | call | '(' expr ')'
    call   := ('qbin' | 'qcat' | 'legendre3' | 'floor') '(' expr {',' expr} ')'
            | 'sum' '(' NAME '=' expr '..' expr ',' expr ')'

_compile, the one evaluator, turns an expression into closures once, and
the closures run for every case.  A value is of one of two kinds.  A
subexpression without q is a Python rational: an int, or a Fraction only
for a non-integral quotient or a negative power, never a float.  A
subexpression with q (or a qbin / qcat) is an exact Poly in poly mode,
where q is the indeterminate.  In cyclo mode it is a term list
[(c, e, s, t), ...] in q, the sum of c q^e / (1 - t q^s) (t = 0 for a
monomial) that EvalContext.lift adds at q = zeta_m^j by _field_sum (a
corpus sweep sums at zeta_m once and maps the sum by conjugate(j)).  + -
and sum concatenate lists, qbin / qcat are their monomials folded mod m,
a factor of monomials multiplies term by term, a divisor that collects to
one monomial shifts and scales, and one that collects to two turns a
numerator of monomials into quotient terms, its denominator checked then.
Any other product, quotient or power reduces its operands once into
Q(zeta_m), is computed there by CycloElem arithmetic (a quotient by the
memoised norm-product CycloElem.inv) and is read back as monomials.
These fallbacks, the divisor checks and the zero test of a left factor
run at q = zeta_m, exact since x -> x^j is an automorphism of Q(zeta_m):
a value is zero at zeta_m^j exactly when it is zero at zeta_m.
Exponents, summation bounds and the arguments of qbin/qcat/legendre3 are
integer positions: their value must be rational and integral; the
argument of floor must be rational.  q is reserved: it cannot be bound,
not even as a sum variable.

Zero tests reduce nothing: a cyclo case hands the _field_sum of lhs - rhs
to cyclotomic._field_witness, the one field verdict, and lhs - rhs mod
Phi(n)^e in poly mode is judged by congruence._residue_witness, the one
Phi_n^e verdict.  A value is reduced mod Phi_m only for those fallbacks,
to render a failing case, and for the CycloElem that eval_cyclo returns.

One deliberate semantic: a product whose left factor has already
evaluated to exactly zero short-circuits without evaluating the right
factor (a left term list of two or more terms is summed by _field_sum
for that test).  Statements write vanishing Legendre-symbol coefficients
in front of powers whose exponent is fractional precisely when the
coefficient is zero; the convention 0 * (anything) = 0 makes such lines
directly expressible.

A corpus line states one identity::

    line    := expr '==' expr '@' ('poly' | 'cyclo') '(' [binding {',' binding}] ')'
               ['mod' 'Phi' '(' expr ')' ['^' NUMBER]]
    binding := NAME '=' ('all' | expr ['..' expr ['..' expr]])

The bindings sweep left to right: ``name=lo..hi`` or ``name=lo..hi..step``
(step >= 1), ``name=expr`` from earlier bindings, and ``j=all`` for the
residues coprime to m.  No name is bound twice, q is not bound at all, and
cyclo mode needs m and j.  ``mod`` is allowed only in poly mode.  A line
whose bindings select no case is an error, not a pass.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd
from typing import Callable, Iterator, Optional, Union

from .congruence import VerificationReport, _residue_witness, run_check
from .cyclotomic import CycloElem, GroupAlgebraElem, _field_sum, _field_witness, _unit_binomial
from .qcomb import gaussian_binomial, legendre3, q_catalan
from .ring import Poly, coeff_div
from .rootid import galois_orbit

# ---------------------------------------------------------------------------
# errors


class ParseError(ValueError):
    """Syntax error with position and the tokens that would have been legal."""

    def __init__(self, text: str, pos: int, expected: list[str]):
        self.pos = pos
        self.expected = expected
        found = text[pos : pos + 12] or "end of input"
        super().__init__(
            f"syntax error at column {pos + 1}: expected {' or '.join(expected)}, "
            f"found {found!r}"
        )


class EvalError(ValueError):
    """Evaluation error carrying the offending subexpression."""

    def __init__(self, message: str, expr: "Expr"):
        self.expr = expr
        super().__init__(f"{message} (in: {render(expr)})")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: "Expr"


@dataclass(frozen=True)
class Sum:
    var: str
    lower: "Expr"
    upper: "Expr"
    body: "Expr"


@dataclass(frozen=True)
class Call:
    name: str  # qbin qcat legendre3 floor
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, Bin, Pow, Sum, Call]

_CALL_NAMES = ("qbin", "qcat", "legendre3", "floor")


# ---------------------------------------------------------------------------
# tokenizer + recursive descent parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>==|\.\.|[-+*/^(),=@]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, column) per token: the kind is num or name, and a symbol
    is its own kind."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(text, len(text) - len(stripped), ["a token"])
        group = m.lastgroup
        token = m.group(group)
        tokens.append((token if group == "sym" else group, token, m.start(group)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, *kinds: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] not in kinds:
            raise ParseError(self.text, tok[2], list(kinds))
        return self.next()

    def word(self, *words: str) -> str:
        """The next token, which must be a name spelled as one of words."""
        tok = self.peek()
        if tok[0] != "name" or tok[1] not in words:
            raise ParseError(self.text, tok[2], list(words))
        return self.next()[1]

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(self.text, tok[2], ["+", "-", "*", "/", "end of input"])
        return e

    def corpus_line(self, line_no: int) -> CorpusEntry:
        """LHS == RHS @ mode(bindings) [mod Phi(expr)[^e]]."""
        lhs = self.expr()
        self.expect("==")
        rhs = self.expr()
        self.expect("@")
        mode = self.word("poly", "cyclo")
        self.expect("(")
        bindings = [] if self.peek()[0] == ")" else [self.binding()]
        while self.expect(",", ")")[0] == ",":
            bindings.append(self.binding())
        index, power = None, 1
        _, value, pos = self.peek()
        if value == "mod":
            if mode != "poly":
                raise ParseError(self.text, pos, ["end of line (mod needs poly mode)"])
            self.next()
            self.word("Phi")
            self.expect("(")
            index = self.expr()
            self.expect(")")
            if self.peek()[0] == "^":
                self.next()
                power = int(self.expect("num")[1])
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(self.text, tok[2], ["end of line"])
        return CorpusEntry(
            line_no, self.text.strip(), lhs, rhs, mode, tuple(bindings), index, power
        )

    def binding(self) -> tuple[str, str, object]:
        """NAME = (all | expr [.. expr [.. expr]]) as (name, kind, payload)."""
        name = self.expect("name")[1]
        self.expect("=")
        if self.peek()[1] == "all":
            self.next()
            return (name, "all", None)
        bounds = [self.expr()]
        while self.peek()[0] == ".." and len(bounds) < 3:
            self.next()
            bounds.append(self.expr())
        if len(bounds) == 1:
            return (name, "expr", bounds[0])
        return (name, "range", (*bounds, None)[:3])

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            e = Bin(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            e = Bin(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.factor())
        e = self.atom()
        if self.peek()[0] == "^":
            self.next()
            e = Pow(e, self.factor())
        return e

    def atom(self) -> Expr:
        kind, value, pos = self.peek()
        if kind == "num":
            self.next()
            return Num(Fraction(int(value)))
        if kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            self.next()
            if value == "sum":
                self.expect("(")
                _, var, var_pos = self.expect("name")
                if var == "q":
                    raise ParseError(self.text, var_pos, ["a sum variable other than q"])
                self.expect("=")
                lower = self.expr()
                self.expect("..")
                upper = self.expr()
                self.expect(",")
                body = self.expr()
                self.expect(")")
                return Sum(var, lower, upper, body)
            if value in _CALL_NAMES:
                self.expect("(")
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                return Call(value, tuple(args))
            if self.peek()[0] == "(":
                raise ParseError(self.text, pos, ["sum", *_CALL_NAMES])
            return Var(value)
        raise ParseError(self.text, pos, ["a number", "a name", "'('", "'-'"])


def parse(text: str) -> Expr:
    """Parse an identity-language expression into its AST.

    >>> parse("qbin(4,2)")
    Call(name='qbin', args=(Num(value=Fraction(4, 1)), Num(value=Fraction(2, 1))))
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# rendering (round-trips through parse to a structurally identical AST)


def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        return 1 if e.op in "+-" else 2
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Pow):
        return 4
    return 5


def render(e: Expr) -> str:
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = render(e.operand)
        return f"-({inner})" if _prec(e.operand) < 3 else f"-{inner}"
    if isinstance(e, Bin):
        mine = _prec(e)
        left = render(e.left)
        if _prec(e.left) < mine:
            left = f"({left})"
        right = render(e.right)
        if _prec(e.right) <= mine:
            right = f"({right})"
        return f"{left} {e.op} {right}"
    if isinstance(e, Pow):
        base = render(e.base)
        if _prec(e.base) < 5:
            base = f"({base})"
        exp = render(e.exponent)
        if _prec(e.exponent) < 3:
            exp = f"({exp})"
        return f"{base}^{exp}"
    if isinstance(e, Sum):
        return (
            f"sum({e.var}={render(e.lower)}..{render(e.upper)}, {render(e.body)})"
        )
    if isinstance(e, Call):
        return f"{e.name}({', '.join(render(a) for a in e.args)})"
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# evaluation: each expression is compiled once into closures


_RATIONAL = (int, Fraction)


@dataclass
class EvalContext:
    """mode 'poly' or 'cyclo'; bindings map variable names other than q to
    integers; field = (m, j) fixes q = zeta_m^j in cyclo mode (gcd(j, m) = 1)
    and is ignored in poly mode."""

    mode: str
    bindings: dict[str, int]
    field: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.mode not in ("poly", "cyclo"):
            raise ValueError("mode must be 'poly' or 'cyclo'")
        if "q" in self.bindings:
            raise ValueError("q is the indeterminate and cannot be bound")
        if self.mode == "cyclo":
            if self.field is None:
                raise ValueError("cyclo mode needs field = (m, j)")
            m, j = self.field
            if m < 1:
                raise ValueError("field order must be a positive integer")
            if gcd(j, m) != 1:
                raise ValueError(f"j = {j} is not coprime to m = {m}")

    def evaluate(self, compiled: Callable[[dict], object]):
        """The lifted value of a compiled expression, whose closures read one
        dict: the bindings and, in cyclo mode, q (never a binding) holding
        the field order m; the closures never see j."""
        env = dict(self.bindings)
        if self.mode == "cyclo":
            env["q"] = self.field[0]
        return self.lift(compiled(env))

    def lift(self, value):
        """A value in the mode's ring: a rational becomes a constant Poly or a
        scalar GroupAlgebraElem, a term list its sum at q = zeta_m^j."""
        if type(value) is list:
            return _field_sum(self.field[0], value, self.field[1])
        if type(value) not in _RATIONAL:
            return value
        if self.mode == "poly":
            return Poly.constant(value)
        return GroupAlgebraElem.monomial(self.field[0], value)


def _promote(a, b):
    """Both operands as term lists: a rational becomes a constant term."""
    if type(a) in _RATIONAL:
        return [(a, 0, 0, 0)], b
    if type(b) in _RATIONAL:
        return a, [(b, 0, 0, 0)]
    return a, b


def _monomials(terms) -> bool:
    for term in terms:
        if term[3]:
            return False
    return True


def _terms(value: CycloElem) -> list:
    """A field value read back as its monomial terms (c, i, 0, 0)."""
    return [(coeff_div(c, value.den), i, 0, 0) for i, c in enumerate(value.num) if c]


def _negate(value):
    if type(value) is list:
        return [(-c, e, s, t) for c, e, s, t in value]
    return -value


def _plus(a, b):
    """a + b; two term lists concatenate."""
    if type(a) is list or type(b) is list:
        a, b = _promote(a, b)
    return a + b


def _times(a, b, env):
    """a * b; two term lists multiply term by term if one holds only
    monomials, and in Q(zeta_m) otherwise."""
    if type(a) is list or type(b) is list:
        a, b = _promote(a, b)
        if len(a) > len(b):
            a, b = b, a
        if not _monomials(a):
            a, b = b, a
            if not _monomials(a):
                m = env["q"]
                return _terms(_field_sum(m, a).value() * _field_sum(m, b).value())
        return [(c * d, x + y, s, t) for c, x, _, _ in a for d, y, s, t in b]
    return a * b


def _is_zero(value, env) -> bool:
    if type(value) in _RATIONAL:
        return value == 0
    if type(value) is list and len(value) == 1:  # its denominator is a unit
        return value[0][0] == 0
    return (_field_sum(env["q"], value) if type(value) is list else value).is_zero()


def _divide(a, b, e: Expr, env):
    """a / b.  In cyclo mode a divisor that collects to one monomial scales
    and shifts the numerator's terms, and one that collects to two,
    c q^p + d q^r = c q^p (1 - t q^(r - p)) with t = -d/c, turns a numerator
    of monomials into quotient terms; any other quotient is computed in
    Q(zeta_m) with the memoised CycloElem.inv."""
    if type(b) in _RATIONAL:
        if b == 0:
            raise EvalError("division by zero", e)
        if type(a) in _RATIONAL:
            return coeff_div(a, b)
        return _times(a, coeff_div(1, b), env)
    if isinstance(b, Poly):
        if b.is_zero():
            raise EvalError("division by zero", e)
        try:
            return (Poly.constant(a) if type(a) in _RATIONAL else a).exact_div(b)
        except ValueError as exc:
            raise EvalError(str(exc), e) from None
    a, b = _promote(a, b)
    m = env["q"]
    try:
        if _monomials(b):
            collected = {}
            for c, x, _, _ in b:
                x %= m
                collected[x] = collected.get(x, 0) + c
            support = sorted([item for item in collected.items() if item[1]])
            if len(support) == 1:  # 1 / (c q^p) = (1/c) q^-p
                ((p, c),) = support
                return _times(a, [(coeff_div(1, c), -p, 0, 0)], env)
            if len(support) == 2 and _monomials(a):
                (p, c), (r, d) = support
                t = coeff_div(-d, c)
                if t == 1 or t == -1:  # 1 - t zeta^s is nonzero for any other rational t
                    _unit_binomial(m, r - p, t)  # ZeroDivisionError if it is 0
                if c != 1:
                    a = [(coeff_div(k, c), x, 0, 0) for k, x, _, _ in a]
                return [(k, x - p, r - p, t) for k, x, _, _ in a]
        inverse = _field_sum(m, b).value().inv()
    except ZeroDivisionError:
        raise EvalError("division by a zero field element", e) from None
    return _terms(_field_sum(m, a).value() * inverse)


def _power(base, ex: int, e: Expr, env):
    if ex < 0 and isinstance(base, Poly) and base.degree > 0:
        raise EvalError("negative power of a non-constant polynomial", e)
    try:
        if type(base) is list:
            return _terms(_field_sum(env["q"], base).value() ** ex)
        if ex < 0:
            ex = -ex
            if isinstance(base, Poly):
                base = Poly.constant(coeff_div(1, base[0]))
            else:
                base = coeff_div(1, base)
    except ZeroDivisionError:
        raise EvalError("zero to a negative power", e) from None
    return base**ex


def _compile(e: Expr, mode: str) -> Callable[[dict], object]:
    """e as a closure env -> value, built once and run for every case.
    Every error is raised when the closure runs, as an EvalError on its
    node."""
    if isinstance(e, Bin):
        left, right = _compile(e.left, mode), _compile(e.right, mode)
        if e.op == "+":
            return lambda env: _plus(left(env), right(env))
        if e.op == "-":
            return lambda env: _plus(left(env), _negate(right(env)))
        if e.op == "/":
            return lambda env: _divide(left(env), right(env), e, env)

        def product(env):
            a = left(env)
            if _is_zero(a, env):  # the right factor may be undefined
                return 0 if type(a) in _RATIONAL else a
            return _times(a, right(env), env)

        return product
    if isinstance(e, Num):
        value = e.value.numerator if e.value.denominator == 1 else e.value
        return lambda env: value
    if isinstance(e, Var) and e.name != "q":

        def variable(env):
            if e.name not in env:
                raise EvalError(f"unbound variable {e.name!r}", e)
            return env[e.name]

        return variable
    if e == Var("q") or isinstance(e, Pow) and e.base == Var("q"):  # a monomial
        one = Num(Fraction(1))  # q is q^1
        exponent = _integer(e.exponent if isinstance(e, Pow) else one, mode, e)
        if mode == "cyclo":
            return lambda env: [(1, exponent(env), 0, 0)]

        def q_power(env):
            ex = exponent(env)
            if ex < 0:
                raise EvalError("negative power of a non-constant polynomial", e)
            return Poly.monomial(1, ex)

        return q_power
    if isinstance(e, Pow):
        exponent = _integer(e.exponent, mode, e)
        base = _compile(e.base, mode)

        def power(env):
            ex = exponent(env)
            return _power(base(env), ex, e, env)

        return power
    if isinstance(e, Neg):
        operand = _compile(e.operand, mode)
        return lambda env: _negate(operand(env))
    if isinstance(e, Sum):
        lower = _integer(e.lower, mode, e)
        upper = _integer(e.upper, mode, e)
        body = _compile(e.body, mode)

        def total(env):
            lo, hi = lower(env), upper(env)
            value, saved = 0, env.get(e.var)
            try:
                for v in range(lo, hi + 1):
                    env[e.var] = v
                    value = _plus(value, body(env))
            finally:
                if saved is None:
                    env.pop(e.var, None)
                else:
                    env[e.var] = saved
            return value

        return total
    if isinstance(e, Call):
        arity = {"legendre3": 1, "floor": 1, "qbin": 2, "qcat": 1}.get(e.name)
        node = None if e.name == "floor" else e
        args = [_integer(a, mode, node) for a in e.args]

        def call(env):
            if arity is None:
                raise EvalError(f"unknown function {e.name!r}", e)
            if len(args) != arity:
                raise EvalError(f"{e.name} takes {arity} argument(s)", e)
            values = [arg(env) for arg in args]
            if e.name == "floor":
                return floor(values[0])
            if e.name == "legendre3":
                return legendre3(values[0])
            if e.name == "qcat" and values[0] < 0:
                raise EvalError("qcat needs a nonnegative index", e)
            p = gaussian_binomial(*values) if e.name == "qbin" else q_catalan(*values)
            if mode == "poly":
                return p
            m = env["q"]  # folded mod m, as q^m = 1 at every m-th root of unity
            return [(c, r, 0, 0) for r in range(m) if (c := sum(p.coeffs[r::m]))]

        return call
    raise TypeError(f"not an Expr: {e!r}")


def _names(e: Expr) -> set[str]:
    """The names of the variables and functions that occur in e."""
    if isinstance(e, (Var, Call)):
        names, parts = {e.name}, getattr(e, "args", ())
    else:
        names, parts = set(), vars(e).values()
    for part in parts:
        if not isinstance(part, (str, Fraction)):
            names |= _names(part)
    return names


def _integer(sub: Expr, mode: str, node: Optional[Expr]):
    """The closure of an integer position sub of node: its value must be
    rational, since q may not occur there, and integral unless node is None
    (the argument of floor)."""
    value = _compile(sub, mode)

    def integer(env):
        v = value(env)
        if type(v) is int:
            return v
        if type(v) is not Fraction:
            raise EvalError("q is not allowed in an integer position", sub)
        if node is not None and v.denominator != 1:
            raise EvalError(f"expected an integer, got {v}", node)
        return v if node is None else v.numerator

    return integer


def eval_poly(e: Expr, bindings: Optional[dict[str, int]] = None) -> Poly:
    """Evaluate an expression to an exact polynomial in q.

    >>> eval_poly(parse("qcat(3)"))
    Poly('1 + q^2 + q^3 + q^4 + q^6')
    """
    ctx = EvalContext("poly", dict(bindings or {}))
    return ctx.evaluate(_compile(e, "poly"))


def eval_cyclo(
    e: Expr, m: int, j: int, bindings: Optional[dict[str, int]] = None
) -> CycloElem:
    """Evaluate an expression in Q(zeta_m) with q bound to zeta_m^j.

    >>> eval_cyclo(parse("1/(1 - q)"), 3, 1)
    CycloElem('2/3 + 1/3*x (mod Phi_3)')
    """
    ctx = EvalContext("cyclo", dict(bindings or {}), (m, j))
    return ctx.evaluate(_compile(e, "cyclo")).value()


# ---------------------------------------------------------------------------
# identity corpus


@dataclass(frozen=True)
class CorpusEntry:
    """One identity line: LHS == RHS @ mode(bindings) [mod Phi(expr)^e]."""

    line_no: int
    raw: str
    lhs: Expr
    rhs: Expr
    mode: str
    bindings: tuple[tuple[str, str, object], ...]  # (name, kind, payload)
    mod_index: Optional[Expr] = None
    mod_power: int = 1


def parse_corpus_line(line_no: int, line: str) -> CorpusEntry:
    """Parse one corpus line; every error names the line.

    >>> parse_corpus_line(1, "q == q @ cyclo(m=6, j=all)").bindings
    (('m', 'expr', Num(value=Fraction(6, 1))), ('j', 'all', None))
    """
    try:
        entry = _Parser(line).corpus_line(line_no)
        names = [name for name, _, _ in entry.bindings]
        if "q" in names:
            raise ValueError("q is the indeterminate and cannot be bound")
        twice = next((name for i, name in enumerate(names) if name in names[:i]), None)
        if twice is not None:
            raise ValueError(f"{twice} is bound twice")
        if entry.mode == "cyclo" and ("m" not in names or "j" not in names):
            raise ValueError("cyclo mode needs m and j bindings")
        for i, (name, kind, _) in enumerate(entry.bindings):
            if kind == "all" and name != "j":
                raise ValueError("'all' sweeps are only supported for j")
            if kind == "all" and "m" not in names[:i]:
                raise ValueError("j=all needs m bound earlier in the parameter list")
    except ValueError as exc:
        raise ValueError(f"line {line_no}: {exc}") from None
    return entry


def statement_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each statement of a corpus file:
    one identity per line, '#' comments and blank lines ignored.

    >>> list(statement_lines("# header\\n\\n  q == q @ poly()  \\n"))
    [(3, 'q == q @ poly()')]
    """
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield i, stripped


def load_corpus(text: str) -> list[CorpusEntry]:
    """Parse every statement of a corpus file."""
    return [parse_corpus_line(i, line) for i, line in statement_lines(text)]


def shipped_corpus_text() -> str:
    """The text of the corpus distributed with the package."""
    from importlib.resources import files

    return files("qcatalan").joinpath("corpus/identities.txt").read_text("utf-8")


def shipped_corpus() -> list[CorpusEntry]:
    """The corpus distributed with the package, parsed."""
    return load_corpus(shipped_corpus_text())


def _cases(entry: CorpusEntry) -> Iterator[dict[str, int]]:
    """The bindings of every case of a corpus line, in sweep order.  Each
    bound is compiled once as a poly-mode integer position: name=expr as
    the range expr..expr, and j=all sweeps the residues coprime to m."""
    bounds = []
    for name, kind, payload in entry.bindings:
        if kind == "all":
            bounds.append((name, None))
            continue
        if kind == "range":
            closures = [e if e is None else _integer(e, "poly", e) for e in payload]
        else:  # name=expr: the range expr..expr
            value = _integer(payload, "poly", payload)
            closures = [value, value, None]
        bounds.append((name, closures))
    return _sweep(entry.line_no, bounds, 0, {})


def _sweep(
    line_no: int, bounds: list, idx: int, bound: dict[str, int]
) -> Iterator[dict[str, int]]:
    if idx == len(bounds):
        yield dict(bound)
        return
    name, closures = bounds[idx]
    if closures is None:  # j=all; parse_corpus_line bound m earlier
        values = galois_orbit(bound["m"])
    else:
        lo, hi, step = (f(bound) if f else 1 for f in closures)
        if step < 1:
            raise ValueError(
                f"line {line_no}: range step must be at least 1, got {step}"
            )
        values = range(lo, hi + 1, step)
    for v in values:
        bound[name] = v
        yield from _sweep(line_no, bounds, idx + 1, bound)
    bound.pop(name, None)


def run_corpus_entry(entry: CorpusEntry) -> VerificationReport:
    """Check one corpus identity across its whole parameter sweep.  The line
    is compiled once, inside the timed check, and its closures run per case;
    a cyclo case maps the sum at q = zeta_m for its bindings but j by x -> x^j."""
    cases = 0

    def witness() -> Optional[str]:
        nonlocal cases
        expr = Bin("-", entry.lhs, entry.rhs)
        reads_j = "j" in _names(expr)
        diff, sums = _compile(expr, entry.mode), {}
        index = entry.mod_index
        if index is not None:
            index = _integer(index, "poly", index)
        for binding in _cases(entry):
            cases += 1
            field = (binding["m"], binding["j"]) if entry.mode == "cyclo" else None
            context = EvalContext(entry.mode, binding, field)  # checks gcd(j, m)
            if field:  # one sum at q = zeta_m per binding of the names but j
                key = tuple(v for k, v in binding.items() if k != "j" or reads_j)
                if key not in sums:
                    at_root = EvalContext("cyclo", binding, (field[0], 1))
                    sums[key] = at_root.evaluate(diff)
                shown = _field_witness(sums[key].conjugate(field[1]))
            else:
                value = context.evaluate(diff)
                if index is not None:
                    residue = _residue_witness(value, index(binding), entry.mod_power)
                    shown = None if residue is None else f"residue {residue}"
                else:
                    shown = None if value.is_zero() else value.render()
            if shown is not None:
                return f"{binding}: {shown}"
        if not cases:
            raise ValueError(f"line {entry.line_no}: the bindings select no case")
        return None

    report = run_check("dsl-corpus", {"line": entry.line_no}, witness)
    if report.passed:
        report = dataclasses.replace(report, params={**report.params, "cases": cases})
    return report
