"""A small expression language for q-identities.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := NUMBER | 'q' | NAME | call | '(' expr ')'
    call   := ('qbin' | 'qcat' | 'legendre3' | 'floor') '(' expr {',' expr} ')'
            | 'sum' '(' NAME '=' expr '..' expr ',' expr ')'

One tree walker, _evaluate, computes every value.  A subexpression
without q is a Python rational: an int, or a Fraction only for a
non-integral quotient or a negative power, never a float.  A subexpression
with q (or a qbin / qcat) is a ring value: an exact Poly in poly mode, where
q is the indeterminate, and a lazy cyclotomic.GroupAlgebraElem in cyclo
mode, where q = zeta_m^j.  q^e is one monomial in both modes.  A rational
is lifted into the ring only where it meets a ring value (the ring
operators accept int and Fraction operands) and at the exits: eval_poly,
eval_cyclo and run_corpus_entry.  Exponents, summation bounds and the
arguments of qbin/qcat/legendre3 are integer positions: _scalar requires
their value to be rational, and it must also be integral.  The argument of
floor must be rational.  q is reserved: it cannot be bound, not even as a
sum variable.

In cyclo mode q^e is a unit vector and sums and products are vector
operations in Q[x]/(x^m - 1).  Divisions by the two-term values
1 - t*q^s that the paper's identities are made of use the closed-form
binomial inverses.  A value is reduced mod Phi_m only to invert a value
with three or more terms, to render a failing case, and for the CycloElem
that eval_cyclo returns.  Zero tests in Q(zeta_m) use
cyclotomic.phi_power_divides instead, and lhs - rhs mod Phi(n)^e in poly
mode is judged by congruence._residue_witness, the one Phi_n^e verdict.

One deliberate semantic: a product whose left factor has already
evaluated to exactly zero short-circuits without evaluating the right
factor.  Statements write vanishing Legendre-symbol coefficients in front
of powers whose exponent is fractional precisely when the coefficient is
zero; the convention 0 * (anything) = 0 makes such lines directly
expressible.

A corpus line states one identity::

    line    := expr '==' expr '@' ('poly' | 'cyclo') '(' [binding {',' binding}] ')'
               ['mod' 'Phi' '(' expr ')' ['^' NUMBER]]
    binding := NAME '=' ('all' | expr ['..' expr ['..' expr]])

The bindings sweep left to right: ``name=lo..hi`` or ``name=lo..hi..step``
(step >= 1), ``name=expr`` from earlier bindings, and ``j=all`` for the
residues coprime to m.  No name is bound twice, q is not bound at all, and
cyclo mode needs m and j.  ``mod`` is allowed only in poly mode.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd
from typing import Iterator, Optional, Union

from .congruence import VerificationReport, _residue_witness, run_check
from .cyclotomic import CycloElem, GroupAlgebraElem
from .qcomb import gaussian_binomial, legendre3, q_catalan
from .ring import Poly
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
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<dots>\.\.)"
    r"|(?P<sym>==|[-+*/^(),=@]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(text, len(text) - len(stripped), ["a token"])
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("dots") is not None:
            tokens.append(("..", "..", m.start("dots")))
        else:
            sym = m.group("sym")
            tokens.append((sym, sym, m.start("sym")))
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
# evaluation


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
            if gcd(j, m) != 1:
                raise ValueError(f"j = {j} is not coprime to m = {m}")

    def lift(self, value):
        """A value as an element of the mode's ring: a rational becomes a
        constant Poly or a scalar GroupAlgebraElem."""
        if type(value) not in _RATIONAL:
            return value
        if self.mode == "poly":
            return Poly.constant(value)
        return GroupAlgebraElem.monomial(self.field[0], value)


def _scalar(e: Expr, ctx: EvalContext) -> Union[int, Fraction]:
    """Evaluate an integer-position subexpression: its _evaluate value, which
    must be rational because q may not occur there."""
    value = _evaluate(e, ctx)
    if type(value) not in _RATIONAL:
        raise EvalError("q is not allowed in an integer position", e)
    return value


def _int(value: Union[int, Fraction], e: Expr) -> int:
    if type(value) is int:
        return value
    if value.denominator != 1:
        raise EvalError(f"expected an integer, got {value}", e)
    return value.numerator


def _arity(e: Call, n: int) -> None:
    if len(e.args) != n:
        raise EvalError(f"{e.name} takes {n} argument(s)", e)


def _evaluate(e: Expr, ctx: EvalContext):
    """The one tree walker: the value of e under ctx.

    A subexpression without q evaluates to an int, or to a Fraction only
    for a non-integral quotient or a negative power, in exactly that
    arithmetic.  A subexpression with q, qbin or qcat evaluates to a Poly in
    poly mode and to a GroupAlgebraElem in cyclo mode.  A rational meets a
    ring value only in the ring's own + - * (which lift it), as the
    numerator of an exact Poly division (ctx.lift), and at the exits.
    """
    if isinstance(e, Bin):
        a = _evaluate(e.left, ctx)
        if e.op == "+":
            return a + _evaluate(e.right, ctx)
        if e.op == "-":
            return a - _evaluate(e.right, ctx)
        if e.op == "*":
            # zero short-circuit: the right factor may be undefined
            if type(a) in _RATIONAL:
                if a == 0:
                    return 0
            elif a.is_zero():
                return a
            return a * _evaluate(e.right, ctx)
        b = _evaluate(e.right, ctx)
        if type(b) in _RATIONAL:
            if b == 0:
                raise EvalError("division by zero", e)
            if type(a) is int and type(b) is int and a % b == 0:
                return a // b
            return a * (Fraction(1) / b)
        if isinstance(b, GroupAlgebraElem):
            try:
                return a * b.inv()
            except ZeroDivisionError:
                raise EvalError("division by a zero field element", e) from None
        if b.is_zero():
            raise EvalError("division by zero", e)
        try:
            return ctx.lift(a).exact_div(b)
        except ValueError as exc:
            raise EvalError(str(exc), e) from None
    if isinstance(e, Num):
        v = e.value
        return v.numerator if v.denominator == 1 else v
    if isinstance(e, Var):
        if e.name == "q":
            return _q_power(ctx, 1, e)
        if e.name not in ctx.bindings:
            raise EvalError(f"unbound variable {e.name!r}", e)
        return ctx.bindings[e.name]
    if isinstance(e, Pow):
        ex = _int(_scalar(e.exponent, ctx), e)
        if isinstance(e.base, Var) and e.base.name == "q":
            return _q_power(ctx, ex, e)
        base = _evaluate(e.base, ctx)
        if ex < 0:
            if isinstance(base, Poly) and base.degree > 0:
                raise EvalError("negative power of a non-constant polynomial", e)
            ex = -ex
            try:
                if isinstance(base, GroupAlgebraElem):
                    base = base.inv()
                elif isinstance(base, Poly):
                    base = Poly.constant(Fraction(1) / base[0])
                else:
                    base = Fraction(1) / base
            except ZeroDivisionError:
                raise EvalError("zero to a negative power", e) from None
        return base**ex
    if isinstance(e, Neg):
        return -_evaluate(e.operand, ctx)
    if isinstance(e, Sum):
        lo = _int(_scalar(e.lower, ctx), e)
        hi = _int(_scalar(e.upper, ctx), e)
        total = 0
        saved = ctx.bindings.get(e.var)
        try:
            for v in range(lo, hi + 1):
                ctx.bindings[e.var] = v
                total = total + _evaluate(e.body, ctx)
        finally:
            if saved is None:
                ctx.bindings.pop(e.var, None)
            else:
                ctx.bindings[e.var] = saved
        return total
    if isinstance(e, Call):
        if e.name == "legendre3":
            _arity(e, 1)
            return legendre3(_int(_scalar(e.args[0], ctx), e))
        if e.name == "floor":
            _arity(e, 1)
            return floor(_scalar(e.args[0], ctx))
        if e.name == "qbin":
            _arity(e, 2)
            p = gaussian_binomial(
                _int(_scalar(e.args[0], ctx), e), _int(_scalar(e.args[1], ctx), e)
            )
        elif e.name == "qcat":
            _arity(e, 1)
            k = _int(_scalar(e.args[0], ctx), e)
            if k < 0:
                raise EvalError("qcat needs a nonnegative index", e)
            p = q_catalan(k)
        else:
            raise EvalError(f"unknown function {e.name!r}", e)
        return p if ctx.mode == "poly" else _poly_at_root(ctx, p)
    raise TypeError(f"not an Expr: {e!r}")


def _q_power(ctx: EvalContext, ex: int, e: Expr):
    """q^ex as one monomial: q^ex in poly mode, the unit vector of
    zeta_m^(j*ex) in cyclo mode."""
    if ctx.mode == "cyclo":
        return GroupAlgebraElem.monomial(ctx.field[0], 1, ctx.field[1] * ex)
    if ex < 0:
        raise EvalError("negative power of a non-constant polynomial", e)
    return Poly.monomial(1, ex)


def _poly_at_root(ctx: EvalContext, p: Poly) -> GroupAlgebraElem:
    """Evaluate an integer polynomial at q = zeta_m^j by folding q^i onto
    x^(ij); the folded vector is not reduced mod Phi_m."""
    m, j = ctx.field
    folded = [0] * m
    for i, c in enumerate(p.coeffs):
        folded[(i * j) % m] += c
    return GroupAlgebraElem(m, folded)


def eval_poly(e: Expr, bindings: Optional[dict[str, int]] = None) -> Poly:
    """Evaluate an expression to an exact polynomial in q.

    >>> eval_poly(parse("qcat(3)"))
    Poly('1 + q^2 + q^3 + q^4 + q^6')
    """
    ctx = EvalContext("poly", dict(bindings or {}))
    return ctx.lift(_evaluate(e, ctx))


def eval_cyclo(
    e: Expr, m: int, j: int, bindings: Optional[dict[str, int]] = None
) -> CycloElem:
    """Evaluate an expression in Q(zeta_m) with q bound to zeta_m^j.

    >>> eval_cyclo(parse("1/(1 - q)"), 3, 1)
    CycloElem('2/3 + 1/3*x (mod Phi_3)')
    """
    ctx = EvalContext("cyclo", dict(bindings or {}), (m, j))
    return ctx.lift(_evaluate(e, ctx)).value()


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


def load_corpus(text: str) -> list[CorpusEntry]:
    """Parse a corpus file: one identity per line, '#' comments, blank
    lines ignored."""
    entries = []
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        entries.append(parse_corpus_line(i, stripped))
    return entries


def shipped_corpus() -> list[CorpusEntry]:
    """The corpus distributed with the package."""
    from importlib.resources import files

    text = files("qcatalan").joinpath("corpus/identities.txt").read_text("utf-8")
    return load_corpus(text)


def _sweep(
    entry: CorpusEntry, idx: int, bound: dict[str, int]
) -> Iterator[dict[str, int]]:
    if idx == len(entry.bindings):
        yield dict(bound)
        return
    name, kind, payload = entry.bindings[idx]
    scalar_ctx = EvalContext("poly", bound)
    if kind == "expr":
        bound[name] = _int(_scalar(payload, scalar_ctx), payload)
        yield from _sweep(entry, idx + 1, bound)
        del bound[name]
    elif kind == "range":
        lo_e, hi_e, step_e = payload
        lo = _int(_scalar(lo_e, scalar_ctx), lo_e)
        hi = _int(_scalar(hi_e, scalar_ctx), hi_e)
        step = _int(_scalar(step_e, scalar_ctx), step_e) if step_e is not None else 1
        if step < 1:
            raise ValueError(
                f"line {entry.line_no}: range step must be at least 1, got {step}"
            )
        for v in range(lo, hi + 1, step):
            bound[name] = v
            yield from _sweep(entry, idx + 1, bound)
        bound.pop(name, None)
    else:  # j=all; parse_corpus_line bound m earlier
        for v in galois_orbit(bound["m"]):
            bound[name] = v
            yield from _sweep(entry, idx + 1, bound)
        bound.pop(name, None)


def run_corpus_entry(entry: CorpusEntry) -> VerificationReport:
    """Check one corpus identity across its whole parameter sweep."""
    cases = 0

    def witness() -> Optional[str]:
        nonlocal cases
        for binding in _sweep(entry, 0, {}):
            cases += 1
            field = (binding["m"], binding["j"]) if entry.mode == "cyclo" else None
            ctx = EvalContext(entry.mode, dict(binding), field)
            diff = ctx.lift(_evaluate(entry.lhs, ctx) - _evaluate(entry.rhs, ctx))
            if entry.mod_index is not None:
                n = _int(_scalar(entry.mod_index, ctx), entry.mod_index)
                residue = _residue_witness(diff, n, entry.mod_power)
                if residue is not None:
                    return f"{binding}: residue {residue}"
            elif not diff.is_zero():
                shown = diff if field is None else diff.value()
                return f"{binding}: {shown.render()}"
        return None

    report = run_check("dsl-corpus", {"line": entry.line_no}, witness)
    if report.passed:
        report = dataclasses.replace(report, params={**report.params, "cases": cases})
    return report


if __name__ == "__main__":
    import doctest

    doctest.testmod()
