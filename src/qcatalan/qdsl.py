"""A small expression language for q-identities.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := NUMBER | 'q' | NAME | call | '(' expr ')'
    call   := ('qbin' | 'qcat' | 'legendre3' | 'floor') '(' expr {',' expr} ')'
            | 'sum' '(' NAME '=' expr '..' expr ',' expr ')'

Expressions evaluate either to an exact Poly (q is the indeterminate) or
to an element of Q(zeta_m) at q = zeta_m^j.  Exponents, summation bounds
and the arguments of qbin/qcat/legendre3 are integer positions: they are
computed in int (a Fraction appears only for a non-integral quotient or a
negative power) and must come out integral, which is checked at
evaluation time.

In cyclo mode every subexpression is a lazy cyclotomic.GroupAlgebraElem:
q^e is a unit vector, a rational is a scalar, and sums and products are
vector operations in Q[x]/(x^m - 1).  Divisions by the two-term values
1 - t*q^s that the paper's identities are made of use the closed-form
binomial inverses.  A value is reduced mod Phi_m only where the field
matters: to invert a value with three or more terms, to test a left factor
of '*' for zero, once per case for lhs - rhs in run_corpus_entry, and for
the CycloElem that eval_cyclo returns.

One deliberate semantic: a product whose left factor has already
evaluated to exactly zero short-circuits without evaluating the right
factor.  Statements write vanishing Legendre-symbol coefficients in front
of powers whose exponent is fractional precisely when the coefficient is
zero; the convention 0 * (anything) = 0 makes such lines directly
expressible.

Corpus files state one identity per line as ``LHS == RHS @ mode(params)``
with an optional trailing ``mod Phi(expr)^e`` in poly mode; see
load_corpus for the parameter sweep syntax.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd
from typing import Iterator, Optional, Union

from .congruence import VerificationReport, run_check
from .cyclotomic import CycloElem, CycloField, GroupAlgebraElem, reduce_mod_phi_power
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
    r"|(?P<sym>[-+*/^(),=]))"
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

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(self.text, tok[2], [kind])
        return self.next()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(self.text, tok[2], ["+", "-", "*", "/", "end of input"])
        return e

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
                var = self.expect("name")[1]
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


@dataclass
class EvalContext:
    """mode 'poly' or 'cyclo'; bindings map variable names to integers;
    field = (m, j) fixes q = zeta_m^j in cyclo mode (gcd(j, m) = 1)."""

    mode: str
    bindings: dict[str, int]
    field: Optional[tuple[int, int]] = None
    algebra: Optional[CycloField] = dataclasses.field(
        default=None, init=False, repr=False
    )

    def __post_init__(self):
        if self.mode not in ("poly", "cyclo"):
            raise ValueError("mode must be 'poly' or 'cyclo'")
        if self.mode == "cyclo":
            if self.field is None:
                raise ValueError("cyclo mode needs field = (m, j)")
            m, j = self.field
            if gcd(j, m) != 1:
                raise ValueError(f"j = {j} is not coprime to m = {m}")
            self.algebra = CycloField(m)


def _scalar(e: Expr, ctx: EvalContext) -> Union[int, Fraction]:
    """Evaluate an integer-position subexpression exactly.

    The arithmetic is in int; a Fraction appears only for a non-integral
    quotient or a negative power, so a power never yields a float.
    """
    if isinstance(e, Num):
        v = e.value
        return v.numerator if v.denominator == 1 else v
    if isinstance(e, Var):
        if e.name == "q":
            raise EvalError("q is not allowed in an integer position", e)
        if e.name not in ctx.bindings:
            raise EvalError(f"unbound variable {e.name!r}", e)
        return ctx.bindings[e.name]
    if isinstance(e, Neg):
        return -_scalar(e.operand, ctx)
    if isinstance(e, Bin):
        a = _scalar(e.left, ctx)
        if e.op == "*" and a == 0:
            return 0
        b = _scalar(e.right, ctx)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0:
            raise EvalError("division by zero", e)
        if type(a) is int and type(b) is int and a % b == 0:
            return a // b
        return Fraction(a) / b
    if isinstance(e, Pow):
        ex = _int(_scalar(e.exponent, ctx), e)
        base = _scalar(e.base, ctx)
        if ex < 0:
            if base == 0:
                raise EvalError("zero to a negative power", e)
            return Fraction(base) ** ex
        return base**ex
    if isinstance(e, Sum):
        lo = _int(_scalar(e.lower, ctx), e)
        hi = _int(_scalar(e.upper, ctx), e)
        total = 0
        saved = ctx.bindings.get(e.var)
        try:
            for v in range(lo, hi + 1):
                ctx.bindings[e.var] = v
                total += _scalar(e.body, ctx)
        finally:
            _restore(ctx, e.var, saved)
        return total
    if isinstance(e, Call):
        if e.name == "legendre3":
            _arity(e, 1)
            return legendre3(_int(_scalar(e.args[0], ctx), e))
        if e.name == "floor":
            _arity(e, 1)
            return floor(_scalar(e.args[0], ctx))
        raise EvalError(f"{e.name} is not scalar-valued", e)
    raise TypeError(f"not an Expr: {e!r}")


def _int(value: Union[int, Fraction], e: Expr) -> int:
    if type(value) is int:
        return value
    if value.denominator != 1:
        raise EvalError(f"expected an integer, got {value}", e)
    return value.numerator


def _arity(e: Call, n: int) -> None:
    if len(e.args) != n:
        raise EvalError(f"{e.name} takes {n} argument(s)", e)


def _restore(ctx: EvalContext, name: str, saved: Optional[int]) -> None:
    if saved is None:
        ctx.bindings.pop(name, None)
    else:
        ctx.bindings[name] = saved


def _evaluate(e: Expr, ctx: EvalContext):
    poly_mode = ctx.mode == "poly"
    if isinstance(e, Num):
        return Poly.constant(e.value) if poly_mode else _cy_rat(ctx, e.value)
    if isinstance(e, Var):
        if e.name == "q":
            return Poly.monomial(1, 1) if poly_mode else _cy_root(ctx, 1)
        if e.name not in ctx.bindings:
            raise EvalError(f"unbound variable {e.name!r}", e)
        c = ctx.bindings[e.name]
        return Poly.constant(c) if poly_mode else _cy_rat(ctx, c)
    if isinstance(e, Neg):
        return -_evaluate(e.operand, ctx)
    if isinstance(e, Bin):
        a = _evaluate(e.left, ctx)
        if e.op == "*" and a.is_zero():
            return a  # zero short-circuit; right factor may be undefined
        if e.op == "+":
            return a + _evaluate(e.right, ctx)
        if e.op == "-":
            return a - _evaluate(e.right, ctx)
        if e.op == "*":
            return a * _evaluate(e.right, ctx)
        b = _evaluate(e.right, ctx)
        if poly_mode:
            if b.is_zero():
                raise EvalError("division by zero", e)
            if b.degree == 0:
                return a * (Fraction(1) / Fraction(b.coeffs[0]))
            try:
                return a.exact_div(b)
            except ValueError as exc:
                raise EvalError(str(exc), e) from None
        try:
            return a * b.inv()
        except ZeroDivisionError:
            raise EvalError("division by a zero field element", e) from None
    if isinstance(e, Pow):
        ex = _int(_scalar(e.exponent, ctx), e)
        if not poly_mode and isinstance(e.base, Var) and e.base.name == "q":
            return _cy_root(ctx, ex)
        base = _evaluate(e.base, ctx)
        if poly_mode:
            if base.degree <= 0:
                c = base.coeffs[0] if base.coeffs else 0
                if ex < 0 and c == 0:
                    raise EvalError("zero to a negative power", e)
                return Poly.constant(Fraction(c) ** ex)
            if ex < 0:
                raise EvalError(
                    "negative power of a non-constant polynomial", e
                )
            return base**ex
        if ex < 0:
            try:
                base = base.inv()
            except ZeroDivisionError:
                raise EvalError("zero to a negative power", e) from None
        return base ** abs(ex)
    if isinstance(e, Sum):
        lo = _int(_scalar(e.lower, ctx), e)
        hi = _int(_scalar(e.upper, ctx), e)
        total = Poly.zero() if poly_mode else _cy_rat(ctx, 0)
        saved = ctx.bindings.get(e.var)
        try:
            for v in range(lo, hi + 1):
                ctx.bindings[e.var] = v
                total = total + _evaluate(e.body, ctx)
        finally:
            _restore(ctx, e.var, saved)
        return total
    if isinstance(e, Call):
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
            c = _scalar(e, ctx)
            return Poly.constant(c) if poly_mode else _cy_rat(ctx, c)
        if poly_mode:
            return p
        return _poly_at_root(ctx, p)
    raise TypeError(f"not an Expr: {e!r}")


def _cy_rat(ctx: EvalContext, c: Union[int, Fraction]) -> GroupAlgebraElem:
    return GroupAlgebraElem.monomial(ctx.algebra, c)


def _cy_root(ctx: EvalContext, e: int) -> GroupAlgebraElem:
    """q^e = zeta_m^(j*e), a unit vector."""
    return GroupAlgebraElem.monomial(ctx.algebra, 1, ctx.field[1] * e)


def _poly_at_root(ctx: EvalContext, p: Poly) -> GroupAlgebraElem:
    """Evaluate an integer polynomial at q = zeta_m^j by folding q^i onto
    x^(ij); the folded vector is not reduced mod Phi_m."""
    m, j = ctx.field
    folded = [0] * m
    for i, c in enumerate(p.coeffs):
        folded[(i * j) % m] += c
    return GroupAlgebraElem(ctx.algebra, folded)


def eval_poly(e: Expr, bindings: Optional[dict[str, int]] = None) -> Poly:
    """Evaluate an expression to an exact polynomial in q.

    >>> eval_poly(parse("qcat(3)"))
    Poly('1 + q^2 + q^3 + q^4 + q^6')
    """
    ctx = EvalContext("poly", dict(bindings or {}))
    value = _evaluate(e, ctx)
    assert isinstance(value, Poly)
    return value


def eval_cyclo(
    e: Expr, m: int, j: int, bindings: Optional[dict[str, int]] = None
) -> CycloElem:
    """Evaluate an expression in Q(zeta_m) with q bound to zeta_m^j.

    >>> eval_cyclo(parse("1/(1 - q)"), 3, 1)
    CycloElem('2/3 + 1/3*x (mod Phi_3)')
    """
    ctx = EvalContext("cyclo", dict(bindings or {}), (m, j))
    value = _evaluate(e, ctx)
    assert isinstance(value, GroupAlgebraElem)
    return value.value()


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


_BINDING_RE = re.compile(r"^\s*(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*=\s*(?P<rest>.+?)\s*$")


def _split_top_level(text: str, sep: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _parse_binding(spec: str) -> tuple[str, str, object]:
    m = _BINDING_RE.match(spec)
    if m is None:
        raise ValueError(f"bad binding: {spec!r}")
    name, rest = m.group("name"), m.group("rest")
    if rest == "all":
        return (name, "all", None)
    pieces = rest.split("..")
    if len(pieces) == 1:
        return (name, "expr", parse(pieces[0]))
    if len(pieces) == 2:
        return (name, "range", (parse(pieces[0]), parse(pieces[1]), None))
    if len(pieces) == 3:
        return (name, "range", (parse(pieces[0]), parse(pieces[1]), parse(pieces[2])))
    raise ValueError(f"bad range: {rest!r}")


_MOD_RE = re.compile(r"^mod\s+Phi\s*\((?P<mod>.*)\)\s*(?:\^\s*(?P<pow>\d+))?$")


def _parse_mode_spec(line_no: int, text: str) -> tuple[str, str, Optional[str], int]:
    s = text.strip()
    mode = next((k for k in ("poly", "cyclo") if s.startswith(k)), None)
    rest = s[len(mode):].lstrip() if mode else ""
    if mode is None or not rest.startswith("("):
        raise ValueError(f"line {line_no}: bad mode spec {text!r}")
    depth = 0
    close = -1
    for i, ch in enumerate(rest):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                close = i
                break
    if close < 0:
        raise ValueError(f"line {line_no}: unbalanced parentheses in {text!r}")
    bindings_text = rest[1:close]
    tail = rest[close + 1 :].strip()
    if not tail:
        return mode, bindings_text, None, 1
    m = _MOD_RE.match(tail)
    if m is None or mode != "poly":
        raise ValueError(f"line {line_no}: bad modulus spec {tail!r}")
    return mode, bindings_text, m.group("mod"), int(m.group("pow") or 1)


def parse_corpus_line(line_no: int, line: str) -> CorpusEntry:
    if "==" not in line or "@" not in line:
        raise ValueError(f"line {line_no}: expected 'LHS == RHS @ mode(...)'")
    sides, _, modepart = line.rpartition("@")
    lhs_text, _, rhs_text = sides.partition("==")
    mode, bindings_text, mod_text, mod_power = _parse_mode_spec(line_no, modepart)
    binding_specs = [s for s in _split_top_level(bindings_text, ",") if s.strip()]
    bindings = tuple(_parse_binding(s) for s in binding_specs)
    names = [name for name, _, _ in bindings]
    if mode == "cyclo":
        if "m" not in names or "j" not in names:
            raise ValueError(f"line {line_no}: cyclo mode needs m and j bindings")
    return CorpusEntry(
        line_no,
        line.strip(),
        parse(lhs_text),
        parse(rhs_text),
        mode,
        bindings,
        parse(mod_text) if mod_text is not None else None,
        mod_power,
    )


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
        for v in range(lo, hi + 1, step):
            bound[name] = v
            yield from _sweep(entry, idx + 1, bound)
        bound.pop(name, None)
    elif kind == "all":
        if name != "j":
            raise ValueError("'all' sweeps are only supported for j")
        if "m" not in bound:
            raise ValueError("j=all needs m bound earlier in the parameter list")
        for v in galois_orbit(bound["m"]):
            bound[name] = v
            yield from _sweep(entry, idx + 1, bound)
        bound.pop(name, None)
    else:
        raise ValueError(f"unknown binding kind {kind!r}")


def run_corpus_entry(entry: CorpusEntry, max_cases: Optional[int] = None) -> VerificationReport:
    """Check one corpus identity across its whole parameter sweep."""
    case_count = [0]

    def witness() -> Optional[str]:
        for binding in _sweep(entry, 0, {}):
            if max_cases is not None and case_count[0] >= max_cases:
                break
            case_count[0] += 1
            if entry.mode == "poly":
                lhs = eval_poly(entry.lhs, binding)
                rhs = eval_poly(entry.rhs, binding)
                if entry.mod_index is not None:
                    sc = EvalContext("poly", dict(binding))
                    n = _int(_scalar(entry.mod_index, sc), entry.mod_index)
                    rem = reduce_mod_phi_power(lhs - rhs, n, entry.mod_power)
                    if not rem.is_zero():
                        return f"{binding}: residue {rem.render()}"
                elif lhs != rhs:
                    return f"{binding}: {(lhs - rhs).render()}"
            else:
                m, j = binding["m"], binding["j"]
                ctx = EvalContext("cyclo", dict(binding), (m, j))
                lhs = _evaluate(entry.lhs, ctx)
                diff = (lhs - _evaluate(entry.rhs, ctx)).value()
                if not diff.is_zero():
                    return f"{binding}: {diff.render()}"
        return None

    report = run_check("dsl-corpus", {"line": entry.line_no}, witness)
    if report.passed:
        params = dict(report.params)
        params["cases"] = case_count[0]
        report = VerificationReport(
            report.suite_id, params, report.status, report.witness, report.elapsed
        )
    return report


if __name__ == "__main__":
    import doctest

    doctest.testmod()
