"""The qdsl tree walker kept as a differential oracle for the compiled
evaluator.

_evaluate walks an expression tree once per case.  It was the library's
evaluator before qdsl compiled each expression into closures, and it
computes every value with the ring operators alone: a Poly in poly mode,
a CycloElem in cyclo mode, never a term list, so it shares no arithmetic
with the group-algebra accumulator that the compiled closures sum into.
The tests below check that the compiled evaluator agrees with it on every
case of every shipped corpus line, and that both reject perturbed right
sides.
"""

import dataclasses
import random
from fractions import Fraction
from math import floor, gcd
from typing import Union

from qcatalan.congruence import _residue_witness
from qcatalan.cyclotomic import (
    CycloElem,
    GroupAlgebraElem,
    _field_sum,
    reduce_mod_phi_power,
)
from qcatalan.qcomb import gaussian_binomial, legendre3, q_catalan
from qcatalan.qdsl import (
    Bin,
    Call,
    EvalContext,
    EvalError,
    Expr,
    Neg,
    Num,
    Pow,
    Sum,
    Var,
    _cases,
    _compile,
    render,
    run_corpus_entry,
    shipped_corpus,
)
from qcatalan.ring import Poly

_RATIONAL = (int, Fraction)


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
    """The tree walker: the value of e under ctx, by one recursive walk.

    A subexpression without q evaluates to an int, or to a Fraction only
    for a non-integral quotient or a negative power, in exactly that
    arithmetic.  A subexpression with q, qbin or qcat evaluates to a Poly in
    poly mode and to a CycloElem in cyclo mode.  A rational meets a ring
    value only in the ring's own + - * (which lift it), as the numerator of
    an exact Poly division (ctx.lift), and at the exits (_lift).
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
        if isinstance(b, CycloElem):
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
                if isinstance(base, CycloElem):
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
            p = gaussian_binomial.__wrapped__(
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
    """q^ex as one monomial: q^ex in poly mode, zeta_m^(j*ex) in cyclo mode."""
    if ctx.mode == "cyclo":
        return CycloElem.root_power(ctx.field[0], ctx.field[1] * ex)
    if ex < 0:
        raise EvalError("negative power of a non-constant polynomial", e)
    return Poly.monomial(1, ex)


def _poly_at_root(ctx: EvalContext, p: Poly) -> CycloElem:
    """Evaluate an integer polynomial at q = zeta_m^j by folding q^i onto
    x^(ij) and reducing the folded vector mod Phi_m."""
    m, j = ctx.field
    folded = [0] * m
    for i, c in enumerate(p.coeffs):
        folded[(i * j) % m] += c
    return CycloElem(m, reduce_mod_phi_power(Poly(folded), m).coeffs)


def _lift(ctx: EvalContext, value):
    """An _evaluate value in the mode's ring: a Poly, or a CycloElem."""
    if ctx.mode == "cyclo" and type(value) in _RATIONAL:
        return CycloElem.from_rational(ctx.field[0], value)
    return ctx.lift(value)


def _compiled(ctx: EvalContext, compiled):
    """A compiled value in the mode's ring: a Poly, or a CycloElem."""
    value = ctx.evaluate(compiled)
    return value.value() if ctx.mode == "cyclo" else value


def _verdict(entry, diff, binding):
    """A case's verdict as run_corpus_entry reads it: None for a pass."""
    if entry.mod_index is not None:
        ctx = EvalContext("poly", dict(binding))
        n = _int(_scalar(entry.mod_index, ctx), entry.mod_index)
        return _residue_witness(diff, n, entry.mod_power)
    return None if diff.is_zero() else diff.render()


def _field(entry, binding):
    return (binding["m"], binding["j"]) if entry.mode == "cyclo" else None


def test_compiled_evaluator_matches_the_tree_walker_on_the_corpus():
    # every case of every shipped line, each in its own mode: the same
    # verdict, and the same values of both sides where no binding but j
    # exceeds 30
    valued = 0
    for entry in shipped_corpus():
        lhs, rhs = _compile(entry.lhs, entry.mode), _compile(entry.rhs, entry.mode)
        diff = _compile(Bin("-", entry.lhs, entry.rhs), entry.mode)
        for binding in _cases(entry):
            ctx = EvalContext(entry.mode, dict(binding), _field(entry, binding))
            a, b = _evaluate(entry.lhs, ctx), _evaluate(entry.rhs, ctx)
            want = _verdict(entry, _lift(ctx, a - b), binding)
            got = _verdict(entry, _compiled(ctx, diff), binding)
            assert got == want, (entry.raw, binding)
            if all(v <= 30 for name, v in binding.items() if name != "j"):
                valued += 1
                for compiled, value in ((lhs, a), (rhs, b)):
                    got = _compiled(ctx, compiled)
                    assert got == _lift(ctx, value), (entry.raw, binding)
    assert valued > 1500, valued


def test_conjugate_matches_the_sum_at_each_root_on_the_corpus():
    # every case of every shipped j=all line: the term list of lhs - rhs
    # summed at zeta_m and mapped by x -> x^j is its sum at zeta_m^j, entry
    # for entry and in the denominator
    sweeps = [e for e in shipped_corpus() if ("j", "all", None) in e.bindings]
    assert len(sweeps) == 18
    for entry in sweeps:
        diff = _compile(Bin("-", entry.lhs, entry.rhs), "cyclo")
        for binding in _cases(entry):
            m, j = binding["m"], binding["j"]
            terms = diff({**binding, "q": m})
            if type(terms) is not list:  # a rational, such as an empty sum
                terms = [(terms, 0, 0, 0)]
            conjugate, want = _field_sum(m, terms).conjugate(j), _field_sum(m, terms, j)
            assert conjugate.vec == want.vec, (entry.raw, binding)
            assert conjugate.den == want.den, (entry.raw, binding)


def test_cyclo_lines_reject_a_rational_offset():
    # 10^-13 on the right side of each cyclo line fails its first case
    lines = [entry for entry in shipped_corpus() if entry.mode == "cyclo"]
    assert len(lines) == 22
    for entry in lines:
        rhs = Bin("+", entry.rhs, Num(Fraction(1, 10**13)))
        report = run_corpus_entry(dataclasses.replace(entry, rhs=rhs))
        assert report.status == "fail", entry.raw
        binding = next(_cases(entry))
        ctx = EvalContext("cyclo", dict(binding), _field(entry, binding))
        diff = _lift(ctx, _evaluate(entry.lhs, ctx) - _evaluate(rhs, ctx))
        assert report.witness == f"{binding}: {_verdict(entry, diff, binding)}"


def test_phi_square_lines_reject_a_multiple_of_phi_n_alone():
    # q^n - 1 is divisible by Phi_n but not by Phi_n^2: added to the right
    # side of a mod Phi(n)^2 line it fails there and passes mod Phi(n)
    lines = [entry for entry in shipped_corpus() if entry.mod_power == 2]
    assert len(lines) == 5
    for entry in lines:
        term = Bin("-", Pow(Var("q"), entry.mod_index), Num(Fraction(1)))
        perturbed = dataclasses.replace(entry, rhs=Bin("+", entry.rhs, term))
        report = run_corpus_entry(perturbed)
        assert report.status == "fail", entry.raw
        binding = next(_cases(entry))
        ctx = EvalContext("poly", dict(binding))
        diff = _lift(ctx, _evaluate(entry.lhs, ctx) - _evaluate(perturbed.rhs, ctx))
        assert report.witness == f"{binding}: residue {_verdict(entry, diff, binding)}"
        assert run_corpus_entry(dataclasses.replace(perturbed, mod_power=1)).passed


def _outcome(evaluate):
    """A value, or the text of the EvalError that evaluation raised."""
    try:
        return evaluate()
    except EvalError as exc:
        return str(exc)


def _random_tree(rng, depth):
    """Numbers, n, q^e (e may be negative), qbin / qcat, + - * / ^, unary
    minus and sums, with divisors that are often two monomials a q^p + b q^r."""
    power = Pow(Var("q"), Num(Fraction(rng.randint(0, 4))))
    if rng.random() < 0.3:
        power = Pow(Var("q"), Neg(Var("n")))
    leaves = [
        Num(Fraction(rng.randint(0, 4))),
        Var("n"),
        Var("q"),
        power,
        Call("qbin", (Var("n"), Num(Fraction(rng.randint(0, 3))))),
        Call("qcat", (Num(Fraction(rng.randint(0, 3))),)),
    ]
    if not depth or rng.random() < 0.25:
        return rng.choice(leaves)
    pick = rng.randrange(6)

    def sub():
        return _random_tree(rng, depth - 1)

    def small():
        return Num(Fraction(rng.randint(0, 3)))

    if pick == 0:
        return Neg(sub())
    if pick == 1:
        return Pow(sub(), small() if rng.random() < 0.5 else Neg(Num(Fraction(1))))
    if pick == 2:
        return Sum("k", small(), Var("n"), sub())
    if pick == 3:
        a, b = (Bin("*", small(), rng.choice(leaves[2:4])) for _ in "ab")
        return Bin("/", sub(), Bin(rng.choice("+-"), a, b))
    return Bin(rng.choice("+-*/"), sub(), sub())


def test_compiled_evaluator_matches_the_tree_walker_on_random_trees():
    # the same value or the same EvalError text, in both modes; a compiled
    # cyclo value is a rational or a term list until it is lifted
    rng = random.Random(2718)
    for _ in range(1500):
        e, n = _random_tree(rng, 3), rng.randint(0, 3)
        m = rng.randint(1, 12)
        j = rng.choice([j for j in range(1, m + 1) if gcd(j, m) == 1])
        for mode, field in (("poly", None), ("cyclo", (m, j))):
            ctx = EvalContext(mode, {"n": n}, field)
            compiled, unlifted = _compile(e, mode), []

            def kept(env):
                unlifted.append(compiled(env))
                return unlifted[-1]

            want = _outcome(lambda: _lift(ctx, _evaluate(e, ctx)))
            got = _outcome(lambda: _compiled(ctx, kept))
            if mode == "cyclo":
                assert all(type(v) in (int, Fraction, list) for v in unlifted)
            assert got == want, (render(e), mode, n, field)


def test_shipped_cyclo_lines_stay_term_lists(monkeypatch):
    # every divisor in the cyclo lines collects to one or two monomials, and
    # qbin / qcat are monomials at a root, so no line takes a fallback that
    # multiplies, inverts or raises to a power in Q(zeta_m)
    calls = []
    for owner, name in ((CycloElem, "inv"), (CycloElem, "__mul__"),
                        (CycloElem, "__pow__"), (GroupAlgebraElem, "__mul__")):
        original = getattr(owner, name)

        def counting(*args, _original=original, _name=f"{owner.__name__}.{name}"):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
    for entry in shipped_corpus():
        if entry.mode == "cyclo":
            assert run_corpus_entry(entry).passed, entry.raw
            assert not calls, entry.raw
