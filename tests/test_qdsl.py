"""Expression language: parser, evaluators, corpus."""

import dataclasses
import random
from fractions import Fraction
from math import gcd

import pytest

from qcatalan import qdsl
from qcatalan.cyclotomic import CycloElem, GroupAlgebraElem, reduce_mod_phi_power
from qcatalan.qdsl import (
    Bin,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Pow,
    Sum,
    Var,
    _compile,
    eval_cyclo,
    eval_poly,
    load_corpus,
    parse,
    parse_corpus_line,
    render,
    run_corpus_entry,
    shipped_corpus,
)
from qcatalan.ring import Poly, Q


def test_parse_structure():
    e = parse("qbin(4,2)")
    assert e == Call("qbin", (Num(Fraction(4)), Num(Fraction(2))))
    e = parse("sum(k=0..n-1, q^k * qcat(k))")
    assert isinstance(e, Sum)
    assert e.var == "k"
    assert e.lower == Num(Fraction(0))
    assert e.upper == Bin("-", Var("n"), Num(Fraction(1)))
    assert isinstance(e.body, Bin) and e.body.op == "*"
    assert isinstance(e.body.left, Pow)


def test_parse_precedence():
    assert parse("1+2*3") == Bin("+", Num(Fraction(1)), Bin("*", Num(Fraction(2)), Num(Fraction(3))))
    assert parse("-q^2") == parse("-(q^2)")
    assert parse("a-b+c") == Bin("+", Bin("-", Var("a"), Var("b")), Var("c"))
    assert parse("2^3^2") == Pow(Num(Fraction(2)), Pow(Num(Fraction(3)), Num(Fraction(2))))


def test_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse("q^^2")
    assert exc.value.pos == 2
    assert exc.value.expected
    with pytest.raises(ParseError):
        parse("sum(k=")
    with pytest.raises(ParseError):
        parse("qbin(4,2")
    with pytest.raises(ParseError):
        parse("1 + ")
    with pytest.raises(ParseError):
        parse("foo(3)")  # unknown call name
    # a character that starts no token is reported at its own column
    for text, pos in (("q + $", 4), ("1 . 2", 2), ("sum(k=1.2, k)", 7)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.pos == pos and exc.value.expected == ["a token"], text


def test_eval_poly_examples():
    assert eval_poly(parse("qcat(3)")) == Poly([1, 0, 1, 1, 1, 0, 1])
    assert eval_poly(parse("sum(k=0..n-1, q^k*qcat(k))"), {"n": 3}) == Poly(
        [1, 1, 1, 0, 1]
    )
    assert eval_poly(parse("qbin(4,2)")) == Poly([1, 1, 2, 1, 1])
    assert eval_poly(parse("legendre3(5)")) == Poly([-1])
    assert eval_poly(parse("floor((n+1)/2)"), {"n": 4}) == Poly([2])


def test_eval_poly_errors():
    with pytest.raises(EvalError):
        eval_poly(parse("q^(1/3)"))  # fractional exponent
    with pytest.raises(EvalError):
        eval_poly(parse("q^(-1)"))  # negative exponent in poly mode
    with pytest.raises(EvalError):
        eval_poly(parse("1/(1-q)"))  # inexact division
    with pytest.raises(EvalError):
        eval_poly(parse("x + 1"))  # unbound variable
    with pytest.raises(EvalError):
        eval_poly(parse("qcat(q)"))  # q in an integer position


def test_poly_division_exact_cases():
    assert eval_poly(parse("(1-q^2)/(1-q)")) == Poly([1, 1])
    assert eval_poly(parse("(2+2*q)/2")) == Poly([1, 1])
    assert eval_poly(parse("q^2/q")) == Poly([0, 1])


def test_zero_short_circuit():
    # 0 * (undefined exponent) = 0 by evaluation order
    assert eval_poly(parse("legendre3(3) * q^((3^2-1)/3)")).is_zero()
    assert eval_cyclo(parse("0 * (1/(1-q^0))"), 5, 1).is_zero()
    # but the right factor alone still errors
    with pytest.raises(EvalError):
        eval_poly(parse("q^((3^2-1)/3)"))


def test_eval_cyclo_examples():
    v = eval_cyclo(parse("1/(1-q)"), 3, 1)
    assert v == CycloElem(3, [2, 1], 3)
    # multiply back
    assert v * (CycloElem.one(3) - CycloElem.root_power(3, 1)) == 1
    assert eval_cyclo(parse("q^3"), 3, 1) == 1
    lhs = eval_cyclo(
        parse("sum(k=1..n, (-1)^k * q^(k*(3*k-1)/2) / (1-q^(3*k-1)))"),
        3,
        1,
        {"n": 1},
    )
    assert lhs == CycloElem(3, [-1, -2], 3)


def test_eval_cyclo_errors():
    with pytest.raises(EvalError) as exc:
        eval_cyclo(parse("1/(1-q^3)"), 3, 1)
    assert "1 - q^3" in str(exc.value)
    with pytest.raises(ValueError):
        eval_cyclo(parse("q"), 6, 2)  # j not coprime
    for m in (0, -3):
        with pytest.raises(ValueError) as exc:
            eval_cyclo(parse("2"), m, 1)
        assert str(exc.value) == "field order must be a positive integer"


def test_cyclo_edge_cases_pinned():
    # a left factor that is zero only mod Phi_3 still short-circuits '*'
    assert eval_cyclo(parse("(1 + q + q^2) * (1/(1 - q^0))"), 3, 1).is_zero()
    with pytest.raises(EvalError) as exc:
        eval_poly(parse("(1 + q + q^2) * (1/(1 - q^0))"))
    assert str(exc.value) == "division by zero (in: 1 / (1 - q^0))"
    # a zero numerator does not short-circuit a division
    with pytest.raises(EvalError) as exc:
        eval_cyclo(parse("0/(1 - q^0)"), 3, 1)
    assert str(exc.value) == "division by a zero field element (in: 0 / (1 - q^0))"
    # a divisor that is zero only mod Phi_3 is caught by the inverse
    with pytest.raises(EvalError) as exc:
        eval_cyclo(parse("1/(1 + q + q^2)"), 3, 1)
    assert str(exc.value) == "division by a zero field element (in: 1 / (1 + q + q^2))"
    with pytest.raises(EvalError) as exc:
        eval_poly(parse("1/(1 + q + q^2)"))
    assert str(exc.value) == (
        "inexact polynomial division (remainder 1) (in: 1 / (1 + q + q^2))"
    )
    # the fallbacks that compute in Q(zeta_m): a divisor of three terms, a
    # negative power of a list, products of quotient lists, and a power of
    # a three-term divisor, at (m, j) = (7, 1) and (12, 5)
    for text, at_7, at_12 in (
        (
            "1/(1+q+q^3)",
            "-1/2*x - 1/2*x^2 - 1/2*x^3 - 1/2*x^5",
            "4/13 - 2/13*x - 3/13*x^2 - 5/13*x^3",
        ),
        (
            "(1-q)^(-2)",
            "3/7 + 5/7*x + 6/7*x^2 + 6/7*x^3 + 5/7*x^4 + 3/7*x^5",
            "-1 + 2*x - x^2",
        ),
        (
            "q/(1-q)*1/(1-q^2)",
            "3/7*x + 2/7*x^2 + 4/7*x^3 + 2/7*x^4 + 3/7*x^5",
            "-1 + x",
        ),
        (
            "(1/(1-q))*(1/(1+q^2))",
            "3/7 + 6/7*x + 2/7*x^2 - 2/7*x^3 + 1/7*x^4 + 4/7*x^5",
            "2/3 - 1/3*x - 1/3*x^2 + 2/3*x^3",
        ),
        (
            "1/(1+q^2+q^5)^2",
            "1 - x^2 - x^3 - x^4 - x^5",
            "-29/169 + 44/169*x + 38/169*x^2 - 46/169*x^3",
        ),
    ):
        e = parse(text)
        assert eval_cyclo(e, 7, 1).render() == f"{at_7} (mod Phi_7)", text
        assert eval_cyclo(e, 12, 5).render() == f"{at_12} (mod Phi_12)", text


def test_integer_positions_stay_exact():
    for evaluate in (eval_poly, lambda e: eval_cyclo(e, 3, 1)):
        with pytest.raises(EvalError) as exc:
            evaluate(parse("q^(2^(-1))"))
        assert str(exc.value) == "expected an integer, got 1/2 (in: q^2^-1)"
    assert eval_poly(parse("q^(4^(-1)*8)")) == Poly([0, 0, 1])
    assert eval_cyclo(parse("q^(4^(-1)*8)"), 3, 1) == CycloElem(3, [-1, -1])
    # int arithmetic, with a Fraction only for a non-integral quotient or a
    # negative power; never a float, and the same in both modes
    for text, value in (
        ("2^3 + n/7 - floor(n/2)", 6),
        ("2^(-2)", Fraction(1, 4)),
        ("(-2)^(0-3)", Fraction(-1, 8)),
        ("n/2", Fraction(7, 2)),
        ("sum(k=1..n, k)", 28),
        ("(1/2 - 1/2) * (1/0)", 0),
    ):
        for mode in ("poly", "cyclo"):
            result = _compile(parse(text), mode)({"n": 7})
            assert result == value and type(result) is type(value), (text, mode)


def test_eval_error_texts_pinned():
    in_integer_position = "q is not allowed in an integer position"
    for text, message, modes in (
        ("qcat(q)", f"{in_integer_position} (in: q)", "pc"),
        ("q^qbin(2, 1)", f"{in_integer_position} (in: qbin(2, 1))", "pc"),
        ("1/0", "division by zero (in: 1 / 0)", "pc"),
        ("floor(q)", f"{in_integer_position} (in: q)", "pc"),
        ("q^(-1)", "negative power of a non-constant polynomial (in: q^-1)", "p"),
        ("q^(q*0)", f"{in_integer_position} (in: q * 0)", "pc"),
    ):
        for mode in modes:
            with pytest.raises(EvalError) as exc:
                if mode == "p":
                    eval_poly(parse(text))
                else:
                    eval_cyclo(parse(text), 5, 2)
            assert str(exc.value) == message, (text, mode)


def test_q_cannot_be_bound():
    with pytest.raises(ValueError, match="q is the indeterminate"):
        eval_poly(parse("q + 1"), {"q": 3})
    with pytest.raises(ValueError, match="line 7: q is the indeterminate"):
        parse_corpus_line(7, "q == 3 @ poly(q=3)")
    with pytest.raises(ParseError) as exc:
        parse("sum(q=1..3, q)")
    assert exc.value.pos == 4


def test_corpus_range_step():
    # 1..5..2 sweeps exactly 1, 3, 5
    entry = parse_corpus_line(3, "(k - 1)*(k - 3)*(k - 5) == 0 @ poly(k=1..5..2)")
    report = run_corpus_entry(entry)
    assert report.passed and report.params["cases"] == 3
    report = run_corpus_entry(parse_corpus_line(3, "k == 1 @ poly(k=1..5..2)"))
    assert report.witness == "{'k': 3}: 2"
    for step in ("-1", "0"):
        entry = parse_corpus_line(9, f"k == k @ poly(k=5..1..{step})")
        message = f"line 9: range step must be at least 1, got {step}"
        with pytest.raises(ValueError, match=message):
            run_corpus_entry(entry)


def test_corpus_line_without_cases_is_an_error():
    # a sweep that selects no case runs no check, so it must not pass
    for line in ("q == 0 @ poly(n=5..1)", "q == 0 @ cyclo(m=0, j=all)"):
        with pytest.raises(ValueError) as exc:
            run_corpus_entry(parse_corpus_line(4, line))
        assert str(exc.value) == "line 4: the bindings select no case", line


def test_negative_exponents_in_cyclo():
    assert eval_cyclo(parse("q^(-1)"), 5, 2) == CycloElem.root_power(5, -2)
    assert eval_cyclo(parse("q^(-7)"), 5, 1) == CycloElem.root_power(5, 3)


def test_lexical_shadowing():
    # inner sum variable shadows the outer binding of the same name
    e = parse("sum(k=1..3, k) + k")
    assert eval_poly(e, {"k": 10}) == Poly([16])
    # nested sums
    e2 = parse("sum(i=1..2, sum(i=1..i, 1))")
    assert eval_poly(e2) == Poly([3])


def test_empty_sum_is_zero():
    assert eval_poly(parse("sum(k=1..0, q^k)")).is_zero()
    assert eval_poly(parse("sum(k=5..2, 1/(1-q^0))")).is_zero()  # body never runs
    assert eval_cyclo(parse("sum(k=1..n-1, q^k)"), 7, 1, {"n": 1}).is_zero()


def _corpus_line(entry):
    """A corpus line rebuilt from an entry's fields."""

    def spec(name, kind, payload):
        if kind == "all":
            return f"{name}=all"
        if kind == "expr":
            return f"{name}={render(payload)}"
        return f"{name}=" + "..".join(render(e) for e in payload if e is not None)

    bindings = ", ".join(spec(*b) for b in entry.bindings)
    line = f"{render(entry.lhs)} == {render(entry.rhs)} @ {entry.mode}({bindings})"
    if entry.mod_index is not None:
        line += f" mod Phi({render(entry.mod_index)})^{entry.mod_power}"
    return line


def test_render_round_trip_corpus():
    entries = shipped_corpus()
    assert len(entries) >= 20
    for entry in entries:
        assert parse(render(entry.lhs)) == entry.lhs, entry.raw
        assert parse(render(entry.rhs)) == entry.rhs, entry.raw
        line = _corpus_line(entry)
        rebuilt = parse_corpus_line(entry.line_no, line)
        assert rebuilt == dataclasses.replace(entry, raw=line), entry.raw


def test_render_round_trip_random():
    rng = random.Random(606)
    names = ["n", "k", "N"]

    def gen(depth):
        pick = rng.randrange(8 if depth else 5)
        if pick == 0:
            return Num(Fraction(rng.randrange(0, 9)))
        if pick == 1:
            return Var(rng.choice(names))
        if pick == 2:
            return Var("q")
        if pick == 3:
            return Call("qbin", (gen(depth - 1), gen(depth - 1))) if depth else Num(Fraction(1))
        if pick == 4:
            return Sum("t", gen(depth - 1), gen(depth - 1), gen(depth - 1)) if depth else Var("q")
        if pick == 5:
            return Neg(gen(depth - 1))
        if pick == 6:
            return Bin(rng.choice("+-*/"), gen(depth - 1), gen(depth - 1))
        return Pow(gen(depth - 1), gen(depth - 1))

    for _ in range(300):
        e = gen(3)
        assert parse(render(e)) == e, render(e)


def test_mode_consistency():
    # division-free expressions with nonnegative exponents: eval_cyclo equals
    # eval_poly followed by reduction into Q(zeta_m)
    rng = random.Random(11)
    texts = [
        "sum(k=0..n-1, q^k*qcat(k))",
        "qbin(2*n, n) + q^n",
        "(1+q)^3 - q^(n+1)",
        "sum(k=1..n, q^(k*k))",
    ]
    for text in texts:
        e = parse(text)
        for _ in range(6):
            n = rng.randint(1, 6)
            m = rng.randint(1, 12)
            js = [j for j in range(1, m + 1) if gcd(j, m) == 1]
            j = rng.choice(js)
            direct = eval_cyclo(e, m, j, {"n": n})
            assert direct == _at_root(eval_poly(e, {"n": n}), m, j), (text, n, m, j)
    # seeded random division-free trees over both kinds of value
    for _ in range(200):
        e = _random_division_free(rng, 3, ["n"])
        n = rng.randint(1, 4)
        m = rng.randint(1, 12)
        j = rng.choice([j for j in range(1, m + 1) if gcd(j, m) == 1])
        via_poly = eval_poly(e, {"n": n})
        direct = eval_cyclo(e, m, j, {"n": n})
        assert direct == _at_root(via_poly, m, j), (render(e), n, m, j)
        if "q" not in render(e):  # no q and no qbin / qcat: a rational value
            assert via_poly == Poly.constant(_compile(e, "poly")({"n": n})), render(e)


def _at_root(p, m, j):
    """p with q replaced by zeta_m^j, in Q(zeta_m)."""
    value = CycloElem.zero(m)
    for i, c in enumerate(p.coeffs):
        value = value + CycloElem.root_power(m, i * j) * c
    return value


def _random_division_free(rng, depth, names):
    """A tree of numbers, bound names, q, q^k (k >= 0), + - *, unary minus,
    sum, and qbin / qcat on small nonnegative arguments."""
    small = [Num(Fraction(rng.randrange(4))), *map(Var, names)]
    if not depth or rng.random() < 0.3:
        return rng.choice(
            [
                Num(Fraction(rng.randint(-3, 5))),
                Var(rng.choice(names)),
                Var("q"),
                Pow(Var("q"), rng.choice(small)),
                Call("qbin", (rng.choice(small), rng.choice(small))),
                Call("qcat", (rng.choice(small),)),
            ]
        )
    pick = rng.randrange(4)
    if pick == 0:
        return Neg(_random_division_free(rng, depth - 1, names))
    if pick == 1:
        body = _random_division_free(rng, depth - 1, [*names, "k"])
        lo, hi = Num(Fraction(rng.randrange(3))), Num(Fraction(rng.randrange(4)))
        return Sum("k", lo, hi, body)
    return Bin(
        rng.choice("+-*"),
        _random_division_free(rng, depth - 1, names),
        _random_division_free(rng, depth - 1, names),
    )


def test_corpus_line_parsing():
    entry = parse_corpus_line(1, "qcat(2) == 1 + q^2 @ poly()")
    assert entry.mode == "poly" and entry.mod_index is None
    entry = parse_corpus_line(
        2, "sum(k=0..n-1, q^k*qcat(k)) == q^floor(n/3) @ poly(n=3..15..3) mod Phi(n)"
    )
    assert entry.mod_index == Var("n") and entry.mod_power == 1
    entry = parse_corpus_line(3, "q == q @ cyclo(m=6, j=all)")
    assert entry.bindings[1][1] == "all"
    with pytest.raises(ValueError):
        parse_corpus_line(4, "q == q @ cyclo(j=1)")  # missing m
    with pytest.raises(ValueError):
        parse_corpus_line(5, "q == q")  # no mode
    with pytest.raises(ValueError):
        parse_corpus_line(6, "q == q @ cyclo(m=6, j=1) mod Phi(n)")  # mod in cyclo


@pytest.mark.parametrize(
    "line, error",
    [
        ("q + 1 @ poly()", "column 7: expected ==, found '@ poly()'"),
        ("q == q", "column 7: expected @, found 'end of input'"),
        ("q == q @ ring()", "column 10: expected poly or cyclo, found 'ring()'"),
        ("q == q @ poly(n=1..3", "column 21: expected , or ), found 'end of input'"),
        ("k == k @ poly(n=1..3..1..2)", "column 24: expected , or ), found '..2)'"),
        (
            "q == q @ poly(n=2..4) mod Phi(n)^2 + 1",
            "column 36: expected end of line, found '+ 1'",
        ),
        (
            "q == q @ cyclo(m=6, j=1) mod Phi(n)",
            "column 26: expected end of line (mod needs poly mode), found 'mod Phi(n)'",
        ),
    ],
    ids=["no-eq", "no-at", "mode", "unbalanced", "range", "after-mod", "cyclo-mod"],
)
def test_corpus_line_syntax_errors_name_line_and_column(line, error):
    with pytest.raises(ValueError) as exc:
        parse_corpus_line(5, line)
    assert str(exc.value) == f"line 5: syntax error at {error}"


def test_corpus_name_bound_twice():
    for line, name in [
        ("k == 1 @ poly(k=1..3, k=1)", "k"),
        ("q == q @ poly(n=1..3, m=n, n=2)", "n"),
    ]:
        with pytest.raises(ValueError, match=f"^line 4: {name} is bound twice$"):
            parse_corpus_line(4, line)


def test_corpus_all_binding_errors_name_the_line():
    # both are binding errors, found by the parser, not by the sweep
    for line, message in [
        ("q == q @ cyclo(m=6, k=all, j=1)", "'all' sweeps are only supported for j"),
        ("q == q @ cyclo(j=all, m=6)", "j=all needs m bound earlier in the parameter list"),
    ]:
        with pytest.raises(ValueError) as exc:
            load_corpus(line)
        assert str(exc.value) == f"line 1: {message}"


def test_corpus_failure_witness():
    entry = parse_corpus_line(1, "qcat(2) == 1 + q @ poly()")
    rep = run_corpus_entry(entry)
    assert rep.status == "fail" and rep.witness


def test_modulus_index_and_exponent_are_checked():
    # the zero test rejects Phi_0 and the exponent 0 as the reduction does
    for mod, message in (
        ("Phi(n-n)", "modulus index must be a positive integer"),
        ("Phi(n)^0", "exponent must be a positive integer"),
    ):
        entry = parse_corpus_line(1, f"q^n - 1 == 0 @ poly(n=2..4) mod {mod}")
        with pytest.raises(ValueError, match=message):
            run_corpus_entry(entry)


def test_modulus_exponent_three_is_a_cube():
    # q (q^n - 1)^2 is a multiple of Phi_n^2, not of Phi_n^3
    cube = parse_corpus_line(1, "(q^n - 1)^3 == 0 @ poly(n=1..6) mod Phi(n)^3")
    assert run_corpus_entry(cube).passed
    square = parse_corpus_line(2, "q*(q^n - 1)^2 == 0 @ poly(n=1..6) mod Phi(n)^3")
    rem = reduce_mod_phi_power(Q * (Q - 1) ** 2, 1, 3)
    assert run_corpus_entry(square).witness == f"{{'n': 1}}: residue {rem.render()}"


def test_cyclo_failure_witness_is_the_reduced_difference():
    rep = run_corpus_entry(parse_corpus_line(1, "1/(1 - q) == 1 @ cyclo(m=6, j=all)"))
    diff = (CycloElem.one(6) - CycloElem.root_power(6, 1)).inv() - 1
    assert rep.witness == f"{{'m': 6, 'j': 1}}: {diff.render()}"


def test_corpus_j_must_be_coprime_to_m():
    for line, message in (
        ("q == q @ cyclo(m=6, j=2)", "j = 2 is not coprime to m = 6"),
        ("q == q @ cyclo(n=4, m=2*n, j=n/2)", "j = 2 is not coprime to m = 8"),
    ):
        with pytest.raises(ValueError) as exc:
            run_corpus_entry(parse_corpus_line(1, line))
        assert str(exc.value) == message


def test_corpus_sweeps_go_through_conjugate(monkeypatch):
    # an index map that is not an automorphism of Q[x]/(x^m - 1) in place of
    # x -> x^j breaks some shipped j=all line, and a j that is not coprime
    # to m errors as before, also once the sum for its other bindings exists
    def not_an_automorphism(self, j):
        out = [0] * self.m
        for i, c in enumerate(self.vec):
            out[i * j % (self.m - 1 or 1)] += c
        return GroupAlgebraElem(self.m, out, self.den)

    def not_injective(self, j):
        out = [0] * self.m
        for i, c in enumerate(self.vec):
            out[i * j % self.m // 2] += c
        return GroupAlgebraElem(self.m, out, self.den)

    sweeps = [e for e in shipped_corpus() if ("j", "all", None) in e.bindings]
    assert len(sweeps) == 18
    for bad in (not_an_automorphism, not_injective):
        monkeypatch.setattr(GroupAlgebraElem, "conjugate", bad)
        failed = 0
        for entry in sweeps:
            try:
                failed += run_corpus_entry(entry).status == "fail"
            except (ArithmeticError, ValueError):
                failed += 1
        assert failed >= len(sweeps) // 2, (bad.__name__, failed)
        for line in ("q == q @ cyclo(m=6, j=2)", "q == q @ cyclo(m=6, j=1..2)"):
            with pytest.raises(ValueError) as exc:
                run_corpus_entry(parse_corpus_line(1, line))
            assert str(exc.value) == "j = 2 is not coprime to m = 6"


def test_corpus_line_that_reads_j_is_summed_per_case():
    # the sum at zeta_m is shared by the conjugates only if the line's
    # expressions do not read j
    rep = run_corpus_entry(parse_corpus_line(1, "j == 1 @ cyclo(m=5, j=all)"))
    assert rep.witness == "{'m': 5, 'j': 2}: 1 (mod Phi_5)"
    rep = run_corpus_entry(parse_corpus_line(1, "q^j*j == j*q^j @ cyclo(m=5, j=all)"))
    assert rep.passed and rep.params["cases"] == 4


def _node_count(part) -> int:
    if part is None or isinstance(part, (str, Fraction)):
        return 0
    if isinstance(part, tuple):
        return sum(_node_count(p) for p in part)
    return 1 + sum(_node_count(getattr(part, f.name)) for f in dataclasses.fields(part))


def test_compile_names_each_node_once(monkeypatch):
    # line 68 is the largest shipped identity: 100 nodes in lhs - rhs, and
    # a range, an m=expr and a j=all binding
    entry = next(e for e in shipped_corpus() if e.line_no == 68)
    nodes = _node_count(Bin("-", entry.lhs, entry.rhs))
    nodes += _node_count(tuple(payload for _, _, payload in entry.bindings))
    nodes += _node_count(entry.mod_index)
    calls = []
    real = qdsl._names

    def counting(e):
        calls.append(e)
        return real(e)

    monkeypatch.setattr(qdsl, "_names", counting)
    assert run_corpus_entry(entry).passed
    assert 100 <= len(calls) <= nodes


def test_failure_witnesses_pinned():
    # the witness texts of a failing cyclo line and a failing Phi_n^2 line
    for line, witness in (
        (
            "sum(k=1..n, 1/(1 - q^(3*k-1))) == (n/3)*(1 + q^n)"
            " @ cyclo(n=1..10, m=3*n, j=all)",
            "{'n': 1, 'm': 3, 'j': 1}: -2/3*x (mod Phi_3)",
        ),
        (
            "sum(k=0..n-1, q^k*qcat(k)) == q^(n*(2*n+1)/3)"
            " + (1/3)*(q^n - 1)*(2 + (n+1)*q^(2*n/3)) + (1/2)*(q^n - 1)*q"
            " @ poly(n=3..15..3) mod Phi(n)^2",
            "{'n': 3}: residue 1/2 + 3/2*q + 3/2*q^2 + q^3",
        ),
    ):
        assert run_corpus_entry(parse_corpus_line(1, line)).witness == witness


def test_shipped_corpus_all_pass():
    for entry in shipped_corpus():
        rep = run_corpus_entry(entry)
        assert rep.passed, f"line {entry.line_no}: {rep.witness}\n  {entry.raw}"
        assert rep.params["cases"] >= 1


def test_corpus_agrees_with_dedicated_suites():
    """The corpus is a second, independent implementation path: spot-check
    its sweeps against the dedicated suite functions on shared parameters."""
    from qcatalan.congruence import (
        verify_liu_mod_phi2,
        verify_main_theorem,
        verify_tauraso_mod_phi,
    )
    from qcatalan.rootid import verify_explicit, verify_main3n

    entries = {e.raw: e for e in shipped_corpus()}

    def entry_for(fragment):
        matches = [e for raw, e in entries.items() if fragment in raw]
        assert len(matches) == 1, fragment
        return matches[0]

    # the main theorem line covers n = 3..15 step 3; the suites agree there
    assert run_corpus_entry(entry_for("q^(n*(2*n+1)/3)")).passed
    for n in (3, 6, 9, 12, 15):
        assert verify_main_theorem(n).passed
    assert run_corpus_entry(entry_for("== -1 - q^((2*n-1)/3)")).passed
    for n in (2, 5, 8, 11, 14):
        assert verify_tauraso_mod_phi(n).passed
    assert run_corpus_entry(entry_for("- ((n-1)/3)*(q^n - 1)")).passed
    for n in (4, 7, 10, 13):
        assert verify_liu_mod_phi2(n).passed
    # main3n corpus line n <= 8 all j matches the rootid suite
    assert run_corpus_entry(entry_for("1/3 + ((3*n+1)/6)*q^(2*n)")).passed
    from qcatalan.rootid import galois_orbit

    for n in range(1, 9):
        for j in galois_orbit(3 * n):
            assert verify_main3n(n, j).passed
    assert run_corpus_entry(entry_for("(n/3)*(1 - q^n)")).passed
    for n in range(1, 11):
        for j in galois_orbit(3 * n):
            assert verify_explicit(n, j).passed
