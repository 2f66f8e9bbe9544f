"""Cyclotomic polynomials, reductions, and Q(zeta_m) arithmetic."""

import random
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul, sub

import pytest

from qcatalan.cyclotomic import (
    CycloElem,
    CycloField,
    GroupAlgebraElem,
    _field_sum,
    _field_witness,
    cyclotomic_poly,
    euler_phi,
    factorize,
    fold_mod_cyclic,
    phi_power_divides,
    poly_xgcd,
    reduce_mod_phi_power,
)
from qcatalan.ring import Poly, Q

from test_ring import schoolbook_divmod


def q_power_minus_one(n):
    return Poly([-1] + [0] * (n - 1) + [1])


def test_phi_small():
    assert cyclotomic_poly(1) == Q - 1
    assert cyclotomic_poly(2) == Q + 1
    assert cyclotomic_poly(3) == Poly([1, 1, 1])
    assert cyclotomic_poly(4) == Poly([1, 0, 1])


def divisors(n):
    """The divisors of n, ascending."""
    return [d for d in range(1, n + 1) if n % d == 0]


def test_phi_6_against_independent_division():
    # oracle: divide q^6 - 1 by Phi_1 * Phi_2 * Phi_3 with schoolbook division
    divisor = (Q - 1) * (Q + 1) * Poly([1, 1, 1])
    quotient, rem = schoolbook_divmod(q_power_minus_one(6), divisor)
    assert rem.is_zero()
    assert cyclotomic_poly(6) == quotient == Poly([1, -1, 1])


def _phis_by_division(n_max):
    """Phi_n for n <= n_max by recursive exact division, Phi_n = (q^n - 1)
    / prod of Phi_d over the proper divisors d | n: the algorithm that the
    Moebius product replaced."""
    phis = {}
    for n in range(1, n_max + 1):
        p = q_power_minus_one(n)
        for d in divisors(n)[:-1]:
            p = p.exact_div(phis[d])
        phis[n] = p
    return phis


def test_phi_matches_the_division_oracle_to_300():
    for n, want in _phis_by_division(300).items():
        got = cyclotomic_poly(n)
        assert got == want, n
        assert all(type(c) is int for c in got.coeffs), n


def test_phi_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_phi_product_and_degree_up_to_200():
    for n in range(1, 201):
        prod = Poly([1])
        for d in divisors(n):
            phi_d = cyclotomic_poly(d)
            assert phi_d.degree == euler_phi(d)
            prod = prod * phi_d
        assert prod == q_power_minus_one(n)


def test_reduce_examples():
    assert reduce_mod_phi_power(q_power_minus_one(3), 3, 1).is_zero()
    r = reduce_mod_phi_power(q_power_minus_one(3), 3, 2)
    assert not r.is_zero() and r.degree < 4
    # oracle: direct long division by Phi_3^2
    _, oracle = schoolbook_divmod(q_power_minus_one(3), Poly([1, 1, 1]) ** 2)
    assert r == oracle
    assert reduce_mod_phi_power(Poly([]), 5, 2).is_zero()
    for n in (2, 5, 8):
        assert not reduce_mod_phi_power(q_power_minus_one(n), n, 2).is_zero()


def test_reduce_matches_schoolbook_randomised():
    rng = random.Random(4242)
    for _ in range(150):
        n = rng.randint(1, 12)
        e = rng.randint(1, 3)
        p = Poly([rng.randint(-50, 50) for _ in range(rng.randint(0, 40))])
        _, oracle = schoolbook_divmod(p, cyclotomic_poly(n) ** e)
        assert reduce_mod_phi_power(p, n, e) == oracle


def _fold_by_long_division(p, n, e):
    # the remainder of p modulo (q^n - 1)^e by long division: the loop that
    # the binomial-moment fold replaced, kept as an oracle
    coeffs = list(p.coeffs)
    lower = [(n * j, (-1) ** (e - j) * comb(e, j)) for j in range(e)]
    top = n * e
    for i in range(len(coeffs) - 1, top - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = 0
            for off, fac in lower:
                coeffs[i - top + off] -= c * fac
    return Poly(coeffs)


def _fold_by_binomial_weights(coeffs, n, e):
    # the fold with comb-weighted moments M_j[r] = sum_a C(a, j) c_(a*n + r),
    # expanded by the signs of (q^n - 1)^j: the kernel that running sums and
    # Horner's rule replaced, kept as an oracle
    height = -(-len(coeffs) // n)
    columns = [coeffs[r::n] for r in range(n)]
    moments = [[sum(col) for col in columns]]
    for j in range(1, e):
        weights = [comb(a, j) for a in range(height)]
        moments.append([sum(map(mul, weights, col)) for col in columns])
    folded = []
    for i in range(e):
        signs = [(-1) ** (j - i) * comb(j, i) for j in range(i, e)]
        folded += [sum(map(mul, signs, m)) for m in zip(*moments[i:])]
    return folded


def test_fold_matches_binomial_weight_oracle():
    rng = random.Random(2701)
    kinds = {
        "int": lambda: rng.randint(0, 10**30),
        "negative": lambda: rng.randint(-(10**30), 10**30),
        "fraction": lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 7)),
    }
    for n in (1, 2, 3, 7, 12):
        for e in (1, 2, 3):
            # empty, shorter than n, around n*e, and many periods long
            for length in sorted({0, n - 1, n, n * e - 1, n * e, n * e + 1, 9 * n + 4}):
                for name, draw in kinds.items():
                    coeffs = [draw() for _ in range(length)]
                    want = _fold_by_binomial_weights(coeffs, n, e)
                    assert len(want) == n * e
                    for c in (coeffs, tuple(coeffs)):
                        got = fold_mod_cyclic(c, n, e)
                        assert got == want, (n, e, length, name)


def test_reduce_fold_matches_schoolbook_large():
    """The binomial-moment fold against long division, for n <= 40, e <= 4.

    Directly against schoolbook division by Phi_n^e at lengths 0, n*e - 1,
    n*e and n*e + 1, around where folding starts, and at 3n^2 for n <= 10.
    At length 3n^2 for every n, against schoolbook division of what long
    division by (q^n - 1)^e leaves, which keeps the oracle's cost in
    bounds.  Coefficients alternate between ints and Fractions.
    """
    rng = random.Random(8128)
    kinds = (int, Fraction)

    def dense(length, kind):
        if kind is int:
            return Poly([rng.randint(-50, 50) for _ in range(length)])
        return Poly(
            [Fraction(rng.randint(-50, 50), rng.randint(1, 6)) for _ in range(length)]
        )

    for n in range(1, 41):
        for e in range(1, 5):
            top = n * e
            divisor = cyclotomic_poly(n) ** e
            lengths = [0, top - 1, top, top + 1] + [3 * n * n] * (n <= 10)
            for i, length in enumerate(lengths):
                p = dense(length, kinds[(i + n + e) % 2])
                _, oracle = schoolbook_divmod(p, divisor)
                assert reduce_mod_phi_power(p, n, e) == oracle, (n, e, length)
            p = dense(max(3 * n * n, top + 1), kinds[(n + e + 1) % 2])
            _, oracle = schoolbook_divmod(_fold_by_long_division(p, n, e), divisor)
            assert reduce_mod_phi_power(p, n, e) == oracle, (n, e)


def test_root_power_examples():
    assert CycloElem.root_power(4, 1) == CycloElem(4, [0, 1])
    assert CycloElem.root_power(3, 3) == CycloElem(3, [1])
    assert CycloElem.root_power(3, 2) == CycloElem(3, [-1, -1])


def test_root_power_order():
    for m in (1, 2, 3, 8, 12, 15):
        for t in range(-5, 2 * m):
            assert CycloElem.root_power(m, t) ** m == 1


def test_field_examples():
    one = CycloElem.one(3)
    q = CycloElem.root_power(3, 1)
    assert (one - q) * (one - q * q) == 3
    assert (one - q * q).inv() == CycloElem(3, [1, -1], 3)
    assert (one + q + q * q).is_zero()
    assert not (one + q).is_zero()


def test_field_reductions_go_through_reduce_mod_phi_power(monkeypatch):
    # value(), element(), root powers, products and norm-product inverses
    # all reduce mod Phi_m by the one reduction, reduce_mod_phi_power
    from qcatalan import cyclotomic

    moduli = []

    def counting(p, n, e=1):
        moduli.append((n, e))
        return reduce_mod_phi_power(p, n, e)

    monkeypatch.setattr(cyclotomic, "reduce_mod_phi_power", counting)
    a = CycloElem(7, [3, -1, 4, 1, -5, 9], 2)
    uses = {
        "value": lambda: GroupAlgebraElem(7, [1, 2, 3, 4, 5, 6, 7], 3).value(),
        "element": lambda: CycloField(7).element([1, 2, 3, 4, 5, 6, 7], 3),
        "root_power": lambda: CycloElem.root_power(7, 6),
        "mul": lambda: a * a,
        "inv": lambda: CycloElem.inv.__wrapped__(a),  # past the memo
    }
    for name, use in uses.items():
        moduli.clear()
        use()
        assert moduli and set(moduli) == {(7, 1)}, name


def test_field_inverse_randomised():
    rng = random.Random(2718)
    for _ in range(120):
        m = rng.randint(1, 60)
        deg = euler_phi(m)
        num = [rng.randint(-9, 9) for _ in range(deg)]
        den = rng.randint(1, 12)
        a = CycloElem(m, num, den)
        if a.is_zero():
            continue
        assert a * a.inv() == 1
        assert a / a == 1


def _xgcd_inverse(a):
    # the extended Euclidean algorithm over Q[x], kept as the oracle for the
    # norm-product inverse
    g, u, _ = poly_xgcd(Poly(a.num), cyclotomic_poly(a.m))
    assert g == Poly.one()
    den = lcm(*(Fraction(c).denominator for c in u.coeffs))
    return CycloField(a.m).element([int(c * den) for c in u.coeffs], den) * a.den


def test_inverse_matches_xgcd_oracle():
    rng = random.Random(5772)
    for m in range(1, 61):
        deg = euler_phi(m)
        # dense, with coefficients as large as the degree allows for a quick
        # oracle: about 60 decimal digits in all
        bound = 10 ** max(1, 60 // deg)
        dense = CycloElem(
            m, [rng.randint(-bound, bound) for _ in range(deg)], rng.randint(1, bound)
        )
        # 1 - c*x^k with rational c, as in the logarithmic-derivative sums
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        binomial = CycloElem.one(m) - CycloElem.root_power(m, rng.randrange(m)) * c
        # 1 - x^s, as in the sawtooth expansion
        cases = [dense, binomial] + [
            CycloElem.one(m) - CycloElem.root_power(m, s) for s in (1, rng.randrange(m))
        ]
        for a in cases:
            if a.is_zero():
                continue
            inv = a.inv()
            assert inv == _xgcd_inverse(a), (m, a)
            assert a * inv == 1
    for m in (1, 12):
        with pytest.raises(ZeroDivisionError):
            CycloElem.zero(m).inv()


def test_inverse_memo_is_bounded_and_exact():
    CycloElem.inv.cache_clear()
    assert CycloElem.inv.cache_info().maxsize == 256
    a = CycloElem(7, [3, -1, 4, 1, -5, 9], 2)
    first = a.inv()
    # an equal element built separately is served from the memo
    assert CycloElem(7, [3, -1, 4, 1, -5, 9], 2).inv() == first
    info = CycloElem.inv.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    rng = random.Random(14142)
    distinct = set()
    for m in rng.choices(range(3, 30), k=320):
        num = [rng.randint(-9, 9) for _ in range(euler_phi(m))]
        distinct.add(CycloElem(m, num, rng.randint(1, 9)))
    distinct = [e for e in distinct if not e.is_zero()]
    assert len(distinct) > 256
    for e in distinct:
        e.inv()
    assert CycloElem.inv.cache_info().currsize == 256
    for e in [a] + distinct:
        assert e.inv() == _xgcd_inverse(e), e
    assert a.inv() == first


def test_division_errors():
    a = CycloElem.one(3)
    with pytest.raises(ZeroDivisionError):
        a / CycloElem.zero(3)
    with pytest.raises(ValueError):
        a + CycloElem.one(5)


def test_group_algebra_rejects_mixed_moduli():
    # operands of different m raise as CycloElems do, whether the factor
    # of * is a monomial or dense; a difference has no operator at all
    a = GroupAlgebraElem(3, [1, 2, 0])
    for b in (GroupAlgebraElem(5, [1, 0, 0, 0, 1]), GroupAlgebraElem.monomial(5, 2, 1),
              GroupAlgebraElem(5, [1, 0, 0, 0, 1], 2)):
        for op in (lambda x, y: x + y, lambda x, y: x * y):
            with pytest.raises(ValueError, match="modulus mismatch: 3 vs 5"):
                op(a, b)
            with pytest.raises(ValueError, match="modulus mismatch: 5 vs 3"):
                op(b, a)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(TypeError):
                x - y


def test_field_ops_against_complex_embedding():
    # independent oracle: every field operation must agree with the complex
    # embedding x -> exp(2 pi i / m)
    rng = random.Random(86420)
    for _ in range(200):
        m = rng.randint(1, 40)
        deg = euler_phi(m)
        a = CycloElem(m, [rng.randint(-6, 6) for _ in range(deg)], rng.randint(1, 5))
        b = CycloElem(m, [rng.randint(-6, 6) for _ in range(deg)], rng.randint(1, 5))
        za, zb = a.to_complex(), b.to_complex()
        assert abs((a + b).to_complex() - (za + zb)) < 1e-8
        assert abs((a - b).to_complex() - (za - zb)) < 1e-8
        assert abs((a * b).to_complex() - za * zb) < 1e-6
        if not b.is_zero() and abs(zb) > 1e-9:
            assert abs((a / b).to_complex() - za / zb) < 1e-6


def test_reduction_consistency_with_evaluation():
    # reducing mod Phi_n then evaluating at the residue class x agrees with
    # evaluating the unreduced polynomial at x in Q[x]/Phi_n
    rng = random.Random(5150)
    for _ in range(60):
        n = rng.randint(1, 20)
        p = Poly([rng.randint(-20, 20) for _ in range(rng.randint(0, 30))])
        x = CycloElem.root_power(n, 1)
        direct = CycloElem.zero(n)
        for k, c in enumerate(p.coeffs):
            direct = direct + x**k * c
        field = CycloField(n)
        assert field.element(reduce_mod_phi_power(p, n, 1).coeffs) == direct
        assert field.element(p.coeffs) == direct


def test_xgcd():
    a = Poly([1, 1, 1])
    b = Poly([2, 0, 1, 4])
    g, u, v = poly_xgcd(a, b)
    assert u * a + v * b == g
    g2, u2, _ = poly_xgcd(Poly([1, 1]), Poly([1, 1]) * Poly([3, 2]))
    assert g2 == Poly([1, 1])


def test_negative_power_reduced_mod_m():
    q = CycloElem.root_power(12, 5)
    assert q**-1 == CycloElem.root_power(12, -5) == CycloElem.root_power(12, 7)


def test_memo_idempotent_under_threads():
    import threading

    cyclotomic_poly.cache_clear()
    results = []

    def worker():
        results.append(cyclotomic_poly(105))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_rational_and_render():
    inv = (CycloElem.one(3) - CycloElem.root_power(3, 1)).inv()
    assert inv.render() == "2/3 + 1/3*x (mod Phi_3)"


def test_field_inverse_helpers_cover_all_exponents():
    for m in (7, 12, 45):
        f, one = CycloField(m), CycloElem.one(m)
        for s in range(1, m):
            vec, den = f.inv_one_minus(s)
            assert (one - CycloElem.root_power(m, s)) * f.element(list(vec), den) == 1
            if m % 2 == 0 and s == m // 2:
                with pytest.raises(ZeroDivisionError):
                    f.inv_one_plus(s)
                continue
            vec, den = f.inv_one_plus(s)
            assert (one + CycloElem.root_power(m, s)) * f.element(list(vec), den) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv_one_minus(0)


def _conjugate(a, u):
    """sigma_u(a), the automorphism x -> x^u of Q(zeta_m) for a unit u."""
    vec = [0] * a.m
    for i, c in enumerate(a.num):
        vec[i * u % a.m] += c
    return CycloField(a.m).element(vec, a.den)


def test_binomial_inverse_matches_norm_product():
    # 1/(1 - c x^s) in closed form, a one-term _field_sum, against the norm
    # product CycloElem.inv.  With g = gcd(s, m) and u a unit with
    # g*u = s mod m, 1 - c x^s is the conjugate sigma_u(1 - c x^g), so one
    # norm product per divisor g of m covers every s.
    for m in range(1, 61):
        one = CycloElem.one(m)
        for c in (1, -1, 2, Fraction(-1, 2), Fraction(3, 5)):
            norm_inverse = {}
            for g in divisors(m):
                try:
                    norm_inverse[g] = (one - CycloElem.root_power(m, g) * c).inv()
                except ZeroDivisionError:
                    norm_inverse[g] = None
            for s in range(m):
                g = gcd(s, m)
                units = range(s // g, s // g + m * m, m // g)
                u = next(u for u in units if gcd(u, m) == 1)
                # 1 - c zeta^s = 0 only for zeta^s = 1 / c, i.e. these two cases
                zero = (c == 1 and s == 0) or (c == -1 and 2 * s == m)
                assert (norm_inverse[g] is None) == zero, (m, s, c)
                if zero:
                    with pytest.raises(ZeroDivisionError):
                        _field_sum(m, [(1, 0, s, c)])
                    continue
                acc = _field_sum(m, [(1, 0, s, c)])
                assert len(acc.vec) == m and acc.den > 0
                assert acc.value() == _conjugate(norm_inverse[g], u), (m, s, c)


def _inverse_vector(m, s, t):
    """(vec, den) of 1/(1 - t x^s) in Q[x]/(x^m - 1), in lowest terms, built
    as a stored vector: the sawtooth for t^d = 1 (d the order of x^s) and
    the geometric series sum_{u<d} t^u x^(su) / (1 - t^d) otherwise."""
    s %= m
    d = m // gcd(m, s)
    if t == -1 and d % 2 == 0:  # x^(m/2) = -1: 1 + x^s = 1 - x^(s + m/2)
        return _inverse_vector(m, s + m // 2, 1)
    vec = [0] * m
    if t == 1:
        if d == 1:
            raise ZeroDivisionError(f"1 - x^{s} is zero in Q(zeta_{m})")
        for u in range(1, d):
            vec[s * u % m] = -u  # the sawtooth -(1/d) sum u x^(su)
        return tuple(vec), d
    p, q = Fraction(t).numerator, Fraction(t).denominator
    den = q**d - p**d
    for u in range(d):
        vec[s * u % m] = p**u * q ** (d - u)
    g = gcd(den, *vec)
    if den < 0:
        g = -g
    return tuple(v // g for v in vec), den // g


def test_closed_forms_match_the_old_vector_builder():
    # 1/(1 - t x^s) as _field_sum writes it, entry for entry and in the
    # denominator, against the stored vectors it replaced, for every m <= 40,
    # s in [-m, 2m) and t = 1, -1, 2, -3, -1/2, 3/5
    for m in range(1, 41):
        field = CycloField(m)
        for s in range(-m, 2 * m):
            for t in (1, -1, 2, -3, Fraction(-1, 2), Fraction(3, 5)):
                try:
                    vec, den = _inverse_vector(m, s, t)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        _field_sum(m, [(1, 0, s, t)])
                    continue
                acc = _field_sum(m, [(1, 0, s, t)])
                assert tuple(acc.vec) == vec and acc.den == den, (m, s, t)
                if t == 1 or t == -1:
                    inverse = field.inv_one_minus if t == 1 else field.inv_one_plus
                    assert inverse(s) == (vec, den), (m, s, t)


def _random_algebra_value(rng, f):
    """A monomial, a two-term value or a sparse value, over a small denominator."""
    vec = [0] * f.m
    for _ in range(rng.choice((1, 2, 2, rng.randint(3, 5)))):
        vec[rng.randrange(f.m)] += rng.randint(-4, 4)
    return GroupAlgebraElem(f.m, vec, rng.randint(1, 6))


def test_group_algebra_ops_match_field_arithmetic():
    # random operation sequences on the lazy value against CycloElem arithmetic
    rng = random.Random(1618)
    ops = ("add", "sub", "mul", "add_vec", "add_monomial", "zero", "scalar")
    for _ in range(200):
        m = rng.randint(1, 60)
        f = CycloField(m)
        x = _random_algebra_value(rng, f)
        oracle = x.value()
        for _ in range(8):
            op = rng.choice(ops)
            y = _random_algebra_value(rng, f)
            if op == "add":
                x, oracle = x + y, oracle + y.value()
            elif op == "sub":  # no difference: callers add negated terms instead
                with pytest.raises(TypeError):
                    x - y
                continue
            elif op == "mul":
                x, oracle = x * y, oracle * y.value()
            elif op == "add_vec":
                # c x^e / (1 - t x^s) by the closed form, rational t included
                s, e = rng.randrange(-m, m), rng.randrange(-m, m)
                t = rng.choice((1, -1, 2, Fraction(-1, 2), Fraction(3, 5)))
                c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                denom = CycloElem.one(m) - CycloElem.root_power(m, s) * t
                if denom.is_zero():
                    continue
                x = x + _field_sum(m, [(c, e, s, t)])
                oracle = oracle + CycloElem.root_power(m, e) * c * denom.inv()
            elif op == "add_monomial":
                c, e = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randrange(m)
                x = x + _field_sum(m, [(c, e, 0, 0)])
                oracle = oracle + CycloElem.root_power(m, e) * c
            elif op == "scalar":
                # an int or Fraction operand is no group-algebra value
                c = rng.choice((0, 1, -3, Fraction(2, 3), Fraction(-5, 4)))
                with pytest.raises(TypeError):
                    rng.choice((lambda: x + c, lambda: x - c))()
                continue
            elif op == "zero":
                # a multiple of Phi_m: zero in the field, not in the group algebra
                phi = [0] * m
                for i, c in enumerate(cyclotomic_poly(f.m).coeffs):
                    phi[i % m] += c  # folded mod x^m - 1 (Phi_1 = x - 1)
                x = x + GroupAlgebraElem(f.m, phi) * y
            assert x.den > 0 and len(x.vec) == m
            assert x.value() == oracle, (m, op)
            assert x.is_zero() == oracle.is_zero(), (m, op)


def test_field_sum_matches_field_arithmetic():
    # random term lists c q^e / (1 - t q^s) at q = x^j against CycloElem
    # arithmetic on x^(je) / (1 - t x^(js)), with exponents outside [0, m),
    # zero coefficients among the terms and a random j coprime to m
    rng, jrng = random.Random(1515), random.Random(1516)
    for _ in range(120):
        m = rng.randint(1, 60)
        j = jrng.choice([j for j in range(1, m + 1) if gcd(j, m) == 1])
        one = CycloElem.one(m)
        terms, oracle, den = [], CycloElem.zero(m), 1
        for _ in range(rng.randint(0, 30)):
            t = rng.choice((0, 1, -1, 2, Fraction(-1, 2), Fraction(3, 5)))
            c = Fraction(rng.choice((0, rng.randint(-7, 7))), rng.randint(1, 6))
            e, s = rng.randint(-3 * m, 3 * m), rng.randint(-3 * m, 3 * m)
            term = CycloElem.root_power(m, j * e) * c
            vden = 1
            if t:
                denom = one - CycloElem.root_power(m, j * s) * t
                if denom.is_zero():
                    continue
                term = term * denom.inv()
                vden = _inverse_vector(m, j * s, t)[1]
            terms.append((c, e, s, t))
            oracle = oracle + term
            if c:
                den = lcm(den, vden * c.denominator)
        acc = _field_sum(m, terms, j)
        assert len(acc.vec) == m and acc.m == m
        assert acc.den == den, (m, j, terms)
        assert acc.value() == oracle, (m, j, terms)
        assert acc.is_zero() == oracle.is_zero()
        # the field verdict: None on a zero sum, else the rendered value
        want = None if oracle.is_zero() else oracle.render()
        assert _field_witness(m, terms, j) == want, (m, j, terms)
        negated = [(-c, e, s, t) for c, e, s, t in terms]
        assert _field_witness(m, terms + negated, j) is None, (m, j, terms)


def _admits(kind, m, s):
    """Whether 1 - t x^s, t of the given kind, is a nonzero denominator of
    that kind; d is the order m / gcd(m, s) of x^s."""
    d = m // gcd(m, s % m)
    if kind == "t = 1":
        return d > 1
    if kind == "t = -1, d odd":
        return d % 2 == 1
    if kind == "t = -1, d even":
        return d % 2 == 0 and d > 2  # 1 + x^(m/2) is zero
    return True


def test_conjugate_maps_the_sum_at_zeta_onto_the_sum_at_each_root():
    # sigma_j(_field_sum(m, T, 1)) is _field_sum(m, T, j) entry for entry and
    # in the denominator, for every m <= 30 and every j coprime to m, on
    # random term lists with every kind of t and negative e and s
    rng = random.Random(2121)
    kinds = {
        "t = 0": 0,
        "t = 1": 1,
        "t = -1, d odd": -1,
        "t = -1, d even": -1,
        "rational t": Fraction(-3, 5),
    }
    seen = set()
    for m in range(1, 31):
        terms = []
        for _ in range(4):
            for kind, t in kinds.items():
                choices = [s for s in range(-2 * m, 2 * m + 1) if _admits(kind, m, s)]
                if choices:
                    s, e = rng.choice(choices), rng.randint(-3 * m, 3 * m)
                    c = Fraction(rng.randint(-7, 7), rng.randint(1, 6))
                    terms.append((c, e, s, t))
                    seen.add(kind)
        rng.shuffle(terms)
        at_zeta = _field_sum(m, terms)
        for j in range(1, m + 1):
            if gcd(j, m) == 1:
                conjugate, want = at_zeta.conjugate(j), _field_sum(m, terms, j)
                assert conjugate.vec == want.vec and conjugate.den == want.den, (m, j)
        assert any(e < 0 for _, e, _, _ in terms) and any(s < 0 for _, _, s, _ in terms)
    assert seen == set(kinds)
    with pytest.raises(ValueError):  # x -> x^2 is no automorphism at m = 6
        GroupAlgebraElem.monomial(6, 1, 1).conjugate(2)


def test_field_sum_edge_cases():
    empty = _field_sum(7, [])
    assert empty.vec == [0] * 7 and empty.den == 1 and empty.is_zero()
    zero_terms = _field_sum(5, [(0, 3, 1, 1), (Fraction(0, 4), 2, 0, 0)])
    assert zero_terms.vec == [0] * 5 and zero_terms.den == 1
    # the denominator is checked before the coefficient is read
    for m, s, t in ((6, 6, 1), (6, 0, 1), (6, 3, -1), (1, 0, 1), (4, -2, -1)):
        with pytest.raises(ZeroDivisionError):
            _field_sum(m, [(0, 1, s, t)])


def _kernel_cases(rng):
    """(f, n, e): random polynomials, multiples of Phi_n^k times a random
    cofactor, and f * Phi_n with f(zeta_n) != 0, which only the derivative
    step tells apart from a multiple of Phi_n^2."""

    def coeff():
        return rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-5, 5), 3)))

    for n in list(range(1, 61)) + [rng.randint(1, 60) for _ in range(600)]:
        e = rng.choice((1, 2, 3))
        f = Poly([coeff() for _ in range(rng.randint(0, 3 * n + 3))])
        yield f, n, e
        cofactor = Poly([coeff() for _ in range(rng.randint(1, 6))])
        yield cofactor * cyclotomic_poly(n) ** rng.randint(1, 3), n, e
        unit = Poly.monomial(1, rng.randint(0, 2 * n))  # a unit mod Phi_n
        yield unit * cyclotomic_poly(n), n, 2
    for n in (1, 2, 4, 8, 9, 16, 25, 27, 30, 49, 60):  # prime powers, three primes
        for k in (1, 2, 3):
            for e in (1, 2, 3):
                yield (Q + 2) * cyclotomic_poly(n) ** k, n, e


def test_phi_power_divides_matches_reduction():
    # the annihilator-and-derivative test against the remainder mod Phi_n^e
    rng = random.Random(1313)
    seen = set()
    for f, n, e in _kernel_cases(rng):
        want = reduce_mod_phi_power(f, n, e).is_zero()
        assert phi_power_divides(f.coeffs, n, e) == want, (f, n, e)
        seen.add(want)
    assert seen == {True, False}


def _strided_column_kernel(coeffs, n, e=1):
    """The same zero test in its strided-column form: any f longer than n
    folded mod x^n - 1 by n column sums, every factor 1 - x^s of g_n
    applied as a subtraction, and the result scanned by any()."""
    shifts = [n // p for p, _ in factorize(n)]
    for i in range(e):
        if i:
            coeffs = list(map(mul, coeffs[1:], range(1, len(coeffs))))
        v = [sum(coeffs[r::n]) for r in range(n)] if len(coeffs) > n else [*coeffs]
        v += [0] * (n - len(v))
        for s in shifts:
            v = list(map(sub, v, v[-s:] + v[:-s]))
        if any(v):
            return False
    return True


def test_phi_power_divides_at_the_shape_boundaries():
    # every input length at which the fold changes shape (<= n, two rows
    # below 2n, columns beyond), int and Fraction coefficients, random
    # values and planted multiples cofactor * Phi_n^k, against the strided-
    # column kernel and the remainder of D f, D the lcm of the denominators
    # (a unit, so D f and f have the same verdict)
    rng = random.Random(3232)
    kinds = (lambda: rng.randint(-4, 4), lambda: Fraction(rng.randint(-7, 7), rng.randint(1, 4)))
    seen = set()
    for n in range(1, 61):
        phis = [cyclotomic_poly(n) ** k for k in (1, 2, 3)]
        for length in sorted({0, 1, n - 1, n, n + 1, 2 * n - 1, 2 * n, 2 * n + 1, 3 * n}):
            for coeff in kinds:
                top = [coeff() or 1] if length else []  # keeps the length
                cases = [[coeff() for _ in range(length - 1)] + top]
                for phi in phis:
                    size = length - phi.degree  # of the cofactor
                    if size > 0:
                        cofactor = Poly([coeff() for _ in range(size - 1)] + [1])
                        cases.append(list((cofactor * phi).coeffs))
                for f in cases:
                    assert len(f) == length
                    den = lcm(*(Fraction(c).denominator for c in f))
                    scaled = Poly([c * den for c in f])
                    for e in (1, 2, 3):
                        got = phi_power_divides(f, n, e)
                        assert got == reduce_mod_phi_power(scaled, n, e).is_zero(), (f, n, e)
                        assert got == _strided_column_kernel(f, n, e), (f, n, e)
                        seen.add(got)
    assert seen == {True, False}


def test_phi_power_divides_rejects_bad_arguments_like_the_reduction():
    for n, e, message in ((0, 1, "modulus index"), (-3, 1, "modulus index"),
                          (5, 0, "exponent"), (5, -1, "exponent")):
        for check in (lambda: phi_power_divides((1, 2), n, e),
                      lambda: reduce_mod_phi_power(Poly((1, 2)), n, e)):
            with pytest.raises(ValueError, match=message):
                check()


def test_group_algebra_is_zero_matches_reduced_value():
    rng = random.Random(2718)
    seen = set()
    for _ in range(600):
        f = CycloField(rng.randint(1, 60))
        phi = [0] * f.m
        for i, c in enumerate(cyclotomic_poly(f.m).coeffs):
            phi[i % f.m] += c  # Phi_m folded mod x^m - 1
        multiple = GroupAlgebraElem(f.m, phi) * _random_algebra_value(rng, f)
        keep, value = rng.choice((0, 1, 1)), _random_algebra_value(rng, f)
        x = value + multiple if keep else multiple
        assert x.is_zero() == x.value().is_zero(), (f.m, x.vec)
        seen.add(x.is_zero())
    assert seen == {True, False}


def test_scalar_operands_and_differences_are_type_errors():
    # + and * take two group-algebra values only: an int or Fraction on
    # either side, or a difference of two values, raises TypeError; a
    # rational enters as GroupAlgebraElem.monomial or as a constant term
    rng = random.Random(31)
    for _ in range(300):
        f = CycloField(rng.randint(1, 30))
        x, y = _random_algebra_value(rng, f), _random_algebra_value(rng, f)
        c = rng.choice((0, 1, -3, Fraction(2, 3), Fraction(-5, 4), Fraction(7, 6)))
        ops = (lambda: x + c, lambda: c + x, lambda: x - c, lambda: c - x,
               lambda: x * c, lambda: c * x, lambda: x - y)
        for op in ops:
            with pytest.raises(TypeError):
                op()
