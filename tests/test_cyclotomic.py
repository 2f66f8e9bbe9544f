"""Cyclotomic polynomials, reductions, and Q(zeta_m) arithmetic."""

import random
from fractions import Fraction
from math import comb

import pytest

from qcatalan.cyclotomic import (
    CycloElem,
    CycloField,
    cyclotomic_poly,
    divisors,
    euler_phi,
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


def test_phi_6_against_independent_division():
    # oracle: divide q^6 - 1 by Phi_1 * Phi_2 * Phi_3 with schoolbook division
    divisor = (Q - 1) * (Q + 1) * Poly([1, 1, 1])
    quotient, rem = schoolbook_divmod(q_power_minus_one(6), divisor)
    assert rem.is_zero()
    assert cyclotomic_poly(6) == quotient == Poly([1, -1, 1])


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
    return CycloElem.from_poly(a.m, u) * a.den


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


def test_division_errors():
    a = CycloElem.one(3)
    with pytest.raises(ZeroDivisionError):
        a / CycloElem.zero(3)
    with pytest.raises(ValueError):
        a + CycloElem.one(5)


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
        assert CycloElem.from_poly(n, reduce_mod_phi_power(p, n, 1)) == direct
        assert CycloElem.from_poly(n, p) == direct


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

    from qcatalan import cyclotomic as cy

    cy._PHI_CACHE.pop(105, None)
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
    e = CycloElem.from_rational(3, Fraction(2, 3))
    assert e.as_rational() == Fraction(2, 3)
    inv = (CycloElem.one(3) - CycloElem.root_power(3, 1)).inv()
    assert inv.render() == "2/3 + 1/3*x (mod Phi_3)"


def test_field_inverse_helpers_cover_all_exponents():
    for m in (7, 12, 45):
        f = CycloField(m)
        for s in range(1, m):
            vec, den = f.inv_one_minus(s)
            assert (f.one() - f.root(s)) * f.element(list(vec), den) == 1
            if m % 2 == 0 and s == m // 2:
                with pytest.raises(ZeroDivisionError):
                    f.inv_one_plus(s)
                continue
            vec, den = f.inv_one_plus(s)
            assert (f.one() + f.root(s)) * f.element(list(vec), den) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv_one_minus(0)
