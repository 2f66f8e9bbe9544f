"""Ring substrate: exact polynomial arithmetic over the rationals."""

import random
from fractions import Fraction
from itertools import zip_longest

import pytest

from qcatalan.ring import ONE, Poly, Q, ZERO, one_minus_q_pow


def schoolbook_divmod(a: Poly, b: Poly):
    """Independent long division, written the pedestrian way."""
    rem = list(a.coeffs)
    quot = [Fraction(0)] * max(0, len(rem) - len(b.coeffs) + 1)
    db = b.degree
    lead = Fraction(b.coeffs[-1])
    while len(rem) - 1 >= db and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        f = Fraction(rem[-1]) / lead
        pos = len(rem) - 1 - db
        quot[pos] = f
        for i, c in enumerate(b.coeffs):
            rem[pos + i] -= f * Fraction(c)
    return Poly(quot), Poly(rem)


def rand_poly(rng, max_deg=12, height=10**6):
    deg = rng.randint(-1, max_deg)
    if deg < 0:
        return ZERO
    return Poly([rng.randint(-height, height) for _ in range(deg + 1)])


def test_arith_examples():
    assert Poly([1, 1]) + Poly([1, -1]) == Poly([2])
    assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])
    assert (Poly([1, 1, 1]) * ZERO).is_zero()


def test_divrem_examples():
    q, r = (Q**2 - 1).divmod(Q - 1)
    assert q == Q + 1 and r.is_zero()
    q, r = Poly.monomial(1, 3).divmod(Poly([1, 1, 1]))
    assert q == Poly([-1, 1]) and r == ONE
    q, r = Poly([5]).divmod(Q + 1)
    assert q.is_zero() and r == Poly([5])


def test_divrem_by_zero():
    with pytest.raises(ZeroDivisionError):
        Poly([1, 2]).divmod(ZERO)


def test_eval_examples():
    assert Poly([1, 0, 1]).eval(1) == 2
    assert Poly([1, 0, 1, 1, 1, 0, 1]).eval(1) == 5  # third Catalan number
    assert (Q - 1).eval(0) == -1
    assert Poly([1, 2]).eval(Fraction(1, 2)) == 2


def test_normalisation_invariants():
    p = Poly([Fraction(2, 2), Fraction(0), Fraction(0)])
    assert p.coeffs == (1,)
    assert isinstance(p.coeffs[0], int)
    assert Poly([0, 0]).degree == -1
    assert Poly([1, 2, 3]).degree == 2


def test_ring_axioms_randomised():
    rng = random.Random(12345)
    for _ in range(1000):
        a, b, c = (rand_poly(rng, 12, 10**6) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_divmod_recomposition_randomised():
    rng = random.Random(999)
    for _ in range(400):
        a = rand_poly(rng, 12)
        b = rand_poly(rng, 6)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree
        q2, r2 = schoolbook_divmod(a, b)
        assert (q, r) == (q2, r2)


def test_eval_is_ring_hom():
    rng = random.Random(31337)
    for _ in range(300):
        a, b = rand_poly(rng, 8), rand_poly(rng, 8)
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        assert (a * b).eval(x) == a.eval(x) * b.eval(x)
        assert (a + b).eval(x) == a.eval(x) + b.eval(x)


def test_render():
    assert ZERO.render() == "0"
    assert Poly([1, 0, 1]).render() == "1 + q^2"
    assert Poly([Fraction(2, 3), Fraction(1, 3)]).render("x") == "2/3 + 1/3*x"
    assert Poly([0, -1, 2]).render() == "-q + 2*q^2"
    assert one_minus_q_pow(3).render() == "1 - q^3"


def test_immutability():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)


def test_trusted_paths_keep_normal_form():
    p = Poly([Fraction(1, 3), 2, Fraction(-5, 2)])
    assert (p - p).coeffs == ()
    s = Poly([Fraction(1, 3)]) + Poly([Fraction(2, 3), 5])
    assert s.coeffs == (1, 5) and all(type(c) is int for c in s.coeffs)
    half = Poly([Fraction(1, 2), Fraction(-3, 2), 4])
    for r in (-half * -2, half.shift(3) * 2, 2 * half, -(half * 2)):
        assert all(type(c) is int for c in r.coeffs)
    assert (-half).coeffs == (Fraction(-1, 2), Fraction(3, 2), -4)
    assert half.shift(2).coeffs == (0, 0) + half.coeffs
    assert (half * 2).coeffs == (1, -3, 8)
    for bad in ([0.5], [1, 0.5], [1, "2"]):
        with pytest.raises(TypeError):
            Poly(bad)
    rng = random.Random(271828)

    def mixed():
        return Poly(
            [
                Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                if rng.random() < 0.5
                else rng.randint(-6, 6)
                for _ in range(rng.randint(0, 8))
            ]
        )

    for _ in range(2000):
        a, b = mixed(), mixed()
        pairs = list(zip_longest(a.coeffs, b.coeffs, fillvalue=0))
        assert a + b == Poly([x + y for x, y in pairs])
        assert a - b == Poly([x - y for x, y in pairs])
        for r in (a + b, a - b, b - a, -a, a.shift(rng.randint(0, 3))):
            fresh = Poly(list(r.coeffs))
            assert r == fresh and hash(r) == hash(fresh)
            assert [type(c) for c in r.coeffs] == [type(c) for c in fresh.coeffs]
